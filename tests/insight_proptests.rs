//! Property tests for the insight layer.
//!
//! * **Attribution invariants**: for any valid generated DML program
//!   (see `common/dml_gen.rs`) under any random fault schedule, the
//!   ledger attribution must satisfy
//!   `critical_path ≤ makespan ≤ serial_sum`, partition the makespan
//!   into non-negative taxonomy buckets, and explain ≥ 97% of it — and
//!   the utilization timeline built from the same trace must stay
//!   inside the cluster's lanes and the run's makespan.
//! * **Ledger completeness**: every optimization writes exactly one
//!   record per generated CP grid point (one of them Chosen), in
//!   ascending grid order, with triage counts that reconcile against
//!   the optimizer's own statistics.

#[path = "common/dml_gen.rs"]
mod dml_gen;

use proptest::prelude::*;
use reml::insight::{attribute_app, build_timeline, explain, LaneState};
use reml::prelude::*;
use reml::sim::{FaultSpec, FaultTrigger, RetryPolicy};

use dml_gen::generate_program;

/// Decode `(trigger_sel, trigger_idx, kind_sel, param)` tuples into a
/// fault plan covering every fault kind and both trigger kinds.
fn build_plan(raw: &[(u8, u64, u8, f64)], backoff_s: f64) -> FaultPlan {
    let faults = raw
        .iter()
        .map(|&(tk, idx, fk, param)| {
            let trigger = if tk % 2 == 0 {
                FaultTrigger::MrJob(idx)
            } else {
                FaultTrigger::Recompilation(idx)
            };
            let kind = match fk % 5 {
                0 => FaultKind::ContainerPreemption { fraction: param },
                1 => FaultKind::NodeLoss {
                    node: (idx % 8) as u32,
                },
                2 => FaultKind::AmKill,
                3 => FaultKind::TaskOom {
                    watermark_frac: 0.2 + 0.8 * param,
                },
                _ => FaultKind::Straggler {
                    factor: 1.0 + 2.0 * param,
                },
            };
            FaultSpec { trigger, kind }
        })
        .collect();
    FaultPlan {
        faults,
        retry: RetryPolicy {
            max_attempts: 3,
            backoff_s,
        },
    }
}

proptest! {
    /// Random DML × random fault schedule: the attribution invariants
    /// and the timeline's geometric sanity hold on every simulated run.
    #[test]
    fn attribution_invariants_hold_under_random_faults(
        ops in prop::collection::vec((0u8..255, 0u8..255, 0u8..255), 1usize..8),
        ctrl in 0u8..255,
        raw in prop::collection::vec((0u8..2, 0u64..6, 0u8..5, 0.05f64..0.95), 0..4),
        backoff_s in 0.0f64..5.0,
        seed in 0u64..1_000,
    ) {
        let source = generate_program(&ops, ctrl);
        let cluster = ClusterConfig::paper_cluster();
        let analyzed = analyze_program(&source)
            .unwrap_or_else(|e| panic!("generated program must be valid: {e}\n{source}"));
        let base = CompileConfig::new(cluster.clone(), 512, 512);
        let plan = build_plan(&raw, backoff_s);
        let outcome = Simulator::new(cluster.clone())
            .run_app(
                &analyzed,
                &base,
                &SimConfig {
                    resources: ResourceConfig::uniform(512, 512),
                    reopt: true,
                    facts: SimFacts { seed, ..SimFacts::default() },
                    slot_availability: 1.0,
                    faults: plan,
                },
            )
            .unwrap_or_else(|e| panic!("generated program must simulate: {e}\n{source}"));

        let att = attribute_app(&outcome);
        att.check_invariants()
            .unwrap_or_else(|e| panic!("attribution invariant violated: {e}\n{source}"));
        prop_assert!(
            att.coverage >= 0.97,
            "coverage {} < 0.97 (makespan {})\n{source}",
            att.coverage,
            att.makespan_s
        );
        // The simulator's virtual clock is serial, so its ledger is a
        // chain and the critical path is exactly the charged time.
        prop_assert_eq!(
            att.critical_path_s.to_bits(),
            outcome.causal.charged_s().to_bits()
        );
        let eps = 1e-6 * att.makespan_s.max(1.0);

        let tl = build_timeline(&outcome.causal, &cluster, outcome.elapsed_s);
        prop_assert!((0.0..=1.0).contains(&tl.cluster_utilization));
        prop_assert!((0.0..=1.0).contains(&tl.am_utilization));
        prop_assert_eq!(tl.lane_names.len(), 1 + cluster.num_nodes as usize);
        for seg in &tl.segments {
            prop_assert!((seg.lane as usize) < tl.lane_names.len());
            prop_assert!(seg.end_s > seg.start_s, "zero-length segments are skipped");
            prop_assert!(seg.start_s >= -eps && seg.end_s <= outcome.elapsed_s + eps);
            // Rework time is never labeled productive.
            if seg.label.ends_with(".rework") {
                prop_assert_eq!(seg.state, LaneState::Preempted);
            }
        }
    }

    /// Every optimization run yields a complete decision ledger: one
    /// record per generated CP grid point, ascending, exactly one
    /// Chosen, and triage counts that match the optimizer's stats.
    #[test]
    fn decision_ledger_covers_every_grid_point_exactly_once(
        ops in prop::collection::vec((0u8..255, 0u8..255, 0u8..255), 1usize..8),
        ctrl in 0u8..255,
    ) {
        let source = generate_program(&ops, ctrl);
        let cluster = ClusterConfig::paper_cluster();
        let analyzed = analyze_program(&source)
            .unwrap_or_else(|e| panic!("generated program must be valid: {e}\n{source}"));
        let base = CompileConfig::new(cluster.clone(), 512, 512);
        let optimizer = ResourceOptimizer::new(CostModel::new(cluster.clone()));
        let result = optimizer
            .optimize(&analyzed, &base, None)
            .unwrap_or_else(|e| panic!("generated program must optimize: {e}\n{source}"));
        let ledger = &result.ledger;

        // One record per generated grid point (stats.cp_points counts the
        // pre-pruning grid), in strictly ascending order.
        prop_assert_eq!(ledger.points.len(), result.stats.cp_points);
        let grid: Vec<u64> = ledger.points.iter().map(|p| p.cp_heap_mb).collect();
        for pair in grid.windows(2) {
            prop_assert!(pair[0] < pair[1], "grid not ascending: {:?}", grid);
        }
        ledger
            .check_complete(&grid)
            .unwrap_or_else(|e| panic!("ledger incomplete: {e}\n{source}"));

        // Triage counts reconcile with the optimizer's own statistics.
        let (costed, pruned, skipped) = ledger.counts();
        prop_assert_eq!(costed + pruned + skipped, result.stats.cp_points);
        prop_assert_eq!(pruned, result.stats.cp_points_pruned_unsound);

        // The Chosen record is the optimization outcome, bit for bit.
        let chosen = ledger.chosen().expect("exactly one chosen");
        prop_assert_eq!(chosen.cp_heap_mb, result.best.cp_heap_mb);
        prop_assert_eq!(
            chosen.verdict.cost_s().unwrap().to_bits(),
            result.best_cost_s.to_bits()
        );

        // And the explanation renders from it without losing the counts.
        let exp = explain(&result, 3);
        prop_assert_eq!(exp.chosen_cp_heap_mb, result.best.cp_heap_mb);
        prop_assert_eq!(
            (exp.grid_costed, exp.grid_pruned, exp.grid_skipped),
            (costed, pruned, skipped)
        );
    }
}
