//! Property tests for the fault-injection layer.
//!
//! * **Replay determinism** (the harness contract): for any `(seed,
//!   FaultPlan)`, two runs produce identical event traces, serialized
//!   bytes, and outcomes. Heavy (full simulations per case) — marked
//!   `#[ignore]`; the CI replay job runs it in release with
//!   `--include-ignored`.
//! * **Buffer-pool LRU invariants** under fault-induced eviction storms
//!   (capacity shrinks from AM kills/migrations, churned working sets),
//!   on the byte-size pool the simulator runs: occupancy never exceeds
//!   the CP budget (except a single protected oversized entry), restores
//!   are charged at most once per eviction, and a migration leaves
//!   nothing dirty.

use proptest::prelude::*;
use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::runtime::BufferPool;
use reml::scripts::{DataShape, Scenario};
use reml::sim::{trace_to_json, AppOutcome, Comp, FaultSpec, FaultTrigger, RetryPolicy};

/// Decode `(trigger_sel, trigger_idx, kind_sel, param)` tuples into a
/// plan: every fault kind and both trigger kinds are reachable.
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

fn run_once(script_idx: usize, scenario: Scenario, seed: u64, plan: &FaultPlan) -> AppOutcome {
    let scripts = reml::scripts::all_scripts();
    let script = &scripts[script_idx % scripts.len()];
    let cluster = ClusterConfig::paper_cluster();
    let analyzed = reml::compiler::pipeline::analyze_program(&script.source).unwrap();
    let shape = DataShape {
        scenario,
        cols: 1000,
        sparsity: 1.0,
    };
    let base = script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
    Simulator::new(cluster)
        .run_app(
            &analyzed,
            &base,
            &SimConfig {
                resources: ResourceConfig::uniform(512, 512),
                reopt: true,
                facts: SimFacts {
                    table_cols: 5,
                    seed,
                    ..SimFacts::default()
                },
                slot_availability: 1.0,
                faults: plan.clone(),
            },
        )
        .unwrap()
}

proptest! {
    /// The determinism invariant of the failure-replay harness: same
    /// `(seed, FaultPlan)` → identical trace and outcome, byte for byte.
    #[test]
    #[ignore = "full simulations per case; CI replay job runs with --include-ignored"]
    fn same_seed_and_plan_replays_identically(
        raw in prop::collection::vec((0u8..2, 0u64..8, 0u8..5, 0.05f64..0.95), 0..5),
        backoff_s in 0.0f64..5.0,
        script_idx in 0usize..5,
        scen_sel in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let scenario = if scen_sel == 0 { Scenario::XS } else { Scenario::S };
        let plan = build_plan(&raw, backoff_s);
        let a = run_once(script_idx, scenario, seed, &plan);
        let b = run_once(script_idx, scenario, seed, &plan);
        prop_assert_eq!(&a.events, &b.events);
        prop_assert_eq!(trace_to_json(&a.events), trace_to_json(&b.events));
        prop_assert_eq!(a.elapsed_s, b.elapsed_s);
        for comp in [Comp::Io, Comp::Compute, Comp::Latency, Comp::Shuffle, Comp::Eviction] {
            prop_assert_eq!(a.causal.component_s(comp), b.causal.component_s(comp));
        }
        prop_assert_eq!(a.mr_jobs, b.mr_jobs);
        prop_assert_eq!(a.migrations, b.migrations);
        prop_assert_eq!(a.recoveries, b.recoveries);
        prop_assert_eq!(a.task_retries, b.task_retries);
        prop_assert_eq!(a.faults_injected, b.faults_injected);
        prop_assert_eq!(a.fault_rework_s(), b.fault_rework_s());
        prop_assert_eq!(a.final_resources, b.final_resources);
    }

    /// The buffer pool under eviction storms: random op sequences
    /// including the capacity shrinks that AM kills and migrations cause.
    #[test]
    fn pool_invariants_under_eviction_storms(
        ops in prop::collection::vec(
            (0u8..6, 0usize..8, 1u64..200, 0u8..2, 20u64..400),
            1..60,
        ),
        initial_capacity in 50u64..300,
    ) {
        let mut pool: BufferPool<u64> = BufferPool::new(initial_capacity);
        for (op, name_idx, bytes, dirty, capacity) in ops {
            let name = format!("v{name_idx}");
            match op {
                0 => pool.put_with_dirty(&name, bytes, dirty == 1),
                1 => {
                    pool.touch(&name);
                }
                2 => {
                    pool.remove(&name);
                }
                // Fault-induced storm: AM-restart resizes.
                3 => pool.set_capacity_bytes(capacity),
                // §4.1 migration: export the dirty set, then resize.
                4 => {
                    let dirty_bytes = pool.dirty_bytes();
                    let mut exported = 0;
                    let report = pool.migrate(capacity, |_, &b| exported += b);
                    prop_assert_eq!(report.dirty_bytes, dirty_bytes);
                    prop_assert_eq!(exported, dirty_bytes);
                    prop_assert_eq!(pool.dirty_bytes(), 0);
                }
                _ => pool.mark_clean(&name),
            }
            if matches!(op, 0 | 1 | 3 | 4) {
                // Occupancy never exceeds the CP budget, except when a
                // single oversized entry is protected (the in-flight
                // operand/output of the running instruction).
                prop_assert!(
                    pool.resident_bytes() <= pool.capacity_bytes()
                        || pool.num_resident() == 1,
                    "resident {} > capacity {} with {} entries resident",
                    pool.resident_bytes(),
                    pool.capacity_bytes(),
                    pool.num_resident(),
                );
            }
            // Restores are charged at most once per eviction: an entry
            // must be evicted before it can be restored again.
            let stats = pool.stats();
            prop_assert!(stats.restores <= stats.evictions);
            prop_assert!(stats.bytes_restored <= stats.bytes_evicted);
            prop_assert!(pool.dirty_bytes() <= 8 * 200);
        }
    }
}
