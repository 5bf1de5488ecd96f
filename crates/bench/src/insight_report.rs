//! Insight report: makespan attribution, utilization timelines, and
//! optimizer decision provenance for the five paper scripts.
//!
//! Sweeps 5 scripts × {XS, S, M} × {benign, canonical fault schedule}.
//! Each run optimizes the workload, simulates it at the chosen
//! configuration, attributes the makespan over the simulator's time
//! ledger (`reml_insight`), builds the per-node utilization timeline, and
//! renders the optimizer's decision ledger.
//!
//! Artifacts: `results/insight_report.json` (deterministic — derived
//! only from the virtual clock, never wall time) and
//! `results/insight_timeline_trace.json` (Chrome `trace_event` Gantt
//! lanes of a representative faulted run).
//!
//! Gates (the entry fails when one does):
//! 1. attribution invariants hold and coverage ≥ 97% on every run;
//! 2. the whole report built twice in-process is byte-identical;
//! 3. every decision ledger covers its full CP grid exactly once;
//! 4. the binding-resource demo: capping the cluster's allocation
//!    ceiling below the chosen CP container moves the optimum.

use reml_cost::CostModel;
use reml_insight::{attribute_app, build_timeline, explain, timeline_records};
use reml_optimizer::ResourceOptimizer;
use reml_scripts::Scenario;
use reml_sim::{Bucket, FaultPlan, SimFacts};
use serde::Value;

use crate::{dense1000, write_artifact, Error, ExperimentResult, Outcome, Workload};

/// Coverage gate: fraction of each makespan explained by a non-residual
/// taxonomy bucket.
const COVERAGE_GATE: f64 = 0.97;

fn scenarios() -> [Scenario; 3] {
    [Scenario::XS, Scenario::S, Scenario::M]
}

fn fault_modes() -> [(&'static str, FaultPlan); 2] {
    [
        ("none", FaultPlan::none()),
        ("canonical", FaultPlan::canonical()),
    ]
}

/// One full sweep. Returns the machine-readable report tree plus the
/// human-readable attribution table; everything in the tree derives from
/// the deterministic virtual clock, so two sweeps must agree bytewise.
fn build_report() -> Result<(Value, ExperimentResult, f64), Error> {
    let mut runs: Vec<Value> = Vec::new();
    let mut table = ExperimentResult::new(
        "insight_attribution",
        "makespan attribution [s] per script × scenario × faults",
    );
    let mut worst_coverage = 1.0f64;

    for script in reml_scripts::all_scripts() {
        for scenario in scenarios() {
            let wl = Workload::new(script.clone(), dense1000(scenario))?;
            let run = format!("{} {}", wl.script.name, scenario.name());
            let opt = wl.optimize()?;
            let grid: Vec<u64> = opt.ledger.points.iter().map(|p| p.cp_heap_mb).collect();
            opt.ledger
                .check_complete(&grid)
                .map_err(|e| format!("ledger completeness gate failed ({run}): {e}"))?;
            let explanation = explain(&opt, 3);

            for (fault_label, faults) in fault_modes() {
                let outcome = wl.measure(opt.best.clone(), false, SimFacts::default(), faults)?;
                let att = attribute_app(&outcome);
                att.check_invariants().map_err(|e| {
                    format!("attribution invariant violated ({run} {fault_label}): {e}")
                })?;
                if att.coverage < COVERAGE_GATE {
                    return Err(format!(
                        "coverage gate failed ({run} {fault_label}): {:.4} < {COVERAGE_GATE}",
                        att.coverage
                    )
                    .into());
                }
                worst_coverage = worst_coverage.min(att.coverage);

                let tl = build_timeline(&outcome.causal, &wl.cluster, outcome.elapsed_s);
                let label = format!("{}/{}/{}", wl.script.name, scenario.name(), fault_label);
                table.push_row(
                    label.clone(),
                    vec![
                        ("makespan".to_string(), att.makespan_s),
                        ("compute".to_string(), att.bucket_s(Bucket::Compute)),
                        ("io".to_string(), att.bucket_s(Bucket::Io)),
                        ("shuffle".to_string(), att.bucket_s(Bucket::Shuffle)),
                        ("sched".to_string(), att.bucket_s(Bucket::SchedulingDelay)),
                        ("rework".to_string(), att.bucket_s(Bucket::RetryRework)),
                        ("coverage%".to_string(), 100.0 * att.coverage),
                        ("util%".to_string(), 100.0 * tl.cluster_utilization),
                    ],
                );
                runs.push(Value::Object(vec![
                    ("script".to_string(), Value::Str(wl.script.name.to_string())),
                    (
                        "scenario".to_string(),
                        Value::Str(scenario.name().to_string()),
                    ),
                    ("faults".to_string(), Value::Str(fault_label.to_string())),
                    ("chosen".to_string(), Value::Str(opt.best.display_gb())),
                    ("attribution".to_string(), serde::Serialize::to_value(&att)),
                    ("timeline".to_string(), serde::Serialize::to_value(&tl)),
                    (
                        "explanation".to_string(),
                        serde::Serialize::to_value(&explanation),
                    ),
                ]));
            }
        }
    }

    let report = Value::Object(vec![
        ("coverage_gate".to_string(), Value::Num(COVERAGE_GATE)),
        ("runs".to_string(), Value::Array(runs)),
    ]);
    Ok((report, table, worst_coverage))
}

/// Gate 4: the binding-resource demonstration. The optimizer picks a
/// large CP heap for iterative CG on M data (Figure 1); capping the
/// cluster's container-allocation ceiling below that choice must move
/// the optimum — i.e. CP memory was binding.
fn binding_resource_demo() -> Result<Value, Error> {
    let wl = Workload::new(reml_scripts::linreg_cg(), dense1000(Scenario::M))?;
    let opt = wl.optimize()?;
    let chosen = opt.best.cp_heap_mb;

    let mut capped = wl.cluster.clone();
    capped.max_alloc_mb = capped.container_mb_for_heap(chosen) - 512;
    let optimizer = ResourceOptimizer::new(CostModel::new(capped.clone()));
    let mut base = wl.base.clone();
    base.cluster = capped.clone();
    let capped_opt = optimizer.optimize(&wl.analyzed, &base, None)?;
    if capped_opt.best.cp_heap_mb >= chosen {
        return Err(format!(
            "binding-resource gate failed: capped optimum {} MB did not fall below chosen {} MB",
            capped_opt.best.cp_heap_mb, chosen
        )
        .into());
    }
    println!(
        "binding-resource gate OK: LinregCG M chose {} MB CP heap; capping the allocation \
         ceiling moved the optimum to {} MB (Δcost {:+.1}s)",
        chosen,
        capped_opt.best.cp_heap_mb,
        capped_opt.best_cost_s - opt.best_cost_s
    );
    Ok(Value::Object(vec![
        ("script".to_string(), Value::Str("LinregCG".to_string())),
        ("chosen_cp_heap_mb".to_string(), Value::Num(chosen as f64)),
        (
            "capped_max_alloc_mb".to_string(),
            Value::Num(capped.max_alloc_mb as f64),
        ),
        (
            "capped_cp_heap_mb".to_string(),
            Value::Num(capped_opt.best.cp_heap_mb as f64),
        ),
        (
            "cost_delta_s".to_string(),
            Value::Num(capped_opt.best_cost_s - opt.best_cost_s),
        ),
    ]))
}

/// Chrome-trace artifact: the Gantt lanes of a representative faulted
/// run (LinregDS M canonical at the optimizer's choice).
fn representative_trace() -> Result<String, Error> {
    let wl = Workload::new(reml_scripts::linreg_ds(), dense1000(Scenario::M))?;
    let opt = wl.optimize()?;
    let faults = FaultPlan::canonical();
    let outcome = wl.measure(opt.best, false, SimFacts::default(), faults)?;
    let tl = build_timeline(&outcome.causal, &wl.cluster, outcome.elapsed_s);
    Ok(reml_trace::to_chrome_trace(&timeline_records(&tl)))
}

pub fn run() -> Outcome {
    println!("building insight report (5 scripts × XS/S/M × benign/canonical)...");
    let (report_a, table, worst_coverage) = build_report()?;
    let json_a = serde_json::to_string_pretty(&report_a)? + "\n";

    // Gate 2: a second in-process sweep must reproduce the bytes — the
    // report may depend only on (seed, config), never on wall time.
    let json_b = serde_json::to_string_pretty(&build_report()?.0)? + "\n";
    if json_a != json_b {
        return Err(
            "determinism gate failed: two in-process sweeps produced different reports".into(),
        );
    }
    println!(
        "determinism gate OK: double-build byte-identical ({} bytes)",
        json_a.len()
    );

    let binding = binding_resource_demo()?;

    table.print();
    println!(
        "coverage gate OK: worst-case attribution coverage {:.2}% (gate ≥ {:.0}%)",
        100.0 * worst_coverage,
        100.0 * COVERAGE_GATE
    );

    // Final artifact: the gated report plus the binding demo appendix.
    let full = Value::Object(vec![
        ("coverage_gate".to_string(), Value::Num(COVERAGE_GATE)),
        ("worst_coverage".to_string(), Value::Num(worst_coverage)),
        ("binding_resource_demo".to_string(), binding),
        ("report".to_string(), report_a),
        ("table".to_string(), serde::Serialize::to_value(&table)),
    ]);
    write_artifact(
        "insight_report.json",
        serde_json::to_string_pretty(&full)? + "\n",
    )?;
    write_artifact("insight_timeline_trace.json", representative_trace()?)?;
    Ok(Vec::new())
}
