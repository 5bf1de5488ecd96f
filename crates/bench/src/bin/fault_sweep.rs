//! Fault sweep: the five paper scripts under escalating fault schedules
//! (Figure 15-style robustness view of the §4 runtime adaptation layer).
//!
//! Each script runs at M scale with adaptation enabled, pinned to the
//! 512 MB YARN minimum at entry so recompilations and MR jobs give the
//! fault triggers something to hit, under three schedules:
//!
//! * `none`      — the clean baseline,
//! * `light`     — a lossy cluster: 10% container preemption + one
//!   1.5× straggler,
//! * `canonical` — one of every fault kind, including an AM kill that
//!   exercises the §4 recovery decision and a task OOM that forces
//!   recompilation to MR plans at actual sizes.
//!
//! Reported per script: elapsed time under each schedule, the rework
//! seconds directly attributable to faults, and recovery/retry counts
//! under the canonical schedule.

use reml_bench::{ExperimentResult, Workload};
use reml_optimizer::ResourceConfig;
use reml_scripts::{DataShape, Scenario};
use reml_sim::{FaultPlan, SimFacts};

fn main() {
    let mut result = ExperimentResult::new(
        "fault_sweep",
        "Paper scripts (M, dense1000) under none/light/canonical fault schedules",
    );
    for script in reml_scripts::all_scripts() {
        let shape = DataShape {
            scenario: Scenario::M,
            cols: 1000,
            sparsity: 1.0,
        };
        let label = script.name.to_string();
        let wl = Workload::new(script, shape);
        let facts = SimFacts {
            table_cols: 5,
            ..SimFacts::default()
        };
        let entry = ResourceConfig::uniform(512, 512);
        let mut values = Vec::new();
        let mut canonical = None;
        for (plan_name, plan) in [
            ("none", FaultPlan::none()),
            ("light", FaultPlan::light()),
            ("canonical", FaultPlan::canonical()),
        ] {
            let out = wl.measure_faulted(entry.clone(), true, facts.clone(), plan);
            values.push((format!("{plan_name}[s]"), out.elapsed_s));
            if plan_name == "canonical" {
                canonical = Some(out);
            }
        }
        let canonical = canonical.expect("canonical schedule ran");
        values.push(("rework[s]".to_string(), canonical.fault_rework_s()));
        values.push(("faults".to_string(), canonical.faults_injected as f64));
        values.push(("recoveries".to_string(), canonical.recoveries as f64));
        values.push(("retries".to_string(), canonical.task_retries as f64));
        result.push_row(label, values);
    }
    result.notes = "Every run replays deterministically from (seed, FaultPlan); the \
                    golden traces for the canonical schedule live in tests/golden/. \
                    Rework seconds cover re-executed task work, AM restart latency, \
                    and OOM-wasted CP attempts; they are a lower bound on the \
                    elapsed-time gap because faults also shift the optimizer's \
                    post-recovery choices."
        .to_string();
    result.print();
    result.save();
}
