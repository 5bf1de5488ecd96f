//! Deterministic failure-replay harness (golden traces).
//!
//! Every faulted run emits a structured event trace; replaying the same
//! `(seed, FaultPlan)` must reproduce it byte for byte. The five paper
//! scripts at XS/S/M under the canonical fault schedule are snapshot-
//! tested against golden files in `tests/golden/`.
//!
//! Regenerating goldens after an intentional simulator/cost-model
//! change:
//!
//! ```bash
//! BLESS=1 cargo test --test fault_replay
//! git diff tests/golden/          # review every change before committing
//! ```
//!
//! On mismatch, the actual and expected traces are written to
//! `target/golden-diffs/<name>.{actual,expected}.json` (uploaded as a CI
//! artifact) so failures are diffable without rerunning.

use std::fs;
use std::path::PathBuf;

use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::scripts::{DataShape, Scenario, ScriptSpec};
use reml::sim::{
    trace_to_json, AppOutcome, FaultKind, FaultSpec, FaultTrigger, RetryPolicy, TraceEvent,
};

/// Fixed-entry run: resources pinned to the YARN minimum so every
/// scenario exercises recompilation, adaptation, and MR jobs the same
/// way regardless of optimizer evolution.
fn run_faulted(script: &ScriptSpec, scenario: Scenario, plan: FaultPlan) -> AppOutcome {
    let cluster = ClusterConfig::paper_cluster();
    let analyzed = reml::compiler::pipeline::analyze_program(&script.source).unwrap();
    // 1000 columns: wide enough that the M scenario genuinely spawns MR
    // jobs at the pinned 512 MB entry heap (so MrJob-triggered faults
    // have something to hit).
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
                    ..SimFacts::default()
                },
                slot_availability: 1.0,
                faults: plan,
            },
        )
        .unwrap()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Compare a trace against its golden file; `BLESS=1` regenerates.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run with BLESS=1"));
    if expected != actual {
        let diff_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/golden-diffs");
        fs::create_dir_all(&diff_dir).unwrap();
        fs::write(diff_dir.join(format!("{name}.actual.json")), actual).unwrap();
        fs::write(diff_dir.join(format!("{name}.expected.json")), &expected).unwrap();
        panic!(
            "golden trace mismatch for {name}; see target/golden-diffs/{name}.*.json \
             (BLESS=1 to regenerate after an intentional change)"
        );
    }
}

fn check_script_goldens(script: &ScriptSpec, slug: &str) {
    for (scenario, scen_slug) in [(Scenario::XS, "xs"), (Scenario::S, "s"), (Scenario::M, "m")] {
        let out = run_faulted(script, scenario, FaultPlan::canonical());
        check_golden(
            &format!("fault_trace_{slug}_{scen_slug}"),
            &trace_to_json(&out.events),
        );
    }
}

#[test]
fn golden_trace_linreg_ds() {
    check_script_goldens(&reml::scripts::linreg_ds(), "linreg_ds");
}

#[test]
fn golden_trace_linreg_cg() {
    check_script_goldens(&reml::scripts::linreg_cg(), "linreg_cg");
}

#[test]
fn golden_trace_l2svm() {
    check_script_goldens(&reml::scripts::l2svm(), "l2svm");
}

#[test]
fn golden_trace_mlogreg() {
    check_script_goldens(&reml::scripts::mlogreg(), "mlogreg");
}

#[test]
fn golden_trace_glm() {
    check_script_goldens(&reml::scripts::glm(), "glm");
}

#[test]
fn replay_is_byte_identical() {
    let script = reml::scripts::linreg_ds();
    let a = run_faulted(&script, Scenario::M, FaultPlan::canonical());
    let b = run_faulted(&script, Scenario::M, FaultPlan::canonical());
    // Exact in-memory equality (full f64 precision), then the serialized
    // byte-for-byte contract.
    assert_eq!(a.events, b.events);
    assert_eq!(trace_to_json(&a.events), trace_to_json(&b.events));
    assert_eq!(a.elapsed_s, b.elapsed_s);
    // The outcome's clock is the ledger's, bit for bit.
    assert_eq!(a.elapsed_s.to_bits(), a.causal.now().to_bits());
    assert_eq!(a.mr_jobs, b.mr_jobs);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.task_retries, b.task_retries);
    assert_eq!(a.faults_injected, b.faults_injected);
    assert_eq!(a.final_resources, b.final_resources);
}

#[test]
fn canonical_plan_injects_faults_and_charges_rework() {
    // LinregDS M at the pinned 512 MB heap launches several MR jobs, so
    // all MR-scoped canonical faults (straggler/preemption/node loss)
    // fire alongside the AM kill.
    let script = reml::scripts::linreg_ds();
    let clean = run_faulted(&script, Scenario::M, FaultPlan::none());
    let faulted = run_faulted(&script, Scenario::M, FaultPlan::canonical());
    assert!(faulted.faults_injected >= 3, "{}", faulted.faults_injected);
    assert!(faulted.fault_rework_s() > 0.0);
    assert!(
        faulted.elapsed_s > clean.elapsed_s,
        "faulted {:.1}s vs clean {:.1}s",
        faulted.elapsed_s,
        clean.elapsed_s
    );
    assert_eq!(clean.faults_injected, 0);
    assert_eq!(clean.fault_rework_s(), 0.0);
    // Every trace starts with app_start and ends with the outcome.
    assert!(matches!(
        faulted.events.first().map(|e| &e.event),
        Some(TraceEvent::AppStart { .. })
    ));
    assert!(matches!(
        faulted.events.last().map(|e| &e.event),
        Some(TraceEvent::Outcome { .. })
    ));
    // Trace timestamps are monotone.
    for w in faulted.events.windows(2) {
        assert!(w[0].t_s <= w[1].t_s + 1e-9);
    }
}

#[test]
fn fault_rework_is_what_each_fault_event_reports() {
    // One fault per run: the rework total derived from the ledger must be
    // the seconds that fault's own event reports. A node loss also pays
    // one requeue delay, which its event does not carry.
    let requeue_s =
        RetryPolicy::default().backoff_s + ClusterConfig::paper_cluster().container_alloc_latency_s;
    let script = reml::scripts::linreg_ds();
    let cases = [
        (FaultTrigger::MrJob(0), FaultKind::Straggler { factor: 2.0 }),
        (
            FaultTrigger::MrJob(1),
            FaultKind::ContainerPreemption { fraction: 0.25 },
        ),
        (FaultTrigger::MrJob(2), FaultKind::NodeLoss { node: 0 }),
        (FaultTrigger::Recompilation(2), FaultKind::AmKill),
        // A low watermark trips mid-block, after real work was charged.
        (
            FaultTrigger::Recompilation(1),
            FaultKind::TaskOom {
                watermark_frac: 0.05,
            },
        ),
    ];
    for (trigger, kind) in cases {
        let name = kind.name();
        let plan = FaultPlan {
            faults: vec![FaultSpec { trigger, kind }],
            retry: RetryPolicy::default(),
        };
        let out = run_faulted(&script, Scenario::M, plan);
        assert_eq!(out.faults_injected, 1, "{name}");
        let reported: f64 = out
            .events
            .iter()
            .map(|e| match e.event {
                TraceEvent::Straggler { slowdown_s, .. } => slowdown_s,
                TraceEvent::Preemption {
                    rework_s,
                    backoff_s,
                    ..
                } => rework_s + backoff_s,
                TraceEvent::NodeLoss { rework_s, .. } => rework_s + requeue_s,
                TraceEvent::AmKill {
                    restart_latency_s,
                    rework_s,
                    restore_s,
                    ..
                } => restore_s + rework_s + restart_latency_s,
                TraceEvent::Oom { wasted_s, .. } => wasted_s,
                _ => 0.0,
            })
            .sum();
        assert!(reported > 0.0, "{name} fired and cost time");
        let derived = out.fault_rework_s();
        assert!(
            (derived - reported).abs() <= 1e-12 * reported,
            "{name}: ledger {derived} s vs event {reported} s"
        );
    }
}

#[test]
fn am_kill_ends_in_recovery_with_cost_charged() {
    // Acceptance: an injected AM kill ends in a successful §4 recovery,
    // with the migration/restart cost visible in the measured time.
    let script = reml::scripts::mlogreg();
    let plan = FaultPlan {
        faults: vec![FaultSpec {
            trigger: FaultTrigger::Recompilation(3),
            kind: FaultKind::AmKill,
        }],
        retry: Default::default(),
    };
    let clean = run_faulted(&script, Scenario::M, FaultPlan::none());
    let killed = run_faulted(&script, Scenario::M, plan);
    assert_eq!(killed.recoveries, 1);
    assert_eq!(killed.faults_injected, 1);
    // The run completes and pays for the restart.
    assert!(
        killed.elapsed_s > clean.elapsed_s,
        "killed {:.1}s vs clean {:.1}s",
        killed.elapsed_s,
        clean.elapsed_s
    );
    let kill_ev = killed
        .events
        .iter()
        .find(|e| matches!(e.event, TraceEvent::AmKill { .. }))
        .expect("AmKill event traced");
    if let TraceEvent::AmKill {
        restart_latency_s, ..
    } = &kill_ev.event
    {
        assert!(*restart_latency_s > 0.0);
    }
    // The restarted AM ran the recovery decision.
    assert!(killed
        .events
        .iter()
        .any(|e| matches!(e.event, TraceEvent::Recovery { .. })));
}

#[test]
fn node_loss_shrinks_capacity_for_rest_of_run() {
    let script = reml::scripts::linreg_ds();
    let plan = FaultPlan {
        faults: vec![FaultSpec {
            trigger: FaultTrigger::MrJob(0),
            kind: FaultKind::NodeLoss { node: 2 },
        }],
        retry: Default::default(),
    };
    let out = run_faulted(&script, Scenario::M, plan);
    if out.mr_jobs == 0 {
        // No MR job launched → the trigger never fired; nothing to check.
        assert_eq!(out.faults_injected, 0);
        return;
    }
    let loss = out
        .events
        .iter()
        .find(|e| matches!(e.event, TraceEvent::NodeLoss { .. }))
        .expect("NodeLoss event traced");
    if let TraceEvent::NodeLoss {
        slot_availability,
        containers_lost: _,
        ..
    } = &loss.event
    {
        assert!(*slot_availability < 1.0);
    }
}
