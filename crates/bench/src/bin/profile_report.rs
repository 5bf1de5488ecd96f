//! Profile report: flight-recorder profiling of the five paper scripts.
//!
//! Default mode runs analyze → optimize → simulate → execute for each
//! script under a wall-clock `reml_trace` recorder and emits
//!
//! 1. a per-phase time-attribution table (self time per span name — the
//!    Table 3 analogue generalized to the whole stack), gated on
//!    coverage: ≥ 95% of measured wall time must be explained by named
//!    sub-phases rather than unattributed root-span self time;
//! 2. a per-opcode CP instruction timing table from the `vm.op.*`
//!    histograms (populated by the real executor pass, which runs on
//!    the bytecode VM);
//! 3. `results/profile_report.json` — phases + full metric registry —
//!    and `results/profile_trace.json` — Chrome `trace_event` format,
//!    loadable in chrome://tracing or Perfetto.
//!
//! `profile_report overhead` instead runs the tracing-overhead gate: a
//! fig7-style workload measured with no recorder installed (the
//! instrumentation's disabled fast path: one relaxed atomic load per
//! site) vs. with a sampled always-on recorder. The gate asserts the
//! disabled path stays within 3% (+ a fixed epsilon for timer noise) of
//! the baseline established in the same process, interleaving the two
//! configurations and comparing min-of-N to shed scheduler noise.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use reml_bench::{results_dir, ExperimentResult, Workload};
use reml_scripts::data::LabelKind;
use reml_scripts::{DataShape, Scenario, ScriptSpec};
use reml_sim::{memory_soundness_audit, SimFacts};
use reml_trace::Recorder;
use serde::Value;

/// One profiled script: the figure workload (optimize + simulate at S,
/// dense1000) plus a small real execution to exercise the executor path.
struct ScriptRun {
    ctor: fn() -> ScriptSpec,
    label: LabelKind,
    exec_rows: u64,
    exec_cols: u64,
    params: &'static [(&'static str, f64)],
}

fn runs() -> Vec<ScriptRun> {
    vec![
        ScriptRun {
            ctor: reml_scripts::linreg_ds,
            label: LabelKind::Regression,
            exec_rows: 1500,
            exec_cols: 12,
            params: &[],
        },
        ScriptRun {
            ctor: reml_scripts::linreg_cg,
            label: LabelKind::Regression,
            exec_rows: 1200,
            exec_cols: 10,
            params: &[("maxiter", 15.0)],
        },
        ScriptRun {
            ctor: reml_scripts::l2svm,
            label: LabelKind::BinaryPm1,
            exec_rows: 800,
            exec_cols: 8,
            params: &[],
        },
        ScriptRun {
            ctor: reml_scripts::mlogreg,
            label: LabelKind::Classes(4),
            exec_rows: 600,
            exec_cols: 6,
            params: &[],
        },
        ScriptRun {
            ctor: reml_scripts::glm,
            label: LabelKind::Counts,
            exec_rows: 500,
            exec_cols: 5,
            params: &[],
        },
    ]
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("overhead") => overhead_gate(),
        Some("calibrate") => calibrate_gate(),
        _ => profile(),
    }
}

/// `profile_report calibrate`: execute the five paper scripts with
/// per-instruction observation, fit a calibration profile, report the
/// per-opcode predicted-vs-measured estimation error before/after
/// calibration, and persist the profile + error report under `results/`.
/// Gates on a measured geomean time-error reduction.
fn calibrate_gate() {
    use reml_cost::CostModel;
    use reml_optimizer::ResourceOptimizer;

    /// Required multiplicative reduction of the geomean time error.
    const GATE: f64 = 1.25;

    reml_trace::uninstall();
    println!("fitting calibration profile from observed executions of the five paper scripts...");
    let (profile, report, sets) = reml_calibrate::calibrate_paper_scripts();

    let mut table = ExperimentResult::new(
        "calibration_runs",
        "observed executions behind the calibration fit",
    );
    for set in &sets {
        let measured_ms = set.observations.iter().map(|o| o.wall_ns).sum::<u64>() as f64 / 1e6;
        table.push_row(
            set.script.clone(),
            vec![
                ("rows".to_string(), set.rows as f64),
                ("cols".to_string(), set.cols as f64),
                ("cp_instr".to_string(), set.cp_instructions as f64),
                ("observations".to_string(), set.observations.len() as f64),
                ("measured[ms]".to_string(), measured_ms),
            ],
        );
    }
    table.notes = format!(
        "{} opcodes fitted (profile schema v{})",
        profile.opcodes.len(),
        reml_cost::PROFILE_VERSION
    );
    table.print();

    println!("\nper-opcode estimation error (predicted vs measured), before/after calibration:");
    print!("{}", report.table());

    // The optimizer grid-walk accepts the fitted profile: same plan
    // enumeration, calibrated CP prices.
    let wl = Workload::new(
        reml_scripts::linreg_ds(),
        DataShape {
            scenario: Scenario::S,
            cols: 1000,
            sparsity: 1.0,
        },
    );
    let analytic_opt = wl.optimize();
    let calibrated = ResourceOptimizer::with_calibration(
        CostModel::new(wl.cluster.clone()),
        Arc::new(profile.clone()),
    );
    let calibrated_opt = wl.optimize_with(&calibrated);
    println!(
        "\noptimizer grid-walk (LinregDS S dense1000):\n  analytic:   cp_heap {} MB, predicted {:.1}s\n  calibrated: cp_heap {} MB, predicted {:.1}s",
        analytic_opt.best.cp_heap_mb,
        analytic_opt.best_cost_s,
        calibrated_opt.best.cp_heap_mb,
        calibrated_opt.best_cost_s,
    );

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let mut profile_json = profile.to_json();
    profile_json.push('\n');
    std::fs::write(dir.join("calibration_profile.json"), profile_json)
        .expect("writes calibration profile");
    println!("wrote results/calibration_profile.json");

    let reduction = report.time_error_reduction();
    let error_report = Value::Object(vec![
        (
            "gate".to_string(),
            Value::Object(vec![
                ("required_reduction".to_string(), Value::Num(GATE)),
                ("measured_reduction".to_string(), Value::Num(reduction)),
                ("pass".to_string(), Value::Bool(reduction >= GATE)),
            ]),
        ),
        (
            "scripts".to_string(),
            Value::Array(
                sets.iter()
                    .map(|s| {
                        Value::Object(vec![
                            ("script".to_string(), Value::Str(s.script.clone())),
                            ("rows".to_string(), Value::Num(s.rows as f64)),
                            ("cols".to_string(), Value::Num(s.cols as f64)),
                            (
                                "observations".to_string(),
                                Value::Num(s.observations.len() as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("errors".to_string(), serde::Serialize::to_value(&report)),
    ]);
    let mut json = serde_json::to_string_pretty(&error_report).expect("serializes");
    json.push('\n');
    std::fs::write(dir.join("calibration_error.json"), json).expect("writes error report");
    println!("wrote results/calibration_error.json");

    assert!(
        reduction >= GATE,
        "calibration gate failed: geomean time-error reduction {reduction:.2}x < {GATE}x \
         (analytic {:.2}x -> calibrated {:.2}x)",
        report.analytic_time_err,
        report.calibrated_time_err,
    );
    println!(
        "calibration gate OK: geomean time error {:.2}x -> {:.2}x ({reduction:.2}x reduction, gate >= {GATE}x)",
        report.analytic_time_err, report.calibrated_time_err,
    );
}

fn profile() {
    let recorder = Recorder::new(1 << 20);
    reml_trace::install(Arc::clone(&recorder));
    reml_trace::metrics().reset();

    for run in runs() {
        let script = (run.ctor)();
        let _root = reml_trace::span_owned(format!("profile.{}", script.name), &[]);
        let wl = {
            let _s = reml_trace::span!("profile.prepare");
            Workload::new(
                (run.ctor)(),
                DataShape {
                    scenario: Scenario::S,
                    cols: 1000,
                    sparsity: 1.0,
                },
            )
        };
        let opt = {
            let _s = reml_trace::span!("profile.optimize");
            wl.optimize()
        };
        {
            let _s = reml_trace::span!("profile.simulate");
            wl.measure(opt.best.clone(), false, SimFacts::default());
        }
        {
            let _s = reml_trace::span!("profile.execute");
            memory_soundness_audit(&script, run.exec_rows, run.exec_cols, run.label, run.params);
        }
    }

    reml_trace::uninstall();
    let records = recorder.drain();
    let att = reml_trace::attribute(&records);
    let wall_s = att.wall_us as f64 / 1e6;

    // Per-phase table: self time per span name, descending.
    let mut phases = ExperimentResult::new(
        "profile_phases",
        "per-phase time attribution, 5 scripts (self time)",
    );
    for row in &att.rows {
        phases.push_row(
            row.name.clone(),
            vec![
                ("count".to_string(), row.count as f64),
                ("self[ms]".to_string(), row.self_us as f64 / 1e3),
                ("total[ms]".to_string(), row.total_us as f64 / 1e3),
                (
                    "self%".to_string(),
                    100.0 * row.self_us as f64 / att.wall_us.max(1) as f64,
                ),
            ],
        );
    }
    phases.notes = format!(
        "wall {:.3} s over {} records ({} dropped), coverage {:.1}%",
        wall_s,
        records.len(),
        recorder.dropped(),
        100.0 * att.coverage()
    );
    phases.print();

    // Per-opcode table from the executor histograms. The real-executor
    // pass (the memory-soundness audit) runs on the bytecode VM, which
    // publishes the `vm.op.*` histograms.
    let snapshot = reml_trace::metrics().snapshot();
    let mut opcodes = ExperimentResult::new(
        "profile_opcodes",
        "CP instruction timing by opcode (real executor pass, VM)",
    );
    for (name, snap) in &snapshot {
        let Some(op) = name.strip_prefix("vm.op.") else {
            continue;
        };
        if let reml_trace::MetricSnapshot::Histogram {
            count, sum, mean, ..
        } = snap
        {
            opcodes.push_row(
                op,
                vec![
                    ("count".to_string(), *count as f64),
                    ("total[ms]".to_string(), *sum as f64 / 1e3),
                    ("mean[us]".to_string(), *mean),
                ],
            );
        }
    }
    opcodes.print();

    // Machine-readable report + Chrome trace artifacts.
    let report = Value::Object(vec![
        ("wall_s".to_string(), Value::Num(wall_s)),
        ("coverage".to_string(), Value::Num(att.coverage())),
        ("records".to_string(), Value::Num(records.len() as f64)),
        ("dropped".to_string(), Value::Num(recorder.dropped() as f64)),
        (
            "phases".to_string(),
            Value::Array(
                att.rows
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("name".to_string(), Value::Str(r.name.clone())),
                            ("count".to_string(), Value::Num(r.count as f64)),
                            ("self_us".to_string(), Value::Num(r.self_us as f64)),
                            ("total_us".to_string(), Value::Num(r.total_us as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics".to_string(), reml_trace::metrics().to_value()),
    ]);
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let mut f = std::fs::File::create(dir.join("profile_report.json")).expect("report file");
    let mut json = serde_json::to_string_pretty(&report).expect("serializes");
    json.push('\n');
    f.write_all(json.as_bytes()).expect("writes report");
    let mut f = std::fs::File::create(dir.join("profile_trace.json")).expect("trace file");
    f.write_all(reml_trace::to_chrome_trace(&records).as_bytes())
        .expect("writes trace");
    println!("wrote results/profile_report.json and results/profile_trace.json");

    // Acceptance gate: the named phases must explain ≥ 95% of wall time.
    assert!(
        att.coverage() >= 0.95,
        "phase coverage {:.1}% < 95% — unattributed root self time too large",
        100.0 * att.coverage()
    );
    println!(
        "coverage gate OK: {:.1}% of {:.3} s attributed",
        100.0 * att.coverage(),
        wall_s
    );
}

/// One fig7-style iteration: optimize LinregDS M dense1000 and simulate
/// at the chosen point. Returns elapsed wall seconds.
fn overhead_iteration(wl: &Workload) -> f64 {
    let t0 = Instant::now();
    let opt = wl.optimize();
    wl.measure(opt.best.clone(), false, SimFacts::default());
    t0.elapsed().as_secs_f64()
}

fn overhead_gate() {
    const ITERS: usize = 5;
    /// Absolute slack for timer/scheduler noise on short runs.
    const EPSILON_S: f64 = 0.05;
    let wl = Workload::new(
        reml_scripts::linreg_ds(),
        DataShape {
            scenario: Scenario::M,
            cols: 1000,
            sparsity: 1.0,
        },
    );
    // Warm-up: fault in lazy state (plan caches are per-session, so the
    // measured iterations below still do full work).
    overhead_iteration(&wl);

    let mut disabled = f64::INFINITY;
    let mut sampled = f64::INFINITY;
    for _ in 0..ITERS {
        // Interleave A/B so slow drift hits both configurations equally.
        reml_trace::uninstall();
        disabled = disabled.min(overhead_iteration(&wl));
        reml_trace::install(Recorder::sampled(1 << 16, 64));
        sampled = sampled.min(overhead_iteration(&wl));
    }
    reml_trace::uninstall();

    let ratio = sampled / disabled.max(1e-9);
    println!(
        "overhead gate: disabled {:.4} s, sampled always-on {:.4} s, ratio {:.3}",
        disabled, sampled, ratio
    );
    assert!(
        sampled <= disabled * 1.03 + EPSILON_S,
        "sampled always-on tracing overhead too high: {:.4} s vs {:.4} s disabled (> 3% + {} s)",
        sampled,
        disabled,
        EPSILON_S
    );
    println!("overhead gate OK: sampled within 3% (+{EPSILON_S} s) of disabled");
}
