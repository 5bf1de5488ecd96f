//! Flight-recorder profiling, tracing overhead and cost-model
//! calibration: three gate entries over the five paper scripts.
//!
//! * `profile_report` runs analyze → optimize → simulate → execute for
//!   each script under a wall-clock `reml_trace` recorder and emits
//!   1. a per-phase time-attribution table (self time per span name —
//!      the Table 3 analogue generalized to the whole stack), gated on
//!      coverage: ≥ 95% of measured wall time must be explained by named
//!      library sub-phases rather than unattributed root-span self time;
//!   2. a per-opcode CP instruction timing table from the `vm.op.*`
//!      histograms (populated by the real executor pass, which runs on
//!      the bytecode VM);
//!   3. `results/profile_report.json` — phases + full metric registry —
//!      and `results/profile_trace.json` — Chrome `trace_event` format,
//!      loadable in chrome://tracing or Perfetto.
//! * `trace_overhead` times a fig7-style workload with no recorder
//!   installed and with a sampled always-on recorder (every span, one
//!   event in 64), in fifteen back-to-back pairs of ≥ 0.25 s samples; it
//!   fails when the median pair's ratio exceeds 3% overhead plus 2% for
//!   timer noise. It does not compare the disabled path with an
//!   uninstrumented build.
//! * `calibrate` fits a calibration profile from observed executions and
//!   gates on the geomean time-error reduction.

use std::sync::Arc;
use std::time::Instant;

use reml_cost::CostModel;
use reml_optimizer::ResourceOptimizer;
use reml_scripts::Scenario;
use reml_sim::{memory_soundness_audit, FaultPlan, SimFacts};
use reml_trace::Recorder;
use serde::Value;

use crate::{dense1000, write_artifact, Error, ExperimentResult, Outcome, Workload};

/// `calibrate`: execute the five paper scripts with per-instruction
/// observation, fit a calibration profile, report the per-opcode
/// predicted-vs-measured estimation error before/after calibration, and
/// persist the profile + error report under `results/`. Gates on a
/// measured geomean time-error reduction.
pub fn calibrate() -> Outcome {
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
    let wl = Workload::new(reml_scripts::linreg_ds(), dense1000(Scenario::S))?;
    let analytic_opt = wl.optimize()?;
    let calibrated = ResourceOptimizer::with_calibration(
        CostModel::new(wl.cluster.clone()),
        Arc::new(profile.clone()),
    );
    let calibrated_opt = calibrated.optimize(&wl.analyzed, &wl.base, None)?;
    println!(
        "\noptimizer grid-walk (LinregDS S dense1000):\n  analytic:   cp_heap {} MB, predicted {:.1}s\n  calibrated: cp_heap {} MB, predicted {:.1}s",
        analytic_opt.best.cp_heap_mb,
        analytic_opt.best_cost_s,
        calibrated_opt.best.cp_heap_mb,
        calibrated_opt.best_cost_s,
    );

    write_artifact("calibration_profile.json", profile.to_json() + "\n")?;

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
    write_artifact(
        "calibration_error.json",
        serde_json::to_string_pretty(&error_report)? + "\n",
    )?;

    let errors = format!(
        "geomean time error {:.2}x -> {:.2}x ({reduction:.2}x reduction, gate >= {GATE}x)",
        report.analytic_time_err, report.calibrated_time_err,
    );
    if reduction < GATE {
        return Err(format!("calibration gate failed: {errors}").into());
    }
    println!("calibration gate OK: {errors}");
    Ok(Vec::new())
}

/// `profile_report`: the flight-recorder profile and its coverage gate.
pub fn profile() -> Outcome {
    let recorder = Recorder::new(1 << 20);
    reml_trace::install(Arc::clone(&recorder));
    reml_trace::metrics().reset();
    let profiled = profile_scripts();
    reml_trace::uninstall();
    profiled?;
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
    write_artifact(
        "profile_report.json",
        serde_json::to_string_pretty(&report)? + "\n",
    )?;
    write_artifact("profile_trace.json", reml_trace::to_chrome_trace(&records))?;

    // Acceptance gate: the named phases must explain ≥ 95% of wall time.
    let coverage = 100.0 * att.coverage();
    if coverage < 95.0 {
        return Err(format!(
            "phase coverage {coverage:.1}% < 95% — unattributed root self time too large"
        )
        .into());
    }
    println!("coverage gate OK: {coverage:.1}% of {wall_s:.3} s attributed");
    Ok(Vec::new())
}

/// The profiled work: per script, optimize + simulate the figure workload
/// (S, dense1000) and a small real execution on the executor path.
fn profile_scripts() -> Result<(), Error> {
    for run in reml_calibrate::paper_runs() {
        let script = (run.ctor)();
        let _root = reml_trace::span_owned(format!("profile.{}", script.name), &[]);
        let wl = {
            let _s = reml_trace::span!("profile.prepare");
            Workload::new(script.clone(), dense1000(Scenario::S))?
        };
        let opt = {
            let _s = reml_trace::span!("profile.optimize");
            wl.optimize()?
        };
        {
            let _s = reml_trace::span!("profile.simulate");
            wl.measure(opt.best, false, SimFacts::default(), FaultPlan::none())?;
        }
        let _s = reml_trace::span!("profile.execute");
        memory_soundness_audit(&script, run.rows, run.cols, run.label, run.params);
    }
    Ok(())
}

/// One fig7-style iteration: optimize LinregDS M dense1000 and simulate
/// at the chosen point.
fn overhead_iteration(wl: &Workload) -> Result<(), Error> {
    let opt = wl.optimize()?;
    wl.measure(opt.best, false, SimFacts::default(), FaultPlan::none())?;
    Ok(())
}

/// Shortest sample: one iteration takes a few milliseconds, too short
/// for a 3% comparison against timer and scheduler noise.
const MIN_SAMPLE_S: f64 = 0.25;

/// Wall seconds per iteration, over back-to-back iterations that last
/// at least [`MIN_SAMPLE_S`].
fn overhead_sample(wl: &Workload) -> Result<f64, Error> {
    let t0 = Instant::now();
    let mut iterations = 0u32;
    while t0.elapsed().as_secs_f64() < MIN_SAMPLE_S {
        overhead_iteration(wl)?;
        iterations += 1;
    }
    Ok(t0.elapsed().as_secs_f64() / f64::from(iterations))
}

/// `trace_overhead`: the sampled always-on recorder must cost at most
/// 3% over no recorder at all.
pub fn trace_overhead() -> Outcome {
    /// Interleaved (disabled, sampled) sample pairs.
    const PAIRS: usize = 15;
    /// Allowed overhead of the sampled recorder.
    const BUDGET: f64 = 0.03;
    /// Slack for timer noise, as a fraction of the disabled sample.
    const EPSILON: f64 = 0.02;
    let wl = Workload::new(reml_scripts::linreg_ds(), dense1000(Scenario::M))?;
    // Warm-up: fault in lazy state (plan caches are per-session, so the
    // measured samples below still do full work).
    reml_trace::uninstall();
    overhead_sample(&wl)?;

    // Each pair runs back to back, so slow drift hits both sides alike;
    // the median pair ignores the few samples that another process on
    // the host happened to slow down.
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let disabled = overhead_sample(&wl)?;
        reml_trace::install(Recorder::sampled(1 << 16, 64));
        let sampled = overhead_sample(&wl);
        reml_trace::uninstall();
        ratios.push(sampled? / disabled);
    }
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[PAIRS / 2];
    println!(
        "overhead gate: sampled always-on / disabled per-iteration time over {PAIRS} pairs of \
         >= {MIN_SAMPLE_S} s samples: median {ratio:.3} (range {:.3}-{:.3})",
        ratios[0],
        ratios[PAIRS - 1]
    );
    let limit = 1.0 + BUDGET + EPSILON;
    if ratio > limit {
        return Err(format!(
            "sampled always-on tracing overhead too high: ratio {ratio:.3} > {limit:.2}"
        )
        .into());
    }
    println!("overhead gate OK: ratio {ratio:.3} <= {limit:.2}");
    Ok(Vec::new())
}
