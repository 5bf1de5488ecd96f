//! Calibration accuracy gates over the five paper scripts.
//!
//! * The calibrated cost model's geomean time-estimation error must be no
//!   worse than the analytic model's on **every** paper script (and
//!   strictly better pooled — the analytic model prices against the paper
//!   cluster's nominal peak, so its absolute error on this machine is
//!   large and a fitted profile must close most of it).
//! * Calibration must never flip a memory estimate unsound: calibrated
//!   byte predictions only ever inflate, and the sizebound `bound_bytes`
//!   columns remain a valid oracle for the measured footprints the fit
//!   was trained on.
//! * A fitted profile holds only opcodes the cost model prices.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use reml::calibrate::{collect_paper_observations, evaluate, fit_from_observations, paper_runs};
use reml::cost::CalibrationProfile;
use reml::prelude::*;
use reml::runtime::instructions::Instruction;
use reml::runtime::RtBlock;
use reml::scripts::data::generate_dataset;
use reml::sim::ScriptObservations;

struct Fixture {
    peak: f64,
    sets: Vec<ScriptObservations>,
    profile: Arc<CalibrationProfile>,
}

/// Collect + fit once; both tests evaluate against the same run.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let peak = ClusterConfig::paper_cluster().peak_flops;
        let sets = collect_paper_observations();
        let profile = Arc::new(fit_from_observations(&sets, peak));
        Fixture {
            peak,
            sets,
            profile,
        }
    })
}

#[test]
fn calibrated_time_error_no_worse_on_every_paper_script() {
    let fx = fixture();
    assert_eq!(fx.sets.len(), 5, "expected the five paper scripts");
    assert!(
        !fx.profile.opcodes.is_empty(),
        "fit produced an empty profile"
    );

    for set in &fx.sets {
        assert!(
            !set.observations.is_empty(),
            "{}: no observations recorded",
            set.script
        );
        let report = evaluate(&set.observations, fx.peak, &fx.profile);
        assert!(
            report.calibrated_time_err <= report.analytic_time_err,
            "{}: calibration made time estimation worse ({:.2}x -> {:.2}x)\n{}",
            set.script,
            report.analytic_time_err,
            report.calibrated_time_err,
            report.table(),
        );
    }

    // Pooled across all scripts the profile was fitted on, calibration
    // must strictly reduce the geomean error.
    let pooled: Vec<_> = fx
        .sets
        .iter()
        .flat_map(|s| s.observations.iter().cloned())
        .collect();
    let report = evaluate(&pooled, fx.peak, &fx.profile);
    assert!(
        report.time_error_reduction() > 1.0,
        "pooled calibration did not reduce error ({:.2}x -> {:.2}x)",
        report.analytic_time_err,
        report.calibrated_time_err,
    );
}

#[test]
fn calibration_never_flips_a_memory_estimate_unsound() {
    let fx = fixture();
    for set in &fx.sets {
        for obs in &set.observations {
            // sizebound oracle: measured footprint within the proven bound.
            if let Some(bound) = obs.bound_bytes {
                assert!(
                    obs.actual_bytes <= bound,
                    "{}: {} actual {} B exceeds sizebound {} B",
                    set.script,
                    obs.opcode,
                    obs.actual_bytes,
                    bound,
                );
            }
            let Some(predicted) = obs.predicted_bytes else {
                continue;
            };
            let calibrated = match fx.profile.get(&obs.opcode) {
                Some(cal) => cal.calibrated_bytes(predicted),
                None => predicted,
            };
            // Calibration only ever inflates a byte prediction...
            assert!(
                calibrated >= predicted,
                "{}: {} calibrated bytes {} < analytic {}",
                set.script,
                obs.opcode,
                calibrated,
                predicted,
            );
            // ...so wherever the analytic estimate covered the actual
            // footprint (was sound), the calibrated one still does.
            if predicted >= obs.actual_bytes {
                assert!(
                    calibrated >= obs.actual_bytes,
                    "{}: {} calibration flipped a sound estimate unsound",
                    set.script,
                    obs.opcode,
                );
            }
        }
    }
}

/// `CostModel::cost_cp` looks a calibration entry up under the CP
/// instruction's `opcode.mnemonic()`, so every key of the fitted profile
/// must name a CP instruction of the five plans it was observed on. The
/// plans are compiled as `reml_sim::collect_observations` compiles them.
#[test]
fn fitted_profile_holds_only_opcodes_the_cost_model_prices() {
    let fx = fixture();
    let mut priced = BTreeSet::new();
    for run in paper_runs() {
        let script = (run.ctor)();
        let data = generate_dataset(run.rows as usize, run.cols as usize, 1.0, run.label, 7);
        let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
        for (name, value) in &script.params {
            cfg.params.insert((*name).to_string(), value.clone());
        }
        for (name, value) in run.params {
            cfg.params
                .insert((*name).to_string(), reml::runtime::ScalarValue::Num(*value));
        }
        cfg.inputs.insert("X".to_string(), data.x.characteristics());
        cfg.inputs.insert("y".to_string(), data.y.characteristics());
        let compiled = compile_source(&script.source, &cfg)
            .unwrap_or_else(|e| panic!("{} compile: {e}", script.name));
        compiled.runtime.walk(&mut |block| {
            let own = match block {
                RtBlock::Generic { instructions, .. } => instructions.as_slice(),
                _ => &[],
            };
            let preds = block.predicates().flat_map(|(_, p)| &p.instructions);
            for instr in own.iter().chain(preds) {
                if let Instruction::Cp(cp) = instr {
                    priced.insert(cp.opcode.mnemonic());
                }
            }
        });
    }
    let unpriced: Vec<_> = fx
        .profile
        .opcodes
        .keys()
        .filter(|key| !priced.contains(*key))
        .collect();
    assert!(
        unpriced.is_empty(),
        "profile keys no CP instruction carries: {unpriced:?}; priced {priced:?}"
    );
}
