//! # reml-calibrate — self-calibrating cost model from measured traces
//!
//! Closes the loop between the white-box analytic cost model
//! (`reml-cost`, §3.1) and reality, following the costing methodology of
//! Boehm et al. (arXiv:1503.06384): execute real scripts with
//! per-instruction observation enabled, harvest (opcode, predicted
//! flops, predicted bytes, measured wall time) samples, fit per-opcode
//! correction models, and persist a versioned
//! [`CalibrationProfile`] that
//! [`CostModel`](reml_cost::CostModel) consults when attached.
//!
//! Pipeline:
//!
//! 1. [`samples_from_observations`] — one fit sample per raw
//!    [`MemObservation`] row (from `reml_sim::collect_observations`, which
//!    lowers unfused so each row is one opcode the cost model prices, or
//!    any observed executor run);
//! 2. [`fit`] — online least squares per opcode
//!    (`t = a·flops + b·bytes + c`) with a robust median-ratio fallback
//!    and a one-sided (never shrinking) byte-inflation factor;
//! 3. [`report`] — per-opcode predicted-vs-measured error, before and
//!    after calibration, gated on a measured geomean error reduction.

#![forbid(unsafe_code)]

pub mod fit;
pub mod report;

pub use fit::{fit_profile, ProfileFitter, MIN_AFFINE_SAMPLES};
pub use report::{evaluate, ErrorReport, OpcodeErrorRow};

use reml_cost::calibrate::CalibrationProfile;
use reml_runtime::MemObservation;
use reml_scripts::data::LabelKind;
use reml_scripts::ScriptSpec;
use reml_sim::ScriptObservations;

/// One fit sample: an observed execution of one opcode.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Opcode mnemonic.
    pub opcode: String,
    /// Predicted FLOPs (`None` when compile-time sizes were unknown).
    pub flops: Option<f64>,
    /// Predicted operand+output bytes.
    pub bytes: Option<u64>,
    /// Measured operand+output bytes in the buffer pool.
    pub actual_bytes: u64,
    /// Measured wall time, seconds.
    pub wall_s: f64,
}

/// One fit sample per observation row.
pub fn samples_from_observations(observations: &[MemObservation]) -> Vec<Sample> {
    observations
        .iter()
        .map(|obs| Sample {
            opcode: obs.opcode.clone(),
            flops: obs.predicted_flops,
            bytes: obs.predicted_bytes,
            actual_bytes: obs.actual_bytes,
            wall_s: obs.wall_ns as f64 / 1e9,
        })
        .collect()
}

/// One paper script with the dataset shape used for observed execution
/// (small enough to execute for real, large enough to exercise every
/// operator the optimizer prices).
pub struct PaperRun {
    /// Script constructor.
    pub ctor: fn() -> ScriptSpec,
    /// Label distribution of the generated dataset.
    pub label: LabelKind,
    /// Dataset rows.
    pub rows: u64,
    /// Dataset cols.
    pub cols: u64,
    /// Script `$` parameter overrides.
    pub params: &'static [(&'static str, f64)],
}

/// The five paper scripts at the execution shapes `reml-bench`'s
/// `profile_report`, `planlint` and `sizebound_audit` entries use.
pub fn paper_runs() -> Vec<PaperRun> {
    vec![
        PaperRun {
            ctor: reml_scripts::linreg_ds,
            label: LabelKind::Regression,
            rows: 1500,
            cols: 12,
            params: &[],
        },
        PaperRun {
            ctor: reml_scripts::linreg_cg,
            label: LabelKind::Regression,
            rows: 1200,
            cols: 10,
            params: &[("maxiter", 15.0)],
        },
        PaperRun {
            ctor: reml_scripts::l2svm,
            label: LabelKind::BinaryPm1,
            rows: 800,
            cols: 8,
            params: &[],
        },
        PaperRun {
            ctor: reml_scripts::mlogreg,
            label: LabelKind::Classes(4),
            rows: 600,
            cols: 6,
            params: &[],
        },
        PaperRun {
            ctor: reml_scripts::glm,
            label: LabelKind::Counts,
            rows: 500,
            cols: 5,
            params: &[],
        },
    ]
}

/// Execute every paper script with observation recording and return the
/// raw per-script rows.
pub fn collect_paper_observations() -> Vec<ScriptObservations> {
    paper_runs()
        .iter()
        .map(|run| {
            reml_sim::collect_observations(&(run.ctor)(), run.rows, run.cols, run.label, run.params)
        })
        .collect()
}

/// Fit a profile from a set of observed script executions, against the
/// given analytic peak.
pub fn fit_from_observations(sets: &[ScriptObservations], peak_flops: f64) -> CalibrationProfile {
    let mut fitter = ProfileFitter::new(peak_flops);
    for set in sets {
        let samples = samples_from_observations(&set.observations);
        fitter.extend(&samples);
    }
    fitter.finish()
}

/// End-to-end convenience: run the five paper scripts, fit a profile
/// against the paper cluster's nominal peak, and evaluate estimation
/// error before/after over the same observations. Returns the fitted
/// profile, the pooled error report, and the raw per-script rows.
pub fn calibrate_paper_scripts() -> (CalibrationProfile, ErrorReport, Vec<ScriptObservations>) {
    let peak = reml_cluster::ClusterConfig::paper_cluster().peak_flops;
    let sets = collect_paper_observations();
    let profile = fit_from_observations(&sets, peak);
    let pooled: Vec<_> = sets
        .iter()
        .flat_map(|s| s.observations.iter().cloned())
        .collect();
    let report = evaluate(&pooled, peak, &profile);
    (profile, report, sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_row_becomes_one_sample() {
        let obs = MemObservation {
            opcode: "ba+*".to_string(),
            predicted_bytes: Some(1000),
            actual_bytes: 800,
            resident_bytes: 800,
            bound_bytes: Some(2000),
            wall_ns: 1_000,
            predicted_flops: Some(500.0),
        };
        let samples = samples_from_observations(&[obs]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].opcode, "ba+*");
        assert!((samples[0].wall_s - 1e-6).abs() < 1e-15);
    }
}
