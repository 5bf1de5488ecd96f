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
//! 1. [`harvest`] — expand raw [`MemObservation`](reml_runtime::MemObservation)
//!    rows (from `reml_sim::collect_observations` or any observed
//!    executor run) into fit samples, backfilling fused-chain composites
//!    onto their constituent opcodes, and optionally topping up from
//!    `reml_trace`'s `vm.op.*` histograms;
//! 2. [`fit`] — online least squares per opcode
//!    (`t = a·flops + b·bytes + c`) with a robust median-ratio fallback
//!    and a one-sided (never shrinking) byte-inflation factor;
//! 3. [`report`] — per-opcode predicted-vs-measured error, before and
//!    after calibration, gated on a measured geomean error reduction.

#![forbid(unsafe_code)]

pub mod fit;
pub mod harvest;
pub mod report;

pub use fit::{fit_profile, ProfileFitter, MIN_AFFINE_SAMPLES};
pub use harvest::{samples_from_observations, samples_from_trace_histograms, Sample};
pub use report::{evaluate, ErrorReport, OpcodeErrorRow};

use reml_cost::calibrate::CalibrationProfile;
use reml_scripts::data::LabelKind;
use reml_scripts::ScriptSpec;
use reml_sim::ScriptObservations;

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
/// given analytic peak (harvests fused backfill automatically).
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
