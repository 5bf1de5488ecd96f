//! Estimation-accuracy evaluation: predicted vs measured, before and
//! after calibration.
//!
//! The error metric is the symmetric ratio error
//! `err = max(pred, meas) / min(pred, meas) ≥ 1`, with a 1 ns floor on
//! times (zero-flop opcodes have an analytic estimate of exactly zero;
//! the floor keeps their error finite while still charging the analytic
//! model honestly for predicting "free" on work that took real time) and
//! a 1-byte floor on sizes. Aggregation is the geometric mean, so a 2×
//! over-estimate and a 2× under-estimate weigh the same and no single
//! opcode's tail dominates.

use std::collections::BTreeMap;

use reml_cost::calibrate::CalibrationProfile;
use reml_runtime::flops::UNKNOWN_FLOPS;
use reml_runtime::MemObservation;

/// 1 ns: floor for measured/predicted seconds in ratio errors.
const TIME_FLOOR_S: f64 = 1e-9;

/// Per-opcode estimation-error row (before/after calibration).
#[derive(Debug, Clone, serde::Serialize)]
pub struct OpcodeErrorRow {
    /// Opcode mnemonic.
    pub opcode: String,
    /// Observations evaluated.
    pub samples: u64,
    /// Total measured wall time, milliseconds.
    pub measured_ms: f64,
    /// Total analytically predicted time, milliseconds.
    pub analytic_ms: f64,
    /// Total calibrated predicted time, milliseconds.
    pub calibrated_ms: f64,
    /// Geomean symmetric ratio error of the analytic time estimate.
    pub analytic_time_err: f64,
    /// Geomean symmetric ratio error of the calibrated time estimate.
    pub calibrated_time_err: f64,
    /// Geomean ratio error of analytic byte predictions (known sizes).
    pub analytic_bytes_err: f64,
    /// Geomean ratio error of calibrated byte predictions.
    pub calibrated_bytes_err: f64,
}

/// Whole-evaluation error summary.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ErrorReport {
    /// Observations evaluated.
    pub samples: u64,
    /// Geomean time error of the pure analytic model.
    pub analytic_time_err: f64,
    /// Geomean time error with the calibration profile attached.
    pub calibrated_time_err: f64,
    /// Geomean byte error of the analytic predictions.
    pub analytic_bytes_err: f64,
    /// Geomean byte error of the calibrated predictions.
    pub calibrated_bytes_err: f64,
    /// Per-opcode rows, sorted by measured time (descending).
    pub per_opcode: Vec<OpcodeErrorRow>,
}

impl ErrorReport {
    /// Multiplicative improvement of the calibrated time estimate
    /// (`> 1` = calibration reduced the geomean error).
    pub fn time_error_reduction(&self) -> f64 {
        self.analytic_time_err / self.calibrated_time_err
    }

    /// Fixed-width text table for terminal reports.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<22} {:>7} {:>11} {:>11} {:>11} {:>9} {:>9}\n",
            "opcode", "samples", "measured", "analytic", "calibrated", "err", "err'"
        ));
        for r in &self.per_opcode {
            out.push_str(&format!(
                "{:<22} {:>7} {:>9.3}ms {:>9.3}ms {:>9.3}ms {:>8.2}x {:>8.2}x\n",
                r.opcode,
                r.samples,
                r.measured_ms,
                r.analytic_ms,
                r.calibrated_ms,
                r.analytic_time_err,
                r.calibrated_time_err,
            ));
        }
        out.push_str(&format!(
            "geomean time err: {:.2}x -> {:.2}x ({:.2}x reduction) | bytes err: {:.3}x -> {:.3}x | samples: {}\n",
            self.analytic_time_err,
            self.calibrated_time_err,
            self.time_error_reduction(),
            self.analytic_bytes_err,
            self.calibrated_bytes_err,
            self.samples,
        ));
        out
    }
}

fn ratio_err(pred: f64, meas: f64, floor: f64) -> f64 {
    let p = pred.max(floor);
    let m = meas.max(floor);
    if p > m {
        p / m
    } else {
        m / p
    }
}

#[derive(Default)]
struct ErrAcc {
    samples: u64,
    measured_s: f64,
    analytic_s: f64,
    calibrated_s: f64,
    ln_analytic: f64,
    ln_calibrated: f64,
    ln_bytes_analytic: f64,
    ln_bytes_calibrated: f64,
    bytes_n: u64,
}

/// Evaluate estimation error over observation rows, with and without the
/// profile. `peak_flops` is the analytic model's nominal peak (the same
/// value the fit was computed against).
pub fn evaluate(
    observations: &[MemObservation],
    peak_flops: f64,
    profile: &CalibrationProfile,
) -> ErrorReport {
    let mut by_op: BTreeMap<&str, ErrAcc> = BTreeMap::new();
    for obs in observations {
        let measured_s = obs.wall_ns as f64 / 1e9;
        let analytic_s = obs.predicted_flops.unwrap_or(UNKNOWN_FLOPS) / peak_flops;
        let calibrated_s = match profile.get(&obs.opcode) {
            Some(cal) => cal.predict_seconds(obs.predicted_flops, obs.predicted_bytes, analytic_s),
            None => analytic_s,
        };
        let acc = by_op.entry(obs.opcode.as_str()).or_default();
        acc.samples += 1;
        acc.measured_s += measured_s;
        acc.analytic_s += analytic_s;
        acc.calibrated_s += calibrated_s;
        acc.ln_analytic += ratio_err(analytic_s, measured_s, TIME_FLOOR_S).ln();
        acc.ln_calibrated += ratio_err(calibrated_s, measured_s, TIME_FLOOR_S).ln();
        if let Some(pred) = obs.predicted_bytes {
            if obs.actual_bytes > 0 && pred > 0 {
                let cal_pred = match profile.get(&obs.opcode) {
                    Some(cal) => cal.calibrated_bytes(pred),
                    None => pred,
                };
                acc.ln_bytes_analytic += ratio_err(pred as f64, obs.actual_bytes as f64, 1.0).ln();
                acc.ln_bytes_calibrated +=
                    ratio_err(cal_pred as f64, obs.actual_bytes as f64, 1.0).ln();
                acc.bytes_n += 1;
            }
        }
    }

    let mut per_opcode: Vec<OpcodeErrorRow> = by_op
        .into_iter()
        .map(|(opcode, acc)| {
            let n = acc.samples as f64;
            OpcodeErrorRow {
                opcode: opcode.to_string(),
                samples: acc.samples,
                measured_ms: acc.measured_s * 1e3,
                analytic_ms: acc.analytic_s * 1e3,
                calibrated_ms: acc.calibrated_s * 1e3,
                analytic_time_err: (acc.ln_analytic / n).exp(),
                calibrated_time_err: (acc.ln_calibrated / n).exp(),
                analytic_bytes_err: if acc.bytes_n > 0 {
                    (acc.ln_bytes_analytic / acc.bytes_n as f64).exp()
                } else {
                    1.0
                },
                calibrated_bytes_err: if acc.bytes_n > 0 {
                    (acc.ln_bytes_calibrated / acc.bytes_n as f64).exp()
                } else {
                    1.0
                },
            }
        })
        .collect();
    per_opcode.sort_by(|a, b| b.measured_ms.total_cmp(&a.measured_ms));

    let total = |f: &dyn Fn(&OpcodeErrorRow) -> (f64, u64)| -> f64 {
        let (ln_sum, n) = per_opcode
            .iter()
            .map(f)
            .fold((0.0, 0u64), |(s, n), (ln, k)| (s + ln, n + k));
        if n > 0 {
            (ln_sum / n as f64).exp()
        } else {
            1.0
        }
    };
    let samples: u64 = per_opcode.iter().map(|r| r.samples).sum();
    let bytes_samples: u64 = samples; // weights below carry their own n
    let _ = bytes_samples;
    ErrorReport {
        samples,
        analytic_time_err: total(&|r| (r.analytic_time_err.ln() * r.samples as f64, r.samples)),
        calibrated_time_err: total(&|r| (r.calibrated_time_err.ln() * r.samples as f64, r.samples)),
        analytic_bytes_err: total(&|r| (r.analytic_bytes_err.ln() * r.samples as f64, r.samples)),
        calibrated_bytes_err: total(&|r| {
            (r.calibrated_bytes_err.ln() * r.samples as f64, r.samples)
        }),
        per_opcode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cost::calibrate::{OpcodeCalibration, TimeModel};

    fn obs(opcode: &str, flops: f64, wall_ns: u64) -> MemObservation {
        MemObservation {
            opcode: opcode.to_string(),
            predicted_bytes: Some(1000),
            actual_bytes: 1000,
            resident_bytes: 1000,
            bound_bytes: None,
            wall_ns,
            predicted_flops: Some(flops),
        }
    }

    #[test]
    fn perfect_scale_profile_zeroes_the_error() {
        // Analytic is 2x too fast everywhere: measured 1µs vs 500ns.
        let rows: Vec<MemObservation> = (0..10).map(|_| obs("ba+*", 1000.0, 1000)).collect();
        let mut profile = CalibrationProfile {
            fitted_peak_flops: 2.0e9,
            opcodes: Default::default(),
        };
        profile.opcodes.insert(
            "ba+*".into(),
            OpcodeCalibration {
                time: TimeModel::Scale { ratio: 2.0 },
                bytes_factor: 1.0,
                samples: 10,
            },
        );
        let report = evaluate(&rows, 2.0e9, &profile);
        assert!((report.analytic_time_err - 2.0).abs() < 1e-9);
        assert!((report.calibrated_time_err - 1.0).abs() < 1e-9);
        assert!(report.time_error_reduction() > 1.9);
    }

    #[test]
    fn unseen_opcode_keeps_analytic_error() {
        let rows = vec![obs("solve", 1000.0, 1000)];
        let profile = CalibrationProfile::default();
        let report = evaluate(&rows, 2.0e9, &profile);
        assert_eq!(report.analytic_time_err, report.calibrated_time_err);
    }
}
