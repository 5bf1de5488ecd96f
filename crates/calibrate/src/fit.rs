//! Per-opcode model fitting: online least squares with a robust
//! quantile fallback.
//!
//! Each opcode accumulates its samples into a 3×3 normal-equation system
//! for the affine model `t = a·flops + b·bytes + c` — O(1) state per
//! opcode regardless of sample count, so fitting streams over traces of
//! any length. The solve runs once at `finish()`:
//!
//! * enough well-conditioned samples and physical (non-negative)
//!   coefficients → [`TimeModel::Affine`];
//! * otherwise → [`TimeModel::Scale`], the *median* of per-sample
//!   measured/analytic ratios (robust to the heavy-tailed timing noise of
//!   micro-instructions);
//! * opcodes whose analytic estimate is zero (pure data movement) →
//!   [`TimeModel::Fixed`], the median measured time.
//!
//! The byte model is deliberately one-sided: `bytes_factor` is the q95 of
//! measured actual/predicted ratios clamped to `≥ 1`, so calibration can
//! inflate a memory estimate but never shrink one below the analytic
//! prediction (memest soundness is preserved by construction).

use std::collections::BTreeMap;

use reml_cost::calibrate::{CalibrationProfile, OpcodeCalibration, TimeModel};

use crate::Sample;

/// Minimum known-size samples before the affine fit is attempted.
pub const MIN_AFFINE_SAMPLES: u64 = 8;

/// Relative pivot threshold below which the normal equations are
/// declared ill-conditioned.
const COND_EPS: f64 = 1e-9;

/// Online accumulator for one opcode.
#[derive(Debug, Clone, Default)]
struct OpcodeFitter {
    /// Normal equations: `xtx · β = xty` for x = [flops, bytes, 1].
    xtx: [[f64; 3]; 3],
    xty: [f64; 3],
    /// Samples folded into the normal equations (known flops + bytes).
    n_affine: u64,
    /// All samples seen.
    n_total: u64,
    /// Per-sample measured/analytic time ratios (samples with a positive
    /// analytic estimate).
    ratios: Vec<f64>,
    /// Measured seconds of samples with a zero analytic estimate.
    zero_analytic_s: Vec<f64>,
    /// Measured actual/predicted byte ratios.
    byte_ratios: Vec<f64>,
}

impl OpcodeFitter {
    fn push(&mut self, s: &Sample, peak_flops: f64) {
        self.n_total += 1;
        let t = s.wall_s;
        if let (Some(f), Some(b)) = (s.flops, s.bytes) {
            let x = [f, b as f64, 1.0];
            for i in 0..3 {
                for j in 0..3 {
                    self.xtx[i][j] += x[i] * x[j];
                }
                self.xty[i] += x[i] * t;
            }
            self.n_affine += 1;
        }
        if let Some(f) = s.flops {
            let analytic = f / peak_flops;
            if analytic > 0.0 {
                self.ratios.push(t / analytic);
            } else {
                self.zero_analytic_s.push(t);
            }
        } else {
            // Unknown flops: the analytic model prices these via the
            // UNKNOWN_FLOPS sentinel; fitting a ratio against a sentinel
            // would be meaningless, so the sample only informs the
            // byte model below.
        }
        if let (Some(p), actual) = (s.bytes, s.actual_bytes) {
            if p > 0 {
                self.byte_ratios.push(actual as f64 / p as f64);
            }
        }
    }

    fn finish(mut self) -> Option<OpcodeCalibration> {
        if self.n_total == 0 {
            return None;
        }
        let bytes_factor = quantile(&mut self.byte_ratios, 0.95)
            .unwrap_or(1.0)
            .max(1.0);
        let time = self
            .affine()
            .or_else(|| quantile(&mut self.ratios, 0.5).map(|ratio| TimeModel::Scale { ratio }))
            .or_else(|| {
                quantile(&mut self.zero_analytic_s, 0.5).map(|seconds| TimeModel::Fixed { seconds })
            })?;
        Some(OpcodeCalibration {
            time,
            bytes_factor,
            samples: self.n_total,
        })
    }

    /// Attempt the affine solve; `None` on too few samples, an
    /// ill-conditioned system, or non-physical coefficients.
    fn affine(&self) -> Option<TimeModel> {
        if self.n_affine < MIN_AFFINE_SAMPLES {
            return None;
        }
        // Column scaling (flops and bytes can sit at ~1e6 while the
        // intercept column is 1): equilibrate before elimination.
        let scale = [
            self.xtx[0][0].sqrt().max(1.0),
            self.xtx[1][1].sqrt().max(1.0),
            self.xtx[2][2].sqrt().max(1.0),
        ];
        let mut a = [[0.0f64; 4]; 3];
        for i in 0..3 {
            for j in 0..3 {
                a[i][j] = self.xtx[i][j] / (scale[i] * scale[j]);
            }
            a[i][3] = self.xty[i] / scale[i];
        }
        // Gaussian elimination with partial pivoting.
        for col in 0..3 {
            let pivot_row = (col..3)
                .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
                .unwrap();
            if a[pivot_row][col].abs() < COND_EPS {
                return None;
            }
            a.swap(col, pivot_row);
            for row in (col + 1)..3 {
                let f = a[row][col] / a[col][col];
                // Indexes two distinct rows of `a` at once; an iterator
                // form would need split_at_mut gymnastics for no gain.
                #[allow(clippy::needless_range_loop)]
                for k in col..4 {
                    a[row][k] -= f * a[col][k];
                }
            }
        }
        let mut beta = [0.0f64; 3];
        for row in (0..3).rev() {
            let mut v = a[row][3];
            for k in (row + 1)..3 {
                v -= a[row][k] * beta[k];
            }
            beta[row] = v / a[row][row];
        }
        let (flops_s, bytes_s, base_s) =
            (beta[0] / scale[0], beta[1] / scale[1], beta[2] / scale[2]);
        // Non-physical fit (negative throughput/bandwidth/overhead):
        // reject and let the quantile fallback take over.
        if flops_s < 0.0 || bytes_s < 0.0 || base_s < 0.0 {
            return None;
        }
        Some(TimeModel::Affine {
            flops_s,
            bytes_s,
            base_s,
        })
    }
}

/// Quantile of `values` (sorted in place); `None` when empty.
fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() - 1) as f64 * q).round() as usize;
    Some(values[idx])
}

/// Streaming profile fitter over harvested samples.
#[derive(Debug, Default)]
pub struct ProfileFitter {
    by_opcode: BTreeMap<String, OpcodeFitter>,
    peak_flops: f64,
}

impl ProfileFitter {
    /// Fitter against the analytic model's `peak_flops` (the quantile
    /// fallback expresses measured time relative to `flops / peak`).
    pub fn new(peak_flops: f64) -> Self {
        ProfileFitter {
            by_opcode: BTreeMap::new(),
            peak_flops,
        }
    }

    /// Fold one sample in (O(1) amortized; ratio vectors grow for the
    /// median fallback).
    pub fn push(&mut self, sample: &Sample) {
        self.by_opcode
            .entry(sample.opcode.clone())
            .or_default()
            .push(sample, self.peak_flops);
    }

    /// Fold many samples.
    pub fn extend<'a>(&mut self, samples: impl IntoIterator<Item = &'a Sample>) {
        for s in samples {
            self.push(s);
        }
    }

    /// Solve every opcode and assemble the profile.
    pub fn finish(self) -> CalibrationProfile {
        let peak = self.peak_flops;
        CalibrationProfile {
            fitted_peak_flops: peak,
            opcodes: self
                .by_opcode
                .into_iter()
                .filter_map(|(op, fitter)| fitter.finish().map(|cal| (op, cal)))
                .collect(),
        }
    }
}

/// One-shot convenience: fit a profile from a sample slice.
pub fn fit_profile(samples: &[Sample], peak_flops: f64) -> CalibrationProfile {
    let mut fitter = ProfileFitter::new(peak_flops);
    fitter.extend(samples);
    fitter.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(opcode: &str, flops: f64, bytes: u64, wall_s: f64) -> Sample {
        Sample {
            opcode: opcode.to_string(),
            flops: Some(flops),
            bytes: Some(bytes),
            actual_bytes: bytes,
            wall_s,
        }
    }

    #[test]
    fn affine_recovers_exact_coefficients() {
        let (a, b, c) = (3.0e-10, 5.0e-11, 2.0e-6);
        let samples: Vec<Sample> = (1..40)
            .map(|i| {
                let f = (i * i * 1000) as f64;
                let by = (i * 8192) as u64;
                sample("ba+*", f, by, a * f + b * by as f64 + c)
            })
            .collect();
        let profile = fit_profile(&samples, 2.0e9);
        let cal = profile.get("ba+*").expect("fitted");
        match cal.time {
            TimeModel::Affine {
                flops_s,
                bytes_s,
                base_s,
            } => {
                assert!((flops_s - a).abs() / a < 1e-6, "{flops_s} vs {a}");
                assert!((bytes_s - b).abs() / b < 1e-6, "{bytes_s} vs {b}");
                assert!((base_s - c).abs() / c < 1e-3, "{base_s} vs {c}");
            }
            ref other => panic!("expected affine, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_design_falls_back_to_scale() {
        // Identical samples: rank-1 system, unsolvable — the median
        // ratio fallback must kick in.
        let samples: Vec<Sample> = (0..20).map(|_| sample("r'", 1000.0, 4096, 1e-6)).collect();
        let profile = fit_profile(&samples, 2.0e9);
        match profile.get("r'").expect("fitted").time {
            TimeModel::Scale { ratio } => {
                // analytic = 1000/2e9 = 5e-7; measured 1e-6 → ratio 2.
                assert!((ratio - 2.0).abs() < 1e-9, "{ratio}");
            }
            ref other => panic!("expected scale, got {other:?}"),
        }
    }

    #[test]
    fn zero_flop_ops_get_fixed_median() {
        let samples: Vec<Sample> = (0..9)
            .map(|i| sample("rmvar", 0.0, 0, (i + 1) as f64 * 1e-7))
            .collect();
        let profile = fit_profile(&samples, 2.0e9);
        match profile.get("rmvar").expect("fitted").time {
            TimeModel::Fixed { seconds } => assert!((seconds - 5e-7).abs() < 1e-12, "{seconds}"),
            ref other => panic!("expected fixed, got {other:?}"),
        }
    }

    #[test]
    fn bytes_factor_never_below_one() {
        // Actual far below predicted: the one-sided q95 must clamp at 1.
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample {
                actual_bytes: 10,
                ..sample("tsmm", (i + 1) as f64 * 1e5, 1_000_000, 1e-5)
            })
            .collect();
        let profile = fit_profile(&samples, 2.0e9);
        assert_eq!(profile.get("tsmm").unwrap().bytes_factor, 1.0);
    }

    #[test]
    fn under_estimated_bytes_inflate() {
        let samples: Vec<Sample> = (0..10)
            .map(|i| Sample {
                actual_bytes: 2_850_000,
                ..sample("rix", (i + 1) as f64 * 1e5, 1_000_000, 1e-5)
            })
            .collect();
        let profile = fit_profile(&samples, 2.0e9);
        let f = profile.get("rix").unwrap().bytes_factor;
        assert!((f - 2.85).abs() < 1e-9, "{f}");
    }
}
