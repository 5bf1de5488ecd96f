//! Calibration profiles: measured corrections applied to the analytic
//! cost model.
//!
//! The analytic model in [`crate::model`] prices compute as
//! `flops / peak_flops` against the *paper cluster's* nominal peak — a
//! white-box estimate that is deliberately machine-independent. A
//! [`CalibrationProfile`] closes the loop with reality: the
//! `reml-calibrate` crate fits per-opcode coefficients from measured
//! execution traces, and [`CostModel`] consults
//! the profile (when attached) for every CP instruction whose opcode has
//! a fitted entry.
//!
//! Graceful degradation rules, in order:
//! * opcode not in the profile → analytic estimate, unchanged;
//! * [`TimeModel::Affine`] but the instruction's flops or bytes are
//!   unknown at compile time → the profile's quantile fallback ratio;
//! * profile version unknown at load → hard error (never silently
//!   misinterpret a future schema).
//!
//! Memory predictions are only ever *inflated*: `bytes_factor ≥ 1` by
//! construction, so a calibrated memory estimate can never shrink below
//! the analytic one and therefore can never flip a sound `memest`
//! decision to unsound.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Serialize, Value};

use crate::model::CostModel;

/// Current on-disk schema version of [`CalibrationProfile`].
pub const PROFILE_VERSION: u64 = 1;

/// Error decoding a persisted profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDecodeError(pub String);

impl std::fmt::Display for ProfileDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "calibration profile decode error: {}", self.0)
    }
}

impl std::error::Error for ProfileDecodeError {}

/// Per-opcode time model, in fit-preference order.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeModel {
    /// `t = flops_s·flops + bytes_s·bytes + base_s` (seconds), fitted by
    /// least squares when the opcode has enough well-conditioned samples
    /// with known flops and bytes.
    Affine {
        /// Seconds per FLOP (inverse effective throughput).
        flops_s: f64,
        /// Seconds per operand+output byte (inverse effective bandwidth).
        bytes_s: f64,
        /// Fixed per-instruction overhead, seconds.
        base_s: f64,
    },
    /// `t = ratio · analytic` — the robust quantile fallback: the median
    /// of measured/analytic ratios. Used when the least-squares system is
    /// ill-conditioned or produced non-physical (negative) coefficients.
    Scale {
        /// Median measured/analytic time ratio.
        ratio: f64,
    },
    /// `t = seconds` — median measured wall time, for opcodes whose
    /// analytic estimate is zero (pure data movement, bookkeeping).
    Fixed {
        /// Median measured seconds.
        seconds: f64,
    },
}

/// Fitted calibration for one opcode mnemonic.
#[derive(Debug, Clone, PartialEq)]
pub struct OpcodeCalibration {
    /// Time correction.
    pub time: TimeModel,
    /// Memory inflation factor applied to `predicted_bytes`: the q95 of
    /// measured actual/predicted ratios, clamped to `≥ 1.0` so calibration
    /// never shrinks a memory estimate.
    pub bytes_factor: f64,
    /// Observation count behind the fit.
    pub samples: u64,
}

impl OpcodeCalibration {
    /// Predicted seconds for one instruction. `flops`/`bytes` are the
    /// compile-time predictions (`None` when sizes were unknown);
    /// `analytic_s` is the uncalibrated estimate used by the fallbacks.
    pub fn predict_seconds(&self, flops: Option<f64>, bytes: Option<u64>, analytic_s: f64) -> f64 {
        match &self.time {
            TimeModel::Affine {
                flops_s,
                bytes_s,
                base_s,
            } => match (flops, bytes) {
                (Some(f), Some(b)) => (flops_s * f + bytes_s * b as f64 + base_s).max(0.0),
                _ => analytic_s,
            },
            // Unknown flops mean `analytic_s` was priced off the
            // UNKNOWN_FLOPS sentinel; scaling a sentinel by a measured
            // ratio only amplifies it, so degrade to analytic unscaled.
            TimeModel::Scale { ratio } => match flops {
                Some(_) => ratio * analytic_s,
                None => analytic_s,
            },
            TimeModel::Fixed { seconds } => *seconds,
        }
    }

    /// Calibrated (inflated) byte prediction.
    pub fn calibrated_bytes(&self, predicted_bytes: u64) -> u64 {
        (predicted_bytes as f64 * self.bytes_factor.max(1.0)).ceil() as u64
    }
}

/// A versioned, persistable set of per-opcode calibrations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationProfile {
    /// Peak FLOPs of the analytic model the profile was fitted against
    /// (informational; lets a report flag cross-cluster reuse).
    pub fitted_peak_flops: f64,
    /// Calibrations keyed by opcode mnemonic (BTreeMap: stable JSON key
    /// order, so serialization is deterministic and round-trips
    /// byte-identically).
    pub opcodes: BTreeMap<String, OpcodeCalibration>,
}

impl CalibrationProfile {
    /// Look up the calibration for an opcode mnemonic.
    pub fn get(&self, mnemonic: &str) -> Option<&OpcodeCalibration> {
        self.opcodes.get(mnemonic)
    }

    /// Render as deterministic pretty JSON (the `results/` artifact form).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("Value serialization is infallible")
    }

    /// Decode from a JSON string produced by [`Self::to_json`].
    pub fn from_json(s: &str) -> Result<Self, ProfileDecodeError> {
        let v: Value = serde_json::from_str(s)
            .map_err(|e| ProfileDecodeError(format!("invalid JSON: {e:?}")))?;
        Self::from_value(&v)
    }

    /// Decode from a JSON tree. Rejects unknown schema versions.
    pub fn from_value(v: &Value) -> Result<Self, ProfileDecodeError> {
        let version = v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| ProfileDecodeError("missing 'version'".into()))?;
        if version != PROFILE_VERSION {
            return Err(ProfileDecodeError(format!(
                "unsupported profile version {version} (supported: {PROFILE_VERSION})"
            )));
        }
        let fitted_peak_flops = v
            .get("fitted_peak_flops")
            .and_then(Value::as_f64)
            .ok_or_else(|| ProfileDecodeError("missing 'fitted_peak_flops'".into()))?;
        let mut opcodes = BTreeMap::new();
        let entries = v
            .get("opcodes")
            .and_then(Value::as_object)
            .ok_or_else(|| ProfileDecodeError("missing 'opcodes' object".into()))?;
        for (mnemonic, entry) in entries {
            opcodes.insert(mnemonic.clone(), decode_opcode(mnemonic, entry)?);
        }
        Ok(CalibrationProfile {
            fitted_peak_flops,
            opcodes,
        })
    }
}

fn num(entry: &Value, mnemonic: &str, field: &str) -> Result<f64, ProfileDecodeError> {
    entry
        .get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| ProfileDecodeError(format!("opcode '{mnemonic}': missing number '{field}'")))
}

fn decode_opcode(mnemonic: &str, entry: &Value) -> Result<OpcodeCalibration, ProfileDecodeError> {
    let time_v = entry
        .get("time")
        .ok_or_else(|| ProfileDecodeError(format!("opcode '{mnemonic}': missing 'time'")))?;
    let kind = time_v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or_else(|| ProfileDecodeError(format!("opcode '{mnemonic}': missing time kind")))?;
    let time = match kind {
        "affine" => TimeModel::Affine {
            flops_s: num(time_v, mnemonic, "flops_s")?,
            bytes_s: num(time_v, mnemonic, "bytes_s")?,
            base_s: num(time_v, mnemonic, "base_s")?,
        },
        "scale" => TimeModel::Scale {
            ratio: num(time_v, mnemonic, "ratio")?,
        },
        "fixed" => TimeModel::Fixed {
            seconds: num(time_v, mnemonic, "seconds")?,
        },
        other => {
            return Err(ProfileDecodeError(format!(
                "opcode '{mnemonic}': unknown time kind '{other}'"
            )))
        }
    };
    let bytes_factor = num(entry, mnemonic, "bytes_factor")?;
    // `< 1.0` written to also reject NaN (which fails every comparison).
    if bytes_factor.is_nan() || bytes_factor < 1.0 {
        return Err(ProfileDecodeError(format!(
            "opcode '{mnemonic}': bytes_factor {bytes_factor} < 1.0 would shrink memory estimates"
        )));
    }
    let samples = entry
        .get("samples")
        .and_then(Value::as_u64)
        .ok_or_else(|| ProfileDecodeError(format!("opcode '{mnemonic}': missing 'samples'")))?;
    Ok(OpcodeCalibration {
        time,
        bytes_factor,
        samples,
    })
}

impl Serialize for TimeModel {
    fn to_value(&self) -> Value {
        match self {
            TimeModel::Affine {
                flops_s,
                bytes_s,
                base_s,
            } => Value::Object(vec![
                ("kind".into(), Value::Str("affine".into())),
                ("flops_s".into(), Value::Num(*flops_s)),
                ("bytes_s".into(), Value::Num(*bytes_s)),
                ("base_s".into(), Value::Num(*base_s)),
            ]),
            TimeModel::Scale { ratio } => Value::Object(vec![
                ("kind".into(), Value::Str("scale".into())),
                ("ratio".into(), Value::Num(*ratio)),
            ]),
            TimeModel::Fixed { seconds } => Value::Object(vec![
                ("kind".into(), Value::Str("fixed".into())),
                ("seconds".into(), Value::Num(*seconds)),
            ]),
        }
    }
}

impl Serialize for OpcodeCalibration {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("time".into(), self.time.to_value()),
            ("bytes_factor".into(), Value::Num(self.bytes_factor)),
            ("samples".into(), Value::Num(self.samples as f64)),
        ])
    }
}

impl Serialize for CalibrationProfile {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".into(), Value::Num(PROFILE_VERSION as f64)),
            (
                "fitted_peak_flops".into(),
                Value::Num(self.fitted_peak_flops),
            ),
            (
                "opcodes".into(),
                Value::Object(
                    self.opcodes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A cost model with a calibration profile attached: the ergonomic entry
/// point for "analytic model, corrected by measured traces". Dereferences
/// to the underlying [`CostModel`] so all costing entry points are
/// available unchanged.
#[derive(Debug, Clone)]
pub struct CalibratedCostModel {
    model: CostModel,
}

impl CalibratedCostModel {
    /// Attach `profile` to `model`. The profile is shared via `Arc` so
    /// cloning the model for parallel grid workers stays cheap.
    pub fn new(model: CostModel, profile: Arc<CalibrationProfile>) -> Self {
        CalibratedCostModel {
            model: model.with_calibration(profile),
        }
    }

    /// The underlying cost model (carrying the profile).
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Consume into the underlying cost model.
    pub fn into_model(self) -> CostModel {
        self.model
    }
}

impl std::ops::Deref for CalibratedCostModel {
    type Target = CostModel;
    fn deref(&self) -> &CostModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> CalibrationProfile {
        let mut opcodes = BTreeMap::new();
        opcodes.insert(
            "ba+*".to_string(),
            OpcodeCalibration {
                time: TimeModel::Affine {
                    flops_s: 2.5e-10,
                    bytes_s: 1.0e-10,
                    base_s: 3.0e-6,
                },
                bytes_factor: 1.0,
                samples: 42,
            },
        );
        opcodes.insert(
            "rix".to_string(),
            OpcodeCalibration {
                time: TimeModel::Scale { ratio: 1.75 },
                bytes_factor: 2.85,
                samples: 7,
            },
        );
        opcodes.insert(
            "print".to_string(),
            OpcodeCalibration {
                time: TimeModel::Fixed { seconds: 1.2e-6 },
                bytes_factor: 1.0,
                samples: 3,
            },
        );
        CalibrationProfile {
            fitted_peak_flops: 2.0e9,
            opcodes,
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let p = sample_profile();
        let json = p.to_json();
        let back = CalibrationProfile::from_json(&json).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn unknown_version_rejected() {
        let mut v = sample_profile().to_value();
        if let Value::Object(fields) = &mut v {
            fields[0].1 = Value::Num(99.0);
        }
        let err = CalibrationProfile::from_value(&v).unwrap_err();
        assert!(err.0.contains("version"), "{err}");
    }

    #[test]
    fn shrinking_bytes_factor_rejected() {
        let json = sample_profile().to_json().replace("2.85", "0.5");
        let err = CalibrationProfile::from_json(&json).unwrap_err();
        assert!(err.0.contains("bytes_factor"), "{err}");
    }

    #[test]
    fn affine_degrades_to_analytic_on_unknown_sizes() {
        let cal = sample_profile().opcodes["ba+*"].clone();
        assert_eq!(cal.predict_seconds(None, Some(100), 0.5), 0.5);
        let t = cal.predict_seconds(Some(1e6), Some(1 << 20), 0.5);
        assert!(t > 0.0 && t != 0.5);
    }

    #[test]
    fn bytes_never_shrink() {
        let cal = OpcodeCalibration {
            time: TimeModel::Scale { ratio: 0.5 },
            bytes_factor: 1.0,
            samples: 1,
        };
        assert_eq!(cal.calibrated_bytes(4096), 4096);
        let inflated = OpcodeCalibration {
            bytes_factor: 2.85,
            ..cal
        };
        assert_eq!(inflated.calibrated_bytes(1000), 2850);
    }
}
