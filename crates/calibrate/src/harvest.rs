//! Observation harvesting: turn raw execution traces into fit samples.
//!
//! Primary source: the per-instruction [`MemObservation`] rows recorded
//! by the VM/tree executors (via `sim::collect_observations`), which
//! carry predicted flops, predicted/actual bytes, and measured wall
//! time. Fused VM instructions are harvested twice — once under their
//! composite `fused(...)` mnemonic (so plans that re-fuse the same chain
//! predict accurately) and once *backfilled* onto their constituent
//! opcodes, splitting the measured wall time across constituents in
//! proportion to predicted FLOPs (equal split when unknown). Backfill is
//! what lets a profile fitted on fused executions still calibrate the
//! unfused opcodes the cost model scans.
//!
//! Secondary source: `reml_trace`'s `vm.op.*` histograms.
//! Histograms only retain (count, sum, min, max, mean) — no per-sample
//! size columns — so they can only reinforce [`TimeModel::Fixed`]-style
//! medians for opcodes that never appeared in the observation rows.
//!
//! [`TimeModel::Fixed`]: reml_cost::calibrate::TimeModel::Fixed

use reml_runtime::MemObservation;
use reml_trace::MetricSnapshot;

/// One fit sample: an observed (or backfilled) execution of one opcode.
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

/// Expand observation rows into fit samples (composite fused rows plus
/// their per-constituent backfill).
pub fn samples_from_observations(observations: &[MemObservation]) -> Vec<Sample> {
    let mut out = Vec::with_capacity(observations.len());
    for obs in observations {
        let wall_s = obs.wall_ns as f64 / 1e9;
        out.push(Sample {
            opcode: obs.opcode.clone(),
            flops: obs.predicted_flops,
            bytes: obs.predicted_bytes,
            actual_bytes: obs.actual_bytes,
            wall_s,
        });
        if obs.constituents.is_empty() {
            continue;
        }
        // Backfill: split measured wall time across constituents by
        // predicted-FLOP share (equal shares when any step is unknown).
        let total_flops: Option<f64> = obs
            .constituents
            .iter()
            .try_fold(0.0, |acc, c| c.predicted_flops.map(|f| acc + f))
            .filter(|t| *t > 0.0);
        let n = obs.constituents.len() as f64;
        for c in &obs.constituents {
            let share = match (total_flops, c.predicted_flops) {
                (Some(total), Some(f)) => f / total,
                _ => 1.0 / n,
            };
            out.push(Sample {
                opcode: c.mnemonic.clone(),
                flops: c.predicted_flops,
                bytes: c.predicted_bytes,
                // The pool footprint is a property of the whole fused
                // instruction; constituent byte predictions have no
                // measured counterpart, so don't let them touch the
                // one-sided byte model.
                actual_bytes: 0,
                wall_s: wall_s * share,
            });
        }
    }
    out
}

/// Harvest mean-time samples from the trace registry's per-opcode
/// histograms (`vm.op.<mnemonic>`, published by the VM), for opcodes
/// *not* already covered by observation rows. Histogram means carry no size columns, so each
/// becomes `count` flop-less samples at the mean — enough for a `Fixed`
/// fallback entry, never an affine fit.
pub fn samples_from_trace_histograms(covered: &dyn Fn(&str) -> bool) -> Vec<Sample> {
    let mut out = Vec::new();
    for (name, snap) in reml_trace::metrics().snapshot() {
        let opcode = match name.strip_prefix("vm.op.") {
            Some(op) if !op.is_empty() => op.to_string(),
            _ => continue,
        };
        if covered(&opcode) {
            continue;
        }
        if let MetricSnapshot::Histogram { count, mean, .. } = snap {
            let wall_s = mean / 1e6; // histograms record microseconds
            for _ in 0..count.min(64) {
                out.push(Sample {
                    opcode: opcode.clone(),
                    flops: Some(0.0),
                    bytes: None,
                    actual_bytes: 0,
                    wall_s,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_runtime::vm::ObservedConstituent;

    fn obs(opcode: &str, wall_ns: u64) -> MemObservation {
        MemObservation {
            opcode: opcode.to_string(),
            predicted_bytes: Some(1000),
            actual_bytes: 800,
            resident_bytes: 800,
            bound_bytes: Some(2000),
            wall_ns,
            predicted_flops: Some(500.0),
            constituents: Vec::new(),
        }
    }

    #[test]
    fn plain_rows_become_one_sample() {
        let samples = samples_from_observations(&[obs("ba+*", 1_000)]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].opcode, "ba+*");
        assert!((samples[0].wall_s - 1e-6).abs() < 1e-15);
    }

    #[test]
    fn fused_rows_backfill_constituents_by_flop_share() {
        let mut fused = obs("fused(map*,map+)", 4_000);
        fused.constituents = vec![
            ObservedConstituent {
                mnemonic: "map*".into(),
                predicted_flops: Some(300.0),
                predicted_bytes: Some(600),
            },
            ObservedConstituent {
                mnemonic: "map+".into(),
                predicted_flops: Some(100.0),
                predicted_bytes: Some(400),
            },
        ];
        let samples = samples_from_observations(&[fused]);
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].opcode, "fused(map*,map+)");
        let star = samples.iter().find(|s| s.opcode == "map*").unwrap();
        let plus = samples.iter().find(|s| s.opcode == "map+").unwrap();
        // 4µs split 3:1 by flops.
        assert!((star.wall_s - 3e-6).abs() < 1e-15, "{}", star.wall_s);
        assert!((plus.wall_s - 1e-6).abs() < 1e-15, "{}", plus.wall_s);
        // Backfilled rows never contribute to the byte model.
        assert_eq!(star.actual_bytes, 0);
    }

    #[test]
    fn unknown_constituent_flops_split_equally() {
        let mut fused = obs("fused(s*,u^)", 2_000);
        fused.constituents = vec![
            ObservedConstituent {
                mnemonic: "s*".into(),
                predicted_flops: None,
                predicted_bytes: None,
            },
            ObservedConstituent {
                mnemonic: "u^".into(),
                predicted_flops: Some(100.0),
                predicted_bytes: Some(400),
            },
        ];
        let samples = samples_from_observations(&[fused]);
        let s = samples.iter().find(|s| s.opcode == "s*").unwrap();
        assert!((s.wall_s - 1e-6).abs() < 1e-15);
    }
}
