//! Differential memory-soundness audit: execute a script for real
//! through the bytecode VM with memory observation enabled and compare
//! the compiler's `memest`-style size predictions against the actual
//! operator footprints, per opcode.
//!
//! Execution runs on the register VM lowered without fusion, so every
//! row is one CP instruction under the opcode mnemonic the cost model
//! prices, compared against that instruction's own prediction and bound.
//!
//! The resource optimizer trusts the compile-time estimates to decide
//! CP-vs-MR placement (the PL010 lint rule checks the *static* side of
//! that contract); this audit checks the *dynamic* side — whether the
//! predictions ever under-estimate what execution really allocates. An
//! operator whose actual footprint exceeds its prediction could be
//! placed in CP with a budget it will blow at runtime.
//!
//! The plan is additionally annotated with the `reml-sizebound` interval
//! bounds before execution, so every observation also carries the
//! statically-*proven* upper bound. Unlike the point predictions (best
//! effort, can legitimately be `None`), a finite bound is a theorem:
//! `actual > bound` anywhere is a soundness bug in the analysis, and the
//! audit reports it separately (`bound_unsound*`) so CI can gate on it.

use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, compile};
use reml_compiler::CompileConfig;
use reml_runtime::executor::NoRecompile;
use reml_runtime::{HdfsStore, MemObservation, ScalarValue, VmExecutor, VmLowerOptions};
use reml_scripts::data::{generate_dataset, LabelKind};
use reml_scripts::ScriptSpec;

/// Aggregated prediction error for one opcode.
#[derive(Debug, Clone, serde::Serialize)]
pub struct OpcodeAudit {
    /// Opcode mnemonic.
    pub opcode: String,
    /// Instructions observed.
    pub samples: u64,
    /// Observations where all compile-time sizes were known.
    pub known_samples: u64,
    /// Mean signed relative error `(predicted - actual) / actual` over
    /// known samples with a non-zero actual footprint (positive =
    /// over-estimate, the safe direction).
    pub mean_rel_error: f64,
    /// Worst `actual / predicted` over known samples (> 1 means the
    /// estimate was unsound).
    pub max_actual_over_predicted: f64,
    /// Known samples where actual exceeded predicted.
    pub unsound: u64,
    /// Observations carrying a finite interval bound.
    pub bounded_samples: u64,
    /// Worst `actual / bound` over bounded samples (> 1 means the
    /// interval analysis is broken).
    pub max_actual_over_bound: f64,
    /// Bounded samples where actual exceeded the proven bound (must be 0).
    pub bound_unsound: u64,
}

/// Result of one script's memory-soundness audit.
#[derive(Debug, Clone, serde::Serialize)]
pub struct MemoryAuditReport {
    /// Script name.
    pub script: String,
    /// Dataset rows.
    pub rows: u64,
    /// Dataset cols.
    pub cols: u64,
    /// CP instructions executed.
    pub cp_instructions: u64,
    /// Observations recorded.
    pub observations: u64,
    /// Known-size observations where actual exceeded predicted.
    pub unsound_total: u64,
    /// Observations carrying a finite interval bound.
    pub bounded_observations: u64,
    /// Observations where actual exceeded the proven interval bound
    /// (any non-zero value is a soundness bug; CI gates on this).
    pub bound_unsound_total: u64,
    /// Per-opcode aggregation, sorted by opcode.
    pub per_opcode: Vec<OpcodeAudit>,
}

/// Raw per-instruction observations from one observed script execution —
/// the audit's input, also consumed directly by the `reml-calibrate`
/// crate to fit cost-model calibration profiles (each row now carries
/// measured wall time and predicted FLOPs alongside the byte columns).
#[derive(Debug, Clone)]
pub struct ScriptObservations {
    /// Script name.
    pub script: String,
    /// Dataset rows.
    pub rows: u64,
    /// Dataset cols.
    pub cols: u64,
    /// CP instructions executed.
    pub cp_instructions: u64,
    /// One row per observed instruction, in execution order.
    pub observations: Vec<MemObservation>,
}

/// Run `script` on a generated dataset with memory observation enabled
/// and aggregate the per-opcode estimate error. `param_overrides` patches
/// script `$` parameters (e.g. a larger `maxiter` for convergence).
pub fn memory_soundness_audit(
    script: &ScriptSpec,
    rows: u64,
    cols: u64,
    label: LabelKind,
    param_overrides: &[(&str, f64)],
) -> MemoryAuditReport {
    let collected = collect_observations(script, rows, cols, label, param_overrides);
    aggregate(
        script.name,
        rows,
        cols,
        collected.cp_instructions,
        &collected.observations,
    )
}

/// Execute `script` through the bytecode VM (lowered unfused, sizebound
/// annotations stamped) with observation recording on, returning the raw
/// per-instruction rows instead of the aggregated audit.
pub fn collect_observations(
    script: &ScriptSpec,
    rows: u64,
    cols: u64,
    label: LabelKind,
    param_overrides: &[(&str, f64)],
) -> ScriptObservations {
    let data = generate_dataset(rows as usize, cols as usize, 1.0, label, 7);
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    for (name, value) in param_overrides {
        cfg.params
            .insert((*name).to_string(), ScalarValue::Num(*value));
    }
    cfg.inputs.insert("X".to_string(), data.x.characteristics());
    cfg.inputs.insert("y".to_string(), data.y.characteristics());
    let analyzed =
        analyze_program(&script.source).unwrap_or_else(|e| panic!("{} analyze: {e}", script.name));
    let mut compiled =
        compile(&analyzed, &cfg).unwrap_or_else(|e| panic!("{} compile: {e}", script.name));
    // Stamp every CP instruction with its sound interval byte bound.
    reml_sizebound::annotate(&analyzed, &mut compiled, &cfg)
        .unwrap_or_else(|e| panic!("{} sizebound: {e}", script.name));

    let program = compiled.runtime.lower_vm(VmLowerOptions { fuse: false });

    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    let mut exec = VmExecutor::new(4 << 30, hdfs);
    exec.enable_memory_observation();
    exec.run(&program, &mut NoRecompile)
        .unwrap_or_else(|e| panic!("{} execute: {e}", script.name));

    let observations = exec.take_memory_observations();
    ScriptObservations {
        script: script.name.to_string(),
        rows,
        cols,
        cp_instructions: exec.stats.cp_instructions,
        observations,
    }
}

fn aggregate(
    script: &str,
    rows: u64,
    cols: u64,
    cp_instructions: u64,
    observations: &[MemObservation],
) -> MemoryAuditReport {
    use std::collections::BTreeMap;
    struct Acc {
        samples: u64,
        known: u64,
        rel_err_sum: f64,
        rel_err_n: u64,
        max_ratio: f64,
        unsound: u64,
        bounded: u64,
        max_bound_ratio: f64,
        bound_unsound: u64,
    }
    let mut by_op: BTreeMap<&str, Acc> = BTreeMap::new();
    for obs in observations {
        let acc = by_op.entry(obs.opcode.as_str()).or_insert(Acc {
            samples: 0,
            known: 0,
            rel_err_sum: 0.0,
            rel_err_n: 0,
            max_ratio: 0.0,
            unsound: 0,
            bounded: 0,
            max_bound_ratio: 0.0,
            bound_unsound: 0,
        });
        acc.samples += 1;
        if let Some(bound) = obs.bound_bytes {
            acc.bounded += 1;
            if bound > 0 {
                let ratio = obs.actual_bytes as f64 / bound as f64;
                if ratio > acc.max_bound_ratio {
                    acc.max_bound_ratio = ratio;
                }
            }
            if obs.actual_bytes > bound {
                acc.bound_unsound += 1;
            }
        }
        let Some(predicted) = obs.predicted_bytes else {
            continue;
        };
        acc.known += 1;
        if obs.actual_bytes > 0 {
            let rel = (predicted as f64 - obs.actual_bytes as f64) / obs.actual_bytes as f64;
            acc.rel_err_sum += rel;
            acc.rel_err_n += 1;
        }
        if predicted > 0 {
            let ratio = obs.actual_bytes as f64 / predicted as f64;
            if ratio > acc.max_ratio {
                acc.max_ratio = ratio;
            }
        }
        if obs.actual_bytes > predicted {
            acc.unsound += 1;
        }
    }
    let per_opcode: Vec<OpcodeAudit> = by_op
        .into_iter()
        .map(|(opcode, acc)| OpcodeAudit {
            opcode: opcode.to_string(),
            samples: acc.samples,
            known_samples: acc.known,
            mean_rel_error: if acc.rel_err_n > 0 {
                acc.rel_err_sum / acc.rel_err_n as f64
            } else {
                0.0
            },
            max_actual_over_predicted: acc.max_ratio,
            unsound: acc.unsound,
            bounded_samples: acc.bounded,
            max_actual_over_bound: acc.max_bound_ratio,
            bound_unsound: acc.bound_unsound,
        })
        .collect();
    MemoryAuditReport {
        script: script.to_string(),
        rows,
        cols,
        cp_instructions,
        observations: observations.len() as u64,
        unsound_total: per_opcode.iter().map(|o| o.unsound).sum(),
        bounded_observations: per_opcode.iter().map(|o| o.bounded_samples).sum(),
        bound_unsound_total: per_opcode.iter().map(|o| o.bound_unsound).sum(),
        per_opcode,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_linreg_ds_records_observations() {
        let report = memory_soundness_audit(
            &reml_scripts::linreg_ds(),
            300,
            8,
            LabelKind::Regression,
            &[],
        );
        assert!(report.observations > 0);
        assert!(!report.per_opcode.is_empty());
        // Every known-size estimate must bound the actual footprint: the
        // executor computes exactly what the compiler predicted sizes for.
        assert_eq!(report.unsound_total, 0, "{report:?}");
        // The interval analysis must produce finite bounds for a
        // fully-known direct solve, and none may be violated.
        assert!(report.bounded_observations > 0, "{report:?}");
        assert_eq!(report.bound_unsound_total, 0, "{report:?}");
    }
}
