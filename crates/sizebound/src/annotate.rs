//! Stamp every CP instruction with its sound resident-byte bound.
//!
//! The executor's memory observer sums the *actual* buffer-pool sizes of
//! the distinct variables an instruction touches (operands + output);
//! the annotation mirrors that accounting exactly on the abstract side:
//! the bound of a CP instruction is the sum over its distinct touched
//! variables of each variable's worst-case bytes. `None` means no finite
//! bound could be proven — the audit treats those observations as
//! vacuously bounded rather than violations.

use reml_compiler::pipeline::{AnalyzedProgram, CompiledProgram};
use reml_compiler::{CompileConfig, CompileError};
use reml_runtime::instructions::{CpInstruction, Instruction};
use reml_runtime::program::{Predicate, RtBlock};

use crate::analysis::{analyze_bounds, AbsEnv, BlockBounds, ProgramBounds};
use crate::interval::{SizeBound, SCALAR_BYTES};

/// Analyze `compiled` and write the per-instruction byte bounds into its
/// runtime program. Returns the bounds for further consumers (lint,
/// optimizer pruning).
pub fn annotate(
    analyzed: &AnalyzedProgram,
    compiled: &mut CompiledProgram,
    config: &CompileConfig,
) -> Result<ProgramBounds, CompileError> {
    let bounds = analyze_bounds(analyzed, compiled, config)?;
    let mut blocks = std::mem::take(&mut compiled.runtime.blocks);
    annotate_blocks(&mut blocks, &bounds, config);
    compiled.runtime.blocks = blocks;
    debug_verify_lowering(&compiled.runtime);
    Ok(bounds)
}

/// Debug builds: lower the freshly annotated program and run the PL040
/// bytecode verifier over it, which (via PL047) proves the stamped
/// `bound_bytes` survive lowering intact — each CP instruction's
/// `ObserveMeta::bound_bytes` must equal the bound written here.
#[cfg(debug_assertions)]
fn debug_verify_lowering(runtime: &reml_runtime::program::RuntimeProgram) {
    reml_planlint::install_vm_verifier();
    let vm = runtime.lower_vm(reml_runtime::vm::VmLowerOptions { fuse: true });
    let report = reml_planlint::lint_vm(runtime, &vm);
    assert!(
        report.is_empty(),
        "bytecode lint failed after sizebound annotation:\n{}",
        report.render()
    );
}

#[cfg(not(debug_assertions))]
fn debug_verify_lowering(_runtime: &reml_runtime::program::RuntimeProgram) {}

fn annotate_blocks(blocks: &mut [RtBlock], bounds: &ProgramBounds, config: &CompileConfig) {
    for block in blocks {
        match block {
            RtBlock::Generic {
                source,
                instructions,
                ..
            } => {
                if let Some(bb) = bounds.blocks.get(&source.0) {
                    for instr in instructions {
                        if let Instruction::Cp(cp) = instr {
                            cp.bound_bytes = cp_bound(cp, bb, config);
                        }
                    }
                }
            }
            RtBlock::If {
                source,
                pred,
                then_blocks,
                else_blocks,
            } => {
                annotate_pred(pred, bounds.pred_envs.get(&source.0), config);
                annotate_blocks(then_blocks, bounds, config);
                annotate_blocks(else_blocks, bounds, config);
            }
            RtBlock::While {
                source, pred, body, ..
            } => {
                annotate_pred(pred, bounds.pred_envs.get(&source.0), config);
                annotate_blocks(body, bounds, config);
            }
            RtBlock::For {
                source,
                from,
                to,
                body,
                ..
            } => {
                let env = bounds.pred_envs.get(&source.0);
                annotate_pred(from, env, config);
                annotate_pred(to, env, config);
                annotate_blocks(body, bounds, config);
            }
        }
    }
}

/// Distinct variable names an instruction touches, mirroring the
/// executor's observation accounting (operand vars + output, deduped).
fn touched_vars(cp: &CpInstruction) -> Vec<&str> {
    let mut names: Vec<&str> = cp.operands.iter().filter_map(|o| o.as_var()).collect();
    if let Some(out) = &cp.output {
        names.push(out);
    }
    names.sort_unstable();
    names.dedup();
    names
}

/// Bound of one generic-block CP instruction: the sum over touched
/// variables, `None` as soon as any variable is unbounded.
fn cp_bound(cp: &CpInstruction, bb: &BlockBounds, config: &CompileConfig) -> Option<u64> {
    let mut total = 0u64;
    for name in touched_vars(cp) {
        total = total.saturating_add(var_bytes(name, bb, config)?);
    }
    Some(total)
}

fn var_bytes(name: &str, bb: &BlockBounds, config: &CompileConfig) -> Option<u64> {
    // Intermediates index straight into the hop bounds.
    if let Some(idx) = name
        .strip_prefix("_mVar")
        .and_then(|s| s.parse::<usize>().ok())
    {
        return bb.hops.get(idx)?.bytes_hi();
    }
    if name.starts_with("__pred") {
        return Some(SCALAR_BYTES);
    }
    // Named variables: anything the executor may hold under this name
    // while the block runs — the entry value or any in-block write.
    let entry = bb.entry.get(name);
    let written = bb.writes.get(name);
    match (entry, written) {
        (Some(e), Some(w)) => e.join(w).bytes_hi(),
        (Some(e), None) => e.bytes_hi(),
        (None, Some(w)) => w.bytes_hi(),
        // Persistent-input paths resolve through the config metadata.
        (None, None) => config.inputs.get(name).map(SizeBound::from_mc)?.bytes_hi(),
    }
}

/// Bound predicate instructions from the recorded predicate environment.
/// Predicate temporaries have no rebuilt DAG; their compile-time
/// characteristics are scalar for every supported predicate shape, and
/// scalar-sized temporaries get the constant scalar bound (1×1
/// dimensions compiled under the relaxed loop environment are
/// iteration-stable). Matrix-sized predicate temporaries stay unbounded.
fn annotate_pred(pred: &mut Predicate, env: Option<&AbsEnv>, config: &CompileConfig) {
    for instr in &mut pred.instructions {
        if let Instruction::Cp(cp) = instr {
            cp.bound_bytes = pred_bound(cp, env, config);
        }
    }
}

fn pred_bound(cp: &CpInstruction, env: Option<&AbsEnv>, config: &CompileConfig) -> Option<u64> {
    let mut total = 0u64;
    for name in touched_vars(cp) {
        let bytes = if let Some(bound) = env.and_then(|e| e.get(name)) {
            bound.bytes_hi()?
        } else if let Some(mc) = config.inputs.get(name) {
            SizeBound::from_mc(mc).bytes_hi()?
        } else if name.starts_with("__pred") {
            SCALAR_BYTES
        } else {
            // A predicate-local temporary: find its compile-time
            // characteristics on this instruction.
            let mc = if cp.output.as_deref() == Some(name) {
                Some(&cp.output_mc)
            } else {
                cp.operands
                    .iter()
                    .position(|o| o.as_var() == Some(name))
                    .and_then(|i| cp.operand_mcs.get(i))
            };
            match mc {
                Some(mc) if mc.is_scalar() => SCALAR_BYTES,
                _ => return None,
            }
        };
        total = total.saturating_add(bytes);
    }
    Some(total)
}
