//! Peephole fusion planning.
//!
//! Scans straight-line instruction lists for linear chains of fusible
//! elementwise operations (`X*Y+Z`, `exp(X-M)`, ...) whose intermediates
//! are single-use compiler temporaries, and groups them so the lowering
//! emits one fused instruction with a single output allocation.
//!
//! A chain extends from instruction `k` to `k+1` only when *every* use of
//! `k`'s output occurs in `k+1`'s matrix positions — so eliding the
//! intermediate is unobservable. Uses are counted per straight-line
//! instruction list, not per program: the compiler numbers temporaries
//! fresh for each lowered DAG (so the same `_mVar` name recurs across
//! blocks naming unrelated values), and a temporary never escapes its
//! block — any value that outlives the DAG is copied to a named variable
//! by an `assignvar` in the same list. `rmvar` references are excluded
//! from the use count: removing a variable that was never materialized is
//! a no-op.

use std::ops::Range;

use crate::hash::FxHashMap;
use crate::instructions::{CpInstruction, Instruction, OpCode, TEMP_PREFIX};
use crate::value::Operand;

/// One lowering unit: a lone instruction or a fusible chain of indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Group {
    /// Lower instruction `i` as-is.
    Single(usize),
    /// Lower this run of consecutive indices as one fused instruction.
    Chain(Range<usize>),
}

/// Operand positions holding matrices, per fusible opcode.
fn matrix_positions(op: &OpCode) -> &'static [usize] {
    match op {
        OpCode::BinaryMM(_) => &[0, 1],
        OpCode::BinaryMS(_) => &[0],
        OpCode::BinarySM(_) => &[1],
        OpCode::UnaryM(_) => &[0],
        _ => &[],
    }
}

/// If `cp` is fusible, its compile-time shape `(rows, cols)`: opcode
/// elementwise, output present, output dims known with at least one cell,
/// and every matrix operand's compile-time dims equal to the output dims
/// (which rules out vector broadcast and the runtime 1×1-degrade path).
fn fusible_shape(cp: &CpInstruction) -> Option<(usize, usize)> {
    if !cp.opcode.is_fusible_elementwise() || cp.output.is_none() {
        return None;
    }
    let rows = cp.output_mc.rows?;
    let cols = cp.output_mc.cols?;
    if rows == 0 || cols == 0 {
        return None;
    }
    for &p in matrix_positions(&cp.opcode) {
        let mc = cp.operand_mcs.get(p)?;
        if mc.rows != Some(rows) || mc.cols != Some(cols) {
            return None;
        }
    }
    Some((rows as usize, cols as usize))
}

fn as_cp(instr: &Instruction) -> Option<&CpInstruction> {
    match instr {
        Instruction::Cp(cp) => Some(cp),
        Instruction::MrJob(_) => None,
    }
}

/// Whether the chain may extend from `prev` into `next`: `prev`'s output
/// is a single-shape temporary consumed *only* by `next`'s matrix
/// positions (a scalar-position or later reference in the same list shows
/// up as an extra use and vetoes the link).
fn links(prev: &CpInstruction, next: &CpInstruction, use_counts: &FxHashMap<&str, usize>) -> bool {
    let Some(out) = prev.output.as_deref() else {
        return false;
    };
    if !out.starts_with(TEMP_PREFIX) {
        return false;
    }
    let matrix_uses = matrix_positions(&next.opcode)
        .iter()
        .filter(|&&p| next.operands.get(p).and_then(Operand::as_var) == Some(out))
        .count();
    matrix_uses >= 1 && use_counts.get(out) == Some(&matrix_uses)
}

/// Plan fusion over one straight-line instruction list.
pub(crate) fn plan_fusion(
    instrs: &[Instruction],
    use_counts: &FxHashMap<&str, usize>,
) -> Vec<Group> {
    let mut groups = Vec::with_capacity(instrs.len());
    let mut i = 0;
    while i < instrs.len() {
        let mut end = i + 1;
        if let Some(cp) = as_cp(&instrs[i]) {
            if let Some(shape) = fusible_shape(cp) {
                let mut prev = cp;
                while let Some(next) = instrs.get(end).and_then(as_cp) {
                    if fusible_shape(next) != Some(shape) || !links(prev, next, use_counts) {
                        break;
                    }
                    end += 1;
                    prev = next;
                }
            }
        }
        groups.push(if end - i >= 2 {
            Group::Chain(i..end)
        } else {
            Group::Single(i)
        });
        i = end;
    }
    groups
}

/// Count every read of each variable within one straight-line
/// instruction list: CP operands (excluding `rmvar`, which is a no-op on
/// absent variables) and MR-job inputs/outputs. Writes do not count.
pub(crate) fn use_counts_for(instrs: &[Instruction]) -> FxHashMap<&str, usize> {
    let mut counts = FxHashMap::with_capacity_and_hasher(2 * instrs.len(), Default::default());
    for instr in instrs {
        count_instruction(instr, &mut counts);
    }
    counts
}

fn count_instruction<'a>(instr: &'a Instruction, counts: &mut FxHashMap<&'a str, usize>) {
    match instr {
        Instruction::Cp(cp) => {
            if cp.opcode == OpCode::RmVar {
                return;
            }
            for op in &cp.operands {
                if let Operand::Var(name) = op {
                    bump(counts, name);
                }
            }
        }
        Instruction::MrJob(job) => {
            for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                bump(counts, name);
            }
            for mr in job.mappers.iter().chain(&job.reducers) {
                for op in &mr.operands {
                    if let Operand::Var(name) = op {
                        bump(counts, name);
                    }
                }
            }
            for (name, _) in &job.outputs {
                bump(counts, name);
            }
        }
    }
}

fn bump<'a>(counts: &mut FxHashMap<&'a str, usize>, name: &'a str) {
    *counts.entry(name).or_insert(0) += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_matrix::{BinaryOp, MatrixCharacteristics, UnaryOp};

    fn mm(a: &str, b: &str, out: &str, r: u64, c: u64) -> Instruction {
        Instruction::Cp(CpInstruction {
            opcode: OpCode::BinaryMM(BinaryOp::Mul),
            operands: vec![Operand::var(a), Operand::var(b)],
            output: Some(out.into()),
            operand_mcs: vec![
                MatrixCharacteristics::dense(r, c),
                MatrixCharacteristics::dense(r, c),
            ],
            output_mc: MatrixCharacteristics::dense(r, c),
            bound_bytes: None,
        })
    }

    fn un(a: &str, out: &str, r: u64, c: u64) -> Instruction {
        Instruction::Cp(CpInstruction {
            opcode: OpCode::UnaryM(UnaryOp::Exp),
            operands: vec![Operand::var(a)],
            output: Some(out.into()),
            operand_mcs: vec![MatrixCharacteristics::dense(r, c)],
            output_mc: MatrixCharacteristics::dense(r, c),
            bound_bytes: None,
        })
    }

    #[test]
    fn single_use_temp_chains() {
        let instrs = vec![mm("X", "Y", "_mVar1", 4, 4), un("_mVar1", "Z", 4, 4)];
        let counts = use_counts_for(&instrs);
        assert_eq!(plan_fusion(&instrs, &counts), vec![Group::Chain(0..2)]);
    }

    #[test]
    fn multi_use_temp_does_not_chain() {
        let instrs = vec![
            mm("X", "Y", "_mVar1", 4, 4),
            un("_mVar1", "Z", 4, 4),
            un("_mVar1", "W", 4, 4),
        ];
        let counts = use_counts_for(&instrs);
        assert_eq!(
            plan_fusion(&instrs, &counts),
            vec![Group::Single(0), Group::Single(1), Group::Single(2)]
        );
    }

    #[test]
    fn named_intermediate_does_not_chain() {
        let instrs = vec![mm("X", "Y", "P", 4, 4), un("P", "Z", 4, 4)];
        let counts = use_counts_for(&instrs);
        assert_eq!(
            plan_fusion(&instrs, &counts),
            vec![Group::Single(0), Group::Single(1)]
        );
    }

    #[test]
    fn shape_mismatch_breaks_chain() {
        let instrs = vec![mm("X", "Y", "_mVar1", 4, 4), un("_mVar1", "Z", 4, 5)];
        let counts = use_counts_for(&instrs);
        assert_eq!(
            plan_fusion(&instrs, &counts),
            vec![Group::Single(0), Group::Single(1)]
        );
    }

    #[test]
    fn three_step_chain() {
        let instrs = vec![
            mm("X", "Y", "_mVar1", 8, 2),
            mm("_mVar1", "Z", "_mVar2", 8, 2),
            un("_mVar2", "out", 8, 2),
        ];
        let counts = use_counts_for(&instrs);
        assert_eq!(plan_fusion(&instrs, &counts), vec![Group::Chain(0..3)]);
    }
}
