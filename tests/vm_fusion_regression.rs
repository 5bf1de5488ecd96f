//! Regression test for the per-list use-count fusion fix: temp names
//! (`_mVar…`) are allocated per statement block, so the same name can
//! recur in different blocks. The fusion pass must count uses per
//! instruction list, not globally — under global counting a recycled
//! intermediate looks multiply-used and both chains silently stay
//! unfused.

use reml::lang::BlockId;
use reml::matrix::{BinaryOp, MatrixCharacteristics};
use reml::planlint::lint_vm;
use reml::runtime::instructions::{CpInstruction, Instruction, OpCode};
use reml::runtime::program::{RtBlock, RuntimeProgram};
use reml::runtime::vm::VmLowerOptions;
use reml::runtime::Operand;

const ROWS: u64 = 4;
const COLS: u64 = 3;

fn mm(op: BinaryOp, a: &str, b: &str, out: &str) -> Instruction {
    let mc = MatrixCharacteristics::dense(ROWS, COLS);
    Instruction::Cp(CpInstruction {
        opcode: OpCode::BinaryMM(op),
        operands: vec![Operand::var(a), Operand::var(b)],
        output: Some(out.into()),
        operand_mcs: vec![mc, mc],
        output_mc: mc,
        bound_bytes: None,
    })
}

fn ms(op: BinaryOp, a: &str, lit: f64, out: &str) -> Instruction {
    let mc = MatrixCharacteristics::dense(ROWS, COLS);
    Instruction::Cp(CpInstruction {
        opcode: OpCode::BinaryMS(op),
        operands: vec![Operand::var(a), Operand::num(lit)],
        output: Some(out.into()),
        operand_mcs: vec![mc, MatrixCharacteristics::scalar()],
        output_mc: mc,
        bound_bytes: None,
    })
}

/// Two straight-line blocks, each holding an elementwise chain whose
/// single-use intermediate carries the *same* recycled temp name.
fn recycled_temp_program() -> RuntimeProgram {
    RuntimeProgram {
        blocks: vec![
            RtBlock::Generic {
                source: BlockId(0),
                instructions: vec![
                    mm(BinaryOp::Mul, "X", "Y", "_mVar1"),
                    ms(BinaryOp::Add, "_mVar1", 2.0, "R1"),
                ],
                requires_recompile: false,
            },
            RtBlock::Generic {
                source: BlockId(1),
                instructions: vec![
                    mm(BinaryOp::Add, "X", "Y", "_mVar1"),
                    ms(BinaryOp::Mul, "_mVar1", 3.0, "R2"),
                ],
                requires_recompile: false,
            },
        ],
        params: vec![],
        inputs: vec![],
    }
}

#[test]
fn recycled_temp_names_fuse_as_independent_groups() {
    let program = recycled_temp_program();
    let vm = program.lower_vm(VmLowerOptions { fuse: true });
    assert_eq!(
        vm.stats.fused_groups, 2,
        "each block's chain must fuse independently; global use counting \
         would see _mVar1 twice and fuse neither"
    );
    assert_eq!(vm.stats.fused_ops_eliminated, 2);
    let report = lint_vm(&program, &vm);
    assert!(
        report.is_empty(),
        "fused lowering of recycled-temp program must lint clean:\n{}",
        report.render()
    );
}

#[test]
fn recycled_temp_names_lower_unfused_clean() {
    let program = recycled_temp_program();
    let vm = program.lower_vm(VmLowerOptions { fuse: false });
    assert_eq!(vm.stats.fused_groups, 0);
    let report = lint_vm(&program, &vm);
    assert!(
        report.is_empty(),
        "unfused lowering of recycled-temp program must lint clean:\n{}",
        report.render()
    );
}

/// The same recycling inside if/else arms: the two chains live in
/// different instruction lists of the same block tree.
#[test]
fn recycled_temps_in_branch_arms_fuse() {
    let pred = reml::runtime::program::Predicate {
        instructions: vec![Instruction::Cp(CpInstruction {
            opcode: OpCode::Assign,
            operands: vec![Operand::num(1.0)],
            output: Some("__pred0".into()),
            operand_mcs: vec![MatrixCharacteristics::scalar()],
            output_mc: MatrixCharacteristics::scalar(),
            bound_bytes: None,
        })],
        result_var: "__pred0".to_string(),
    };
    let program = RuntimeProgram {
        blocks: vec![RtBlock::If {
            source: BlockId(0),
            pred,
            then_blocks: vec![RtBlock::Generic {
                source: BlockId(1),
                instructions: vec![
                    mm(BinaryOp::Mul, "X", "Y", "_mVar1"),
                    ms(BinaryOp::Add, "_mVar1", 2.0, "R1"),
                ],
                requires_recompile: false,
            }],
            else_blocks: vec![RtBlock::Generic {
                source: BlockId(2),
                instructions: vec![
                    mm(BinaryOp::Sub, "X", "Y", "_mVar1"),
                    ms(BinaryOp::Div, "_mVar1", 3.0, "R2"),
                ],
                requires_recompile: false,
            }],
        }],
        params: vec![],
        inputs: vec![],
    };
    let vm = program.lower_vm(VmLowerOptions { fuse: true });
    assert_eq!(vm.stats.fused_groups, 2);
    let report = lint_vm(&program, &vm);
    assert!(
        report.is_empty(),
        "branch-arm recycled temps must lint clean:\n{}",
        report.render()
    );
}
