//! An operand whose dense size saturates `u64` (more than 2⁶¹ cells, e.g.
//! a 2³¹×2³¹ `solve` input) has no operand-size sum. The runtime, the
//! calibrated cost model and the bytecode verifier must all agree on
//! that: the runtime predicts `None`, a calibrated costing falls back to
//! the analytic estimate instead of overflowing, and planlint's
//! independent recomputation reports no PL047 mismatch.

use std::collections::BTreeMap;
use std::sync::Arc;

use reml::cluster::ClusterConfig;
use reml::cost::{CalibrationProfile, CostModel, OpcodeCalibration, TimeModel, VarStates};
use reml::lang::BlockId;
use reml::matrix::MatrixCharacteristics;
use reml::planlint::lint_vm;
use reml::runtime::instructions::{CpInstruction, Instruction, OpCode};
use reml::runtime::program::{RtBlock, RuntimeProgram};
use reml::runtime::vm::VmLowerOptions;
use reml::runtime::Operand;

#[test]
fn saturated_operand_size_has_no_prediction_anywhere() {
    let n = 1u64 << 31;
    let cp = CpInstruction {
        opcode: OpCode::Solve,
        operands: vec![Operand::Var("A".into()), Operand::Var("b".into())],
        output: Some("x".into()),
        operand_mcs: vec![
            MatrixCharacteristics::dense(n, n),
            MatrixCharacteristics::dense(n, 1),
        ],
        output_mc: MatrixCharacteristics::dense(n, 1),
        bound_bytes: None,
    };
    assert_eq!(cp.operand_mcs[0].dense_size_bytes(), Some(u64::MAX));
    assert_eq!(cp.predicted_bytes(), None);

    // A calibrated costing of the instruction prices it without
    // overflowing (the affine model needs bytes, so it degrades to the
    // analytic estimate).
    let cluster = ClusterConfig::paper_cluster();
    let affine = OpcodeCalibration {
        time: TimeModel::Affine {
            flops_s: 1e-9,
            bytes_s: 1e-9,
            base_s: 0.0,
        },
        bytes_factor: 1.0,
        samples: 100,
    };
    let profile = CalibrationProfile {
        fitted_peak_flops: cluster.peak_flops,
        opcodes: BTreeMap::from([(OpCode::Solve.mnemonic(), affine)]),
    };
    let instructions = [Instruction::Cp(cp.clone())];
    let analytic = CostModel::new(cluster.clone()).cost_instructions(
        &instructions,
        1 << 20,
        1024,
        &mut VarStates::new(),
    );
    let calibrated = CostModel::new(cluster)
        .with_calibration(Arc::new(profile))
        .cost_instructions(&instructions, 1 << 20, 1024, &mut VarStates::new());
    assert_eq!(calibrated.compute_s, analytic.compute_s);

    // The lowered instruction carries the same `None`, and the verifier's
    // own recomputation agrees with it.
    let runtime = RuntimeProgram {
        blocks: vec![RtBlock::Generic {
            source: BlockId(0),
            instructions: instructions.to_vec(),
            requires_recompile: false,
        }],
        ..Default::default()
    };
    let vm = runtime.lower_vm(VmLowerOptions { fuse: true });
    assert!(vm.metas.iter().all(|m| m
        .observe
        .as_ref()
        .is_some_and(|o| o.predicted_bytes.is_none())));
    let report = lint_vm(&runtime, &vm);
    assert!(!report.rules().contains(&"PL047"), "{}", report.render());
}
