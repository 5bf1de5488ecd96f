//! Rule-level tests: deliberately broken fixtures must yield exactly the
//! expected diagnostics, and a real compiled script must lint clean.

use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, compile};
use reml_compiler::{Hop, HopDag, HopId, HopOp, MrHeapAssignment, VType};
use reml_matrix::MatrixCharacteristics;
use reml_planlint::{
    lint_artifacts, lint_compiled, lint_hop_dag, lint_mr_job, rule_severity, Diagnostic,
    LintReport, Severity,
};
use reml_runtime::instructions::{
    CpInstruction, Instruction, MrJobInstruction, MrLocation, MrOperator, OpCode,
};
use reml_runtime::Operand;
use reml_scripts::{DataShape, Scenario};

fn dense(r: u64, c: u64) -> MatrixCharacteristics {
    MatrixCharacteristics::dense(r, c)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    LintReport::from_diagnostics(diags.to_vec()).rules()
}

/// The acceptance fixture: a HOP edge with mismatched inner dimensions
/// plus an over-budget MR-capable operator kept in CP must yield exactly
/// PL001 and PL010.
#[test]
fn broken_plan_yields_expected_diagnostics() {
    let mut dag = HopDag::new();
    let x = dag.add(
        HopOp::TRead("X".into()),
        vec![],
        VType::Matrix,
        dense(3000, 3000),
    );
    let y = dag.add(
        HopOp::TRead("Y".into()),
        vec![],
        VType::Matrix,
        dense(2900, 3000),
    );
    // Mismatched edge: X has 3000 columns, Y has 2900 rows.
    let mm_mc = dag.hop(x).mc.matmult(&dag.hop(y).mc);
    let mm = dag.add(HopOp::MatMult, vec![x, y], VType::Matrix, mm_mc);
    dag.add(HopOp::TWrite("out".into()), vec![mm], VType::Matrix, mm_mc);
    reml_compiler::memest::estimate_dag(&mut dag);
    assert!(dag.hop(mm).mem_mb > 10.0, "fixture must be over-budget");

    // The lowered artifact keeps the ~200 MB matmult in CP under a 10 MB
    // budget — unsound (PL010).
    let instructions = vec![Instruction::Cp(CpInstruction {
        opcode: OpCode::MatMult,
        operands: vec![Operand::var("X"), Operand::var("Y")],
        output: Some(format!("_mVar{}", mm.0).into()),
        operand_mcs: vec![dag.hop(x).mc, dag.hop(y).mc],
        output_mc: mm_mc,
        bound_bytes: None,
    })];
    let diags = lint_artifacts(&dag, &instructions, 10.0, 10.0, "block 0");
    assert_eq!(
        rules_of(&diags),
        vec!["PL001", "PL010"],
        "unexpected diagnostics:\n{}",
        LintReport::from_diagnostics(diags.clone()).render()
    );
    assert_eq!(rule_severity("PL001"), Severity::Error);
    assert_eq!(rule_severity("PL010"), Severity::Error);
}

#[test]
fn hop_cycle_is_detected() {
    let mut dag = HopDag::new();
    // Two transposes referencing each other: 0 -> 1 -> 0.
    dag.hops.push(Hop {
        op: HopOp::Transpose,
        inputs: vec![HopId(1)],
        vtype: VType::Matrix,
        mc: dense(10, 10),
        mem_mb: 0.0,
    });
    dag.hops.push(Hop {
        op: HopOp::Transpose,
        inputs: vec![HopId(0)],
        vtype: VType::Matrix,
        mc: dense(10, 10),
        mem_mb: 0.0,
    });
    reml_compiler::memest::estimate_dag(&mut dag);
    let diags = lint_hop_dag(&dag, "block 0");
    assert_eq!(rules_of(&diags), vec!["PL004"]);
}

#[test]
fn dangling_reference_is_detected() {
    let mut dag = HopDag::new();
    dag.hops.push(Hop {
        op: HopOp::Transpose,
        inputs: vec![HopId(7)],
        vtype: VType::Matrix,
        mc: dense(10, 10),
        mem_mb: 0.0,
    });
    let diags = lint_hop_dag(&dag, "block 0");
    assert_eq!(rules_of(&diags), vec!["PL003"]);
}

#[test]
fn type_mismatch_is_detected() {
    let mut dag = HopDag::new();
    let s = dag.add(HopOp::LitNum(2.0), vec![], VType::Scalar, dense(1, 1));
    let x = dag.add(
        HopOp::TRead("X".into()),
        vec![],
        VType::Matrix,
        dense(10, 10),
    );
    // Matrix multiply with a scalar operand: a typing violation.
    let mm = dag.add(HopOp::MatMult, vec![x, s], VType::Matrix, dense(10, 10));
    dag.add(
        HopOp::TWrite("out".into()),
        vec![mm],
        VType::Matrix,
        dense(10, 10),
    );
    reml_compiler::memest::estimate_dag(&mut dag);
    let diags = lint_hop_dag(&dag, "block 0");
    assert!(rules_of(&diags).contains(&"PL002"));
}

fn mr_op(opcode: OpCode, operands: Vec<Operand>, output: &str, location: MrLocation) -> MrOperator {
    MrOperator {
        opcode,
        operands,
        output: Some(output.into()),
        operand_mcs: vec![],
        output_mc: dense(10, 10),
        location,
        task_mem_mb: 0.0,
    }
}

fn empty_job() -> MrJobInstruction {
    MrJobInstruction {
        hdfs_inputs: vec![],
        broadcast_inputs: vec![],
        mappers: vec![],
        reducers: vec![],
        outputs: vec![],
        shuffle: vec![],
    }
}

#[test]
fn oversized_broadcast_in_packed_job_is_illegal() {
    let mut job = empty_job();
    // ~763 MB broadcast against a 10 MB task budget.
    job.broadcast_inputs = vec![("v".into(), dense(100_000, 1000))];
    job.mappers = vec![
        mr_op(
            OpCode::MatMult,
            vec![Operand::var("X"), Operand::var("v")],
            "a",
            MrLocation::Map,
        ),
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("a")],
            "b",
            MrLocation::Map,
        ),
    ];
    job.outputs = vec![("b".into(), dense(10, 10))];
    let diags = lint_mr_job(&job, 10.0, "job");
    assert_eq!(rules_of(&diags), vec!["PL011"]);

    // A single-operator job may exceed the budget: the operator has to be
    // schedulable somewhere.
    job.mappers.truncate(1);
    job.outputs = vec![("a".into(), dense(10, 10))];
    let diags = lint_mr_job(&job, 10.0, "job");
    assert!(diags.is_empty(), "{:?}", diags);
}

#[test]
fn broadcast_produced_in_job_is_illegal() {
    let mut job = empty_job();
    job.broadcast_inputs = vec![("a".into(), dense(10, 1))];
    job.mappers = vec![
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("X")],
            "a",
            MrLocation::Map,
        ),
        mr_op(
            OpCode::MatMult,
            vec![Operand::var("X"), Operand::var("a")],
            "b",
            MrLocation::Map,
        ),
    ];
    job.outputs = vec![("b".into(), dense(10, 10))];
    let diags = lint_mr_job(&job, 1000.0, "job");
    assert_eq!(rules_of(&diags), vec!["PL012"]);
}

#[test]
fn mapper_consuming_reduce_output_is_illegal() {
    let mut job = empty_job();
    job.hdfs_inputs = vec![("X".into(), dense(10, 10))];
    job.mappers = vec![mr_op(
        OpCode::Transpose,
        vec![Operand::var("r")],
        "a",
        MrLocation::Map,
    )];
    job.reducers = vec![mr_op(
        OpCode::Agg(reml_matrix::AggOp::Sum),
        vec![Operand::var("X")],
        "r",
        MrLocation::Reduce,
    )];
    job.outputs = vec![("a".into(), dense(10, 10)), ("r".into(), dense(1, 1))];
    job.shuffle = vec![dense(10, 10)];
    let diags = lint_mr_job(&job, 1000.0, "job");
    assert_eq!(rules_of(&diags), vec!["PL013"]);
}

#[test]
fn job_structure_violations_are_detected() {
    // Shuffle without a reduce phase.
    let mut job = empty_job();
    job.mappers = vec![mr_op(
        OpCode::Transpose,
        vec![Operand::var("X")],
        "a",
        MrLocation::Map,
    )];
    job.outputs = vec![("a".into(), dense(10, 10))];
    job.shuffle = vec![dense(10, 10)];
    assert_eq!(rules_of(&lint_mr_job(&job, 1000.0, "job")), vec!["PL014"]);

    // Job output not produced by any packed operator.
    let mut job = empty_job();
    job.mappers = vec![mr_op(
        OpCode::Transpose,
        vec![Operand::var("X")],
        "a",
        MrLocation::Map,
    )];
    job.outputs = vec![("ghost".into(), dense(10, 10))];
    assert_eq!(rules_of(&lint_mr_job(&job, 1000.0, "job")), vec!["PL014"]);

    // Operator packed into the map phase but tagged Reduce.
    let mut job = empty_job();
    job.mappers = vec![mr_op(
        OpCode::Transpose,
        vec![Operand::var("X")],
        "a",
        MrLocation::Reduce,
    )];
    job.outputs = vec![("a".into(), dense(10, 10))];
    assert_eq!(rules_of(&lint_mr_job(&job, 1000.0, "job")), vec!["PL014"]);
}

#[test]
fn in_job_dataflow_order_is_enforced() {
    // Consumer packed before its producer within the map phase.
    let mut job = empty_job();
    job.mappers = vec![
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("a")],
            "b",
            MrLocation::Map,
        ),
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("X")],
            "a",
            MrLocation::Map,
        ),
    ];
    job.outputs = vec![("b".into(), dense(10, 10))];
    assert_eq!(rules_of(&lint_mr_job(&job, 1000.0, "job")), vec!["PL015"]);

    // HDFS input claimed for a value produced inside the job.
    let mut job = empty_job();
    job.hdfs_inputs = vec![("a".into(), dense(10, 10))];
    job.mappers = vec![
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("X")],
            "a",
            MrLocation::Map,
        ),
        mr_op(
            OpCode::Transpose,
            vec![Operand::var("a")],
            "b",
            MrLocation::Map,
        ),
    ];
    job.outputs = vec![("b".into(), dense(10, 10))];
    assert_eq!(rules_of(&lint_mr_job(&job, 1000.0, "job")), vec!["PL015"]);
}

#[test]
fn compiled_linreg_ds_lints_clean() {
    let script = reml_scripts::linreg_ds();
    let shape = DataShape {
        scenario: Scenario::XS,
        cols: 100,
        sparsity: 1.0,
    };
    let cfg = script.compile_config(
        shape,
        ClusterConfig::paper_cluster(),
        4096,
        MrHeapAssignment::uniform(1024),
    );
    let analyzed = analyze_program(&script.source).unwrap();
    let compiled = compile(&analyzed, &cfg).unwrap();
    let report = lint_compiled(&analyzed, &compiled, &cfg);
    assert!(report.is_empty(), "{}", report.render());
}

#[test]
fn diagnostics_serialize_for_ci_diffing() {
    let d = Diagnostic::new("PL010", "block 0/instr 1", "over budget");
    let json = serde_json::to_string(&LintReport::from_diagnostics(vec![d])).unwrap();
    assert!(json.contains("PL010"), "{json}");
    assert!(json.contains("error"), "{json}");
}
