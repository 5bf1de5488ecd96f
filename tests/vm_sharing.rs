//! Shared matrices keep value semantics and per-name accounting.
//!
//! The buffer pool and the HDFS store hold `Arc<Matrix>`: a variable copy
//! (`assignvar`), a persistent read or write, an MR job's `tmp/` export
//! and an AM migration bind a second name to the *same* matrix instead of
//! copying it. These tests pin down what that must not change, on the
//! bytecode VM and on the reference tree walker:
//!
//! * the names really share one matrix (`Arc::ptr_eq`);
//! * rebinding one name leaves the other's value as it was;
//! * pool, HDFS and memory-observation bytes are the per-name sums a deep
//!   copy per name gave;
//! * the recompile hook reads a live variable's actual characteristics by
//!   name, and gets `None` for a scalar or an unbound name.

use std::sync::Arc;

use reml::matrix::{BinaryOp, DenseMatrix, Matrix, MatrixCharacteristics};
use reml::runtime::executor::{NoRecompile, RecompileHook};
use reml::runtime::instructions::{
    CpInstruction, Instruction, MrJobInstruction, MrLocation, MrOperator, OpCode,
};
use reml::runtime::{
    lower_program, BufferPool, Executor, HdfsStore, MemObservation, Operand, RtBlock,
    RuntimeProgram, ScalarValue, VmExecutor, VmLowerOptions,
};

const BUDGET: u64 = 1 << 30;

/// 10 x 4 dense doubles: 320 bytes.
const X_BYTES: u64 = 320;

fn x() -> Matrix {
    Matrix::constant(10, 4, 2.0)
}

fn cp(opcode: OpCode, operands: Vec<Operand>, output: Option<&str>) -> Instruction {
    Instruction::Cp(CpInstruction {
        opcode,
        operands,
        output: output.map(Into::into),
        operand_mcs: vec![],
        output_mc: MatrixCharacteristics::unknown(),
        bound_bytes: None,
    })
}

fn block(instructions: Vec<Instruction>, requires_recompile: bool) -> RtBlock {
    RtBlock::Generic {
        source: reml::lang::BlockId(0),
        instructions,
        requires_recompile,
    }
}

fn program(blocks: Vec<RtBlock>) -> RuntimeProgram {
    RuntimeProgram {
        blocks,
        ..Default::default()
    }
}

fn staged() -> HdfsStore {
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", x());
    hdfs
}

/// `X = read("X"); B = X; C = X; write(C, "out")`.
fn copies() -> RuntimeProgram {
    program(vec![block(
        vec![
            cp(
                OpCode::PersistentRead { path: "X".into() },
                vec![],
                Some("X"),
            ),
            cp(OpCode::Assign, vec![Operand::var("X")], Some("B")),
            cp(OpCode::Assign, vec![Operand::var("X")], Some("C")),
            cp(
                OpCode::PersistentWrite { path: "out".into() },
                vec![Operand::var("C")],
                None,
            ),
        ],
        false,
    )])
}

/// The handle an HDFS path holds, read from a clone of the store so the
/// store's own counters do not move.
fn file(hdfs: &HdfsStore, path: &str) -> Arc<Matrix> {
    hdfs.clone().read(path).expect("path exists")
}

fn var(pool: &BufferPool, name: &str) -> Arc<Matrix> {
    Arc::clone(pool.peek(name).expect("variable bound"))
}

fn run_vm(program: &RuntimeProgram, hdfs: HdfsStore) -> VmExecutor {
    let mut vm = VmExecutor::new(BUDGET, hdfs);
    vm.enable_memory_observation();
    vm.run(
        &lower_program(program, VmLowerOptions { fuse: false }),
        &mut NoRecompile,
    )
    .expect("vm runs");
    vm
}

fn run_tree(program: &RuntimeProgram, hdfs: HdfsStore) -> Executor {
    let mut tree = Executor::new(BUDGET, hdfs);
    tree.enable_memory_observation();
    tree.run(program, &mut NoRecompile)
        .expect("tree walker runs");
    tree
}

/// Every name the copies program binds shares the one staged matrix.
fn assert_one_matrix(pool: &BufferPool, hdfs: &HdfsStore) {
    let staged = file(hdfs, "X");
    for name in ["X", "B", "C"] {
        assert!(Arc::ptr_eq(&var(pool, name), &staged), "{name} is a copy");
    }
    assert!(Arc::ptr_eq(&file(hdfs, "out"), &staged), "pwrite copied");
}

/// Bytes as if every name held its own copy: three names of 320 bytes
/// resident, `B` the only dirty one (`X` was read, `C` written), one read
/// and one write of 320 bytes, and observations summing each touched
/// name's bytes.
fn assert_per_name_bytes(pool: &BufferPool, hdfs: &HdfsStore, observed: &[MemObservation]) {
    assert_eq!(pool.resident_bytes(), 3 * X_BYTES);
    assert_eq!(pool.dirty_bytes(), X_BYTES);
    assert_eq!(pool.clean_resident_bytes(), 2 * X_BYTES);
    let stats = hdfs.stats();
    assert_eq!((stats.reads, stats.bytes_read), (1, X_BYTES));
    assert_eq!((stats.writes, stats.bytes_written), (1, X_BYTES));
    let actual: Vec<(&str, u64)> = observed
        .iter()
        .map(|o| (o.opcode.as_str(), o.actual_bytes))
        .collect();
    assert_eq!(
        actual,
        [
            ("pread", X_BYTES),
            ("assignvar", 2 * X_BYTES),
            ("assignvar", 2 * X_BYTES),
            ("pwrite", X_BYTES),
        ]
    );
}

#[test]
fn copies_share_one_matrix_on_the_vm() {
    let mut vm = run_vm(&copies(), staged());
    assert_one_matrix(&vm.pool, &vm.hdfs);
    let observed = vm.take_memory_observations();
    assert_per_name_bytes(&vm.pool, &vm.hdfs, &observed);
}

#[test]
fn copies_share_one_matrix_on_the_tree_walker() {
    let mut tree = run_tree(&copies(), staged());
    assert_one_matrix(&tree.pool, &tree.hdfs);
    let observed = tree.take_memory_observations();
    assert_per_name_bytes(&tree.pool, &tree.hdfs, &observed);
}

/// `A = read("X"); B = A; A = A + 1`.
fn rebind_after_copy() -> RuntimeProgram {
    program(vec![block(
        vec![
            cp(
                OpCode::PersistentRead { path: "X".into() },
                vec![],
                Some("A"),
            ),
            cp(OpCode::Assign, vec![Operand::var("A")], Some("B")),
            cp(
                OpCode::BinaryMS(BinaryOp::Add),
                vec![Operand::var("A"), Operand::num(1.0)],
                Some("A"),
            ),
        ],
        false,
    )])
}

fn assert_copy_kept_its_value(pool: &BufferPool, hdfs: &HdfsStore) {
    let (a, b) = (var(pool, "A"), var(pool, "B"));
    assert_eq!(*b, x(), "B changed with A");
    assert_eq!(*a, x().binary_scalar(BinaryOp::Add, 1.0));
    assert!(!Arc::ptr_eq(&a, &b));
    assert!(Arc::ptr_eq(&b, &file(hdfs, "X")));
    assert_eq!(*file(hdfs, "X"), x(), "the staged input changed");
}

#[test]
fn rebinding_the_source_leaves_the_copy_on_the_vm() {
    let vm = run_vm(&rebind_after_copy(), staged());
    assert_copy_kept_its_value(&vm.pool, &vm.hdfs);
}

#[test]
fn rebinding_the_source_leaves_the_copy_on_the_tree_walker() {
    let tree = run_tree(&rebind_after_copy(), staged());
    assert_copy_kept_its_value(&tree.pool, &tree.hdfs);
}

/// An MR job computing `q = X %*% v` in-process and exporting `q` to
/// `tmp/q`.
fn mr_export() -> RuntimeProgram {
    let job = MrJobInstruction {
        hdfs_inputs: vec![("X".into(), MatrixCharacteristics::dense(10, 4))],
        broadcast_inputs: vec![("v".into(), MatrixCharacteristics::dense(4, 1))],
        mappers: vec![MrOperator {
            opcode: OpCode::MatMult,
            operands: vec![Operand::var("X"), Operand::var("v")],
            output: Some("q".into()),
            operand_mcs: vec![],
            output_mc: MatrixCharacteristics::dense(10, 1),
            location: MrLocation::Map,
            task_mem_mb: 0.0,
        }],
        reducers: vec![],
        outputs: vec![("q".into(), MatrixCharacteristics::dense(10, 1))],
        shuffle: vec![],
    };
    program(vec![block(
        vec![
            cp(
                OpCode::PersistentRead { path: "X".into() },
                vec![],
                Some("X"),
            ),
            cp(
                OpCode::DataGenConst,
                vec![Operand::num(1.0), Operand::num(4.0), Operand::num(1.0)],
                Some("v"),
            ),
            Instruction::MrJob(job),
        ],
        false,
    )])
}

fn assert_export_shared(pool: &BufferPool, hdfs: &HdfsStore) {
    let q = var(pool, "q");
    assert_eq!(*q, Matrix::constant(10, 1, 8.0));
    assert!(Arc::ptr_eq(&q, &file(hdfs, "tmp/q")), "tmp/ export copied");
    assert_eq!(pool.is_dirty("q"), Some(false));
    // The export is charged as a full write of q's 80 bytes.
    assert_eq!(hdfs.stats().bytes_written, 80);
}

#[test]
fn mr_export_shares_the_output_on_the_vm() {
    let vm = run_vm(&mr_export(), staged());
    assert_export_shared(&vm.pool, &vm.hdfs);
}

#[test]
fn mr_export_shares_the_output_on_the_tree_walker() {
    let tree = run_tree(&mr_export(), staged());
    assert_export_shared(&tree.pool, &tree.hdfs);
}

#[test]
fn migration_shares_each_dirty_matrix_with_its_export() {
    let mut vm = run_vm(&copies(), staged());
    let report = vm.migrate(2 * BUDGET);
    // Only B is dirty: X was read and C written, so both have an HDFS
    // representation already.
    assert_eq!(report.dirty_exported, 1);
    assert_eq!(report.dirty_bytes, X_BYTES);
    assert_eq!(report.variables, 3);
    assert!(Arc::ptr_eq(
        &var(&vm.pool, "B"),
        &file(&vm.hdfs, "am_state/B")
    ));
    assert!(!vm.hdfs.exists("am_state/X") && !vm.hdfs.exists("am_state/C"));
    // The export is charged per name, after the program's own write.
    assert_eq!(vm.hdfs.stats().bytes_written, 2 * X_BYTES);
    assert_eq!(vm.pool.resident_bytes(), 3 * X_BYTES);
}

/// A hook that asks for three names: a live matrix, a scalar, and a name
/// nothing binds; it keeps the plan.
#[derive(Default)]
struct Asking {
    answers: Vec<[Option<MatrixCharacteristics>; 3]>,
}

impl RecompileHook for Asking {
    fn recompile(
        &mut self,
        _source: reml::lang::BlockId,
        live_var: &dyn Fn(&str) -> Option<MatrixCharacteristics>,
    ) -> Option<Vec<Instruction>> {
        self.answers
            .push([live_var("M"), live_var("s"), live_var("nowhere")]);
        None
    }
}

/// `M = read("M"); s = 3` then a block marked for recompilation.
fn marked_block() -> (RuntimeProgram, HdfsStore, Matrix) {
    // Two zeros, so the non-zero count differs from the cell count.
    let m = Matrix::Dense(
        DenseMatrix::from_rows(&[&[1.0, 0.0, 3.0], &[0.0, 5.0, 6.0]]).expect("rectangular"),
    );
    let mut hdfs = HdfsStore::new();
    hdfs.stage("M", m.clone());
    let prog = program(vec![
        block(
            vec![
                cp(
                    OpCode::PersistentRead { path: "M".into() },
                    vec![],
                    Some("M"),
                ),
                cp(
                    OpCode::Assign,
                    vec![Operand::Lit(ScalarValue::Num(3.0))],
                    Some("s"),
                ),
            ],
            false,
        ),
        block(
            vec![cp(OpCode::Assign, vec![Operand::var("s")], Some("t"))],
            true,
        ),
    ]);
    (prog, hdfs, m)
}

fn assert_answers(hook: &Asking, m: &Matrix) {
    let expected = m.characteristics();
    assert_eq!(expected, MatrixCharacteristics::known(2, 3, 4));
    assert_eq!(hook.answers, [[Some(expected), None, None]]);
}

#[test]
fn hook_reads_live_sizes_by_name_on_the_vm() {
    let (prog, hdfs, m) = marked_block();
    let mut vm = VmExecutor::new(BUDGET, hdfs);
    let mut hook = Asking::default();
    vm.run(&lower_program(&prog, VmLowerOptions::default()), &mut hook)
        .expect("vm runs");
    assert_answers(&hook, &m);
    assert_eq!(vm.stats.recompilations, 0, "the hook kept the plan");
    assert_eq!(vm.scalar("t"), Some(ScalarValue::Num(3.0)));
}

#[test]
fn hook_reads_live_sizes_by_name_on_the_tree_walker() {
    let (prog, hdfs, m) = marked_block();
    let mut tree = Executor::new(BUDGET, hdfs);
    let mut hook = Asking::default();
    tree.run(&prog, &mut hook).expect("tree walker runs");
    assert_answers(&hook, &m);
    assert_eq!(tree.stats.recompilations, 0, "the hook kept the plan");
    assert_eq!(tree.scalars["t"], ScalarValue::Num(3.0));
}
