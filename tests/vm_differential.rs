//! Differential oracle: the bytecode VM must be bit-identical to the
//! reference tree walker on all five paper scripts, on one program that
//! executes every opcode, and on the inputs that must fail typed.
//!
//! Each program runs three ways — tree walker, VM without fusion,
//! VM with fusion — on the same generated dataset, and every observable
//! is compared: printed output, final scalar variables (f64 compared by
//! bit pattern), live pool matrices (representation, dims, nnz, and the
//! dense view compared bitwise), HDFS contents, and `ExecStats`. Pool
//! contents are compared excluding compiler temporaries (`_mVar*`):
//! under fusion those intermediates are legitimately never materialized.
//! The unfused VM also records the tree walker's memory observations row
//! for row; a fused chain records none.

use std::collections::{BTreeMap, BTreeSet};

use reml::matrix::{BinaryOp, DenseMatrix, MatrixError};
use reml::prelude::*;
use reml::runtime::executor::{ExecError, NoRecompile};
use reml::runtime::instructions::{CpInstruction, Instruction, OpCode, TEMP_PREFIX};
use reml::runtime::vm::lower::VmLowerOptions;
use reml::runtime::vm::FusedOpKind;
use reml::runtime::{
    Executor, HdfsStore, MemObservation, Operand, RtBlock, RuntimeProgram, ScalarValue, VmExecutor,
};
use reml::scripts::data::{generate_dataset, Dataset, LabelKind};
use reml::scripts::ScriptSpec;

const CP_BUDGET_BYTES: u64 = 4 << 30;

fn compile_script(
    script: &ScriptSpec,
    data: &Dataset,
    overrides: &[(&str, f64)],
) -> reml::compiler::pipeline::CompiledProgram {
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    for (name, value) in overrides {
        cfg.params
            .insert((*name).to_string(), ScalarValue::Num(*value));
    }
    cfg.inputs.insert("X".to_string(), data.x.characteristics());
    cfg.inputs.insert("y".to_string(), data.y.characteristics());
    compile_source(&script.source, &cfg).unwrap_or_else(|e| panic!("{} compile: {e}", script.name))
}

fn staged_hdfs(data: &Dataset) -> HdfsStore {
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    hdfs
}

/// Everything observable about one execution.
struct Observed {
    printed: Vec<String>,
    scalars: BTreeMap<String, ScalarBits>,
    /// name -> (is_sparse, rows, cols, nnz, dense bits)
    matrices: BTreeMap<String, (bool, usize, usize, u64, Vec<u64>)>,
    hdfs: BTreeMap<String, (bool, usize, usize, u64, Vec<u64>)>,
    cp_instructions: u64,
    mr_jobs: u64,
    loop_iterations: u64,
    /// Memory observations in execution order, `wall_ns` zeroed.
    observations: Vec<MemObservation>,
    /// Distinct opcode mnemonics executed: the observed rows', plus the
    /// steps of every lowered fused chain (not compared; the coverage
    /// test reads it).
    mnemonics: BTreeSet<String>,
}

#[derive(Debug, PartialEq, Eq)]
enum ScalarBits {
    Num(u64),
    Bool(bool),
    Str(String),
}

fn scalar_bits(v: &ScalarValue) -> ScalarBits {
    match v {
        ScalarValue::Num(n) => ScalarBits::Num(n.to_bits()),
        ScalarValue::Bool(b) => ScalarBits::Bool(*b),
        ScalarValue::Str(s) => ScalarBits::Str(s.clone()),
    }
}

fn matrix_bits(m: &reml::matrix::Matrix) -> (bool, usize, usize, u64, Vec<u64>) {
    let d = m.to_dense();
    (
        m.is_sparse(),
        m.rows(),
        m.cols(),
        m.nnz(),
        d.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn observe(
    printed: &[String],
    scalars: BTreeMap<String, ScalarBits>,
    pool_vars: Vec<String>,
    peek: impl Fn(&str) -> Option<std::sync::Arc<reml::matrix::Matrix>>,
    hdfs: &HdfsStore,
    stats: &reml::runtime::ExecStats,
    observations: Vec<MemObservation>,
) -> Observed {
    let mut matrices = BTreeMap::new();
    for name in pool_vars {
        if name.starts_with(TEMP_PREFIX) {
            continue;
        }
        let m = peek(&name).expect("listed variable present");
        matrices.insert(name, matrix_bits(&m));
    }
    let mut hdfs_map = BTreeMap::new();
    for path in hdfs.paths() {
        let m = hdfs.peek(path).unwrap();
        hdfs_map.insert(path.to_string(), matrix_bits(m));
    }
    Observed {
        printed: printed.to_vec(),
        scalars,
        matrices,
        hdfs: hdfs_map,
        cp_instructions: stats.cp_instructions,
        mr_jobs: stats.mr_jobs,
        loop_iterations: stats.loop_iterations,
        mnemonics: observations.iter().map(|o| o.opcode.clone()).collect(),
        observations: observations
            .into_iter()
            .map(|o| MemObservation { wall_ns: 0, ..o })
            .collect(),
    }
}

fn run_tree(program: &RuntimeProgram, hdfs: HdfsStore) -> Result<Observed, ExecError> {
    let mut exec = Executor::new(CP_BUDGET_BYTES, hdfs);
    exec.enable_memory_observation();
    exec.run(program, &mut NoRecompile)?;
    let observations = exec.take_memory_observations();
    let scalars = exec
        .scalars
        .iter()
        .filter(|(name, _)| !name.starts_with(TEMP_PREFIX))
        .map(|(name, v)| (name.clone(), scalar_bits(v)))
        .collect();
    Ok(observe(
        &exec.stats.printed,
        scalars,
        exec.pool.variables(),
        |name| exec.pool.peek(name).cloned(),
        &exec.hdfs,
        &exec.stats,
        observations,
    ))
}

fn run_vm(
    program: &RuntimeProgram,
    hdfs: HdfsStore,
    fuse: bool,
) -> Result<(Observed, usize), ExecError> {
    let program = program.lower_vm(VmLowerOptions { fuse });
    let mut exec = VmExecutor::new(CP_BUDGET_BYTES, hdfs);
    exec.enable_memory_observation();
    exec.run(&program, &mut NoRecompile)?;
    let observations = exec.take_memory_observations();
    let scalars = exec
        .scalars()
        .iter()
        .filter(|(name, _)| !name.starts_with(TEMP_PREFIX))
        .map(|(name, v)| (name.clone(), scalar_bits(v)))
        .collect();
    let mut observed = observe(
        &exec.stats.printed,
        scalars,
        exec.pool.variables(),
        |name| exec.pool.peek(name).cloned(),
        &exec.hdfs,
        &exec.stats,
        observations,
    );
    let steps = program.fused.iter().flat_map(|spec| &spec.steps);
    observed.mnemonics.extend(steps.map(|step| match step.kind {
        FusedOpKind::MM(op) => OpCode::BinaryMM(op).mnemonic(),
        FusedOpKind::MS(op) => OpCode::BinaryMS(op).mnemonic(),
        FusedOpKind::SM(op) => OpCode::BinarySM(op).mnemonic(),
        FusedOpKind::Unary(op) => OpCode::UnaryM(op).mnemonic(),
    }));
    Ok((observed, program.stats.fused_groups))
}

fn assert_identical(script: &str, mode: &str, tree: &Observed, vm: &Observed) {
    assert_eq!(tree.printed, vm.printed, "{script} {mode}: printed output");
    assert_eq!(tree.scalars, vm.scalars, "{script} {mode}: scalars");
    assert_eq!(
        tree.matrices.keys().collect::<Vec<_>>(),
        vm.matrices.keys().collect::<Vec<_>>(),
        "{script} {mode}: live matrix variables"
    );
    for (name, expected) in &tree.matrices {
        assert_eq!(
            expected, &vm.matrices[name],
            "{script} {mode}: matrix '{name}' differs"
        );
    }
    assert_eq!(
        tree.hdfs.keys().collect::<Vec<_>>(),
        vm.hdfs.keys().collect::<Vec<_>>(),
        "{script} {mode}: HDFS paths"
    );
    for (path, expected) in &tree.hdfs {
        assert_eq!(
            expected, &vm.hdfs[path],
            "{script} {mode}: HDFS '{path}' differs"
        );
    }
    assert_eq!(
        tree.cp_instructions, vm.cp_instructions,
        "{script} {mode}: cp_instructions"
    );
    assert_eq!(tree.mr_jobs, vm.mr_jobs, "{script} {mode}: mr_jobs");
    assert_eq!(
        tree.loop_iterations, vm.loop_iterations,
        "{script} {mode}: loop_iterations"
    );
    // A fused chain records no observation, so only the unfused run
    // observes row for row.
    if mode == "unfused" {
        assert_eq!(
            tree.observations, vm.observations,
            "{script} {mode}: memory observations"
        );
    }
    assert!(
        vm.observations
            .iter()
            .all(|o| !o.opcode.starts_with("fused(")),
        "{script} {mode}: a fused chain was observed"
    );
}

/// Run `program` the three ways and assert every observable identical;
/// returns the three runs (tree, unfused VM, fused VM).
fn differential_program(
    name: &str,
    program: &RuntimeProgram,
    hdfs: &HdfsStore,
    expect_fusion: bool,
) -> [Observed; 3] {
    let tree =
        run_tree(program, hdfs.clone()).unwrap_or_else(|e| panic!("{name} tree execute: {e}"));
    let run_vm = |fuse| {
        run_vm(program, hdfs.clone(), fuse).unwrap_or_else(|e| panic!("{name} vm execute: {e}"))
    };
    let (unfused, groups) = run_vm(false);
    assert_eq!(groups, 0, "{name}: unfused lowering must not fuse");
    assert_identical(name, "unfused", &tree, &unfused);
    let (fused, groups) = run_vm(true);
    if expect_fusion {
        assert!(
            groups > 0,
            "{name}: expected the fusion pass to find chains"
        );
    }
    assert_identical(name, "fused", &tree, &fused);
    [tree, unfused, fused]
}

fn differential(
    script: &ScriptSpec,
    data: &Dataset,
    overrides: &[(&str, f64)],
    expect_fusion: bool,
) {
    let compiled = compile_script(script, data, overrides);
    differential_program(
        script.name,
        &compiled.runtime,
        &staged_hdfs(data),
        expect_fusion,
    );
}

#[test]
fn linreg_ds_vm_identical() {
    let data = generate_dataset(700, 9, 1.0, LabelKind::Regression, 11);
    differential(&reml::scripts::linreg_ds(), &data, &[], false);
}

#[test]
fn linreg_cg_vm_identical() {
    let data = generate_dataset(600, 8, 1.0, LabelKind::Regression, 12);
    differential(
        &reml::scripts::linreg_cg(),
        &data,
        &[("maxiter", 12.0)],
        true,
    );
}

#[test]
fn l2svm_vm_identical() {
    let data = generate_dataset(500, 7, 1.0, LabelKind::BinaryPm1, 13);
    differential(&reml::scripts::l2svm(), &data, &[], true);
}

#[test]
fn mlogreg_vm_identical() {
    let data = generate_dataset(400, 6, 1.0, LabelKind::Classes(3), 14);
    // mlogreg's elementwise chains broadcast across class columns, which
    // the fusion shape gate rejects — no chains expected.
    differential(&reml::scripts::mlogreg(), &data, &[], false);
}

#[test]
fn glm_vm_identical() {
    let data = generate_dataset(400, 5, 1.0, LabelKind::Counts, 15);
    differential(&reml::scripts::glm(), &data, &[], true);
}

#[test]
fn sparse_input_vm_identical() {
    // Sparse X drives the fused fallback path (externals not dense) and
    // the sparse-representation tracking in the fast path's absence.
    let data = generate_dataset(900, 30, 0.05, LabelKind::Regression, 16);
    assert!(data.x.is_sparse());
    differential(&reml::scripts::linreg_ds(), &data, &[], false);
}

#[test]
fn small_pool_vm_identical() {
    // A pool far smaller than the working set forces evictions and
    // restores through the slot API; values must be unaffected.
    let data = generate_dataset(800, 10, 1.0, LabelKind::Regression, 17);
    let script = reml::scripts::linreg_ds();
    let compiled = compile_script(&script, &data, &[]);
    let mut tree = Executor::new(100 * 1024, staged_hdfs(&data));
    tree.run(&compiled.runtime, &mut NoRecompile).unwrap();
    assert!(tree.pool.stats().evictions > 0);

    let program = compiled.runtime.lower_vm(VmLowerOptions::default());
    let mut vm = VmExecutor::new(100 * 1024, staged_hdfs(&data));
    vm.run(&program, &mut NoRecompile).unwrap();

    let model_tree = tree.hdfs.peek("model").unwrap();
    let model_vm = vm.hdfs.peek("model").unwrap();
    assert_eq!(matrix_bits(model_tree), matrix_bits(model_vm));
}

/// `a op b` cell by cell over the densified operands, `b` of `a`'s shape or
/// a column vector, in the format the runtime picks for those cells.
fn densified(op: BinaryOp, a: &Matrix, b: &Matrix) -> Matrix {
    let (a, b) = (a.to_dense(), b.to_dense());
    let mut out = DenseMatrix::zeros(a.rows(), a.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let y = if b.cols() == a.cols() {
                b.get(r, c)
            } else {
                b.get(r, 0)
            };
            out.set(r, c, op.apply(a.get(r, c), y));
        }
    }
    Matrix::from_dense_auto(out)
}

/// The CSR element-wise kernels against the densified reference: GLM's
/// `X * w` on a CSR `X`, once with finite weights (the product stays CSR)
/// and once with an `inf`, a NaN and a `-0.0` among them (`0 · inf` is
/// NaN, so it takes the fill-and-patch path), and MLogreg's `P - Y` with
/// dense `P` and CSR `Y`.
#[test]
fn csr_elementwise_matches_densified_reference() {
    let data = generate_dataset(300, 20, 0.05, LabelKind::Classes(4), 22);
    let x = data.x.clone();
    assert!(x.is_sparse());
    let n = x.rows();
    let mut w = reml::matrix::generate::rand_dense(n, 1, -1.0, 1.0, 5);
    let w_finite = Matrix::Dense(w.clone());
    w.set(3, 0, f64::INFINITY);
    w.set(7, 0, f64::NAN);
    w.set(11, 0, -0.0);
    let w = Matrix::Dense(w);
    let mut onehot = DenseMatrix::zeros(n, 4);
    for r in 0..n {
        onehot.set(r, (data.y.get(r, 0) as usize - 1) % 4, 1.0);
    }
    let y = Matrix::from_dense_auto(onehot);
    assert!(y.is_sparse());
    let p = Matrix::Dense(reml::matrix::generate::rand_dense(n, 4, 0.0, 1.0, 6));

    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    let mut hdfs = HdfsStore::new();
    for (name, m) in [
        ("X", &x),
        ("W", &w),
        ("WF", &w_finite),
        ("P", &p),
        ("Y", &y),
    ] {
        cfg.params
            .insert(name.to_string(), ScalarValue::Str(name.to_string()));
        cfg.inputs.insert(name.to_string(), m.characteristics());
        hdfs.stage(name, m.clone());
    }
    for out in ["xw", "xwf", "d"] {
        cfg.params
            .insert(out.to_string(), ScalarValue::Str(out.to_string()));
    }
    let source = r#"
        X = read($X)
        w = read($W)
        wf = read($WF)
        P = read($P)
        Y = read($Y)
        write(X * w, $xw)
        write(X * wf, $xwf)
        write(P - Y, $d)
        G = t(X) %*% (P - Y)
        print("G=" + sum(G))
    "#;
    let compiled = compile_source(source, &cfg).expect("script compiles");
    let runs = differential_program("CsrElementwise", &compiled.runtime, &hdfs, false);
    let cases = [
        ("xw", densified(BinaryOp::Mul, &x, &w)),
        ("xwf", densified(BinaryOp::Mul, &x, &w_finite)),
        ("d", densified(BinaryOp::Sub, &p, &y)),
    ];
    for (path, want) in &cases {
        assert_eq!(runs[0].hdfs[*path], matrix_bits(want), "{path}");
    }
    assert!(cases[0].1.to_dense().data().iter().any(|v| v.is_nan()));
    assert!(runs[0].hdfs["xwf"].0, "X * finite w stays CSR");
}

/// A hand-written CP instruction claiming compile-time size `mc` for
/// every operand and the output; an empty `output` means none.
fn cp_sized(
    opcode: OpCode,
    operands: Vec<Operand>,
    output: &str,
    mc: MatrixCharacteristics,
) -> Instruction {
    Instruction::Cp(CpInstruction {
        opcode,
        operand_mcs: vec![mc; operands.len()],
        operands,
        output: (!output.is_empty()).then(|| output.into()),
        output_mc: mc,
        bound_bytes: None,
    })
}

fn cp(opcode: OpCode, operands: Vec<Operand>, output: &str) -> Instruction {
    cp_sized(opcode, operands, output, MatrixCharacteristics::unknown())
}

fn generic(instructions: Vec<Instruction>) -> RtBlock {
    RtBlock::Generic {
        source: reml::lang::BlockId(9000),
        instructions,
        requires_recompile: false,
    }
}

/// One program through the shared op table against both operand stores:
/// every `OpCode` variant executes at least once on the tree walker
/// (name-keyed), the unfused VM and the fused VM (slot-keyed). The DML
/// part covers what the compiler emits; a hand-written tail adds what it
/// never does — `rmvar`, a scalar and a literal in matrix position (the
/// latter inside a fusible chain, so the fused run takes the stepwise
/// path), and a name rebound from scalar to matrix and back.
#[test]
fn every_opcode_through_both_stores() {
    let data = generate_dataset(40, 4, 1.0, LabelKind::Classes(3), 21);
    let script = ScriptSpec {
        name: "AllOps",
        source: r#"
            X = read($X)
            y = read($Y)
            n = nrow(X)
            m = ncol(X)
            ones = matrix(1, rows=n, cols=1)
            Z = matrix(0, rows=m, cols=m)
            R = rand(rows=m, cols=m, sparsity=0.5, seed=3)
            s = seq(1, m)
            Xa = append(X, ones)
            Xr = rbind(X, X)
            G = t(X) %*% X
            b = t(Xa) %*% y
            q = t(Xr) %*% (Xr %*% s)
            A = G + diag(matrix(1, rows=m, cols=1))
            w = solve(A, G %*% s)
            p = X %*% w
            Xt = t(Xr)
            e = exp((p - y) * 0.5 / 100)
            f = 1 - e
            tot = sum(f) + sum(Xt) + sum(colSums(Xa)) + sum(b)
            r = sqrt(tot * tot + 1)
            T = table(seq(1, n), y)
            K = X[1:3, 1:2]
            Z[1:2, 1] = s[1:2, 1]
            c1 = as_scalar(w[1, 1])
            C = as_matrix(r)
            i = 0
            while (i < 2) {
                i = i + 1
                q = q + R %*% s
            }
            print("r=" + r + " c1=" + c1 + " k=" + ncol(T) + " q=" + sum(q) + sum(K) + sum(C))
            write(Z, $model)
        "#
        .to_string(),
        params: reml::scripts::linreg_ds().params,
        has_unknowns: true,
        iterative: true,
    };
    let mut program = compile_script(&script, &data, &[]).runtime;
    // Claims X's shape for every operand, as fusion planning requires.
    let shaped =
        |opcode, operands, output| cp_sized(opcode, operands, output, data.x.characteristics());
    program.blocks.push(generic(vec![
        cp(OpCode::Assign, vec![Operand::num(5.0)], "sv"),
        // Scalar variable in matrix position: degrades to a scalar op.
        cp(
            OpCode::BinaryMM(BinaryOp::Mul),
            vec![Operand::var("X"), Operand::var("sv")],
            "Ms",
        ),
        cp(OpCode::NRow, vec![Operand::var("sv")], "one"),
        // Literal in matrix position inside a fusible chain.
        shaped(
            OpCode::BinaryMM(BinaryOp::Add),
            vec![Operand::var("X"), Operand::num(2.0)],
            "_mVar9001",
        ),
        shaped(
            OpCode::BinaryMS(BinaryOp::Mul),
            vec![Operand::var("_mVar9001"), Operand::num(3.0)],
            "Fz",
        ),
        // sv: scalar -> matrix; Ms: matrix -> scalar.
        cp(OpCode::Transpose, vec![Operand::var("X")], "sv"),
        cp(OpCode::NCol, vec![Operand::var("sv")], "Ms"),
        cp(OpCode::Assign, vec![Operand::var("sv")], "Sv2"),
        // table() compiles to an MR operator (unknown size), which is not
        // observed; this one runs in CP.
        cp(OpCode::TableSeq, vec![Operand::var("y")], "T2"),
        cp(
            OpCode::RmVar,
            vec![Operand::var("one"), Operand::var("Xa")],
            "",
        ),
    ]));
    let runs = differential_program("AllOps", &program, &staged_hdfs(&data), true);
    let expected = [
        "pread",
        "pwrite",
        "datagen-const",
        "datagen-seq",
        "datagen-rand",
        "ba+*",
        "tmm",
        "tsmm",
        "mmchain",
        "solve",
        "r'",
        "rdiag",
        "map-",
        "s*",
        "s-",
        "ss+",
        "uexp",
        "ussqrt",
        "uasum",
        "ctable",
        "rix",
        "lix",
        "append",
        "rappend",
        "nrow",
        "ncol",
        "castdts",
        "castdtm",
        "assignvar",
        "concat",
        "print",
        "rmvar",
    ];
    for (mode, run) in ["tree", "unfused", "fused"].iter().zip(&runs) {
        let missing: Vec<_> = expected
            .iter()
            .filter(|m| !run.mnemonics.contains(**m))
            .collect();
        assert!(
            missing.is_empty(),
            "{mode}: opcodes never executed: {missing:?}; executed {:?}",
            run.mnemonics
        );
    }
    // Shadowing resolved the same way by name and by slot.
    let tree = &runs[0];
    assert!(tree.matrices.contains_key("sv") && !tree.scalars.contains_key("sv"));
    assert!(tree.scalars.contains_key("Ms") && !tree.matrices.contains_key("Ms"));
    assert!(!tree.matrices.contains_key("Xa") && !tree.scalars.contains_key("one"));
}

/// Run a program the three ways: all must fail, with the same typed
/// error.
fn failing_program(program: &RuntimeProgram) -> ExecError {
    let tree = run_tree(program, HdfsStore::new())
        .map(drop)
        .expect_err("must fail");
    for fuse in [false, true] {
        let vm = run_vm(program, HdfsStore::new(), fuse)
            .map(drop)
            .expect_err("must fail");
        assert_eq!(tree, vm, "fuse={fuse}");
    }
    tree
}

/// A block of hand-written instructions over a 3x3 `A`, run the three
/// ways.
fn failing(instructions: Vec<Instruction>) -> ExecError {
    let mut body = vec![cp(
        OpCode::DataGenConst,
        vec![Operand::num(1.0), Operand::num(3.0), Operand::num(3.0)],
        "A",
    )];
    body.extend(instructions);
    failing_program(&RuntimeProgram {
        blocks: vec![generic(body)],
        ..Default::default()
    })
}

/// A DML script compiled with no inputs, run the three ways.
fn failing_script(source: &str) -> ExecError {
    let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    let compiled = compile_source(source, &cfg).expect("script compiles");
    failing_program(&compiled.runtime)
}

#[test]
fn left_index_outside_the_target_is_a_typed_error() {
    // A[1:4, 1] = 7 on a 3x3 target.
    let lix = |value: Operand, bounds: [f64; 4]| {
        let mut operands = vec![Operand::var("A"), value];
        operands.extend(bounds.map(Operand::num));
        cp(OpCode::LeftIndex, operands, "A")
    };
    let err = failing(vec![lix(Operand::num(7.0), [1.0, 4.0, 1.0, 1.0])]);
    assert!(
        matches!(
            err,
            ExecError::Matrix(MatrixError::IndexOutOfBounds { shape: (3, 3), .. })
        ),
        "{err:?}"
    );
    // A[1:2, 1] = A: a 3x3 value into a 2x1 range.
    let err = failing(vec![lix(Operand::var("A"), [1.0, 2.0, 1.0, 1.0])]);
    assert!(
        matches!(
            err,
            ExecError::Matrix(MatrixError::ShapeMismatch {
                left: (2, 1),
                right: (3, 3),
                ..
            })
        ),
        "{err:?}"
    );
}

#[test]
fn oversized_datagen_is_a_typed_error_before_allocating() {
    // matrix(0, rows=1e11, cols=1e11) and the rand() of the same shape.
    let err = failing(vec![cp(
        OpCode::DataGenConst,
        vec![Operand::num(0.0), Operand::num(1e11), Operand::num(1e11)],
        "B",
    )]);
    assert!(matches!(err, ExecError::OutOfMemory { .. }), "{err:?}");
    let err = failing(vec![cp(
        OpCode::DataGenRand,
        vec![
            Operand::num(1e11),
            Operand::num(1e11),
            Operand::num(0.001),
            Operand::num(7.0),
        ],
        "B",
    )]);
    assert!(matches!(err, ExecError::OutOfMemory { .. }), "{err:?}");
}

#[test]
fn unbounded_for_loop_is_a_typed_error_not_a_hang() {
    // Counting up to infinity by `i += 1.0` stalls at 2^53; a NaN or
    // infinite bound on either side is refused before the first iteration.
    for range in ["1:(1/0)", "(-1/0):1", "1:(0/0)"] {
        let err = failing_script(&format!(
            "s = 0\nfor (i in {range}) {{ s = s + i }}\nprint(s)"
        ));
        assert!(matches!(err, ExecError::TypeError(_)), "{range}: {err:?}");
    }
    // A finite range over the cap shared with `while` loops.
    let err = failing_script("s = 0\nfor (i in 1:1e15) { s = s + i }\nprint(s)");
    assert!(matches!(err, ExecError::RunawayLoop(_)), "{err:?}");
}

#[test]
fn hostile_seq_is_a_typed_error_not_an_abort_or_a_hang() {
    // `seq(1, 1/0)` used to grow a vector until the allocator aborted the
    // process; `seq(1e20, 2e20)` never advanced (`v + 1 == v`). The time
    // box turns a regression into a failure instead of a hung test run.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        for args in [
            "1, 1/0",
            "(0/0), 1",
            "1, 10, (0/0)",
            "1e20, 2e20",
            "1, 1e12",
        ] {
            let err = failing_script(&format!("s = seq({args})\nprint(sum(s))"));
            let _ = done_tx.send((args, err));
        }
    });
    for _ in 0..5 {
        let (args, err) = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("every seq fails within the time box");
        assert!(
            matches!(err, ExecError::Matrix(MatrixError::InvalidArgument(_))),
            "seq({args}): {err:?}"
        );
    }
    worker.join().expect("the seq worker finishes cleanly");
}
