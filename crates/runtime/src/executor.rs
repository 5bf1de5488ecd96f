//! Reference executor for runtime programs: the tree walker.
//!
//! Walks the [`RtBlock`] tree directly, resolving every operand by name.
//! Executes CP instructions on real matrices through the buffer pool, and
//! MR-job instructions by running their packed map/reduce operators
//! in-process (value-equivalent to distributed execution). Timing of
//! distributed execution is modeled by `reml-sim`; this executor answers
//! "what values does the program compute".
//!
//! What an opcode does is not stated here: every instruction goes through
//! the shared table (`ops::eval_op`) over a name-keyed `OperandStore`.
//! The walker keeps what the bytecode VM's lowering could get wrong —
//! control flow, the recompile hook, name-keyed scalar/matrix shadowing —
//! and so stays the reference the differential tests compare the VM
//! against.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use reml_matrix::{Matrix, MatrixCharacteristics};

use crate::bufferpool::BufferPool;
use crate::hdfs::HdfsStore;
use crate::instructions::{CpInstruction, Instruction, MrJobInstruction, OpCode};
use crate::ops::{eval_op, scalar_as_matrix, OperandStore};
use crate::program::{Predicate, RtBlock, RuntimeProgram};
use crate::value::{Operand, ScalarValue};
use crate::vm::lower::cp_flops;

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// CP instructions executed.
    pub cp_instructions: u64,
    /// MR jobs executed.
    pub mr_jobs: u64,
    /// Loop iterations executed.
    pub loop_iterations: u64,
    /// Dynamic recompilations performed (hook invocations that returned a
    /// new plan).
    pub recompilations: u64,
    /// Lines printed by `print`.
    pub printed: Vec<String>,
}

/// Errors during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A referenced variable does not exist.
    UnknownVariable(String),
    /// An operand had the wrong type (scalar where matrix expected etc).
    TypeError(String),
    /// The underlying matrix kernel failed.
    Matrix(reml_matrix::MatrixError),
    /// A persistent read path is missing from the HDFS store.
    MissingInput(String),
    /// Iteration guard: a `while` or `for` loop exceeded the hard safety
    /// bound.
    RunawayLoop(usize),
    /// A produced matrix pushed the executor past its OOM limit — the
    /// runtime surface of the simulator's task-OOM fault: the caller
    /// (AM) recompiles the block to a distributed plan at actual sizes.
    /// Also returned, limit or not, for a generated matrix whose byte
    /// size overflows `u64` (`needed_bytes` is then `u64::MAX`).
    OutOfMemory {
        /// Bytes the operation needed resident.
        needed_bytes: u64,
        /// Configured OOM limit (`u64::MAX` when none is).
        limit_bytes: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownVariable(v) => write!(f, "unknown variable '{v}'"),
            ExecError::TypeError(m) => write!(f, "type error: {m}"),
            ExecError::Matrix(e) => write!(f, "matrix error: {e}"),
            ExecError::MissingInput(p) => write!(f, "missing HDFS input '{p}'"),
            ExecError::RunawayLoop(n) => write!(f, "loop exceeded {n} iterations"),
            ExecError::OutOfMemory {
                needed_bytes,
                limit_bytes,
            } => write!(
                f,
                "out of memory: needed {needed_bytes} bytes resident, limit {limit_bytes}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<reml_matrix::MatrixError> for ExecError {
    fn from(e: reml_matrix::MatrixError) -> Self {
        ExecError::Matrix(e)
    }
}

/// Hook invoked before executing a generic block marked
/// `requires_recompile`: given the source block id and a lookup of the
/// *actual* characteristics of a live matrix variable by name (`None` for
/// a scalar or an unbound name), return replacement instructions (dynamic
/// recompilation, §4) or `None` to keep the plan. A lookup costs what the
/// variable's characteristics cost — a dense matrix's non-zeros are a scan
/// of its cells — so a hook asks only for the variables it reads, and a
/// hook that asks for nothing costs nothing.
pub trait RecompileHook {
    /// Produce a replacement instruction list for the block, or None.
    fn recompile(
        &mut self,
        source: reml_lang::BlockId,
        live_var: &dyn Fn(&str) -> Option<MatrixCharacteristics>,
    ) -> Option<Vec<Instruction>>;
}

/// A no-op hook (static execution).
pub struct NoRecompile;

impl RecompileHook for NoRecompile {
    fn recompile(
        &mut self,
        _source: reml_lang::BlockId,
        _live_var: &dyn Fn(&str) -> Option<MatrixCharacteristics>,
    ) -> Option<Vec<Instruction>> {
        None
    }
}

/// Hard safety bound on the iterations of one loop, `while` or `for`
/// (scripts in this repo all converge or carry explicit maxiter bounds far
/// below this). Shared with the bytecode VM and the cluster simulator so
/// all three walkers refuse the same loops.
pub const MAX_LOOP_ITERATIONS: usize = 100_000;

/// Trip count of `for (i in from:to)`, decided before the first
/// iteration: counting up by `i += 1.0` never terminates on an infinite
/// bound (nor past 2^53, where `i + 1.0 == i`), so a non-finite bound and
/// a count above [`MAX_LOOP_ITERATIONS`] are errors instead of hangs.
/// Iteration `k` binds the loop variable to `from + k`.
pub(crate) fn for_trip_count(from: f64, to: f64) -> Result<usize, ExecError> {
    if !from.is_finite() || !to.is_finite() {
        return Err(ExecError::TypeError(format!(
            "for-loop range {from}:{to} is not finite"
        )));
    }
    if to < from {
        return Ok(0);
    }
    let trips = (to - from).floor() + 1.0;
    if trips > MAX_LOOP_ITERATIONS as f64 {
        return Err(ExecError::RunawayLoop(MAX_LOOP_ITERATIONS));
    }
    Ok(trips as usize)
}

/// The CP executor: buffer pool + scalar variables + HDFS store.
pub struct Executor {
    /// Matrix variables as shared handles.
    pub pool: BufferPool,
    /// Scalar variables.
    pub scalars: HashMap<String, ScalarValue>,
    /// The HDFS stand-in.
    pub hdfs: HdfsStore,
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// Hard OOM watermark: a computed matrix that would push resident
    /// bytes past this limit aborts execution with
    /// [`ExecError::OutOfMemory`] instead of spilling. `None` (default)
    /// keeps the pure spill-to-disk behaviour.
    oom_limit_bytes: Option<u64>,
    /// Opt-in memory-observation recording (the planlint soundness audit).
    observe_memory: bool,
    observations: Vec<MemObservation>,
}

/// One comparison between the compiler's memory prediction for a CP
/// instruction and the actual operator footprint at execution time.
/// Recorded opt-in via [`Executor::enable_memory_observation`]; the
/// planlint memory-soundness audit aggregates these per opcode.
#[derive(Debug, Clone, PartialEq)]
pub struct MemObservation {
    /// Opcode mnemonic (e.g. `ba+*`).
    pub opcode: String,
    /// Compile-time estimate: operand + output sizes from the recorded
    /// [`MatrixCharacteristics`]; `None` when any operand size was
    /// unknown at compile time.
    pub predicted_bytes: Option<u64>,
    /// Actual operand + output bytes held in the buffer pool.
    pub actual_bytes: u64,
    /// Pool resident bytes right after the instruction.
    pub resident_bytes: u64,
    /// Sound upper bound from the `sizebound` interval analysis, copied
    /// from the instruction when the plan was annotated; `None` when no
    /// finite bound was proven. The soundness audit asserts
    /// `actual_bytes <= bound_bytes` whenever a bound exists.
    pub bound_bytes: Option<u64>,
    /// Measured wall time of the instruction in nanoseconds. Recorded
    /// whenever memory observation is enabled (independent of the trace
    /// recorder and its deterministic mode), so calibration always has a
    /// time signal.
    pub wall_ns: u64,
    /// Predicted FLOPs from the analytic flop model, `None` when operand
    /// sizes were unknown at compile time.
    pub predicted_flops: Option<f64>,
}

impl MemObservation {
    /// Append to an executor's observations, mirrored as an
    /// `exec.mem_observation` trace event when a recorder is installed.
    pub(crate) fn record(self, observations: &mut Vec<MemObservation>) {
        if reml_trace::enabled() {
            let mut fields: Vec<(&'static str, reml_trace::FieldValue)> = vec![
                ("opcode", reml_trace::FieldValue::Str(self.opcode.clone())),
                (
                    "actual_bytes",
                    reml_trace::FieldValue::U64(self.actual_bytes),
                ),
                (
                    "resident_bytes",
                    reml_trace::FieldValue::U64(self.resident_bytes),
                ),
            ];
            if let Some(p) = self.predicted_bytes {
                fields.push(("predicted_bytes", reml_trace::FieldValue::U64(p)));
            }
            if let Some(b) = self.bound_bytes {
                fields.push(("bound_bytes", reml_trace::FieldValue::U64(b)));
            }
            reml_trace::event("exec.mem_observation", &fields);
        }
        observations.push(self);
    }
}

impl Executor {
    /// New executor with the given CP budget (bytes) and staged inputs.
    pub fn new(cp_budget_bytes: u64, hdfs: HdfsStore) -> Self {
        Executor {
            pool: BufferPool::new(cp_budget_bytes),
            scalars: HashMap::new(),
            hdfs,
            stats: ExecStats::default(),
            oom_limit_bytes: None,
            observe_memory: false,
            observations: Vec::new(),
        }
    }

    /// Start recording one [`MemObservation`] per executed CP
    /// instruction (the differential memory-soundness audit). Off by
    /// default: observation clones no data but grows a vector.
    pub fn enable_memory_observation(&mut self) {
        self.observe_memory = true;
    }

    /// Drain the recorded memory observations.
    pub fn take_memory_observations(&mut self) -> Vec<MemObservation> {
        std::mem::take(&mut self.observations)
    }

    /// Builder: fail with [`ExecError::OutOfMemory`] when a computed
    /// matrix would push resident bytes past `limit_bytes` (fault
    /// injection / JVM-heap modeling; the buffer pool otherwise spills
    /// silently).
    pub fn with_oom_limit(mut self, limit_bytes: u64) -> Self {
        self.oom_limit_bytes = Some(limit_bytes);
        self
    }

    /// Execute a whole program with an optional recompilation hook.
    pub fn run(
        &mut self,
        program: &RuntimeProgram,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        for block in &program.blocks {
            self.run_block(block, hook)?;
        }
        Ok(())
    }

    fn run_block(
        &mut self,
        block: &RtBlock,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        match block {
            RtBlock::Generic {
                source,
                instructions,
                requires_recompile,
            } => {
                let plan;
                let instructions = if *requires_recompile {
                    let pool = &self.pool;
                    match hook.recompile(*source, &|name| pool.characteristics(name)) {
                        Some(new_plan) => {
                            self.stats.recompilations += 1;
                            plan = new_plan;
                            &plan
                        }
                        None => instructions,
                    }
                } else {
                    instructions
                };
                for instr in instructions {
                    self.execute(instr)?;
                }
                Ok(())
            }
            RtBlock::If {
                pred,
                then_blocks,
                else_blocks,
                ..
            } => {
                if self.eval_predicate(pred)? {
                    for b in then_blocks {
                        self.run_block(b, hook)?;
                    }
                } else {
                    for b in else_blocks {
                        self.run_block(b, hook)?;
                    }
                }
                Ok(())
            }
            RtBlock::While { pred, body, .. } => {
                let mut iters = 0usize;
                while self.eval_predicate(pred)? {
                    iters += 1;
                    if iters > MAX_LOOP_ITERATIONS {
                        return Err(ExecError::RunawayLoop(MAX_LOOP_ITERATIONS));
                    }
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(b, hook)?;
                    }
                }
                Ok(())
            }
            RtBlock::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let from_v = self.eval_predicate_num(from)?;
                let to_v = self.eval_predicate_num(to)?;
                for k in 0..for_trip_count(from_v, to_v)? {
                    self.scalars
                        .insert(var.clone(), ScalarValue::Num(from_v + k as f64));
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(b, hook)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn predicate_value(&mut self, pred: &Predicate) -> Result<&ScalarValue, ExecError> {
        for instr in &pred.instructions {
            self.execute(instr)?;
        }
        self.scalars
            .get(&pred.result_var)
            .ok_or_else(|| ExecError::UnknownVariable(pred.result_var.clone()))
    }

    fn eval_predicate(&mut self, pred: &Predicate) -> Result<bool, ExecError> {
        self.predicate_value(pred)?.as_bool().ok_or_else(|| {
            ExecError::TypeError(format!("predicate '{}' not boolean", pred.result_var))
        })
    }

    fn eval_predicate_num(&mut self, pred: &Predicate) -> Result<f64, ExecError> {
        self.predicate_value(pred)?
            .as_f64()
            .ok_or_else(|| ExecError::TypeError(format!("'{}' not numeric", pred.result_var)))
    }

    /// Execute one instruction. Per-opcode timing histograms are the
    /// VM's (`vm.op.<mnemonic>`); the reference walker times an
    /// instruction only for an opt-in memory observation.
    pub fn execute(&mut self, instr: &Instruction) -> Result<(), ExecError> {
        match instr {
            Instruction::Cp(cp) => {
                self.stats.cp_instructions += 1;
                let t0 = self.observe_memory.then(std::time::Instant::now);
                self.eval(&cp.opcode, &cp.operands, cp.output.as_deref())?;
                if let Some(t0) = t0 {
                    self.record_observation(cp, t0.elapsed().as_nanos() as u64);
                }
                Ok(())
            }
            Instruction::MrJob(job) => {
                self.stats.mr_jobs += 1;
                reml_trace::count("exec.mr_jobs", 1);
                self.execute_mr_job(job)
            }
        }
    }

    /// One operation through the shared table.
    fn eval(
        &mut self,
        opcode: &OpCode,
        operands: &[Operand],
        output: Option<&str>,
    ) -> Result<(), ExecError> {
        eval_op(&mut NameStore { exec: self }, opcode, operands, output)
    }

    /// Record predicted vs. actual footprint of a just-executed CP
    /// instruction. Prediction sums the compile-time operand/output
    /// characteristics (the same quantities `memest` budgets against);
    /// actual sums the live pool sizes of the distinct variables touched.
    fn record_observation(&mut self, cp: &CpInstruction, wall_ns: u64) {
        let mut touched: Vec<&str> = cp
            .operands
            .iter()
            .filter_map(Operand::as_var)
            .chain(cp.output.as_deref())
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let actual_bytes = touched
            .iter()
            .filter_map(|name| self.pool.peek(name).map(|m| m.size_bytes()))
            .sum();
        MemObservation {
            opcode: cp.opcode.mnemonic(),
            predicted_bytes: cp.predicted_bytes(),
            actual_bytes,
            resident_bytes: self.pool.resident_bytes(),
            bound_bytes: cp.bound_bytes,
            wall_ns,
            predicted_flops: cp_flops(cp),
        }
        .record(&mut self.observations);
    }

    /// Execute an MR job value-equivalently: run map operators then reduce
    /// operators in order. Job outputs are also exported to HDFS (MR
    /// intermediates are exchanged through HDFS, §2.1).
    fn execute_mr_job(&mut self, job: &MrJobInstruction) -> Result<(), ExecError> {
        for op in job.mappers.iter().chain(job.reducers.iter()) {
            self.eval(&op.opcode, &op.operands, op.output.as_deref())?;
        }
        for (name, _) in &job.outputs {
            let m = self
                .pool
                .get(name)
                .ok_or_else(|| ExecError::UnknownVariable(name.to_string()))?;
            self.hdfs.write(format!("tmp/{name}"), m);
            self.pool.mark_clean(name);
        }
        Ok(())
    }
}

/// The name-keyed [`OperandStore`]: an [`Executor`] seen by one
/// instruction.
struct NameStore<'a> {
    exec: &'a mut Executor,
}

impl OperandStore for NameStore<'_> {
    type Arg = Operand;
    type Out = str;

    fn held_scalar(&self, arg: &Operand) -> Option<ScalarValue> {
        match arg {
            Operand::Var(name) => self.exec.scalars.get(&**name).cloned(),
            Operand::Lit(v) => Some(v.clone()),
        }
    }

    fn touch(&mut self, arg: &Operand) -> Result<(), ExecError> {
        let Operand::Var(name) = arg else {
            return Ok(());
        };
        if self.exec.pool.touch(name).is_some() || self.exec.scalars.contains_key(&**name) {
            Ok(())
        } else {
            Err(ExecError::UnknownVariable(name.to_string()))
        }
    }

    fn peek(&self, arg: &Operand) -> Result<Cow<'_, Arc<Matrix>>, ExecError> {
        match arg {
            Operand::Var(name) => match self.exec.pool.peek(name) {
                Some(m) => Ok(Cow::Borrowed(m)),
                None => match self.exec.scalars.get(&**name) {
                    Some(v) => scalar_as_matrix(v, || format!("'{name}'")),
                    None => Err(ExecError::UnknownVariable(name.to_string())),
                },
            },
            Operand::Lit(v) => scalar_as_matrix(v, || "literal".into()),
        }
    }

    fn bind_matrix(&mut self, out: &str, m: Arc<Matrix>, dirty: bool) {
        self.exec.scalars.remove(out);
        self.exec.pool.put_with_dirty(out, m, dirty);
    }

    fn bind_scalar(&mut self, out: &str, v: ScalarValue) {
        self.exec.pool.remove(out);
        self.exec.scalars.insert(out.to_string(), v);
    }

    fn unbind(&mut self, arg: &Operand) {
        if let Operand::Var(name) = arg {
            self.exec.pool.remove(name);
            self.exec.scalars.remove(&**name);
        }
    }

    fn mark_clean(&mut self, arg: &Operand) {
        if let Operand::Var(name) = arg {
            self.exec.pool.mark_clean(name);
        }
    }

    fn hdfs_read(&mut self, path: &str) -> Result<Arc<Matrix>, ExecError> {
        self.exec
            .hdfs
            .read(path)
            .ok_or_else(|| ExecError::MissingInput(path.to_string()))
    }

    fn hdfs_write(&mut self, path: &str, m: Arc<Matrix>) {
        self.exec.hdfs.write(path, m);
    }

    fn print(&mut self, line: String) {
        self.exec.stats.printed.push(line);
    }

    fn oom_limit(&self) -> Option<(u64, u64)> {
        let limit = self.exec.oom_limit_bytes?;
        Some((self.exec.pool.resident_bytes(), limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instructions::CpInstruction;
    use reml_matrix::{AggOp, BinaryOp};

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

    fn exec() -> Executor {
        Executor::new(1 << 30, HdfsStore::new())
    }

    #[test]
    fn oom_limit_aborts_instead_of_spilling() {
        // 100x100 doubles = 80 KB output against a 10 KB limit.
        let mut e = exec().with_oom_limit(10 * 1024);
        let err = e
            .execute(&cp(
                OpCode::DataGenConst,
                vec![Operand::num(1.0), Operand::num(100.0), Operand::num(100.0)],
                Some("A"),
            ))
            .unwrap_err();
        let ExecError::OutOfMemory {
            needed_bytes,
            limit_bytes,
        } = err
        else {
            panic!("expected OutOfMemory, got {err:?}");
        };
        assert!(needed_bytes > limit_bytes);
        assert_eq!(limit_bytes, 10 * 1024);
        // Without the limit the same program spills and succeeds.
        let mut e = exec();
        e.execute(&cp(
            OpCode::DataGenConst,
            vec![Operand::num(1.0), Operand::num(100.0), Operand::num(100.0)],
            Some("A"),
        ))
        .unwrap();
        assert!(e.pool.contains("A"));
    }

    #[test]
    fn datagen_and_aggregate() {
        let mut e = exec();
        e.execute(&cp(
            OpCode::DataGenConst,
            vec![Operand::num(2.0), Operand::num(3.0), Operand::num(4.0)],
            Some("A"),
        ))
        .unwrap();
        e.execute(&cp(
            OpCode::Agg(AggOp::Sum),
            vec![Operand::var("A")],
            Some("s"),
        ))
        .unwrap();
        assert_eq!(e.scalars["s"], ScalarValue::Num(24.0));
    }

    #[test]
    fn persistent_read_write() {
        let mut e = exec();
        e.hdfs.stage("in", Matrix::constant(2, 2, 5.0));
        e.execute(&cp(
            OpCode::PersistentRead { path: "in".into() },
            vec![],
            Some("X"),
        ))
        .unwrap();
        assert_eq!(e.pool.is_dirty("X"), Some(false));
        e.execute(&cp(
            OpCode::PersistentWrite { path: "out".into() },
            vec![Operand::var("X")],
            None,
        ))
        .unwrap();
        assert!(e.hdfs.exists("out"));
    }

    #[test]
    fn missing_input_errors() {
        let mut e = exec();
        let err = e
            .execute(&cp(
                OpCode::PersistentRead {
                    path: "gone".into(),
                },
                vec![],
                Some("X"),
            ))
            .unwrap_err();
        assert!(matches!(err, ExecError::MissingInput(_)));
    }

    #[test]
    fn matmult_pipeline() {
        let mut e = exec();
        e.hdfs.stage(
            "X",
            Matrix::Dense(
                reml_matrix::DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(),
            ),
        );
        e.execute(&cp(
            OpCode::PersistentRead { path: "X".into() },
            vec![],
            Some("X"),
        ))
        .unwrap();
        e.execute(&cp(OpCode::Transpose, vec![Operand::var("X")], Some("Xt")))
            .unwrap();
        e.execute(&cp(
            OpCode::MatMult,
            vec![Operand::var("Xt"), Operand::var("X")],
            Some("G"),
        ))
        .unwrap();
        let g = e.pool.get("G").unwrap();
        assert_eq!(g.get(0, 0), 10.0);
        assert_eq!(g.get(1, 1), 20.0);
    }

    #[test]
    fn mmchain_equals_two_step() {
        let mut e = exec();
        e.pool.put("X", Arc::new(Matrix::constant(4, 3, 2.0)));
        e.pool.put("v", Arc::new(Matrix::constant(3, 1, 1.0)));
        e.execute(&cp(
            OpCode::MmChain,
            vec![Operand::var("X"), Operand::var("v")],
            Some("out"),
        ))
        .unwrap();
        // X v = 6 per row; t(X) * (6...) = 4 * 2 * 6 = 48 per entry.
        assert_eq!(e.pool.get("out").unwrap().get(0, 0), 48.0);
    }

    #[test]
    fn scalar_arithmetic_and_logic() {
        let mut e = exec();
        e.execute(&cp(
            OpCode::BinarySS(BinaryOp::Add),
            vec![Operand::num(2.0), Operand::num(3.0)],
            Some("a"),
        ))
        .unwrap();
        assert_eq!(e.scalars["a"], ScalarValue::Num(5.0));
        e.execute(&cp(
            OpCode::BinarySS(BinaryOp::Less),
            vec![Operand::var("a"), Operand::num(10.0)],
            Some("c"),
        ))
        .unwrap();
        assert_eq!(e.scalars["c"], ScalarValue::Bool(true));
        e.execute(&cp(
            OpCode::BinarySS(BinaryOp::And),
            vec![Operand::var("c"), Operand::Lit(ScalarValue::Bool(false))],
            Some("d"),
        ))
        .unwrap();
        assert_eq!(e.scalars["d"], ScalarValue::Bool(false));
    }

    #[test]
    fn one_by_one_matrix_degrades_to_scalar_in_mm() {
        let mut e = exec();
        e.pool.put("v", Arc::new(Matrix::constant(3, 1, 2.0)));
        e.pool.put("s", Arc::new(Matrix::constant(1, 1, 10.0)));
        e.execute(&cp(
            OpCode::BinaryMM(BinaryOp::Mul),
            vec![Operand::var("v"), Operand::var("s")],
            Some("out"),
        ))
        .unwrap();
        assert_eq!(e.pool.get("out").unwrap().get(2, 0), 20.0);
    }

    #[test]
    fn right_and_left_indexing() {
        let mut e = exec();
        e.pool.put(
            "P",
            Arc::new(Matrix::Dense(
                reml_matrix::DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap(),
            )),
        );
        // P[, 1:2]
        e.execute(&cp(
            OpCode::RightIndex,
            vec![
                Operand::var("P"),
                Operand::num(0.0),
                Operand::num(0.0),
                Operand::num(1.0),
                Operand::num(2.0),
            ],
            Some("Q"),
        ))
        .unwrap();
        let q = e.pool.get("Q").unwrap();
        assert_eq!(q.cols(), 2);
        assert_eq!(q.get(1, 1), 5.0);
        // P[1, 1] = 99
        e.execute(&cp(
            OpCode::LeftIndex,
            vec![
                Operand::var("P"),
                Operand::num(99.0),
                Operand::num(1.0),
                Operand::num(1.0),
                Operand::num(1.0),
                Operand::num(1.0),
            ],
            Some("P"),
        ))
        .unwrap();
        assert_eq!(e.pool.get("P").unwrap().get(0, 0), 99.0);
    }

    #[test]
    fn while_loop_program() {
        use crate::program::{Predicate, RtBlock};
        let mut e = exec();
        e.scalars.insert("i".into(), ScalarValue::Num(0.0));
        let pred = Predicate {
            instructions: vec![cp(
                OpCode::BinarySS(BinaryOp::Less),
                vec![Operand::var("i"), Operand::num(5.0)],
                Some("__p"),
            )],
            result_var: "__p".into(),
        };
        let body = RtBlock::Generic {
            source: reml_lang::BlockId(1),
            instructions: vec![cp(
                OpCode::BinarySS(BinaryOp::Add),
                vec![Operand::var("i"), Operand::num(1.0)],
                Some("i"),
            )],
            requires_recompile: false,
        };
        let prog = RuntimeProgram {
            blocks: vec![RtBlock::While {
                source: reml_lang::BlockId(0),
                pred,
                body: vec![body],
                max_iter_hint: None,
            }],
            ..Default::default()
        };
        e.run(&prog, &mut NoRecompile).unwrap();
        assert_eq!(e.scalars["i"], ScalarValue::Num(5.0));
        assert_eq!(e.stats.loop_iterations, 5);
    }

    #[test]
    fn recompile_hook_invoked_and_replaces_plan() {
        struct Hook;
        impl RecompileHook for Hook {
            fn recompile(
                &mut self,
                _source: reml_lang::BlockId,
                _live: &dyn Fn(&str) -> Option<MatrixCharacteristics>,
            ) -> Option<Vec<Instruction>> {
                Some(vec![Instruction::Cp(CpInstruction {
                    opcode: OpCode::Assign,
                    operands: vec![Operand::num(42.0)],
                    output: Some("x".into()),
                    operand_mcs: vec![],
                    output_mc: MatrixCharacteristics::scalar(),
                    bound_bytes: None,
                })])
            }
        }
        let mut e = exec();
        let prog = RuntimeProgram {
            blocks: vec![RtBlock::Generic {
                source: reml_lang::BlockId(0),
                instructions: vec![cp(OpCode::Assign, vec![Operand::num(1.0)], Some("x"))],
                requires_recompile: true,
            }],
            ..Default::default()
        };
        e.run(&prog, &mut Hook).unwrap();
        assert_eq!(e.scalars["x"], ScalarValue::Num(42.0));
        assert_eq!(e.stats.recompilations, 1);
    }

    #[test]
    fn mr_job_executes_and_exports() {
        use crate::instructions::{MrLocation, MrOperator};
        let mut e = exec();
        e.pool.put("X", Arc::new(Matrix::constant(4, 2, 1.0)));
        e.pool.put("v", Arc::new(Matrix::constant(2, 1, 3.0)));
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), MatrixCharacteristics::dense(4, 2))],
            broadcast_inputs: vec![("v".into(), MatrixCharacteristics::dense(2, 1))],
            mappers: vec![MrOperator {
                opcode: OpCode::MatMult,
                operands: vec![Operand::var("X"), Operand::var("v")],
                output: Some("q".into()),
                operand_mcs: vec![],
                output_mc: MatrixCharacteristics::dense(4, 1),
                location: MrLocation::Map,
                task_mem_mb: 0.0,
            }],
            reducers: vec![],
            outputs: vec![("q".into(), MatrixCharacteristics::dense(4, 1))],
            shuffle: vec![],
        };
        e.execute(&Instruction::MrJob(job)).unwrap();
        assert_eq!(e.pool.get("q").unwrap().get(0, 0), 6.0);
        assert!(e.hdfs.exists("tmp/q"));
        assert_eq!(e.stats.mr_jobs, 1);
    }

    #[test]
    fn print_and_concat() {
        let mut e = exec();
        e.execute(&cp(
            OpCode::Concat,
            vec![
                Operand::Lit(ScalarValue::Str("iter=".into())),
                Operand::num(3.0),
            ],
            Some("msg"),
        ))
        .unwrap();
        e.execute(&cp(OpCode::Print, vec![Operand::var("msg")], None))
            .unwrap();
        assert_eq!(e.stats.printed, vec!["iter=3".to_string()]);
    }

    #[test]
    fn rmvar_cleans_up() {
        let mut e = exec();
        e.pool.put("a", Arc::new(Matrix::constant(1, 1, 1.0)));
        e.scalars.insert("b".into(), ScalarValue::Num(2.0));
        e.execute(&cp(
            OpCode::RmVar,
            vec![Operand::var("a"), Operand::var("b")],
            None,
        ))
        .unwrap();
        assert!(!e.pool.contains("a"));
        assert!(!e.scalars.contains_key("b"));
    }
}
