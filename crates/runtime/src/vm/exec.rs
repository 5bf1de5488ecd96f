//! The register VM: executes [`VmProgram`]s over a slot-indexed frame.
//!
//! What an opcode does is stated once, in the shared table
//! (`ops::eval_op`); this module supplies the slot-keyed `OperandStore`
//! it runs against, and everything the table does not cover — control
//! flow over [`VmBlock`]s, recompiled fragments, fused chains. Against
//! the reference tree walker in [`crate::executor`] the per-instruction
//! costs are gone:
//!
//! * operand fetch is `touch_slot` + `peek_slot` — an array index and an
//!   LRU bump instead of a name hash per operand; matrices are shared
//!   `Arc<Matrix>` handles, so `assignvar`, `pread`, `pwrite`, an MR job's
//!   `tmp/` exports and [`VmExecutor::migrate`] copy no cells;
//! * a block marked for recompilation hands the hook a per-name size
//!   lookup, so a hook pays only for the live sizes it asks for;
//! * scalars live in a dense frame indexed by symbol id;
//! * mnemonics, metric names, and observation metadata are precomputed at
//!   lowering, so the hot loop allocates no strings;
//! * fused elementwise chains run over one flat buffer with a single
//!   output allocation (see [`FusedSpec`]).
//!
//! Divergences from the tree walker are deliberate and limited to pool
//! *residency*: fused intermediates never enter the buffer pool, so pool
//! statistics and LRU order can differ under fusion. Printed output,
//! scalar values, matrix values (bit-for-bit, including the dense/sparse
//! representation choice), HDFS contents, and `ExecStats` all match.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use reml_matrix::{DenseMatrix, Matrix};

use crate::bufferpool::{BufferPool, MigrationReport, SlotId};
use crate::executor::{
    for_trip_count, ExecError, ExecStats, MemObservation, RecompileHook, MAX_LOOP_ITERATIONS,
};
use crate::hdfs::HdfsStore;
use crate::ops::{binary_mm, eval_op, scalar_as_matrix, OperandStore};
use crate::value::ScalarValue;
use crate::vm::lower::lower_fragment;
use crate::vm::program::{
    Arg, FusedArg, FusedOpKind, FusedSpec, ObserveMeta, Tables, VmBlock, VmInstr, VmMrJob, VmOp,
    VmPredicate, VmProgram,
};

/// Resolved matrix input of one fused step.
#[derive(Clone, Copy)]
enum FusedMatIn {
    /// The chain's flowing intermediate.
    Flow,
    /// External variable by symbol id.
    Slot(u32),
    /// Literal in matrix position (1×1).
    Lit(f64),
}

/// One fused step with operands resolved for execution.
struct ResolvedStep {
    kind: FusedOpKind,
    /// Matrix inputs in positional order (1 for MS/SM/Unary, 2 for MM).
    mats: Vec<FusedMatIn>,
    /// The scalar operand of an MS/SM step.
    scalar: Option<f64>,
}

/// Run `f`, measuring its wall time in nanoseconds when a wall-clock
/// trace recorder or `observe` asks for it (0 otherwise). Under a
/// deterministic (sim-clock) recorder the measurement is skipped so
/// traces stay bit-reproducible. The flag says whether the time belongs
/// in a per-opcode trace histogram.
fn timed<T>(observe: bool, f: impl FnOnce() -> T) -> (T, u64, bool) {
    let trace_timed = reml_trace::enabled() && !reml_trace::deterministic();
    let t0 = (trace_timed || observe).then(std::time::Instant::now);
    let result = f();
    let wall_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
    (result, wall_ns, trace_timed)
}

/// The bytecode VM executor. One executor runs one program (plus any
/// recompiled fragments), or its consecutive parts around a
/// [`migrate`](VmExecutor::migrate); construct it with a CP budget and
/// staged HDFS inputs.
pub struct VmExecutor {
    /// Matrix variables as shared handles (slot-addressed).
    pub pool: BufferPool,
    /// The HDFS stand-in.
    pub hdfs: HdfsStore,
    /// Accumulated statistics (same accounting as the tree walker).
    pub stats: ExecStats,
    /// Scalar frame indexed by symbol id.
    frame: Vec<Option<ScalarValue>>,
    /// Preresolved pool slot per symbol id.
    pool_slots: Vec<SlotId>,
    /// Name-keyed scalar overflow: values seeded before the frame is
    /// bound, or spilled when a recompiled fragment rebinds the frame
    /// extension.
    pending_scalars: HashMap<String, ScalarValue>,
    oom_limit_bytes: Option<u64>,
    observe_memory: bool,
    observations: Vec<MemObservation>,
    /// Whether recompiled fragments are lowered with fusion (copied from
    /// the program at `run`).
    fuse_fragments: bool,
}

impl VmExecutor {
    /// New VM executor with the given CP budget (bytes) and staged inputs.
    pub fn new(cp_budget_bytes: u64, hdfs: HdfsStore) -> Self {
        VmExecutor {
            pool: BufferPool::new(cp_budget_bytes),
            hdfs,
            stats: ExecStats::default(),
            frame: Vec::new(),
            pool_slots: Vec::new(),
            pending_scalars: HashMap::new(),
            oom_limit_bytes: None,
            observe_memory: false,
            observations: Vec::new(),
            fuse_fragments: true,
        }
    }

    /// Builder: abort with [`ExecError::OutOfMemory`] past this limit.
    pub fn with_oom_limit(mut self, limit_bytes: u64) -> Self {
        self.oom_limit_bytes = Some(limit_bytes);
        self
    }

    /// Start recording one [`MemObservation`] per executed CP instruction.
    /// Fused chains and MR jobs record nothing, so a run that must
    /// observe every CP instruction lowers unfused
    /// (`VmLowerOptions { fuse: false }`); its §4 recompiled fragments
    /// stay unfused too.
    pub fn enable_memory_observation(&mut self) {
        self.observe_memory = true;
    }

    /// Drain the recorded memory observations.
    pub fn take_memory_observations(&mut self) -> Vec<MemObservation> {
        std::mem::take(&mut self.observations)
    }

    /// Seed a scalar variable before `run` (e.g. loop counters in tests).
    pub fn set_scalar(&mut self, name: &str, v: ScalarValue) {
        self.pending_scalars.insert(name.to_string(), v);
    }

    /// Current value of a scalar variable, if any.
    pub fn scalar(&self, name: &str) -> Option<ScalarValue> {
        self.pool_slots
            .iter()
            .position(|&s| self.pool.slot_name(s) == name)
            .and_then(|i| self.frame[i].clone())
            .or_else(|| self.pending_scalars.get(name).cloned())
    }

    /// Snapshot of all live scalar variables (differential testing).
    pub fn scalars(&self) -> HashMap<String, ScalarValue> {
        let mut out: HashMap<String, ScalarValue> = self.pending_scalars.clone();
        for (i, v) in self.frame.iter().enumerate() {
            if let Some(v) = v {
                out.insert(
                    self.pool.slot_name(self.pool_slots[i]).to_string(),
                    v.clone(),
                );
            }
        }
        out
    }

    /// Execute a lowered program with an optional recompilation hook.
    pub fn run(
        &mut self,
        program: &VmProgram,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        self.fuse_fragments = program.fused_enabled;
        self.rebind(&program.symbols, 0);
        let t = program.tables();
        for block in &program.blocks {
            self.run_block(&t, block, hook)?;
        }
        Ok(())
    }

    /// §4.1 AM runtime migration between two `run`s: write every dirty
    /// matrix to HDFS as `am_state/<name>`, then resume in a container
    /// whose pool holds `new_capacity_bytes`. Safe at program-block
    /// boundaries because all operators are stateless and intermediates
    /// are bound to logical variable names; scalars travel with the
    /// (tiny) serialized position state, here the frame itself.
    pub fn migrate(&mut self, new_capacity_bytes: u64) -> MigrationReport {
        let hdfs = &mut self.hdfs;
        self.pool.migrate(new_capacity_bytes, |name, m| {
            hdfs.write(format!("am_state/{name}"), Arc::clone(m))
        })
    }

    /// (Re)bind the frame and pool-slot table for `symbols` from index
    /// `base` upward. Scalars currently held in the rebound region are
    /// spilled to the name-keyed overflow first, so values survive when a
    /// later fragment reuses the extension indices for different names.
    fn rebind(&mut self, symbols: &crate::vm::program::SymbolTable, base: usize) {
        for i in base..self.frame.len() {
            if let Some(v) = self.frame[i].take() {
                let name = self.pool.slot_name(self.pool_slots[i]).to_string();
                self.pending_scalars.insert(name, v);
            }
        }
        self.frame.truncate(base);
        self.pool_slots.truncate(base);
        for i in base..symbols.len() {
            let name = symbols.name(i as u32);
            let slot = self.pool.resolve_slot(name);
            self.pool_slots.push(slot);
            let seeded = self.pending_scalars.remove(self.pool.slot_name(slot));
            self.frame.push(seeded);
        }
    }

    fn run_block(
        &mut self,
        t: &Tables<'_>,
        block: &VmBlock,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        match block {
            VmBlock::Generic {
                source,
                code,
                requires_recompile,
            } => {
                if *requires_recompile {
                    let pool = &self.pool;
                    if let Some(plan) = hook.recompile(*source, &|name| pool.characteristics(name))
                    {
                        self.stats.recompilations += 1;
                        let frag = lower_fragment(t.symbols, &plan, self.fuse_fragments);
                        self.rebind(&frag.symbols, t.symbols.len());
                        let ft = frag.tables();
                        for instr in &frag.code {
                            self.execute_instr(&ft, instr)?;
                        }
                        return Ok(());
                    }
                }
                for instr in code {
                    self.execute_instr(t, instr)?;
                }
                Ok(())
            }
            VmBlock::If {
                pred,
                then_blocks,
                else_blocks,
            } => {
                let branch = if self.eval_predicate(t, pred)? {
                    then_blocks
                } else {
                    else_blocks
                };
                for b in branch {
                    self.run_block(t, b, hook)?;
                }
                Ok(())
            }
            VmBlock::While { pred, body } => {
                let mut iters = 0usize;
                while self.eval_predicate(t, pred)? {
                    iters += 1;
                    if iters > MAX_LOOP_ITERATIONS {
                        return Err(ExecError::RunawayLoop(MAX_LOOP_ITERATIONS));
                    }
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(t, b, hook)?;
                    }
                }
                Ok(())
            }
            VmBlock::For {
                var,
                from,
                to,
                body,
            } => {
                let from_v = self.eval_predicate_num(t, from)?;
                let to_v = self.eval_predicate_num(t, to)?;
                for k in 0..for_trip_count(from_v, to_v)? {
                    SlotStore { vm: self, t }.bind_scalar(var, ScalarValue::Num(from_v + k as f64));
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(t, b, hook)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn predicate_value(
        &mut self,
        t: &Tables<'_>,
        pred: &VmPredicate,
    ) -> Result<ScalarValue, ExecError> {
        for instr in &pred.code {
            self.execute_instr(t, instr)?;
        }
        self.frame[pred.result as usize]
            .clone()
            .ok_or_else(|| ExecError::UnknownVariable(t.symbols.name(pred.result).to_string()))
    }

    fn eval_predicate(&mut self, t: &Tables<'_>, pred: &VmPredicate) -> Result<bool, ExecError> {
        let v = self.predicate_value(t, pred)?;
        v.as_bool().ok_or_else(|| {
            ExecError::TypeError(format!(
                "predicate '{}' not boolean",
                t.symbols.name(pred.result)
            ))
        })
    }

    fn eval_predicate_num(&mut self, t: &Tables<'_>, pred: &VmPredicate) -> Result<f64, ExecError> {
        let v = self.predicate_value(t, pred)?;
        v.as_f64().ok_or_else(|| {
            ExecError::TypeError(format!("'{}' not numeric", t.symbols.name(pred.result)))
        })
    }

    /// Execute one instruction with stats, per-opcode timing
    /// (`vm.op.<mnemonic>` histograms), and opt-in memory observation.
    fn execute_instr(&mut self, t: &Tables<'_>, instr: &VmInstr) -> Result<(), ExecError> {
        let meta = &t.metas[instr.meta as usize];
        if let VmOp::MrJob { job } = instr.op {
            self.stats.mr_jobs += 1;
            reml_trace::count("exec.mr_jobs", 1);
            let job = &t.mr_jobs[job as usize];
            let (result, wall_ns, trace_timed) = timed(false, || self.execute_mr_job(t, job));
            if trace_timed {
                reml_trace::metrics()
                    .histogram("vm.op.mr_job")
                    .observe(wall_ns / 1_000);
            }
            return result;
        }
        self.stats.cp_instructions += meta.cp_count;
        let observe = meta.observe.as_ref().filter(|_| self.observe_memory);
        let (result, wall_ns, trace_timed) =
            timed(observe.is_some(), || self.execute_core(t, instr));
        result?;
        if trace_timed {
            reml_trace::metrics()
                .histogram(&meta.metric)
                .observe(wall_ns / 1_000);
        }
        if let Some(observe) = observe {
            self.record_observation(&meta.mnemonic, observe, wall_ns);
        }
        Ok(())
    }

    /// Record predicted vs. actual footprint of one CP instruction.
    /// Prediction and the touched set were precomputed at lowering;
    /// actual sums the live pool sizes of the touched slots.
    fn record_observation(&mut self, opcode: &str, meta: &ObserveMeta, wall_ns: u64) {
        let actual_bytes: u64 = meta
            .touched
            .iter()
            .filter_map(|&s| self.pool.peek_slot(self.slot(s)).map(|m| m.size_bytes()))
            .sum();
        MemObservation {
            opcode: opcode.to_string(),
            predicted_bytes: meta.predicted_bytes,
            actual_bytes,
            resident_bytes: self.pool.resident_bytes(),
            bound_bytes: meta.bound_bytes,
            wall_ns,
            predicted_flops: meta.predicted_flops,
        }
        .record(&mut self.observations);
    }

    fn execute_mr_job(&mut self, t: &Tables<'_>, job: &VmMrJob) -> Result<(), ExecError> {
        for op in &job.ops {
            self.execute_core(t, op)?;
        }
        for &sym in &job.outputs {
            if !self.pool.touch_slot(self.slot(sym)) {
                return Err(ExecError::UnknownVariable(t.symbols.name(sym).to_string()));
            }
            let m = Arc::clone(self.pool.peek_slot(self.slot(sym)).expect("just touched"));
            self.hdfs.write(format!("tmp/{}", t.symbols.name(sym)), m);
            self.pool.mark_clean_slot(self.slot(sym));
        }
        Ok(())
    }

    fn slot(&self, sym: u32) -> SlotId {
        self.pool_slots[sym as usize]
    }

    /// One operation: fused chains here, every CP opcode through the
    /// shared table.
    fn execute_core(&mut self, t: &Tables<'_>, instr: &VmInstr) -> Result<(), ExecError> {
        let mut store = SlotStore { vm: self, t };
        match &instr.op {
            VmOp::Cp(op) => eval_op(&mut store, op, &instr.args, instr.out.as_ref()),
            VmOp::Fused { spec } => store.execute_fused(&t.fused[*spec as usize], instr.out),
            VmOp::MrJob { .. } => unreachable!("MR jobs are dispatched by execute_instr"),
        }
    }
}

/// The slot-keyed [`OperandStore`]: a [`VmExecutor`] together with the
/// tables (the program's or a recompiled fragment's) its instructions
/// index into.
struct SlotStore<'a> {
    vm: &'a mut VmExecutor,
    t: &'a Tables<'a>,
}

impl OperandStore for SlotStore<'_> {
    type Arg = Arg;
    type Out = u32;

    fn held_scalar(&self, arg: &Arg) -> Option<ScalarValue> {
        match *arg {
            Arg::Slot(s) => self.vm.frame[s as usize].clone(),
            Arg::Const(c) => Some(self.t.consts[c as usize].clone()),
        }
    }

    fn touch(&mut self, arg: &Arg) -> Result<(), ExecError> {
        if let Arg::Slot(s) = *arg {
            if self.vm.pool.touch_slot(self.vm.slot(s)) || self.vm.frame[s as usize].is_some() {
                return Ok(());
            }
            return Err(ExecError::UnknownVariable(
                self.t.symbols.name(s).to_string(),
            ));
        }
        Ok(())
    }

    fn peek(&self, arg: &Arg) -> Result<Cow<'_, Arc<Matrix>>, ExecError> {
        match *arg {
            Arg::Slot(s) => {
                if let Some(m) = self.vm.pool.peek_slot(self.vm.slot(s)) {
                    return Ok(Cow::Borrowed(m));
                }
                match &self.vm.frame[s as usize] {
                    Some(v) => scalar_as_matrix(v, || format!("'{}'", self.t.symbols.name(s))),
                    None => Err(ExecError::UnknownVariable(
                        self.t.symbols.name(s).to_string(),
                    )),
                }
            }
            Arg::Const(c) => scalar_as_matrix(&self.t.consts[c as usize], || "literal".into()),
        }
    }

    fn bind_matrix(&mut self, out: &u32, m: Arc<Matrix>, dirty: bool) {
        self.vm.frame[*out as usize] = None;
        self.vm
            .pool
            .put_slot_with_dirty(self.vm.slot(*out), m, dirty);
    }

    fn bind_scalar(&mut self, out: &u32, v: ScalarValue) {
        self.vm.pool.remove_slot(self.vm.slot(*out));
        self.vm.frame[*out as usize] = Some(v);
    }

    fn unbind(&mut self, arg: &Arg) {
        if let Arg::Slot(s) = *arg {
            self.vm.pool.remove_slot(self.vm.slot(s));
            self.vm.frame[s as usize] = None;
        }
    }

    fn mark_clean(&mut self, arg: &Arg) {
        if let Arg::Slot(s) = *arg {
            self.vm.pool.mark_clean_slot(self.vm.slot(s));
        }
    }

    fn hdfs_read(&mut self, path: &str) -> Result<Arc<Matrix>, ExecError> {
        self.vm
            .hdfs
            .read(path)
            .ok_or_else(|| ExecError::MissingInput(path.to_string()))
    }

    fn hdfs_write(&mut self, path: &str, m: Arc<Matrix>) {
        self.vm.hdfs.write(path, m);
    }

    fn print(&mut self, line: String) {
        self.vm.stats.printed.push(line);
    }

    fn oom_limit(&self) -> Option<(u64, u64)> {
        let limit = self.vm.oom_limit_bytes?;
        Some((self.vm.pool.resident_bytes(), limit))
    }
}

impl SlotStore<'_> {
    /// Execute a fused elementwise chain.
    ///
    /// The fast path runs all steps over one flat `f64` buffer when every
    /// external matrix input is pool-resident, dense, and exactly the
    /// chain's compile-time shape. To stay bit-identical with the unfused
    /// execution it tracks, after every step, whether the unfused result
    /// would have chosen the sparse representation — sparse intermediates
    /// normalize `-0.0` to `+0.0` (CSR compaction drops all zeros) and
    /// skip zero cells on zero-preserving ops, and the fast path
    /// replicates both effects in place.
    ///
    /// Anything else (sparse or missing inputs, runtime shapes diverging
    /// from compile-time, literals in matrix position) falls back to a
    /// stepwise path using the unfused operator semantics with chain
    /// intermediates kept as locals instead of pool entries.
    fn execute_fused(&mut self, spec: &FusedSpec, out: Option<u32>) -> Result<(), ExecError> {
        // Phase 1 (mutable): resolve operands in the same order the
        // unfused instructions would, touching pool slots and resolving
        // scalars, so restore accounting and resolution errors match.
        let mut fast = true;
        let mut steps = Vec::with_capacity(spec.steps.len());
        for step in &spec.steps {
            let matrix_positions: &[usize] = match step.kind {
                FusedOpKind::MM(_) => &[0, 1],
                FusedOpKind::MS(_) => &[0],
                FusedOpKind::SM(_) => &[1],
                FusedOpKind::Unary(_) => &[0],
            };
            let mut mats = Vec::with_capacity(matrix_positions.len());
            let mut scalar = None;
            for (p, arg) in step.args.iter().enumerate() {
                if matrix_positions.contains(&p) {
                    match *arg {
                        FusedArg::Flow => mats.push(FusedMatIn::Flow),
                        FusedArg::Slot(s) => {
                            self.touch(&Arg::Slot(s))?;
                            mats.push(FusedMatIn::Slot(s));
                        }
                        FusedArg::Const(c) => {
                            let f = self.t.consts[c as usize].as_f64().ok_or_else(|| {
                                ExecError::TypeError("literal not numeric".into())
                            })?;
                            mats.push(FusedMatIn::Lit(f));
                            fast = false;
                        }
                    }
                } else {
                    let arg = match *arg {
                        FusedArg::Slot(s) => Arg::Slot(s),
                        FusedArg::Const(c) => Arg::Const(c),
                        FusedArg::Flow => unreachable!("flow in scalar position"),
                    };
                    scalar = Some(self.scalar_num(&arg)?);
                }
            }
            steps.push(ResolvedStep {
                kind: step.kind,
                mats,
                scalar,
            });
        }
        // Phase 2: gate the fast path on every external input being a
        // pool-resident dense matrix of the chain's shape.
        fast = fast
            && steps.iter().flat_map(|step| &step.mats).all(|m| match m {
                FusedMatIn::Slot(s) => matches!(
                    self.vm.pool.peek_slot(self.vm.slot(*s)).map(Arc::as_ref),
                    Some(Matrix::Dense(d)) if d.rows() == spec.rows && d.cols() == spec.cols
                ),
                _ => true,
            });
        let result = if fast {
            Arc::new(self.vm.fused_fast(spec, &steps)?)
        } else {
            self.fused_stepwise(&steps)?
        };
        self.put_shared(out.as_ref(), result)
    }

    /// Fallback: execute the chain step by step with the unfused operator
    /// semantics, holding intermediates as locals.
    fn fused_stepwise(&self, steps: &[ResolvedStep]) -> Result<Arc<Matrix>, ExecError> {
        let mut flow: Option<Arc<Matrix>> = None;
        for step in steps {
            let input = |i: usize| -> Result<Cow<'_, Arc<Matrix>>, ExecError> {
                match step.mats[i] {
                    FusedMatIn::Flow => {
                        Ok(Cow::Borrowed(flow.as_ref().expect("flow set after step 0")))
                    }
                    FusedMatIn::Lit(f) => Ok(Cow::Owned(Arc::new(Matrix::constant(1, 1, f)))),
                    FusedMatIn::Slot(s) => self.peek(&Arg::Slot(s)),
                }
            };
            let result = match step.kind {
                FusedOpKind::MM(op) => binary_mm(op, &*input(0)?, &*input(1)?)?,
                FusedOpKind::MS(op) => {
                    input(0)?.binary_scalar(op, step.scalar.expect("MS has a scalar"))
                }
                FusedOpKind::SM(op) => {
                    input(0)?.scalar_binary(op, step.scalar.expect("SM has a scalar"))
                }
                FusedOpKind::Unary(op) => input(0)?.unary(op),
            };
            flow = Some(Arc::new(result));
        }
        Ok(flow.expect("chains have >= 2 steps"))
    }
}

impl VmExecutor {
    /// Fast path: one flat buffer, all steps in place.
    fn fused_fast(&self, spec: &FusedSpec, steps: &[ResolvedStep]) -> Result<Matrix, ExecError> {
        let (rows, cols) = (spec.rows, spec.cols);
        let n = rows * cols;
        let ext = |s: u32| -> &[f64] {
            match self.pool.peek_slot(self.slot(s)).map(Arc::as_ref) {
                Some(Matrix::Dense(d)) => d.data(),
                _ => unreachable!("gated dense"),
            }
        };
        let mut buf: Vec<f64> = vec![0.0; n];
        // Whether the unfused chain would currently hold the intermediate
        // in CSR form. Invariant: when true, every zero in `buf` is +0.0
        // (CSR compaction drops -0.0).
        let mut repr_sparse = false;
        for step in steps {
            match step.kind {
                FusedOpKind::MM(op) => {
                    // Both-dense elementwise: `Matrix::binary` returns what
                    // densifying its operands would, whatever their format,
                    // and `to_dense` of a sparse intermediate is exactly
                    // `buf` under the +0.0 invariant.
                    match (step.mats[0], step.mats[1]) {
                        (FusedMatIn::Slot(a), FusedMatIn::Slot(b)) => {
                            let (a, b) = (ext(a), ext(b));
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(a[i], b[i]);
                            }
                        }
                        (FusedMatIn::Flow, FusedMatIn::Slot(b)) => {
                            let b = ext(b);
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(*v, b[i]);
                            }
                        }
                        (FusedMatIn::Slot(a), FusedMatIn::Flow) => {
                            let a = ext(a);
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(a[i], *v);
                            }
                        }
                        (FusedMatIn::Flow, FusedMatIn::Flow) => {
                            for v in buf.iter_mut() {
                                *v = op.apply(*v, *v);
                            }
                        }
                        _ => unreachable!("literals force the stepwise path"),
                    }
                    repr_sparse = post_dense(&mut buf, rows, cols);
                }
                FusedOpKind::MS(op) => {
                    let s = step.scalar.expect("MS has a scalar");
                    let flow = matches!(step.mats[0], FusedMatIn::Flow);
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    if flow && repr_sparse && op.apply(0.0, s) == 0.0 {
                        // Sparse binary_scalar: applies to stored values
                        // only; implicit zeros stay +0.0 and computed
                        // zeros are compacted away.
                        for v in buf.iter_mut() {
                            *v = if *v == 0.0 { 0.0 } else { op.apply(*v, s) };
                        }
                        repr_sparse = post_sparse(&mut buf, rows, cols);
                    } else {
                        for v in buf.iter_mut() {
                            *v = op.apply(*v, s);
                        }
                        repr_sparse = post_dense(&mut buf, rows, cols);
                    }
                }
                FusedOpKind::SM(op) => {
                    // On a CSR intermediate with `op(s, +0.0) == 0`,
                    // scalar_binary maps the stored values and stays CSR;
                    // otherwise it densifies, and under the +0.0 invariant
                    // `buf` already equals that dense view. The dense loop
                    // mirrors both: in the CSR case the result's nnz is at
                    // most the input's, so it prefers CSR too and
                    // `post_dense` flushes zeros exactly as CSR compaction
                    // drops them.
                    let s = step.scalar.expect("SM has a scalar");
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    for v in buf.iter_mut() {
                        *v = op.apply(s, *v);
                    }
                    repr_sparse = post_dense(&mut buf, rows, cols);
                }
                FusedOpKind::Unary(op) => {
                    let flow = matches!(step.mats[0], FusedMatIn::Flow);
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    if flow && repr_sparse && op.is_zero_preserving() {
                        for v in buf.iter_mut() {
                            *v = if *v == 0.0 { 0.0 } else { op.apply(*v) };
                        }
                        repr_sparse = post_sparse(&mut buf, rows, cols);
                    } else {
                        for v in buf.iter_mut() {
                            *v = op.apply(*v);
                        }
                        repr_sparse = post_dense(&mut buf, rows, cols);
                    }
                }
            }
        }
        let d = DenseMatrix::from_vec(rows, cols, buf)?;
        Ok(Matrix::from_dense_auto(d))
    }
}

/// Post-step bookkeeping for a dense-semantics step (`from_dense_auto`):
/// if the result prefers CSR, all zeros become implicit +0.0; otherwise
/// the buffer is kept verbatim (including any -0.0). Returns whether the
/// unfused intermediate would now be sparse.
fn post_dense(buf: &mut [f64], rows: usize, cols: usize) -> bool {
    let nnz = buf.iter().filter(|v| **v != 0.0).count() as u64;
    if Matrix::prefers_sparse(rows, cols, nnz) {
        flush_zeros(buf);
        true
    } else {
        false
    }
}

/// Post-step bookkeeping for a sparse-path step (`from_sparse_auto` after
/// CSR compaction): *every* zero — implicit or computed — reads back as
/// +0.0 regardless of which representation wins.
fn post_sparse(buf: &mut [f64], rows: usize, cols: usize) -> bool {
    flush_zeros(buf);
    let nnz = buf.iter().filter(|v| **v != 0.0).count() as u64;
    Matrix::prefers_sparse(rows, cols, nnz)
}

fn flush_zeros(buf: &mut [f64]) {
    for v in buf.iter_mut() {
        if *v == 0.0 {
            *v = 0.0;
        }
    }
}
