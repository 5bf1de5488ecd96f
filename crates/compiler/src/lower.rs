//! Operator selection and instruction generation (the LOP layer).
//!
//! Implements the memory-sensitive compilation steps of Appendix B,
//! Table 4:
//!
//! * **Execution type**: an operator runs in CP iff its memory estimate
//!   fits the CP budget; unknown estimates conservatively go to MR (and
//!   mark the block for dynamic recompilation).
//! * **Physical operators**: TSMM for `t(X) %*% X`; the transpose-fused
//!   `t(X) %*% v` map-side multiply; MapMM with the small side broadcast;
//!   MapMMChain; CPMM (shuffle) as the fallback; Map\* for matrix-vector
//!   elementwise ops.
//! * **Piggybacking** (delegated to [`crate::piggyback`]): consecutive MR
//!   operators are packed into jobs; a CP instruction consuming a pending
//!   MR output flushes the pending pack first, preserving execution order.

use std::cell::{OnceCell, RefCell};
use std::sync::Arc;

use reml_matrix::{AggOp, MatrixCharacteristics};
use reml_runtime::instructions::{CpInstruction, Instruction, OpCode, TEMP_PREFIX};
use reml_runtime::value::{Operand, ScalarValue};

use crate::config::CompileError;
use crate::hop::{Hop, HopDag, HopId, HopOp, VType};
use crate::memest::size_mb;
use crate::piggyback::{pack_jobs, MrOpKind, MrOpPlan};

/// Execution type of an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecType {
    /// In-memory control program.
    Cp,
    /// Distributed MapReduce.
    Mr,
}

/// The lowered form of one DAG.
#[derive(Debug, Clone)]
pub struct LoweredDag {
    /// Instructions in execution order (CP interleaved with MR jobs).
    pub instructions: Vec<Instruction>,
    /// Whether unknown sizes force dynamic recompilation of this block.
    pub requires_recompile: bool,
    /// Finite operator memory estimates, MB (input to the memory-based
    /// grid generator).
    pub mem_estimates_mb: Vec<f64>,
}

impl LoweredDag {
    /// Number of MR jobs.
    pub fn mr_jobs(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_mr()).count()
    }
}

/// Lower a DAG (sizes propagated, memory estimated) into instructions.
///
/// `extra_roots` keeps predicate roots alive and binds them to result
/// variables (an `Assign` is appended for each).
pub fn lower_dag(
    dag: &HopDag,
    cp_budget_mb: f64,
    mr_budget_mb: f64,
    extra_roots: &[(HopId, Arc<str>)],
) -> Result<LoweredDag, CompileError> {
    Lowering {
        dag,
        cp_budget_mb,
        mr_budget_mb,
        consumers: OnceCell::new(),
    }
    .run(extra_roots)
}

/// A hop's finite, positive operator memory estimate, MB, when it is a
/// matrix operator (the grid generator's input and a CP/MR threshold).
fn mem_estimate_mb(hop: &Hop) -> Option<f64> {
    (hop.mem_mb.is_finite() && hop.mem_mb > 0.0 && hop.op.is_matrix_op()).then_some(hop.mem_mb)
}

/// Memory thresholds (MB) at which any lowering decision of `dag` with
/// the given extra `roots` can flip, independent of any particular budget:
///
/// * operator memory estimates (the CP/MR execution choice);
/// * sizes of live matrices (transpose fusion and the broadcast-side
///   checks of MR operator planning);
/// * sums over broadcast candidates (the cumulative broadcast-memory
///   constraint of [`pack_jobs`]). Each MR operator broadcasts at most
///   one of its matrix inputs, so candidate sums range over subsets of
///   the distinct matrix inputs of MR-capable operators; for large
///   candidate counts this falls back to contiguous-run sums, which
///   covers the packer's consecutive-pending-run accumulation.
///
/// Two memory budgets with no threshold between them lower the DAG to an
/// identical plan — the what-if session's cache keys on this property.
/// Nothing here reads a budget, so a session derives the thresholds once
/// per DAG rather than on every lowering.
pub fn decision_thresholds(dag: &HopDag, roots: &[HopId]) -> Vec<f64> {
    let live = dag.live_hops(roots);
    let mut out: Vec<f64> = live
        .iter()
        .filter_map(|&id| mem_estimate_mb(dag.hop(id)))
        .collect();
    let mut candidates: Vec<f64> = Vec::new();
    let mut seen_inputs = vec![false; dag.len()];
    for &id in &live {
        let hop = dag.hop(id);
        if hop.vtype == VType::Matrix {
            let s = size_mb(&hop.mc);
            if s.is_finite() && s > 0.0 {
                out.push(s);
            }
        }
        if is_mr_capable(&hop.op) {
            for &input in &hop.inputs {
                if dag.hop(input).vtype == VType::Matrix && !seen_inputs[input.0] {
                    seen_inputs[input.0] = true;
                    // Broadcast sizes are capped like `broadcasts_full`.
                    let s = size_mb(&dag.hop(input).mc).min(1e9);
                    if s.is_finite() && s > 0.0 {
                        candidates.push(s);
                    }
                }
            }
        }
    }
    if candidates.len() <= 12 {
        // All subset sums of two or more candidates (singletons are
        // already covered by the size thresholds above), in mask
        // order. A mask's sum is the sum of its lower bits plus its
        // highest candidate: the additions of summing its candidates
        // in index order, each done once.
        let mut sums = vec![0.0f64; 1 << candidates.len()];
        out.reserve(sums.len());
        for mask in 1..sums.len() {
            let high = mask.ilog2() as usize;
            sums[mask] = sums[mask ^ (1 << high)] + candidates[high];
            if mask.count_ones() >= 2 {
                out.push(sums[mask]);
            }
        }
    } else {
        for i in 0..candidates.len() {
            let mut sum = candidates[i];
            for c in &candidates[i + 1..] {
                sum += c;
                out.push(sum);
            }
        }
    }
    out
}

/// Whether an operator may run as an MR operator (matrix operators only).
fn is_mr_capable(op: &HopOp) -> bool {
    matches!(
        op,
        HopOp::MatMult
            | HopOp::MmChain
            | HopOp::BinaryMM(_)
            | HopOp::BinaryMS(_)
            | HopOp::BinarySM(_)
            | HopOp::UnaryM(_)
            | HopOp::Agg(_)
            | HopOp::Transpose
            | HopOp::TableSeq
            | HopOp::RightIndex
            | HopOp::LeftIndex
            | HopOp::Append
            | HopOp::RBind
            | HopOp::Diag
            | HopOp::DataGenConst
            | HopOp::DataGenSeq
            | HopOp::DataGenRand
    ) && op.is_matrix_op()
}

thread_local! {
    /// `_mVar{id}` for every hop id a lowering on this thread has named,
    /// indexed by id. Every lowering names hop `id`'s value the same, so
    /// one table serves them all: a name is formatted once per thread,
    /// and each instruction that references it holds a shared handle.
    static TEMP_NAMES: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// The name of hop `id`'s value when it is a block-local temporary:
/// `_mVar{id}`. The prefix is shared with the runtime: the VM's fusion
/// pass recognizes single-use compiler temporaries by it.
fn temp_name(id: HopId) -> Arc<str> {
    TEMP_NAMES.with(|names| {
        let mut names = names.borrow_mut();
        while names.len() <= id.0 {
            let name = format!("{TEMP_PREFIX}{}", names.len());
            names.push(name.into());
        }
        names[id.0].clone()
    })
}

struct Lowering<'a> {
    dag: &'a HopDag,
    cp_budget_mb: f64,
    mr_budget_mb: f64,
    /// Consumer lists over live hops, indexed by `HopId`: built at the
    /// first flush and the same for every later one.
    consumers: OnceCell<Vec<Vec<HopId>>>,
}

impl<'a> Lowering<'a> {
    fn run(&self, extra_roots: &[(HopId, Arc<str>)]) -> Result<LoweredDag, CompileError> {
        let root_ids: Vec<HopId> = extra_roots.iter().map(|(id, _)| *id).collect();
        let live = self.dag.live_hops(&root_ids);

        // Per-hop tables over the DAG, indexed by `HopId`; only live
        // entries are read. Consumer counts over live hops:
        let n = self.dag.len();
        let mut consumer_counts = vec![0u32; n];
        for &id in &live {
            for &input in &self.dag.hop(id).inputs {
                consumer_counts[input.0] += 1;
            }
        }

        // Phase 1: execution decisions + fusion set.
        let mut exec = vec![ExecType::Cp; n];
        let mut fused = vec![false; n];
        let mut requires_recompile = false;
        let mut mem_estimates = Vec::new();
        for &id in &live {
            mem_estimates.extend(mem_estimate_mb(self.dag.hop(id)));
            let e = self.decide_exec(id);
            if self.is_unknown_matrix_op(id) {
                requires_recompile = true;
            }
            exec[id.0] = e;
        }
        // Fusion: a Transpose feeding exactly one MatMult that the
        // physical operator absorbs (TSMM / transpose-fused MapMM) is not
        // materialized.
        for &id in &live {
            let hop = self.dag.hop(id);
            if !matches!(hop.op, HopOp::MatMult) {
                continue;
            }
            let [l, _r] = hop.inputs[..] else { continue };
            if !matches!(self.dag.hop(l).op, HopOp::Transpose) {
                continue;
            }
            if consumer_counts[l.0] != 1 {
                continue;
            }
            if self.matmult_absorbs_transpose(id) {
                fused[l.0] = true;
            }
        }

        // Phase 2: emission.
        let mut out: Vec<Instruction> = Vec::with_capacity(live.len());
        let mut pending: Vec<MrOpPlan> = Vec::new();
        // Hops consumed by CP instructions or block outputs: used by the
        // packer to decide job outputs.
        let mut external = vec![false; n];
        for &id in &live {
            let hop = self.dag.hop(id);
            if exec[id.0] == ExecType::Cp
                || !hop.op.is_matrix_op()
                || matches!(hop.op, HopOp::TWrite(_) | HopOp::PWrite(_) | HopOp::Print)
            {
                for &input in &hop.inputs {
                    external[input.0] = true;
                }
            }
        }
        for (root, _) in extra_roots {
            external[root.0] = true;
        }

        // Emission order: topological, but with all transient writes
        // moved to the end (in their original — i.e. assignment — order).
        // TWrites have no consumers, so delaying them is always legal;
        // it is also *required*: a `TRead(name)` operand renders as
        // `Var(name)`, and the variable must not be re-assigned before
        // every reader of its old value has executed.
        // Every transient write is a root of `live`, so the writes in id
        // order are the live ones.
        let is_twrite = |id: &HopId| matches!(self.dag.hop(*id).op, HopOp::TWrite(_));
        let compute = live.iter().copied().filter(|id| !is_twrite(id));
        let twrites = (0..n).map(HopId).filter(is_twrite);

        for id in compute.chain(twrites) {
            if fused[id.0] {
                continue;
            }
            let hop = self.dag.hop(id);
            match &hop.op {
                HopOp::LitNum(_) | HopOp::LitStr(_) | HopOp::LitBool(_) | HopOp::TRead(_) => {
                    // Pure bindings: no instruction.
                }
                HopOp::TWrite(name) => {
                    let input = hop.inputs[0];
                    self.flush_if_pending(&[input], &mut pending, &mut out, &live, &external);
                    out.push(Instruction::Cp(CpInstruction {
                        opcode: OpCode::Assign,
                        operands: vec![self.operand_of(input)],
                        output: Some(name.clone()),
                        operand_mcs: vec![self.dag.hop(input).mc],
                        output_mc: hop.mc,
                        bound_bytes: None,
                    }));
                }
                HopOp::PWrite(path) => {
                    let input = hop.inputs[0];
                    self.flush_if_pending(&[input], &mut pending, &mut out, &live, &external);
                    out.push(Instruction::Cp(CpInstruction {
                        opcode: OpCode::PersistentWrite {
                            path: path.to_string(),
                        },
                        operands: vec![self.operand_of(input)],
                        output: None,
                        operand_mcs: vec![self.dag.hop(input).mc],
                        output_mc: hop.mc,
                        bound_bytes: None,
                    }));
                }
                HopOp::PRead(path) => {
                    out.push(Instruction::Cp(CpInstruction {
                        opcode: OpCode::PersistentRead {
                            path: path.to_string(),
                        },
                        operands: vec![],
                        output: Some(path.clone()),
                        operand_mcs: vec![],
                        output_mc: hop.mc,
                        bound_bytes: None,
                    }));
                }
                _ => {
                    if exec[id.0] == ExecType::Mr {
                        pending.push(self.plan_mr(id, &fused));
                    } else {
                        self.flush_if_pending(
                            &hop.inputs,
                            &mut pending,
                            &mut out,
                            &live,
                            &external,
                        );
                        out.push(self.cp_instruction(id, &fused));
                    }
                }
            }
        }
        self.flush(&mut pending, &mut out, &live, &external);

        // Bind predicate roots to their result variables.
        for (root, var) in extra_roots {
            out.push(Instruction::Cp(CpInstruction {
                opcode: OpCode::Assign,
                operands: vec![self.operand_of(*root)],
                output: Some(var.clone()),
                operand_mcs: vec![self.dag.hop(*root).mc],
                output_mc: self.dag.hop(*root).mc,
                bound_bytes: None,
            }));
        }

        Ok(LoweredDag {
            instructions: out,
            requires_recompile,
            mem_estimates_mb: mem_estimates,
        })
    }

    fn is_unknown_matrix_op(&self, id: HopId) -> bool {
        let hop = self.dag.hop(id);
        hop.op.is_matrix_op() && !hop.mc.dims_known()
    }

    /// The CP/MR selection heuristic (§2.1): CP iff the operation memory
    /// estimate fits the CP budget. CP-only operators stay in CP
    /// regardless; pure-scalar operators are always CP.
    fn decide_exec(&self, id: HopId) -> ExecType {
        let hop = self.dag.hop(id);
        if !is_mr_capable(&hop.op) {
            return ExecType::Cp;
        }
        if hop.mem_mb <= self.cp_budget_mb {
            ExecType::Cp
        } else {
            ExecType::Mr
        }
    }

    /// Whether the chosen physical operator for a `MatMult(Transpose(X), B)`
    /// absorbs the transpose.
    fn matmult_absorbs_transpose(&self, id: HopId) -> bool {
        let hop = self.dag.hop(id);
        let [l, r] = hop.inputs[..] else { return false };
        let x = self.dag.hop(l).inputs[0];
        // TSMM: t(X) %*% X.
        if x == r {
            return true;
        }
        // Transpose-fused multiply: t(X) %*% small.
        size_mb(&self.dag.hop(r).mc) <= self.mr_budget_mb
            || size_mb(&self.dag.hop(r).mc) <= self.cp_budget_mb
    }

    /// Operand for a hop's value.
    fn operand_of(&self, id: HopId) -> Operand {
        match &self.dag.hop(id).op {
            HopOp::LitNum(v) => Operand::Lit(ScalarValue::Num(*v)),
            HopOp::LitStr(s) => Operand::Lit(ScalarValue::Str(s.clone())),
            HopOp::LitBool(b) => Operand::Lit(ScalarValue::Bool(*b)),
            HopOp::TRead(name) | HopOp::PRead(name) => Operand::Var(name.clone()),
            _ => Operand::Var(temp_name(id)),
        }
    }

    /// Variable name a hop's value lives under (for MR dataflow).
    fn var_name_of(&self, id: HopId) -> Arc<str> {
        match &self.dag.hop(id).op {
            HopOp::TRead(name) | HopOp::PRead(name) => name.clone(),
            _ => temp_name(id),
        }
    }

    /// Translate a hop into a CP instruction. `fused` transposes fold into
    /// `Tsmm`/`MatMultTransLeft` opcodes.
    fn cp_instruction(&self, id: HopId, fused: &[bool]) -> Instruction {
        let hop = self.dag.hop(id);
        let absorbed;
        let (opcode, inputs): (OpCode, &[HopId]) = match &hop.op {
            HopOp::MatMult => {
                let [l, r] = hop.inputs[..] else {
                    unreachable!("matmult has two inputs")
                };
                if fused[l.0] {
                    let x = self.dag.hop(l).inputs[0];
                    absorbed = [x, r];
                    if x == r {
                        (OpCode::Tsmm, &absorbed[..1])
                    } else {
                        (OpCode::MatMultTransLeft, &absorbed[..])
                    }
                } else {
                    (OpCode::MatMult, &hop.inputs[..])
                }
            }
            other => (hop_opcode(other), &hop.inputs[..]),
        };
        let operands: Vec<Operand> = inputs.iter().map(|i| self.operand_of(*i)).collect();
        let operand_mcs = inputs.iter().map(|i| self.dag.hop(*i).mc).collect();
        let output = if matches!(hop.op, HopOp::Print | HopOp::PWrite(_)) {
            None
        } else {
            Some(temp_name(id))
        };
        Instruction::Cp(CpInstruction {
            opcode,
            operands,
            output,
            operand_mcs,
            output_mc: hop.mc,
            bound_bytes: None,
        })
    }

    /// Physical planning of one MR operator.
    fn plan_mr(&self, id: HopId, fused: &[bool]) -> MrOpPlan {
        let hop = self.dag.hop(id);
        let matrix_inputs: Vec<HopId> = hop
            .inputs
            .iter()
            .copied()
            .filter(|i| self.dag.hop(*i).vtype == VType::Matrix)
            .collect();
        let small = |i: &HopId| size_mb(&self.dag.hop(*i).mc) <= self.mr_budget_mb;

        // Defaults filled per case below.
        let mut opcode = hop_opcode(&hop.op);
        let mut op_inputs: Vec<HopId> = hop.inputs.clone();
        #[allow(unused_assignments)]
        let mut kind = MrOpKind::MapOnly;
        let mut broadcasts: Vec<HopId> = Vec::new();
        let mut shuffle: Vec<MatrixCharacteristics> = Vec::new();

        match &hop.op {
            HopOp::MatMult => {
                let [l, r] = hop.inputs[..] else {
                    unreachable!()
                };
                if fused[l.0] {
                    let x = self.dag.hop(l).inputs[0];
                    if x == r {
                        // TSMM: partial products per split, aggregated.
                        opcode = OpCode::Tsmm;
                        op_inputs = vec![x];
                        kind = MrOpKind::MapWithAgg;
                        shuffle.push(hop.mc);
                    } else {
                        // t(X) %*% v with v broadcast; partial row-vector
                        // aggregation in reduce.
                        opcode = OpCode::MatMultTransLeft;
                        op_inputs = vec![x, r];
                        kind = MrOpKind::MapWithAgg;
                        broadcasts.push(r);
                        shuffle.push(hop.mc);
                    }
                } else if small(&r) {
                    // MapMM: broadcast right, stream left, map-only.
                    kind = MrOpKind::MapOnly;
                    broadcasts.push(r);
                } else if small(&l) {
                    // Broadcast left, stream right; partial outputs need
                    // aggregation across splits of the right input.
                    kind = MrOpKind::MapWithAgg;
                    broadcasts.push(l);
                    shuffle.push(hop.mc);
                } else {
                    // CPMM cross-product: shuffle both sides.
                    kind = MrOpKind::ShuffleJoin;
                    shuffle.push(self.dag.hop(l).mc);
                    shuffle.push(self.dag.hop(r).mc);
                }
            }
            HopOp::MmChain => {
                let [x, v] = hop.inputs[..] else {
                    unreachable!()
                };
                if small(&v) {
                    kind = MrOpKind::MapWithAgg;
                    broadcasts.push(v);
                    shuffle.push(hop.mc);
                } else {
                    kind = MrOpKind::ShuffleJoin;
                    shuffle.push(self.dag.hop(x).mc);
                    shuffle.push(self.dag.hop(v).mc);
                }
            }
            HopOp::BinaryMM(_) => {
                let [l, r] = hop.inputs[..] else {
                    unreachable!()
                };
                let lmc = self.dag.hop(l).mc;
                let rmc = self.dag.hop(r).mc;
                let l_vec = lmc.is_col_vector() || lmc.is_row_vector();
                let r_vec = rmc.is_col_vector() || rmc.is_row_vector();
                if r_vec && small(&r) && !l_vec {
                    kind = MrOpKind::MapOnly;
                    broadcasts.push(r);
                } else if l_vec && small(&l) && !r_vec {
                    kind = MrOpKind::MapOnly;
                    broadcasts.push(l);
                } else if small(&l) && small(&r) && (l_vec || r_vec) {
                    kind = MrOpKind::MapOnly;
                    broadcasts.push(if l_vec { l } else { r });
                } else {
                    // Aligned shuffle join of two large matrices.
                    kind = MrOpKind::ShuffleJoin;
                    shuffle.push(lmc);
                    shuffle.push(rmc);
                }
            }
            HopOp::BinaryMS(_) | HopOp::BinarySM(_) | HopOp::UnaryM(_) => {
                kind = MrOpKind::MapOnly;
            }
            HopOp::Agg(a) => {
                kind = match a {
                    AggOp::RowSums | AggOp::RowMaxs => MrOpKind::MapOnly,
                    _ => {
                        shuffle.push(hop.mc);
                        MrOpKind::MapWithAgg
                    }
                };
            }
            HopOp::Transpose => {
                kind = MrOpKind::ShuffleJoin;
                shuffle.push(self.dag.hop(hop.inputs[0]).mc);
            }
            HopOp::TableSeq => {
                kind = MrOpKind::MapWithAgg;
                shuffle.push(hop.mc);
            }
            HopOp::RightIndex
            | HopOp::LeftIndex
            | HopOp::Append
            | HopOp::RBind
            | HopOp::Diag
            | HopOp::DataGenConst
            | HopOp::DataGenSeq
            | HopOp::DataGenRand => {
                kind = MrOpKind::MapOnly;
            }
            other => unreachable!("non-MR op planned for MR: {other:?}"),
        }

        let streamed: Vec<(HopId, Arc<str>, MatrixCharacteristics)> = op_inputs
            .iter()
            .filter(|i| matrix_inputs.contains(i) && !broadcasts.contains(i))
            .map(|i| (*i, self.var_name_of(*i), self.dag.hop(*i).mc))
            .collect();
        let broadcasts_full: Vec<(HopId, Arc<str>, MatrixCharacteristics, f64)> = broadcasts
            .iter()
            .map(|i| {
                let mc = self.dag.hop(*i).mc;
                (*i, self.var_name_of(*i), mc, size_mb(&mc).min(1e9))
            })
            .collect();
        MrOpPlan {
            hop: id,
            kind,
            operands: op_inputs.iter().map(|i| self.operand_of(*i)).collect(),
            operand_mcs: op_inputs.iter().map(|i| self.dag.hop(*i).mc).collect(),
            opcode,
            output: temp_name(id),
            output_mc: hop.mc,
            broadcasts: broadcasts_full,
            streamed,
            shuffle,
        }
    }

    /// Flush the pending MR operators when one of `inputs` is among them.
    fn flush_if_pending(
        &self,
        inputs: &[HopId],
        pending: &mut Vec<MrOpPlan>,
        out: &mut Vec<Instruction>,
        live: &[HopId],
        external: &[bool],
    ) {
        if inputs.iter().any(|i| pending.iter().any(|p| p.hop == *i)) {
            self.flush(pending, out, live, external);
        }
    }

    fn flush(
        &self,
        pending: &mut Vec<MrOpPlan>,
        out: &mut Vec<Instruction>,
        live: &[HopId],
        external: &[bool],
    ) {
        if pending.is_empty() {
            return;
        }
        let _s = reml_trace::span!("compile.piggyback", pending = pending.len());
        // Consumer lists over live hops, which decide the jobs' outputs.
        let consumers = self.consumers.get_or_init(|| {
            let mut consumers = vec![Vec::new(); self.dag.len()];
            for &id in live {
                for &input in &self.dag.hop(id).inputs {
                    consumers[input.0].push(id);
                }
            }
            consumers
        });
        let jobs = pack_jobs(pending, self.mr_budget_mb, consumers, external);
        reml_trace::event!("compile.piggyback_packed", jobs = jobs.len());
        out.extend(jobs.into_iter().map(Instruction::MrJob));
        pending.clear();
    }
}

/// Map a HOP operator to its runtime opcode (the straightforward cases).
fn hop_opcode(op: &HopOp) -> OpCode {
    match op {
        HopOp::MatMult => OpCode::MatMult,
        HopOp::MmChain => OpCode::MmChain,
        HopOp::BinaryMM(b) => OpCode::BinaryMM(*b),
        HopOp::BinaryMS(b) => OpCode::BinaryMS(*b),
        HopOp::BinarySM(b) => OpCode::BinarySM(*b),
        HopOp::BinarySS(b) => OpCode::BinarySS(*b),
        HopOp::UnaryM(u) => OpCode::UnaryM(*u),
        HopOp::UnaryS(u) => OpCode::UnaryS(*u),
        HopOp::Agg(a) => OpCode::Agg(*a),
        HopOp::Transpose => OpCode::Transpose,
        HopOp::Diag => OpCode::Diag,
        HopOp::DataGenConst => OpCode::DataGenConst,
        HopOp::DataGenSeq => OpCode::DataGenSeq,
        HopOp::DataGenRand => OpCode::DataGenRand,
        HopOp::TableSeq => OpCode::TableSeq,
        HopOp::RightIndex => OpCode::RightIndex,
        HopOp::LeftIndex => OpCode::LeftIndex,
        HopOp::Append => OpCode::Append,
        HopOp::RBind => OpCode::AppendR,
        HopOp::Solve => OpCode::Solve,
        HopOp::NRow => OpCode::NRow,
        HopOp::NCol => OpCode::NCol,
        HopOp::CastScalar => OpCode::CastScalar,
        HopOp::CastMatrix => OpCode::CastMatrix,
        HopOp::Concat => OpCode::Concat,
        HopOp::Print => OpCode::Print,
        other => unreachable!("no direct opcode for {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BlockBuilder, Env};
    use crate::config::CompileConfig;
    use crate::memest::estimate_dag;
    use crate::rewrites::apply_rewrites;
    use reml_cluster::ClusterConfig;
    use reml_lang::parser::parse;

    /// Compile statements into a lowered DAG with the given heaps (MB).
    fn lower_src(src: &str, cp_heap: u64, mr_heap: u64) -> LoweredDag {
        let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), cp_heap, mr_heap)
            .with_param("X", ScalarValue::Str("hdfs:X".into()))
            .with_param("Y", ScalarValue::Str("hdfs:Y".into()))
            // 10^7 x 100 dense: 8 GB.
            .with_input("hdfs:X", MatrixCharacteristics::dense(10_000_000, 100))
            // 10^7 x 1: 80 MB.
            .with_input("hdfs:Y", MatrixCharacteristics::dense(10_000_000, 1));
        let program = parse(src).unwrap();
        let mut env = Env::new();
        let built = BlockBuilder::new(&cfg)
            .build_statements(&program.statements, &mut env)
            .unwrap();
        let mut dag = built.dag;
        apply_rewrites(&mut dag);
        estimate_dag(&mut dag);
        lower_dag(&dag, cfg.cp_budget_mb(), cfg.mr_budget_mb(0), &[]).unwrap()
    }

    #[test]
    fn small_memory_forces_mr() {
        let l = lower_src("X = read($X)\nY = read($Y)\ng = t(X) %*% Y", 512, 512);
        assert!(l.mr_jobs() >= 1, "expected MR jobs:\n{:?}", l.instructions);
        assert!(!l.requires_recompile);
    }

    #[test]
    fn huge_memory_stays_cp() {
        // 48 GB heap -> ~33 GB budget; the 8 GB X fits everywhere.
        let l = lower_src("X = read($X)\nY = read($Y)\ng = t(X) %*% Y", 48 * 1024, 512);
        assert_eq!(l.mr_jobs(), 0);
        // t(X) %*% Y lowered as fused transpose multiply.
        assert!(l
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Cp(c) if c.opcode == OpCode::MatMultTransLeft)));
    }

    #[test]
    fn tsmm_detected_cp() {
        let l = lower_src("X = read($X)\ng = t(X) %*% X", 48 * 1024, 512);
        assert!(l
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Cp(c) if c.opcode == OpCode::Tsmm)));
        // No standalone transpose materialized.
        assert!(!l
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Cp(c) if c.opcode == OpCode::Transpose)));
    }

    #[test]
    fn tsmm_detected_mr() {
        let l = lower_src("X = read($X)\ng = t(X) %*% X", 512, 2048);
        assert_eq!(l.mr_jobs(), 1);
        let Instruction::MrJob(job) = l.instructions.iter().find(|i| i.is_mr()).unwrap() else {
            panic!()
        };
        assert!(job.reducers.iter().any(|r| r.opcode == OpCode::Tsmm));
        assert!(job.has_reduce());
    }

    #[test]
    fn mapmm_broadcasts_small_side() {
        // X %*% w with small w: map-only job broadcasting w.
        let l = lower_src(
            "X = read($X)\nw = matrix(1, rows=ncol(X), cols=1)\nq = X %*% w",
            512,
            2048,
        );
        let job = l
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::MrJob(j) => Some(j),
                _ => None,
            })
            .expect("expected an MR job");
        assert!(!job.broadcast_inputs.is_empty());
        assert!(!job.has_reduce(), "MapMM with broadcast right is map-only");
    }

    #[test]
    fn cpmm_when_nothing_fits() {
        // Two huge matrices with tiny MR memory: shuffle join.
        let cfg_src = "X = read($X)\nG = t(X) %*% X";
        // mr heap 512 -> budget 358 MB; X is 8 GB; t(X) also 8 GB. TSMM
        // absorbs the transpose regardless, so force a non-TSMM pattern:
        let _ = cfg_src;
        let l = lower_src("X = read($X)\nY = read($X)\nP = X %*% t(Y)", 512, 512);
        // X %*% t(Y): t(Y) is 8 GB (not small) -> transpose materializes
        // (shuffle) then CPMM.
        assert!(l.mr_jobs() >= 1);
        let has_shuffle = l.instructions.iter().any(|i| match i {
            Instruction::MrJob(j) => j.shuffle_bytes() > 0,
            _ => false,
        });
        assert!(has_shuffle);
    }

    #[test]
    fn map_binary_broadcasts_vector() {
        let l = lower_src("X = read($X)\nY = read($Y)\nZ = X * Y", 512, 2048);
        let job = l
            .instructions
            .iter()
            .find_map(|i| match i {
                Instruction::MrJob(j) => Some(j),
                _ => None,
            })
            .expect("MR job");
        assert_eq!(job.broadcast_inputs.len(), 1);
        assert_eq!(&*job.broadcast_inputs[0].0, "hdfs:Y");
    }

    #[test]
    fn unknown_sizes_mark_recompile() {
        let l = lower_src(
            "Y = read($Y)\nT = table(seq(1, nrow(Y)), Y)\ns = sum(T)",
            512,
            512,
        );
        assert!(l.requires_recompile);
    }

    #[test]
    fn chained_elementwise_packs_one_job() {
        // out = abs(X * 2) + 1 -> three map-only ops, one job.
        let l = lower_src("X = read($X)\nO = abs(X * 2) + 1", 512, 2048);
        assert_eq!(l.mr_jobs(), 1);
        let Instruction::MrJob(job) = l.instructions.iter().find(|i| i.is_mr()).unwrap() else {
            panic!()
        };
        assert!(job.mappers.len() >= 3);
    }

    #[test]
    fn scalar_code_is_cp_even_with_tiny_budget() {
        let l = lower_src("a = 1\nb = a + 2\nc = b * b", 512, 512);
        assert_eq!(l.mr_jobs(), 0);
    }

    #[test]
    fn predicate_roots_bound() {
        let cfg = CompileConfig::new(ClusterConfig::small_test_cluster(), 512, 512);
        let program = parse("x = 1 < 2").unwrap();
        let reml_lang::ast::Statement::Assign { expr, .. } = &program.statements[0] else {
            panic!()
        };
        let mut env = Env::new();
        let mut builder = BlockBuilder::new(&cfg);
        let root = builder.build_expr(expr, &env).unwrap();
        let built = builder.build_statements(&[], &mut env).unwrap();
        let mut dag = built.dag;
        estimate_dag(&mut dag);
        let l = lower_dag(&dag, 358.0, 358.0, &[(root, "__pred".into())]).unwrap();
        let last = l.instructions.last().unwrap();
        match last {
            Instruction::Cp(c) => {
                assert_eq!(c.opcode, OpCode::Assign);
                assert_eq!(c.output.as_deref(), Some("__pred"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mem_estimates_collected() {
        let l = lower_src("X = read($X)\ns = sum(X)", 48 * 1024, 512);
        assert!(!l.mem_estimates_mb.is_empty());
    }
}
