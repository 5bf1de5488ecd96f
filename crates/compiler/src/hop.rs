//! High-level operator (HOP) DAGs.
//!
//! One [`HopDag`] is built per generic statement block (and per
//! predicate). Nodes are appended in construction order, which is a valid
//! topological order by construction; edges point from consumer to
//! producers (`inputs`). Construction performs common-subexpression
//! elimination through a structural hash map.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use reml_runtime::hash::{FxHashMap, FxHasher};

use reml_matrix::{AggOp, BinaryOp, MatrixCharacteristics, UnaryOp};

/// Index of a HOP within its DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HopId(pub usize);

/// Value type of a HOP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VType {
    /// Matrix-typed.
    Matrix,
    /// Numeric/boolean scalar.
    Scalar,
    /// String scalar.
    Str,
}

/// High-level operators. Binary operators carry the operand typing
/// (matrix-matrix / matrix-scalar / ...) because it determines both
/// memory estimates and physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum HopOp {
    /// Transient read of a live variable: the name is the environment's
    /// own key, shared with every instruction that lowering emits for it.
    TRead(Arc<str>),
    /// Transient write to a live variable (block output).
    TWrite(Arc<str>),
    /// Persistent read from HDFS.
    PRead(Arc<str>),
    /// Persistent write to HDFS.
    PWrite(Arc<str>),
    /// Scalar literal.
    LitNum(f64),
    /// String literal.
    LitStr(String),
    /// Boolean literal.
    LitBool(bool),
    /// Matrix multiply.
    MatMult,
    /// Elementwise binary, matrix (op) matrix.
    BinaryMM(BinaryOp),
    /// Matrix (op) scalar.
    BinaryMS(BinaryOp),
    /// Scalar (op) matrix.
    BinarySM(BinaryOp),
    /// Scalar (op) scalar.
    BinarySS(BinaryOp),
    /// String concatenation.
    Concat,
    /// Elementwise unary on a matrix.
    UnaryM(UnaryOp),
    /// Unary on a scalar.
    UnaryS(UnaryOp),
    /// Aggregation.
    Agg(AggOp),
    /// Transpose.
    Transpose,
    /// Diagonal extract/expand.
    Diag,
    /// `matrix(v, rows, cols)`; inputs: value, rows, cols (scalars).
    DataGenConst,
    /// `seq(from, to[, by])`.
    DataGenSeq,
    /// `rand(rows, cols, sparsity, seed)`.
    DataGenRand,
    /// `table(seq(1, n), y)`; input: y. Output columns data-dependent.
    TableSeq,
    /// Right indexing; inputs: matrix, rl, rh, cl, ch (scalars; literal 0
    /// encodes an open bound).
    RightIndex,
    /// Left indexing; inputs: target, value, rl, rh, cl, ch.
    LeftIndex,
    /// Horizontal concatenation.
    Append,
    /// Vertical concatenation.
    RBind,
    /// Dense solve; inputs: A, b.
    Solve,
    /// `nrow` (scalar result).
    NRow,
    /// `ncol` (scalar result).
    NCol,
    /// Cast 1×1 matrix to scalar.
    CastScalar,
    /// Cast scalar to 1×1 matrix.
    CastMatrix,
    /// Print (sink).
    Print,
    /// Fused `t(X) %*% (X %*% v)` chain (created by rewrites).
    MmChain,
}

impl HopOp {
    /// Whether this operator's output is a matrix.
    pub fn is_matrix_op(&self) -> bool {
        matches!(
            self,
            HopOp::TRead(_)
                | HopOp::PRead(_)
                | HopOp::MatMult
                | HopOp::BinaryMM(_)
                | HopOp::BinaryMS(_)
                | HopOp::BinarySM(_)
                | HopOp::UnaryM(_)
                | HopOp::Transpose
                | HopOp::Diag
                | HopOp::DataGenConst
                | HopOp::DataGenSeq
                | HopOp::DataGenRand
                | HopOp::TableSeq
                | HopOp::RightIndex
                | HopOp::LeftIndex
                | HopOp::Append
                | HopOp::RBind
                | HopOp::Solve
                | HopOp::CastMatrix
                | HopOp::MmChain
        ) || matches!(self, HopOp::Agg(a) if !a.is_full_reduction())
    }

    /// Whether CSE may merge this operator (sinks and writes never merge).
    fn mergeable(&self) -> bool {
        !matches!(self, HopOp::TWrite(_) | HopOp::PWrite(_) | HopOp::Print)
    }

    /// CSE identity: equal exactly when the `Debug` renderings are, which
    /// for a number means the same bits, every NaN alike.
    fn cse_eq(&self, other: &HopOp) -> bool {
        match (self, other) {
            (HopOp::LitNum(a), HopOp::LitNum(b)) => {
                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
            }
            (a, b) => a == b,
        }
    }

    /// A hash consistent with [`HopOp::cse_eq`].
    fn cse_hash(&self, inputs: &[HopId]) -> u64 {
        let mut h = FxHasher::default();
        std::mem::discriminant(self).hash(&mut h);
        match self {
            HopOp::TRead(s) | HopOp::PRead(s) => s.hash(&mut h),
            HopOp::LitStr(s) => s.hash(&mut h),
            HopOp::LitNum(v) if !v.is_nan() => v.to_bits().hash(&mut h),
            _ => {}
        }
        inputs.hash(&mut h);
        h.finish()
    }
}

/// One node of a HOP DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    /// Operator.
    pub op: HopOp,
    /// Producer hops, positional.
    pub inputs: Vec<HopId>,
    /// Value type.
    pub vtype: VType,
    /// Inferred output characteristics (scalars use 1×1).
    pub mc: MatrixCharacteristics,
    /// Operation memory estimate, MB (`f64::INFINITY` when unknown).
    /// Filled by [`crate::memest`].
    pub mem_mb: f64,
}

/// One common-subexpression hit during DAG construction: an `add` call
/// returned an existing node instead of appending. Recorded so the
/// translation validator (PL054) can re-check that sharing only ever
/// happens across pure operators.
#[derive(Debug, Clone, PartialEq)]
pub struct CseHit {
    /// Structural key of the merged operator (its `Debug` rendering).
    pub key: String,
    /// Inputs of the merged node.
    pub inputs: Vec<HopId>,
    /// The existing node the add was merged into.
    pub merged_into: HopId,
}

/// Every mergeable `(op, inputs)` added to a DAG, as it was added (a
/// rewrite that later changes a node in place does not change what it is
/// found under), chained by [`HopOp::cse_hash`].
#[derive(Debug, Clone, Default)]
struct CseIndex {
    /// First entry of each hash chain.
    heads: FxHashMap<u64, usize>,
    /// `(op, its inputs in `inputs`, node, next entry of the chain)`.
    entries: Vec<(HopOp, std::ops::Range<usize>, HopId, Option<usize>)>,
    inputs: Vec<HopId>,
}

impl CseIndex {
    fn find(&self, hash: u64, op: &HopOp, inputs: &[HopId]) -> Option<HopId> {
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            let (o, range, id, next) = &self.entries[i];
            if o.cse_eq(op) && self.inputs[range.clone()] == *inputs {
                return Some(*id);
            }
            at = *next;
        }
        None
    }

    fn insert(&mut self, hash: u64, op: HopOp, inputs: &[HopId], id: HopId) {
        let start = self.inputs.len();
        self.inputs.extend_from_slice(inputs);
        let next = self.heads.insert(hash, self.entries.len());
        self.entries.push((op, start..self.inputs.len(), id, next));
    }
}

/// A HOP DAG for one generic block or predicate.
#[derive(Debug, Clone, Default)]
pub struct HopDag {
    /// Nodes in topological (construction) order.
    pub hops: Vec<Hop>,
    cse: CseIndex,
    /// CSE hits during construction.
    pub cse_hits: u64,
    /// Audit log of every CSE merge, in occurrence order.
    pub cse_log: Vec<CseHit>,
    /// Set by [`HopDag::unmerged`]: `add` always appends.
    no_cse: bool,
}

impl HopDag {
    /// Empty DAG.
    pub fn new() -> Self {
        HopDag::default()
    }

    /// An empty DAG without CSE, for a build that only propagates sizes:
    /// a merged node has the type and size the duplicate would have.
    pub fn unmerged() -> Self {
        HopDag {
            no_cse: true,
            ..HopDag::default()
        }
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Append a hop, applying CSE: if an identical (op, inputs) node
    /// exists, return its id instead of appending.
    pub fn add(
        &mut self,
        op: HopOp,
        inputs: Vec<HopId>,
        vtype: VType,
        mc: MatrixCharacteristics,
    ) -> HopId {
        let id = HopId(self.hops.len());
        if op.mergeable() && !self.no_cse {
            let hash = op.cse_hash(&inputs);
            if let Some(existing) = self.cse.find(hash, &op, &inputs) {
                self.cse_hits += 1;
                self.cse_log.push(CseHit {
                    key: format!("{op:?}"),
                    inputs,
                    merged_into: existing,
                });
                return existing;
            }
            self.cse.insert(hash, op.clone(), &inputs, id);
        }
        self.hops.push(Hop {
            op,
            inputs,
            vtype,
            mc,
            mem_mb: 0.0,
        });
        id
    }

    /// Immutable node access.
    pub fn hop(&self, id: HopId) -> &Hop {
        &self.hops[id.0]
    }

    /// Mutable node access.
    pub fn hop_mut(&mut self, id: HopId) -> &mut Hop {
        &mut self.hops[id.0]
    }

    /// Ids of hops actually reachable from sinks (TWrite/PWrite/Print and
    /// any hop referenced externally via `extra_roots`), in **topological
    /// order** (every producer precedes its consumers). Construction
    /// order is topological for freshly built DAGs, but rewrites may
    /// append producer nodes after their consumers, so a DFS post-order
    /// is computed explicitly. Dead code (e.g. CSE leftovers) is
    /// excluded.
    pub fn live_hops(&self, extra_roots: &[HopId]) -> Vec<HopId> {
        let roots = self
            .hops
            .iter()
            .enumerate()
            .filter(|(_, h)| matches!(h.op, HopOp::TWrite(_) | HopOp::PWrite(_) | HopOp::Print))
            .map(|(i, _)| HopId(i))
            .chain(extra_roots.iter().copied());
        let mut state = vec![0u8; self.hops.len()]; // 0 unvisited, 1 open, 2 done
        let mut order: Vec<HopId> = Vec::with_capacity(self.hops.len());
        // Iterative DFS with explicit (node, next-child) frames; like
        // `order`, it holds each hop at most once.
        let mut stack: Vec<(HopId, usize)> = Vec::with_capacity(self.hops.len());
        for root in roots {
            if state[root.0] != 0 {
                continue;
            }
            state[root.0] = 1;
            stack.push((root, 0));
            while let Some(&mut (id, ref mut child)) = stack.last_mut() {
                let inputs = &self.hops[id.0].inputs;
                if *child < inputs.len() {
                    let next = inputs[*child];
                    *child += 1;
                    if state[next.0] == 0 {
                        state[next.0] = 1;
                        stack.push((next, 0));
                    }
                } else {
                    state[id.0] = 2;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        order
    }

    /// Consumer counts per hop (over live hops only).
    pub fn consumer_counts(&self, extra_roots: &[HopId]) -> Vec<usize> {
        let live = self.live_hops(extra_roots);
        let mut counts = vec![0usize; self.hops.len()];
        for id in &live {
            for input in &self.hops[id.0].inputs {
                counts[input.0] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MatrixCharacteristics {
        MatrixCharacteristics::dense(10, 10)
    }

    #[test]
    fn cse_merges_identical_subtrees() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::TRead("x".into()), vec![], VType::Matrix, mc());
        let a = dag.add(HopOp::Transpose, vec![x], VType::Matrix, mc());
        let b = dag.add(HopOp::Transpose, vec![x], VType::Matrix, mc());
        assert_eq!(a, b);
        assert_eq!(dag.len(), 2);
        assert_eq!(dag.cse_hits, 1);
    }

    #[test]
    fn writes_never_merged() {
        let mut dag = HopDag::new();
        let x = dag.add(
            HopOp::LitNum(1.0),
            vec![],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let w1 = dag.add(
            HopOp::TWrite("a".into()),
            vec![x],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let w2 = dag.add(
            HopOp::TWrite("a".into()),
            vec![x],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        assert_ne!(w1, w2);
    }

    #[test]
    fn different_ops_not_merged() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::TRead("x".into()), vec![], VType::Matrix, mc());
        let a = dag.add(HopOp::UnaryM(UnaryOp::Abs), vec![x], VType::Matrix, mc());
        let b = dag.add(HopOp::UnaryM(UnaryOp::Sqrt), vec![x], VType::Matrix, mc());
        assert_ne!(a, b);
    }

    #[test]
    fn live_hops_prune_dead_code() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::TRead("x".into()), vec![], VType::Matrix, mc());
        let _dead = dag.add(HopOp::UnaryM(UnaryOp::Abs), vec![x], VType::Matrix, mc());
        let live_op = dag.add(HopOp::Transpose, vec![x], VType::Matrix, mc());
        dag.add(
            HopOp::TWrite("out".into()),
            vec![live_op],
            VType::Matrix,
            mc(),
        );
        let live = dag.live_hops(&[]);
        assert_eq!(live.len(), 3); // x, transpose, twrite
        assert!(!live.contains(&HopId(1)));
    }

    #[test]
    fn extra_roots_keep_hops_alive() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::TRead("x".into()), vec![], VType::Matrix, mc());
        let op = dag.add(HopOp::UnaryM(UnaryOp::Abs), vec![x], VType::Matrix, mc());
        assert!(dag.live_hops(&[]).is_empty());
        assert_eq!(dag.live_hops(&[op]).len(), 2);
    }

    #[test]
    fn consumer_counts() {
        let mut dag = HopDag::new();
        let x = dag.add(HopOp::TRead("x".into()), vec![], VType::Matrix, mc());
        let t = dag.add(HopOp::Transpose, vec![x], VType::Matrix, mc());
        let m = dag.add(HopOp::MatMult, vec![t, x], VType::Matrix, mc());
        dag.add(HopOp::TWrite("g".into()), vec![m], VType::Matrix, mc());
        let counts = dag.consumer_counts(&[]);
        assert_eq!(counts[x.0], 2); // transpose + matmult
        assert_eq!(counts[t.0], 1);
        assert_eq!(counts[m.0], 1);
    }

    #[test]
    fn matrix_op_classification() {
        assert!(HopOp::MatMult.is_matrix_op());
        assert!(HopOp::Agg(AggOp::RowSums).is_matrix_op());
        assert!(!HopOp::Agg(AggOp::Sum).is_matrix_op());
        assert!(!HopOp::NRow.is_matrix_op());
        assert!(!HopOp::LitNum(1.0).is_matrix_op());
    }
}
