//! HOP-level algebraic rewrites.
//!
//! Applied after DAG construction and size propagation, before memory
//! estimation and lowering. Each rewrite rebinds consumers rather than
//! deleting nodes; dead producers are dropped later by liveness
//! (`HopDag::live_hops`).
//!
//! Implemented rewrites (Appendix B's examples):
//!
//! * **vector dot product**: `sum(v * v)` / `sum(v * w)` over column
//!   vectors → `castScalar(t(v) %*% w)`, avoiding the elementwise
//!   intermediate;
//! * **MapMMChain fusion**: `t(X) %*% (X %*% v)` → fused `MmChain(X, v)`,
//!   enabling the single-pass map-side physical operator;
//! * **double transpose elimination**: `t(t(X))` → `X` for leaf `X`
//!   (reads and data generators), bit-exact;
//! * **multiplicative identity elimination**: `X * 1` / `X / 1` /
//!   `1 * X` → `X` for leaf `X` — restricted to Mul/Div because IEEE 754
//!   guarantees `x * 1.0 == x` and `x / 1.0 == x` bitwise, while `x + 0.0`
//!   does not (`-0.0 + 0.0` is `+0.0`);
//! * **ppred-free comparison folding** is already handled during
//!   construction (constant folding), so it does not reappear here.
//!
//! Every applied rewrite is recorded as a [`RewriteRecord`] in an audit
//! log so the PL050 translation-validation pass (`reml_planlint`) can
//! independently re-prove shape preservation, semantic equivalence, and
//! rule-specific obligations for each claimed transformation.

use crate::hop::{Hop, HopDag, HopId, HopOp, VType};

/// Outcome counters of a rewrite pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// `sum(v*w)` → dot-product rewrites applied.
    pub dot_products: u64,
    /// MmChain fusions applied.
    pub mm_chains: u64,
    /// `t(t(X))` eliminations applied.
    pub double_transposes: u64,
    /// `X * 1` / `X / 1` / `1 * X` eliminations applied.
    pub identity_elims: u64,
}

impl RewriteStats {
    /// Total rewrites applied.
    pub fn total(&self) -> u64 {
        self.dot_products + self.mm_chains + self.double_transposes + self.identity_elims
    }
}

/// Which rewrite rule produced a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteRule {
    /// `sum(BinaryMM(*, v, w))` → `CastScalar(MatMult(Transpose(v), w))`.
    DotProduct,
    /// `MatMult(Transpose(X), MatMult(X, v))` → `MmChain(X, v)`.
    MmChain,
    /// `Transpose(Transpose(X))` → `X` (leaf `X`).
    DoubleTranspose,
    /// `BinaryMS(Mul|Div)(X, 1)` / `BinarySM(Mul)(1, X)` → `X` (leaf `X`).
    IdentityElim,
}

impl RewriteRule {
    /// Stable name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            RewriteRule::DotProduct => "dot-product",
            RewriteRule::MmChain => "mmchain-fusion",
            RewriteRule::DoubleTranspose => "double-transpose",
            RewriteRule::IdentityElim => "identity-elim",
        }
    }
}

/// Audit record of one applied rewrite: everything a translation
/// validator needs to re-prove the transformation without trusting (or
/// re-running) the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteRecord {
    /// The rule that fired.
    pub rule: RewriteRule,
    /// The mutated root hop (consumers keep this id).
    pub root: HopId,
    /// Snapshot of every node in the matched region — root, interior
    /// nodes, and boundary inputs (the pattern's free variables) — taken
    /// *before* mutation. Boundary snapshots carry the characteristics
    /// concrete evaluation needs to build probe inputs.
    pub before: Vec<(HopId, Hop)>,
    /// Snapshot of the rewritten region (the new root plus any appended
    /// nodes) taken immediately *after* mutation.
    pub after: Vec<(HopId, Hop)>,
    /// Ids of nodes genuinely appended by this rewrite. CSE inside
    /// `HopDag::add` may satisfy a pattern from existing nodes, so this
    /// can be shorter than the number of `add` calls.
    pub new_nodes: Vec<HopId>,
    /// Named pattern variables (boundary inputs of the region).
    pub bindings: Vec<(&'static str, HopId)>,
    /// Human-readable claim of why the rewrite is sound, carrying the
    /// engine's own justification for the validator to check.
    pub justification: String,
}

impl RewriteRecord {
    /// Look up a binding by id.
    pub fn snapshot(&self, id: HopId) -> Option<&Hop> {
        self.before
            .iter()
            .chain(self.after.iter())
            .find(|(i, _)| *i == id)
            .map(|(_, h)| h)
    }
}

/// Apply all rewrites to a DAG in place.
pub fn apply_rewrites(dag: &mut HopDag) -> RewriteStats {
    apply_rewrites_logged(dag).0
}

/// Apply all rewrites, returning both the counters and the per-rewrite
/// audit log in application order.
pub fn apply_rewrites_logged(dag: &mut HopDag) -> (RewriteStats, Vec<RewriteRecord>) {
    let mut stats = RewriteStats::default();
    let mut log = Vec::new();
    rewrite_dot_products(dag, &mut stats, &mut log);
    rewrite_mm_chains(dag, &mut stats, &mut log);
    rewrite_double_transposes(dag, &mut stats, &mut log);
    rewrite_identity_elims(dag, &mut stats, &mut log);
    (stats, log)
}

/// Whether a hop may be duplicated verbatim by a copy-style rewrite
/// (`t(t(X))` / `X * 1`): leaves whose value is a pure function of their
/// operator and inputs. `DataGenRand` qualifies because generation is
/// deterministic in its seed input. Non-leaf ops are excluded so the
/// copy never duplicates real work (PL056's no-regression obligation).
fn leaf_copy_safe(op: &HopOp) -> bool {
    matches!(
        op,
        HopOp::TRead(_)
            | HopOp::PRead(_)
            | HopOp::DataGenConst
            | HopOp::DataGenSeq
            | HopOp::DataGenRand
    )
}

/// `sum(BinaryMM(*, v, w))` with column-vector operands becomes
/// `CastScalar(MatMult(Transpose(v), w))`.
fn rewrite_dot_products(dag: &mut HopDag, stats: &mut RewriteStats, log: &mut Vec<RewriteRecord>) {
    for i in 0..dag.hops.len() {
        let id = HopId(i);
        let (mul_id, is_sum) = match &dag.hop(id).op {
            HopOp::Agg(reml_matrix::AggOp::Sum) => (dag.hop(id).inputs.first().copied(), true),
            _ => (None, false),
        };
        if !is_sum {
            continue;
        }
        let Some(mul_id) = mul_id else { continue };
        let mul = dag.hop(mul_id);
        let HopOp::BinaryMM(reml_matrix::BinaryOp::Mul) = mul.op else {
            continue;
        };
        // Both operands must be column vectors of equal known length.
        let (a, b) = (mul.inputs[0], mul.inputs[1]);
        let (amc, bmc) = (dag.hop(a).mc, dag.hop(b).mc);
        if !(amc.is_col_vector()
            && bmc.is_col_vector()
            && amc.rows.is_some()
            && amc.rows == bmc.rows)
        {
            continue;
        }
        let before = vec![
            (id, dag.hop(id).clone()),
            (mul_id, dag.hop(mul_id).clone()),
            (a, dag.hop(a).clone()),
            (b, dag.hop(b).clone()),
        ];
        // Build t(a) %*% b and rebind the sum's consumerless body: we turn
        // the Agg hop itself into a CastScalar over the new matmult so all
        // existing consumers keep their HopId.
        let pre_len = dag.hops.len();
        let t = dag.add(HopOp::Transpose, vec![a], VType::Matrix, amc.transpose());
        let mm_mc = amc.transpose().matmult(&bmc);
        let mm = dag.add(HopOp::MatMult, vec![t, b], VType::Matrix, mm_mc);
        let agg = dag.hop_mut(id);
        agg.op = HopOp::CastScalar;
        agg.inputs = vec![mm];
        stats.dot_products += 1;
        let new_nodes: Vec<HopId> = [t, mm].into_iter().filter(|n| n.0 >= pre_len).collect();
        let mut after = vec![(id, dag.hop(id).clone())];
        after.extend(new_nodes.iter().map(|&n| (n, dag.hop(n).clone())));
        log.push(RewriteRecord {
            rule: RewriteRule::DotProduct,
            root: id,
            before,
            after,
            new_nodes,
            bindings: vec![("v", a), ("w", b)],
            justification: format!(
                "sum(v*w) over {}-element column vectors equals t(v)%*%w; \
                 both accumulate products in ascending index order",
                amc.rows.unwrap_or(0)
            ),
        });
    }
}

/// `MatMult(Transpose(X), MatMult(X, v))` with vector `v` becomes
/// `MmChain(X, v)`.
fn rewrite_mm_chains(dag: &mut HopDag, stats: &mut RewriteStats, log: &mut Vec<RewriteRecord>) {
    for i in 0..dag.hops.len() {
        let id = HopId(i);
        let HopOp::MatMult = dag.hop(id).op else {
            continue;
        };
        let [left, right] = dag.hop(id).inputs[..] else {
            continue;
        };
        let HopOp::Transpose = dag.hop(left).op else {
            continue;
        };
        let x_outer = dag.hop(left).inputs[0];
        let HopOp::MatMult = dag.hop(right).op else {
            continue;
        };
        let [x_inner, v] = dag.hop(right).inputs[..] else {
            continue;
        };
        if x_inner != x_outer {
            continue;
        }
        if !dag.hop(v).mc.is_col_vector() {
            continue;
        }
        let before = vec![
            (id, dag.hop(id).clone()),
            (left, dag.hop(left).clone()),
            (right, dag.hop(right).clone()),
            (x_outer, dag.hop(x_outer).clone()),
            (v, dag.hop(v).clone()),
        ];
        let out_mc = dag.hop(id).mc;
        let hop = dag.hop_mut(id);
        hop.op = HopOp::MmChain;
        hop.inputs = vec![x_outer, v];
        hop.mc = out_mc;
        stats.mm_chains += 1;
        log.push(RewriteRecord {
            rule: RewriteRule::MmChain,
            root: id,
            after: vec![(id, dag.hop(id).clone())],
            before,
            new_nodes: Vec::new(),
            bindings: vec![("X", x_outer), ("v", v)],
            justification: "fused kernel computes t(X) %*% (X %*% v) with the same \
                            two sequential multiply-accumulate passes"
                .to_string(),
        });
    }
}

/// `Transpose(Transpose(X))` for leaf `X` becomes a copy of `X` (the
/// root keeps its id so consumers are untouched). Bit-exact: transpose
/// moves values without arithmetic.
fn rewrite_double_transposes(
    dag: &mut HopDag,
    stats: &mut RewriteStats,
    log: &mut Vec<RewriteRecord>,
) {
    for i in 0..dag.hops.len() {
        let id = HopId(i);
        let HopOp::Transpose = dag.hop(id).op else {
            continue;
        };
        let inner = dag.hop(id).inputs[0];
        let HopOp::Transpose = dag.hop(inner).op else {
            continue;
        };
        if inner == id {
            continue;
        }
        let x = dag.hop(inner).inputs[0];
        if !leaf_copy_safe(&dag.hop(x).op) {
            continue;
        }
        let before = vec![
            (id, dag.hop(id).clone()),
            (inner, dag.hop(inner).clone()),
            (x, dag.hop(x).clone()),
        ];
        let copy = dag.hop(x).clone();
        *dag.hop_mut(id) = copy;
        stats.double_transposes += 1;
        log.push(RewriteRecord {
            rule: RewriteRule::DoubleTranspose,
            root: id,
            after: vec![(id, dag.hop(id).clone())],
            before,
            new_nodes: Vec::new(),
            bindings: vec![("X", x)],
            justification: "t(t(X)) permutes cells twice with no arithmetic; \
                            X is a pure leaf so duplicating it is value-identical"
                .to_string(),
        });
    }
}

/// `X * 1`, `X / 1`, and `1 * X` for leaf `X` become a copy of `X`.
/// Restricted to Mul/Div: IEEE 754 guarantees both bitwise.
fn rewrite_identity_elims(
    dag: &mut HopDag,
    stats: &mut RewriteStats,
    log: &mut Vec<RewriteRecord>,
) {
    use reml_matrix::BinaryOp;
    for i in 0..dag.hops.len() {
        let id = HopId(i);
        let (x, lit, op_name) = match &dag.hop(id).op {
            HopOp::BinaryMS(op @ (BinaryOp::Mul | BinaryOp::Div)) => {
                let [x, s] = dag.hop(id).inputs[..] else {
                    continue;
                };
                let name = if *op == BinaryOp::Mul {
                    "X * 1"
                } else {
                    "X / 1"
                };
                (x, s, name)
            }
            HopOp::BinarySM(BinaryOp::Mul) => {
                let [s, x] = dag.hop(id).inputs[..] else {
                    continue;
                };
                (x, s, "1 * X")
            }
            _ => continue,
        };
        let HopOp::LitNum(v) = dag.hop(lit).op else {
            continue;
        };
        if v != 1.0 {
            continue;
        }
        if !leaf_copy_safe(&dag.hop(x).op) {
            continue;
        }
        let before = vec![
            (id, dag.hop(id).clone()),
            (x, dag.hop(x).clone()),
            (lit, dag.hop(lit).clone()),
        ];
        let copy = dag.hop(x).clone();
        *dag.hop_mut(id) = copy;
        stats.identity_elims += 1;
        log.push(RewriteRecord {
            rule: RewriteRule::IdentityElim,
            root: id,
            after: vec![(id, dag.hop(id).clone())],
            before,
            new_nodes: Vec::new(),
            bindings: vec![("X", x)],
            justification: format!(
                "{op_name} with literal 1.0 is bit-exact under IEEE 754 \
                 (multiplicative identity); X is a pure leaf"
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_matrix::{AggOp, BinaryOp, MatrixCharacteristics};

    #[test]
    fn dot_product_rewrite_applies() {
        let mut dag = HopDag::new();
        let vmc = MatrixCharacteristics::dense(100, 1);
        let s = dag.add(HopOp::TRead("s".into()), vec![], VType::Matrix, vmc);
        let mul = dag.add(
            HopOp::BinaryMM(BinaryOp::Mul),
            vec![s, s],
            VType::Matrix,
            vmc,
        );
        let sum = dag.add(
            HopOp::Agg(AggOp::Sum),
            vec![mul],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        dag.add(
            HopOp::TWrite("dd".into()),
            vec![sum],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let (stats, log) = apply_rewrites_logged(&mut dag);
        assert_eq!(stats.dot_products, 1);
        // The Agg hop becomes CastScalar over a MatMult(t(s), s).
        assert!(matches!(dag.hop(sum).op, HopOp::CastScalar));
        let mm = dag.hop(sum).inputs[0];
        assert!(matches!(dag.hop(mm).op, HopOp::MatMult));
        // The elementwise multiply is now dead.
        let live = dag.live_hops(&[]);
        assert!(!live.contains(&mul));
        // Audit record captures the region.
        assert_eq!(log.len(), 1);
        let rec = &log[0];
        assert_eq!(rec.rule, RewriteRule::DotProduct);
        assert_eq!(rec.root, sum);
        assert_eq!(rec.new_nodes.len(), 2);
        assert!(rec.before.iter().any(|(i, _)| *i == mul));
        assert_eq!(rec.bindings, vec![("v", s), ("w", s)]);
    }

    #[test]
    fn dot_product_skips_matrices() {
        let mut dag = HopDag::new();
        let mmc = MatrixCharacteristics::dense(100, 10);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, mmc);
        let mul = dag.add(
            HopOp::BinaryMM(BinaryOp::Mul),
            vec![x, x],
            VType::Matrix,
            mmc,
        );
        let sum = dag.add(
            HopOp::Agg(AggOp::Sum),
            vec![mul],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        dag.add(
            HopOp::TWrite("o".into()),
            vec![sum],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let stats = apply_rewrites(&mut dag);
        assert_eq!(stats.dot_products, 0);
        assert!(matches!(dag.hop(sum).op, HopOp::Agg(AggOp::Sum)));
    }

    #[test]
    fn dot_product_skips_unknown_length() {
        let mut dag = HopDag::new();
        let vmc = MatrixCharacteristics {
            rows: None,
            cols: Some(1),
            nnz: None,
        };
        let s = dag.add(HopOp::TRead("s".into()), vec![], VType::Matrix, vmc);
        let mul = dag.add(
            HopOp::BinaryMM(BinaryOp::Mul),
            vec![s, s],
            VType::Matrix,
            vmc,
        );
        let sum = dag.add(
            HopOp::Agg(AggOp::Sum),
            vec![mul],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        dag.add(
            HopOp::TWrite("o".into()),
            vec![sum],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        assert_eq!(apply_rewrites(&mut dag).dot_products, 0);
    }

    #[test]
    fn mm_chain_fusion() {
        let mut dag = HopDag::new();
        let xmc = MatrixCharacteristics::dense(1000, 100);
        let vmc = MatrixCharacteristics::dense(100, 1);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, xmc);
        let v = dag.add(HopOp::TRead("v".into()), vec![], VType::Matrix, vmc);
        let xv = dag.add(HopOp::MatMult, vec![x, v], VType::Matrix, xmc.matmult(&vmc));
        let xt = dag.add(HopOp::Transpose, vec![x], VType::Matrix, xmc.transpose());
        let chain_mc = xmc.transpose().matmult(&xmc.matmult(&vmc));
        let out = dag.add(HopOp::MatMult, vec![xt, xv], VType::Matrix, chain_mc);
        dag.add(
            HopOp::TWrite("g".into()),
            vec![out],
            VType::Matrix,
            chain_mc,
        );
        let (stats, log) = apply_rewrites_logged(&mut dag);
        assert_eq!(stats.mm_chains, 1);
        assert!(matches!(dag.hop(out).op, HopOp::MmChain));
        assert_eq!(dag.hop(out).inputs, vec![x, v]);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].rule, RewriteRule::MmChain);
        assert_eq!(log[0].bindings, vec![("X", x), ("v", v)]);
        assert!(log[0].new_nodes.is_empty());
    }

    #[test]
    fn mm_chain_requires_same_x() {
        let mut dag = HopDag::new();
        let xmc = MatrixCharacteristics::dense(1000, 100);
        let vmc = MatrixCharacteristics::dense(100, 1);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, xmc);
        let y = dag.add(HopOp::TRead("Y".into()), vec![], VType::Matrix, xmc);
        let v = dag.add(HopOp::TRead("v".into()), vec![], VType::Matrix, vmc);
        let yv = dag.add(HopOp::MatMult, vec![y, v], VType::Matrix, xmc.matmult(&vmc));
        let xt = dag.add(HopOp::Transpose, vec![x], VType::Matrix, xmc.transpose());
        let out_mc = xmc.transpose().matmult(&xmc.matmult(&vmc));
        let out = dag.add(HopOp::MatMult, vec![xt, yv], VType::Matrix, out_mc);
        dag.add(HopOp::TWrite("g".into()), vec![out], VType::Matrix, out_mc);
        assert_eq!(apply_rewrites(&mut dag).mm_chains, 0);
    }

    #[test]
    fn double_transpose_eliminated_for_leaf() {
        let mut dag = HopDag::new();
        let mc = MatrixCharacteristics::dense(50, 20);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, mc);
        let t1 = dag.add(HopOp::Transpose, vec![x], VType::Matrix, mc.transpose());
        let t2 = dag.add(HopOp::Transpose, vec![t1], VType::Matrix, mc);
        dag.add(HopOp::TWrite("o".into()), vec![t2], VType::Matrix, mc);
        let (stats, log) = apply_rewrites_logged(&mut dag);
        assert_eq!(stats.double_transposes, 1);
        assert!(matches!(&dag.hop(t2).op, HopOp::TRead(n) if &**n == "X"));
        assert_eq!(log[0].rule, RewriteRule::DoubleTranspose);
        assert_eq!(log[0].root, t2);
        // The inner transpose is dead now.
        assert!(!dag.live_hops(&[]).contains(&t1));
    }

    #[test]
    fn double_transpose_skips_nonleaf() {
        let mut dag = HopDag::new();
        let mc = MatrixCharacteristics::dense(50, 50);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, mc);
        let mm = dag.add(HopOp::MatMult, vec![x, x], VType::Matrix, mc);
        let t1 = dag.add(HopOp::Transpose, vec![mm], VType::Matrix, mc);
        let t2 = dag.add(HopOp::Transpose, vec![t1], VType::Matrix, mc);
        dag.add(HopOp::TWrite("o".into()), vec![t2], VType::Matrix, mc);
        assert_eq!(apply_rewrites(&mut dag).double_transposes, 0);
    }

    #[test]
    fn identity_multiply_eliminated() {
        let mut dag = HopDag::new();
        let mc = MatrixCharacteristics::dense(10, 10);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, mc);
        let one = dag.add(
            HopOp::LitNum(1.0),
            vec![],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let m = dag.add(
            HopOp::BinaryMS(BinaryOp::Mul),
            vec![x, one],
            VType::Matrix,
            mc,
        );
        dag.add(HopOp::TWrite("o".into()), vec![m], VType::Matrix, mc);
        let (stats, log) = apply_rewrites_logged(&mut dag);
        assert_eq!(stats.identity_elims, 1);
        assert!(matches!(&dag.hop(m).op, HopOp::TRead(n) if &**n == "X"));
        assert_eq!(log[0].rule, RewriteRule::IdentityElim);
    }

    #[test]
    fn identity_elim_skips_add_zero_and_nonunit() {
        let mut dag = HopDag::new();
        let mc = MatrixCharacteristics::dense(10, 10);
        let x = dag.add(HopOp::TRead("X".into()), vec![], VType::Matrix, mc);
        let zero = dag.add(
            HopOp::LitNum(0.0),
            vec![],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        let two = dag.add(
            HopOp::LitNum(2.0),
            vec![],
            VType::Scalar,
            MatrixCharacteristics::scalar(),
        );
        // X + 0 must NOT be eliminated (-0.0 + 0.0 == +0.0 flips the bit).
        let add = dag.add(
            HopOp::BinaryMS(BinaryOp::Add),
            vec![x, zero],
            VType::Matrix,
            mc,
        );
        let mul2 = dag.add(
            HopOp::BinaryMS(BinaryOp::Mul),
            vec![x, two],
            VType::Matrix,
            mc,
        );
        dag.add(HopOp::TWrite("a".into()), vec![add], VType::Matrix, mc);
        dag.add(HopOp::TWrite("b".into()), vec![mul2], VType::Matrix, mc);
        assert_eq!(apply_rewrites(&mut dag).identity_elims, 0);
    }
}
