//! Rewrite-layer rules (PL050–PL057): translation validation of the HOP
//! rewrite engine.
//!
//! The compiler's rewrite pass records a [`RewriteRecord`] for every
//! transformation it applies: the matched sub-DAG before mutation, the
//! rewritten region after, the pattern's free variables, and the engine's
//! own justification. The rules here re-certify each claim *without
//! re-running the engine as the oracle*:
//!
//! * **PL050** — the audit log is well-formed (all referenced nodes
//!   resolve, after-snapshots match the final DAG), reproducible (a
//!   deterministic rebuild from the entry environment produces the same
//!   records, folds, and CSE hits), and complete (record counts match the
//!   compiler's own statistics).
//! * **PL051/PL052** — the rewritten root preserves the shape, value
//!   type, and sparsity claim of the original expression.
//! * **PL053** — the before and after regions evaluate identically on
//!   deterministic seeded probe inputs (one dense set, one sparse set).
//!   All four shipped rewrite rules are non-reassociating, so the
//!   comparison is bit-exact; a float-reassociating rule would get a
//!   relative tolerance from [`rule_tolerance`].
//! * **PL054** — CSE merged only pure operators, and `rand` merges are
//!   justified by a literal seed.
//! * **PL055** — every branch the compiler removed is re-proven by an
//!   independent constant propagation over the recorded environment
//!   (implemented directly on the AST, not via the compiler's own
//!   folder).
//! * **PL056** — the rewritten region's peak operation-memory estimate
//!   never exceeds the original region's (a "simplification" must not
//!   cost more memory).
//! * **PL057** — rule-specific obligations: the claimed pattern is
//!   re-matched against the before snapshots, copy rules only duplicate
//!   pure leaves, identity eliminations really saw the literal `1.0`,
//!   and every constant fold re-applies to the recorded result bitwise.

use std::collections::{BTreeMap, BTreeSet};

use reml_compiler::build::{Env, FoldKind, FoldRecord};
use reml_compiler::hop::CseHit;
use reml_compiler::memest;
use reml_compiler::pipeline::{AnalyzedProgram, BlockAudit, CompiledProgram};
use reml_compiler::rewrites::{RewriteRecord, RewriteRule};
use reml_compiler::{CompileConfig, Hop, HopDag, HopId, HopOp, VType};
use reml_lang::ast::{BinOp, Expr, UnOp};
use reml_lang::blocks::find_block;
use reml_lang::{BlockId, StatementBlockKind};
use reml_matrix::{AggOp, BinaryOp, UnaryOp};
use reml_runtime::ScalarValue;

use crate::Diagnostic;

/// Relative tolerance for the PL053 comparison of a rule. `0.0` means
/// bit-exact. Every shipped rule preserves the exact accumulation order
/// (or performs no arithmetic at all), so all are bit-exact; a future
/// reassociating rule (e.g. `sum(A+B)` → `sum(A)+sum(B)`) would return a
/// small relative epsilon here.
pub fn rule_tolerance(rule: RewriteRule) -> f64 {
    match rule {
        RewriteRule::DotProduct
        | RewriteRule::MmChain
        | RewriteRule::DoubleTranspose
        | RewriteRule::IdentityElim => 0.0,
    }
}

/// Mirror of the rewrite engine's copy-safety predicate: operators a
/// copy-style rewrite may duplicate. Kept independent (PL057 must not
/// trust the engine's own list).
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

// ---------------------------------------------------------------------------
// Seeded concrete evaluation (PL053)
// ---------------------------------------------------------------------------

/// Dense row-major matrix for concrete probe evaluation.
#[derive(Debug, Clone, PartialEq)]
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }
}

/// A concrete value: scalar or dense matrix.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Scalar(f64),
    Matrix(Mat),
}

/// Deterministic xorshift64 stream for probe values.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish value in [-1, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// Map a (possibly unknown) extent to a small probe dimension. Pure
/// function of the extent so equal extents map to equal probe dims and
/// conformability constraints of the original expression carry over.
fn probe_dim(extent: Option<u64>) -> usize {
    match extent {
        Some(1) => 1,
        Some(n) => 2 + (n % 3) as usize,
        None => 3,
    }
}

/// Build the probe value for one bound pattern variable. `variant` is 0
/// for the dense probe set, 1 for the sparse one (~half zeros).
fn probe_value(id: HopId, snap: &Hop, variant: u64) -> Val {
    let seed = 0x5EED_C0FF_EE00_0000u64
        ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (variant << 32);
    let mut rng = XorShift::new(seed);
    if snap.vtype != VType::Matrix {
        return Val::Scalar(rng.next_f64());
    }
    let rows = probe_dim(snap.mc.rows);
    let cols = probe_dim(snap.mc.cols);
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        let v = rng.next_f64();
        if variant == 1 && rng.next_u64().is_multiple_of(2) {
            data.push(0.0);
        } else {
            data.push(v);
        }
    }
    Val::Matrix(Mat { rows, cols, data })
}

/// One side of a rewrite region prepared for evaluation: snapshots to
/// resolve node ids against, probes for the bound variables, and (for
/// the after side) the final DAG as a fallback — CSE inside the rewrite
/// pass may satisfy part of the rewritten region from pre-existing
/// nodes that the record does not snapshot.
struct Region<'a> {
    snapshots: &'a [(HopId, Hop)],
    extra: Option<&'a [(HopId, Hop)]>,
    dag: Option<&'a HopDag>,
    probes: &'a BTreeMap<usize, Val>,
    bindings: &'a [(usize, &'a Hop)],
}

impl<'a> Region<'a> {
    fn lookup(&self, id: HopId) -> Option<&'a Hop> {
        if let Some((_, h)) = self.snapshots.iter().find(|(i, _)| *i == id) {
            return Some(h);
        }
        if let Some(extra) = self.extra {
            if let Some((_, h)) = extra.iter().find(|(i, _)| *i == id) {
                return Some(h);
            }
        }
        self.dag.filter(|d| id.0 < d.len()).map(|d| d.hop(id))
    }
}

fn want_mat(v: Val, what: &str) -> Result<Mat, String> {
    match v {
        Val::Matrix(m) => Ok(m),
        Val::Scalar(_) => Err(format!("{what}: expected a matrix, got a scalar")),
    }
}

fn want_scalar(v: Val, what: &str) -> Result<f64, String> {
    match v {
        Val::Scalar(s) => Ok(s),
        Val::Matrix(_) => Err(format!("{what}: expected a scalar, got a matrix")),
    }
}

fn mat_transpose(a: &Mat) -> Mat {
    let mut data = Vec::with_capacity(a.rows * a.cols);
    for c in 0..a.cols {
        for r in 0..a.rows {
            data.push(a.get(r, c));
        }
    }
    Mat {
        rows: a.cols,
        cols: a.rows,
        data,
    }
}

/// Naive matrix multiply accumulating in ascending `k` order — the same
/// accumulation order on both sides of a rewrite, so comparisons between
/// two evaluations of this function are bit-meaningful.
fn mat_matmult(a: &Mat, b: &Mat) -> Result<Mat, String> {
    if a.cols != b.rows {
        return Err(format!(
            "matmult shape mismatch: {}x{} %*% {}x{}",
            a.rows, a.cols, b.rows, b.cols
        ));
    }
    let mut data = Vec::with_capacity(a.rows * b.cols);
    for r in 0..a.rows {
        for c in 0..b.cols {
            let mut acc = 0.0;
            for k in 0..a.cols {
                acc += a.get(r, k) * b.get(k, c);
            }
            data.push(acc);
        }
    }
    Ok(Mat {
        rows: a.rows,
        cols: b.cols,
        data,
    })
}

fn eval_agg(op: AggOp, m: &Mat) -> Result<Val, String> {
    let full = |init: f64, f: &dyn Fn(f64, f64) -> f64| {
        let mut acc = init;
        for &v in &m.data {
            acc = f(acc, v);
        }
        acc
    };
    Ok(match op {
        AggOp::Sum => Val::Scalar(full(0.0, &|a, v| a + v)),
        AggOp::Min => Val::Scalar(full(f64::INFINITY, &|a, v| a.min(v))),
        AggOp::Max => Val::Scalar(full(f64::NEG_INFINITY, &|a, v| a.max(v))),
        AggOp::Mean => Val::Scalar(full(0.0, &|a, v| a + v) / (m.rows * m.cols) as f64),
        AggOp::Trace => {
            let mut acc = 0.0;
            for i in 0..m.rows.min(m.cols) {
                acc += m.get(i, i);
            }
            Val::Scalar(acc)
        }
        AggOp::RowSums | AggOp::RowMaxs => {
            let mut data = Vec::with_capacity(m.rows);
            for r in 0..m.rows {
                let mut acc = if op == AggOp::RowSums {
                    0.0
                } else {
                    f64::NEG_INFINITY
                };
                for c in 0..m.cols {
                    let v = m.get(r, c);
                    acc = if op == AggOp::RowSums {
                        acc + v
                    } else {
                        acc.max(v)
                    };
                }
                data.push(acc);
            }
            Val::Matrix(Mat {
                rows: m.rows,
                cols: 1,
                data,
            })
        }
        AggOp::ColSums | AggOp::ColMaxs => {
            let mut data = Vec::with_capacity(m.cols);
            for c in 0..m.cols {
                let mut acc = if op == AggOp::ColSums {
                    0.0
                } else {
                    f64::NEG_INFINITY
                };
                for r in 0..m.rows {
                    let v = m.get(r, c);
                    acc = if op == AggOp::ColSums {
                        acc + v
                    } else {
                        acc.max(v)
                    };
                }
                data.push(acc);
            }
            Val::Matrix(Mat {
                rows: 1,
                cols: m.cols,
                data,
            })
        }
    })
}

/// Evaluate one region node. Bound variables resolve to probes; nodes
/// whose snapshot is structurally identical to a bound variable's
/// snapshot share its probe (copy-style rewrites clone a leaf into the
/// root, so the root's value *is* the leaf's).
fn eval_node(region: &Region<'_>, id: HopId, depth: usize) -> Result<Val, String> {
    if depth > 64 {
        return Err("evaluation recursion limit exceeded (cyclic region?)".to_string());
    }
    if let Some(v) = region.probes.get(&id.0) {
        return Ok(v.clone());
    }
    let Some(hop) = region.lookup(id) else {
        return Err(format!("node {} does not resolve inside the region", id.0));
    };
    for (bid, snap) in region.bindings {
        if snap.op == hop.op && snap.inputs == hop.inputs {
            if let Some(v) = region.probes.get(bid) {
                return Ok(v.clone());
            }
        }
    }
    let arg = |k: usize| -> Result<Val, String> {
        let Some(&input) = hop.inputs.get(k) else {
            return Err(format!("{:?} is missing input {k}", hop.op));
        };
        eval_node(region, input, depth + 1)
    };
    let what = format!("{:?}", hop.op);
    match &hop.op {
        HopOp::LitNum(v) => Ok(Val::Scalar(*v)),
        HopOp::LitBool(b) => Ok(Val::Scalar(if *b { 1.0 } else { 0.0 })),
        HopOp::Transpose => Ok(Val::Matrix(mat_transpose(&want_mat(arg(0)?, &what)?))),
        HopOp::MatMult => {
            let (a, b) = (want_mat(arg(0)?, &what)?, want_mat(arg(1)?, &what)?);
            Ok(Val::Matrix(mat_matmult(&a, &b)?))
        }
        HopOp::MmChain => {
            let (x, v) = (want_mat(arg(0)?, &what)?, want_mat(arg(1)?, &what)?);
            let inner = mat_matmult(&x, &v)?;
            Ok(Val::Matrix(mat_matmult(&mat_transpose(&x), &inner)?))
        }
        HopOp::BinaryMM(op) => {
            let (a, b) = (want_mat(arg(0)?, &what)?, want_mat(arg(1)?, &what)?);
            if a.rows != b.rows || a.cols != b.cols {
                return Err(format!(
                    "{what} shape mismatch: {}x{} vs {}x{}",
                    a.rows, a.cols, b.rows, b.cols
                ));
            }
            let data = a
                .data
                .iter()
                .zip(&b.data)
                .map(|(&x, &y)| op.apply(x, y))
                .collect();
            Ok(Val::Matrix(Mat {
                rows: a.rows,
                cols: a.cols,
                data,
            }))
        }
        HopOp::BinaryMS(op) => {
            let (a, s) = (want_mat(arg(0)?, &what)?, want_scalar(arg(1)?, &what)?);
            let data = a.data.iter().map(|&x| op.apply(x, s)).collect();
            Ok(Val::Matrix(Mat {
                rows: a.rows,
                cols: a.cols,
                data,
            }))
        }
        HopOp::BinarySM(op) => {
            let (s, a) = (want_scalar(arg(0)?, &what)?, want_mat(arg(1)?, &what)?);
            let data = a.data.iter().map(|&x| op.apply(s, x)).collect();
            Ok(Val::Matrix(Mat {
                rows: a.rows,
                cols: a.cols,
                data,
            }))
        }
        HopOp::BinarySS(op) => {
            let (a, b) = (want_scalar(arg(0)?, &what)?, want_scalar(arg(1)?, &what)?);
            Ok(Val::Scalar(op.apply(a, b)))
        }
        HopOp::UnaryM(op) => {
            let a = want_mat(arg(0)?, &what)?;
            let data = a.data.iter().map(|&x| op.apply(x)).collect();
            Ok(Val::Matrix(Mat {
                rows: a.rows,
                cols: a.cols,
                data,
            }))
        }
        HopOp::UnaryS(op) => Ok(Val::Scalar(op.apply(want_scalar(arg(0)?, &what)?))),
        HopOp::Agg(op) => eval_agg(*op, &want_mat(arg(0)?, &what)?),
        HopOp::CastScalar => {
            let m = want_mat(arg(0)?, &what)?;
            if m.rows != 1 || m.cols != 1 {
                return Err(format!("CastScalar of a {}x{} matrix", m.rows, m.cols));
            }
            Ok(Val::Scalar(m.data[0]))
        }
        HopOp::CastMatrix => Ok(Val::Matrix(Mat {
            rows: 1,
            cols: 1,
            data: vec![want_scalar(arg(0)?, &what)?],
        })),
        HopOp::NRow => Ok(Val::Scalar(want_mat(arg(0)?, &what)?.rows as f64)),
        HopOp::NCol => Ok(Val::Scalar(want_mat(arg(0)?, &what)?.cols as f64)),
        other => Err(format!(
            "operator {other:?} not supported by concrete evaluation"
        )),
    }
}

fn num_eq(x: f64, y: f64, tol: f64) -> bool {
    if tol == 0.0 {
        x.to_bits() == y.to_bits()
    } else {
        x == y || (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0)
    }
}

/// Compare two evaluated values; `Err` describes the first mismatch.
fn val_eq(a: &Val, b: &Val, tol: f64) -> Result<(), String> {
    match (a, b) {
        (Val::Scalar(x), Val::Scalar(y)) => {
            if num_eq(*x, *y, tol) {
                Ok(())
            } else {
                Err(format!("scalar {x:?} vs {y:?}"))
            }
        }
        (Val::Matrix(m), Val::Matrix(n)) => {
            if m.rows != n.rows || m.cols != n.cols {
                return Err(format!(
                    "matrix {}x{} vs {}x{}",
                    m.rows, m.cols, n.rows, n.cols
                ));
            }
            for (i, (x, y)) in m.data.iter().zip(&n.data).enumerate() {
                if !num_eq(*x, *y, tol) {
                    return Err(format!(
                        "cell ({}, {}): {x:?} vs {y:?}",
                        i / m.cols,
                        i % m.cols
                    ));
                }
            }
            Ok(())
        }
        _ => Err("value kind changed (scalar vs matrix)".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Per-record validation (PL050–PL053, PL056, PL057)
// ---------------------------------------------------------------------------

/// PL050 (reproducibility): the stored audit must equal what a
/// deterministic rebuild from the recorded entry environment produces.
/// This is the tamper/staleness check — semantic soundness of each
/// record is established independently by the other rules.
pub fn check_reproducible(
    stored: &BlockAudit,
    rebuilt: &BlockAudit,
    path: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut mismatch = |what: &str, stored_len: usize, rebuilt_len: usize, first: Option<usize>| {
        let msg = match first {
            Some(i) => format!("{what} {i} differs from the deterministic rebuild"),
            None => format!(
                "stored audit has {stored_len} {what}s, deterministic rebuild produced {rebuilt_len}"
            ),
        };
        diags.push(Diagnostic::new("PL050", path, msg));
    };
    if stored.records != rebuilt.records {
        if stored.records.len() != rebuilt.records.len() {
            mismatch(
                "rewrite record",
                stored.records.len(),
                rebuilt.records.len(),
                None,
            );
        } else {
            let i = stored
                .records
                .iter()
                .zip(&rebuilt.records)
                .position(|(a, b)| a != b);
            mismatch("rewrite record", 0, 0, i);
        }
    }
    if stored.folds != rebuilt.folds {
        if stored.folds.len() != rebuilt.folds.len() {
            mismatch("fold record", stored.folds.len(), rebuilt.folds.len(), None);
        } else {
            let i = stored
                .folds
                .iter()
                .zip(&rebuilt.folds)
                .position(|(a, b)| a != b);
            mismatch("fold record", 0, 0, i);
        }
    }
    if stored.cse != rebuilt.cse {
        if stored.cse.len() != rebuilt.cse.len() {
            mismatch("CSE hit", stored.cse.len(), rebuilt.cse.len(), None);
        } else {
            let i = stored
                .cse
                .iter()
                .zip(&rebuilt.cse)
                .position(|(a, b)| a != b);
            mismatch("CSE hit", 0, 0, i);
        }
    }
    diags
}

/// Validate every rewrite record, fold record, and CSE hit of one block
/// audit against the estimated pre-rewrite DAG (`pre`) and the final
/// estimated DAG (`post`).
pub fn validate_block_rewrites(
    pre: &HopDag,
    post: &HopDag,
    audit: &BlockAudit,
    path: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let all_roots: BTreeSet<usize> = audit.records.iter().map(|r| r.root.0).collect();
    for (idx, record) in audit.records.iter().enumerate() {
        let later_roots: BTreeSet<usize> =
            audit.records[idx + 1..].iter().map(|r| r.root.0).collect();
        validate_record(record, idx, pre, post, &later_roots, path, &mut diags);
    }
    for (i, fold) in audit.folds.iter().enumerate() {
        validate_fold(fold, &format!("{path}/fold {i}"), &mut diags);
    }
    for (i, hit) in audit.cse.iter().enumerate() {
        validate_cse_hit(
            hit,
            post,
            &all_roots,
            &format!("{path}/cse {i}"),
            &mut diags,
        );
    }
    diags
}

fn before_hop(record: &RewriteRecord, id: HopId) -> Option<&Hop> {
    record.before.iter().find(|(i, _)| *i == id).map(|(_, h)| h)
}

fn after_hop<'a>(
    record: &'a RewriteRecord,
    post: &'a HopDag,
    later_roots: &BTreeSet<usize>,
    id: HopId,
) -> Option<&'a Hop> {
    if let Some((_, h)) = record.after.iter().find(|(i, _)| *i == id) {
        return Some(h);
    }
    // CSE inside the rewrite pass may have satisfied part of the region
    // from a pre-existing node; it is still visible in the final DAG
    // unless a later rewrite mutated it.
    if id.0 < post.len() && !later_roots.contains(&id.0) {
        return Some(post.hop(id));
    }
    None
}

fn validate_record(
    record: &RewriteRecord,
    idx: usize,
    pre: &HopDag,
    post: &HopDag,
    later_roots: &BTreeSet<usize>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let rpath = format!("{path}/rewrite {idx}");
    let rule = record.rule.name();

    // PL050: well-formedness — everything the other rules dereference.
    let malformed = |msg: String, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic::new(
            "PL050",
            &rpath,
            format!("{rule} record malformed: {msg}"),
        ));
    };
    let Some(root_before) = before_hop(record, record.root) else {
        malformed(
            format!("no before-snapshot of root hop {}", record.root.0),
            diags,
        );
        return;
    };
    let Some((_, root_after)) = record.after.iter().find(|(i, _)| *i == record.root) else {
        malformed(
            format!("no after-snapshot of root hop {}", record.root.0),
            diags,
        );
        return;
    };
    for (name, id) in &record.bindings {
        if before_hop(record, *id).is_none() {
            malformed(
                format!("binding {name} (hop {}) has no before-snapshot", id.0),
                diags,
            );
            return;
        }
    }
    for id in &record.new_nodes {
        if id.0 >= post.len() {
            malformed(
                format!(
                    "new node {} outside the final DAG ({} hops)",
                    id.0,
                    post.len()
                ),
                diags,
            );
            return;
        }
        if *id == record.root {
            malformed(
                format!(
                    "root hop {} listed as a new node — the root is rewritten in place, \
                     never appended",
                    id.0
                ),
                diags,
            );
            return;
        }
        if id.0 < pre.len() {
            malformed(
                format!(
                    "new node {} already existed before the rewrite pass ({} pre-rewrite hops)",
                    id.0,
                    pre.len()
                ),
                diags,
            );
            return;
        }
        if record.after.iter().all(|(i, _)| i != id) {
            malformed(format!("new node {} has no after-snapshot", id.0), diags);
            return;
        }
    }
    // PL050: after-snapshots must match the final DAG (nodes later
    // re-rewritten are exempt — the later record owns them).
    for (id, h) in &record.after {
        if later_roots.contains(&id.0) {
            continue;
        }
        if id.0 >= post.len() {
            malformed(
                format!("after-snapshot {} outside the final DAG", id.0),
                diags,
            );
            return;
        }
        let actual = post.hop(*id);
        if actual.op != h.op
            || actual.inputs != h.inputs
            || actual.vtype != h.vtype
            || actual.mc != h.mc
        {
            diags.push(Diagnostic::new(
                "PL050",
                &rpath,
                format!(
                    "{rule} after-snapshot of hop {} does not match the final DAG: \
                     recorded {:?}, actual {:?}",
                    id.0, h.op, actual.op
                ),
            ));
            return;
        }
    }

    // PL050: binding snapshots must match the final DAG too. Boundary
    // inputs lie outside the mutated region, so they normally survive
    // the pass untouched — a disagreement means the record describes a
    // different DAG. A binding that is itself the root of a later
    // record is exempt (the passes run in rule order, so e.g. an
    // identity-elim may legitimately rewrite a hop an earlier mmchain
    // record bound as X); the later record owns that hop's snapshots.
    // Memory estimates are excluded: snapshots are taken before
    // estimation.
    for (name, id) in &record.bindings {
        if later_roots.contains(&id.0) {
            continue;
        }
        let Some(snap) = before_hop(record, *id) else {
            continue; // reported above
        };
        if id.0 >= post.len() {
            malformed(
                format!("binding {name} (hop {}) outside the final DAG", id.0),
                diags,
            );
            return;
        }
        let actual = post.hop(*id);
        if actual.op != snap.op
            || actual.inputs != snap.inputs
            || actual.vtype != snap.vtype
            || actual.mc != snap.mc
        {
            diags.push(Diagnostic::new(
                "PL050",
                &rpath,
                format!(
                    "{rule} binding {name} snapshot does not match the final DAG at hop {}: \
                     recorded {:?} {:?}x{:?}, actual {:?} {:?}x{:?}",
                    id.0,
                    snap.op,
                    snap.mc.rows,
                    snap.mc.cols,
                    actual.op,
                    actual.mc.rows,
                    actual.mc.cols
                ),
            ));
            return;
        }
    }

    // PL051: shape and type preservation of the root.
    if root_after.vtype != root_before.vtype {
        diags.push(Diagnostic::new(
            "PL051",
            &rpath,
            format!(
                "{rule} changed the root value type: {:?} -> {:?}",
                root_before.vtype, root_after.vtype
            ),
        ));
    }
    if root_after.mc.rows != root_before.mc.rows || root_after.mc.cols != root_before.mc.cols {
        diags.push(Diagnostic::new(
            "PL051",
            &rpath,
            format!(
                "{rule} changed the root shape: {:?}x{:?} -> {:?}x{:?}",
                root_before.mc.rows, root_before.mc.cols, root_after.mc.rows, root_after.mc.cols
            ),
        ));
    }

    // PL052: sparsity-claim preservation. Copy rules replace the root
    // with a bound leaf, whose own (possibly sharper) claim is the sound
    // reference; structural rules must keep the root claim verbatim.
    let nnz_reference = match record.rule {
        RewriteRule::DoubleTranspose | RewriteRule::IdentityElim => record
            .bindings
            .first()
            .and_then(|(_, id)| before_hop(record, *id))
            .map(|h| h.mc.nnz),
        _ => Some(root_before.mc.nnz),
    };
    if let Some(reference) = nnz_reference {
        if root_after.mc.nnz != reference {
            diags.push(Diagnostic::new(
                "PL052",
                &rpath,
                format!(
                    "{rule} changed the root sparsity claim: nnz {:?} -> {:?}",
                    reference, root_after.mc.nnz
                ),
            ));
        }
    }

    // PL053: semantic equivalence on seeded probes.
    check_semantics(record, post, later_roots, &rpath, diags);

    // PL056: peak memory estimate of the region must not increase.
    check_memory(record, pre, post, later_roots, &rpath, diags);

    // PL057: rule-specific obligations.
    if let Err(msg) = check_obligations(record, post, later_roots) {
        diags.push(Diagnostic::new(
            "PL057",
            &rpath,
            format!("{rule} obligation violated: {msg}"),
        ));
    }
}

fn check_semantics(
    record: &RewriteRecord,
    post: &HopDag,
    later_roots: &BTreeSet<usize>,
    rpath: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let rule = record.rule.name();
    let tol = rule_tolerance(record.rule);
    let binding_snaps: Vec<(usize, &Hop)> = record
        .bindings
        .iter()
        .filter_map(|(_, id)| before_hop(record, *id).map(|h| (id.0, h)))
        .collect();
    for variant in 0..2u64 {
        let set = if variant == 0 { "dense" } else { "sparse" };
        let mut probes: BTreeMap<usize, Val> = BTreeMap::new();
        for (id, snap) in &binding_snaps {
            probes
                .entry(*id)
                .or_insert_with(|| probe_value(HopId(*id), snap, variant));
        }
        let before_region = Region {
            snapshots: &record.before,
            extra: None,
            dag: None,
            probes: &probes,
            bindings: &binding_snaps,
        };
        let after_region = Region {
            snapshots: &record.after,
            extra: Some(&record.before),
            dag: if later_roots.contains(&record.root.0) {
                None
            } else {
                Some(post)
            },
            probes: &probes,
            bindings: &binding_snaps,
        };
        let before_val = eval_node(&before_region, record.root, 0);
        let after_val = eval_node(&after_region, record.root, 0);
        match (before_val, after_val) {
            (Ok(b), Ok(a)) => {
                if let Err(msg) = val_eq(&b, &a, tol) {
                    diags.push(Diagnostic::new(
                        "PL053",
                        rpath,
                        format!("{rule} before/after regions disagree on {set} probes: {msg}"),
                    ));
                }
            }
            (Ok(_), Err(e)) => diags.push(Diagnostic::new(
                "PL053",
                rpath,
                format!("{rule} after-region failed to evaluate on {set} probes: {e}"),
            )),
            (Err(e), Ok(_)) => diags.push(Diagnostic::new(
                "PL053",
                rpath,
                format!("{rule} before-region failed to evaluate on {set} probes: {e}"),
            )),
            // Neither side evaluates: nothing to falsify (regions with
            // operators outside the evaluator's vocabulary).
            (Err(_), Err(_)) => {}
        }
    }
}

fn check_memory(
    record: &RewriteRecord,
    _pre: &HopDag,
    post: &HopDag,
    later_roots: &BTreeSet<usize>,
    rpath: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if later_roots.contains(&record.root.0) {
        // A later rewrite replaced the root; that record owns the final
        // memory claim of this region.
        return;
    }
    let mut after_ids = vec![record.root];
    after_ids.extend(record.new_nodes.iter().copied());
    let mut peak_after = f64::NEG_INFINITY;
    for id in &after_ids {
        if id.0 >= post.len() {
            return; // PL050 already reported the malformed reference.
        }
        peak_after = peak_after.max(post.hop(*id).mem_mb);
    }
    // Rebuild the before-region's estimates on a scratch DAG: final DAG
    // with the before-snapshots written back, so interior nodes see the
    // recorded pre-rewrite characteristics of their inputs.
    let mut scratch = post.clone();
    for (id, h) in &record.before {
        if id.0 >= scratch.hops.len() {
            return;
        }
        scratch.hops[id.0] = h.clone();
    }
    let binding_ids: BTreeSet<usize> = record.bindings.iter().map(|(_, id)| id.0).collect();
    let mut peak_before = f64::NEG_INFINITY;
    let mut total_before = 0.0f64;
    for (id, _) in &record.before {
        if binding_ids.contains(&id.0) {
            continue; // boundary inputs exist on both sides
        }
        let est = memest::estimate_hop(&scratch, *id);
        peak_before = peak_before.max(est);
        total_before += est;
    }
    // Simplifications (copy rewrites, dot-product fission) must never
    // raise any single operator's resident set. A *fusion* legitimately
    // can — MmChain holds X, v, and the output at once where the
    // unfused chain pipelined smaller intermediates — so its bound is
    // the region's total materialization instead: the fused node must
    // still cost less than executing the before-region with every
    // intermediate resident simultaneously.
    let bound_before = match record.rule {
        RewriteRule::MmChain => total_before.max(peak_before),
        RewriteRule::DotProduct | RewriteRule::DoubleTranspose | RewriteRule::IdentityElim => {
            peak_before
        }
    };
    if peak_after > bound_before * (1.0 + 1e-9) {
        diags.push(Diagnostic::new(
            "PL056",
            rpath,
            format!(
                "{} increased the region's peak memory estimate: {:.3} MB -> {:.3} MB",
                record.rule.name(),
                bound_before,
                peak_after
            ),
        ));
    }
}

// ---------------------------------------------------------------------------
// Rule-specific obligations (PL057)
// ---------------------------------------------------------------------------

/// Re-prove the rewrite's pattern and side conditions from the recorded
/// snapshots. Returns the first violated obligation.
fn check_obligations(
    record: &RewriteRecord,
    post: &HopDag,
    later_roots: &BTreeSet<usize>,
) -> Result<(), String> {
    let root_b = before_hop(record, record.root).ok_or("missing root before-snapshot")?;
    let root_a = record
        .after
        .iter()
        .find(|(i, _)| *i == record.root)
        .map(|(_, h)| h)
        .ok_or("missing root after-snapshot")?;
    match record.rule {
        RewriteRule::DotProduct => {
            let [(na, a), (nb, b)] = record.bindings[..] else {
                return Err(format!(
                    "expected 2 bindings, got {}",
                    record.bindings.len()
                ));
            };
            if na != "v" || nb != "w" {
                return Err(format!("unexpected binding names {na}/{nb}"));
            }
            if !matches!(root_b.op, HopOp::Agg(AggOp::Sum)) {
                return Err(format!("root was {:?}, not sum()", root_b.op));
            }
            let [mul_id] = root_b.inputs[..] else {
                return Err("sum() root must have exactly one input".to_string());
            };
            let mul = before_hop(record, mul_id).ok_or("missing before-snapshot of v*w")?;
            if !matches!(mul.op, HopOp::BinaryMM(BinaryOp::Mul)) {
                return Err(format!("sum() input was {:?}, not elementwise *", mul.op));
            }
            if mul.inputs != [a, b] {
                return Err("bindings v/w do not match the multiply operands".to_string());
            }
            for (name, id) in [("v", a), ("w", b)] {
                let h = before_hop(record, id).ok_or("missing operand snapshot")?;
                if h.vtype != VType::Matrix || h.mc.cols != Some(1) {
                    return Err(format!("{name} is not a column vector"));
                }
            }
            let (amc, bmc) = (
                before_hop(record, a).unwrap().mc,
                before_hop(record, b).unwrap().mc,
            );
            if amc.rows.is_none() || amc.rows != bmc.rows {
                return Err("v and w lengths not known-equal".to_string());
            }
            let HopOp::CastScalar = root_a.op else {
                return Err(format!("rewritten root is {:?}, not castScalar", root_a.op));
            };
            let [mm_id] = root_a.inputs[..] else {
                return Err("castScalar must have exactly one input".to_string());
            };
            let mm =
                after_hop(record, post, later_roots, mm_id).ok_or("t(v)%*%w node unresolved")?;
            if !matches!(mm.op, HopOp::MatMult) {
                return Err(format!("castScalar input is {:?}, not %*%", mm.op));
            }
            let [t_id, w_id] = mm.inputs[..] else {
                return Err("%*% must have exactly two inputs".to_string());
            };
            if w_id != b {
                return Err("right %*% operand is not the bound w".to_string());
            }
            let t = after_hop(record, post, later_roots, t_id).ok_or("t(v) node unresolved")?;
            if !matches!(t.op, HopOp::Transpose) || t.inputs != [a] {
                return Err("left %*% operand is not t(v)".to_string());
            }
        }
        RewriteRule::MmChain => {
            let [(nx, x), (nv, v)] = record.bindings[..] else {
                return Err(format!(
                    "expected 2 bindings, got {}",
                    record.bindings.len()
                ));
            };
            if nx != "X" || nv != "v" {
                return Err(format!("unexpected binding names {nx}/{nv}"));
            }
            if !matches!(root_b.op, HopOp::MatMult) {
                return Err(format!("root was {:?}, not %*%", root_b.op));
            }
            let [left_id, right_id] = root_b.inputs[..] else {
                return Err("%*% root must have exactly two inputs".to_string());
            };
            let left = before_hop(record, left_id).ok_or("missing t(X) snapshot")?;
            if !matches!(left.op, HopOp::Transpose) || left.inputs != [x] {
                return Err("left operand is not t(X) of the bound X".to_string());
            }
            let right = before_hop(record, right_id).ok_or("missing X%*%v snapshot")?;
            if !matches!(right.op, HopOp::MatMult) || right.inputs != [x, v] {
                return Err("right operand is not X %*% v over the bound X and v".to_string());
            }
            let v_h = before_hop(record, v).ok_or("missing v snapshot")?;
            if v_h.mc.cols != Some(1) {
                return Err("v is not a column vector".to_string());
            }
            if !matches!(root_a.op, HopOp::MmChain) || root_a.inputs != [x, v] {
                return Err("rewritten root is not MmChain(X, v)".to_string());
            }
            if !record.new_nodes.is_empty() {
                return Err("fusion must not append nodes".to_string());
            }
        }
        RewriteRule::DoubleTranspose => {
            let [(nx, x)] = record.bindings[..] else {
                return Err(format!("expected 1 binding, got {}", record.bindings.len()));
            };
            if nx != "X" {
                return Err(format!("unexpected binding name {nx}"));
            }
            if !matches!(root_b.op, HopOp::Transpose) {
                return Err(format!("root was {:?}, not t()", root_b.op));
            }
            let [inner_id] = root_b.inputs[..] else {
                return Err("t() root must have exactly one input".to_string());
            };
            let inner = before_hop(record, inner_id).ok_or("missing inner t() snapshot")?;
            if !matches!(inner.op, HopOp::Transpose) || inner.inputs != [x] {
                return Err("inner node is not t(X) of the bound X".to_string());
            }
            check_leaf_copy(record, x, root_a)?;
        }
        RewriteRule::IdentityElim => {
            let [(nx, x)] = record.bindings[..] else {
                return Err(format!("expected 1 binding, got {}", record.bindings.len()));
            };
            if nx != "X" {
                return Err(format!("unexpected binding name {nx}"));
            }
            let lit_id = match (&root_b.op, &root_b.inputs[..]) {
                (HopOp::BinaryMS(BinaryOp::Mul | BinaryOp::Div), [xx, lit]) if *xx == x => *lit,
                (HopOp::BinarySM(BinaryOp::Mul), [lit, xx]) if *xx == x => *lit,
                _ => {
                    return Err(format!(
                        "root {:?} is not X*s, X/s, or s*X over the bound X",
                        root_b.op
                    ))
                }
            };
            let lit = before_hop(record, lit_id).ok_or("missing literal snapshot")?;
            let HopOp::LitNum(v) = lit.op else {
                return Err(format!("scalar operand is {:?}, not a literal", lit.op));
            };
            if v.to_bits() != 1.0f64.to_bits() {
                return Err(format!("literal operand is {v}, not exactly 1.0"));
            }
            check_leaf_copy(record, x, root_a)?;
        }
    }
    Ok(())
}

/// Shared tail of the copy-style obligations: the bound leaf must be a
/// pure operator safe to duplicate, and the rewritten root must be a
/// verbatim copy of it.
fn check_leaf_copy(record: &RewriteRecord, x: HopId, root_after: &Hop) -> Result<(), String> {
    let x_h = before_hop(record, x).ok_or("missing leaf snapshot")?;
    if !leaf_copy_safe(&x_h.op) {
        return Err(format!(
            "{:?} is not a pure leaf; copying it would duplicate work or effects",
            x_h.op
        ));
    }
    if root_after.op != x_h.op || root_after.inputs != x_h.inputs {
        return Err("rewritten root is not a verbatim copy of the bound leaf".to_string());
    }
    if !record.new_nodes.is_empty() {
        return Err("copy rewrite must not append nodes".to_string());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fold and CSE validation (PL057, PL054)
// ---------------------------------------------------------------------------

fn scalar_eq(a: &ScalarValue, b: &ScalarValue) -> bool {
    match (a, b) {
        (ScalarValue::Num(x), ScalarValue::Num(y)) => x.to_bits() == y.to_bits(),
        (ScalarValue::Bool(x), ScalarValue::Bool(y)) => x == y,
        (ScalarValue::Str(x), ScalarValue::Str(y)) => x == y,
        _ => false,
    }
}

/// Independent re-application of a scalar binary fold, mirroring the
/// language semantics (and/or over booleans, comparisons to booleans,
/// arithmetic to numbers) without calling the compiler's folder.
fn reapply_binary(op: BinaryOp, a: &ScalarValue, b: &ScalarValue) -> Option<ScalarValue> {
    match op {
        BinaryOp::And | BinaryOp::Or => {
            let (x, y) = (a.as_bool()?, b.as_bool()?);
            Some(ScalarValue::Bool(if op == BinaryOp::And {
                x && y
            } else {
                x || y
            }))
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Less
        | BinaryOp::LessEq
        | BinaryOp::Greater
        | BinaryOp::GreaterEq => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(ScalarValue::Bool(op.apply(x, y) != 0.0))
        }
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(ScalarValue::Num(op.apply(x, y)))
        }
    }
}

/// PL057 for a constant-fold record: re-apply the operation to the
/// recorded operands and require the recorded result bitwise.
fn validate_fold(fold: &FoldRecord, path: &str, diags: &mut Vec<Diagnostic>) {
    let expected: Option<ScalarValue> = match &fold.kind {
        FoldKind::Unary(uop) => match fold.operands[..] {
            [ScalarValue::Num(v)] => Some(ScalarValue::Num(uop.apply(v))),
            _ => None,
        },
        FoldKind::Binary(bop) => match &fold.operands[..] {
            [a, b] => reapply_binary(*bop, a, b),
            _ => None,
        },
        FoldKind::StrConcat => match &fold.operands[..] {
            [a, b] => Some(ScalarValue::Str(format!("{}{}", a.render(), b.render()))),
            _ => None,
        },
        FoldKind::Dim => match &fold.operands[..] {
            [v @ ScalarValue::Num(n)] if *n >= 0.0 && n.fract() == 0.0 => Some(v.clone()),
            _ => None,
        },
    };
    match expected {
        None => diags.push(Diagnostic::new(
            "PL057",
            path,
            format!(
                "constant fold {:?} has invalid operands {:?}",
                fold.kind, fold.operands
            ),
        )),
        Some(expected) if !scalar_eq(&expected, &fold.result) => diags.push(Diagnostic::new(
            "PL057",
            path,
            format!(
                "constant fold {:?}{:?} re-applies to {:?}, compiler substituted {:?}",
                fold.kind, fold.operands, expected, fold.result
            ),
        )),
        Some(_) => {}
    }
}

/// PL054 (+ structural PL050) for one CSE hit: only pure operators may
/// merge, `rand` merges need a literal seed, and the hit must describe a
/// node that actually exists in the final DAG.
fn validate_cse_hit(
    hit: &CseHit,
    post: &HopDag,
    roots: &BTreeSet<usize>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    if hit.key == "Print" || hit.key.starts_with("TWrite(") || hit.key.starts_with("PWrite(") {
        diags.push(Diagnostic::new(
            "PL054",
            path,
            format!("CSE merged side-effecting operator {}", hit.key),
        ));
        return;
    }
    if hit.merged_into.0 >= post.len() {
        diags.push(Diagnostic::new(
            "PL050",
            path,
            format!(
                "CSE hit merged into hop {} outside the final DAG",
                hit.merged_into.0
            ),
        ));
        return;
    }
    // Rewrites may later mutate the merged-into node (it can be a
    // rewrite root); the rewrite record owns its final shape then.
    if !roots.contains(&hit.merged_into.0) {
        let actual = post.hop(hit.merged_into);
        if format!("{:?}", actual.op) != hit.key || actual.inputs != hit.inputs {
            diags.push(Diagnostic::new(
                "PL050",
                path,
                format!(
                    "CSE hit claims {} over {:?} but hop {} is {:?} over {:?}",
                    hit.key, hit.inputs, hit.merged_into.0, actual.op, actual.inputs
                ),
            ));
        }
    }
    if hit.key.starts_with("DataGenRand") {
        let Some(&seed) = hit.inputs.get(3) else {
            diags.push(Diagnostic::new(
                "PL050",
                path,
                "rand CSE hit has fewer than 4 inputs".to_string(),
            ));
            return;
        };
        let literal_seed = seed.0 < post.len() && matches!(post.hop(seed).op, HopOp::LitNum(_));
        if !literal_seed {
            diags.push(Diagnostic::new(
                "PL054",
                path,
                "rand() CSE merge without a literal seed: generation is only \
                 provably identical for literal seeds"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Program-level validation (PL050 completeness, PL055 branch guards)
// ---------------------------------------------------------------------------

/// Program-wide rewrite-audit checks: completeness against the
/// compiler's own statistics (PL050) and independent re-proof of every
/// removed branch guard (PL055).
pub fn validate_program_rewrites(
    analyzed: &AnalyzedProgram,
    compiled: &CompiledProgram,
    config: &CompileConfig,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let audit = &compiled.rewrite_audit;
    if audit.num_rewrites() != compiled.stats.rewrites_applied {
        diags.push(Diagnostic::new(
            "PL050",
            "program",
            format!(
                "audit records {} rewrites but the compiler reports {} applied",
                audit.num_rewrites(),
                compiled.stats.rewrites_applied
            ),
        ));
    }
    if audit.branches.len() as u64 != compiled.stats.branches_removed {
        diags.push(Diagnostic::new(
            "PL050",
            "program",
            format!(
                "audit records {} branch removals but the compiler reports {}",
                audit.branches.len(),
                compiled.stats.branches_removed
            ),
        ));
    }
    for (i, br) in audit.branches.iter().enumerate() {
        let path = format!("branch {i}");
        let Some(block) = find_block(&analyzed.blocks, BlockId(br.block_id)) else {
            diags.push(Diagnostic::new(
                "PL055",
                &path,
                format!("removed branch references unknown block {}", br.block_id),
            ));
            continue;
        };
        let StatementBlockKind::If { pred, .. } = &block.kind else {
            diags.push(Diagnostic::new(
                "PL055",
                &path,
                format!(
                    "removed branch references block {}, which is not an if",
                    br.block_id
                ),
            ));
            continue;
        };
        match const_eval_pred(pred, &br.env, config).and_then(|v| v.as_bool()) {
            None => diags.push(Diagnostic::new(
                "PL055",
                &path,
                format!(
                    "guard of removed branch at block {} is not independently provable",
                    br.block_id
                ),
            )),
            Some(proven) if proven != br.taken => diags.push(Diagnostic::new(
                "PL055",
                &path,
                format!(
                    "independent constant propagation proves the block {} guard {}, \
                     but the compiler inlined the {} branch",
                    br.block_id,
                    proven,
                    if br.taken { "then" } else { "else" }
                ),
            )),
            Some(_) => {}
        }
    }
    diags
}

/// Independent constant propagation over a predicate expression: a
/// direct AST evaluator over the recorded environment's known constants,
/// `$` parameters, and matrix dimensions — deliberately *not* the
/// compiler's own folder, so PL055 has a second opinion.
fn const_eval_pred(expr: &Expr, env: &Env, config: &CompileConfig) -> Option<ScalarValue> {
    match expr {
        Expr::Num(v) => Some(ScalarValue::Num(*v)),
        Expr::Bool(b) => Some(ScalarValue::Bool(*b)),
        Expr::Str(s) => Some(ScalarValue::Str(s.clone())),
        Expr::Ident(name) => env.get(name.as_str())?.konst.clone(),
        Expr::Param(name) => config.params.get(name).cloned(),
        Expr::Unary { op, expr, .. } => {
            let v = const_eval_pred(expr, env, config)?.as_f64()?;
            let uop = match op {
                UnOp::Neg => UnaryOp::Neg,
                UnOp::Not => UnaryOp::Not,
            };
            Some(ScalarValue::Num(uop.apply(v)))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = const_eval_pred(lhs, env, config)?;
            let b = const_eval_pred(rhs, env, config)?;
            let bop = match op {
                BinOp::Add => BinaryOp::Add,
                BinOp::Sub => BinaryOp::Sub,
                BinOp::Mul => BinaryOp::Mul,
                BinOp::Div => BinaryOp::Div,
                BinOp::Pow => BinaryOp::Pow,
                BinOp::Eq => BinaryOp::Eq,
                BinOp::NotEq => BinaryOp::NotEq,
                BinOp::Lt => BinaryOp::Less,
                BinOp::LtEq => BinaryOp::LessEq,
                BinOp::Gt => BinaryOp::Greater,
                BinOp::GtEq => BinaryOp::GreaterEq,
                BinOp::And => BinaryOp::And,
                BinOp::Or => BinaryOp::Or,
                BinOp::Mod | BinOp::MatMul => return None,
            };
            reapply_binary(bop, &a, &b)
        }
        Expr::Call { name, args, .. } if name == "nrow" || name == "ncol" => {
            let [Expr::Ident(m)] = &args[..] else {
                return None;
            };
            let info = env.get(m.as_str())?;
            let dim = if name == "nrow" {
                info.mc.rows
            } else {
                info.mc.cols
            }?;
            Some(ScalarValue::Num(dim as f64))
        }
        Expr::Call { name, args, .. } => {
            let uop = match name.as_str() {
                "sqrt" => UnaryOp::Sqrt,
                "abs" => UnaryOp::Abs,
                "exp" => UnaryOp::Exp,
                "log" => UnaryOp::Log,
                "round" => UnaryOp::Round,
                "sign" => UnaryOp::Sign,
                _ => return None,
            };
            let [arg] = &args[..] else { return None };
            let v = const_eval_pred(arg, env, config)?.as_f64()?;
            Some(ScalarValue::Num(uop.apply(v)))
        }
        _ => None,
    }
}
