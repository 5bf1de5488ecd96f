//! HOP DAG construction with constant folding and size propagation.
//!
//! [`BlockBuilder`] compiles the statements of one generic block into a
//! [`HopDag`], maintaining:
//!
//! * a **symbol environment** ([`Env`]) of variable types, inferred
//!   [`MatrixCharacteristics`], and known scalar constants — constants flow
//!   from `$`-parameters through scalar arithmetic (enabling branch
//!   removal and `nrow/ncol` folding, Appendix B);
//! * **intra-block bindings** mapping variables to producing hops so
//!   repeated uses share nodes (together with structural CSE in the DAG).
//!
//! Inter-block propagation (branch merge, loop stabilization) lives in
//! [`crate::pipeline`]; this module is purely per-DAG.

use std::collections::BTreeMap;

use reml_lang::ast::{BinOp, Expr, IndexRange, Statement, UnOp};
use reml_matrix::{AggOp, BinaryOp, MatrixCharacteristics, UnaryOp};
use reml_runtime::ScalarValue;

use crate::config::{CompileConfig, CompileError};
use crate::hop::{HopDag, HopId, HopOp, VType};

/// Inferred facts about one live variable.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Value type.
    pub vtype: VType,
    /// Matrix characteristics (scalars: 1×1).
    pub mc: MatrixCharacteristics,
    /// Known constant value, when the variable is a compile-time-known
    /// scalar.
    pub konst: Option<ScalarValue>,
}

impl VarInfo {
    /// A matrix variable with the given characteristics.
    pub fn matrix(mc: MatrixCharacteristics) -> Self {
        VarInfo {
            vtype: VType::Matrix,
            mc,
            konst: None,
        }
    }

    /// A scalar variable with unknown value.
    pub fn scalar() -> Self {
        VarInfo {
            vtype: VType::Scalar,
            mc: MatrixCharacteristics::scalar(),
            konst: None,
        }
    }

    /// A scalar variable with a known constant value.
    pub fn constant(v: ScalarValue) -> Self {
        let vtype = if matches!(v, ScalarValue::Str(_)) {
            VType::Str
        } else {
            VType::Scalar
        };
        VarInfo {
            vtype,
            mc: MatrixCharacteristics::scalar(),
            konst: Some(v),
        }
    }
}

/// The inter-block symbol environment.
pub type Env = BTreeMap<std::sync::Arc<str>, VarInfo>;

/// Merge environments after a conditional: sizes keep only agreed
/// components; constants survive only when equal.
pub fn merge_env_branches(a: &Env, b: &Env) -> Env {
    let mut out = b.clone();
    merge_env_into(a, &mut out);
    out
}

/// [`merge_env_branches`]`(a, b)` written over `b`: a name bound in both
/// keeps `a`'s type, the agreed size components and `a`'s constant when
/// both hold an equal one; a name bound in one of them keeps its fact.
pub fn merge_env_into(a: &Env, b: &mut Env) {
    join_env_into(a, b, |va, vb| {
        *vb = VarInfo {
            vtype: va.vtype,
            mc: va.mc.merge_branches(&vb.mc),
            konst: agreed_constant(va, vb),
        }
    });
}

/// `a`'s constant when `b` holds an equal one.
pub(crate) fn agreed_constant(a: &VarInfo, b: &VarInfo) -> Option<ScalarValue> {
    match (&a.konst, &b.konst) {
        (Some(x), Some(y)) if x == y => Some(x.clone()),
        _ => None,
    }
}

/// Join `a` into `b` in place, as one sorted merge-join over the two
/// maps: a name bound only in `a` is copied into `b`, a name bound only
/// in `b` keeps its fact, and `both(a_fact, b_fact)` rewrites the fact of
/// a name bound in both.
pub(crate) fn join_env_into(a: &Env, b: &mut Env, both: impl Fn(&VarInfo, &mut VarInfo)) {
    let mut only_a = Vec::new();
    let mut ib = b.iter_mut().peekable();
    for (name, va) in a {
        while ib.next_if(|(nb, _)| **nb < *name).is_some() {}
        match ib.next_if(|(nb, _)| *nb == name) {
            Some((_, vb)) => both(va, vb),
            None => only_a.push((name.clone(), va.clone())),
        }
    }
    b.extend(only_a);
}

/// What kind of constant fold produced a [`FoldRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum FoldKind {
    /// Scalar unary application.
    Unary(UnaryOp),
    /// Scalar-scalar binary application.
    Binary(BinaryOp),
    /// Compile-time string concatenation.
    StrConcat,
    /// `nrow`/`ncol` folded from a known matrix characteristic.
    Dim,
}

/// Audit record of one constant fold: the operation, its operand values,
/// and the claimed result — enough for the translation validator (PL057)
/// to re-apply the operation independently and compare bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldRecord {
    /// The folded operation.
    pub kind: FoldKind,
    /// Operand values at fold time.
    pub operands: Vec<ScalarValue>,
    /// The value the compiler substituted.
    pub result: ScalarValue,
}

/// The product of compiling one generic block's statements.
#[derive(Debug)]
pub struct BuiltDag {
    /// The DAG (sizes propagated; memory estimates not yet computed).
    pub dag: HopDag,
    /// Constant-folding count.
    pub constants_folded: u64,
    /// Audit log of every constant fold, in occurrence order.
    pub fold_log: Vec<FoldRecord>,
}

/// Builds a [`HopDag`] for a run of straight-line statements; `'a`
/// covers the configuration and the statements it reads.
pub struct BlockBuilder<'a> {
    config: &'a CompileConfig,
    dag: HopDag,
    /// Intra-block variable bindings, keyed by the names in the AST.
    bindings: BTreeMap<&'a str, HopId>,
    /// Known scalar constant per hop, indexed by [`HopId`].
    consts: Vec<Option<ScalarValue>>,
    constants_folded: u64,
    fold_log: Vec<FoldRecord>,
    /// Set for a build that only propagates sizes: no node merging, no
    /// edges, no fold log.
    sizes_only: bool,
}

impl<'a> BlockBuilder<'a> {
    /// New builder over the given configuration.
    pub fn new(config: &'a CompileConfig) -> Self {
        BlockBuilder {
            config,
            dag: HopDag::new(),
            bindings: BTreeMap::new(),
            consts: Vec::new(),
            constants_folded: 0,
            fold_log: Vec::new(),
            sizes_only: false,
        }
    }

    /// Add a node. A size-only build keeps no edges: nothing it does
    /// reads them.
    fn node(
        &mut self,
        op: HopOp,
        inputs: &[HopId],
        vtype: VType,
        mc: MatrixCharacteristics,
    ) -> HopId {
        let inputs = if self.sizes_only {
            Vec::new()
        } else {
            inputs.to_vec()
        };
        self.dag.add(op, inputs, vtype, mc)
    }

    /// Record one constant fold for the audit log.
    fn log_fold(&mut self, kind: FoldKind, operands: Vec<ScalarValue>, result: ScalarValue) {
        self.constants_folded += 1;
        if !self.sizes_only {
            self.fold_log.push(FoldRecord {
                kind,
                operands,
                result,
            });
        }
    }

    /// Compile statements, updating `env` with assigned variables, and
    /// finish the DAG with transient writes for all assigned variables.
    pub fn build_statements(
        mut self,
        statements: &'a [Statement],
        env: &mut Env,
    ) -> Result<BuiltDag, CompileError> {
        let assigned = self.build_body(statements, env)?;
        // Emit transient writes for assigned variables so lowering knows
        // the block outputs.
        for name in assigned {
            let id = self.bindings[name];
            let hop = self.dag.hop(id);
            let (vtype, mc) = (hop.vtype, hop.mc);
            // `bind` entered every assigned name: the write shares its key.
            let (key, _) = env.get_key_value(name).expect("assigned names are bound");
            self.node(HopOp::TWrite(key.clone()), &[id], vtype, mc);
        }
        Ok(BuiltDag {
            dag: self.dag,
            constants_folded: self.constants_folded,
            fold_log: self.fold_log,
        })
    }

    /// Update `env` past the statements, as [`build_statements`] does,
    /// without keeping what only the DAG needs: nodes are not merged
    /// (merging never changes a node's type, size or constant) and keep
    /// no edges, folds are not logged, and no transient writes are
    /// emitted. Loop stabilization's propagation passes run this.
    ///
    /// [`build_statements`]: BlockBuilder::build_statements
    pub fn propagate_statements(
        mut self,
        statements: &'a [Statement],
        env: &mut Env,
    ) -> Result<(), CompileError> {
        self.dag = HopDag::unmerged();
        self.sizes_only = true;
        self.build_body(statements, env).map(drop)
    }

    /// Build the statements' nodes and bindings, updating `env`; returns
    /// the assigned variables in first-assignment order.
    fn build_body(
        &mut self,
        statements: &'a [Statement],
        env: &mut Env,
    ) -> Result<Vec<&'a str>, CompileError> {
        let mut assigned: Vec<&'a str> = Vec::new();
        for stmt in statements {
            match stmt {
                Statement::Assign {
                    target,
                    index,
                    expr,
                    ..
                } => {
                    let value = self.build_expr(expr, env)?;
                    let id = match index {
                        None => value,
                        Some((rows, cols)) => {
                            let prev = self.read_var(target, env)?;
                            let (rl, rh) = self.range_bounds(rows, env)?;
                            let (cl, ch) = self.range_bounds(cols, env)?;
                            let mc = self.dag.hop(prev).mc;
                            self.node(
                                HopOp::LeftIndex,
                                &[prev, value, rl, rh, cl, ch],
                                VType::Matrix,
                                // Left indexing preserves dims; nnz becomes
                                // unknown (cells overwritten).
                                MatrixCharacteristics {
                                    rows: mc.rows,
                                    cols: mc.cols,
                                    nnz: None,
                                },
                            )
                        }
                    };
                    self.bind(target, id, env);
                    if !assigned.contains(&target.as_str()) {
                        assigned.push(target);
                    }
                }
                Statement::ExprStmt { expr, .. } => {
                    self.build_sink(expr, env)?;
                }
                Statement::MultiAssign { line, .. } => {
                    return Err(CompileError::Unsupported(format!(
                        "multi-assign at line {line} must be inlined before compilation"
                    )));
                }
                Statement::If { line, .. }
                | Statement::While { line, .. }
                | Statement::For { line, .. } => {
                    return Err(CompileError::Internal(format!(
                        "control flow at line {line} inside generic block"
                    )));
                }
            }
        }
        Ok(assigned)
    }

    /// Compile a predicate expression into a DAG with a single scalar
    /// root. Returns the DAG, the root hop, and the constant value when
    /// the predicate folds.
    pub fn build_predicate(
        mut self,
        expr: &'a Expr,
        env: &Env,
    ) -> Result<(BuiltDag, HopId, Option<ScalarValue>), CompileError> {
        let root = self.build_expr(expr, env)?;
        let konst = self.const_value(root);
        Ok((
            BuiltDag {
                dag: self.dag,
                constants_folded: self.constants_folded,
                fold_log: self.fold_log,
            },
            root,
            konst,
        ))
    }

    fn bind(&mut self, name: &'a str, id: HopId, env: &mut Env) {
        self.bindings.insert(name, id);
        let hop = self.dag.hop(id);
        let info = VarInfo {
            vtype: hop.vtype,
            mc: hop.mc,
            konst: self.const_value(id),
        };
        match env.get_mut(name) {
            Some(slot) => *slot = info,
            None => {
                env.insert(name.into(), info);
            }
        }
    }

    /// Resolve a variable to a hop: intra-block binding or transient read.
    fn read_var(&mut self, name: &'a str, env: &Env) -> Result<HopId, CompileError> {
        if let Some(&id) = self.bindings.get(name) {
            return Ok(id);
        }
        let (key, info) = env.get_key_value(name).ok_or_else(|| {
            CompileError::Internal(format!("unbound variable '{name}' (validator miss)"))
        })?;
        // Known scalar constants materialize as literals (constant
        // propagation across blocks).
        if let Some(konst) = &info.konst {
            let id = self.literal(konst.clone());
            self.bindings.insert(name, id);
            return Ok(id);
        }
        let id = self.node(HopOp::TRead(key.clone()), &[], info.vtype, info.mc);
        self.bindings.insert(name, id);
        Ok(id)
    }

    fn literal(&mut self, v: ScalarValue) -> HopId {
        let (op, vtype) = match &v {
            ScalarValue::Num(n) => (HopOp::LitNum(*n), VType::Scalar),
            ScalarValue::Bool(b) => (HopOp::LitBool(*b), VType::Scalar),
            ScalarValue::Str(s) => (HopOp::LitStr(s.clone()), VType::Str),
        };
        let id = self.node(op, &[], vtype, MatrixCharacteristics::scalar());
        if self.consts.len() <= id.0 {
            self.consts.resize(id.0 + 1, None);
        }
        self.consts[id.0] = Some(v);
        id
    }

    /// The known constant of a hop, if any.
    fn konst(&self, id: HopId) -> Option<&ScalarValue> {
        self.consts.get(id.0)?.as_ref()
    }

    fn const_num(&self, id: HopId) -> Option<f64> {
        self.konst(id).and_then(ScalarValue::as_f64)
    }

    /// Build an expression into the DAG.
    pub fn build_expr(&mut self, expr: &'a Expr, env: &Env) -> Result<HopId, CompileError> {
        match expr {
            Expr::Num(v) => Ok(self.literal(ScalarValue::Num(*v))),
            Expr::Str(s) => Ok(self.literal(ScalarValue::Str(s.clone()))),
            Expr::Bool(b) => Ok(self.literal(ScalarValue::Bool(*b))),
            Expr::Param(name) => {
                let v = self.config.params.get(name).cloned().ok_or_else(|| {
                    CompileError::Unsupported(format!("unbound parameter '${name}'"))
                })?;
                Ok(self.literal(v))
            }
            Expr::Ident(name) => self.read_var(name, env),
            Expr::Unary { op, expr, .. } => {
                let input = self.build_expr(expr, env)?;
                self.build_unary(*op, input)
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let l = self.build_expr(lhs, env)?;
                let r = self.build_expr(rhs, env)?;
                self.build_binary(*op, l, r)
            }
            Expr::Call {
                name,
                args,
                named,
                line,
            } => self.build_call(name, args, named, *line, env),
            Expr::Index {
                target, rows, cols, ..
            } => {
                let m = self.read_var(target, env)?;
                let (rl, rh) = self.range_bounds(rows, env)?;
                let (cl, ch) = self.range_bounds(cols, env)?;
                let mc = self.index_mc(self.dag.hop(m).mc, rl, rh, cl, ch);
                Ok(self.node(HopOp::RightIndex, &[m, rl, rh, cl, ch], VType::Matrix, mc))
            }
        }
    }

    /// Compile a sink statement expression (`print`/`write`/`stop`).
    fn build_sink(&mut self, expr: &'a Expr, env: &Env) -> Result<(), CompileError> {
        match expr {
            Expr::Call { name, args, .. } if name == "print" || name == "stop" => {
                let v = self.build_expr(&args[0], env)?;
                self.node(
                    HopOp::Print,
                    &[v],
                    VType::Scalar,
                    MatrixCharacteristics::scalar(),
                );
                Ok(())
            }
            Expr::Call { name, args, .. } if name == "write" => {
                let v = self.build_expr(&args[0], env)?;
                let path = self.resolve_string(&args[1], env)?;
                let mc = self.dag.hop(v).mc;
                let vtype = self.dag.hop(v).vtype;
                self.node(HopOp::PWrite(path.into()), &[v], vtype, mc);
                Ok(())
            }
            other => Err(CompileError::Unsupported(format!(
                "expression statement {other:?}"
            ))),
        }
    }

    /// Resolve a compile-time string (write targets, ppred operators).
    fn resolve_string(&mut self, expr: &Expr, _env: &Env) -> Result<String, CompileError> {
        match expr {
            Expr::Str(s) => Ok(s.clone()),
            Expr::Param(name) => match self.config.params.get(name) {
                Some(ScalarValue::Str(s)) => Ok(s.clone()),
                Some(other) => Ok(other.render()),
                None => Err(CompileError::Unsupported(format!(
                    "unbound parameter '${name}'"
                ))),
            },
            other => Err(CompileError::Unsupported(format!(
                "expected compile-time string, got {other:?}"
            ))),
        }
    }

    fn build_unary(&mut self, op: UnOp, input: HopId) -> Result<HopId, CompileError> {
        let hop_in = self.dag.hop(input);
        let is_matrix = hop_in.vtype == VType::Matrix;
        let uop = match op {
            UnOp::Neg => UnaryOp::Neg,
            UnOp::Not => UnaryOp::Not,
        };
        if is_matrix {
            let mc = hop_in.mc;
            Ok(self.node(HopOp::UnaryM(uop), &[input], VType::Matrix, mc))
        } else {
            if let Some(v) = self.const_num(input) {
                let folded = ScalarValue::Num(uop.apply(v));
                self.log_fold(
                    FoldKind::Unary(uop),
                    vec![ScalarValue::Num(v)],
                    folded.clone(),
                );
                return Ok(self.literal(folded));
            }
            Ok(self.node(
                HopOp::UnaryS(uop),
                &[input],
                VType::Scalar,
                MatrixCharacteristics::scalar(),
            ))
        }
    }

    fn build_binary(&mut self, op: BinOp, l: HopId, r: HopId) -> Result<HopId, CompileError> {
        let (lt, rt) = (self.dag.hop(l).vtype, self.dag.hop(r).vtype);
        if op == BinOp::MatMul {
            let (lmc, rmc) = (self.dag.hop(l).mc, self.dag.hop(r).mc);
            let mc = lmc.matmult(&rmc);
            return Ok(self.node(HopOp::MatMult, &[l, r], VType::Matrix, mc));
        }
        // String concatenation.
        if (lt == VType::Str || rt == VType::Str) && op == BinOp::Add {
            if let (Some(a), Some(b)) = (self.const_value(l), self.const_value(r)) {
                let folded = ScalarValue::Str(format!("{}{}", a.render(), b.render()));
                self.log_fold(FoldKind::StrConcat, vec![a, b], folded.clone());
                return Ok(self.literal(folded));
            }
            return Ok(self.node(
                HopOp::Concat,
                &[l, r],
                VType::Str,
                MatrixCharacteristics::scalar(),
            ));
        }
        Ok(self.build_binary_direct(map_binop(op)?, l, r))
    }

    fn const_value(&self, id: HopId) -> Option<ScalarValue> {
        self.konst(id).cloned()
    }

    fn build_call(
        &mut self,
        name: &str,
        args: &'a [Expr],
        named: &'a [(String, Expr)],
        line: usize,
        env: &Env,
    ) -> Result<HopId, CompileError> {
        match name {
            "read" => {
                let path = self.resolve_string(&args[0], env)?;
                let mc = self
                    .config
                    .inputs
                    .get(&path)
                    .copied()
                    .ok_or_else(|| CompileError::MissingInputMetadata(path.clone()))?;
                Ok(self.node(HopOp::PRead(path.into()), &[], VType::Matrix, mc))
            }
            "matrix" => {
                let value = self.build_expr(&args[0], env)?;
                let rows = self.named_arg(named, "rows", env)?;
                let cols = self.named_arg(named, "cols", env)?;
                let mc = match (self.const_num(rows), self.const_num(cols)) {
                    (Some(r), Some(c)) => {
                        let nnz = self.const_num(value).map(|v| {
                            if v == 0.0 {
                                0
                            } else {
                                (r as u64) * (c as u64)
                            }
                        });
                        MatrixCharacteristics {
                            rows: Some(r as u64),
                            cols: Some(c as u64),
                            nnz,
                        }
                    }
                    (r, c) => MatrixCharacteristics {
                        rows: r.map(|v| v as u64),
                        cols: c.map(|v| v as u64),
                        nnz: None,
                    },
                };
                Ok(self.node(HopOp::DataGenConst, &[value, rows, cols], VType::Matrix, mc))
            }
            "seq" => {
                let from = self.build_expr(&args[0], env)?;
                let to = self.build_expr(&args[1], env)?;
                let mut inputs = vec![from, to];
                if args.len() > 2 {
                    inputs.push(self.build_expr(&args[2], env)?);
                }
                let rows = match (self.const_num(from), self.const_num(to)) {
                    (Some(f), Some(t)) => {
                        let by = if inputs.len() > 2 {
                            self.const_num(inputs[2])
                        } else {
                            Some(if f <= t { 1.0 } else { -1.0 })
                        };
                        // Unknown for a non-finite range (the runtime
                        // refuses it), saturating for a huge one.
                        by.map(|b| ((t - f) / b).floor())
                            .filter(|steps| steps.is_finite())
                            .map(|steps| (steps.max(0.0) as u64).saturating_add(1))
                    }
                    _ => None,
                };
                let mc = MatrixCharacteristics {
                    rows,
                    cols: Some(1),
                    nnz: rows, // seq values are (almost all) non-zero
                };
                Ok(self.node(HopOp::DataGenSeq, &inputs, VType::Matrix, mc))
            }
            "rand" => {
                let rows = self.named_arg(named, "rows", env)?;
                let cols = self.named_arg(named, "cols", env)?;
                let sparsity = match named.iter().find(|(n, _)| n == "sparsity") {
                    Some((_, e)) => self.build_expr(e, env)?,
                    None => self.literal(ScalarValue::Num(1.0)),
                };
                let seed = match named.iter().find(|(n, _)| n == "seed") {
                    Some((_, e)) => self.build_expr(e, env)?,
                    None => self.literal(ScalarValue::Num(7.0)),
                };
                let mc = match (self.const_num(rows), self.const_num(cols)) {
                    (Some(r), Some(c)) => {
                        let nnz = self
                            .const_num(sparsity)
                            .map(|s| ((r * c * s).ceil()) as u64);
                        MatrixCharacteristics {
                            rows: Some(r as u64),
                            cols: Some(c as u64),
                            nnz,
                        }
                    }
                    _ => MatrixCharacteristics::unknown(),
                };
                Ok(self.node(
                    HopOp::DataGenRand,
                    &[rows, cols, sparsity, seed],
                    VType::Matrix,
                    mc,
                ))
            }
            "table" => {
                // Only the paper's table(seq(1, nrow(X)), y) pattern.
                if !matches!(&args[0], Expr::Call { name, .. } if name == "seq") {
                    return Err(CompileError::Unsupported(format!(
                        "table at line {line}: first argument must be seq(...)"
                    )));
                }
                let y = self.build_expr(&args[1], env)?;
                let ymc = self.dag.hop(y).mc;
                // Output: n x k where k = max(y) is data dependent —
                // unknown unless runtime knowledge was injected.
                let mc = MatrixCharacteristics {
                    rows: ymc.rows,
                    cols: self.config.table_cols_hint,
                    nnz: ymc.rows, // one 1 per row
                };
                Ok(self.node(HopOp::TableSeq, &[y], VType::Matrix, mc))
            }
            "nrow" | "ncol" => {
                let m = self.build_expr(&args[0], env)?;
                let mc = self.dag.hop(m).mc;
                let dim = if name == "nrow" { mc.rows } else { mc.cols };
                if let Some(v) = dim {
                    let folded = ScalarValue::Num(v as f64);
                    self.log_fold(
                        FoldKind::Dim,
                        vec![ScalarValue::Num(v as f64)],
                        folded.clone(),
                    );
                    return Ok(self.literal(folded));
                }
                let op = if name == "nrow" {
                    HopOp::NRow
                } else {
                    HopOp::NCol
                };
                Ok(self.node(op, &[m], VType::Scalar, MatrixCharacteristics::scalar()))
            }
            "sum" | "mean" | "trace" => {
                let m = self.build_expr(&args[0], env)?;
                let agg = match name {
                    "sum" => AggOp::Sum,
                    "mean" => AggOp::Mean,
                    _ => AggOp::Trace,
                };
                Ok(self.node(
                    HopOp::Agg(agg),
                    &[m],
                    VType::Scalar,
                    MatrixCharacteristics::scalar(),
                ))
            }
            "min" | "max" => {
                if args.len() == 2 {
                    let l = self.build_expr(&args[0], env)?;
                    let r = self.build_expr(&args[1], env)?;
                    let bop = if name == "min" {
                        BinaryOp::Min
                    } else {
                        BinaryOp::Max
                    };
                    return Ok(self.build_binary_direct(bop, l, r));
                }
                let m = self.build_expr(&args[0], env)?;
                let agg = if name == "min" {
                    AggOp::Min
                } else {
                    AggOp::Max
                };
                Ok(self.node(
                    HopOp::Agg(agg),
                    &[m],
                    VType::Scalar,
                    MatrixCharacteristics::scalar(),
                ))
            }
            "rowSums" | "colSums" | "rowMaxs" | "colMaxs" => {
                let m = self.build_expr(&args[0], env)?;
                let mc = self.dag.hop(m).mc;
                let (agg, out_mc) = match name {
                    "rowSums" => (
                        AggOp::RowSums,
                        MatrixCharacteristics {
                            rows: mc.rows,
                            cols: Some(1),
                            nnz: mc.rows,
                        },
                    ),
                    "colSums" => (
                        AggOp::ColSums,
                        MatrixCharacteristics {
                            rows: Some(1),
                            cols: mc.cols,
                            nnz: mc.cols,
                        },
                    ),
                    "rowMaxs" => (
                        AggOp::RowMaxs,
                        MatrixCharacteristics {
                            rows: mc.rows,
                            cols: Some(1),
                            nnz: mc.rows,
                        },
                    ),
                    _ => (
                        AggOp::ColMaxs,
                        MatrixCharacteristics {
                            rows: Some(1),
                            cols: mc.cols,
                            nnz: mc.cols,
                        },
                    ),
                };
                Ok(self.node(HopOp::Agg(agg), &[m], VType::Matrix, out_mc))
            }
            "t" => {
                let m = self.build_expr(&args[0], env)?;
                let mc = self.dag.hop(m).mc.transpose();
                Ok(self.node(HopOp::Transpose, &[m], VType::Matrix, mc))
            }
            "solve" => {
                let a = self.build_expr(&args[0], env)?;
                let b = self.build_expr(&args[1], env)?;
                let bmc = self.dag.hop(b).mc;
                let mc = MatrixCharacteristics {
                    rows: self.dag.hop(a).mc.cols,
                    cols: bmc.cols,
                    nnz: self
                        .dag
                        .hop(a)
                        .mc
                        .cols
                        .and_then(|r| bmc.cols.map(|c| r * c)),
                };
                Ok(self.node(HopOp::Solve, &[a, b], VType::Matrix, mc))
            }
            "diag" => {
                let m = self.build_expr(&args[0], env)?;
                let mc = self.dag.hop(m).mc;
                let out = if mc.is_col_vector() {
                    MatrixCharacteristics {
                        rows: mc.rows,
                        cols: mc.rows,
                        nnz: mc.nnz,
                    }
                } else {
                    let n = match (mc.rows, mc.cols) {
                        (Some(r), Some(c)) => Some(r.min(c)),
                        _ => None,
                    };
                    MatrixCharacteristics {
                        rows: n,
                        cols: Some(1),
                        nnz: None,
                    }
                };
                Ok(self.node(HopOp::Diag, &[m], VType::Matrix, out))
            }
            "ppred" => {
                let l = self.build_expr(&args[0], env)?;
                let r = self.build_expr(&args[1], env)?;
                let op_str = match &args[2] {
                    Expr::Str(s) => s.clone(),
                    other => {
                        return Err(CompileError::Unsupported(format!(
                            "ppred operator must be a string literal, got {other:?}"
                        )))
                    }
                };
                let bop = match op_str.as_str() {
                    ">" => BinaryOp::Greater,
                    ">=" => BinaryOp::GreaterEq,
                    "<" => BinaryOp::Less,
                    "<=" => BinaryOp::LessEq,
                    "==" => BinaryOp::Eq,
                    "!=" => BinaryOp::NotEq,
                    other => {
                        return Err(CompileError::Unsupported(format!(
                            "ppred operator '{other}'"
                        )))
                    }
                };
                Ok(self.build_binary_direct(bop, l, r))
            }
            "append" | "cbind" => {
                let a = self.build_expr(&args[0], env)?;
                let b = self.build_expr(&args[1], env)?;
                let (amc, bmc) = (self.dag.hop(a).mc, self.dag.hop(b).mc);
                let mc = MatrixCharacteristics {
                    rows: amc.rows.or(bmc.rows),
                    cols: match (amc.cols, bmc.cols) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    },
                    nnz: match (amc.nnz, bmc.nnz) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    },
                };
                Ok(self.node(HopOp::Append, &[a, b], VType::Matrix, mc))
            }
            "rbind" => {
                let a = self.build_expr(&args[0], env)?;
                let b = self.build_expr(&args[1], env)?;
                let (amc, bmc) = (self.dag.hop(a).mc, self.dag.hop(b).mc);
                let mc = MatrixCharacteristics {
                    rows: match (amc.rows, bmc.rows) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    },
                    cols: amc.cols.or(bmc.cols),
                    nnz: match (amc.nnz, bmc.nnz) {
                        (Some(x), Some(y)) => Some(x + y),
                        _ => None,
                    },
                };
                Ok(self.node(HopOp::RBind, &[a, b], VType::Matrix, mc))
            }
            "sqrt" | "abs" | "exp" | "log" | "round" | "sign" => {
                let m = self.build_expr(&args[0], env)?;
                let uop = match name {
                    "sqrt" => UnaryOp::Sqrt,
                    "abs" => UnaryOp::Abs,
                    "exp" => UnaryOp::Exp,
                    "log" => UnaryOp::Log,
                    "round" => UnaryOp::Round,
                    _ => UnaryOp::Sign,
                };
                if self.dag.hop(m).vtype == VType::Matrix {
                    let in_mc = self.dag.hop(m).mc;
                    let mc = if uop.is_zero_preserving() {
                        in_mc
                    } else {
                        MatrixCharacteristics {
                            rows: in_mc.rows,
                            cols: in_mc.cols,
                            nnz: in_mc.cells(),
                        }
                    };
                    Ok(self.node(HopOp::UnaryM(uop), &[m], VType::Matrix, mc))
                } else {
                    if let Some(v) = self.const_num(m) {
                        let folded = ScalarValue::Num(uop.apply(v));
                        self.log_fold(
                            FoldKind::Unary(uop),
                            vec![ScalarValue::Num(v)],
                            folded.clone(),
                        );
                        return Ok(self.literal(folded));
                    }
                    Ok(self.node(
                        HopOp::UnaryS(uop),
                        &[m],
                        VType::Scalar,
                        MatrixCharacteristics::scalar(),
                    ))
                }
            }
            "as_scalar" | "castAsScalar" => {
                let m = self.build_expr(&args[0], env)?;
                Ok(self.node(
                    HopOp::CastScalar,
                    &[m],
                    VType::Scalar,
                    MatrixCharacteristics::scalar(),
                ))
            }
            "as_matrix" => {
                let s = self.build_expr(&args[0], env)?;
                Ok(self.node(
                    HopOp::CastMatrix,
                    &[s],
                    VType::Matrix,
                    MatrixCharacteristics::scalar(),
                ))
            }
            other => Err(CompileError::Unsupported(format!(
                "call to '{other}' at line {line} (user functions must be inlined)"
            ))),
        }
    }

    /// Binary over already-built operands with a concrete kernel op.
    fn build_binary_direct(&mut self, bop: BinaryOp, l: HopId, r: HopId) -> HopId {
        let (lt, rt) = (self.dag.hop(l).vtype, self.dag.hop(r).vtype);
        match (lt == VType::Matrix, rt == VType::Matrix) {
            (true, true) => {
                let mc = binary_mm_mc(bop, &self.dag.hop(l).mc, &self.dag.hop(r).mc);
                self.node(HopOp::BinaryMM(bop), &[l, r], VType::Matrix, mc)
            }
            (true, false) => {
                let mc = binary_scalar_mc(bop, &self.dag.hop(l).mc, false, self.const_num(r));
                self.node(HopOp::BinaryMS(bop), &[l, r], VType::Matrix, mc)
            }
            (false, true) => {
                let mc = binary_scalar_mc(bop, &self.dag.hop(r).mc, true, self.const_num(l));
                self.node(HopOp::BinarySM(bop), &[l, r], VType::Matrix, mc)
            }
            (false, false) => {
                // Scalar-scalar: constant fold when both sides known.
                if let (Some(a), Some(b)) = (self.const_value(l), self.const_value(r)) {
                    if let Some(folded) = fold_scalar(bop, &a, &b) {
                        self.log_fold(FoldKind::Binary(bop), vec![a, b], folded.clone());
                        return self.literal(folded);
                    }
                }
                self.node(
                    HopOp::BinarySS(bop),
                    &[l, r],
                    VType::Scalar,
                    MatrixCharacteristics::scalar(),
                )
            }
        }
    }

    fn named_arg(
        &mut self,
        named: &'a [(String, Expr)],
        name: &str,
        env: &Env,
    ) -> Result<HopId, CompileError> {
        let (_, e) = named
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| CompileError::Unsupported(format!("missing argument '{name}='")))?;
        self.build_expr(e, env)
    }

    /// Build the (lo, hi) bound hops of an index range. Literal 0 encodes
    /// an open bound.
    fn range_bounds(
        &mut self,
        range: &'a IndexRange,
        env: &Env,
    ) -> Result<(HopId, HopId), CompileError> {
        match range {
            IndexRange::All => {
                let z = self.literal(ScalarValue::Num(0.0));
                Ok((z, z))
            }
            IndexRange::Single(e) => {
                let i = self.build_expr(e, env)?;
                Ok((i, i))
            }
            IndexRange::Range(lo, hi) => {
                let l = match lo {
                    Some(e) => self.build_expr(e, env)?,
                    None => self.literal(ScalarValue::Num(0.0)),
                };
                let h = match hi {
                    Some(e) => self.build_expr(e, env)?,
                    None => self.literal(ScalarValue::Num(0.0)),
                };
                Ok((l, h))
            }
        }
    }

    /// Output characteristics of a right-indexing op given bound hops.
    fn index_mc(
        &self,
        mc: MatrixCharacteristics,
        rl: HopId,
        rh: HopId,
        cl: HopId,
        ch: HopId,
    ) -> MatrixCharacteristics {
        let dim = |lo: HopId, hi: HopId, full: Option<u64>| -> Option<u64> {
            match (self.const_num(lo), self.const_num(hi)) {
                (Some(l), Some(h)) => {
                    if l == 0.0 && h == 0.0 {
                        full
                    } else {
                        let l = if l == 0.0 { 1.0 } else { l };
                        let h = if h == 0.0 {
                            return full.map(|f| f - (l as u64) + 1);
                        } else {
                            h
                        };
                        Some((h - l + 1.0).max(0.0) as u64)
                    }
                }
                _ => None,
            }
        };
        let rows = dim(rl, rh, mc.rows);
        let cols = dim(cl, ch, mc.cols);
        MatrixCharacteristics {
            rows,
            cols,
            nnz: None,
        }
    }
}

/// Map AST operator to kernel operator.
fn map_binop(op: BinOp) -> Result<BinaryOp, CompileError> {
    Ok(match op {
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
        BinOp::Mod => {
            return Err(CompileError::Unsupported("%% on matrices".into()));
        }
        BinOp::MatMul => {
            return Err(CompileError::Internal("matmul handled separately".into()));
        }
    })
}

/// Result characteristics of an elementwise matrix-matrix op (with DML
/// vector broadcasting).
fn binary_mm_mc(
    op: BinaryOp,
    l: &MatrixCharacteristics,
    r: &MatrixCharacteristics,
) -> MatrixCharacteristics {
    // Broadcast dimension join: a side of extent 1 broadcasts to the
    // other side's extent — which may itself be unknown (`None`). A known
    // extent > 1 survives an unknown partner (the partner must be 1 or
    // equal for the operation to be valid).
    fn bdim(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(1), other) => other,
            (other, Some(1)) => other,
            (Some(x), Some(y)) => Some(x.max(y)),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        }
    }
    let rows = bdim(l.rows, r.rows);
    let cols = bdim(l.cols, r.cols);
    let cells = rows.and_then(|r2| cols.map(|c| r2 * c));
    // Worst-case nnz estimation: multiplication intersects patterns,
    // addition unions them, non-zero-preserving ops densify. A broadcast
    // side's pattern replicates across the expanded dimension, so its
    // nnz scales by the replication factor before the intersection/union
    // (a dense 500×1 vector times a dense 500×5 matrix yields a dense
    // result, not one with the vector's 500 non-zeros).
    let eff = |side: &MatrixCharacteristics| -> Option<u64> {
        let n = side.nnz?;
        let rep = (rows? / side.rows?.max(1))
            .max(1)
            .saturating_mul((cols? / side.cols?.max(1)).max(1));
        Some(n.saturating_mul(rep))
    };
    let nnz = if !op.is_zero_preserving() {
        cells
    } else {
        match op {
            BinaryOp::Mul | BinaryOp::And => match (eff(l), eff(r)) {
                (Some(a), Some(b)) => Some(match cells {
                    Some(c) => a.min(b).min(c),
                    None => a.min(b),
                }),
                _ => None,
            },
            _ => match (eff(l), eff(r), cells) {
                (Some(a), Some(b), Some(c)) => Some(a.saturating_add(b).min(c)),
                _ => None,
            },
        }
    };
    MatrixCharacteristics { rows, cols, nnz }
}

/// Result characteristics of matrix-scalar ops. `scalar_left` marks
/// `s op M`; `scalar_const` is the scalar value when known at compile
/// time, enabling an exact sparsity decision (`X + 1` densifies, `X * 2`
/// does not).
fn binary_scalar_mc(
    op: BinaryOp,
    m: &MatrixCharacteristics,
    scalar_left: bool,
    scalar_const: Option<f64>,
) -> MatrixCharacteristics {
    let keeps_zeros = match scalar_const {
        Some(s) => {
            let v = if scalar_left {
                op.apply(s, 0.0)
            } else {
                op.apply(0.0, s)
            };
            v == 0.0
        }
        // Unknown scalar: conservative per-op default (multiplicative ops
        // keep the pattern, additive/comparison ops may densify).
        None => matches!(op, BinaryOp::Mul | BinaryOp::Div | BinaryOp::And),
    };
    let nnz = if keeps_zeros { m.nnz } else { m.cells() };
    MatrixCharacteristics {
        rows: m.rows,
        cols: m.cols,
        nnz,
    }
}

/// Constant-fold a scalar-scalar operation.
fn fold_scalar(op: BinaryOp, a: &ScalarValue, b: &ScalarValue) -> Option<ScalarValue> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;
    use reml_lang::parser::parse;

    fn config() -> CompileConfig {
        CompileConfig::new(ClusterConfig::small_test_cluster(), 1024, 512)
            .with_num_param("icpt", 0.0)
            .with_param("X", ScalarValue::Str("hdfs:X".into()))
            .with_input("hdfs:X", MatrixCharacteristics::dense(1000, 100))
    }

    fn build(src: &str) -> (BuiltDag, Env) {
        let cfg = config();
        let program = parse(src).unwrap();
        let mut env = Env::new();
        let dag = BlockBuilder::new(&cfg)
            .build_statements(&program.statements, &mut env)
            .unwrap();
        (dag, env)
    }

    #[test]
    fn read_propagates_metadata() {
        let (built, env) = build("X = read($X)");
        assert_eq!(env["X"].mc, MatrixCharacteristics::dense(1000, 100));
        assert!(built
            .dag
            .hops
            .iter()
            .any(|h| matches!(h.op, HopOp::PRead(_))));
    }

    #[test]
    fn missing_input_metadata_errors() {
        let cfg = CompileConfig::new(ClusterConfig::small_test_cluster(), 512, 512)
            .with_param("X", ScalarValue::Str("nope".into()));
        let program = parse("X = read($X)").unwrap();
        let mut env = Env::new();
        let err = BlockBuilder::new(&cfg)
            .build_statements(&program.statements, &mut env)
            .unwrap_err();
        assert!(matches!(err, CompileError::MissingInputMetadata(_)));
    }

    #[test]
    fn matmult_size_propagation() {
        let (_, env) = build("X = read($X)\ng = t(X) %*% X");
        assert_eq!(env["g"].mc.rows, Some(100));
        assert_eq!(env["g"].mc.cols, Some(100));
    }

    #[test]
    fn scalar_constant_propagation() {
        let (_, env) = build("a = 2\nb = a * 3 + 1");
        assert_eq!(env["b"].konst, Some(ScalarValue::Num(7.0)));
    }

    #[test]
    fn param_constants_fold() {
        let (_, env) = build("ic = $icpt\nflag = ic == 1");
        assert_eq!(env["flag"].konst, Some(ScalarValue::Bool(false)));
    }

    #[test]
    fn nrow_folds_to_literal() {
        let (built, env) = build("X = read($X)\nn = nrow(X)\nz = matrix(0, rows=n, cols=1)");
        assert_eq!(env["n"].konst, Some(ScalarValue::Num(1000.0)));
        assert_eq!(env["z"].mc, MatrixCharacteristics::known(1000, 1, 0));
        assert!(!built.dag.hops.iter().any(|h| matches!(h.op, HopOp::NRow)));
    }

    #[test]
    fn table_produces_unknown_cols() {
        let cfg = config()
            .with_param("Y", ScalarValue::Str("hdfs:Y".into()))
            .with_input("hdfs:Y", MatrixCharacteristics::dense(1000, 1));
        let program = parse("y = read($Y)\nY = table(seq(1, nrow(y)), y)\nk = ncol(Y)").unwrap();
        let mut env = Env::new();
        BlockBuilder::new(&cfg)
            .build_statements(&program.statements, &mut env)
            .unwrap();
        assert_eq!(env["Y"].mc.rows, Some(1000));
        assert_eq!(env["Y"].mc.cols, None);
        assert_eq!(env["k"].konst, None);
    }

    #[test]
    fn seq_size_inference() {
        let (_, env) = build("s = seq(1, 10)\nr = seq(0, 1, 0.25)");
        assert_eq!(env["s"].mc.rows, Some(10));
        assert_eq!(env["r"].mc.rows, Some(5));
    }

    #[test]
    fn indexing_with_known_bounds() {
        let (_, env) = build("X = read($X)\nS = X[, 1:10]\nrow = X[5, ]");
        assert_eq!(env["S"].mc.rows, Some(1000));
        assert_eq!(env["S"].mc.cols, Some(10));
        assert_eq!(env["row"].mc.rows, Some(1));
        assert_eq!(env["row"].mc.cols, Some(100));
    }

    #[test]
    fn indexing_with_unknown_bound() {
        let (_, env) = build("X = read($X)\nk = sum(X)\nS = X[, 1:k]");
        assert_eq!(env["S"].mc.cols, None);
        assert_eq!(env["S"].mc.rows, Some(1000));
    }

    #[test]
    fn ppred_builds_comparison() {
        let (built, env) = build("X = read($X)\nsv = ppred(X, 0, \">\")");
        assert_eq!(env["sv"].mc.rows, Some(1000));
        assert!(built
            .dag
            .hops
            .iter()
            .any(|h| matches!(h.op, HopOp::BinaryMS(BinaryOp::Greater))));
    }

    #[test]
    fn append_adds_columns() {
        let (_, env) =
            build("X = read($X)\nones = matrix(1, rows=nrow(X), cols=1)\nX2 = append(X, ones)");
        assert_eq!(env["X2"].mc.cols, Some(101));
        assert_eq!(env["X2"].mc.rows, Some(1000));
    }

    #[test]
    fn string_concat_folds() {
        let (_, env) = build("msg = \"iter=\" + 3");
        assert_eq!(env["msg"].konst, Some(ScalarValue::Str("iter=3".into())));
    }

    #[test]
    fn twrites_emitted_for_assignments() {
        let (built, _) = build("a = 1\nb = a + 1");
        let twrites: Vec<_> = built
            .dag
            .hops
            .iter()
            .filter_map(|h| match &h.op {
                HopOp::TWrite(n) => Some(n.to_string()),
                _ => None,
            })
            .collect();
        assert_eq!(twrites, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn predicate_folding() {
        let cfg = config();
        let program = parse("x = $icpt == 1").unwrap();
        let Statement::Assign { expr, .. } = &program.statements[0] else {
            panic!()
        };
        let env = Env::new();
        let (_, _, konst) = BlockBuilder::new(&cfg).build_predicate(expr, &env).unwrap();
        assert_eq!(konst, Some(ScalarValue::Bool(false)));
    }

    #[test]
    fn merge_env_branches_semantics() {
        let mut a = Env::new();
        a.insert(
            "x".into(),
            VarInfo::matrix(MatrixCharacteristics::dense(10, 5)),
        );
        a.insert("k".into(), VarInfo::constant(ScalarValue::Num(2.0)));
        let mut b = Env::new();
        b.insert(
            "x".into(),
            VarInfo::matrix(MatrixCharacteristics::dense(10, 6)),
        );
        b.insert("k".into(), VarInfo::constant(ScalarValue::Num(2.0)));
        b.insert("only_b".into(), VarInfo::scalar());
        let m = merge_env_branches(&a, &b);
        assert_eq!(m["x"].mc.rows, Some(10));
        assert_eq!(m["x"].mc.cols, None);
        assert_eq!(m["k"].konst, Some(ScalarValue::Num(2.0)));
        assert!(m.contains_key("only_b"));
    }

    #[test]
    fn sparse_nnz_through_elementwise() {
        let cfg = CompileConfig::new(ClusterConfig::small_test_cluster(), 1024, 512)
            .with_param("S", ScalarValue::Str("hdfs:S".into()))
            .with_input("hdfs:S", MatrixCharacteristics::known(1000, 100, 1000));
        let program = parse("S = read($S)\nd = S * 2\ne = S + 1").unwrap();
        let mut env = Env::new();
        BlockBuilder::new(&cfg)
            .build_statements(&program.statements, &mut env)
            .unwrap();
        // Multiply keeps sparsity; add densifies.
        assert_eq!(env["d"].mc.nnz, Some(1000));
        assert_eq!(env["e"].mc.nnz, Some(100_000));
    }
}
