//! The CP op-semantics table: what each opcode *does*, stated once.
//!
//! [`eval_op`] is a single `match` with one arm per CP opcode, generic
//! over an [`OperandStore`] — the only thing the two walkers disagree on.
//! The bytecode VM implements the store over preresolved slots
//! ([`Arg`](crate::vm::Arg), symbol id); the reference tree walker
//! implements it over names ([`Operand`](crate::value::Operand), `str`).
//! Both read matrix operands by reference (`touch` for the buffer pool's
//! LRU/restore accounting, then `peek`) and share them by handle: a
//! matrix is an `Arc<Matrix>`, so `assignvar`, `pread` and `pwrite` bind
//! a second name (or an HDFS path) to the same value with a refcount
//! bump, and kernels read `&Matrix` and return a fresh result. Operand
//! order, restore accounting, error order and values are the same in
//! both walkers by construction.
//! Monomorphisation gives each walker its own copy of the table, so the
//! VM's hot loop pays nothing for the sharing.
//!
//! The table dispatches on [`OpCode`] — the vocabulary the compiler
//! emits and the cost model prices. The tree walker passes each
//! instruction's opcode as is; the VM carries the same opcode inside
//! [`VmOp::Cp`](crate::vm::VmOp::Cp) and handles its two VM-only forms
//! (fused chains, MR jobs) before reaching the table.

use std::borrow::Cow;
use std::sync::Arc;

use reml_matrix::{BinaryOp, Matrix, MatrixCharacteristics, MatrixError};

use crate::executor::ExecError;
use crate::instructions::OpCode;
use crate::value::ScalarValue;

/// Where an executor keeps its variables: how operands are fetched and
/// results bound. Everything else about an opcode lives in [`eval_op`].
pub(crate) trait OperandStore {
    /// An instruction operand (variable reference or literal).
    type Arg;
    /// An output variable.
    type Out: ?Sized;

    /// The scalar an operand denotes without touching the pool: a
    /// literal, or a variable currently bound to a scalar.
    fn held_scalar(&self, arg: &Self::Arg) -> Option<ScalarValue>;
    /// Phase 1 of a matrix-operand fetch: bump the LRU clock / restore an
    /// evicted matrix, and verify the operand is bound at all.
    fn touch(&mut self, arg: &Self::Arg) -> Result<(), ExecError>;
    /// Phase 2: read the operand's shared handle by reference (no
    /// clone; `into_owned` shares it), materializing a 1×1 for a scalar
    /// in matrix position.
    fn peek(&self, arg: &Self::Arg) -> Result<Cow<'_, Arc<Matrix>>, ExecError>;
    /// Bind a matrix, dropping any scalar of the same name.
    fn bind_matrix(&mut self, out: &Self::Out, m: Arc<Matrix>, dirty: bool);
    /// Bind a scalar, dropping any matrix of the same name.
    fn bind_scalar(&mut self, out: &Self::Out, v: ScalarValue);
    /// Drop whatever a variable operand is bound to.
    fn unbind(&mut self, arg: &Self::Arg);
    /// Mark a variable operand's matrix as matching its HDFS copy.
    fn mark_clean(&mut self, arg: &Self::Arg);
    /// Read the dataset at an HDFS path.
    fn hdfs_read(&mut self, path: &str) -> Result<Arc<Matrix>, ExecError>;
    /// Write a dataset to an HDFS path.
    fn hdfs_write(&mut self, path: &str, m: Arc<Matrix>);
    /// Capture one printed line.
    fn print(&mut self, line: String);
    /// `(pool-resident bytes, limit)` when an OOM limit is configured.
    fn oom_limit(&self) -> Option<(u64, u64)>;

    /// Read a scalar operand; a 1×1 matrix degrades to its value.
    fn scalar(&mut self, arg: &Self::Arg) -> Result<ScalarValue, ExecError> {
        if let Some(v) = self.held_scalar(arg) {
            return Ok(v);
        }
        self.touch(arg)?;
        Ok(ScalarValue::Num(self.peek(arg)?.as_scalar()?))
    }

    /// Read a numeric scalar operand.
    fn scalar_num(&mut self, arg: &Self::Arg) -> Result<f64, ExecError> {
        self.scalar(arg)?
            .as_f64()
            .ok_or_else(|| ExecError::TypeError("expected numeric scalar".into()))
    }

    /// Fail with [`ExecError::OutOfMemory`] when `bytes` more would push
    /// resident bytes past the OOM limit. `None` is a size `u64` cannot
    /// hold, which no limit — configured or not — admits.
    fn reserve(&self, bytes: Option<u64>) -> Result<(), ExecError> {
        let (resident, limit) = self.oom_limit().unwrap_or((0, u64::MAX));
        let needed = bytes.map_or(u64::MAX, |b| resident.saturating_add(b));
        if bytes.is_some() && needed <= limit {
            return Ok(());
        }
        reml_trace::event!("exec.oom", needed_bytes = needed, limit_bytes = limit);
        Err(ExecError::OutOfMemory {
            needed_bytes: needed,
            limit_bytes: limit,
        })
    }

    /// Bind a computed (dirty) matrix, subject to the OOM limit.
    fn put_matrix(&mut self, out: Option<&Self::Out>, m: Matrix) -> Result<(), ExecError> {
        self.put_shared(out, Arc::new(m))
    }

    /// Bind a (dirty) shared matrix, subject to the OOM limit. The limit
    /// counts its bytes for this name too, as it did for a deep copy.
    fn put_shared(&mut self, out: Option<&Self::Out>, m: Arc<Matrix>) -> Result<(), ExecError> {
        if let Some(out) = out {
            self.reserve(Some(m.size_bytes()))?;
            self.bind_matrix(out, m, true);
        }
        Ok(())
    }

    /// Bind a computed scalar.
    fn put_scalar(&mut self, out: Option<&Self::Out>, v: ScalarValue) {
        if let Some(out) = out {
            self.bind_scalar(out, v);
        }
    }
}

/// A scalar in matrix position: the 1×1 it denotes. `what` names the
/// operand in the error for a string.
pub(crate) fn scalar_as_matrix(
    v: &ScalarValue,
    what: impl FnOnce() -> String,
) -> Result<Cow<'static, Arc<Matrix>>, ExecError> {
    let f = v
        .as_f64()
        .ok_or_else(|| ExecError::TypeError(format!("{} not numeric", what())))?;
    Ok(Cow::Owned(Arc::new(Matrix::constant(1, 1, f))))
}

/// Elementwise matrix ∘ matrix; a 1×1 side degrades to a scalar op per
/// DML semantics.
pub(crate) fn binary_mm(op: BinaryOp, a: &Matrix, b: &Matrix) -> Result<Matrix, MatrixError> {
    if a.rows() == 1 && a.cols() == 1 && (b.rows() > 1 || b.cols() > 1) {
        Ok(b.scalar_binary(op, a.get(0, 0)))
    } else if b.rows() == 1 && b.cols() == 1 && (a.rows() > 1 || a.cols() > 1) {
        Ok(a.binary_scalar(op, b.get(0, 0)))
    } else {
        a.binary(op, b)
    }
}

/// Scalar ∘ scalar: logical ops over booleans, comparisons to booleans,
/// arithmetic to numbers.
fn binary_ss(op: BinaryOp, a: &ScalarValue, b: &ScalarValue) -> Result<ScalarValue, ExecError> {
    let num = |v: &ScalarValue| {
        v.as_f64()
            .ok_or_else(|| ExecError::TypeError("non-numeric".into()))
    };
    let boolean = |v: &ScalarValue| {
        v.as_bool()
            .ok_or_else(|| ExecError::TypeError("non-boolean in logical op".into()))
    };
    Ok(match op {
        BinaryOp::And | BinaryOp::Or => {
            let (x, y) = (boolean(a)?, boolean(b)?);
            ScalarValue::Bool(if op == BinaryOp::And { x && y } else { x || y })
        }
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Less
        | BinaryOp::LessEq
        | BinaryOp::Greater
        | BinaryOp::GreaterEq => ScalarValue::Bool(op.apply(num(a)?, num(b)?) != 0.0),
        _ => ScalarValue::Num(op.apply(num(a)?, num(b)?)),
    })
}

/// Touch one matrix operand, then apply `f` to it by reference.
fn with_matrix<S: OperandStore, T>(
    store: &mut S,
    arg: &S::Arg,
    f: impl FnOnce(&Matrix) -> T,
) -> Result<T, ExecError> {
    store.touch(arg)?;
    Ok(f(&**store.peek(arg)?))
}

/// Touch one matrix operand and share its handle.
fn shared_matrix<S: OperandStore>(store: &mut S, arg: &S::Arg) -> Result<Arc<Matrix>, ExecError> {
    store.touch(arg)?;
    Ok(store.peek(arg)?.into_owned())
}

/// Touch two matrix operands in positional order, then apply the kernel
/// `f` to them by reference.
fn with_matrices<S: OperandStore>(
    store: &mut S,
    args: &[S::Arg],
    f: impl FnOnce(&Matrix, &Matrix) -> Result<Matrix, MatrixError>,
) -> Result<Matrix, ExecError> {
    store.touch(&args[0])?;
    store.touch(&args[1])?;
    let (a, b) = (store.peek(&args[0])?, store.peek(&args[1])?);
    Ok(f(&a, &b)?)
}

/// Resolve the four 1-based inclusive index operands against a
/// `rows × cols` matrix into 0-based inclusive bounds; 0 means "open"
/// (the compiler encodes `X[, 1:k]` row bounds as 0/0 = full range). A
/// range reaching outside the matrix is an error.
fn index_bounds<S: OperandStore>(
    store: &mut S,
    ops: &[S::Arg],
    rows: usize,
    cols: usize,
) -> Result<(usize, usize, usize, usize), ExecError> {
    let mut bound = |i: usize, open: usize| -> Result<usize, ExecError> {
        let v = store.scalar_num(&ops[i])? as usize;
        Ok(if v == 0 { open } else { v }.saturating_sub(1))
    };
    let (rl, rh, cl, ch) = (bound(0, 1)?, bound(1, rows)?, bound(2, 1)?, bound(3, cols)?);
    if rh >= rows || ch >= cols || rl > rh || cl > ch {
        return Err(ExecError::Matrix(MatrixError::IndexOutOfBounds {
            index: (rh, ch),
            shape: (rows, cols),
        }));
    }
    Ok((rl, rh, cl, ch))
}

/// Refuse a `rows × cols` matrix to be generated at `density` before it
/// is allocated: when its cell bytes overflow, or its estimated footprint
/// exceeds a configured OOM limit.
fn reserve_generated<S: OperandStore>(
    store: &S,
    rows: usize,
    cols: usize,
    density: f64,
) -> Result<(), ExecError> {
    let bytes = rows
        .checked_mul(cols)
        .filter(|cells| cells.checked_mul(8).is_some())
        .and_then(|cells| {
            let nnz = (density.clamp(0.0, 1.0) * cells as f64).ceil() as u64;
            MatrixCharacteristics::known(rows as u64, cols as u64, nnz).estimated_size_bytes()
        });
    store.reserve(bytes)
}

/// Execute one CP operation against `store`.
pub(crate) fn eval_op<S: OperandStore>(
    store: &mut S,
    op: &OpCode,
    args: &[S::Arg],
    out: Option<&S::Out>,
) -> Result<(), ExecError> {
    match op {
        OpCode::PersistentRead { path } => {
            let m = store.hdfs_read(path)?;
            if let Some(out) = out {
                store.bind_matrix(out, m, false);
            }
            Ok(())
        }
        OpCode::PersistentWrite { path } => {
            let m = shared_matrix(store, &args[0])?;
            store.hdfs_write(path, m);
            store.mark_clean(&args[0]);
            Ok(())
        }
        OpCode::DataGenConst => {
            let v = store.scalar_num(&args[0])?;
            let rows = store.scalar_num(&args[1])? as usize;
            let cols = store.scalar_num(&args[2])? as usize;
            reserve_generated(store, rows, cols, if v == 0.0 { 0.0 } else { 1.0 })?;
            store.put_matrix(out, Matrix::constant(rows, cols, v))
        }
        OpCode::DataGenSeq => {
            let from = store.scalar_num(&args[0])?;
            let to = store.scalar_num(&args[1])?;
            let by = if args.len() > 2 {
                store.scalar_num(&args[2])?
            } else if from <= to {
                1.0
            } else {
                -1.0
            };
            let rows = reml_matrix::generate::seq_len(from, to, by)?;
            reserve_generated(store, rows, 1, 1.0)?;
            let seq = reml_matrix::generate::seq_by(from, to, by)?;
            store.put_matrix(out, Matrix::Dense(seq))
        }
        OpCode::DataGenRand => {
            let rows = store.scalar_num(&args[0])? as usize;
            let cols = store.scalar_num(&args[1])? as usize;
            let sparsity = store.scalar_num(&args[2])?;
            let seed = store.scalar_num(&args[3])? as u64;
            reserve_generated(store, rows, cols, sparsity)?;
            let m = if sparsity >= 1.0 {
                Matrix::Dense(reml_matrix::generate::rand_dense(
                    rows, cols, 0.0, 1.0, seed,
                ))
            } else {
                Matrix::from_sparse_auto(reml_matrix::generate::rand_sparse(
                    rows, cols, sparsity, 0.0, 1.0, seed,
                ))
            };
            store.put_matrix(out, m)
        }
        OpCode::MatMult => {
            let m = with_matrices(store, args, |a, b| a.matmult(b))?;
            store.put_matrix(out, m)
        }
        OpCode::Tsmm => {
            let m = with_matrix(store, &args[0], |a| a.tsmm())?;
            store.put_matrix(out, m)
        }
        OpCode::MatMultTransLeft => {
            let m = with_matrices(store, args, |a, b| a.tmatmult(b))?;
            store.put_matrix(out, m)
        }
        OpCode::MmChain => {
            // t(X) %*% (X %*% v): operands [X, v].
            let m = with_matrices(store, args, |x, v| x.tmatmult(&x.matmult(v)?))?;
            store.put_matrix(out, m)
        }
        OpCode::Solve => {
            let m = with_matrices(store, args, |a, b| a.solve(b))?;
            store.put_matrix(out, m)
        }
        OpCode::Transpose => {
            let m = with_matrix(store, &args[0], Matrix::transpose)?;
            store.put_matrix(out, m)
        }
        OpCode::Diag => {
            let m = with_matrix(store, &args[0], Matrix::diag)?;
            store.put_matrix(out, m)
        }
        OpCode::BinaryMM(op) => {
            let m = with_matrices(store, args, |a, b| binary_mm(*op, a, b))?;
            store.put_matrix(out, m)
        }
        OpCode::BinaryMS(op) => {
            store.touch(&args[0])?;
            let s = store.scalar_num(&args[1])?;
            let m = store.peek(&args[0])?.binary_scalar(*op, s);
            store.put_matrix(out, m)
        }
        OpCode::BinarySM(op) => {
            let s = store.scalar_num(&args[0])?;
            let m = with_matrix(store, &args[1], |a| a.scalar_binary(*op, s))?;
            store.put_matrix(out, m)
        }
        OpCode::BinarySS(op) => {
            let a = store.scalar(&args[0])?;
            let b = store.scalar(&args[1])?;
            store.put_scalar(out, binary_ss(*op, &a, &b)?);
            Ok(())
        }
        OpCode::UnaryM(op) => {
            let m = with_matrix(store, &args[0], |a| a.unary(*op))?;
            store.put_matrix(out, m)
        }
        OpCode::UnaryS(op) => {
            let v = store.scalar_num(&args[0])?;
            store.put_scalar(out, ScalarValue::Num(op.apply(v)));
            Ok(())
        }
        OpCode::Agg(op) => {
            let agg = with_matrix(store, &args[0], |a| a.aggregate(*op))?;
            if op.is_full_reduction() {
                store.put_scalar(out, ScalarValue::Num(agg.as_scalar()?));
                Ok(())
            } else {
                store.put_matrix(out, agg)
            }
        }
        OpCode::TableSeq => {
            let m = with_matrix(store, &args[0], |y| {
                reml_matrix::generate::table_seq(&y.to_dense())
            })??;
            store.put_matrix(out, m)
        }
        OpCode::RightIndex => {
            let (rows, cols) = with_matrix(store, &args[0], |a| (a.rows(), a.cols()))?;
            let (rl, rh, cl, ch) = index_bounds(store, &args[1..5], rows, cols)?;
            let m = store.peek(&args[0])?.slice(rl, rh, cl, ch)?;
            store.put_matrix(out, m)
        }
        OpCode::LeftIndex => {
            store.touch(&args[0])?;
            store.touch(&args[1])?;
            let mut d = store.peek(&args[0])?.to_dense();
            let vd = store.peek(&args[1])?.to_dense();
            let (rl, rh, cl, ch) = index_bounds(store, &args[2..6], d.rows(), d.cols())?;
            let range = (rh - rl + 1, ch - cl + 1);
            let value = (vd.rows(), vd.cols());
            if value != (1, 1) && value != range {
                return Err(ExecError::Matrix(MatrixError::ShapeMismatch {
                    op: "leftindex",
                    left: range,
                    right: value,
                }));
            }
            for (ri, r) in (rl..=rh).enumerate() {
                for (ci, c) in (cl..=ch).enumerate() {
                    let v = if value == (1, 1) {
                        vd.get(0, 0)
                    } else {
                        vd.get(ri, ci)
                    };
                    d.set(r, c, v);
                }
            }
            store.put_matrix(out, Matrix::from_dense_auto(d))
        }
        OpCode::Append => {
            let m = with_matrices(store, args, |a, b| a.cbind(b))?;
            store.put_matrix(out, m)
        }
        OpCode::AppendR => {
            let m = with_matrices(store, args, |a, b| a.rbind(b))?;
            store.put_matrix(out, m)
        }
        OpCode::NRow => {
            let rows = with_matrix(store, &args[0], Matrix::rows)?;
            store.put_scalar(out, ScalarValue::Num(rows as f64));
            Ok(())
        }
        OpCode::NCol => {
            let cols = with_matrix(store, &args[0], Matrix::cols)?;
            store.put_scalar(out, ScalarValue::Num(cols as f64));
            Ok(())
        }
        OpCode::CastScalar => {
            let v = with_matrix(store, &args[0], Matrix::as_scalar)??;
            store.put_scalar(out, ScalarValue::Num(v));
            Ok(())
        }
        OpCode::CastMatrix => {
            let v = store.scalar_num(&args[0])?;
            store.put_matrix(out, Matrix::constant(1, 1, v))
        }
        OpCode::Assign => match store.held_scalar(&args[0]) {
            Some(v) => {
                store.put_scalar(out, v);
                Ok(())
            }
            None => {
                let m = shared_matrix(store, &args[0])?;
                store.put_shared(out, m)
            }
        },
        OpCode::Concat => {
            let a = store.scalar(&args[0])?;
            let b = store.scalar(&args[1])?;
            store.put_scalar(
                out,
                ScalarValue::Str(format!("{}{}", a.render(), b.render())),
            );
            Ok(())
        }
        OpCode::Print => {
            let v = store.scalar(&args[0])?;
            store.print(v.render());
            Ok(())
        }
        OpCode::RmVar => {
            args.iter().for_each(|arg| store.unbind(arg));
            Ok(())
        }
    }
}
