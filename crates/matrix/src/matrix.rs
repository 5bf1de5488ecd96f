//! The runtime matrix value: dense or sparse with automatic format
//! selection, plus scalar interop.

use std::borrow::Cow;

use crate::dense::{Broadcast, DenseMatrix};
use crate::error::MatrixError;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::sparse::SparseMatrix;
use crate::{MatrixCharacteristics, SPARSE_FORMAT_THRESHOLD};

/// A matrix value with physical-format independence: callers operate on
/// [`Matrix`] and the implementation picks dense or CSR per block, just as
/// SystemML's runtime does.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Dense row-major block.
    Dense(DenseMatrix),
    /// CSR sparse block.
    Sparse(SparseMatrix),
}

impl Matrix {
    /// Whether CSR is the preferred representation for these dimensions
    /// and nnz: sparsity below [`SPARSE_FORMAT_THRESHOLD`] *and* the CSR
    /// bytes actually smaller than dense (for narrow matrices the per-row
    /// overhead can exceed the dense saving below the threshold). Keeps
    /// the runtime's choice consistent with
    /// [`MatrixCharacteristics::estimated_size_bytes`]. Public because the
    /// VM's fused elementwise kernel must track the representation an
    /// unfused chain would have chosen step by step to stay bit-identical
    /// (sparse intermediates normalize `-0.0` to `+0.0`).
    pub fn prefers_sparse(rows: usize, cols: usize, nnz: u64) -> bool {
        let cells = (rows * cols) as f64;
        let mc = MatrixCharacteristics::known(rows as u64, cols as u64, nnz);
        cells > 0.0
            && (nnz as f64) / cells < SPARSE_FORMAT_THRESHOLD
            && mc.sparse_size_bytes() < mc.dense_size_bytes()
    }

    /// Wrap a dense block, converting to sparse if that representation is
    /// clearly smaller (sparsity below [`SPARSE_FORMAT_THRESHOLD`] and
    /// byte-wise smaller).
    pub fn from_dense_auto(d: DenseMatrix) -> Matrix {
        if Matrix::prefers_sparse(d.rows(), d.cols(), d.nnz()) {
            Matrix::Sparse(SparseMatrix::from_dense(&d))
        } else {
            Matrix::Dense(d)
        }
    }

    /// Wrap a sparse block, converting to dense if it is not actually
    /// sparse enough.
    pub fn from_sparse_auto(s: SparseMatrix) -> Matrix {
        if s.rows() * s.cols() == 0 || Matrix::prefers_sparse(s.rows(), s.cols(), s.nnz()) {
            Matrix::Sparse(s)
        } else {
            Matrix::Dense(s.to_dense())
        }
    }

    /// A matrix of a constant value (DML `matrix(v, rows, cols)`).
    /// `matrix(0, ...)` yields an empty sparse block.
    pub fn constant(rows: usize, cols: usize, value: f64) -> Matrix {
        if value == 0.0 {
            Matrix::Sparse(SparseMatrix::zeros(rows, cols))
        } else {
            Matrix::Dense(DenseMatrix::filled(rows, cols, value))
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.rows(),
            Matrix::Sparse(s) => s.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(d) => d.cols(),
            Matrix::Sparse(s) => s.cols(),
        }
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> u64 {
        match self {
            Matrix::Dense(d) => d.nnz(),
            Matrix::Sparse(s) => s.nnz(),
        }
    }

    /// Whether the sparse representation is in use.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Metadata view.
    pub fn characteristics(&self) -> MatrixCharacteristics {
        match self {
            Matrix::Dense(d) => d.characteristics(),
            Matrix::Sparse(s) => s.characteristics(),
        }
    }

    /// Actual in-memory footprint in bytes under the crate's accounting
    /// constants; a dense block's is `rows × cols × 8`, read off its
    /// dimensions without counting its non-zeros.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Matrix::Dense(d) => MatrixCharacteristics::dims_only(d.rows() as u64, d.cols() as u64)
                .dense_size_bytes(),
            Matrix::Sparse(s) => s.characteristics().sparse_size_bytes(),
        }
        .unwrap_or(0)
    }

    /// Cell accessor.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        match self {
            Matrix::Dense(d) => d.get(r, c),
            Matrix::Sparse(s) => s.get(r, c),
        }
    }

    /// Materialize as dense (copy if sparse).
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(d) => d.clone(),
            Matrix::Sparse(s) => s.to_dense(),
        }
    }

    /// Extract the scalar value of a 1×1 matrix.
    pub fn as_scalar(&self) -> Result<f64, MatrixError> {
        if self.rows() == 1 && self.cols() == 1 {
            Ok(self.get(0, 0))
        } else {
            Err(MatrixError::InvalidArgument(format!(
                "expected 1x1 matrix, got {}x{}",
                self.rows(),
                self.cols()
            )))
        }
    }

    /// Matrix multiply with per-format kernel dispatch.
    pub fn matmult(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        let out = match (self, other) {
            (Matrix::Dense(a), Matrix::Dense(b)) => a.matmult(b)?,
            (Matrix::Sparse(a), Matrix::Dense(b)) => a.matmult_dense(b)?,
            (Matrix::Dense(a), Matrix::Sparse(b)) => b.dense_matmult(a)?,
            (Matrix::Sparse(a), Matrix::Sparse(b)) => a.matmult_sparse(b)?,
        };
        Ok(Matrix::from_dense_auto(out))
    }

    /// `t(self) %*% other` (the `tmm` physical operator) without
    /// materializing `t(self)` — bit-identical to
    /// `self.transpose().matmult(other)`, which it replaces. Only the
    /// sparse × sparse pair still transposes `self`.
    pub fn tmatmult(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        let out = match (self, other) {
            (Matrix::Dense(a), Matrix::Dense(b)) => a.tmatmult(b)?,
            (Matrix::Sparse(a), Matrix::Dense(b)) => a.tmatmult_dense(b)?,
            (Matrix::Dense(a), Matrix::Sparse(b)) => b.dense_tmatmult(a)?,
            (Matrix::Sparse(a), Matrix::Sparse(b)) => a.transpose().matmult_sparse(b)?,
        };
        Ok(Matrix::from_dense_auto(out))
    }

    /// `t(self) %*% self` (TSMM).
    pub fn tsmm(&self) -> Matrix {
        match self {
            Matrix::Dense(d) => Matrix::from_dense_auto(d.tsmm()),
            Matrix::Sparse(s) => {
                let t = s.transpose();
                Matrix::from_dense_auto(t.matmult_sparse(s).expect("tsmm shapes always conform"))
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        match self {
            Matrix::Dense(d) => Matrix::Dense(d.transpose()),
            Matrix::Sparse(s) => Matrix::Sparse(s.transpose()),
        }
    }

    /// Elementwise binary against another matrix (with vector broadcast).
    ///
    /// Every result holds the cells, and takes the format, that densifying
    /// both operands would give. A CSR ⊙ dense `Mul` stays CSR and touches
    /// only the stored entries when the CSR operand
    /// [`prefers_sparse`](Matrix::prefers_sparse) at its own nnz and every
    /// dense value is finite (`0 · inf` is NaN); any other op with a CSR
    /// operand fills the output against `+0.0` and patches the cells that
    /// read a stored entry (DESIGN.md, "Element-wise formats").
    pub fn binary(&self, op: BinaryOp, other: &Matrix) -> Result<Matrix, MatrixError> {
        let bc = Broadcast::of((self.rows(), self.cols()), (other.rows(), other.cols()))?;
        let mul = op == BinaryOp::Mul;
        let out = match (self, other) {
            (Matrix::Dense(a), Matrix::Dense(b)) => a.binary(op, b)?,
            (Matrix::Sparse(a), Matrix::Sparse(b)) => {
                if mul
                    && bc == Broadcast::Cell
                    && (csr_exact(a) || csr_exact(b))
                    && a.all_finite()
                    && b.all_finite()
                {
                    return Ok(Matrix::from_sparse_auto(a.mul_sparse(b)?));
                }
                a.binary_dense(op, &b.to_dense(), bc, false)?
            }
            (Matrix::Sparse(s), Matrix::Dense(d)) | (Matrix::Dense(d), Matrix::Sparse(s)) => {
                let csr_right = other.is_sparse();
                if mul
                    && (bc == Broadcast::Cell || !csr_right)
                    && csr_exact(s)
                    && d.data().iter().all(|v| v.is_finite())
                {
                    return Ok(Matrix::from_sparse_auto(s.mul_dense(d, bc)?));
                }
                s.binary_dense(op, d, bc, csr_right)?
            }
        };
        Ok(Matrix::from_dense_auto(out))
    }

    /// Elementwise binary with a scalar on the right.
    pub fn binary_scalar(&self, op: BinaryOp, scalar: f64) -> Matrix {
        match self {
            Matrix::Sparse(s) if csr_exact(s) => from_kernel(s.binary_scalar(op, scalar)),
            _ => Matrix::from_dense_auto(self.dense_view().binary_scalar(op, scalar)),
        }
    }

    /// Elementwise binary with a scalar on the left.
    pub fn scalar_binary(&self, op: BinaryOp, scalar: f64) -> Matrix {
        match self {
            Matrix::Sparse(s) if csr_exact(s) => from_kernel(s.scalar_binary(op, scalar)),
            _ => Matrix::from_dense_auto(self.dense_view().scalar_binary(op, scalar)),
        }
    }

    /// Elementwise unary.
    pub fn unary(&self, op: UnaryOp) -> Matrix {
        match self {
            Matrix::Sparse(s) if csr_exact(s) => from_kernel(s.unary(op)),
            _ => Matrix::from_dense_auto(self.dense_view().unary(op)),
        }
    }

    /// Aggregation; results are small and returned dense.
    pub fn aggregate(&self, op: AggOp) -> Matrix {
        let out = match self {
            Matrix::Dense(d) => d.aggregate(op),
            Matrix::Sparse(s) => s.aggregate(op),
        };
        Matrix::Dense(out)
    }

    /// Debug-build CSR invariant gate for kernels that densify sparse
    /// operands (a corrupt block would otherwise silently produce wrong
    /// values during conversion).
    fn debug_check_sparse(&self) -> Result<(), MatrixError> {
        if cfg!(debug_assertions) {
            if let Matrix::Sparse(s) = self {
                s.check_invariants()?;
            }
        }
        Ok(())
    }

    /// The block as a dense matrix: borrowed when it is one, converted
    /// when CSR.
    fn dense_view(&self) -> Cow<'_, DenseMatrix> {
        match self {
            Matrix::Dense(d) => Cow::Borrowed(d),
            Matrix::Sparse(s) => Cow::Owned(s.to_dense()),
        }
    }

    /// Horizontal concatenation.
    pub fn cbind(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        self.debug_check_sparse()?;
        other.debug_check_sparse()?;
        Ok(Matrix::from_dense_auto(
            self.dense_view().cbind(&other.dense_view())?,
        ))
    }

    /// Vertical concatenation.
    pub fn rbind(&self, other: &Matrix) -> Result<Matrix, MatrixError> {
        self.debug_check_sparse()?;
        other.debug_check_sparse()?;
        Ok(Matrix::from_dense_auto(
            self.dense_view().rbind(&other.dense_view())?,
        ))
    }

    /// Right indexing with inclusive 0-based bounds.
    pub fn slice(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Result<Matrix, MatrixError> {
        Ok(match self {
            Matrix::Dense(d) => Matrix::from_dense_auto(d.slice(r0, r1, c0, c1)?),
            // A slice has at least one cell, so `from_sparse_auto` picks
            // the format `from_dense_auto` would.
            Matrix::Sparse(s) => Matrix::from_sparse_auto(s.slice(r0, r1, c0, c1)?),
        })
    }

    /// `diag` (extract or expand).
    pub fn diag(&self) -> Matrix {
        Matrix::from_dense_auto(self.dense_view().diag())
    }

    /// `solve(A, b)` — dense LU with partial pivoting.
    pub fn solve(&self, b: &Matrix) -> Result<Matrix, MatrixError> {
        Ok(Matrix::Dense(crate::solve::solve(
            &self.dense_view(),
            &b.dense_view(),
        )?))
    }
}

/// Whether CSR kernels on `s` return exactly what the densified kernels
/// would: `s` is in the format automatic selection picks for it. An
/// element-wise op whose non-zeros can only be a subset of `s`'s then ends
/// CSR on both paths, because [`Matrix::prefers_sparse`] is monotone in
/// nnz, so the `-0.0`s the densified path computes are dropped as well.
fn csr_exact(s: &SparseMatrix) -> bool {
    Matrix::prefers_sparse(s.rows(), s.cols(), s.nnz())
}

/// The result of a CSR kernel that either stayed sparse or densified.
fn from_kernel(out: Result<SparseMatrix, DenseMatrix>) -> Matrix {
    match out {
        Ok(s) => Matrix::from_sparse_auto(s),
        Err(d) => Matrix::from_dense_auto(d),
    }
}

impl From<DenseMatrix> for Matrix {
    fn from(d: DenseMatrix) -> Self {
        Matrix::Dense(d)
    }
}

impl From<SparseMatrix> for Matrix {
    fn from(s: SparseMatrix) -> Self {
        Matrix::Sparse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_zero_is_sparse() {
        let z = Matrix::constant(10, 10, 0.0);
        assert!(z.is_sparse());
        assert_eq!(z.nnz(), 0);
        let o = Matrix::constant(10, 10, 1.0);
        assert!(!o.is_sparse());
    }

    #[test]
    fn auto_format_selection() {
        let mut d = DenseMatrix::zeros(10, 10);
        d.set(0, 0, 1.0);
        let m = Matrix::from_dense_auto(d);
        assert!(m.is_sparse());

        let dense_s = SparseMatrix::from_dense(&DenseMatrix::filled(4, 4, 2.0));
        let m2 = Matrix::from_sparse_auto(dense_s);
        assert!(!m2.is_sparse());
    }

    #[test]
    fn matmult_mixed_formats_agree() {
        let d = crate::generate::rand_dense(8, 6, -1.0, 1.0, 1);
        let s = crate::generate::rand_sparse(6, 4, 0.3, -1.0, 1.0, 2);
        let a = Matrix::Dense(d.clone());
        let b = Matrix::Sparse(s.clone());
        let expected = d.matmult(&s.to_dense()).unwrap();
        let got = a.matmult(&b).unwrap().to_dense();
        for (x, y) in expected.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmult_sparse_sparse() {
        let s = crate::generate::rand_sparse(5, 5, 0.3, -1.0, 1.0, 3);
        let a = Matrix::Sparse(s.clone());
        let expected = s.to_dense().matmult(&s.to_dense()).unwrap();
        let got = a.matmult(&a).unwrap().to_dense();
        for (x, y) in expected.data().iter().zip(got.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn tsmm_matches_explicit_both_formats() {
        let d = crate::generate::rand_dense(7, 3, -1.0, 1.0, 4);
        let m = Matrix::Dense(d.clone());
        let explicit = m.transpose().matmult(&m).unwrap().to_dense();
        let fast = m.tsmm().to_dense();
        for (x, y) in explicit.data().iter().zip(fast.data()) {
            assert!((x - y).abs() < 1e-10);
        }

        let s = crate::generate::rand_sparse(9, 4, 0.2, -1.0, 1.0, 5);
        let ms = Matrix::Sparse(s);
        let explicit = ms.transpose().matmult(&ms).unwrap().to_dense();
        let fast = ms.tsmm().to_dense();
        for (x, y) in explicit.data().iter().zip(fast.data()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    #[test]
    fn binary_sparse_mul_fast_path() {
        let s = crate::generate::rand_sparse(20, 20, 0.1, 1.0, 2.0, 6);
        let a = Matrix::Sparse(s.clone());
        let prod = a.binary(BinaryOp::Mul, &a).unwrap();
        assert_eq!(prod.nnz(), s.nnz());
    }

    #[test]
    fn scalar_ops_and_scalar_extraction() {
        let m = Matrix::constant(2, 2, 3.0);
        let m2 = m.binary_scalar(BinaryOp::Mul, 2.0);
        assert_eq!(m2.get(1, 1), 6.0);
        let s = m2.aggregate(AggOp::Sum);
        assert_eq!(s.as_scalar().unwrap(), 24.0);
        assert!(m.as_scalar().is_err());
    }

    #[test]
    fn scalar_binary_left() {
        let m = Matrix::constant(1, 2, 4.0);
        let r = m.scalar_binary(BinaryOp::Div, 8.0); // 8 / 4
        assert_eq!(r.get(0, 0), 2.0);
    }

    #[test]
    fn densifying_scalar_add_on_sparse() {
        let z = Matrix::constant(3, 3, 0.0);
        let ones = z.binary_scalar(BinaryOp::Add, 1.0);
        assert!(!ones.is_sparse());
        assert_eq!(ones.nnz(), 9);
    }

    #[test]
    fn rbind_via_wrapper() {
        let a = Matrix::constant(2, 3, 1.0);
        let b = Matrix::constant(1, 3, 2.0);
        let c = a.rbind(&b).unwrap();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.get(2, 0), 2.0);
        assert!(a.rbind(&Matrix::constant(1, 2, 0.0)).is_err());
    }

    #[test]
    fn size_bytes_reflects_format() {
        let z = Matrix::constant(100, 100, 0.0);
        assert_eq!(z.size_bytes(), 400); // 100 rows * 4 bytes row_ptr
        let d = Matrix::constant(100, 100, 1.0);
        assert_eq!(d.size_bytes(), 80_000);
    }

    #[test]
    fn solve_via_matrix_wrapper() {
        let a = Matrix::Dense(DenseMatrix::identity(3));
        let b = Matrix::constant(3, 1, 5.0);
        let x = a.solve(&b).unwrap();
        assert_eq!(x.to_dense().data(), &[5.0, 5.0, 5.0]);
    }
}
