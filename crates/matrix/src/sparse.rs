//! CSR sparse matrix block and its kernels.

use crate::dense::{Broadcast, DenseMatrix};
use crate::error::MatrixError;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::MatrixCharacteristics;

/// A compressed-sparse-row matrix of `f64`.
///
/// Invariants (checked by the constructors and by property tests):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`;
/// * within each row, column indices are strictly increasing;
/// * stored values are non-zero (explicit zeros are dropped on build).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Empty (all-zero) sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        SparseMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from COO triplets `(row, col, value)`. Triplets may arrive in
    /// any order; duplicates are summed; zeros (including zero sums) are
    /// dropped.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        mut triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self, MatrixError> {
        for &(r, c, _) in &triplets {
            if r >= rows || c >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (r, c),
                    shape: (rows, cols),
                });
            }
        }
        triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicate cells by summation.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(triplets.len());
        for (r, c, v) in triplets {
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        // Build CSR, skipping zeros (explicit or cancelled).
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        let mut it = merged.into_iter().peekable();
        for r in 0..rows {
            while let Some(&(tr, c, v)) = it.peek() {
                if tr != r {
                    break;
                }
                it.next();
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        Ok(SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Convert from a dense block, dropping zeros.
    pub fn from_dense(dense: &DenseMatrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Convert to a dense block.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, v);
            }
        }
        out
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> u64 {
        self.values.len() as u64
    }

    /// Metadata view of this block.
    pub fn characteristics(&self) -> MatrixCharacteristics {
        MatrixCharacteristics::known(self.rows as u64, self.cols as u64, self.nnz())
    }

    /// Iterate the `(col, value)` pairs of one row.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Cell accessor via binary search within the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Sparse-times-dense matrix multiply producing a dense block — the
    /// common case in the paper's workloads (sparse X times dense vector).
    pub fn matmult_dense(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        if self.cols != other.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.rows, self.cols),
                right: (other.rows(), other.cols()),
            });
        }
        let n = other.cols();
        let mut out = vec![0.0; self.rows * n];
        if n > 0 {
            // Output row `r` accumulates over its CSR entries in storage
            // order; bands hold equal shares of the stored entries.
            let flops = self.nnz() as usize * n;
            let parallel = crate::par_worthwhile(flops, crate::PAR_FLOPS_THRESHOLD, self.rows);
            let cuts = crate::band_cuts(self.rows, parallel, 1, |r| {
                self.row_ptr[r + 1] - self.row_ptr[r] + 1
            });
            crate::run_bands(&mut out, n, &cuts, &|r0, _, band| {
                for (r, out_row) in (r0..).zip(band.chunks_exact_mut(n)) {
                    for (k, v) in self.row_iter(r) {
                        for (o, &b) in out_row.iter_mut().zip(other.row(k)) {
                            *o += v * b;
                        }
                    }
                }
            });
        }
        DenseMatrix::from_vec(self.rows, n, out)
    }

    /// Transpose-left sparse-times-dense multiply `t(self) %*% other`
    /// without transposing `self`: row `i` of `self` scatters
    /// `value · other[i]` into the output rows of its columns, so each
    /// output cell receives the terms of `self.transpose().matmult_dense`
    /// in the same (ascending-row) order.
    pub fn tmatmult_dense(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        if self.rows != other.rows() {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.cols, self.rows),
                right: (other.rows(), other.cols()),
            });
        }
        let (k, n) = (self.cols, other.cols());
        let mut out = vec![0.0; k * n];
        if n > 0 {
            let flops = self.nnz() as usize * n;
            let parallel = crate::par_worthwhile(flops, crate::PAR_FLOPS_THRESHOLD, k);
            let cuts = crate::band_cuts(k, parallel, 1, |_| 1);
            crate::run_bands(&mut out, n, &cuts, &|p0, p1, band| {
                for (i, b_row) in other.data().chunks_exact(n).enumerate() {
                    let (cols, vals) = self.row_in(i, p0..p1);
                    for (&p, &v) in cols.iter().zip(vals) {
                        let o_row = &mut band[(p - p0) * n..(p - p0 + 1) * n];
                        for (o, &b) in o_row.iter_mut().zip(b_row) {
                            *o += v * b;
                        }
                    }
                }
            });
        }
        DenseMatrix::from_vec(k, n, out)
    }

    /// Dense-times-sparse multiply `left %*% self`. Cell `(i, j)` is
    /// `Σ_k self[k][j] · left[i][k]` over the stored entries of column `j`
    /// in ascending `k`: zeros of `self` skipped, none of `left`'s.
    pub fn dense_matmult(&self, left: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        if left.cols() != self.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (left.rows(), left.cols()),
                right: (self.rows, self.cols),
            });
        }
        let (m, k, n) = (left.rows(), left.cols(), self.cols);
        // The row of `self` each stored entry sits in, in storage order.
        let entry_row: Vec<usize> = (0..self.rows)
            .flat_map(|r| std::iter::repeat_n(r, self.row_ptr[r + 1] - self.row_ptr[r]))
            .collect();
        let mut out = vec![0.0; m * n];
        if n > 0 {
            let flops = m * self.values.len();
            let parallel = crate::par_worthwhile(flops, crate::PAR_FLOPS_THRESHOLD, m);
            let cuts = crate::band_cuts(m, parallel, 1, |_| 1);
            crate::run_bands(&mut out, n, &cuts, &|r0, r1, band| {
                let a_rows = left.data()[r0 * k..r1 * k].chunks_exact(k.max(1));
                for (o_row, a_row) in band.chunks_exact_mut(n).zip(a_rows) {
                    let entries = entry_row.iter().zip(&self.col_idx).zip(&self.values);
                    for ((&kk, &j), &v) in entries {
                        o_row[j] += v * a_row[kk];
                    }
                }
            });
        }
        DenseMatrix::from_vec(m, n, out)
    }

    /// Transpose-left dense-times-sparse multiply `t(left) %*% self`
    /// without transposing `left`. Cell `(p, j)` is
    /// `Σ_i self[i][j] · left[i][p]` over the stored entries of column `j`
    /// in ascending `i`, as `t(left) %*% self` computes it.
    pub fn dense_tmatmult(&self, left: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        if left.rows() != self.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (left.cols(), left.rows()),
                right: (self.rows, self.cols),
            });
        }
        let (k, n) = (left.cols(), self.cols);
        // Accumulate the transposed result, `n × k`, so that each stored
        // entry updates one contiguous row; the output is small.
        let mut out_t = vec![0.0; n * k];
        if k > 0 {
            let flops = self.nnz() as usize * k;
            let parallel = crate::par_worthwhile(flops, crate::PAR_FLOPS_THRESHOLD, n);
            let cuts = crate::band_cuts(n, parallel, 1, |_| 1);
            crate::run_bands(&mut out_t, k, &cuts, &|j0, j1, band| {
                for (i, a_row) in left.data().chunks_exact(k).enumerate() {
                    let (cols, vals) = self.row_in(i, j0..j1);
                    for (&j, &v) in cols.iter().zip(vals) {
                        let o_row = &mut band[(j - j0) * k..(j - j0 + 1) * k];
                        for (o, &a) in o_row.iter_mut().zip(a_row) {
                            *o += v * a;
                        }
                    }
                }
            });
        }
        Ok(DenseMatrix::from_vec(n, k, out_t)?.transpose())
    }

    /// The stored entries of row `r` whose columns fall in `cols`, as
    /// parallel column-index and value slices.
    #[inline]
    fn row_in(&self, r: usize, cols: std::ops::Range<usize>) -> (&[usize], &[f64]) {
        let (mut lo, mut hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        if cols.start > 0 || cols.end < self.cols {
            let idx = &self.col_idx[lo..hi];
            hi = lo + idx.partition_point(|&c| c < cols.end);
            lo += idx.partition_point(|&c| c < cols.start);
        }
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse-times-sparse matrix multiply. Output is produced dense and
    /// the caller (the [`crate::Matrix`] wrapper) re-sparsifies if the
    /// result is sparse enough — matching SystemML's block-level behaviour.
    pub fn matmult_sparse(&self, other: &SparseMatrix) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        other.debug_check()?;
        if self.cols != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for (k, va) in self.row_iter(r) {
                for (c, vb) in other.row_iter(k) {
                    let cur = out.get(r, c);
                    out.set(r, c, cur + va * vb);
                }
            }
        }
        Ok(out)
    }

    /// Transpose (CSR -> CSR of the transposed matrix via counting sort).
    pub fn transpose(&self) -> SparseMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 1..=self.cols {
            counts[i] += counts[i - 1];
        }
        let row_ptr = counts.clone();
        let mut next = counts;
        let mut col_idx = vec![0usize; self.values.len()];
        let mut values = vec![0f64; self.values.len()];
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                let pos = next[c];
                next[c] += 1;
                col_idx[pos] = r;
                values[pos] = v;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Elementwise unary; zero-preserving operations stay sparse, others
    /// densify (e.g. `exp`).
    pub fn unary(&self, op: UnaryOp) -> Result<SparseMatrix, DenseMatrix> {
        if op.is_zero_preserving() {
            // Applying the op may introduce zeros (e.g. round(0.4)).
            Ok(self.map_values(|v| op.apply(v)))
        } else {
            Err(self.to_dense().unary(op))
        }
    }

    /// Elementwise multiply with an equally-shaped sparse matrix
    /// (intersection of the non-zero patterns).
    pub fn mul_sparse(&self, other: &SparseMatrix) -> Result<SparseMatrix, MatrixError> {
        self.debug_check()?;
        other.debug_check()?;
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "mul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut triplets = Vec::new();
        for r in 0..self.rows {
            let mut it_b = other.row_iter(r).peekable();
            for (c, va) in self.row_iter(r) {
                while let Some(&(cb, _)) = it_b.peek() {
                    if cb < c {
                        it_b.next();
                    } else {
                        break;
                    }
                }
                if let Some(&(cb, vb)) = it_b.peek() {
                    if cb == c {
                        triplets.push((r, c, va * vb));
                    }
                }
            }
        }
        SparseMatrix::from_triplets(self.rows, self.cols, triplets)
    }

    /// Elementwise `self * dense` over the stored entries only, kept in
    /// CSR; `dense` is read under `bc` (`self` being the left operand or,
    /// under [`Broadcast::Cell`], either). Equal to the densified product
    /// wherever `0 · dense` is zero, i.e. when every value of `dense` is
    /// finite — the caller's gate. One factor is then finite, so the
    /// product, a NaN included, does not depend on the operand order.
    pub(crate) fn mul_dense(
        &self,
        dense: &DenseMatrix,
        bc: Broadcast,
    ) -> Result<SparseMatrix, MatrixError> {
        self.debug_check()?;
        let mut out = self.clone();
        for (r, w) in self.row_ptr.windows(2).enumerate() {
            let entries = out.values[w[0]..w[1]]
                .iter_mut()
                .zip(&self.col_idx[w[0]..w[1]]);
            for (v, &c) in entries {
                *v *= dense.data()[bc.index(r, c, dense.cols())];
            }
        }
        Ok(out.compact())
    }

    /// Elementwise `self op dense` (`dense op self` when `csr_right`)
    /// under `bc`, the rule by which the right operand is read, without
    /// densifying `self`: every output cell is filled as `op` against
    /// `+0.0`, then the cells that read a stored entry are recomputed.
    /// Cell for cell what `self.to_dense()` in its place computes.
    pub(crate) fn binary_dense(
        &self,
        op: BinaryOp,
        dense: &DenseMatrix,
        bc: Broadcast,
        csr_right: bool,
    ) -> Result<DenseMatrix, MatrixError> {
        self.debug_check()?;
        let mut out = match (csr_right, bc) {
            (true, Broadcast::Cell) => dense.binary_scalar(op, 0.0),
            // `self` is the broadcast vector: a zero one is small.
            (true, _) => dense.binary(op, &DenseMatrix::zeros(self.rows, self.cols))?,
            (false, Broadcast::Cell) => dense.scalar_binary(op, 0.0),
            (false, _) => {
                // `dense` is a vector broadcast over `self`'s shape.
                let fill = dense.scalar_binary(op, 0.0);
                let mut data = Vec::with_capacity(self.rows * self.cols);
                for r in 0..self.rows {
                    data.extend((0..self.cols).map(|c| fill.data()[bc.index(r, c, fill.cols())]));
                }
                DenseMatrix::from_vec(self.rows, self.cols, data)?
            }
        };
        let (m, n) = (out.rows(), out.cols());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                // A stored entry feeds one cell or, when `self` is a
                // column (row) vector on the right, a whole row (column).
                match (csr_right, bc) {
                    (false, _) => {
                        let x = dense.data()[bc.index(r, c, dense.cols())];
                        out.set(r, c, op.apply(v, x));
                    }
                    (true, Broadcast::Cell) => out.set(r, c, op.apply(dense.get(r, c), v)),
                    (true, Broadcast::Col) => {
                        (0..n).for_each(|j| out.set(r, j, op.apply(dense.get(r, j), v)))
                    }
                    (true, Broadcast::Row) => {
                        (0..m).for_each(|i| out.set(i, c, op.apply(dense.get(i, c), v)))
                    }
                }
            }
        }
        Ok(out)
    }

    /// Whether every stored value is finite.
    pub(crate) fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Elementwise binary with a scalar; zero-preserving results stay
    /// sparse (`X * 2`), otherwise the result densifies (`X + 1`).
    pub fn binary_scalar(&self, op: BinaryOp, scalar: f64) -> Result<SparseMatrix, DenseMatrix> {
        if op.apply(0.0, scalar) == 0.0 {
            Ok(self.map_values(|v| op.apply(v, scalar)))
        } else {
            Err(self.to_dense().binary_scalar(op, scalar))
        }
    }

    /// Elementwise binary with a scalar on the left (`scalar op self`):
    /// sparse when `op(scalar, 0) == 0` (`2 * X`), else densified.
    pub fn scalar_binary(&self, op: BinaryOp, scalar: f64) -> Result<SparseMatrix, DenseMatrix> {
        if op.apply(scalar, 0.0) == 0.0 {
            Ok(self.map_values(|v| op.apply(scalar, v)))
        } else {
            Err(self.to_dense().scalar_binary(op, scalar))
        }
    }

    /// `f` applied to every stored value, computed zeros dropped.
    fn map_values(&self, f: impl Fn(f64) -> f64) -> SparseMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out.compact()
    }

    /// Right indexing `X[r0:r1, c0:c1]` with inclusive 0-based bounds:
    /// the row range's entries whose columns fall in range.
    pub fn slice(
        &self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) -> Result<SparseMatrix, MatrixError> {
        self.debug_check()?;
        if r1 >= self.rows || c1 >= self.cols || r0 > r1 || c0 > c1 {
            return Err(MatrixError::IndexOutOfBounds {
                index: (r1, c1),
                shape: (self.rows, self.cols),
            });
        }
        let mut row_ptr = Vec::with_capacity(r1 - r0 + 2);
        row_ptr.push(0);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for r in r0..=r1 {
            let (cols, vals) = self.row_in(r, c0..c1 + 1);
            col_idx.extend(cols.iter().map(|c| c - c0));
            values.extend_from_slice(vals);
            row_ptr.push(values.len());
        }
        Ok(SparseMatrix {
            rows: r1 - r0 + 1,
            cols: c1 - c0 + 1,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Aggregation over the sparse representation without densifying.
    pub fn aggregate(&self, op: AggOp) -> DenseMatrix {
        match op {
            AggOp::Sum => {
                let s: f64 = self.values.iter().sum();
                DenseMatrix::from_vec(1, 1, vec![s]).expect("1x1")
            }
            AggOp::Mean => {
                let cells = (self.rows * self.cols).max(1) as f64;
                let s: f64 = self.values.iter().sum();
                DenseMatrix::from_vec(1, 1, vec![s / cells]).expect("1x1")
            }
            AggOp::Min => {
                // Zeros participate when the matrix is not fully dense.
                let mut m = if (self.values.len() as u64) < (self.rows * self.cols) as u64 {
                    0.0
                } else {
                    f64::INFINITY
                };
                for &v in &self.values {
                    m = m.min(v);
                }
                DenseMatrix::from_vec(1, 1, vec![m]).expect("1x1")
            }
            AggOp::Max => {
                let mut m = if (self.values.len() as u64) < (self.rows * self.cols) as u64 {
                    0.0
                } else {
                    f64::NEG_INFINITY
                };
                for &v in &self.values {
                    m = m.max(v);
                }
                DenseMatrix::from_vec(1, 1, vec![m]).expect("1x1")
            }
            AggOp::Trace => {
                let n = self.rows.min(self.cols);
                let s: f64 = (0..n).map(|i| self.get(i, i)).sum();
                DenseMatrix::from_vec(1, 1, vec![s]).expect("1x1")
            }
            AggOp::RowSums => {
                let data = (0..self.rows)
                    .map(|r| self.row_iter(r).map(|(_, v)| v).sum())
                    .collect();
                DenseMatrix::from_vec(self.rows, 1, data).expect("rowSums shape")
            }
            AggOp::ColSums => {
                let mut data = vec![0.0; self.cols];
                for r in 0..self.rows {
                    for (c, v) in self.row_iter(r) {
                        data[c] += v;
                    }
                }
                DenseMatrix::from_vec(1, self.cols, data).expect("colSums shape")
            }
            // A row or column with an implicit zero starts from +0.0, else
            // from -inf, and folds its stored values: as the dense fold,
            // since `f64::max` skips NaN and stored values are never ±0.
            AggOp::RowMaxs => {
                let data = (0..self.rows)
                    .map(|r| {
                        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
                        let init = if hi - lo < self.cols {
                            0.0
                        } else {
                            f64::NEG_INFINITY
                        };
                        self.values[lo..hi].iter().copied().fold(init, f64::max)
                    })
                    .collect();
                DenseMatrix::from_vec(self.rows, 1, data).expect("rowMaxs shape")
            }
            AggOp::ColMaxs => {
                let mut stored = vec![0; self.cols];
                for &c in &self.col_idx {
                    stored[c] += 1;
                }
                let mut data: Vec<f64> = stored
                    .iter()
                    .map(|&n| {
                        if n < self.rows {
                            0.0
                        } else {
                            f64::NEG_INFINITY
                        }
                    })
                    .collect();
                for (&c, &v) in self.col_idx.iter().zip(&self.values) {
                    data[c] = data[c].max(v);
                }
                DenseMatrix::from_vec(1, self.cols, data).expect("colMaxs shape")
            }
        }
    }

    /// Drop stored zeros (kernels may create them, e.g. `round`).
    fn compact(self) -> SparseMatrix {
        if self.values.iter().all(|&v| v != 0.0) {
            return self;
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::with_capacity(self.col_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Validate CSR invariants; used by tests and the debug-build checks
    /// in the matmult/append kernels.
    pub fn check_invariants(&self) -> Result<(), MatrixError> {
        let corrupt = |msg: String| Err(MatrixError::CorruptSparseBlock(msg));
        if self.row_ptr.len() != self.rows + 1 {
            return corrupt("row_ptr length".into());
        }
        if self.row_ptr[0] != 0 || *self.row_ptr.last().unwrap() != self.values.len() {
            return corrupt("row_ptr endpoints".into());
        }
        if self.col_idx.len() != self.values.len() {
            return corrupt("col_idx/value length mismatch".into());
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return corrupt(format!("row_ptr not monotone at {r}"));
            }
            let mut prev: Option<usize> = None;
            for (c, v) in self.row_iter(r) {
                if c >= self.cols {
                    return corrupt(format!("col {c} out of bounds"));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return corrupt(format!("cols not strictly increasing in row {r}"));
                    }
                }
                if v == 0.0 {
                    return corrupt(format!("stored zero at ({r}, {c})"));
                }
                prev = Some(c);
            }
        }
        Ok(())
    }

    /// Debug-build invariant gate for kernels: corrupt CSR state surfaces
    /// as a typed error at the kernel boundary instead of a wrong result
    /// (or an out-of-bounds panic) deep inside the multiply loop.
    #[inline]
    fn debug_check(&self) -> Result<(), MatrixError> {
        if cfg!(debug_assertions) {
            self.check_invariants()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SparseMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        SparseMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn build_and_access() {
        let s = sample();
        s.check_invariants().unwrap();
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(0, 1), 0.0);
        assert_eq!(s.get(2, 1), 4.0);
    }

    #[test]
    fn triplets_out_of_order_and_duplicates() {
        let s =
            SparseMatrix::from_triplets(2, 2, vec![(1, 1, 2.0), (0, 0, 1.0), (1, 1, 3.0)]).unwrap();
        s.check_invariants().unwrap();
        assert_eq!(s.get(1, 1), 5.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn triplets_cancel_to_zero_dropped() {
        let s = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0), (1, 0, 2.0)])
            .unwrap();
        s.check_invariants().unwrap();
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(1, 0), 2.0);
    }

    #[test]
    fn triplets_bounds_checked() {
        assert!(SparseMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).is_err());
    }

    #[test]
    fn dense_round_trip() {
        let s = sample();
        let d = s.to_dense();
        let s2 = SparseMatrix::from_dense(&d);
        s2.check_invariants().unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn matmult_dense_vector() {
        let s = sample();
        let v = DenseMatrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        let out = s.matmult_dense(&v).unwrap();
        assert_eq!(out.data(), &[3.0, 0.0, 7.0]);
    }

    #[test]
    fn matmult_sparse_matches_dense_path() {
        let s = sample();
        let expected = s.to_dense().matmult(&s.to_dense()).unwrap();
        let got = s.matmult_sparse(&s).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn matmult_shape_errors() {
        let s = sample();
        assert!(s.matmult_dense(&DenseMatrix::zeros(2, 1)).is_err());
        assert!(s.matmult_sparse(&SparseMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn corrupt_block_rejected_by_kernels() {
        // A stored zero violates the no-explicit-zeros invariant; the
        // debug-build kernel gates must surface it as a typed error.
        let mut s = sample();
        s.values[0] = 0.0;
        let err = s.check_invariants().unwrap_err();
        assert!(matches!(err, MatrixError::CorruptSparseBlock(_)), "{err}");
        let v = DenseMatrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        assert!(matches!(
            s.matmult_dense(&v),
            Err(MatrixError::CorruptSparseBlock(_))
        ));
        let ok = sample();
        assert!(matches!(
            ok.matmult_sparse(&s),
            Err(MatrixError::CorruptSparseBlock(_))
        ));
        let d = DenseMatrix::filled(3, 3, 1.0);
        for result in [
            s.tmatmult_dense(&d),
            s.dense_matmult(&d),
            s.dense_tmatmult(&d),
            s.binary_dense(BinaryOp::Add, &d, Broadcast::Cell, false),
            s.binary_dense(BinaryOp::Sub, &d, Broadcast::Cell, true),
        ] {
            assert!(
                matches!(result, Err(MatrixError::CorruptSparseBlock(_))),
                "{result:?}"
            );
        }
        for result in [
            s.mul_dense(&d, Broadcast::Cell),
            s.mul_sparse(&ok),
            ok.mul_sparse(&s),
            s.slice(0, 2, 0, 2),
        ] {
            assert!(
                matches!(result, Err(MatrixError::CorruptSparseBlock(_))),
                "{result:?}"
            );
        }
    }

    #[test]
    fn transpose_matches_dense() {
        let s = sample();
        let t = s.transpose();
        t.check_invariants().unwrap();
        assert_eq!(t.to_dense(), s.to_dense().transpose());
    }

    #[test]
    fn unary_sparse_stays_sparse() {
        let s = sample();
        let out = s.unary(UnaryOp::Neg).unwrap();
        out.check_invariants().unwrap();
        assert_eq!(out.get(2, 1), -4.0);
    }

    #[test]
    fn unary_densifying() {
        let s = sample();
        match s.unary(UnaryOp::Exp) {
            Err(d) => assert_eq!(d.get(1, 1), 1.0),
            Ok(_) => panic!("exp should densify"),
        }
    }

    #[test]
    fn mul_sparse_intersects_patterns() {
        let a = sample();
        let b = SparseMatrix::from_triplets(3, 3, vec![(0, 0, 10.0), (2, 1, 2.0), (1, 1, 5.0)])
            .unwrap();
        let out = a.mul_sparse(&b).unwrap();
        out.check_invariants().unwrap();
        assert_eq!(out.get(0, 0), 10.0);
        assert_eq!(out.get(2, 1), 8.0);
        assert_eq!(out.nnz(), 2);
    }

    #[test]
    fn binary_scalar_sparse_and_densify() {
        let s = sample();
        let scaled = s.binary_scalar(BinaryOp::Mul, 2.0).unwrap();
        assert_eq!(scaled.get(0, 2), 4.0);
        match s.binary_scalar(BinaryOp::Add, 1.0) {
            Err(d) => assert_eq!(d.get(1, 1), 1.0),
            Ok(_) => panic!("add-scalar should densify"),
        }
    }

    #[test]
    fn binary_scalar_mul_zero_compacts() {
        let s = sample();
        let z = s.binary_scalar(BinaryOp::Mul, 0.0).unwrap();
        z.check_invariants().unwrap();
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn aggregates_match_dense() {
        let s = sample();
        let d = s.to_dense();
        for op in [
            AggOp::Sum,
            AggOp::Mean,
            AggOp::Min,
            AggOp::Max,
            AggOp::Trace,
            AggOp::RowSums,
            AggOp::ColSums,
        ] {
            assert_eq!(s.aggregate(op), d.aggregate(op), "op {op:?}");
        }
    }

    #[test]
    fn min_max_consider_implicit_zeros() {
        let s = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 5.0)]).unwrap();
        assert_eq!(s.aggregate(AggOp::Min).get(0, 0), 0.0);
        assert_eq!(s.aggregate(AggOp::Max).get(0, 0), 5.0);
        let neg = SparseMatrix::from_triplets(2, 2, vec![(0, 0, -5.0)]).unwrap();
        assert_eq!(neg.aggregate(AggOp::Max).get(0, 0), 0.0);
    }
}
