//! Row-major dense matrix block and its kernels.

use rayon::prelude::*;

use crate::error::MatrixError;
use crate::ops::{AggOp, BinaryOp, UnaryOp};
use crate::MatrixCharacteristics;

/// Elementwise map over `len` cells: `fill(i, out)` writes cells
/// `i..i + out.len()`. Chunk-parallel above the cell threshold (each cell
/// depends only on its own index, so the parallel split is trivially
/// bit-identical to the sequential map).
fn elementwise_map(len: usize, fill: impl Fn(usize, &mut [f64]) + Sync) -> Vec<f64> {
    let mut out = vec![0.0; len];
    if crate::par_worthwhile(
        len,
        crate::PAR_CELLS_THRESHOLD,
        rayon::current_num_threads(),
    ) {
        let chunk = len.div_ceil(rayon::current_num_threads());
        out.par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(ci, c)| fill(ci * chunk, c));
    } else {
        fill(0, &mut out);
    }
    out
}

/// `f(x)` for every cell of `src`.
fn map_cells(src: &[f64], f: impl Fn(f64) -> f64 + Sync) -> Vec<f64> {
    elementwise_map(src.len(), |i, out| {
        for (o, &x) in out.iter_mut().zip(&src[i..]) {
            *o = f(x);
        }
    })
}

/// Evaluate `$body` with `$f` bound to `op` as a `Fn(f64, f64) -> f64`
/// closure, dispatching on `op` once per call instead of once per cell: a
/// dedicated closure for `+ - * /`, so that the cell loops in `$body` are
/// monomorphized for them and vectorize, and `op.apply` for the rest.
/// Every cell still gets the single IEEE operation `op.apply` performs.
macro_rules! with_op {
    ($op:expr, |$f:ident| $body:expr) => {
        match $op {
            BinaryOp::Add => {
                let $f = |a: f64, b: f64| a + b;
                $body
            }
            BinaryOp::Sub => {
                let $f = |a: f64, b: f64| a - b;
                $body
            }
            BinaryOp::Mul => {
                let $f = |a: f64, b: f64| a * b;
                $body
            }
            BinaryOp::Div => {
                let $f = |a: f64, b: f64| a / b;
                $body
            }
            op => {
                let $f = move |a: f64, b: f64| op.apply(a, b);
                $body
            }
        }
    };
}

/// How an elementwise binary op reads its right operand for output cell
/// `(r, c)` under DML matrix-vector semantics; the output has the left
/// operand's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Broadcast {
    /// Equal shapes: cell `(r, c)`.
    Cell,
    /// A column vector broadcast across columns: cell `(r, 0)`.
    Col,
    /// A row vector broadcast across rows: cell `(0, c)`.
    Row,
}

impl Broadcast {
    /// The rule for `left ∘ right` with these `(rows, cols)` shapes, tried
    /// in this order.
    pub(crate) fn of(
        left: (usize, usize),
        right: (usize, usize),
    ) -> Result<Broadcast, MatrixError> {
        if left == right {
            Ok(Broadcast::Cell)
        } else if right.1 == 1 && right.0 == left.0 {
            Ok(Broadcast::Col)
        } else if right.0 == 1 && right.1 == left.1 {
            Ok(Broadcast::Row)
        } else {
            Err(MatrixError::ShapeMismatch {
                op: "binary",
                left,
                right,
            })
        }
    }

    /// Offset, in the right operand's row-major data of `cols` columns, of
    /// the cell that output cell `(r, c)` reads.
    #[inline]
    pub(crate) fn index(self, r: usize, c: usize, cols: usize) -> usize {
        match self {
            Broadcast::Cell => r * cols + c,
            Broadcast::Col => r,
            Broadcast::Row => c,
        }
    }
}

/// Rows of the left operand one `matmult` register tile covers.
const TILE_ROWS: usize = 4;
/// Columns of the right operand one `matmult` register tile covers.
const TILE_COLS: usize = 4;
/// Bytes of the operand a blocked kernel keeps in cache while the other
/// operand streams past it: a k-block of `matmult`'s right operand, a
/// block of `tmatmult`'s output rows.
const BLOCK_BYTES: usize = 256 * 1024;
/// Side of a `transpose` tile.
const TRANSPOSE_TILE: usize = 32;

/// The term `a · b` of a product, `+0.0` when `a` is zero: adding it
/// equals skipping the term, because an accumulator that starts at `+0.0`
/// never becomes `-0.0` (branch-free form of `if a == 0.0 { continue }`).
#[inline(always)]
fn term(a: f64, b: f64) -> f64 {
    if a != 0.0 {
        a * b
    } else {
        0.0
    }
}

/// `out += a · b` for one band: `a` is the band's rows of the left
/// operand (`k` columns), `b` the whole `k × n` right operand, `out` the
/// band's `n`-column output rows. Blocked over `k` so that a block of `b`
/// stays in cache while every row of the band passes over it; within a
/// block, `TILE_ROWS × TILE_COLS` register tiles.
fn matmult_band(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    let rows = out.len() / n;
    let kb = (BLOCK_BYTES / (8 * n)).max(1);
    for k0 in (0..k).step_by(kb) {
        let k1 = (k0 + kb).min(k);
        let b_block = &b[k0 * n..k1 * n];
        let mut i = 0;
        while i + TILE_ROWS <= rows {
            row_tiles::<TILE_ROWS>(a, k, k0..k1, b_block, n, out, i);
            i += TILE_ROWS;
        }
        for i in i..rows {
            row_tiles::<1>(a, k, k0..k1, b_block, n, out, i);
        }
    }
}

/// Rows `i..i + R` of one k-block: full column strips, then single
/// columns.
#[inline(always)]
fn row_tiles<const R: usize>(
    a: &[f64],
    k: usize,
    ks: std::ops::Range<usize>,
    b_block: &[f64],
    n: usize,
    out: &mut [f64],
    i: usize,
) {
    let a_rows: [&[f64]; R] =
        std::array::from_fn(|r| &a[(i + r) * k + ks.start..(i + r) * k + ks.end]);
    let mut j = 0;
    while j + TILE_COLS <= n {
        tile::<R, TILE_COLS>(&a_rows, b_block, n, j, out, i);
        j += TILE_COLS;
    }
    for j in j..n {
        tile::<R, 1>(&a_rows, b_block, n, j, out, i);
    }
}

/// One `R × C` register tile: `out[i + r][j + c] += Σ_t a_rows[r][t] ·
/// b_block[t][j + c]`, accumulated in locals in ascending `t`. With
/// `C = 1` this is the matvec kernel: `R` independent row accumulators.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a_rows: &[&[f64]; R],
    b_block: &[f64],
    n: usize,
    j: usize,
    out: &mut [f64],
    i: usize,
) {
    let mut acc = [[0.0; C]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + C]);
    }
    for (t, b_row) in b_block.chunks_exact(n).enumerate() {
        let b = &b_row[j..j + C];
        for (acc_row, a_row) in acc.iter_mut().zip(a_rows) {
            let x = a_row[t];
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                *o += term(x, bv);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(acc_row);
    }
}

/// Upper-triangle rows `a0..a1` of `t(X) %*% X` into `out` (those rows,
/// `n` columns), streaming `X` once. Four rows of `X` are folded into a
/// cell per visit — still in ascending row order — so the cell is loaded
/// and stored once per four terms.
fn tsmm_band(x: &[f64], n: usize, a0: usize, a1: usize, out: &mut [f64]) {
    let (quads, rest) = x.split_at(x.len() / (4 * n) * (4 * n));
    for quad in quads.chunks_exact(4 * n) {
        let (x0, x1, x2, x3) = (
            &quad[..n],
            &quad[n..2 * n],
            &quad[2 * n..3 * n],
            &quad[3 * n..],
        );
        for a in a0..a1 {
            let (v0, v1, v2, v3) = (x0[a], x1[a], x2[a], x3[a]);
            let o_row = &mut out[(a - a0) * n + a..(a - a0 + 1) * n];
            let rows = x0[a..].iter().zip(&x1[a..]).zip(&x2[a..]).zip(&x3[a..]);
            for (o, (((&b0, &b1), &b2), &b3)) in o_row.iter_mut().zip(rows) {
                *o = *o + term(v0, b0) + term(v1, b1) + term(v2, b2) + term(v3, b3);
            }
        }
    }
    for row in rest.chunks_exact(n) {
        for a in a0..a1 {
            let va = row[a];
            if va == 0.0 {
                continue;
            }
            let o_row = &mut out[(a - a0) * n + a..(a - a0 + 1) * n];
            for (o, &vb) in o_row.iter_mut().zip(&row[a..]) {
                *o += va * vb;
            }
        }
    }
}

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Create a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix::filled(rows, cols, 0.0)
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidArgument(format!(
                "data length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Build from nested row slices (convenience for tests and examples).
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, MatrixError> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            if row.len() != c {
                return Err(MatrixError::InvalidArgument(
                    "ragged row lengths".to_string(),
                ));
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Cell accessor (unchecked in release semantics but panics on OOB
    /// through slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Cell mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Count non-zero cells.
    pub fn nnz(&self) -> u64 {
        self.data.iter().filter(|v| **v != 0.0).count() as u64
    }

    /// Metadata view of this block.
    pub fn characteristics(&self) -> MatrixCharacteristics {
        MatrixCharacteristics::known(self.rows as u64, self.cols as u64, self.nnz())
    }

    /// Matrix multiply `self %*% other`: each cell `(i, j)` is
    /// `Σ_k self[i][k] · other[k][j]` accumulated from `+0.0` in ascending
    /// `k`, a zero `self[i][k]` contributing nothing (so `0 · inf` never
    /// turns a cell into NaN). The loops are blocked over `k` and
    /// register-tiled, which changes when a cell is updated but never its
    /// terms or their order (DESIGN.md, "Matrix kernels").
    pub fn matmult(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.cols != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; m * n];
        if n > 0 {
            let parallel = crate::par_worthwhile(m * k * n, crate::PAR_FLOPS_THRESHOLD, m);
            let cuts = crate::band_cuts(m, parallel, TILE_ROWS, |_| 1);
            crate::run_bands(&mut out, n, &cuts, &|r0, r1, band| {
                matmult_band(&self.data[r0 * k..r1 * k], k, &other.data, n, band);
            });
        }
        Ok(DenseMatrix {
            rows: m,
            cols: n,
            data: out,
        })
    }

    /// Transpose-left matrix multiply `t(self) %*% other` without
    /// materializing `t(self)`: bit-identical to
    /// `self.transpose().matmult(other)` (same terms per cell, ascending
    /// row of `self`, a zero `self[i][p]` skipped), but each row of both
    /// operands is read once per output band instead of copying `self`.
    pub fn tmatmult(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.rows != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "matmult",
                left: (self.cols, self.rows),
                right: (other.rows, other.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0; k * n];
        if n > 0 && k == 1 {
            // The transpose of a column vector is its data as one row.
            matmult_band(&self.data, m, &other.data, n, &mut out);
        } else if n > 0 {
            let parallel = crate::par_worthwhile(m * k * n, crate::PAR_FLOPS_THRESHOLD, k);
            let cuts = crate::band_cuts(k, parallel, 1, |_| 1);
            crate::run_bands(&mut out, n, &cuts, &|p0, p1, band| {
                // Output rows per pass over the operands, so that the
                // rows being accumulated stay in cache.
                let step = (BLOCK_BYTES / (8 * n)).max(1);
                for q0 in (p0..p1).step_by(step) {
                    let q1 = (q0 + step).min(p1);
                    let block = &mut band[(q0 - p0) * n..(q1 - p0) * n];
                    for i in 0..m {
                        let a = &self.data[i * k + q0..i * k + q1];
                        let b_row = &other.data[i * n..(i + 1) * n];
                        if n == 1 {
                            for (o, &x) in block.iter_mut().zip(a) {
                                *o += term(x, b_row[0]);
                            }
                        } else {
                            for (&x, o_row) in a.iter().zip(block.chunks_exact_mut(n)) {
                                if x != 0.0 {
                                    for (o, &b) in o_row.iter_mut().zip(b_row) {
                                        *o += x * b;
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        Ok(DenseMatrix {
            rows: k,
            cols: n,
            data: out,
        })
    }

    /// Transpose-self matrix multiply `t(self) %*% self` exploiting the
    /// symmetry of the result (SystemML's TSMM physical operator): cell
    /// `(a, b)`, `a ≤ b`, is `Σ_i x[i][a] · x[i][b]` in ascending `i`, a
    /// zero `x[i][a]` skipped, and the lower triangle is its mirror. The
    /// parallel path gives each worker a band of output rows of equal
    /// triangle area and streams `X` once per band.
    pub fn tsmm(&self) -> DenseMatrix {
        let (m, n) = (self.rows, self.cols);
        let mut out = vec![0.0; n * n];
        if n > 0 {
            let parallel = crate::par_worthwhile(m * n * n / 2, crate::PAR_FLOPS_THRESHOLD, n);
            let cuts = crate::band_cuts(n, parallel, 1, |a| n - a);
            crate::run_bands(&mut out, n, &cuts, &|a0, a1, band| {
                tsmm_band(&self.data, n, a0, a1, band);
            });
        }
        // Mirror the upper triangle.
        for a in 0..n {
            for b in (a + 1)..n {
                out[b * n + a] = out[a * n + b];
            }
        }
        DenseMatrix {
            rows: n,
            cols: n,
            data: out,
        }
    }

    /// Transpose, in square tiles so that both the rows read and the rows
    /// written stay in cache; column-parallel above the cell threshold.
    pub fn transpose(&self) -> DenseMatrix {
        let (m, n) = (self.rows, self.cols);
        let mut out = vec![0.0; m * n];
        if m > 0 {
            let parallel = crate::par_worthwhile(m * n, crate::PAR_CELLS_THRESHOLD, n);
            let cuts = crate::band_cuts(n, parallel, 1, |_| 1);
            crate::run_bands(&mut out, m, &cuts, &|c0, c1, band| {
                for r0 in (0..m).step_by(TRANSPOSE_TILE) {
                    let r1 = (r0 + TRANSPOSE_TILE).min(m);
                    for t0 in (c0..c1).step_by(TRANSPOSE_TILE) {
                        for c in t0..(t0 + TRANSPOSE_TILE).min(c1) {
                            let dst = &mut band[(c - c0) * m + r0..(c - c0) * m + r1];
                            for (d, r) in dst.iter_mut().zip(r0..r1) {
                                *d = self.data[r * n + c];
                            }
                        }
                    }
                }
            });
        }
        DenseMatrix {
            rows: n,
            cols: m,
            data: out,
        }
    }

    /// Elementwise binary operation against an equally-shaped matrix, or a
    /// broadcast column/row vector (DML matrix-vector semantics).
    pub fn binary(&self, op: BinaryOp, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        let bc = Broadcast::of((self.rows, self.cols), (other.rows, other.cols))?;
        let (a, b) = (&self.data, &other.data);
        let data = with_op!(op, |f| match bc {
            Broadcast::Cell => elementwise_map(a.len(), |i, out| {
                for (o, (&x, &y)) in out.iter_mut().zip(a[i..].iter().zip(&b[i..])) {
                    *o = f(x, y);
                }
            }),
            Broadcast::Col => {
                let mut data = Vec::with_capacity(a.len());
                for (r, &y) in b.iter().enumerate() {
                    data.extend(self.row(r).iter().map(|&x| f(x, y)));
                }
                data
            }
            Broadcast::Row => {
                let mut data = Vec::with_capacity(a.len());
                for r in 0..self.rows {
                    data.extend(self.row(r).iter().zip(b).map(|(&x, &y)| f(x, y)));
                }
                data
            }
        });
        Ok(DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Elementwise binary with a scalar on the right.
    pub fn binary_scalar(&self, op: BinaryOp, scalar: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: with_op!(op, |f| map_cells(&self.data, |x| f(x, scalar))),
        }
    }

    /// Elementwise binary with a scalar on the left (`scalar op self`).
    pub fn scalar_binary(&self, op: BinaryOp, scalar: f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: with_op!(op, |f| map_cells(&self.data, |x| f(scalar, x))),
        }
    }

    /// Elementwise unary operation.
    pub fn unary(&self, op: UnaryOp) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: map_cells(&self.data, |x| op.apply(x)),
        }
    }

    /// Aggregation. Full reductions return a 1×1 matrix; row/column
    /// aggregates return vectors.
    pub fn aggregate(&self, op: AggOp) -> DenseMatrix {
        match op {
            AggOp::Sum => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().sum()],
            },
            AggOp::Mean => {
                let n = self.data.len().max(1) as f64;
                DenseMatrix {
                    rows: 1,
                    cols: 1,
                    data: vec![self.data.iter().sum::<f64>() / n],
                }
            }
            AggOp::Min => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().copied().fold(f64::INFINITY, f64::min)],
            },
            AggOp::Max => DenseMatrix {
                rows: 1,
                cols: 1,
                data: vec![self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)],
            },
            AggOp::Trace => {
                let n = self.rows.min(self.cols);
                DenseMatrix {
                    rows: 1,
                    cols: 1,
                    data: vec![(0..n).map(|i| self.get(i, i)).sum()],
                }
            }
            AggOp::RowSums => {
                let data = (0..self.rows).map(|r| self.row(r).iter().sum()).collect();
                DenseMatrix {
                    rows: self.rows,
                    cols: 1,
                    data,
                }
            }
            AggOp::ColSums => {
                let mut data = vec![0.0; self.cols];
                for r in 0..self.rows {
                    for (acc, &v) in data.iter_mut().zip(self.row(r)) {
                        *acc += v;
                    }
                }
                DenseMatrix {
                    rows: 1,
                    cols: self.cols,
                    data,
                }
            }
            AggOp::RowMaxs => {
                let data = (0..self.rows)
                    .map(|r| {
                        self.row(r)
                            .iter()
                            .copied()
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect();
                DenseMatrix {
                    rows: self.rows,
                    cols: 1,
                    data,
                }
            }
            AggOp::ColMaxs => {
                let mut data = vec![f64::NEG_INFINITY; self.cols];
                for r in 0..self.rows {
                    for (acc, &v) in data.iter_mut().zip(self.row(r)) {
                        *acc = acc.max(v);
                    }
                }
                DenseMatrix {
                    rows: 1,
                    cols: self.cols,
                    data,
                }
            }
        }
    }

    /// Horizontal concatenation (`append`/`cbind`).
    pub fn cbind(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.rows != other.rows {
            return Err(MatrixError::ShapeMismatch {
                op: "cbind",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(DenseMatrix {
            rows: self.rows,
            cols,
            data,
        })
    }

    /// Vertical concatenation (`rbind`).
    pub fn rbind(&self, other: &DenseMatrix) -> Result<DenseMatrix, MatrixError> {
        if self.cols != other.cols {
            return Err(MatrixError::ShapeMismatch {
                op: "rbind",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(DenseMatrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Right indexing `X[r0:r1, c0:c1]` with inclusive 0-based bounds.
    pub fn slice(
        &self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) -> Result<DenseMatrix, MatrixError> {
        if r1 >= self.rows || c1 >= self.cols || r0 > r1 || c0 > c1 {
            return Err(MatrixError::IndexOutOfBounds {
                index: (r1, c1),
                shape: (self.rows, self.cols),
            });
        }
        let rows = r1 - r0 + 1;
        let cols = c1 - c0 + 1;
        let mut data = Vec::with_capacity(rows * cols);
        for r in r0..=r1 {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1 + 1]);
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Extract the main diagonal as a column vector, or expand a column
    /// vector into a diagonal matrix (DML `diag` semantics).
    pub fn diag(&self) -> DenseMatrix {
        if self.cols == 1 {
            let n = self.rows;
            let mut out = DenseMatrix::zeros(n, n);
            for i in 0..n {
                out.set(i, i, self.data[i]);
            }
            out
        } else {
            let n = self.rows.min(self.cols);
            let data = (0..n).map(|i| self.get(i, i)).collect();
            DenseMatrix {
                rows: n,
                cols: 1,
                data,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construct_and_access() {
        let m = m23();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn matmult_small() {
        let a = m23();
        let b = DenseMatrix::from_rows(&[&[1.0], &[0.0], &[-1.0]]).unwrap();
        let c = a.matmult(&b).unwrap();
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 1);
        assert_eq!(c.data(), &[-2.0, -2.0]);
    }

    #[test]
    fn matmult_identity() {
        let a = m23();
        let i = DenseMatrix::identity(3);
        let c = a.matmult(&i).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn matmult_shape_error() {
        let a = m23();
        let b = DenseMatrix::zeros(2, 2);
        assert!(matches!(
            a.matmult(&b),
            Err(MatrixError::ShapeMismatch { op: "matmult", .. })
        ));
    }

    #[test]
    fn tsmm_matches_explicit() {
        let a = m23();
        let expected = a.transpose().matmult(&a).unwrap();
        assert_eq!(a.tsmm(), expected);
    }

    #[test]
    fn transpose_round_trip() {
        let a = m23();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn binary_same_shape() {
        let a = m23();
        let b = a.binary(BinaryOp::Add, &a).unwrap();
        assert_eq!(b.get(1, 1), 10.0);
    }

    #[test]
    fn binary_broadcast_col_vector() {
        let a = m23();
        let v = DenseMatrix::from_rows(&[&[10.0], &[20.0]]).unwrap();
        let b = a.binary(BinaryOp::Add, &v).unwrap();
        assert_eq!(b.get(0, 2), 13.0);
        assert_eq!(b.get(1, 0), 24.0);
    }

    #[test]
    fn binary_broadcast_row_vector() {
        let a = m23();
        let v = DenseMatrix::from_rows(&[&[10.0, 20.0, 30.0]]).unwrap();
        let b = a.binary(BinaryOp::Mul, &v).unwrap();
        assert_eq!(b.get(1, 2), 180.0);
    }

    #[test]
    fn binary_shape_error() {
        let a = m23();
        let b = DenseMatrix::zeros(3, 3);
        assert!(a.binary(BinaryOp::Add, &b).is_err());
    }

    #[test]
    fn scalar_sides() {
        let a = m23();
        assert_eq!(a.binary_scalar(BinaryOp::Sub, 1.0).get(0, 0), 0.0);
        assert_eq!(a.scalar_binary(BinaryOp::Sub, 1.0).get(0, 0), 0.0);
        assert_eq!(a.scalar_binary(BinaryOp::Sub, 10.0).get(1, 2), 4.0);
    }

    #[test]
    fn unary_ops() {
        let a = DenseMatrix::from_rows(&[&[4.0, -9.0]]).unwrap();
        assert_eq!(a.unary(UnaryOp::Abs).data(), &[4.0, 9.0]);
        assert_eq!(a.unary(UnaryOp::Neg).data(), &[-4.0, 9.0]);
    }

    #[test]
    fn aggregates() {
        let a = m23();
        assert_eq!(a.aggregate(AggOp::Sum).get(0, 0), 21.0);
        assert_eq!(a.aggregate(AggOp::Mean).get(0, 0), 3.5);
        assert_eq!(a.aggregate(AggOp::Min).get(0, 0), 1.0);
        assert_eq!(a.aggregate(AggOp::Max).get(0, 0), 6.0);
        assert_eq!(a.aggregate(AggOp::RowSums).data(), &[6.0, 15.0]);
        assert_eq!(a.aggregate(AggOp::ColSums).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.aggregate(AggOp::RowMaxs).data(), &[3.0, 6.0]);
        assert_eq!(a.aggregate(AggOp::ColMaxs).data(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn trace_of_square() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.aggregate(AggOp::Trace).get(0, 0), 5.0);
    }

    #[test]
    fn cbind_rbind() {
        let a = m23();
        let c = a.cbind(&a).unwrap();
        assert_eq!(c.cols(), 6);
        assert_eq!(c.get(1, 5), 6.0);
        let r = a.rbind(&a).unwrap();
        assert_eq!(r.rows(), 4);
        assert_eq!(r.get(3, 0), 4.0);
        assert!(a.cbind(&DenseMatrix::zeros(3, 1)).is_err());
        assert!(a.rbind(&DenseMatrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn slicing() {
        let a = m23();
        let s = a.slice(0, 1, 1, 2).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.data(), &[2.0, 3.0, 5.0, 6.0]);
        assert!(a.slice(0, 2, 0, 0).is_err());
    }

    #[test]
    fn diag_both_directions() {
        let v = DenseMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let d = v.diag();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        let back = d.diag();
        assert_eq!(back.data(), &[1.0, 2.0]);
    }

    #[test]
    fn nnz_counts() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]).unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.characteristics(), MatrixCharacteristics::known(2, 2, 2));
    }
}
