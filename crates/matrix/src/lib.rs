//! # reml-matrix — matrix substrate for the reml stack
//!
//! This crate provides the in-memory matrix runtime that the rest of the
//! system (compiler, runtime executor, examples) builds on:
//!
//! * [`MatrixCharacteristics`] — the *metadata* view of a matrix (dimensions
//!   and number of non-zeros). The compiler's size propagation, memory
//!   estimation and the cost model operate exclusively on this type; actual
//!   cell values are only needed by the CP executor.
//! * [`DenseMatrix`] / [`SparseMatrix`] — row-major dense and CSR sparse
//!   blocks with real linear-algebra kernels (matrix multiply, transpose,
//!   elementwise maps, aggregations, dense solve).
//! * [`Matrix`] — the runtime value: a tagged union over dense/sparse with
//!   automatic format selection, mirroring SystemML's physical data
//!   independence (the DML author never chooses a representation).
//!
//! Memory accounting follows the constants in the paper's §5.1 and
//! SystemML's estimator: 8 bytes per dense cell, ~12 bytes per sparse
//! non-zero plus 4 bytes of per-row structure (CSR).

#![forbid(unsafe_code)]

pub mod characteristics;
pub mod dense;
pub mod error;
pub mod generate;
pub mod matrix;
pub mod ops;
pub mod solve;
pub mod sparse;

pub use characteristics::MatrixCharacteristics;
pub use dense::DenseMatrix;
pub use error::MatrixError;
pub use matrix::Matrix;
pub use ops::{AggOp, BinaryOp, UnaryOp};
pub use sparse::SparseMatrix;

/// Bytes occupied by one dense cell (an `f64`).
pub const DENSE_CELL_BYTES: u64 = 8;

/// Approximate bytes per non-zero in the CSR representation: 8 bytes value
/// + 4 bytes column index.
pub const SPARSE_NNZ_BYTES: u64 = 12;

/// Approximate per-row overhead of the CSR representation (row pointer).
pub const SPARSE_ROW_BYTES: u64 = 4;

/// Sparsity threshold below which the sparse representation is smaller and
/// is therefore preferred by automatic format selection. With the constants
/// above, sparse wins when `12·nnz + 4·rows < 8·rows·cols`, i.e. roughly
/// `sparsity < 2/3`; SystemML uses 0.4 to also account for slower sparse
/// kernels, and we follow that choice.
pub const SPARSE_FORMAT_THRESHOLD: f64 = 0.4;

/// Estimated FLOPs above which a matmult-family kernel (`matmult`,
/// `tmatmult`, `tsmm` and their CSR variants) splits its output rows into
/// one band per worker instead of running the whole output as one band.
/// Below this, the vendored pool's per-call thread start-up outweighs the
/// split: the blocked single-band kernels finish a 12000×100 matvec in
/// about a millisecond.
pub(crate) const PAR_FLOPS_THRESHOLD: usize = 1 << 21;

/// Cell count above which elementwise kernels and `transpose` run
/// chunk-parallel.
pub(crate) const PAR_CELLS_THRESHOLD: usize = 1 << 20;

/// Whether a kernel should take its parallel path: enough independent
/// chunks, enough work to amortize thread startup, and more than one
/// worker available. Parallel variants partition by output row with the
/// per-cell accumulation order unchanged, so sequential and parallel
/// paths are bit-identical.
pub(crate) fn par_worthwhile(work: usize, threshold: usize, chunks: usize) -> bool {
    chunks >= 2 && work >= threshold && rayon::current_num_threads() > 1
}

/// Cut `rows` output rows into bands, one per worker when `parallel`
/// (else a single band): `0 = c₀ < c₁ < … = rows`, interior cuts at
/// multiples of `align`, each band holding as equal a share of
/// `Σ weight(row)` as whole rows allow.
pub(crate) fn band_cuts(
    rows: usize,
    parallel: bool,
    align: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<usize> {
    let workers = if parallel {
        rayon::current_num_threads()
    } else {
        1
    };
    let total: usize = (0..rows).map(&weight).sum();
    let mut cuts = vec![0];
    let mut acc = 0;
    for r in 0..rows {
        if cuts.len() < workers && r % align == 0 && r > 0 && acc * workers >= total * cuts.len() {
            cuts.push(r);
        }
        acc += weight(r);
    }
    cuts.push(rows);
    cuts
}

/// Run `kernel(first_row, end_row, band)` on each band of `out` (whole
/// rows of `row_len` cells, cut at `cuts`), the bands in parallel. Every
/// band owns its output rows outright, so the split never changes which
/// terms a cell receives or their order.
pub(crate) fn run_bands<K>(out: &mut [f64], row_len: usize, cuts: &[usize], kernel: &K)
where
    K: Fn(usize, usize, &mut [f64]) + Sync,
{
    if cuts.len() <= 2 {
        kernel(cuts[0], cuts[cuts.len() - 1], out);
        return;
    }
    let mid = cuts.len() / 2;
    let (lo, hi) = out.split_at_mut((cuts[mid] - cuts[0]) * row_len);
    rayon::join(
        || run_bands(lo, row_len, &cuts[..=mid], kernel),
        || run_bands(hi, row_len, &cuts[mid..], kernel),
    );
}
