//! Data generation builtins: `matrix()`, `seq()`, `table()`, and random
//! matrices for the experiment scenarios.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;

/// Longest sequence `seq` builds (16 GiB of cells): bounds the counting
/// pass of [`seq_len`] far above any vector this runtime can hold.
const MAX_SEQ_LEN: usize = 1 << 31;

/// DML `seq(from, to)` with implicit increment ±1 — a column vector.
pub fn seq(from: f64, to: f64) -> Result<DenseMatrix, MatrixError> {
    seq_by(from, to, if from <= to { 1.0 } else { -1.0 })
}

/// Number of elements of `seq_by(from, to, by)`, counted by the same
/// accumulation that builds it, before anything is allocated. Non-finite
/// arguments, a range of more than `2^31` steps, and a step too small to
/// advance `v` (`seq(1e20, 2e20)`: `v + 1 == v`) are typed errors; a zero
/// step, or one pointing away from `to`, gives an empty sequence.
pub fn seq_len(from: f64, to: f64, by: f64) -> Result<usize, MatrixError> {
    let invalid = |why: &str| {
        Err(MatrixError::InvalidArgument(format!(
            "seq({from}, {to}, {by}): {why}"
        )))
    };
    if !(from.is_finite() && to.is_finite() && by.is_finite()) {
        return invalid("arguments must be finite");
    }
    if by == 0.0 {
        return Ok(0);
    }
    if (to - from) / by > MAX_SEQ_LEN as f64 {
        return invalid("more elements than a sequence may hold");
    }
    let within = |v: f64| {
        if by > 0.0 {
            v <= to + 1e-12
        } else {
            v >= to - 1e-12
        }
    };
    let (mut len, mut v) = (0, from);
    while within(v) {
        let next = v + by;
        if next == v {
            return invalid(&format!("the step does not advance past {v}"));
        }
        len += 1;
        v = next;
    }
    Ok(len)
}

/// DML `seq(from, to, by)` — a column vector of [`seq_len`] elements,
/// `from`, `from + by`, … accumulated step by step.
pub fn seq_by(from: f64, to: f64, by: f64) -> Result<DenseMatrix, MatrixError> {
    let len = seq_len(from, to, by)?;
    let mut data = Vec::new();
    data.try_reserve_exact(len)
        .map_err(|e| MatrixError::InvalidArgument(format!("seq of {len} elements: {e}")))?;
    let mut v = from;
    for _ in 0..len {
        data.push(v);
        v += by;
    }
    DenseMatrix::from_vec(len, 1, data)
}

/// DML `table(seq(1, n), y)` — the contingency-table pattern from the
/// paper's §4: turn an `n×1` multi-valued label vector `y` (values in
/// `1..=k`) into an `n×k` boolean indicator matrix.
///
/// The number of categories `k` is **data dependent** (`max(y)`), which is
/// exactly why the compiler cannot infer the output size statically and
/// why MLogreg/GLM trigger runtime re-optimization.
pub fn table_seq(y: &DenseMatrix) -> Result<Matrix, MatrixError> {
    if y.cols() != 1 {
        return Err(MatrixError::InvalidArgument(format!(
            "table expects a column vector, got {}x{}",
            y.rows(),
            y.cols()
        )));
    }
    let n = y.rows();
    let mut k = 0usize;
    for r in 0..n {
        let v = y.get(r, 0);
        if v < 1.0 || v.fract() != 0.0 {
            return Err(MatrixError::InvalidArgument(format!(
                "table label at row {r} must be a positive integer, got {v}"
            )));
        }
        k = k.max(v as usize);
    }
    let triplets: Vec<(usize, usize, f64)> =
        (0..n).map(|r| (r, y.get(r, 0) as usize - 1, 1.0)).collect();
    let s = SparseMatrix::from_triplets(n, k, triplets)?;
    Ok(Matrix::from_sparse_auto(s))
}

/// Random dense matrix with entries uniform in `[min, max)`, seeded for
/// reproducibility.
pub fn rand_dense(rows: usize, cols: usize, min: f64, max: f64, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows * cols).map(|_| rng.gen_range(min..max)).collect();
    DenseMatrix::from_vec(rows, cols, data).expect("rand shape")
}

/// Random sparse matrix with the given target sparsity; non-zeros uniform
/// in `[min, max)`.
pub fn rand_sparse(
    rows: usize,
    cols: usize,
    sparsity: f64,
    min: f64,
    max: f64,
    seed: u64,
) -> SparseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen::<f64>() < sparsity {
                let mut v = rng.gen_range(min..max);
                if v == 0.0 {
                    v = min + (max - min) / 2.0;
                }
                triplets.push((r, c, v));
            }
        }
    }
    SparseMatrix::from_triplets(rows, cols, triplets).expect("rand sparse shape")
}

/// Random label vector with integer classes `1..=k` (for MLogreg/GLM test
/// data feeding `table()`).
pub fn rand_labels(rows: usize, k: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..rows).map(|_| rng.gen_range(1..=k) as f64).collect();
    DenseMatrix::from_vec(rows, 1, data).expect("labels shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_ascending() {
        let s = seq(1.0, 5.0).unwrap();
        assert_eq!(s.rows(), 5);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn seq_descending() {
        let s = seq(3.0, 1.0).unwrap();
        assert_eq!(s.data(), &[3.0, 2.0, 1.0]);
    }

    #[test]
    fn seq_by_step() {
        let s = seq_by(0.0, 1.0, 0.25).unwrap();
        assert_eq!(s.rows(), 5);
        assert_eq!(s.get(4, 0), 1.0);
        // Accumulated, not `from + i * by`: 0.1 + 0.1 + 0.1 > 0.3.
        let s = seq_by(0.0, 0.3, 0.1).unwrap();
        assert_eq!(s.data(), &[0.0, 0.1, 0.2, 0.1 + 0.1 + 0.1]);
        assert_eq!(seq_len(0.0, 0.3, 0.1).unwrap(), 4);
    }

    #[test]
    fn seq_empty_ranges() {
        assert_eq!(seq_by(1.0, 5.0, 0.0).unwrap().rows(), 0);
        assert_eq!(seq_by(1.0, 5.0, -1.0).unwrap().rows(), 0);
        assert_eq!(seq_by(5.0, 1.0, 1.0).unwrap().rows(), 0);
    }

    #[test]
    fn seq_hostile_ranges_are_typed_errors() {
        for (from, to, by) in [
            (1.0, f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, 1.0, 1.0),
            (1.0, f64::NAN, 1.0),
            (1.0, 5.0, f64::NAN),
            // v + 1 == v from the first step on.
            (1e20, 2e20, 1.0),
            // Advances until 2^53, then stalls.
            (9_007_199_254_740_000.0, 9_007_199_254_741_000.0, 1.0),
            (1.0, 1e12, 1.0),
            (-1.0, -1e300, -1e-300),
        ] {
            let err = seq_by(from, to, by).unwrap_err();
            assert!(
                matches!(err, MatrixError::InvalidArgument(_)),
                "seq({from}, {to}, {by}): {err:?}"
            );
        }
    }

    #[test]
    fn table_builds_indicator() {
        let y = DenseMatrix::from_rows(&[&[2.0], &[1.0], &[3.0], &[2.0]]).unwrap();
        let t = table_seq(&y).unwrap();
        let mc = t.characteristics();
        assert_eq!(mc.rows, Some(4));
        assert_eq!(mc.cols, Some(3));
        assert_eq!(mc.nnz, Some(4));
        let d = t.to_dense();
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(1, 0), 1.0);
        assert_eq!(d.get(2, 2), 1.0);
        assert_eq!(d.get(0, 0), 0.0);
    }

    #[test]
    fn table_k_is_data_dependent() {
        let y2 = DenseMatrix::from_rows(&[&[1.0], &[2.0]]).unwrap();
        let y5 = DenseMatrix::from_rows(&[&[1.0], &[5.0]]).unwrap();
        assert_eq!(table_seq(&y2).unwrap().characteristics().cols, Some(2));
        assert_eq!(table_seq(&y5).unwrap().characteristics().cols, Some(5));
    }

    #[test]
    fn table_rejects_bad_labels() {
        let y = DenseMatrix::from_rows(&[&[0.0]]).unwrap();
        assert!(table_seq(&y).is_err());
        let y = DenseMatrix::from_rows(&[&[1.5]]).unwrap();
        assert!(table_seq(&y).is_err());
        let y = DenseMatrix::zeros(1, 2);
        assert!(table_seq(&y).is_err());
    }

    #[test]
    fn rand_dense_deterministic() {
        let a = rand_dense(10, 10, 0.0, 1.0, 42);
        let b = rand_dense(10, 10, 0.0, 1.0, 42);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn rand_sparse_roughly_matches_sparsity() {
        let s = rand_sparse(100, 100, 0.1, -1.0, 1.0, 7);
        s.check_invariants().unwrap();
        let sp = s.nnz() as f64 / 10_000.0;
        assert!((0.05..0.15).contains(&sp), "sparsity {sp}");
    }

    #[test]
    fn rand_labels_in_range() {
        let y = rand_labels(1000, 5, 3);
        let mut seen = [false; 5];
        for r in 0..1000 {
            let v = y.get(r, 0);
            assert!((1.0..=5.0).contains(&v) && v.fract() == 0.0);
            seen[v as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s), "all classes drawn at n=1000");
    }
}
