//! Bit-identity of the blocked, banded and register-tiled matmult-family
//! kernels against naive triple loops.
//!
//! Each oracle adds a cell's terms from `+0.0` in ascending inner index
//! and skips exactly the zeros the kernel's contract skips, so blocking,
//! banding or tiling that reordered or split a cell's sum, or dropped or
//! added a term, shows up as a differing bit pattern. NaN compares as NaN:
//! its sign and payload depend on where x86 produces the default NaN.
//!
//! Shapes straddle the k-block (256 KiB of the right operand: 327 rows at
//! 100 columns, 32768 at one), leave a remainder of the four-row and
//! four-column register tiles, sit on both sides of the parallel
//! threshold (2^21 flops), and include empty dimensions.

use reml_matrix::{DenseMatrix, Matrix, SparseMatrix};

/// Deterministic values in [-1, 1) with zeros of both signs, plus ±inf
/// and NaN once in `special` cells when `special > 0`.
fn values(rows: usize, cols: usize, seed: u64, special: u64) -> DenseMatrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let data = (0..rows * cols)
        .map(|_| {
            let r = next();
            if special > 0 && r % special == 0 {
                [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][(r / special % 3) as usize]
            } else {
                match r % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (r >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
                }
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

fn naive_transpose(a: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.cols(), a.rows());
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            out.set(j, i, a.get(i, j));
        }
    }
    out
}

/// `a %*% b` term by term in ascending `k`, skipping a term whose left
/// (right) factor is zero when `skip_a` (`skip_b`).
fn naive_matmult(a: &DenseMatrix, b: &DenseMatrix, skip_a: bool, skip_b: bool) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                let (x, y) = (a.get(i, k), b.get(k, j));
                if (skip_a && x == 0.0) || (skip_b && y == 0.0) {
                    continue;
                }
                acc += x * y;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The four format pairs of `(a, b)`, each with the zeros its kernel
/// skips: a CSR operand's zeros are never stored, and a dense left
/// operand's zeros are skipped unless the right operand is CSR.
fn format_pairs(
    a: &DenseMatrix,
    b: &DenseMatrix,
) -> Vec<(&'static str, Matrix, Matrix, bool, bool)> {
    let dense = |d: &DenseMatrix| Matrix::Dense(d.clone());
    let csr = |d: &DenseMatrix| Matrix::Sparse(SparseMatrix::from_dense(d));
    vec![
        ("dense x dense", dense(a), dense(b), true, false),
        ("csr x dense", csr(a), dense(b), true, false),
        ("dense x csr", dense(a), csr(b), false, true),
        ("csr x csr", csr(a), csr(b), true, true),
    ]
}

fn canonical_bits(d: &DenseMatrix) -> Vec<u64> {
    d.data()
        .iter()
        .map(|v| {
            if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// `got` holds exactly `want`'s bits, in the format the runtime picks for
/// them.
fn assert_bits(got: &Matrix, want: &DenseMatrix, ctx: &str) {
    assert_eq!(
        got.is_sparse(),
        Matrix::prefers_sparse(want.rows(), want.cols(), want.nnz()),
        "{ctx}: format"
    );
    assert_dense_bits(&got.to_dense(), want, ctx);
}

fn assert_dense_bits(got: &DenseMatrix, want: &DenseMatrix, ctx: &str) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{ctx}: shape"
    );
    let (g, w) = (canonical_bits(got), canonical_bits(want));
    if let Some(at) = g.iter().zip(&w).position(|(x, y)| x != y) {
        panic!(
            "{ctx}: cell {at} is {:e}, oracle {:e}",
            f64::from_bits(g[at]),
            f64::from_bits(w[at])
        );
    }
}

/// `(m, k, n)`: `m × k` left operand (for `tmatmult`, the operand that is
/// transposed), `k × n` right (for `tmatmult`, `m × n`).
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 3),
    (5, 0, 3),
    (5, 3, 0),
    (0, 0, 0),
    (1, 1, 1),
    (3, 7, 5),
    (7, 5, 1),
    (9, 13, 6),
    // k-blocks of 327 rows at n = 100; under the parallel threshold.
    (6, 700, 100),
    // Over the threshold in every format pair (about 3/4 of the cells are
    // non-zero), m mod 4 = 1, n mod 4 = 3, 318-row k-blocks.
    (45, 700, 103),
    // Matvec: 32768-row k-blocks, under and over the threshold.
    (5, 33_000, 1),
    (70, 33_000, 1),
    // `tmatmult` of a column vector runs as one long row: 10922-row
    // k-blocks at n = 3.
    (40_000, 1, 3),
];

/// Value mixes: finite with signed zeros, and with ±inf / NaN in about
/// one cell in 300 and one in 7 (where small shapes still have cells a
/// skipped `0 · inf` keeps finite).
const SPECIALS: &[u64] = &[0, 300, 7];

#[test]
fn matmult_all_format_pairs_match_naive_oracle() {
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for &special in SPECIALS {
            let a = values(m, k, 2 * s as u64 + 1, special);
            let b = values(k, n, 2 * s as u64 + 2, special);
            for (pair, ma, mb, skip_a, skip_b) in format_pairs(&a, &b) {
                let ctx = format!("{pair} {m}x{k} * {k}x{n} special={special}");
                let want = naive_matmult(&a, &b, skip_a, skip_b);
                assert_bits(&ma.matmult(&mb).unwrap(), &want, &ctx);
            }
        }
    }
}

#[test]
fn tmatmult_all_format_pairs_match_transpose_then_matmult() {
    for (s, &(m, k, n)) in SHAPES.iter().enumerate() {
        for &special in SPECIALS {
            let a = values(m, k, 2 * s as u64 + 101, special);
            let b = values(m, n, 2 * s as u64 + 102, special);
            let at = naive_transpose(&a);
            for (pair, ma, mb, skip_a, skip_b) in format_pairs(&a, &b) {
                let ctx = format!("t({pair}) t({m}x{k}) * {m}x{n} special={special}");
                let got = ma.tmatmult(&mb).unwrap();
                assert_bits(&got, &naive_matmult(&at, &b, skip_a, skip_b), &ctx);
                let composed = ma.transpose().matmult(&mb).unwrap();
                assert_bits(&got, &composed.to_dense(), &format!("{ctx} vs composition"));
            }
        }
    }
}

#[test]
fn mmchain_composition_matches_naive_oracle() {
    // t(X) %*% (X %*% v) as the VM's `mmchain` runs it.
    for (s, &(m, k, _)) in SHAPES.iter().enumerate() {
        for &special in SPECIALS {
            let x = values(m, k, 2 * s as u64 + 201, special);
            let v = values(k, 1, 2 * s as u64 + 202, special);
            for (pair, mx, mv, _, _) in format_pairs(&x, &v) {
                let ctx = format!("mmchain {pair} {m}x{k} special={special}");
                let xv = mx.matmult(&mv).unwrap();
                let got = mx.tmatmult(&xv).unwrap();
                let composed = mx.transpose().matmult(&xv).unwrap();
                assert_bits(&got, &composed.to_dense(), &ctx);
                let skip = (mx.is_sparse() || !xv.is_sparse(), xv.is_sparse());
                let want = naive_matmult(&naive_transpose(&x), &xv.to_dense(), skip.0, skip.1);
                assert_bits(&got, &want, &format!("{ctx} vs oracle"));
            }
        }
    }
}

#[test]
fn tsmm_matches_naive_oracle() {
    // (500, 100) and (503, 100) are over the parallel threshold.
    for (s, &(m, n)) in [
        (0, 3),
        (3, 0),
        (4, 1),
        (7, 5),
        (33, 17),
        (500, 100),
        (503, 100),
    ]
    .iter()
    .enumerate()
    {
        for &special in SPECIALS {
            let x = values(m, n, s as u64 + 301, special);
            let mut want = DenseMatrix::zeros(n, n);
            for a in 0..n {
                for b in a..n {
                    let mut acc = 0.0;
                    for i in 0..m {
                        if x.get(i, a) != 0.0 {
                            acc += x.get(i, a) * x.get(i, b);
                        }
                    }
                    want.set(a, b, acc);
                    want.set(b, a, acc);
                }
            }
            let ctx = format!("tsmm {m}x{n} special={special}");
            assert_dense_bits(&x.tsmm(), &want, &ctx);
            assert_bits(&Matrix::Dense(x.clone()).tsmm(), &want, &ctx);
        }
    }
}

#[test]
fn transpose_is_exact() {
    // 1100 x 1000 is over the parallel cell threshold.
    for (s, &(m, n)) in [(0, 3), (3, 0), (1, 1), (33, 65), (100, 1), (1100, 1000)]
        .iter()
        .enumerate()
    {
        let x = values(m, n, s as u64 + 401, 300);
        let want = naive_transpose(&x);
        assert_dense_bits(&x.transpose(), &want, &format!("transpose {m}x{n}"));
    }
}
