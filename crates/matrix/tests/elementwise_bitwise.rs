//! Bit-identity and format of the element-wise kernels against the
//! densified path.
//!
//! The oracle densifies every operand, applies `op.apply` cell by cell with
//! DML's broadcast rules, and picks the format with `from_dense_auto` — what
//! `Matrix` computed before CSR operands stayed CSR. Every result must hold
//! the oracle's bits (NaN compared as NaN) in the oracle's format, and a
//! CSR result must satisfy the CSR invariants.
//!
//! Operands come in every format pair; CSR operands sit on both sides of
//! `SPARSE_FORMAT_THRESHOLD`, and some do not prefer CSR at all (dense
//! enough, or a narrow column whose row pointers outweigh the saving).
//! Values mix `±0`, subnormals, products that underflow to zero or
//! overflow, and — in the `special` half — `±inf` and NaN, which is what
//! sends a CSR ⊙ dense `Mul` back to the fill-and-patch path.

use reml_matrix::{AggOp, BinaryOp, DenseMatrix, Matrix, SparseMatrix, UnaryOp};

const BINARY_OPS: [BinaryOp; 15] = [
    BinaryOp::Add,
    BinaryOp::Sub,
    BinaryOp::Mul,
    BinaryOp::Div,
    BinaryOp::Pow,
    BinaryOp::Min,
    BinaryOp::Max,
    BinaryOp::Greater,
    BinaryOp::GreaterEq,
    BinaryOp::Less,
    BinaryOp::LessEq,
    BinaryOp::Eq,
    BinaryOp::NotEq,
    BinaryOp::And,
    BinaryOp::Or,
];

const UNARY_OPS: [UnaryOp; 8] = [
    UnaryOp::Neg,
    UnaryOp::Sqrt,
    UnaryOp::Exp,
    UnaryOp::Log,
    UnaryOp::Abs,
    UnaryOp::Round,
    UnaryOp::Not,
    UnaryOp::Sign,
];

/// Left-operand shapes: general, 1×1, vectors, empty in either dimension.
const SHAPES: &[(usize, usize)] = &[(7, 5), (23, 17), (1, 1), (9, 1), (1, 9), (0, 4), (4, 0)];

/// Percent of non-zero cells: CSR preferred, near the threshold, dense.
const DENSITIES: [u64; 3] = [5, 30, 70];

/// Scalars for the matrix–scalar ops.
const SCALARS: [f64; 10] = [
    0.0,
    -0.0,
    2.0,
    -1.5,
    0.5,
    5e-324,
    1e300,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Deterministic cells, `density` percent of them non-zero; zeros of both
/// signs. With `special`, some non-zeros are `±inf` or NaN.
fn values(rows: usize, cols: usize, seed: u64, density: u64, special: bool) -> DenseMatrix {
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
            if r % 100 >= density {
                return if r & 128 == 0 { 0.0 } else { -0.0 };
            }
            match (r >> 8) % 16 {
                0 if special => f64::INFINITY,
                1 if special => f64::NEG_INFINITY,
                2 if special => f64::NAN,
                3 => 5e-324,
                4 => -2.5e-310,
                5 => 1e-200,
                6 => -1e300,
                _ => (r >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
            }
        })
        .collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// The dense and the CSR form of `d`.
fn formats(d: &DenseMatrix) -> [Matrix; 2] {
    [
        Matrix::Dense(d.clone()),
        Matrix::Sparse(SparseMatrix::from_dense(d)),
    ]
}

fn kind(m: &Matrix) -> &'static str {
    if m.is_sparse() {
        "S"
    } else {
        "D"
    }
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

/// `got` is `want` — format, shape and every cell's bits — and, when CSR,
/// a valid CSR block.
fn assert_same(got: &Matrix, want: &Matrix, ctx: &str) {
    assert_eq!(got.is_sparse(), want.is_sparse(), "{ctx}: format");
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{ctx}: shape"
    );
    if let Matrix::Sparse(s) = got {
        s.check_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
    let (g, w) = (
        canonical_bits(&got.to_dense()),
        canonical_bits(&want.to_dense()),
    );
    if let Some(at) = g.iter().zip(&w).position(|(x, y)| x != y) {
        panic!(
            "{ctx}: cell {at} is {:e}, oracle {:e}",
            f64::from_bits(g[at]),
            f64::from_bits(w[at])
        );
    }
}

/// `f(r, c)` for every cell of an `rows × cols` matrix, in the format the
/// runtime picks for those cells.
fn oracle(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
    let mut out = DenseMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            out.set(r, c, f(r, c));
        }
    }
    Matrix::from_dense_auto(out)
}

/// `a op b` cell by cell over the densified operands: `b` of `a`'s shape,
/// a column vector or a row vector (tried in that order); `None` when the
/// shapes do not conform.
fn binary_oracle(op: BinaryOp, a: &Matrix, b: &Matrix) -> Option<Matrix> {
    let (a, b) = (a.to_dense(), b.to_dense());
    let (m, n) = (a.rows(), a.cols());
    let read: fn(&DenseMatrix, usize, usize) -> f64 = if (b.rows(), b.cols()) == (m, n) {
        |b, r, c| b.get(r, c)
    } else if b.cols() == 1 && b.rows() == m {
        |b, r, _| b.get(r, 0)
    } else if b.rows() == 1 && b.cols() == n {
        |b, _, c| b.get(0, c)
    } else {
        return None;
    };
    Some(oracle(m, n, |r, c| op.apply(a.get(r, c), read(&b, r, c))))
}

/// How often the runs below took the paths whose gates matter.
#[derive(Default)]
struct Coverage {
    /// CSR operands that do not prefer CSR.
    csr_not_preferred: usize,
    /// CSR ⊙ dense `Mul` results kept in CSR.
    mul_kept_csr: usize,
    /// CSR ⊙ dense `Mul` with a non-finite dense value.
    mul_non_finite: usize,
}

/// Every op, both specials settings and every density pair for one format
/// pair (`left_csr`, `right_csr`), over every shape and conforming right
/// operand.
fn check_binary_pair(left_csr: bool, right_csr: bool) -> Coverage {
    let mut cov = Coverage::default();
    let mut seed = 0;
    for &(m, n) in SHAPES {
        let mut rights = vec![(m, n), (m, 1), (1, n)];
        rights.dedup();
        for &(rm, rn) in &rights {
            for special in [false, true] {
                for da in DENSITIES {
                    for db in DENSITIES {
                        seed += 2;
                        let a = &formats(&values(m, n, seed, da, special))[left_csr as usize];
                        let b =
                            &formats(&values(rm, rn, seed + 1, db, special))[right_csr as usize];
                        for x in [a, b] {
                            if let Matrix::Sparse(s) = x {
                                let cells = s.rows() * s.cols();
                                if cells > 0 && !Matrix::prefers_sparse(s.rows(), s.cols(), s.nnz())
                                {
                                    cov.csr_not_preferred += 1;
                                }
                            }
                        }
                        for op in BINARY_OPS {
                            let ctx = format!(
                                "{}{m}x{n} {} {}{rm}x{rn} special={special} densities={da}/{db}",
                                kind(a),
                                op.token(),
                                kind(b)
                            );
                            let want = binary_oracle(op, a, b).expect("conforming shapes");
                            let got = a.binary(op, b).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                            assert_same(&got, &want, &ctx);
                            if op == BinaryOp::Mul && a.is_sparse() != b.is_sparse() {
                                let dense = if a.is_sparse() { b } else { a };
                                if dense.to_dense().data().iter().any(|v| !v.is_finite()) {
                                    cov.mul_non_finite += 1;
                                } else if got.is_sparse() {
                                    cov.mul_kept_csr += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // Shapes that do not conform are the same error in every format pair.
    let a = &formats(&values(4, 3, 1, 50, false))[left_csr as usize];
    let b = &formats(&values(2, 3, 2, 50, false))[right_csr as usize];
    for op in BINARY_OPS {
        let want = Matrix::Dense(a.to_dense()).binary(op, &Matrix::Dense(b.to_dense()));
        assert_eq!(a.binary(op, b).unwrap_err(), want.unwrap_err(), "{op:?}");
    }
    cov
}

#[test]
fn binary_dense_dense_matches_densified_oracle() {
    check_binary_pair(false, false);
}

#[test]
fn binary_csr_dense_matches_densified_oracle() {
    let cov = check_binary_pair(true, false);
    assert!(
        cov.csr_not_preferred > 0,
        "no CSR operand that does not prefer CSR"
    );
    assert!(cov.mul_kept_csr > 0, "CSR-keeping Mul never ran");
    assert!(cov.mul_non_finite > 0, "non-finite fallback never ran");
}

#[test]
fn binary_dense_csr_matches_densified_oracle() {
    let cov = check_binary_pair(false, true);
    assert!(
        cov.csr_not_preferred > 0,
        "no CSR operand that does not prefer CSR"
    );
    assert!(cov.mul_kept_csr > 0, "CSR-keeping Mul never ran");
    assert!(cov.mul_non_finite > 0, "non-finite fallback never ran");
}

#[test]
fn binary_csr_csr_matches_densified_oracle() {
    let cov = check_binary_pair(true, true);
    assert!(
        cov.csr_not_preferred > 0,
        "no CSR operand that does not prefer CSR"
    );
}

/// Every operand the matrix–scalar and unary checks run on: each shape,
/// density and specials setting, in both formats.
fn operands() -> Vec<Matrix> {
    let mut seed = 1000;
    let mut out = Vec::new();
    for &(m, n) in SHAPES {
        for special in [false, true] {
            for density in DENSITIES {
                seed += 1;
                out.extend(formats(&values(m, n, seed, density, special)));
            }
        }
    }
    out
}

#[test]
fn matrix_scalar_ops_match_densified_oracle() {
    for x in operands() {
        let d = x.to_dense();
        for op in BINARY_OPS {
            for s in SCALARS {
                let ctx = format!("{}{}x{} {} {s:e}", kind(&x), x.rows(), x.cols(), op.token());
                let want = oracle(x.rows(), x.cols(), |r, c| op.apply(d.get(r, c), s));
                assert_same(&x.binary_scalar(op, s), &want, &format!("{ctx} (X op s)"));
                let want = oracle(x.rows(), x.cols(), |r, c| op.apply(s, d.get(r, c)));
                assert_same(&x.scalar_binary(op, s), &want, &format!("{ctx} (s op X)"));
            }
        }
    }
}

#[test]
fn scalar_on_the_left_keeps_csr() {
    let x = Matrix::Sparse(SparseMatrix::from_dense(&values(50, 20, 7, 5, false)));
    assert!(x.scalar_binary(BinaryOp::Mul, 2.0).is_sparse(), "2 * X");
    assert!(x.scalar_binary(BinaryOp::Mul, -0.5).is_sparse(), "-0.5 * X");
    assert!(!x.scalar_binary(BinaryOp::Sub, 1.0).is_sparse(), "1 - X");
    assert!(
        !x.scalar_binary(BinaryOp::Mul, f64::NAN).is_sparse(),
        "NaN * X"
    );
}

#[test]
fn unary_ops_match_densified_oracle() {
    for x in operands() {
        let d = x.to_dense();
        for op in UNARY_OPS {
            let ctx = format!("{}({}{}x{})", op.token(), kind(&x), x.rows(), x.cols());
            let want = oracle(x.rows(), x.cols(), |r, c| op.apply(d.get(r, c)));
            assert_same(&x.unary(op), &want, &ctx);
        }
    }
}

#[test]
fn row_and_col_maxs_match_densified_oracle() {
    let mut checked = 0;
    // CSR operands only: a densified CSR block holds no `-0.0`, while for
    // a dense block with zeros of both signs `f64::max(-0.0, 0.0)` may
    // return either, so the unchanged dense fold has no single oracle.
    for x in operands().into_iter().filter(Matrix::is_sparse) {
        let d = x.to_dense();
        let (m, n) = (d.rows(), d.cols());
        let fold = |cells: &mut dyn Iterator<Item = f64>| cells.fold(f64::NEG_INFINITY, f64::max);
        let mut row_maxs = DenseMatrix::zeros(m, 1);
        for r in 0..m {
            row_maxs.set(r, 0, fold(&mut (0..n).map(|c| d.get(r, c))));
        }
        let mut col_maxs = DenseMatrix::zeros(1, n);
        for c in 0..n {
            col_maxs.set(0, c, fold(&mut (0..m).map(|r| d.get(r, c))));
        }
        let ctx = format!("{}{m}x{n}", kind(&x));
        assert_same(
            &x.aggregate(AggOp::RowMaxs),
            &Matrix::Dense(row_maxs),
            &format!("rowMaxs({ctx})"),
        );
        assert_same(
            &x.aggregate(AggOp::ColMaxs),
            &Matrix::Dense(col_maxs),
            &format!("colMaxs({ctx})"),
        );
        checked += 1;
    }
    // A row of NaNs only folds to -inf; with an implicit zero, to 0.
    let nan_row = DenseMatrix::from_rows(&[&[f64::NAN, f64::NAN], &[f64::NAN, 0.0]]).unwrap();
    let x = Matrix::Sparse(SparseMatrix::from_dense(&nan_row));
    assert_eq!(
        x.aggregate(AggOp::RowMaxs).to_dense().data(),
        &[f64::NEG_INFINITY, 0.0]
    );
    assert_eq!(
        x.aggregate(AggOp::ColMaxs).to_dense().data(),
        &[f64::NEG_INFINITY, 0.0]
    );
    assert!(checked > 0);
}

#[test]
fn slice_matches_densified_oracle() {
    for x in operands() {
        let d = x.to_dense();
        let (m, n) = (d.rows(), d.cols());
        let mut ranges = vec![(m, 0, n, 0), (0, 0, 0, 0)]; // out of bounds
        if m > 0 && n > 0 {
            ranges.extend([
                (0, m - 1, 0, n - 1),
                (m / 2, m - 1, n / 2, n - 1),
                (m - 1, m - 1, 0, n - 1),
                (0, m - 1, n - 1, n - 1),
                (m / 3, m / 2, n / 3, n / 2),
                (1.min(m - 1), 0, 0, 0), // r0 > r1 when m > 1
            ]);
        }
        for (r0, r1, c0, c1) in ranges {
            let ctx = format!("{}{m}x{n}[{r0}:{r1}, {c0}:{c1}]", kind(&x));
            match d.slice(r0, r1, c0, c1) {
                Ok(want) => {
                    let want = oracle(want.rows(), want.cols(), |r, c| want.get(r, c));
                    assert_same(&x.slice(r0, r1, c0, c1).unwrap(), &want, &ctx);
                }
                Err(e) => assert_eq!(x.slice(r0, r1, c0, c1).unwrap_err(), e, "{ctx}"),
            }
        }
    }
}

#[test]
fn chunk_parallel_kernels_match_oracle() {
    // 1030 × 1024 cells is over the 2^20-cell parallel threshold; the
    // chunk boundaries fall inside rows.
    let (m, n) = (1030, 1024);
    let a = Matrix::Dense(values(m, n, 11, 90, true));
    let b = Matrix::Dense(values(m, n, 12, 90, true));
    let (da, db) = (a.to_dense(), b.to_dense());
    for op in [BinaryOp::Add, BinaryOp::Mul, BinaryOp::Div, BinaryOp::Pow] {
        let want = binary_oracle(op, &a, &b).unwrap();
        assert_same(
            &a.binary(op, &b).unwrap(),
            &want,
            &format!("D {} D", op.token()),
        );
        let want = oracle(m, n, |r, c| op.apply(da.get(r, c), -1.5));
        assert_same(
            &a.binary_scalar(op, -1.5),
            &want,
            &format!("D {} s", op.token()),
        );
        let want = oracle(m, n, |r, c| op.apply(-1.5, db.get(r, c)));
        assert_same(
            &b.scalar_binary(op, -1.5),
            &want,
            &format!("s {} D", op.token()),
        );
    }
    let want = oracle(m, n, |r, c| UnaryOp::Exp.apply(da.get(r, c)));
    assert_same(&a.unary(UnaryOp::Exp), &want, "exp(D)");
}
