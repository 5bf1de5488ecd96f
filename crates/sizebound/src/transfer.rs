//! Monotone transfer functions: one sound interval rule per HOP
//! operator.
//!
//! Each rule over-approximates the concrete operator: for any concrete
//! inputs inside the input intervals, the concrete output lies inside
//! the returned interval. Dimensions are propagated exactly where the
//! operator semantics fix them (e.g. a matmult's output extents);
//! non-zero counts use the standard structural bounds (`nnz(A·B) ≤
//! min(nnz(A)·cols(B), rows(A)·nnz(B))`, zero-preserving elementwise ops
//! bound by input patterns, everything else falls back to the dense
//! cell-count cap). Compiler-inferred characteristics are injected only
//! at *leaf* positions whose extents come from scalar constants (data
//! generators, indexing extents, `diag`) — never for `table()` outputs,
//! whose column count is data-dependent and stays ⊤.

use reml_compiler::{CompileConfig, HopDag, HopId, HopOp};
use reml_matrix::BinaryOp;

use crate::analysis::AbsEnv;
use crate::interval::{add_hi, min_hi, mul_hi, DimInterval, SizeBound};

/// Evaluate the transfer function of `id` over the already-computed
/// bounds of its producers (`bounds`, indexed by hop id) and the
/// interval environment at block entry (`env`).
pub fn transfer(
    dag: &HopDag,
    id: HopId,
    bounds: &[SizeBound],
    env: &AbsEnv,
    config: &CompileConfig,
) -> SizeBound {
    let hop = dag.hop(id);
    let input = |i: usize| -> SizeBound {
        hop.inputs
            .get(i)
            .and_then(|h| bounds.get(h.0))
            .copied()
            .unwrap_or_else(SizeBound::top)
    };
    match &hop.op {
        HopOp::TRead(name) => match env.get(&**name) {
            Some(b) => *b,
            None => config
                .inputs
                .get(&**name)
                .map(SizeBound::from_mc)
                .unwrap_or_else(SizeBound::top),
        },
        HopOp::PRead(path) => config
            .inputs
            .get(&**path)
            .map(SizeBound::from_mc)
            .unwrap_or_else(SizeBound::top),
        // Writes and sinks pass their value through.
        HopOp::TWrite(_) | HopOp::PWrite(_) => input(0),
        HopOp::Print => SizeBound::scalar(),
        // Scalar producers.
        HopOp::LitNum(_)
        | HopOp::LitStr(_)
        | HopOp::LitBool(_)
        | HopOp::BinarySS(_)
        | HopOp::UnaryS(_)
        | HopOp::Concat
        | HopOp::NRow
        | HopOp::NCol
        | HopOp::CastScalar => SizeBound::scalar(),
        HopOp::MatMult => {
            let (a, b) = (input(0), input(1));
            let rows = a.rows;
            let cols = b.cols;
            let cells = mul_hi(rows.hi, cols.hi);
            // Every non-zero of the product needs a non-zero in the same
            // row of A (≤ nnz(A)·cols(B)) and column of B (≤ rows(A)·nnz(B)).
            let structural = min_hi(mul_hi(a.nnz_hi(), cols.hi), mul_hi(rows.hi, b.nnz_hi()));
            SizeBound {
                rows,
                cols,
                nnz: DimInterval::bounded(min_hi(cells, structural)),
            }
        }
        // Fused t(X) %*% (X %*% v): output extents are cols(X) × cols(v).
        HopOp::MmChain => {
            let (x, v) = (input(0), input(1));
            let rows = x.cols;
            let cols = v.cols;
            SizeBound {
                rows,
                cols,
                nnz: DimInterval::bounded(mul_hi(rows.hi, cols.hi)),
            }
        }
        HopOp::BinaryMM(op) => binary_mm(*op, input(0), input(1)),
        HopOp::BinaryMS(op) => {
            let m = input(0);
            elementwise_with_scalar(*op, m, /*matrix_is_left=*/ true)
        }
        HopOp::BinarySM(op) => {
            let m = input(1);
            elementwise_with_scalar(*op, m, /*matrix_is_left=*/ false)
        }
        HopOp::UnaryM(op) => {
            let m = input(0);
            let nnz = if op.is_zero_preserving() {
                m.nnz_hi()
            } else {
                m.cells_hi()
            };
            SizeBound {
                rows: m.rows,
                cols: m.cols,
                nnz: DimInterval::bounded(nnz),
            }
        }
        HopOp::Agg(op) => {
            if op.is_full_reduction() {
                return SizeBound::scalar();
            }
            let m = input(0);
            match op {
                reml_matrix::AggOp::RowSums | reml_matrix::AggOp::RowMaxs => SizeBound {
                    rows: m.rows,
                    cols: DimInterval::exact(1),
                    nnz: DimInterval::bounded(m.rows.hi),
                },
                _ => SizeBound {
                    rows: DimInterval::exact(1),
                    cols: m.cols,
                    nnz: DimInterval::bounded(m.cols.hi),
                },
            }
        }
        HopOp::Transpose => {
            let m = input(0);
            SizeBound {
                rows: m.cols,
                cols: m.rows,
                nnz: m.nnz,
            }
        }
        // diag extents depend on whether the input is a vector (expand)
        // or square (extract); the compiler resolves that statically, so
        // the leaf characteristics are injected — the nnz bound still
        // comes from the input's interval (diagonal placement can only
        // keep or drop non-zeros).
        HopOp::Diag => {
            let mut b = SizeBound::from_mc_dims(&hop.mc);
            b.nnz = DimInterval::bounded(min_hi(input(0).nnz_hi(), b.cells_hi()));
            b
        }
        // Generator extents come from scalar arguments the compiler
        // constant-folds into the characteristics; a loop-varying extent
        // shows up as an unknown dimension and stays ⊤.
        HopOp::DataGenConst => {
            let b = SizeBound::from_mc_dims(&hop.mc);
            let zero_fill = matches!(
                hop.inputs.first().map(|i| &dag.hop(*i).op),
                Some(HopOp::LitNum(v)) if *v == 0.0
            );
            if zero_fill {
                SizeBound {
                    nnz: DimInterval::exact(0),
                    ..b
                }
            } else {
                b
            }
        }
        HopOp::DataGenSeq | HopOp::DataGenRand => SizeBound::from_mc_dims(&hop.mc),
        // table(seq(1, n), y): one non-zero per row of y; the column
        // count is data-dependent — never trust `table_cols_hint` here,
        // it is an optimistic hint, not a bound.
        HopOp::TableSeq => {
            let y = input(0);
            SizeBound {
                rows: DimInterval::bounded(y.rows.hi),
                cols: DimInterval::top(),
                nnz: DimInterval::bounded(y.rows.hi),
            }
        }
        // Indexing extents come from scalar bound arguments (leaf
        // injection); a slice can only keep a subset of the non-zeros.
        HopOp::RightIndex => {
            let mut b = SizeBound::from_mc_dims(&hop.mc);
            b.nnz = DimInterval::bounded(min_hi(input(0).nnz_hi(), b.cells_hi()));
            b
        }
        HopOp::LeftIndex => {
            let (target, value) = (input(0), input(1));
            SizeBound {
                rows: target.rows,
                cols: target.cols,
                nnz: DimInterval::bounded(add_hi(target.nnz_hi(), value.nnz_hi())),
            }
        }
        HopOp::Append => {
            let (a, b) = (input(0), input(1));
            SizeBound {
                rows: a.rows.broadcast_max(b.rows),
                cols: a.cols.plus(b.cols),
                nnz: DimInterval::bounded(add_hi(a.nnz_hi(), b.nnz_hi())),
            }
        }
        HopOp::RBind => {
            let (a, b) = (input(0), input(1));
            SizeBound {
                rows: a.rows.plus(b.rows),
                cols: a.cols.broadcast_max(b.cols),
                nnz: DimInterval::bounded(add_hi(a.nnz_hi(), b.nnz_hi())),
            }
        }
        // solve(A, b): the solution has b's extents (A is square).
        HopOp::Solve => {
            let b = input(1);
            SizeBound {
                rows: b.rows,
                cols: b.cols,
                nnz: DimInterval::bounded(mul_hi(b.rows.hi, b.cols.hi)),
            }
        }
        HopOp::CastMatrix => SizeBound {
            rows: DimInterval::exact(1),
            cols: DimInterval::exact(1),
            nnz: DimInterval::bounded(Some(1)),
        },
    }
}

/// Elementwise matrix ⊙ matrix with DML vector broadcasting.
fn binary_mm(op: BinaryOp, a: SizeBound, b: SizeBound) -> SizeBound {
    let rows = a.rows.broadcast_max(b.rows);
    let cols = a.cols.broadcast_max(b.cols);
    let cells = mul_hi(rows.hi, cols.hi);
    // Effective non-zero bound of one operand against the output shape:
    // a (possible) vector operand's pattern repeats along the broadcast
    // dimension. Scaling is skipped only when the interval *proves* the
    // operand spans that dimension (lo ≥ 2 or extents match exactly).
    let eff = |x: &SizeBound| -> Option<u64> {
        let mut n = x.nnz_hi();
        if may_broadcast(x.cols, cols) {
            n = mul_hi(n, cols.hi);
        }
        if may_broadcast(x.rows, rows) {
            n = mul_hi(n, rows.hi);
        }
        min_hi(n, cells)
    };
    let nnz = if op.is_right_zero_annihilating() {
        // a ⊙ b is zero wherever either side is zero.
        min_hi(cells, min_hi(eff(&a), eff(&b)))
    } else if op.is_zero_preserving() {
        // op(0, 0) = 0: non-zeros only where either side is non-zero.
        min_hi(cells, add_hi(eff(&a), eff(&b)))
    } else {
        cells
    };
    SizeBound {
        rows,
        cols,
        nnz: DimInterval::bounded(nnz),
    }
}

/// Whether an operand with extent `dim` may be broadcast against an
/// output extent `out` (i.e. we cannot prove the extents coincide).
fn may_broadcast(dim: DimInterval, out: DimInterval) -> bool {
    // Exactly matching point intervals ⇒ no broadcast.
    if dim.hi == Some(dim.lo) && out.hi == Some(out.lo) && dim.lo == out.lo {
        return false;
    }
    // An operand proven ≥ 2 wide cannot be a broadcast vector.
    dim.lo <= 1
}

/// Matrix ⊙ scalar (either side): extents are the matrix's; only
/// multiplication-like ops preserve the zero pattern (op(0, s) or
/// op(s, 0) may be non-zero otherwise, e.g. `X + 1`).
fn elementwise_with_scalar(op: BinaryOp, m: SizeBound, matrix_is_left: bool) -> SizeBound {
    let preserves = match op {
        BinaryOp::Mul | BinaryOp::And => true,
        // 0 / s = 0, but s / 0 is not zero.
        BinaryOp::Div => matrix_is_left,
        _ => false,
    };
    let nnz = if preserves { m.nnz_hi() } else { m.cells_hi() };
    SizeBound {
        rows: m.rows,
        cols: m.cols,
        nnz: DimInterval::bounded(nnz),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_compiler::VType;
    use reml_matrix::MatrixCharacteristics;

    fn cfg() -> CompileConfig {
        CompileConfig::new(reml_cluster::ClusterConfig::paper_cluster(), 1024, 512)
    }

    fn eval_all(dag: &HopDag, env: &AbsEnv, config: &CompileConfig) -> Vec<SizeBound> {
        let mut bounds = vec![SizeBound::top(); dag.len()];
        for id in dag.live_hops(&[]) {
            bounds[id.0] = transfer(dag, id, &bounds, env, config);
        }
        bounds
    }

    #[test]
    fn matmult_structural_nnz_bound() {
        let mut dag = HopDag::new();
        let a = dag.add(
            HopOp::TRead("A".into()),
            vec![],
            VType::Matrix,
            MatrixCharacteristics::known(1000, 1000, 50),
        );
        let b = dag.add(
            HopOp::TRead("B".into()),
            vec![],
            VType::Matrix,
            MatrixCharacteristics::known(1000, 1000, 50),
        );
        let mm = dag.add(
            HopOp::MatMult,
            vec![a, b],
            VType::Matrix,
            MatrixCharacteristics::dims_only(1000, 1000),
        );
        dag.add(
            HopOp::TWrite("out".into()),
            vec![mm],
            VType::Matrix,
            MatrixCharacteristics::dims_only(1000, 1000),
        );
        let mut env = AbsEnv::new();
        env.insert(
            "A".into(),
            SizeBound {
                rows: DimInterval::exact(1000),
                cols: DimInterval::exact(1000),
                nnz: DimInterval::bounded(Some(50)),
            },
        );
        env.insert(
            "B".into(),
            SizeBound {
                rows: DimInterval::exact(1000),
                cols: DimInterval::exact(1000),
                nnz: DimInterval::bounded(Some(50)),
            },
        );
        let bounds = eval_all(&dag, &env, &cfg());
        // nnz(A·B) ≤ nnz(A)·cols(B) = 50k, far below the 1M dense cap.
        assert_eq!(bounds[mm.0].nnz_hi(), Some(50_000));
    }

    #[test]
    fn elementwise_mul_keeps_sparsity_without_broadcast() {
        let exact = |r, c, n| SizeBound {
            rows: DimInterval::exact(r),
            cols: DimInterval::exact(c),
            nnz: DimInterval::bounded(Some(n)),
        };
        let out = binary_mm(BinaryOp::Mul, exact(100, 100, 10), exact(100, 100, 10_000));
        // Matching exact extents ⇒ no broadcast scaling.
        assert_eq!(out.nnz_hi(), Some(10));
        // A column vector against a matrix: the vector's pattern repeats.
        let v = exact(100, 1, 5);
        let out = binary_mm(BinaryOp::Mul, exact(100, 100, 10_000), v);
        assert_eq!(out.nnz_hi(), Some(500));
    }

    #[test]
    fn add_scalar_densifies() {
        let m = SizeBound {
            rows: DimInterval::exact(10),
            cols: DimInterval::exact(10),
            nnz: DimInterval::bounded(Some(3)),
        };
        let out = elementwise_with_scalar(BinaryOp::Add, m, true);
        assert_eq!(out.nnz_hi(), Some(100));
        let out = elementwise_with_scalar(BinaryOp::Mul, m, true);
        assert_eq!(out.nnz_hi(), Some(3));
    }

    #[test]
    fn table_cols_stay_unbounded() {
        let mut dag = HopDag::new();
        let y = dag.add(
            HopOp::TRead("y".into()),
            vec![],
            VType::Matrix,
            MatrixCharacteristics::dense(100, 1),
        );
        let t = dag.add(
            HopOp::TableSeq,
            vec![y],
            VType::Matrix,
            MatrixCharacteristics {
                rows: Some(100),
                cols: Some(4), // an optimistic hint the bound must ignore
                nnz: None,
            },
        );
        dag.add(
            HopOp::TWrite("T".into()),
            vec![t],
            VType::Matrix,
            MatrixCharacteristics::unknown(),
        );
        let mut env = AbsEnv::new();
        env.insert(
            "y".into(),
            SizeBound::from_mc(&MatrixCharacteristics::dense(100, 1)),
        );
        let bounds = eval_all(&dag, &env, &cfg());
        assert_eq!(bounds[t.0].cols.hi, None, "table cols must stay ⊤");
        assert_eq!(bounds[t.0].nnz_hi(), Some(100), "one non-zero per row");
        assert_eq!(bounds[t.0].bytes_hi(), None);
    }
}
