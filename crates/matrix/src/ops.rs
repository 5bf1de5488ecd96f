//! Scalar operation vocabularies shared by dense and sparse kernels and by
//! the compiler (HOP/LOP operator enums reference these).

/// Elementwise binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition `+`.
    Add,
    /// Subtraction `-`.
    Sub,
    /// Multiplication `*` (elementwise, *not* matrix multiply).
    Mul,
    /// Division `/`.
    Div,
    /// Power `^`.
    Pow,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
    /// Comparison `>` producing 0/1 (DML `ppred(x, y, ">")`).
    Greater,
    /// Comparison `>=` producing 0/1.
    GreaterEq,
    /// Comparison `<` producing 0/1.
    Less,
    /// Comparison `<=` producing 0/1.
    LessEq,
    /// Comparison `==` producing 0/1.
    Eq,
    /// Comparison `!=` producing 0/1.
    NotEq,
    /// Logical and over 0/1 encodings.
    And,
    /// Logical or over 0/1 encodings.
    Or,
}

impl BinaryOp {
    /// Apply the operation to two scalars.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
            BinaryOp::Greater => bool_to_f64(a > b),
            BinaryOp::GreaterEq => bool_to_f64(a >= b),
            BinaryOp::Less => bool_to_f64(a < b),
            BinaryOp::LessEq => bool_to_f64(a <= b),
            BinaryOp::Eq => bool_to_f64(a == b),
            BinaryOp::NotEq => bool_to_f64(a != b),
            BinaryOp::And => bool_to_f64(a != 0.0 && b != 0.0),
            BinaryOp::Or => bool_to_f64(a != 0.0 || b != 0.0),
        }
    }

    /// Whether `op(0, 0) == 0`. Sparse-safe operations can skip zero cells
    /// when *both* operands are sparse in the same cell.
    pub fn is_zero_preserving(self) -> bool {
        self.apply(0.0, 0.0) == 0.0
    }

    /// Whether a zero on the right makes the result zero, `op(x, 0) == 0`
    /// — multiplication-like operations where a sparse *right* operand
    /// keeps the output sparse regardless of the left. Only `Mul` and `And`
    /// qualify, and `Mul` only for finite `x`: `±inf · 0` and `NaN · 0` are
    /// NaN. Sparsity bounds built on this assume finite data.
    pub fn is_right_zero_annihilating(self) -> bool {
        matches!(self, BinaryOp::Mul | BinaryOp::And)
    }

    /// Human-readable operator token (used in instruction rendering and
    /// EXPLAIN output).
    pub fn token(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "^",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
            BinaryOp::Greater => ">",
            BinaryOp::GreaterEq => ">=",
            BinaryOp::Less => "<",
            BinaryOp::LessEq => "<=",
            BinaryOp::Eq => "==",
            BinaryOp::NotEq => "!=",
            BinaryOp::And => "&",
            BinaryOp::Or => "|",
        }
    }
}

fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Elementwise unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Absolute value.
    Abs,
    /// Rounding to nearest integer.
    Round,
    /// Logical not over 0/1 encodings.
    Not,
    /// Sign function (-1, 0, 1).
    Sign,
}

impl UnaryOp {
    /// Apply the operation to a scalar.
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Neg => -a,
            UnaryOp::Sqrt => a.sqrt(),
            UnaryOp::Exp => a.exp(),
            UnaryOp::Log => a.ln(),
            UnaryOp::Abs => a.abs(),
            UnaryOp::Round => a.round(),
            UnaryOp::Not => bool_to_f64(a == 0.0),
            UnaryOp::Sign => {
                if a > 0.0 {
                    1.0
                } else if a < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether `op(0) == 0`, allowing sparse kernels to skip zeros.
    pub fn is_zero_preserving(self) -> bool {
        self.apply(0.0) == 0.0
    }

    /// Operator token for plan rendering.
    pub fn token(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Exp => "exp",
            UnaryOp::Log => "log",
            UnaryOp::Abs => "abs",
            UnaryOp::Round => "round",
            UnaryOp::Not => "!",
            UnaryOp::Sign => "sign",
        }
    }
}

/// Aggregation operations with a direction (full, per-row, per-column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// Sum of all cells.
    Sum,
    /// Sum per row (`rowSums`).
    RowSums,
    /// Sum per column (`colSums`).
    ColSums,
    /// Global minimum.
    Min,
    /// Global maximum.
    Max,
    /// Global mean.
    Mean,
    /// Trace (sum of the diagonal).
    Trace,
    /// Per-row maxima (`rowMaxs`).
    RowMaxs,
    /// Per-column maxima (`colMaxs`).
    ColMaxs,
}

impl AggOp {
    /// Whether the aggregate reduces to a 1×1 scalar.
    pub fn is_full_reduction(self) -> bool {
        matches!(
            self,
            AggOp::Sum | AggOp::Min | AggOp::Max | AggOp::Mean | AggOp::Trace
        )
    }

    /// Function name used in DML and plan rendering.
    pub fn token(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::RowSums => "rowSums",
            AggOp::ColSums => "colSums",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Mean => "mean",
            AggOp::Trace => "trace",
            AggOp::RowMaxs => "rowMaxs",
            AggOp::ColMaxs => "colMaxs",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_apply_basics() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinaryOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinaryOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Max.apply(2.0, 3.0), 3.0);
    }

    #[test]
    fn binary_comparisons_produce_indicators() {
        assert_eq!(BinaryOp::Greater.apply(3.0, 2.0), 1.0);
        assert_eq!(BinaryOp::Greater.apply(2.0, 3.0), 0.0);
        assert_eq!(BinaryOp::Eq.apply(2.0, 2.0), 1.0);
        assert_eq!(BinaryOp::NotEq.apply(2.0, 2.0), 0.0);
        assert_eq!(BinaryOp::LessEq.apply(2.0, 2.0), 1.0);
    }

    #[test]
    fn zero_preservation_classification() {
        assert!(BinaryOp::Add.is_zero_preserving());
        assert!(BinaryOp::Mul.is_zero_preserving());
        assert!(BinaryOp::Greater.is_zero_preserving());
        // 0 == 0 -> 1, not zero preserving.
        assert!(!BinaryOp::Eq.is_zero_preserving());
        assert!(!BinaryOp::GreaterEq.is_zero_preserving());
        // 0^0 = 1 in IEEE powf.
        assert!(!BinaryOp::Pow.is_zero_preserving());
    }

    #[test]
    fn right_annihilating() {
        assert!(BinaryOp::Mul.is_right_zero_annihilating());
        assert!(!BinaryOp::Add.is_right_zero_annihilating());
    }

    #[test]
    fn unary_apply_basics() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert_eq!(UnaryOp::Abs.apply(-4.0), 4.0);
        assert_eq!(UnaryOp::Sign.apply(-4.0), -1.0);
        assert_eq!(UnaryOp::Sign.apply(0.0), 0.0);
        assert_eq!(UnaryOp::Not.apply(0.0), 1.0);
        assert_eq!(UnaryOp::Not.apply(5.0), 0.0);
    }

    #[test]
    fn unary_zero_preserving() {
        assert!(UnaryOp::Neg.is_zero_preserving());
        assert!(UnaryOp::Sqrt.is_zero_preserving());
        assert!(UnaryOp::Sign.is_zero_preserving());
        assert!(!UnaryOp::Exp.is_zero_preserving());
        assert!(!UnaryOp::Not.is_zero_preserving());
    }

    #[test]
    fn agg_classification() {
        assert!(AggOp::Sum.is_full_reduction());
        assert!(AggOp::Trace.is_full_reduction());
        assert!(!AggOp::RowSums.is_full_reduction());
        assert!(!AggOp::ColMaxs.is_full_reduction());
    }

    #[test]
    fn tokens_are_stable() {
        assert_eq!(BinaryOp::Add.token(), "+");
        assert_eq!(UnaryOp::Sqrt.token(), "sqrt");
        assert_eq!(AggOp::RowSums.token(), "rowSums");
    }
}
