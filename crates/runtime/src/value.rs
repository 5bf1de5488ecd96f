//! Scalar values and instruction operands.

use std::fmt;
use std::sync::Arc;

/// A scalar runtime value (DML scalars are doubles, booleans, or strings).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarValue {
    /// Numeric scalar.
    Num(f64),
    /// Boolean scalar.
    Bool(bool),
    /// String scalar.
    Str(String),
}

impl ScalarValue {
    /// Numeric view (booleans coerce to 0/1).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ScalarValue::Num(v) => Some(*v),
            ScalarValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            ScalarValue::Str(_) => None,
        }
    }

    /// Boolean view (numbers: non-zero is true).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ScalarValue::Bool(b) => Some(*b),
            ScalarValue::Num(v) => Some(*v != 0.0),
            ScalarValue::Str(_) => None,
        }
    }

    /// String rendering (used by `print` and string concatenation).
    pub fn render(&self) -> String {
        match self {
            ScalarValue::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v}")
                }
            }
            ScalarValue::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            ScalarValue::Str(s) => s.clone(),
        }
    }
}

impl fmt::Display for ScalarValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// An instruction operand: a variable reference or an inline literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Reference to a live variable by name, shared with every other
    /// holder of the name (the compiler's environment, instruction
    /// outputs, the cost model's state map).
    Var(Arc<str>),
    /// Inline scalar literal.
    Lit(ScalarValue),
}

impl Operand {
    /// Convenience constructor for a variable operand.
    pub fn var(name: impl Into<Arc<str>>) -> Self {
        Operand::Var(name.into())
    }

    /// Convenience constructor for a numeric literal operand.
    pub fn num(v: f64) -> Self {
        Operand::Lit(ScalarValue::Num(v))
    }

    /// The variable name, if this is a variable operand.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Operand::Var(name) => Some(name),
            Operand::Lit(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercions() {
        assert_eq!(ScalarValue::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(ScalarValue::Bool(true).as_f64(), Some(1.0));
        assert_eq!(ScalarValue::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn bool_coercions() {
        assert_eq!(ScalarValue::Num(0.0).as_bool(), Some(false));
        assert_eq!(ScalarValue::Num(-3.0).as_bool(), Some(true));
        assert_eq!(ScalarValue::Bool(false).as_bool(), Some(false));
        assert_eq!(ScalarValue::Str("t".into()).as_bool(), None);
    }

    #[test]
    fn rendering_matches_dml_print() {
        assert_eq!(ScalarValue::Num(3.0).render(), "3");
        assert_eq!(ScalarValue::Num(3.5).render(), "3.5");
        assert_eq!(ScalarValue::Bool(true).render(), "TRUE");
        assert_eq!(ScalarValue::Str("hi".into()).render(), "hi");
    }

    #[test]
    fn operand_helpers() {
        assert_eq!(Operand::var("x").as_var(), Some("x"));
        assert_eq!(Operand::num(1.0).as_var(), None);
    }
}
