//! # reml-lang — DML-subset front end
//!
//! SystemML programs are written in DML, an R-like scripting language with
//! linear algebra, statistical builtins and control flow (§2.1, Appendix A
//! of the paper). This crate implements the front half of the compilation
//! chain:
//!
//! 1. [`lexer`] — tokenization;
//! 2. [`parser`] — recursive-descent / Pratt parsing into an [`ast`];
//! 3. [`mod@validate`] — semantic validation (definite assignment, scalar vs
//!    matrix typing of builtins and operators);
//! 4. [`blocks`] — construction of the *statement-block hierarchy* the rest
//!    of the stack operates on: consecutive straight-line statements form
//!    one generic block, and every control-flow construct (`if`, `while`,
//!    `for`) forms its own block with nested children, exactly mirroring
//!    SystemML's program representation. Live-variable analysis on blocks
//!    feeds inter-block size propagation and runtime migration.
//!
//! The supported surface covers everything the paper's five ML programs
//! need: matrix literals (`matrix`, `seq`, `table`, `rand`), linear algebra
//! (`%*%`, `t`, `solve`), elementwise operators, aggregations, `read`/
//! `write`/`print`, `$`-parameters, `if`/`else`, `while`, `for`, and
//! user-defined functions.

#![forbid(unsafe_code)]

pub mod ast;
pub mod blocks;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod validate;

pub use ast::{Expr, Program, Statement};
pub use blocks::{BlockId, StatementBlock, StatementBlockKind};
pub use error::LangError;
pub use parser::parse;
pub use validate::validate;

/// Parse, validate, and build the statement-block hierarchy in one call.
pub fn frontend(source: &str) -> Result<(Program, Vec<StatementBlock>), LangError> {
    let program = parse(source)?;
    validate(&program)?;
    let blocks = blocks::build_blocks(&program);
    Ok((program, blocks))
}
