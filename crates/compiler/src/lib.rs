//! # reml-compiler — the declarative-ML compiler
//!
//! Implements SystemML's compilation chain (§2.1, Appendix B) over the
//! front end of `reml-lang`:
//!
//! 1. **HOP construction** ([`hop`], [`build`]): each generic statement
//!    block becomes a DAG of high-level operators with common-subexpression
//!    elimination, constant folding (including `$`-parameter substitution
//!    and branch removal), and algebraic simplification rewrites.
//! 2. **Size propagation** ([`build`]): matrix dimensions and sparsity flow
//!    through the program — across straight-line code, merged over `if`
//!    branches, and stabilized over loop bodies. Data-dependent operators
//!    (`table`) produce *unknowns* that later drive dynamic recompilation.
//! 3. **Memory estimation** ([`memest`]): every operator gets a worst-case
//!    operation memory estimate from its input/output characteristics.
//! 4. **Operator selection & lowering** ([`lower`]): the CP/MR execution
//!    heuristic (CP iff the estimate fits the CP budget), physical operator
//!    choice (TSMM, MapMM, MapMMChain, CPMM, Map\*, ...), and the
//!    transpose-rewrite.
//! 5. **Piggybacking** ([`piggyback`]): MR operators are packed into a
//!    minimal number of MR jobs under memory and phase constraints.
//! 6. **Runtime program generation** ([`pipeline`]): the result is a
//!    `reml_runtime::RuntimeProgram`; blocks whose sizes were unknown are
//!    marked for dynamic recompilation.
//!
//! The whole chain is *memory-budget parameterized* — the resource
//! optimizer re-invokes it with different CP/MR heap assignments and costs
//! the generated plans (online what-if analysis, §2.4).

#![forbid(unsafe_code)]

pub mod build;
pub mod config;
pub mod hop;
pub mod inline;
pub mod lower;
pub mod memest;
pub mod piggyback;
pub mod pipeline;
pub mod rewrites;
pub mod session;

pub use config::{CompileConfig, CompileError, CompileStats, MrHeapAssignment};
pub use hop::{Hop, HopDag, HopId, HopOp, VType};
pub use pipeline::{
    analyze_program, compile, compile_source, AnalyzedProgram, BlockSummary, CompiledProgram,
};
pub use session::{CompiledBlock, SessionStats, WhatIfSession};
