//! # reml-sizebound — sound interval bounds on matrix sizes & sparsity
//!
//! An abstract-interpretation pass over the compiled program tree that
//! computes, for every live matrix and every HOP, a *sound* interval on
//! `(rows, cols, nnz)` — and from it a worst-case byte bound that the
//! actual executor footprint can never exceed. Where the compiler's
//! point estimates (`memest`) answer "what will this op probably need",
//! the interval bounds answer "what is the most it can possibly need",
//! including across sparsity-drifting loops (the GLM case) where the
//! point estimates are provably unsound without dynamic recompilation.
//!
//! The abstract domain is a product of three intervals `[lo, hi]` with
//! `hi = None` meaning unbounded ([`DimInterval`], [`SizeBound`]).
//! Transfer functions ([`transfer()`]) are monotone over the interval
//! lattice for every HOP operator; `if`/`else` merges take the hull
//! join; `while`/`for` loop heads apply widening (`lo → 0`,
//! `hi → None` on growth), which reaches a fixpoint in a bounded number
//! of steps because each interval component can widen at most once.
//!
//! Consumers:
//!
//! * [`annotate()`] stamps every CP instruction with the summed byte bound
//!   over its distinct touched variables
//!   ([`CpInstruction::bound_bytes`](reml_runtime::instructions::CpInstruction)),
//!   which the executor copies into its memory observations — the
//!   `sim::audit` differential harness then asserts
//!   `actual ≤ sound_bound` for every instruction.
//! * [`lint()`] runs the PL030 rule family (catalogued in `reml-planlint`):
//!   PL030 (bound below point estimate — an internal inconsistency),
//!   PL031 (CP placement justified only by the point estimate), PL032
//!   (forced-CP operator provably over budget).
//! * [`sound_min_cp_budget_mb`] derives the statically-proven minimum CP
//!   budget any feasible plan needs (the forced-CP operators' worst
//!   case); the optimizer's grid walk prunes CP points below it.

#![forbid(unsafe_code)]

use reml_compiler::pipeline::{AnalyzedProgram, CompiledProgram};
use reml_compiler::{memest, CompileConfig, HopId, HopOp};

pub mod analysis;
pub mod annotate;
pub mod interval;
pub mod lint;
pub mod transfer;

pub use analysis::{analyze_bounds, AbsEnv, BlockBounds, ProgramBounds};
pub use annotate::annotate;
pub use interval::{DimInterval, SizeBound};
pub use lint::lint;
pub use transfer::transfer;

/// Dual (worst-case) operation memory estimate of one hop, MB: the same
/// charging skeleton as [`memest::estimate_hop`], evaluated over the
/// interval upper bounds instead of the compiler's point
/// characteristics. `INFINITY` when the bound is unbounded.
pub fn dual_estimate_mb(bounds: &BlockBounds, id: HopId) -> f64 {
    let value_mb = |h: HopId| {
        bounds
            .hops
            .get(h.0)
            .map(SizeBound::mb_hi)
            .unwrap_or(f64::INFINITY)
    };
    let dense_mb = |h: HopId| {
        bounds
            .hops
            .get(h.0)
            .map(SizeBound::dense_mb_hi)
            .unwrap_or(f64::INFINITY)
    };
    memest::estimate_hop_with(&bounds.dag, id, &value_mb, &dense_mb)
}

/// The statically-proven minimum CP budget (MB) any feasible plan needs:
/// the largest finite dual estimate over the operators the lowerer can
/// *only* place in CP (dense solve and scalar→matrix casts have no MR
/// implementation). A CP grid point whose budget is below this value
/// cannot execute the program — the optimizer prunes it before costing.
/// Returns 0 when no forced-CP operator has a finite bound.
pub fn sound_min_cp_budget_mb(bounds: &ProgramBounds) -> f64 {
    let mut min_needed = 0.0f64;
    for bb in bounds.blocks.values() {
        for id in bb.dag.live_hops(&[]) {
            if matches!(bb.dag.hop(id).op, HopOp::Solve | HopOp::CastMatrix) {
                let est = dual_estimate_mb(bb, id);
                if est.is_finite() && est > min_needed {
                    min_needed = est;
                }
            }
        }
    }
    min_needed
}

/// Convenience: analyze and return both the bounds and the sound minimum
/// CP budget in one call (the optimizer's entry point).
pub fn analyze_with_min_budget(
    analyzed: &AnalyzedProgram,
    compiled: &CompiledProgram,
    config: &CompileConfig,
) -> Result<(ProgramBounds, f64), reml_compiler::CompileError> {
    let _s = reml_trace::span!("sizebound.analyze");
    let bounds = analyze_bounds(analyzed, compiled, config)?;
    let min = sound_min_cp_budget_mb(&bounds);
    Ok((bounds, min))
}
