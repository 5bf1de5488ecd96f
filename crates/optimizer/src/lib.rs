//! # reml-optimizer — the resource optimizer (§3) and runtime adaptation (§4)
//!
//! Solves the ML Program Resource Allocation Problem (Definition 1): find
//! the resource configuration `R_P = (r_c, r¹, …, rⁿ)` minimizing the
//! estimated cost of the runtime plan the compiler generates, within the
//! cluster's min/max allocation constraints — and, among cost ties, the
//! *minimal* configuration (no over-provisioning).
//!
//! The optimizer is an **online what-if analysis**: for each enumerated
//! configuration it recompiles (parts of) the program and costs the
//! generated runtime plan, so every memory-sensitive compilation step is
//! automatically reflected (§2.4's robustness argument).
//!
//! * [`grid`] — grid-point generators: equi-spaced, exponentially spaced,
//!   memory-based (compiler estimates), and the hybrid composite (§3.3.2);
//! * [`optimizer`] — Algorithm 1 with program-aware pruning (§3.4) and
//!   memoization, plus the optimization-time budget; `workers` threads
//!   walk the CP grid's semi-independent `r_c` problems (§3.2,
//!   Appendix C) through one per-point routine;
//! * [`adapt`] — runtime resource adaptation: re-optimization scope
//!   expansion, the ΔC vs C_M migration decision, and migration cost
//!   estimation (§4);
//! * [`offers`] — the offer-based (Mesos) instantiation of the problem
//!   formulation (§2.3): evaluate concrete resource offers with the same
//!   what-if machinery.
//!
//! All three optimizer front ends (the grid walk, offers, adaptation)
//! enumerate through one `reml_compiler::session::WhatIfSession` per
//! optimization round: what-if compilations are cached keyed by
//! *decision fingerprints* (the interval of the memory budget between
//! two plan-changing breakpoints), so grid points whose budgets cannot
//! change any compilation decision are served without recompiling.
//! [`OptimizerStats`] reports the cache behaviour alongside the paper's
//! overhead counters: `plan_cache_hits` / `plan_cache_misses` count
//! what-if requests served from / missing the session caches, and
//! `compilations_avoided` counts the generic-block compilations those
//! hits saved relative to a cache-bypass run (`OptimizerConfig::
//! plan_cache = false` forces that bypass for differential testing).

#![forbid(unsafe_code)]

pub mod adapt;
mod cache;
pub mod grid;
pub mod offers;
pub mod optimizer;
pub mod provenance;
pub mod resources;

pub use adapt::{decide_adaptation, decide_recovery, AdaptationDecision, MigrationCost};
pub use grid::GridStrategy;
pub use offers::{choose_offer, OfferDecision};
pub use optimizer::{OptimizationResult, OptimizerConfig, OptimizerStats, ResourceOptimizer};
pub use provenance::{DecisionLedger, GridPointRecord, PointVerdict};
pub use resources::ResourceConfig;
