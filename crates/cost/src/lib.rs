//! # reml-cost — white-box analytic cost model (§3.1)
//!
//! Estimates the execution time of a generated runtime plan — the
//! `C(P, R_P, cc)` of the paper's problem formulation. The model is
//! *white-box over generated runtime plans*: it scans the plan in
//! execution order, tracks sizes and in-memory/on-HDFS states of live
//! variables, and sums
//!
//! * **CP instructions**: IO time (reads of on-HDFS operands at
//!   format-specific bandwidths) + compute time (operation-specific FLOP
//!   counts at a default peak rate);
//! * **MR-job instructions**: job latency, in-memory variable export, map
//!   read/compute/write, shuffle, reduce read/compute/write — each phase
//!   divided by the degree of parallelism inferred from the CP/MR
//!   resources;
//! * **control flow**: loop bodies scaled by the iteration bound (a
//!   default constant when unknown), conditionals as a weighted sum.
//!
//! No sample runs, no history: alternative plans are costed analytically,
//! which is what enables the optimizer's online what-if enumeration.
//!
//! The [`calibrate`] module adds an optional *measured* correction layer:
//! a versioned [`CalibrationProfile`] of per-opcode coefficients fitted
//! from execution traces (by the `reml-calibrate` crate), consulted by
//! [`CostModel`] when attached and degrading gracefully to the analytic
//! estimates for opcodes never observed.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod model;
pub mod state;

pub use calibrate::{
    CalibratedCostModel, CalibrationProfile, OpcodeCalibration, TimeModel, PROFILE_VERSION,
};
pub use model::{CostBreakdown, CostModel, DEFAULT_UNKNOWN_ITERATIONS};
pub use state::{VarState, VarStates};
