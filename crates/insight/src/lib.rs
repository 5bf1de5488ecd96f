//! # reml-insight — where did the time go, and why this configuration?
//!
//! The observability layer over the simulator's ledger of simulated
//! time ([`reml_sim::CausalTrace`]) and the optimizer's decision ledger
//! ([`reml_optimizer::DecisionLedger`]):
//!
//! * [`attribution`] — attribute the makespan of a simulated
//!   application to the closed taxonomy ([`reml_sim::Bucket`]): compute,
//!   IO, shuffle, scheduling delay, queue wait, straggler wait,
//!   retry/rework, recompilation, eviction, and the (near-zero) idle
//!   residual. The invariant
//!   `critical_path ≤ makespan ≤ serial_sum` is checked on every
//!   attribution.
//! * [`timeline`] — per-node / per-container utilization timelines
//!   (busy / idle / preempted / requeued lanes) synthesized from the
//!   causal trace, exportable as Chrome `trace_event` Gantt charts, plus
//!   a cluster-utilization scalar.
//! * [`mod@explain`] — render the optimizer's decision provenance: the
//!   chosen plan, the top-k runner-ups with cost deltas, and the
//!   marginal-resource analysis ("what would +1 GB CP heap or +2 nodes
//!   buy"), identifying the binding resource.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod explain;
pub mod timeline;

pub use attribution::{attribute_app, attribute_trace, AppAttribution};
pub use explain::{explain, explain_with_what_if, BindingResource, Explanation, Marginal};
pub use timeline::{build_timeline, timeline_records, LaneState, Segment, Timeline};
