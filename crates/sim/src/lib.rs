//! # reml-sim — the execution substrate (substituted testbed)
//!
//! The paper evaluates on a physical 1+6-node YARN cluster; this crate is
//! the substitution (see DESIGN.md): a simulator that *executes* compiled
//! runtime programs against the modeled cluster and reports **measured**
//! time. It deliberately models effects the analytic cost model only
//! partially captures, reproducing the paper's estimate/measurement gap:
//!
//! * **buffer-pool evictions** — the runtime's LRU `BufferPool`, run over
//!   byte sizes and sized to the CP budget, charges local-disk IO for
//!   evictions/restores (the paper's named source of Opt suboptimality on
//!   sparse data);
//! * **per-job overhead jitter** — deterministic, seeded;
//! * **dynamic recompilation** — blocks are recompiled with actual sizes
//!   before execution (the table() unknowns resolve to the configured
//!   "facts"), and, when enabled, §4 runtime adaptation decides on AM
//!   migration with its cost charged;
//! * **multi-tenant throughput** — a discrete-event admission simulator
//!   over the YARN container accounting (Figure 12);
//! * **Spark executor model** — stage-latency/caching-based execution for
//!   the Appendix D comparison.

#![forbid(unsafe_code)]

pub mod app;
pub mod audit;
pub mod causal;
pub mod fault;
pub mod spark;
pub mod throughput;

pub use app::{AdaptationEvent, AppOutcome, SimConfig, SimFacts, Simulator};
pub use audit::{
    collect_observations, memory_soundness_audit, MemoryAuditReport, OpcodeAudit,
    ScriptObservations,
};
pub use causal::{Bucket, CausalKind, CausalNode, CausalTrace, Comp};
pub use fault::{
    trace_to_json, FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultTrigger, RetryPolicy,
    TraceEvent, TracedEvent,
};
pub use spark::{recommend_executor_memory, simulate_spark_iterative, SparkPlan};
pub use throughput::{simulate_throughput, simulate_throughput_with_faults, ThroughputResult};
