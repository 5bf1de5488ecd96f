//! The ledger of simulated time.
//!
//! [`CausalTrace::charge`] is the only place the simulator's clock
//! advances. Each charge adds its seconds to one [`Comp`] total and
//! appends one [`CausalNode`] that knows *what* consumed the time (a CP
//! instruction, an MR job, a fault, a migration), *which* taxonomy
//! bucket it belongs to, and *how much serialized work* it stands for
//! (an MR node's duration is its elapsed time; its `serial_s` is
//! duration × task parallelism). The clock is serial, so the nodes form
//! a chain without explicit edges: each starts at the clock reading its
//! predecessor's charge left. Every view of the run's time — `AppOutcome::elapsed_s`, the
//! per-component split, `AppOutcome::fault_rework_s` and the
//! `reml_insight` attribution and timelines — is read from this one
//! ledger; the closed taxonomy below is the contract between the crates.

/// The closed attribution taxonomy: every simulated second lands in
/// exactly one bucket. `IdleResidual` is never emitted by the simulator
/// itself — it is the (near-zero) remainder the attribution layer
/// assigns when bucket sums fall short of the makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Bucket {
    /// CPU work (CP operators, MR task compute, fault rework regen).
    Compute,
    /// HDFS / broadcast / migration-export IO.
    Io,
    /// MR shuffle transfer.
    Shuffle,
    /// Container allocation, restart backoff, requeue delay.
    SchedulingDelay,
    /// MR job startup / task queue latency (per-job overhead + jitter).
    QueueWait,
    /// Straggler-stretched job tails.
    StragglerWait,
    /// Re-executed work after preemptions, node losses, and AM kills.
    RetryRework,
    /// Dynamic recompilation and runtime re-optimization overhead.
    Recompilation,
    /// Buffer-pool eviction writes and restore reads.
    Eviction,
    /// Unattributed remainder (assigned by the attribution layer only).
    IdleResidual,
}

impl Bucket {
    /// All buckets, in canonical report order.
    pub const ALL: [Bucket; 10] = [
        Bucket::Compute,
        Bucket::Io,
        Bucket::Shuffle,
        Bucket::SchedulingDelay,
        Bucket::QueueWait,
        Bucket::StragglerWait,
        Bucket::RetryRework,
        Bucket::Recompilation,
        Bucket::Eviction,
        Bucket::IdleResidual,
    ];

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::Io => "io",
            Bucket::Shuffle => "shuffle",
            Bucket::SchedulingDelay => "scheduling_delay",
            Bucket::QueueWait => "queue_wait",
            Bucket::StragglerWait => "straggler_wait",
            Bucket::RetryRework => "retry_rework",
            Bucket::Recompilation => "recompilation",
            Bucket::Eviction => "eviction",
            Bucket::IdleResidual => "idle_residual",
        }
    }
}

/// What kind of actor a causal node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CausalKind {
    /// Container lifecycle (AM allocation).
    Container,
    /// CP (single-node control-program) instruction work.
    Cp,
    /// Distributed MR job work.
    MrJob,
    /// Dynamic recompilation / runtime re-optimization.
    Recompilation,
    /// Injected-fault consequence (rework, waits, restarts).
    Fault,
    /// AM migration.
    Migration,
}

/// Cost component a charge lands in: the IO / compute / latency /
/// shuffle split of the analytic cost model, plus the buffer-pool
/// eviction time the simulator adds on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comp {
    /// HDFS, broadcast and migration-export IO.
    Io,
    /// CPU work.
    Compute,
    /// Job, task and container latency.
    Latency,
    /// MR shuffle transfer.
    Shuffle,
    /// Buffer-pool eviction writes and restore reads.
    Eviction,
}

/// One ledger entry: a contiguous span of simulated time.
#[derive(Debug, Clone)]
pub struct CausalNode {
    /// Actor kind.
    pub kind: CausalKind,
    /// Short label (opcode tag, fault tag, ...).
    pub label: String,
    /// Statement block being executed, when inside one.
    pub block: Option<usize>,
    /// Taxonomy bucket the node's duration belongs to.
    pub bucket: Bucket,
    /// Virtual-clock start, seconds.
    pub start_s: f64,
    /// Virtual-clock end, seconds (`end_s - start_s` is charged time).
    pub end_s: f64,
    /// Serialized work the node stands for: equals the duration for
    /// serial work, duration × `width` for parallel task work.
    pub serial_s: f64,
    /// Parallel width (concurrently running tasks), ≥ 1.
    pub width: u64,
}

impl CausalNode {
    /// Elapsed (charged) duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The ledger of one simulated application. The simulator's clock is
/// serial, so nodes form a chain in emission order, each starting at the
/// clock reading its predecessor left, and their durations partition the
/// makespan (up to rounding).
#[derive(Debug, Clone, Default)]
pub struct CausalTrace {
    /// Nodes in virtual-clock order.
    pub nodes: Vec<CausalNode>,
    /// Charged seconds per [`Comp`], in declaration order.
    totals: [f64; 5],
    /// Statement block that new nodes are attributed to.
    block: Option<usize>,
}

impl CausalTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute subsequent nodes to statement block `id`.
    pub fn enter_block(&mut self, id: usize) {
        self.block = Some(id);
    }

    /// Simulated time so far: the component totals summed in [`Comp`]
    /// order (the order fixes the clock's bits).
    pub fn now(&self) -> f64 {
        let [io, compute, latency, shuffle, eviction] = self.totals;
        io + compute + latency + shuffle + eviction
    }

    /// Seconds charged to one component.
    pub fn component_s(&self, comp: Comp) -> f64 {
        self.totals[comp as usize]
    }

    /// Advance the clock by `secs` of `comp` and append the matching
    /// node. Work running at parallel `width` lasts `secs` of elapsed
    /// time and stands for `secs × width` of serialized work. Zero and
    /// negative charges are dropped (no node).
    pub fn charge(
        &mut self,
        comp: Comp,
        bucket: Bucket,
        kind: CausalKind,
        label: &str,
        secs: f64,
        width: u64,
    ) {
        if secs <= 0.0 {
            return;
        }
        let start_s = self.now();
        self.totals[comp as usize] += secs;
        let width = width.max(1);
        self.nodes.push(CausalNode {
            kind,
            label: label.to_string(),
            block: self.block,
            bucket,
            start_s,
            end_s: start_s + secs,
            serial_s: secs * width as f64,
            width,
        });
    }

    /// Append a zero-duration recompilation marker (the decision
    /// overhead, when any, is charged separately).
    pub fn mark_recompile(&mut self, label: &str) {
        let now = self.now();
        self.nodes.push(CausalNode {
            kind: CausalKind::Recompilation,
            label: label.to_string(),
            block: self.block,
            bucket: Bucket::Recompilation,
            start_s: now,
            end_s: now,
            serial_s: 0.0,
            width: 1,
        });
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total serialized work, seconds (≥ the makespan).
    pub fn serial_sum_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.serial_s).sum()
    }

    /// Sum of node durations, seconds (== the charged makespan).
    pub fn charged_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.duration_s()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_is_closed_and_named() {
        let names: std::collections::HashSet<&str> = Bucket::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), Bucket::ALL.len());
        // Attribution indexes its per-bucket sums by `bucket as usize`.
        assert!(Bucket::ALL
            .iter()
            .enumerate()
            .all(|(i, b)| *b as usize == i));
    }

    #[test]
    fn charge_chains_nodes_and_keeps_component_totals() {
        let mut t = CausalTrace::new();
        t.charge(Comp::Compute, Bucket::Compute, CausalKind::Cp, "x", 1.0, 1);
        // Zero and negative charges add no node and move no clock.
        t.charge(Comp::Io, Bucket::Io, CausalKind::Cp, "zero", 0.0, 1);
        t.charge(Comp::Io, Bucket::Io, CausalKind::Cp, "neg", -2.0, 1);
        t.enter_block(1);
        t.charge(Comp::Io, Bucket::Io, CausalKind::MrJob, "y", 2.0, 4);
        t.mark_recompile("recompile");
        t.charge(
            Comp::Eviction,
            Bucket::Eviction,
            CausalKind::Cp,
            "z",
            0.5,
            0,
        );
        assert_eq!(t.len(), 4);
        let spans: Vec<(f64, f64)> = t.nodes.iter().map(|n| (n.start_s, n.end_s)).collect();
        assert_eq!(spans, [(0.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 3.5)]);
        assert_eq!(t.nodes[0].block, None);
        assert_eq!(t.nodes[1].block, Some(1));
        assert_eq!(t.nodes[3].width, 1, "width is at least one");
        assert_eq!(t.component_s(Comp::Io), 2.0);
        assert_eq!(t.component_s(Comp::Latency), 0.0);
        let sum: f64 = [
            Comp::Io,
            Comp::Compute,
            Comp::Latency,
            Comp::Shuffle,
            Comp::Eviction,
        ]
        .map(|c| t.component_s(c))
        .iter()
        .sum();
        assert_eq!(t.now(), sum);
        assert_eq!(t.now(), 3.5);
        assert_eq!(t.charged_s(), 3.5);
        assert_eq!(t.serial_sum_s(), 9.5);
    }
}
