//! Per-node / per-container utilization timelines (Gantt lanes).
//!
//! Projects the causal trace onto cluster lanes: lane 0 is the CP
//! application-master container, lanes 1..=N the worker nodes. Every
//! causal node becomes a segment on one or more lanes with a utilization
//! state — busy, preempted (re-executing lost work), or requeued
//! (waiting for containers/slots); time not covered by any segment is
//! the lane's idle time. The segments synthesize into
//! [`reml_trace::TraceRecord`]s so `reml_trace::to_chrome_trace` renders
//! them as a Gantt chart in chrome://tracing / Perfetto, one lane per
//! `tid`.

use std::borrow::Cow;

use reml_cluster::ClusterConfig;
use reml_sim::{CausalKind, CausalTrace};
use reml_trace::{FieldValue, RecordData, TraceRecord};
use serde::Value;

/// Utilization state of a lane segment. Idle is the absence of a
/// segment, so it needs no variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneState {
    /// Productive work (or a straggler-stretched tail still running).
    Busy,
    /// Re-executing work lost to a preemption, node loss, or AM kill.
    Preempted,
    /// Waiting for container allocation / slot grants / retry backoff.
    Requeued,
}

impl LaneState {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            LaneState::Busy => "busy",
            LaneState::Preempted => "preempted",
            LaneState::Requeued => "requeued",
        }
    }
}

/// One contiguous span of one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Lane index (0 = AM container, 1..=N = worker nodes).
    pub lane: u32,
    /// Utilization state.
    pub state: LaneState,
    /// Label of the causal node that produced the segment.
    pub label: String,
    /// Virtual-clock start, seconds.
    pub start_s: f64,
    /// Virtual-clock end, seconds.
    pub end_s: f64,
}

/// The utilization timeline of one simulated application.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Lane display names: `cp.am`, `node0`, `node1`, ...
    pub lane_names: Vec<String>,
    /// Segments in virtual-clock order.
    pub segments: Vec<Segment>,
    /// Application makespan, seconds.
    pub makespan_s: f64,
    /// Worker node-seconds in a busy/preempted segment.
    pub busy_node_seconds: f64,
    /// `busy_node_seconds / (num_nodes × makespan)` — the cluster
    /// utilization scalar (0 for a pure-CP run).
    pub cluster_utilization: f64,
    /// Fraction of the makespan the AM lane spends busy.
    pub am_utilization: f64,
}

impl serde::Serialize for Timeline {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("makespan_s".to_string(), Value::Num(self.makespan_s)),
            (
                "busy_node_seconds".to_string(),
                Value::Num(self.busy_node_seconds),
            ),
            (
                "cluster_utilization".to_string(),
                Value::Num(self.cluster_utilization),
            ),
            (
                "am_utilization".to_string(),
                Value::Num(self.am_utilization),
            ),
            (
                "lanes".to_string(),
                Value::Array(
                    self.lane_names
                        .iter()
                        .map(|n| Value::Str(n.clone()))
                        .collect(),
                ),
            ),
            (
                "segments".to_string(),
                Value::Num(self.segments.len() as f64),
            ),
        ])
    }
}

/// How many worker nodes a `width`-task job keeps busy: tasks pack onto
/// nodes core-by-core.
fn nodes_busy(width: u64, cluster: &ClusterConfig) -> u32 {
    let per_node = cluster.cores_per_node.max(1) as u64;
    (width.div_ceil(per_node) as u32).clamp(1, cluster.num_nodes.max(1))
}

/// Build the utilization timeline from a causal trace.
pub fn build_timeline(trace: &CausalTrace, cluster: &ClusterConfig, makespan_s: f64) -> Timeline {
    let num_nodes = cluster.num_nodes.max(1);
    let mut lane_names = Vec::with_capacity(1 + num_nodes as usize);
    lane_names.push("cp.am".to_string());
    for n in 0..num_nodes {
        lane_names.push(format!("node{n}"));
    }

    let mut segments: Vec<Segment> = Vec::new();
    let mut busy_node_seconds = 0.0f64;
    let mut am_busy_s = 0.0f64;
    for node in &trace.nodes {
        let dur = node.duration_s();
        if dur <= 0.0 {
            continue; // zero-duration markers draw nothing
        }
        let state = match node.bucket {
            reml_sim::Bucket::RetryRework => LaneState::Preempted,
            reml_sim::Bucket::SchedulingDelay | reml_sim::Bucket::QueueWait => LaneState::Requeued,
            _ => LaneState::Busy,
        };
        // MR work and MR-scoped fault consequences live on node lanes;
        // everything else is the AM container's time.
        let on_nodes = node.kind == CausalKind::MrJob
            || (node.kind == CausalKind::Fault && node.label.starts_with("fault."));
        if on_nodes {
            let lanes = nodes_busy(node.width, cluster);
            for lane in 1..=lanes {
                segments.push(Segment {
                    lane,
                    state,
                    label: node.label.clone(),
                    start_s: node.start_s,
                    end_s: node.end_s,
                });
            }
            if state != LaneState::Requeued {
                busy_node_seconds += dur * lanes as f64;
            }
        } else {
            segments.push(Segment {
                lane: 0,
                state,
                label: node.label.clone(),
                start_s: node.start_s,
                end_s: node.end_s,
            });
            if state != LaneState::Requeued {
                am_busy_s += dur;
            }
        }
    }

    let denom = num_nodes as f64 * makespan_s;
    Timeline {
        lane_names,
        segments,
        makespan_s,
        busy_node_seconds,
        cluster_utilization: if denom > 0.0 {
            (busy_node_seconds / denom).min(1.0)
        } else {
            0.0
        },
        am_utilization: if makespan_s > 0.0 {
            (am_busy_s / makespan_s).min(1.0)
        } else {
            0.0
        },
    }
}

/// Synthesize flight-recorder records from the timeline — one `B`/`E`
/// span pair per segment with the lane index as the record's thread, so
/// `reml_trace::to_chrome_trace` renders one Gantt lane per tid.
pub fn timeline_records(timeline: &Timeline) -> Vec<TraceRecord> {
    let mut records = Vec::with_capacity(timeline.segments.len() * 2);
    let mut seq = 0u64;
    for (i, seg) in timeline.segments.iter().enumerate() {
        let id = i as u64 + 1;
        let name: Cow<'static, str> = Cow::Owned(seg.label.clone());
        let lane_name = timeline
            .lane_names
            .get(seg.lane as usize)
            .cloned()
            .unwrap_or_default();
        records.push(TraceRecord {
            seq,
            thread: seg.lane,
            ts_us: (seg.start_s * 1e6).round() as u64,
            data: RecordData::SpanBegin {
                id,
                parent: 0,
                name: name.clone(),
                fields: vec![
                    (
                        Cow::Borrowed("state"),
                        FieldValue::Str(seg.state.name().to_string()),
                    ),
                    (Cow::Borrowed("lane"), FieldValue::Str(lane_name)),
                ],
            },
        });
        seq += 1;
        records.push(TraceRecord {
            seq,
            thread: seg.lane,
            ts_us: (seg.end_s * 1e6).round() as u64,
            data: RecordData::SpanEnd { id, name },
        });
        seq += 1;
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_sim::{Bucket, Comp};

    fn cluster() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    fn trace() -> CausalTrace {
        let mut t = CausalTrace::new();
        // AM alloc (scheduling), CP compute, a 24-task MR job, a
        // preemption rework, a requeue wait.
        t.charge(
            Comp::Latency,
            Bucket::SchedulingDelay,
            CausalKind::Container,
            "am.alloc",
            1.0,
            1,
        );
        t.enter_block(0);
        t.charge(
            Comp::Compute,
            Bucket::Compute,
            CausalKind::Cp,
            "MatMult",
            2.0,
            1,
        );
        t.enter_block(1);
        t.charge(
            Comp::Compute,
            Bucket::Compute,
            CausalKind::MrJob,
            "mr.job",
            4.0,
            24,
        );
        t.charge(
            Comp::Io,
            Bucket::RetryRework,
            CausalKind::Fault,
            "fault.preempt.rework",
            1.0,
            1,
        );
        t.charge(
            Comp::Latency,
            Bucket::SchedulingDelay,
            CausalKind::Fault,
            "fault.preempt.requeue",
            1.0,
            1,
        );
        t
    }

    #[test]
    fn lanes_states_and_utilization() {
        let cc = cluster(); // 6 nodes × 12 cores
        let tl = build_timeline(&trace(), &cc, 9.0);
        assert_eq!(tl.lane_names.len(), 7);
        assert_eq!(tl.lane_names[0], "cp.am");
        // 24 tasks on 12-core nodes → 2 node lanes busy.
        let mr: Vec<&Segment> = tl.segments.iter().filter(|s| s.label == "mr.job").collect();
        assert_eq!(mr.len(), 2);
        assert!(mr.iter().all(|s| s.state == LaneState::Busy && s.lane >= 1));
        // States map: rework → preempted, alloc/requeue → requeued.
        assert!(tl
            .segments
            .iter()
            .any(|s| s.label == "fault.preempt.rework" && s.state == LaneState::Preempted));
        assert!(tl
            .segments
            .iter()
            .any(|s| s.label == "am.alloc" && s.state == LaneState::Requeued && s.lane == 0));
        // Node-seconds: MR 4 s × 2 nodes + rework 1 s × 1 node = 9.
        assert!((tl.busy_node_seconds - 9.0).abs() < 1e-12);
        assert!((tl.cluster_utilization - 9.0 / (6.0 * 9.0)).abs() < 1e-12);
        // AM busy only during the 2 s CP segment.
        assert!((tl.am_utilization - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn records_render_as_balanced_chrome_lanes() {
        let tl = build_timeline(&trace(), &cluster(), 9.0);
        let records = timeline_records(&tl);
        assert_eq!(records.len(), tl.segments.len() * 2);
        let text = reml_trace::to_chrome_trace(&records);
        assert!(text.contains("\"tid\""));
        assert!(text.contains("mr.job"));
        // Every begin has a matching end at the same lane.
        let begins = records
            .iter()
            .filter(|r| matches!(r.data, RecordData::SpanBegin { .. }))
            .count();
        let ends = records
            .iter()
            .filter(|r| matches!(r.data, RecordData::SpanEnd { .. }))
            .count();
        assert_eq!(begins, ends);
    }

    #[test]
    fn empty_trace_yields_idle_cluster() {
        let tl = build_timeline(&CausalTrace::new(), &cluster(), 0.0);
        assert!(tl.segments.is_empty());
        assert_eq!(tl.cluster_utilization, 0.0);
        assert_eq!(tl.am_utilization, 0.0);
    }
}
