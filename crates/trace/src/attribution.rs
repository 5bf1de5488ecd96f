//! Per-phase time attribution over a drained record stream.
//!
//! Rebuilds the span forest (per thread, in seq order) and charges each
//! span its **self time** — duration minus the time covered by child
//! spans — grouped by span name. This is the engine behind
//! `reml-bench profile_report`'s Table-3-analogue: the coverage ratio
//! says how much of the measured wall time is explained by some named
//! phase rather than unattributed root-span self time.

use std::collections::HashMap;

use crate::record::{RecordData, TraceRecord};

/// Aggregated self-time for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total self time (duration minus child-span time), microseconds.
    pub self_us: u64,
    /// Total inclusive duration, microseconds.
    pub total_us: u64,
}

/// The attribution result.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Rows sorted by descending self time.
    pub rows: Vec<PhaseRow>,
    /// Sum of root-span durations (the measured wall time).
    pub wall_us: u64,
    /// Wall time attributed to *non-root* self time, i.e. explained by a
    /// named phase below the root.
    pub covered_us: u64,
}

impl Attribution {
    /// Fraction of measured wall time explained by named sub-phases.
    /// 1.0 when every root microsecond is inside some child span.
    pub fn coverage(&self) -> f64 {
        if self.wall_us == 0 {
            1.0
        } else {
            self.covered_us as f64 / self.wall_us as f64
        }
    }
}

struct OpenSpan {
    id: u64,
    name: String,
    begin_us: u64,
    child_us: u64,
    is_root: bool,
}

/// Attribute self time per span name. Unclosed spans are dropped;
/// `SpanEnd`s without a matching begin (ring overwrote it) are ignored.
pub fn attribute(records: &[TraceRecord]) -> Attribution {
    let mut stacks: HashMap<u32, Vec<OpenSpan>> = HashMap::new();
    let mut rows: HashMap<String, PhaseRow> = HashMap::new();
    let mut wall_us = 0u64;
    let mut root_self_us = 0u64;

    for r in records {
        let stack = stacks.entry(r.thread).or_default();
        match &r.data {
            RecordData::SpanBegin { id, name, .. } => {
                let is_root = stack.is_empty();
                stack.push(OpenSpan {
                    id: *id,
                    name: name.to_string(),
                    begin_us: r.ts_us,
                    child_us: 0,
                    is_root,
                });
            }
            RecordData::SpanEnd { id, .. } => {
                let Some(pos) = stack.iter().rposition(|s| s.id == *id) else {
                    continue; // begin record lost to the ring
                };
                // Anything above `pos` never saw its end record; drop it.
                stack.truncate(pos + 1);
                let open = stack.pop().expect("pos is valid");
                let dur = r.ts_us.saturating_sub(open.begin_us);
                let self_us = dur.saturating_sub(open.child_us);
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += dur;
                }
                if open.is_root {
                    wall_us += dur;
                    root_self_us += self_us;
                }
                let row = rows.entry(open.name.clone()).or_insert(PhaseRow {
                    name: open.name,
                    count: 0,
                    self_us: 0,
                    total_us: 0,
                });
                row.count += 1;
                row.self_us += self_us;
                row.total_us += dur;
            }
            RecordData::Event { .. } | RecordData::Counter { .. } => {}
        }
    }

    let mut rows: Vec<PhaseRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    Attribution {
        rows,
        wall_us,
        covered_us: wall_us.saturating_sub(root_self_us),
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;
    use crate::clock::SimTime;
    use crate::recorder::Recorder;

    fn span_at(
        rec: &std::sync::Arc<Recorder>,
        time: &SimTime,
        name: &'static str,
        t0: u64,
    ) -> crate::recorder::SpanGuard {
        time.set_us(t0);
        rec.begin_span(Cow::Borrowed(name), vec![])
    }

    #[test]
    fn self_time_excludes_children_and_coverage_reflects_root_self() {
        let (rec, time) = Recorder::with_sim_clock(256);
        let root = span_at(&rec, &time, "root", 0);
        let a = span_at(&rec, &time, "a", 10);
        time.set_us(60);
        drop(a); // a: 50us
        let b = span_at(&rec, &time, "b", 60);
        time.set_us(90);
        drop(b); // b: 30us
        time.set_us(100);
        drop(root); // root: 100us, self = 100 - 80 = 20
        let att = attribute(&rec.drain());
        assert_eq!(att.wall_us, 100);
        assert_eq!(att.covered_us, 80);
        assert!((att.coverage() - 0.8).abs() < 1e-9);
        let by_name: HashMap<&str, &PhaseRow> =
            att.rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert_eq!(by_name["a"].self_us, 50);
        assert_eq!(by_name["b"].self_us, 30);
        assert_eq!(by_name["root"].self_us, 20);
        assert_eq!(by_name["root"].total_us, 100);
    }

    #[test]
    fn nested_self_time_propagates_to_parent() {
        let (rec, time) = Recorder::with_sim_clock(256);
        let root = span_at(&rec, &time, "root", 0);
        let outer = span_at(&rec, &time, "outer", 0);
        let inner = span_at(&rec, &time, "inner", 20);
        time.set_us(80);
        drop(inner); // inner: 60
        time.set_us(100);
        drop(outer); // outer: 100, self 40
        drop(root); // root: 100, self 0
        let att = attribute(&rec.drain());
        assert_eq!(att.wall_us, 100);
        assert_eq!(att.covered_us, 100);
        let by_name: HashMap<&str, &PhaseRow> =
            att.rows.iter().map(|r| (r.name.as_str(), r)).collect();
        assert_eq!(by_name["outer"].self_us, 40);
        assert_eq!(by_name["inner"].self_us, 60);
    }

    #[test]
    fn unmatched_ends_and_unclosed_spans_are_tolerated() {
        let (rec, time) = Recorder::with_sim_clock(256);
        let _leaked = span_at(&rec, &time, "leaked", 0);
        let records = rec.drain(); // begin without end
        let att = attribute(&records);
        assert_eq!(att.wall_us, 0);
        assert!(att.rows.is_empty());
    }
}
