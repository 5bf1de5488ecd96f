//! # reml-trace — structured tracing, metrics, and flight-recorder profiling
//!
//! The paper's evaluation is largely *the system measuring itself*:
//! Table 3 splits optimizer overhead into enumeration vs. costing vs.
//! pruning, Fig. 14 counts pruned grid points, and §4's adaptation acts
//! on observed-vs-predicted behavior. This crate is the one
//! observability substrate behind all of that:
//!
//! * **Hierarchical spans** with typed key/value fields and timestamps
//!   from an injectable [`Clock`] — wall time for profiling, [`SimTime`]
//!   for bit-reproducible simulator traces.
//! * A **flight recorder**: bounded ring buffer behind one cheap mutex,
//!   drained into pluggable sinks (in-memory for tests, JSON-lines,
//!   Chrome `trace_event` for chrome://tracing / Perfetto).
//! * A **metrics registry** (counters / gauges / histograms) giving the
//!   counters that used to live in `OptimizerStats`, `ExecStats`,
//!   `BufferPoolStats`, and `YarnState` stable metric names.
//!
//! ## Disabled-by-default, one-atomic fast path
//!
//! Nothing records unless a [`Recorder`] is [`install`]ed. Every
//! instrumentation site in the workspace guards on [`enabled`] — a single
//! relaxed atomic load. `reml-bench trace_overhead` gates what an
//! installed sampled always-on recorder ([`Recorder::sampled`]) costs over
//! no recorder (≤ 3% plus 2% for timer noise); nothing measures the
//! disabled path against an uninstrumented build.
//!
//! ```
//! let recorder = reml_trace::Recorder::new(4096);
//! reml_trace::install(std::sync::Arc::clone(&recorder));
//! {
//!     let _span = reml_trace::span!("optimize.grid_walk", points = 12u64);
//!     reml_trace::event!("optimize.point", rc = 512u64, cost = 1.5f64);
//! }
//! reml_trace::uninstall();
//! let records = recorder.drain();
//! assert_eq!(records.len(), 3);
//! let att = reml_trace::attribute(&records);
//! assert_eq!(att.rows[0].name, "optimize.grid_walk");
//! ```

#![forbid(unsafe_code)]

pub mod attribution;
pub mod clock;
pub mod export;
pub mod metrics;
pub mod record;
pub mod recorder;

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

pub use attribution::{attribute, Attribution, PhaseRow};
pub use clock::{Clock, SimTime, WallClock};
pub use export::{to_chrome_trace, to_json_lines};
pub use metrics::{Counter, Gauge, Histogram, MetricSnapshot, Registry};
pub use record::{fields, FieldValue, Fields, RecordData, TraceRecord};
pub use recorder::{Recorder, SpanGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

fn global_slot() -> &'static RwLock<Option<Arc<Recorder>>> {
    static GLOBAL: OnceLock<RwLock<Option<Arc<Recorder>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(None))
}

/// Install `recorder` as the process-global recorder; instrumentation
/// sites across the workspace start emitting into it.
pub fn install(recorder: Arc<Recorder>) {
    *global_slot().write() = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Remove the global recorder (instrumentation returns to the
/// one-atomic-load disabled fast path) and hand it back, if any.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ENABLED.store(false, Ordering::Release);
    global_slot().write().take()
}

/// Whether a global recorder is installed. The fast path every
/// instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The installed recorder, if any.
pub fn recorder() -> Option<Arc<Recorder>> {
    if !enabled() {
        return None;
    }
    global_slot().read().clone()
}

/// True when the installed recorder runs on simulated time, meaning the
/// trace must stay bit-reproducible: instrumentation skips attaching
/// wall-clock measurements (e.g. per-instruction durations) as fields.
pub fn deterministic() -> bool {
    recorder().map(|r| r.is_deterministic()).unwrap_or(false)
}

/// The sim-time handle of the installed recorder, when it has one. The
/// simulator grabs this at app start and advances it alongside its own
/// virtual clock.
pub fn sim_time() -> Option<Arc<SimTime>> {
    recorder().and_then(|r| r.sim_time())
}

/// The process-global metric registry (always available; writes are
/// cheap but call sites still gate on [`enabled`] to keep the disabled
/// path at one atomic load).
pub fn metrics() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Open a span on the global recorder (inert guard when disabled).
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Open a span with fields on the global recorder.
pub fn span_with(name: &'static str, flds: &[(&'static str, FieldValue)]) -> SpanGuard {
    match recorder() {
        Some(rec) => rec.begin_span(Cow::Borrowed(name), fields(flds)),
        None => SpanGuard::disabled(),
    }
}

/// Open a span with a runtime-constructed name.
pub fn span_owned(name: String, flds: &[(&'static str, FieldValue)]) -> SpanGuard {
    match recorder() {
        Some(rec) => rec.begin_span(Cow::Owned(name), fields(flds)),
        None => SpanGuard::disabled(),
    }
}

/// Record an instant event on the global recorder (no-op when disabled).
pub fn event(name: &'static str, flds: &[(&'static str, FieldValue)]) {
    if let Some(rec) = recorder() {
        rec.event(Cow::Borrowed(name), fields(flds));
    }
}

/// Record an instant event with a runtime-constructed name.
pub fn event_owned(name: String, flds: &[(&'static str, FieldValue)]) {
    if let Some(rec) = recorder() {
        rec.event(Cow::Owned(name), fields(flds));
    }
}

/// Record an event with a runtime-constructed name and pre-built
/// (possibly dynamically-keyed) field vector at the recorder's clock.
pub fn event_fields(name: String, flds: Fields) {
    if let Some(rec) = recorder() {
        rec.event(Cow::Owned(name), flds);
    }
}

/// Record an event at an explicit microsecond timestamp (the simulator
/// stamps fault events with virtual time this way).
pub fn event_at_us(ts_us: u64, name: String, fields: Fields) {
    if let Some(rec) = recorder() {
        rec.event_at_us(ts_us, Cow::Owned(name), fields);
    }
}

/// Record a counter sample on the global recorder (no-op when disabled).
/// Counters render as Chrome "C" events — area charts in the viewer.
pub fn counter(name: &'static str, value: f64) {
    if let Some(rec) = recorder() {
        rec.counter(Cow::Borrowed(name), value);
    }
}

/// Bump a named counter in the global registry (no-op when disabled).
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled() {
        metrics().counter(name).add(n);
    }
}

/// Set a named gauge in the global registry (no-op when disabled).
#[inline]
pub fn gauge_set(name: &str, v: i64) {
    if enabled() {
        metrics().gauge(name).set(v);
    }
}

/// Observe a value in a named histogram (no-op when disabled).
#[inline]
pub fn observe(name: &str, v: u64) {
    if enabled() {
        metrics().histogram(name).observe(v);
    }
}

/// Open a span: `span!("name")` or `span!("name", key = value, ...)`.
/// Returns a [`SpanGuard`]; bind it (`let _g = span!(...)`) so the span
/// closes at scope exit.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::span_with($name, &[$((stringify!($k), $crate::FieldValue::from($v))),+])
    };
}

/// Record an instant event: `event!("name")` or
/// `event!("name", key = value, ...)`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event($name, &[])
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::event($name, &[$((stringify!($k), $crate::FieldValue::from($v))),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-recorder tests share process state; serialize them.
    fn with_lock<R>(f: impl FnOnce() -> R) -> R {
        static LOCK: OnceLock<parking_lot::Mutex<()>> = OnceLock::new();
        let _g = LOCK.get_or_init(|| parking_lot::Mutex::new(())).lock();
        f()
    }

    #[test]
    fn disabled_macros_are_inert() {
        with_lock(|| {
            uninstall();
            let g = span!("nothing", x = 1u64);
            event!("nothing.event");
            assert_eq!(g.id(), 0);
            assert!(!enabled());
        });
    }

    #[test]
    fn install_uninstall_roundtrip() {
        with_lock(|| {
            let rec = Recorder::new(64);
            install(Arc::clone(&rec));
            assert!(enabled());
            {
                let _g = span!("root", k = "v");
                event!("tick", n = 2u64);
            }
            let back = uninstall().expect("installed");
            assert!(Arc::ptr_eq(&rec, &back));
            assert_eq!(rec.drain().len(), 3);
        });
    }

    #[test]
    fn deterministic_reflects_clock_kind() {
        with_lock(|| {
            let (rec, _time) = Recorder::with_sim_clock(64);
            install(rec);
            assert!(deterministic());
            assert!(sim_time().is_some());
            uninstall();
            assert!(!deterministic());
        });
    }
}
