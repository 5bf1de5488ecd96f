//! Injectable time sources.
//!
//! Every record carries a microsecond timestamp read from the recorder's
//! [`Clock`]. Two implementations matter in practice:
//!
//! * [`WallClock`] — monotonic wall time anchored at recorder creation;
//!   what `reml-bench profile_report` uses so span durations are real
//!   elapsed time.
//! * [`SimTime`] — a shared register the simulator advances with its own
//!   virtual clock (`SimState::now()`); runs become bit-reproducible
//!   because no real time leaks into the trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond time source.
pub trait Clock: Send + Sync {
    fn now_us(&self) -> u64;
}

/// Wall time, anchored at construction so timestamps start near zero.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Simulated time: a register advanced explicitly by the owner of the
/// virtual clock. Reads never touch real time, so two identical runs
/// stamp identical timestamps.
#[derive(Default)]
pub struct SimTime {
    us: AtomicU64,
}

impl SimTime {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Advance to an absolute microsecond timestamp. Monotonic by
    /// construction: going backwards is clamped to the current value.
    pub fn set_us(&self, us: u64) {
        self.us.fetch_max(us, Ordering::Relaxed);
    }

    /// Advance to an absolute time in (simulated) seconds.
    pub fn set_seconds(&self, s: f64) {
        self.set_us((s.max(0.0) * 1e6) as u64);
    }
}

impl Clock for SimTime {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn sim_time_is_explicit_and_clamped() {
        let t = SimTime::new();
        assert_eq!(t.now_us(), 0);
        t.set_seconds(1.5);
        assert_eq!(t.now_us(), 1_500_000);
        t.set_us(1_000); // going backwards is ignored
        assert_eq!(t.now_us(), 1_500_000);
    }
}
