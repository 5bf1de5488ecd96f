//! Makespan attribution over the simulator's ledger.
//!
//! The simulator charges every simulated second through one ledger node
//! (see `reml_sim::causal`), so the makespan decomposes exactly into the
//! taxonomy buckets. Its clock is serial and the ledger a chain, so the
//! critical path is the chain itself: [`CausalTrace::charged_s`].
//! [`AppAttribution::check_invariants`] still checks
//! `critical_path ≤ makespan ≤ serial_sum` on every run, which pins the
//! ledger's durations to the measured makespan and to the serialized
//! work behind it.
//!
//! This engine sums *simulated* seconds per bucket; `reml_trace`'s
//! attribution computes *wall-clock* self time over a span forest. The
//! two share no logic and stay separate.

use reml_sim::{AppOutcome, Bucket, CausalTrace};
use serde::Value;

/// Makespan attribution of one simulated application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAttribution {
    /// Measured end-to-end time, seconds.
    pub makespan_s: f64,
    /// Duration of the causal chain (the critical path), seconds.
    pub critical_path_s: f64,
    /// Total serialized work (durations × parallel widths), seconds.
    pub serial_sum_s: f64,
    /// Seconds per taxonomy bucket, in [`Bucket::ALL`] order. Includes
    /// the `IdleResidual` remainder, so the values sum to the makespan.
    pub buckets: Vec<(Bucket, f64)>,
    /// Fraction of the makespan explained by a non-residual bucket.
    pub coverage: f64,
}

impl AppAttribution {
    /// Seconds attributed to one bucket.
    pub fn bucket_s(&self, bucket: Bucket) -> f64 {
        self.buckets
            .iter()
            .find(|(b, _)| *b == bucket)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// The attribution invariants:
    /// `critical_path ≤ makespan ≤ serial_sum`, non-negative buckets,
    /// and bucket sums (residual included) equal to the makespan.
    pub fn check_invariants(&self) -> Result<(), String> {
        let eps = 1e-6 * self.makespan_s.max(1.0);
        if self.critical_path_s > self.makespan_s + eps {
            return Err(format!(
                "critical path {} exceeds makespan {}",
                self.critical_path_s, self.makespan_s
            ));
        }
        if self.makespan_s > self.serial_sum_s + eps {
            return Err(format!(
                "makespan {} exceeds serial sum {}",
                self.makespan_s, self.serial_sum_s
            ));
        }
        let mut total = 0.0;
        for (bucket, secs) in &self.buckets {
            if *secs < -eps {
                return Err(format!("negative bucket {}: {secs}", bucket.name()));
            }
            total += secs;
        }
        if (total - self.makespan_s).abs() > eps {
            return Err(format!(
                "bucket sum {total} does not partition makespan {}",
                self.makespan_s
            ));
        }
        if !(0.0..=1.0 + 1e-9).contains(&self.coverage) {
            return Err(format!("coverage {} out of range", self.coverage));
        }
        Ok(())
    }
}

impl serde::Serialize for AppAttribution {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("makespan_s".to_string(), Value::Num(self.makespan_s)),
            (
                "critical_path_s".to_string(),
                Value::Num(self.critical_path_s),
            ),
            ("serial_sum_s".to_string(), Value::Num(self.serial_sum_s)),
            ("coverage".to_string(), Value::Num(self.coverage)),
            (
                "buckets".to_string(),
                Value::Object(
                    self.buckets
                        .iter()
                        .map(|(b, s)| (b.name().to_string(), Value::Num(*s)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Attribute a causal trace against a measured makespan. Whatever the
/// bucket sums fail to explain (at most float dust for the simulator's
/// chain) lands in [`Bucket::IdleResidual`].
pub fn attribute_trace(trace: &CausalTrace, makespan_s: f64) -> AppAttribution {
    // `Bucket::ALL` lists the buckets in declaration order.
    let mut sums: Vec<f64> = vec![0.0; Bucket::ALL.len()];
    for node in &trace.nodes {
        sums[node.bucket as usize] += node.duration_s();
    }
    let explained: f64 = sums.iter().sum();
    sums[Bucket::IdleResidual as usize] += (makespan_s - explained).max(0.0);
    let coverage = if makespan_s <= 0.0 {
        1.0
    } else {
        (explained.min(makespan_s)) / makespan_s
    };
    AppAttribution {
        makespan_s,
        critical_path_s: trace.charged_s(),
        serial_sum_s: trace.serial_sum_s(),
        buckets: Bucket::ALL.iter().copied().zip(sums).collect(),
        coverage,
    }
}

/// Attribute a simulated application's outcome.
pub fn attribute_app(outcome: &AppOutcome) -> AppAttribution {
    attribute_trace(&outcome.causal, outcome.elapsed_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_sim::{CausalKind, Comp};

    fn chain() -> CausalTrace {
        let mut t = CausalTrace::new();
        t.enter_block(0);
        t.charge(Comp::Compute, Bucket::Compute, CausalKind::Cp, "a", 2.0, 1);
        t.enter_block(1);
        t.charge(Comp::Io, Bucket::Io, CausalKind::MrJob, "mr.job", 3.0, 4);
        t.charge(
            Comp::Latency,
            Bucket::StragglerWait,
            CausalKind::Fault,
            "fault.straggler",
            1.0,
            1,
        );
        t
    }

    #[test]
    fn chain_critical_path_equals_makespan() {
        let t = chain();
        let att = attribute_trace(&t, 6.0);
        assert!((att.critical_path_s - 6.0).abs() < 1e-12);
        assert!((att.serial_sum_s - 15.0).abs() < 1e-12);
        assert_eq!(att.bucket_s(Bucket::Compute), 2.0);
        assert_eq!(att.bucket_s(Bucket::Io), 3.0);
        assert_eq!(att.bucket_s(Bucket::StragglerWait), 1.0);
        assert_eq!(att.bucket_s(Bucket::IdleResidual), 0.0);
        assert!((att.coverage - 1.0).abs() < 1e-12);
        att.check_invariants().unwrap();
    }

    #[test]
    fn unexplained_time_lands_in_idle_residual() {
        let t = chain();
        let att = attribute_trace(&t, 8.0);
        assert_eq!(att.bucket_s(Bucket::IdleResidual), 2.0);
        assert!((att.coverage - 0.75).abs() < 1e-12);
        att.check_invariants().unwrap();
    }

    #[test]
    fn invariant_violations_are_reported() {
        let t = chain();
        // Makespan below the charged time: critical path exceeds it.
        let att = attribute_trace(&t, 3.0);
        assert!(att.check_invariants().is_err());
        // Empty trace attributes trivially.
        let empty = attribute_trace(&CausalTrace::new(), 0.0);
        empty.check_invariants().unwrap();
        assert_eq!(empty.coverage, 1.0);
    }
}
