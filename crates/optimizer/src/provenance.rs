//! Optimizer decision provenance: the per-grid-point ledger.
//!
//! Algorithm 1 walks the CP grid and keeps one winner; everything else
//! it learned along the way — which points were discarded by the
//! soundness analysis before costing, which were costed and by how much
//! they lost, which the time budget never reached — used to be thrown
//! away. The [`DecisionLedger`] retains that evidence: exactly one
//! [`GridPointRecord`] per *generated* CP grid point (pre-pruning), so a
//! report can answer "why this configuration?" without re-running the
//! optimizer. `reml_insight::explain` renders the ledger as the chosen
//! plan, the top-k runner-ups, and the marginal-resource analysis.
//!
//! Whatever the worker count, the grid walk builds the ledger from its
//! grid-ordered candidate buffer through `build_ledger`, after the best
//! configuration is folded — the ledger is derived from, and can never
//! perturb, the optimization outcome.

use reml_cluster::ClusterConfig;
use serde::Value;

use crate::resources::ResourceConfig;

/// Why a CP grid point did or did not become the chosen configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum PointVerdict {
    /// This point produced the globally best configuration `R*_P`.
    Chosen {
        /// Estimated cost of the point's aggregated assignment, seconds.
        cost_s: f64,
        /// Largest per-block MR heap of the winning assignment, MB.
        max_mr_mb: u64,
    },
    /// Costed, but beaten by the winner.
    Dominated {
        /// Estimated cost of the point's aggregated assignment, seconds.
        cost_s: f64,
        /// Largest per-block MR heap of this point's assignment, MB.
        max_mr_mb: u64,
        /// The winning competitor's CP heap, MB.
        by_cp_heap_mb: u64,
        /// Cost distance to the winner (`cost_s - chosen cost`), seconds.
        /// Slightly negative only in the tie case below.
        delta_s: f64,
        /// The costs tied (within 0.1%) and Definition 1 minimality broke
        /// the tie toward the smaller configuration.
        tie: bool,
    },
    /// Discarded before costing: the point's memory budget lies below the
    /// statically-proven minimum CP budget (`reml-sizebound`), so no plan
    /// at this point can execute the program's forced-CP operators.
    PrunedUnsound {
        /// The proven bound the point's budget fell short of, MB.
        sound_min_cp_budget_mb: f64,
    },
    /// Never costed: the optimization-time budget ran out — or the
    /// point's aggregate compilation failed — before a cost came out.
    Skipped,
}

impl PointVerdict {
    /// Stable snake_case tag for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PointVerdict::Chosen { .. } => "chosen",
            PointVerdict::Dominated { .. } => "dominated",
            PointVerdict::PrunedUnsound { .. } => "pruned_unsound",
            PointVerdict::Skipped => "skipped",
        }
    }

    /// The estimated cost, when this point was actually costed.
    pub fn cost_s(&self) -> Option<f64> {
        match self {
            PointVerdict::Chosen { cost_s, .. } | PointVerdict::Dominated { cost_s, .. } => {
                Some(*cost_s)
            }
            _ => None,
        }
    }
}

impl serde::Serialize for PointVerdict {
    fn to_value(&self) -> Value {
        let mut entries = vec![("kind".to_string(), Value::Str(self.name().to_string()))];
        match self {
            PointVerdict::Chosen { cost_s, max_mr_mb } => {
                entries.push(("cost_s".to_string(), Value::Num(*cost_s)));
                entries.push(("max_mr_mb".to_string(), Value::Num(*max_mr_mb as f64)));
            }
            PointVerdict::Dominated {
                cost_s,
                max_mr_mb,
                by_cp_heap_mb,
                delta_s,
                tie,
            } => {
                entries.push(("cost_s".to_string(), Value::Num(*cost_s)));
                entries.push(("max_mr_mb".to_string(), Value::Num(*max_mr_mb as f64)));
                entries.push((
                    "by_cp_heap_mb".to_string(),
                    Value::Num(*by_cp_heap_mb as f64),
                ));
                entries.push(("delta_s".to_string(), Value::Num(*delta_s)));
                entries.push(("tie".to_string(), Value::Bool(*tie)));
            }
            PointVerdict::PrunedUnsound {
                sound_min_cp_budget_mb,
            } => {
                entries.push((
                    "sound_min_cp_budget_mb".to_string(),
                    Value::Num(*sound_min_cp_budget_mb),
                ));
            }
            PointVerdict::Skipped => {}
        }
        Value::Object(entries)
    }
}

/// The ledger entry for one generated CP grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPointRecord {
    /// The grid point: CP max heap, MB.
    pub cp_heap_mb: u64,
    /// Its usable memory budget under the cluster's heap ratio, MB.
    pub cp_budget_mb: u64,
    /// What the optimizer decided about it.
    pub verdict: PointVerdict,
}

impl serde::Serialize for GridPointRecord {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cp_heap_mb".to_string(), Value::Num(self.cp_heap_mb as f64)),
            (
                "cp_budget_mb".to_string(),
                Value::Num(self.cp_budget_mb as f64),
            ),
            ("verdict".to_string(), self.verdict.to_value()),
        ])
    }
}

/// The complete decision ledger of one optimization round: one record per
/// generated CP grid point, in ascending grid order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLedger {
    /// One entry per generated (pre-pruning) CP grid point, ascending.
    pub points: Vec<GridPointRecord>,
    /// The statically-proven minimum CP budget, when one exists.
    pub sound_min_cp_budget_mb: Option<f64>,
}

impl DecisionLedger {
    /// The winning grid point's record.
    pub fn chosen(&self) -> Option<&GridPointRecord> {
        self.points
            .iter()
            .find(|p| matches!(p.verdict, PointVerdict::Chosen { .. }))
    }

    /// Up to `k` costed-but-dominated points, cheapest first (ties by
    /// smaller CP heap).
    pub fn runner_ups(&self, k: usize) -> Vec<&GridPointRecord> {
        let mut out: Vec<&GridPointRecord> = self
            .points
            .iter()
            .filter(|p| matches!(p.verdict, PointVerdict::Dominated { .. }))
            .collect();
        out.sort_by(|a, b| {
            let (ca, cb) = (a.verdict.cost_s().unwrap(), b.verdict.cost_s().unwrap());
            ca.partial_cmp(&cb)
                .expect("finite costs")
                .then(a.cp_heap_mb.cmp(&b.cp_heap_mb))
        });
        out.truncate(k);
        out
    }

    /// The estimated cost at a grid point, when it was costed.
    pub fn cost_at(&self, cp_heap_mb: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.cp_heap_mb == cp_heap_mb)
            .and_then(|p| p.verdict.cost_s())
    }

    /// The cheapest *costed* point whose CP heap is at least
    /// `min_cp_heap_mb` — the basis of the "+1 GB CP heap" marginal
    /// analysis.
    pub fn cheapest_costed_at_least(&self, min_cp_heap_mb: u64) -> Option<&GridPointRecord> {
        self.points
            .iter()
            .filter(|p| p.cp_heap_mb >= min_cp_heap_mb && p.verdict.cost_s().is_some())
            .min_by(|a, b| {
                a.verdict
                    .cost_s()
                    .partial_cmp(&b.verdict.cost_s())
                    .expect("finite costs")
            })
    }

    /// (costed, pruned, skipped) point counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut costed = 0;
        let mut pruned = 0;
        let mut skipped = 0;
        for p in &self.points {
            match p.verdict {
                PointVerdict::Chosen { .. } | PointVerdict::Dominated { .. } => costed += 1,
                PointVerdict::PrunedUnsound { .. } => pruned += 1,
                PointVerdict::Skipped => skipped += 1,
            }
        }
        (costed, pruned, skipped)
    }

    /// Ledger completeness: every generated grid point appears exactly
    /// once, in ascending grid order, with exactly one chosen point.
    pub fn check_complete(&self, full_grid: &[u64]) -> Result<(), String> {
        if self.points.len() != full_grid.len() {
            return Err(format!(
                "ledger has {} points for a {}-point grid",
                self.points.len(),
                full_grid.len()
            ));
        }
        for (rec, &heap) in self.points.iter().zip(full_grid) {
            if rec.cp_heap_mb != heap {
                return Err(format!(
                    "ledger point {} does not match grid point {heap}",
                    rec.cp_heap_mb
                ));
            }
        }
        let chosen = self
            .points
            .iter()
            .filter(|p| matches!(p.verdict, PointVerdict::Chosen { .. }))
            .count();
        if chosen != 1 {
            return Err(format!("{chosen} chosen points, expected exactly 1"));
        }
        Ok(())
    }
}

impl serde::Serialize for DecisionLedger {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "sound_min_cp_budget_mb".to_string(),
                self.sound_min_cp_budget_mb.to_value(),
            ),
            ("points".to_string(), self.points.to_value()),
        ])
    }
}

/// Assemble the ledger after the fold: `full_grid` is the generated
/// (pre-pruning) CP grid, `walked` the post-pruning grid the enumeration
/// actually visited, `candidates[i]` the aggregated `(config, cost)` of
/// `walked[i]` (`None` when the time budget cut enumeration short or the
/// point's compilation failed), and `best` the folded winner.
pub(crate) fn build_ledger(
    full_grid: &[u64],
    walked: &[u64],
    candidates: &[Option<(ResourceConfig, f64)>],
    best: &ResourceConfig,
    best_cost_s: f64,
    sound_min: Option<f64>,
    cc: &ClusterConfig,
) -> DecisionLedger {
    debug_assert_eq!(walked.len(), candidates.len());
    let mut points = Vec::with_capacity(full_grid.len());
    for &heap in full_grid {
        let verdict = match walked.iter().position(|&w| w == heap) {
            None => PointVerdict::PrunedUnsound {
                sound_min_cp_budget_mb: sound_min.unwrap_or(0.0),
            },
            Some(idx) => match &candidates[idx] {
                None => PointVerdict::Skipped,
                Some((cfg, cost)) if cfg.cp_heap_mb == best.cp_heap_mb => PointVerdict::Chosen {
                    cost_s: *cost,
                    max_mr_mb: cfg.max_mr_mb(),
                },
                Some((cfg, cost)) => {
                    let delta_s = cost - best_cost_s;
                    PointVerdict::Dominated {
                        cost_s: *cost,
                        max_mr_mb: cfg.max_mr_mb(),
                        by_cp_heap_mb: best.cp_heap_mb,
                        delta_s,
                        tie: delta_s.abs() <= 0.001 * best_cost_s.max(1e-9),
                    }
                }
            },
        };
        points.push(GridPointRecord {
            cp_heap_mb: heap,
            cp_budget_mb: cc.budget_mb_for_heap(heap),
            verdict,
        });
    }
    DecisionLedger {
        points,
        sound_min_cp_budget_mb: sound_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    fn cfg(cp: u64) -> ResourceConfig {
        ResourceConfig::uniform(cp, 512)
    }

    #[test]
    fn ledger_classifies_every_point() {
        let full = [512u64, 1024, 2048, 4096];
        let walked = [2048u64, 4096];
        let candidates = vec![Some((cfg(2048), 10.0)), Some((cfg(4096), 12.5))];
        let ledger = build_ledger(
            &full,
            &walked,
            &candidates,
            &cfg(2048),
            10.0,
            Some(1500.0),
            &cc(),
        );
        ledger.check_complete(&full).unwrap();
        let (costed, pruned, skipped) = ledger.counts();
        assert_eq!((costed, pruned, skipped), (2, 2, 0));
        assert_eq!(ledger.chosen().unwrap().cp_heap_mb, 2048);
        let rus = ledger.runner_ups(5);
        assert_eq!(rus.len(), 1);
        assert_eq!(rus[0].cp_heap_mb, 4096);
        match &rus[0].verdict {
            PointVerdict::Dominated {
                by_cp_heap_mb,
                delta_s,
                tie,
                ..
            } => {
                assert_eq!(*by_cp_heap_mb, 2048);
                assert!((delta_s - 2.5).abs() < 1e-12);
                assert!(!tie);
            }
            other => panic!("expected dominated, got {other:?}"),
        }
        assert_eq!(ledger.cost_at(4096), Some(12.5));
        assert_eq!(ledger.cost_at(512), None);
        assert_eq!(
            ledger.cheapest_costed_at_least(3000).unwrap().cp_heap_mb,
            4096
        );
    }

    #[test]
    fn skipped_points_and_incompleteness_are_detected() {
        let full = [512u64, 1024];
        let walked = [512u64, 1024];
        let candidates = vec![Some((cfg(512), 5.0)), None];
        let ledger = build_ledger(&full, &walked, &candidates, &cfg(512), 5.0, None, &cc());
        ledger.check_complete(&full).unwrap();
        assert_eq!(ledger.points[1].verdict, PointVerdict::Skipped);
        assert!(ledger.check_complete(&[512]).is_err());
        assert!(ledger.check_complete(&[512, 2048]).is_err());
    }

    #[test]
    fn serializes_with_stable_keys() {
        let full = [512u64];
        let ledger = build_ledger(
            &full,
            &full,
            &[Some((cfg(512), 5.0))],
            &cfg(512),
            5.0,
            None,
            &cc(),
        );
        let v = serde::Serialize::to_value(&ledger);
        let Value::Object(entries) = &v else {
            panic!("ledger serializes to an object")
        };
        assert_eq!(entries[0].0, "sound_min_cp_budget_mb");
        assert_eq!(entries[0].1, Value::Null);
        let Value::Array(points) = &entries[1].1 else {
            panic!("points array")
        };
        let Value::Object(point) = &points[0] else {
            panic!("point object")
        };
        let Some((_, Value::Object(verdict))) = point.iter().find(|(k, _)| k == "verdict") else {
            panic!("verdict object")
        };
        assert!(verdict.contains(&("kind".to_string(), Value::Str("chosen".to_string()))));
    }
}
