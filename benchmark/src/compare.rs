//! `compare A B`: two directories of result files, set against each other
//! under the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::metrics::{contract, Better, EndToEnd};
use crate::stats::quartiles;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// A's own runs spread wider than the bound and the two sides overlap:
    /// the metric cannot tell the sides apart.
    Unresolved,
}

/// How far B's median is worse than A's, as a share of A's (negative when
/// B is better).
fn worsening(metric: &EndToEnd, a_median: f64, b_median: f64) -> f64 {
    match metric.better {
        Better::Lower => (b_median - a_median) / a_median,
        Better::Higher => (a_median - b_median) / a_median,
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (a_q1, a_median, a_q3) = quartiles(a);
    let (_, b_median, _) = quartiles(b);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let overlap = min(a) <= max(b) && min(b) <= max(a);
    if (a_q3 - a_q1) / a_median.abs() > metric.bound && overlap {
        return Verdict::Unresolved;
    }
    let change = worsening(metric, a_median, b_median);
    if change > metric.bound {
        Verdict::Worse
    } else if change < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// `(workload, seed)` → metric → one value per result file of `kind`.
type Runs = BTreeMap<(String, u64), BTreeMap<String, Vec<f64>>>;

/// Result files of one kind: `"end_to_end"` (`*.e2e.json`) or `"layers"`
/// (`*.layers.json`). The Chrome traces beside them are not read.
fn load(dir: &Path, kind: &str) -> Result<Runs, String> {
    let suffix = if kind == "layers" {
        ".layers.json"
    } else {
        ".e2e.json"
    };
    let mut runs = Runs::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(suffix)))
        .collect();
    paths.sort();
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let Ok(value) = serde_json::from_str::<Value>(&text) else {
            continue;
        };
        let (Some(workload), Some(seed), Some(metrics)) = (
            value["workload"].as_str(),
            value["seed"].as_u64(),
            value["metrics"].as_object(),
        ) else {
            continue;
        };
        if value["kind"].as_str() != Some(kind) {
            continue;
        }
        let run = runs.entry((workload.to_string(), seed)).or_default();
        for (name, v) in metrics {
            if let Some(v) = v.as_f64() {
                run.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn cell(values: &[f64]) -> String {
    let (q1, median, q3) = quartiles(values);
    format!("{median:.4} [{q1:.4}, {q3:.4}] ({})", values.len())
}

/// Print the comparison; `Ok(true)` when no metric is worse and no exact
/// count differs.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let a = load(a_dir, "end_to_end")?;
    let b = load(b_dir, "end_to_end")?;
    if a.is_empty() || b.is_empty() {
        return Err("no end-to-end result files on one side".into());
    }
    let mut clean = true;
    println!(
        "{:<13} {:>4} {:<17} | {:<32} | {:<32} | {:>8} | verdict",
        "workload", "seed", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A"
    );
    for ((workload, seed), a_metrics) in &a {
        let Some(b_metrics) = b.get(&(workload.clone(), *seed)) else {
            println!("{workload:<13} {seed:>4} only in A");
            continue;
        };
        for metric in &contract().end_to_end {
            let (Some(av), Some(bv)) = (a_metrics.get(&metric.name), b_metrics.get(&metric.name))
            else {
                continue;
            };
            let v = verdict(metric, av, bv);
            clean &= v != Verdict::Worse;
            let (_, a_median, _) = quartiles(av);
            let (_, b_median, _) = quartiles(bv);
            println!(
                "{workload:<13} {seed:>4} {:<17} | {:<32} | {:<32} | {:>+7.2}% | {}",
                metric.name,
                cell(av),
                cell(bv),
                (b_median - a_median) / a_median * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
    }

    // Exact counts: one value across every traced run of both sides.
    let mut layers = load(a_dir, "layers")?;
    for (key, metrics) in load(b_dir, "layers")? {
        let into = layers.entry(key).or_default();
        for (name, values) in metrics {
            into.entry(name).or_default().extend(values);
        }
    }
    let mut traced_runs = 0;
    for ((workload, seed), metrics) in &layers {
        for m in contract().per_layer.iter().filter(|m| m.exact) {
            let Some(values) = metrics.get(&m.name) else {
                continue;
            };
            traced_runs = traced_runs.max(values.len());
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                clean = false;
                println!(
                    "EXACT COUNT DIFFERS {workload} seed {seed} {}: {values:?}",
                    m.name
                );
            }
        }
    }
    println!("exact counts compared over up to {traced_runs} traced runs per workload and seed");
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, unit: &str, better: Better) -> EndToEnd {
        EndToEnd {
            name: name.into(),
            unit: unit.into(),
            better,
            bound: 0.07,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let (latency, rate) = (
            &metric("latency_ms", "ms", Better::Lower),
            &metric("rate", "1/s", Better::Higher),
        );
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(latency, &a, &[10.2, 10.3, 10.1]),
            Verdict::Unchanged
        );
        assert_eq!(verdict(latency, &a, &[11.0, 11.1, 10.9]), Verdict::Worse);
        assert_eq!(verdict(latency, &a, &[9.0, 9.1, 8.9]), Verdict::Better);
        assert_eq!(verdict(rate, &a, &[9.0, 9.1, 8.9]), Verdict::Worse);
        assert_eq!(verdict(rate, &a, &[11.0, 11.1, 10.9]), Verdict::Better);
    }

    #[test]
    fn a_noisy_reference_is_unresolved_unless_the_sides_separate() {
        let latency = &metric("latency_ms", "ms", Better::Lower);
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(
            verdict(latency, &noisy, &[11.0, 11.5, 12.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(latency, &noisy, &[20.0, 21.0, 22.0]),
            Verdict::Worse
        );
        assert_eq!(verdict(latency, &noisy, &[5.0, 5.5, 6.0]), Verdict::Better);
    }
}
