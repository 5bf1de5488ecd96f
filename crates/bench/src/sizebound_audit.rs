//! Sizebound soundness gate: run the interval abstract interpretation
//! over the five paper scripts across the XS/S/M/L scenarios, lint every
//! plan with the PL030 rule family, then execute each script with memory
//! observation and assert that no instruction's actual footprint ever
//! exceeds its statically-proven bound. Writes
//! `results/sizebound_audit.json`; fails on any error-severity
//! diagnostic or dynamic bound violation so CI can gate on it.

use reml_compiler::pipeline::compile;
use reml_compiler::MrHeapAssignment;
use reml_planlint::Severity;
use reml_scripts::Scenario;
use reml_sim::MemoryAuditReport;
use reml_sizebound::{analyze_bounds, sound_min_cp_budget_mb};

use crate::{audit_paper_scripts, dense1000, write_artifact, Outcome, Workload};

#[derive(Debug, serde::Serialize)]
struct StaticRow {
    script: String,
    scenario: String,
    plans_analyzed: u64,
    widening_steps: u64,
    sound_min_cp_budget_mb: f64,
    errors: u64,
    warnings: u64,
}

#[derive(Debug, serde::Serialize)]
struct SizeboundAudit {
    plans_analyzed: u64,
    errors: u64,
    warnings: u64,
    static_grid: Vec<StaticRow>,
    dynamic_audit: Vec<MemoryAuditReport>,
    bound_violations: u64,
}

pub fn run() -> Outcome {
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut plans_total = 0u64;
    let mut errors_total = 0u64;
    let mut warnings_total = 0u64;

    for script in reml_scripts::all_scripts() {
        for scenario in [Scenario::XS, Scenario::S, Scenario::M, Scenario::L] {
            let wl = Workload::new(script.clone(), dense1000(scenario))?;
            let (min_heap, max_heap) = (wl.cluster.min_heap_mb(), wl.cluster.max_heap_mb());

            // Analyze at the grid extremes: the minimal-resource probe
            // (where placement pressure is highest) and the largest
            // configuration (where everything is CP-placed).
            let mut plans = 0u64;
            let mut errors = 0u64;
            let mut warnings = 0u64;
            let mut widening = 0u64;
            let mut sound_min = 0.0f64;
            for cp in [min_heap, max_heap] {
                let mut cfg = wl.base.clone();
                cfg.cp_heap_mb = cp;
                cfg.mr_heap = MrHeapAssignment::uniform(min_heap);
                let compiled = compile(&wl.analyzed, &cfg)?;
                let bounds = analyze_bounds(&wl.analyzed, &compiled, &cfg)?;
                widening = widening.max(bounds.widening_steps);
                let min = sound_min_cp_budget_mb(&bounds);
                if min > sound_min {
                    sound_min = min;
                }
                let report = reml_sizebound::lint(&compiled, &cfg, &bounds);
                plans += 1;
                for d in &report.diagnostics {
                    match d.severity {
                        Severity::Error => {
                            errors += 1;
                            failures.push(format!(
                                "{} {} (cp={cp} MB): {d}",
                                wl.script.name,
                                scenario.name()
                            ));
                        }
                        Severity::Warning => warnings += 1,
                    }
                }
            }
            plans_total += plans;
            errors_total += errors;
            warnings_total += warnings;
            println!(
                "sizebound {:<10} {:<3} {:>2} plans  {:>2} errors  {:>3} warnings  \
                 {:>2} widenings  min-cp {:>8.1} MB",
                wl.script.name,
                scenario.name(),
                plans,
                errors,
                warnings,
                widening,
                sound_min
            );
            rows.push(StaticRow {
                script: wl.script.name.to_string(),
                scenario: scenario.name().to_string(),
                plans_analyzed: plans,
                widening_steps: widening,
                sound_min_cp_budget_mb: sound_min,
                errors,
                warnings,
            });
        }
    }

    // Dynamic audit: real executions; every observation with a finite
    // interval bound must satisfy `actual <= bound`.
    println!();
    let audits = audit_paper_scripts();
    let mut bound_violations = 0u64;
    for a in &audits {
        println!(
            "audit {:<10} {:>5} observations  {:>5} bounded  {:>2} violations",
            a.script, a.observations, a.bounded_observations, a.bound_unsound_total
        );
        if a.bound_unsound_total > 0 {
            bound_violations += a.bound_unsound_total;
            failures.push(format!(
                "{}: {} observations exceeded their proven bound",
                a.script, a.bound_unsound_total
            ));
        }
        if a.bounded_observations == 0 {
            failures.push(format!(
                "{}: no observation carried a finite bound (annotation broken?)",
                a.script
            ));
        }
    }

    let out = SizeboundAudit {
        plans_analyzed: plans_total,
        errors: errors_total,
        warnings: warnings_total,
        static_grid: rows,
        dynamic_audit: audits,
        bound_violations,
    };
    write_artifact("sizebound_audit.json", serde_json::to_string_pretty(&out)?)?;

    if !failures.is_empty() {
        return Err(failures.join("\n").into());
    }
    println!("sizebound: {plans_total} plans sound, 0 dynamic violations");
    Ok(Vec::new())
}
