//! The `reml-bench` dispatcher against a fake registry, and the shape of
//! the real one.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use reml_bench::{run, Entry, ExperimentResult, Outcome, ENTRIES};

static AFTER_FAILURE: AtomicUsize = AtomicUsize::new(0);
static AFTER_ALL: AtomicUsize = AtomicUsize::new(0);
static GATE_RUNS: AtomicUsize = AtomicUsize::new(0);

fn fails() -> Outcome {
    Err("deliberate failure".into())
}

fn runs_after_the_failure() -> Outcome {
    AFTER_FAILURE.fetch_add(1, Ordering::SeqCst);
    Ok(Vec::new())
}

fn gate() -> Outcome {
    GATE_RUNS.fetch_add(1, Ordering::SeqCst);
    Ok(Vec::new())
}

fn must_not_run() -> Outcome {
    panic!("this entry was not requested")
}

fn after_all(results: &[ExperimentResult]) -> Result<(), reml_bench::Error> {
    assert!(results.is_empty());
    AFTER_ALL.fetch_add(1, Ordering::SeqCst);
    Ok(())
}

fn not_all(_: &[ExperimentResult]) -> Result<(), reml_bench::Error> {
    panic!("`all` was not requested")
}

const fn entry(name: &'static str, in_all: bool, run: fn() -> Outcome) -> Entry {
    Entry { name, in_all, run }
}

fn args(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn a_failed_entry_fails_all_and_the_rest_still_run() {
    let table = [
        entry("fails", true, fails),
        entry("after", true, runs_after_the_failure),
        entry("gate", false, must_not_run),
    ];
    assert_eq!(run(&args(&["all"]), &table, after_all), 1);
    assert_eq!(AFTER_FAILURE.load(Ordering::SeqCst), 1);
    assert_eq!(AFTER_ALL.load(Ordering::SeqCst), 1);
}

#[test]
fn named_entries_run_alone_and_set_the_exit_code() {
    let table = [entry("fails", true, fails), entry("gate", false, gate)];
    assert_eq!(run(&args(&["gate", "gate"]), &table, not_all), 0);
    assert_eq!(GATE_RUNS.load(Ordering::SeqCst), 2);
    assert_eq!(run(&args(&["fails"]), &table, not_all), 1);
}

#[test]
fn unknown_or_missing_names_are_usage_errors() {
    let table = [entry("gate", false, must_not_run)];
    assert_eq!(run(&args(&["gate", "nope"]), &table, not_all), 2);
    assert_eq!(run(&[], &table, not_all), 2);
}

#[test]
fn entry_names_are_unique() {
    let names: HashSet<&str> = ENTRIES.iter().map(|e| e.name).collect();
    assert_eq!(names.len(), ENTRIES.len());
    assert!(!names.contains("all"));
}

#[test]
fn all_runs_the_nineteen_paper_experiments_in_order() {
    let all: Vec<&str> = ENTRIES
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    assert_eq!(
        all,
        [
            "table1_programs",
            "fig1_heatmap",
            "fig7_linreg_ds",
            "fig8_linreg_cg",
            "fig9_l2svm",
            "fig10_mlogreg",
            "fig11_glm",
            "fig12_throughput",
            "fig13_grids",
            "fig14_pruning",
            "fig15_adaptation",
            "fig18_parallel_opt",
            "table2_configs",
            "table3_overhead",
            "table5_spark",
            "table6_spark_throughput",
            "ablation_optimizer",
            "ablation_utilization",
            "fault_sweep",
        ]
    );
}
