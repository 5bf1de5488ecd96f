//! # reml-bench — experiment harness
//!
//! One binary, `reml-bench <entry>… | all`, regenerates the paper's
//! evaluation (see DESIGN.md's experiment index) and runs the CI gates.
//! Every entry is a row of [`ENTRIES`]: a name and a function that
//! returns the tables it measured, or an error. [`run`] prints each
//! table, saves it as `results/<id>.json`, and turns any failure into a
//! non-zero exit code; `all` runs the nineteen paper experiments and then
//! writes their tables to `results/MEASURED.md`.
//!
//! The paper's absolute numbers came from a physical 1+6-node cluster;
//! here execution is the `reml-sim` substitute, so the *shape* of each
//! result (who wins, by roughly what factor, where crossovers fall) is
//! the reproduction target — EXPERIMENTS.md records the comparison.

#![forbid(unsafe_code)]

mod experiments;
mod insight_report;
mod planlint;
mod profile_report;
mod sizebound_audit;

use std::fmt::Write as _;
use std::path::Path;

use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, AnalyzedProgram};
use reml_compiler::{CompileConfig, MrHeapAssignment};
use reml_cost::CostModel;
use reml_optimizer::{OptimizationResult, ResourceConfig, ResourceOptimizer};
use reml_scripts::{DataShape, Scenario, ScriptSpec};
use reml_sim::{AppOutcome, FaultPlan, MemoryAuditReport, SimConfig, SimFacts, Simulator};

use experiments::*;

/// Why an entry failed.
pub type Error = Box<dyn std::error::Error>;

/// What an entry returns: the tables the runner prints and saves.
pub type Outcome = Result<Vec<ExperimentResult>, Error>;

/// One registry row: the name given on the command line and the
/// function that runs it.
pub struct Entry {
    /// Command-line name.
    pub name: &'static str,
    /// Whether `all` runs it: the paper experiments do; the CI gates do
    /// not (planlint's VM verifier and `profile_report`'s recorder are
    /// process-global).
    pub in_all: bool,
    /// The entry itself.
    pub run: fn() -> Outcome,
}

const fn experiment(name: &'static str, run: fn() -> Outcome) -> Entry {
    Entry {
        name,
        in_all: true,
        run,
    }
}

const fn gate(name: &'static str, run: fn() -> Outcome) -> Entry {
    Entry {
        name,
        in_all: false,
        run,
    }
}

/// Every entry, paper experiments in the order `all` runs them.
pub const ENTRIES: &[Entry] = &[
    experiment("table1_programs", table1_programs),
    experiment("fig1_heatmap", fig1_heatmap),
    experiment("fig7_linreg_ds", || {
        run_baseline_family(
            "fig7",
            reml_scripts::linreg_ds,
            true,
            SimFacts::default(),
            "on M dense1000 small-CP configurations are ~4x faster than single-node \
             compute; on sparse shapes in-memory plans win; Opt tracks the best baseline \
             everywhere and beats B-LL on L/XL via right-sized tasks.",
        )
    }),
    experiment("fig8_linreg_cg", || {
        run_baseline_family(
            "fig8",
            reml_scripts::linreg_cg,
            false,
            SimFacts::default(),
            "larger CP memory wins on S/M (read X once, iterate in memory); on L both CP \
             and MR budgets matter; Opt finds near-optimal configurations.",
        )
    }),
    experiment("fig9_l2svm", || {
        run_baseline_family(
            "fig9",
            reml_scripts::l2svm,
            false,
            SimFacts::default(),
            "iterative nested-loop program; large CP wins through M, mixed CP/MR on L; \
             Opt tracks the best baseline.",
        )
    }),
    // MLogreg carries table()-induced unknowns: initial resource
    // optimization is handicapped on the dense M shapes (the paper's "Opt
    // was not able to find the right configuration here due to unknowns
    // in the core loops") — Figure 15 shows adaptation fixing this.
    experiment("fig10_mlogreg", || {
        run_baseline_family(
            "fig10",
            reml_scripts::mlogreg,
            false,
            table_facts(5),
            "unknowns are the major problem on dense M; see fig15 for the \
             runtime-adaptation remedy.",
        )
    }),
    experiment("fig11_glm", || {
        run_baseline_family(
            "fig11",
            reml_scripts::glm,
            false,
            table_facts(20),
            "like MLogreg, GLM suffers unknowns on dense M, but a few known heavy \
             operations guard its initial CP size above the minimum.",
        )
    }),
    experiment("fig12_throughput", fig12_throughput),
    experiment("fig13_grids", fig13_grids),
    experiment("fig14_pruning", fig14_pruning),
    experiment("fig15_adaptation", fig15_adaptation),
    experiment("fig18_parallel_opt", fig18_parallel_opt),
    experiment("table2_configs", table2_configs),
    experiment("table3_overhead", table3_overhead),
    experiment("table5_spark", table5_spark),
    experiment("table6_spark_throughput", table6_spark_throughput),
    experiment("ablation_optimizer", ablation_optimizer),
    experiment("ablation_utilization", ablation_utilization),
    experiment("fault_sweep", fault_sweep),
    gate("planlint", planlint::run),
    gate("sizebound_audit", sizebound_audit::run),
    gate("insight_report", insight_report::run),
    gate("profile_report", profile_report::profile),
    gate("trace_overhead", profile_report::trace_overhead),
    gate("calibrate", profile_report::calibrate),
];

/// Run the entries named in `args` in order — `all` runs every
/// [`Entry::in_all`] entry and then hands their tables to `after_all` —
/// and return the exit code: 0 when everything succeeded, 1 when any
/// entry failed (the rest still run), 2 when `args` is empty or names no
/// entry.
pub fn run(
    args: &[String],
    entries: &[Entry],
    after_all: fn(&[ExperimentResult]) -> Result<(), Error>,
) -> u8 {
    let known = |arg: &String| arg == "all" || entries.iter().any(|e| e.name == arg);
    if args.is_empty() || !args.iter().all(known) {
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        eprintln!(
            "usage: reml-bench <entry>… | all\nentries: {}",
            names.join(" ")
        );
        return 2;
    }
    let mut failed = Vec::new();
    for arg in args {
        if arg == "all" {
            let results: Vec<ExperimentResult> = entries
                .iter()
                .filter(|e| e.in_all)
                .flat_map(|e| run_entry(e, &mut failed))
                .collect();
            if let Err(e) = after_all(&results) {
                eprintln!("!! all failed: {e}");
                failed.push("all");
            }
        } else if let Some(entry) = entries.iter().find(|e| e.name == arg) {
            run_entry(entry, &mut failed);
        }
    }
    if failed.is_empty() {
        return 0;
    }
    eprintln!("\nreml-bench: failed: {}", failed.join(", "));
    1
}

/// Run one entry, print and save its tables, and return them (none when
/// it failed, after recording its name in `failed`).
fn run_entry(entry: &Entry, failed: &mut Vec<&'static str>) -> Vec<ExperimentResult> {
    println!("\n############ {} ############", entry.name);
    let saved = (entry.run)().and_then(|results| {
        for result in &results {
            result.print();
            let json = serde_json::to_string_pretty(result)?;
            write_artifact(&format!("{}.json", result.id), json)?;
        }
        Ok(results)
    });
    saved.unwrap_or_else(|e| {
        eprintln!("!! {} failed: {e}", entry.name);
        failed.push(entry.name);
        Vec::new()
    })
}

/// Write `results/<name>` (the bytes exactly as given) under the
/// workspace root, located at compile time from this crate's manifest.
pub fn write_artifact(name: &str, bytes: impl AsRef<[u8]>) -> Result<(), Error> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), bytes)?;
    println!("wrote results/{name}");
    Ok(())
}

/// Write `results/MEASURED.md`: every table of an `all` run as
/// markdown, ordered by artifact file name.
pub fn write_measured(results: &[ExperimentResult]) -> Result<(), Error> {
    let mut sorted: Vec<&ExperimentResult> = results.iter().collect();
    sorted.sort_by_key(|r| format!("{}.json", r.id));
    let mut md = String::from("<!-- generated by reml-bench all; do not edit below -->\n");
    for result in sorted {
        writeln!(md, "\n### {} — {}\n", result.id, result.title)?;
        if let Some(first) = result.rows.first() {
            let cols: Vec<&str> = first.values.iter().map(|(c, _)| c.as_str()).collect();
            writeln!(md, "| | {} |", cols.join(" | "))?;
            writeln!(md, "|---|{}|", vec!["---:"; cols.len()].join("|"))?;
            for row in &result.rows {
                let vals: Vec<String> = row.values.iter().map(|(_, v)| format!("{v:.2}")).collect();
                writeln!(md, "| {} | {} |", row.label, vals.join(" | "))?;
            }
        }
        if !result.notes.is_empty() {
            writeln!(md, "\n*{}*", result.notes)?;
        }
    }
    write_artifact("MEASURED.md", md)
}

/// The §5.1 static baselines: minimum, large-CP, large-MR, and both.
/// 53.3 GB is the largest CP container request; 4.4 GB tasks are the
/// largest that keep all 12 cores per node busy.
pub(crate) fn baselines(cluster: &ClusterConfig) -> Vec<(&'static str, ResourceConfig)> {
    let max_cp = cluster.max_heap_mb();
    let max_mr = (4.4 * 1024.0) as u64;
    vec![
        ("B-SS", ResourceConfig::uniform(512, 512)),
        ("B-LS", ResourceConfig::uniform(max_cp, 512)),
        ("B-SL", ResourceConfig::uniform(512, max_mr)),
        ("B-LL", ResourceConfig::uniform(max_cp, max_mr)),
    ]
}

/// The paper's dense, 1,000-column data shape at `scenario`.
pub(crate) fn dense1000(scenario: Scenario) -> DataShape {
    DataShape {
        scenario,
        cols: 1000,
        sparsity: 1.0,
    }
}

/// Default simulator facts with `table()` outputs of `table_cols` columns.
pub(crate) fn table_facts(table_cols: u64) -> SimFacts {
    SimFacts {
        table_cols,
        ..SimFacts::default()
    }
}

/// The differential memory-soundness audit on real executions of the
/// five paper scripts, at `reml_calibrate::paper_runs`' shapes.
pub(crate) fn audit_paper_scripts() -> Vec<MemoryAuditReport> {
    reml_calibrate::paper_runs()
        .iter()
        .map(|r| reml_sim::memory_soundness_audit(&(r.ctor)(), r.rows, r.cols, r.label, r.params))
        .collect()
}

/// A prepared workload: analyzed program + base compile config.
pub(crate) struct Workload {
    /// The script.
    pub script: ScriptSpec,
    /// Data shape.
    pub shape: DataShape,
    /// Analyzed program.
    pub analyzed: AnalyzedProgram,
    /// Base configuration (params/inputs bound; heaps are placeholders).
    pub base: CompileConfig,
    /// Cluster.
    pub cluster: ClusterConfig,
}

impl Workload {
    /// Prepare a workload on the paper cluster.
    pub fn new(script: ScriptSpec, shape: DataShape) -> Result<Self, Error> {
        let cluster = ClusterConfig::paper_cluster();
        let analyzed = analyze_program(&script.source)?;
        let base =
            script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
        Ok(Workload {
            script,
            shape,
            analyzed,
            base,
            cluster,
        })
    }

    /// Run the resource optimizer with its default configuration.
    pub fn optimize(&self) -> Result<OptimizationResult, Error> {
        let optimizer = ResourceOptimizer::new(CostModel::new(self.cluster.clone()));
        Ok(optimizer.optimize(&self.analyzed, &self.base, None)?)
    }

    /// Simulate an execution under fixed resources on an idle cluster.
    pub fn measure(
        &self,
        resources: ResourceConfig,
        reopt: bool,
        facts: SimFacts,
        faults: FaultPlan,
    ) -> Result<AppOutcome, Error> {
        let config = SimConfig {
            resources,
            reopt,
            facts,
            slot_availability: 1.0,
            faults,
        };
        let sim = Simulator::new(self.cluster.clone());
        Ok(sim.run_app(&self.analyzed, &self.base, &config)?)
    }
}

/// One emitted experiment row (label → numeric series).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ExperimentRow {
    /// Row label (e.g. a configuration name).
    pub label: String,
    /// Column values keyed by column label.
    pub values: Vec<(String, f64)>,
}

/// A complete experiment result for JSON emission.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ExperimentResult {
    /// Experiment id (e.g. "fig7a"); the runner saves `results/<id>.json`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Rows.
    pub rows: Vec<ExperimentRow>,
    /// Free-form notes (paper-vs-measured commentary).
    pub notes: String,
}

impl ExperimentResult {
    /// New result.
    pub fn new(id: &str, title: &str) -> Self {
        ExperimentResult {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
            notes: String::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<(String, f64)>) {
        self.rows.push(ExperimentRow {
            label: label.into(),
            values,
        });
    }

    /// Print as an aligned table.
    pub fn print(&self) {
        println!("== {} — {} ==", self.id, self.title);
        if self.rows.is_empty() {
            println!("(no rows)");
            return;
        }
        print!("{:<18}", "");
        for (c, _) in &self.rows[0].values {
            print!("{c:>14}");
        }
        println!();
        for row in &self.rows {
            print!("{:<18}", truncate(&row.label, 18));
            for (_, v) in &row.values {
                if v.abs() >= 1000.0 {
                    print!("{v:>14.0}");
                } else {
                    print!("{v:>14.2}");
                }
            }
            println!();
        }
        if !self.notes.is_empty() {
            println!("note: {}", self.notes);
        }
        println!();
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n - 1])
    }
}

/// Run the standard end-to-end baseline comparison (the Figure 7–11
/// family) for one script/shape family: one result per data shape.
/// `paper_shape` is the paper's finding, printed for comparison.
pub(crate) fn run_baseline_family(
    fig_id: &str,
    script_ctor: fn() -> ScriptSpec,
    include_xl: bool,
    facts: SimFacts,
    paper_shape: &str,
) -> Outcome {
    let shapes = [
        (1000u64, 1.0f64, "a_dense1000"),
        (1000, 0.01, "b_sparse1000"),
        (100, 1.0, "c_dense100"),
        (100, 0.01, "d_sparse100"),
    ];
    // XL only for Figure 7(e).
    let scenarios = if include_xl {
        &Scenario::ALL[..]
    } else {
        &Scenario::ALL[..4]
    };
    println!("Paper shape: {paper_shape}");
    let mut out = Vec::new();
    for (cols, sparsity, suffix) in shapes {
        let mut result = ExperimentResult::new(
            &format!("{fig_id}{}", &suffix[..1]),
            &format!("{} end-to-end [s], {}", script_ctor().name, &suffix[2..]),
        );
        for &scenario in scenarios {
            // XL sparse/medium shapes are allowed; keep symmetric.
            let shape = DataShape {
                scenario,
                cols,
                sparsity,
            };
            let wl = Workload::new(script_ctor(), shape)?;
            let mut values = Vec::new();
            for (label, resources) in baselines(&wl.cluster) {
                let t = wl.measure(resources, false, facts.clone(), FaultPlan::none())?;
                values.push((label.to_string(), t.elapsed_s));
            }
            let opt = wl.optimize()?;
            let t = wl.measure(opt.best.clone(), false, facts.clone(), FaultPlan::none())?;
            values.push((
                "Opt".to_string(),
                t.elapsed_s + opt.stats.opt_time.as_secs_f64(),
            ));
            result.push_row(scenario.name(), values);
        }
        out.push(result);
    }
    Ok(out)
}
