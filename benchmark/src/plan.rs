//! The two simulated workloads: `plan_sweep` (submission path: analyze →
//! optimize → simulate at the chosen plan) and `adapt_faults` (§4 path:
//! simulate from the minimum configuration with re-optimization on, under
//! fault plans). Neither touches `matrix` or the VM.

use reml::cluster::ClusterConfig;
use reml::compiler::pipeline::{analyze_program, compile, AnalyzedProgram};
use reml::compiler::{CompileConfig, MrHeapAssignment};
use reml::cost::CostModel;
use reml::optimizer::{OptimizerConfig, ResourceConfig, ResourceOptimizer};
use reml::scripts::{all_scripts, DataShape, Scenario, ScriptSpec};
use reml::sim::{trace_to_json, AppOutcome, FaultPlan, SimConfig, SimFacts, Simulator};
use serde_json::Value;

use crate::harness::{
    expected_entry, num, obj, rel_close, stage, timed, Layers, TracedRun, Workload,
};
use crate::layers;
use crate::stats::{fnv1a, geomean, median};

const MIN_HEAP_MB: u64 = 512;

/// The script × scenario × shape grid both workloads draw classes from.
fn grid(scenarios: &[Scenario]) -> Vec<(usize, DataShape)> {
    let mut out = Vec::new();
    for script in 0..all_scripts().len() {
        for &scenario in scenarios {
            for shape in DataShape::paper_variants(scenario) {
                out.push((script, shape));
            }
        }
    }
    out
}

/// Smoke mode keeps every `SMOKE_STRIDE`-th class: the same code paths at
/// about a twentieth of a pass. 19 is coprime to the grid's periods, so the
/// kept classes still mix scripts, scenarios, shapes and fault plans.
const SMOKE_STRIDE: usize = 19;

fn thin<T>(classes: Vec<T>, smoke: bool) -> Vec<T> {
    if smoke {
        classes.into_iter().step_by(SMOKE_STRIDE).collect()
    } else {
        classes
    }
}

fn grid_label(script: &ScriptSpec, shape: &DataShape) -> String {
    format!(
        "{}/{}/{}",
        script.name,
        shape.scenario.name(),
        shape.label()
    )
}

/// What a simulated application reported, reduced to values that must
/// repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutput {
    pub elapsed_s: f64,
    pub mr_jobs: u64,
    pub recompilations: u64,
    pub migrations: u64,
    pub adaptations: u64,
    pub recoveries: u64,
    pub task_retries: u64,
    pub faults_injected: u64,
    pub causal_events: u64,
    /// FNV-1a of `trace_to_json(events)`.
    pub trace_digest: u64,
}

impl SimOutput {
    fn of(out: &AppOutcome) -> Self {
        SimOutput {
            elapsed_s: out.elapsed_s,
            mr_jobs: out.mr_jobs,
            recompilations: out.recompilations,
            migrations: u64::from(out.migrations),
            adaptations: out.adaptations.len() as u64,
            recoveries: u64::from(out.recoveries),
            task_retries: out.task_retries,
            faults_injected: out.faults_injected,
            causal_events: out.causal.len() as u64,
            trace_digest: fnv1a(trace_to_json(&out.events).as_bytes()),
        }
    }

    /// The counts, by the names they are recorded under.
    fn counts(&self) -> [(&'static str, u64); 8] {
        [
            ("mr_jobs", self.mr_jobs),
            ("recompilations", self.recompilations),
            ("migrations", self.migrations),
            ("adaptations", self.adaptations),
            ("recoveries", self.recoveries),
            ("task_retries", self.task_retries),
            ("faults_injected", self.faults_injected),
            ("causal_events", self.causal_events),
        ]
    }

    fn digest_hex(&self) -> String {
        format!("{:016x}", self.trace_digest)
    }

    fn to_value(&self) -> Value {
        let mut entries = vec![("elapsed_s", num(self.elapsed_s))];
        entries.extend(self.counts().map(|(key, count)| (key, num(count as f64))));
        entries.push(("trace_digest", Value::Str(self.digest_hex())));
        obj(entries)
    }

    /// Compare with a recorded reference: counts and digest exactly,
    /// simulated seconds at 1e-9.
    fn check_against(&self, want: &Value) -> Result<(), String> {
        if !rel_close(self.elapsed_s, want["elapsed_s"].as_f64(), 1e-9) {
            return Err(format!(
                "elapsed_s {} != recorded {:?}",
                self.elapsed_s, want["elapsed_s"]
            ));
        }
        for (key, got) in self.counts() {
            if want[key].as_u64() != Some(got) {
                return Err(format!("{key} {got} != recorded {:?}", want[key]));
            }
        }
        if want["trace_digest"].as_str() != Some(self.digest_hex().as_str()) {
            return Err(format!(
                "trace digest {} != recorded {:?}",
                self.digest_hex(),
                want["trace_digest"]
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- plan_sweep

struct SweepClass {
    script: usize,
    shape: DataShape,
    label: String,
}

pub struct PlanSweep {
    scripts: Vec<ScriptSpec>,
    cluster: ClusterConfig,
    classes: Vec<SweepClass>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutput {
    pub best: ResourceConfig,
    pub best_cost_s: f64,
    pub sim: SimOutput,
}

/// Another way of walking the optimizer's grid than the default: on both
/// vCPUs, or compiling every plan afresh.
fn grid_walks() -> [(&'static str, OptimizerConfig); 2] {
    [
        (
            "workers: nproc",
            OptimizerConfig {
                workers: std::thread::available_parallelism().map_or(2, |n| n.get().max(2)),
                ..OptimizerConfig::default()
            },
        ),
        (
            "plan_cache: false",
            OptimizerConfig {
                plan_cache: false,
                ..OptimizerConfig::default()
            },
        ),
    ]
}

impl PlanSweep {
    /// The optimizer alone on class `c` under `config`: its seconds, the
    /// plan it chose and that plan's cost.
    fn optimize_as(
        &self,
        c: usize,
        config: &OptimizerConfig,
    ) -> Result<(f64, ResourceConfig, f64), String> {
        let (analyzed, base) = self.analyzed_and_base(c)?;
        let mut optimizer = ResourceOptimizer::new(CostModel::new(self.cluster.clone()));
        optimizer.config = config.clone();
        let (seconds, result) = timed(|| optimizer.optimize(&analyzed, &base, None));
        let result = result.map_err(|e| format!("optimize: {e}"))?;
        Ok((seconds, result.best, result.best_cost_s))
    }

    fn analyzed_and_base(&self, c: usize) -> Result<(AnalyzedProgram, CompileConfig), String> {
        let class = &self.classes[c];
        let script = &self.scripts[class.script];
        let analyzed = analyze_program(&script.source).map_err(|e| format!("analyze: {e}"))?;
        let base = script.compile_config(
            class.shape,
            self.cluster.clone(),
            MIN_HEAP_MB,
            MrHeapAssignment::uniform(MIN_HEAP_MB),
        );
        Ok((analyzed, base))
    }
}

fn resources_value(r: &ResourceConfig) -> Value {
    obj(vec![
        ("cp_heap_mb", num(r.cp_heap_mb as f64)),
        ("mr_default_mb", num(r.mr_heap.default_mb as f64)),
        (
            "mr_per_block",
            Value::Array(
                r.mr_heap
                    .per_block
                    .iter()
                    .map(|(b, mb)| Value::Array(vec![num(*b as f64), num(*mb as f64)]))
                    .collect(),
            ),
        ),
    ])
}

impl Workload for PlanSweep {
    type Output = SweepOutput;
    const NAME: &'static str = "plan_sweep";
    const TAIL: f64 = 95.0;

    fn prepare(_seed: u64, smoke: bool) -> Self {
        let scripts = all_scripts();
        let classes = thin(grid(&Scenario::ALL), smoke)
            .into_iter()
            .map(|(script, shape)| SweepClass {
                script,
                shape,
                label: grid_label(&scripts[script], &shape),
            })
            .collect();
        PlanSweep {
            scripts,
            cluster: ClusterConfig::paper_cluster(),
            classes,
        }
    }

    fn classes(&self) -> usize {
        self.classes.len()
    }

    fn class_label(&self, c: usize) -> &str {
        &self.classes[c].label
    }

    /// analyze → config → optimize → simulate at the optimum.
    fn op(&self, c: usize) -> Result<(f64, SweepOutput), String> {
        let class = &self.classes[c];
        let script = &self.scripts[class.script];
        let (seconds, done) = timed(|| {
            let _op = reml::trace::span("bench.plan_sweep.op");
            let analyzed = stage("bench.stage.analyze", || analyze_program(&script.source))
                .map_err(|e| format!("analyze: {e}"))?;
            let base = stage("bench.stage.compile_config", || {
                script.compile_config(
                    class.shape,
                    self.cluster.clone(),
                    MIN_HEAP_MB,
                    MrHeapAssignment::uniform(MIN_HEAP_MB),
                )
            });
            let result = stage("bench.stage.optimize", || {
                ResourceOptimizer::new(CostModel::new(self.cluster.clone()))
                    .optimize(&analyzed, &base, None)
            })
            .map_err(|e| format!("optimize: {e}"))?;
            let outcome = stage("bench.stage.run_app", || {
                Simulator::new(self.cluster.clone()).run_app(
                    &analyzed,
                    &base,
                    &SimConfig::fixed(result.best.clone()),
                )
            })
            .map_err(|e| format!("run_app: {e}"))?;
            Ok::<_, String>((result, outcome))
        });
        let (result, outcome) = done?;
        Ok((
            seconds,
            SweepOutput {
                best: result.best,
                best_cost_s: result.best_cost_s,
                sim: SimOutput::of(&outcome),
            },
        ))
    }

    fn check(&self, c: usize, out: &SweepOutput) -> Result<(), String> {
        // The optimum can be no dearer than the minimum configuration,
        // compiled and costed here without the optimizer.
        let (analyzed, base) = self.analyzed_and_base(c)?;
        let floor = compile(&analyzed, &base).map_err(|e| format!("compile: {e}"))?;
        let floor_cost_s = CostModel::new(self.cluster.clone())
            .cost_program(&floor.runtime, MIN_HEAP_MB, &|_| MIN_HEAP_MB)
            .total_s();
        if out.best_cost_s > floor_cost_s * (1.0 + 1e-12) {
            return Err(format!(
                "best_cost_s {} exceeds the 512/512 plan's {floor_cost_s}",
                out.best_cost_s
            ));
        }
        // The plan chosen may not depend on how the grid is walked: the
        // op's serial, cached walk against the other two, bit for bit.
        for (walk, config) in grid_walks() {
            let (_, best, best_cost_s) = self.optimize_as(c, &config)?;
            if best != out.best || best_cost_s != out.best_cost_s {
                return Err(format!(
                    "{walk} chose {best:?} at {best_cost_s}, the default {:?} at {}",
                    out.best, out.best_cost_s
                ));
            }
        }
        let want = expected_entry(Self::NAME, self.class_label(c))?;
        if resources_value(&out.best) != want["best"] {
            return Err(format!(
                "best {:?} != recorded {:?}",
                out.best, want["best"]
            ));
        }
        if !rel_close(out.best_cost_s, want["best_cost_s"].as_f64(), 1e-9) {
            return Err(format!(
                "best_cost_s {} != recorded {:?}",
                out.best_cost_s, want["best_cost_s"]
            ));
        }
        out.sim.check_against(&want["sim"])
    }

    fn corrupt(out: &mut SweepOutput) {
        out.best.cp_heap_mb += 1;
    }

    fn output_value(&self, out: &SweepOutput) -> Value {
        obj(vec![
            ("best", resources_value(&out.best)),
            ("best_cost_s", num(out.best_cost_s)),
            ("sim", out.sim.to_value()),
        ])
    }

    fn sizes(&self) -> Value {
        obj(vec![
            ("classes", num(self.classes.len() as f64)),
            ("scripts", num(self.scripts.len() as f64)),
            ("scenarios", Value::Str("XS..XL".into())),
            (
                "shapes",
                Value::Str("dense1000 sparse1000 dense100 sparse100".into()),
            ),
        ])
    }

    fn layers(&self, run: &TracedRun<'_, SweepOutput>, out: &mut Layers) -> Result<(), String> {
        layers::front_end(&self.scripts, out);
        let programs = (0..self.classes.len())
            .map(|c| self.analyzed_and_base(c))
            .collect::<Result<Vec<_>, _>>()?;
        let borrowed: Vec<_> = programs.iter().map(|(a, b)| (a, b)).collect();
        layers::compile_stages(&borrowed, out)?;
        let sims: Vec<&SimOutput> = run.first.iter().map(|o| &o.sim).collect();
        let simulated_s = layers::sim_counts(run, &sims, out);
        layers::optimizer_counts(run, simulated_s, out);

        // What each way of walking the grid costs (that all three choose
        // the same plan is `check`'s business).
        let [(_, parallel), (_, nocache)] = grid_walks();
        let mut speedups = Vec::new();
        let mut slowdowns = Vec::new();
        for c in 0..self.classes.len() {
            let (serial_s, ..) = self.optimize_as(c, &OptimizerConfig::default())?;
            let (parallel_s, ..) = self.optimize_as(c, &parallel)?;
            let (nocache_s, ..) = self.optimize_as(c, &nocache)?;
            if self.classes[c].shape.scenario >= Scenario::L {
                speedups.push(serial_s / parallel_s);
            }
            slowdowns.push(nocache_s / serial_s);
        }
        if !speedups.is_empty() {
            out.set("optimizer.parallel_speedup", geomean(&speedups));
        }
        out.set("optimizer.nocache_slowdown", geomean(&slowdowns));
        layers::no_vm_time(run)
    }
}

// -------------------------------------------------------------- adapt_faults

struct AdaptClass {
    script: usize,
    base: CompileConfig,
    config: SimConfig,
    label: String,
    plan: &'static str,
    /// The script × scenario × shape cell, shared by its three fault plans.
    cell: usize,
}

pub struct AdaptFaults {
    scripts: Vec<ScriptSpec>,
    analyzed: Vec<AnalyzedProgram>,
    cluster: ClusterConfig,
    classes: Vec<AdaptClass>,
}

impl AdaptFaults {
    fn simulate(&self, c: usize, reopt: bool) -> Result<(f64, SimOutput), String> {
        let class = &self.classes[c];
        let config = SimConfig {
            reopt,
            ..class.config.clone()
        };
        let simulator = Simulator::new(self.cluster.clone());
        let (seconds, outcome) = timed(|| {
            let _op = reml::trace::span("bench.adapt_faults.op");
            stage("bench.stage.run_app", || {
                simulator.run_app(&self.analyzed[class.script], &class.base, &config)
            })
        });
        let outcome = outcome.map_err(|e| format!("run_app: {e}"))?;
        Ok((seconds, SimOutput::of(&outcome)))
    }
}

impl Workload for AdaptFaults {
    type Output = SimOutput;
    const NAME: &'static str = "adapt_faults";
    const TAIL: f64 = 95.0;

    fn prepare(_seed: u64, smoke: bool) -> Self {
        let scripts = all_scripts();
        let cluster = ClusterConfig::paper_cluster();
        let analyzed = scripts
            .iter()
            .map(|s| analyze_program(&s.source).expect("paper script analyzes"))
            .collect();
        let plans = [
            ("none", FaultPlan::none()),
            ("light", FaultPlan::light()),
            ("canonical", FaultPlan::canonical()),
        ];
        let mut classes = Vec::new();
        for (cell, (script, shape)) in grid(&Scenario::ALL[1..]).into_iter().enumerate() {
            let spec = &scripts[script];
            let base = spec.compile_config(
                shape,
                cluster.clone(),
                MIN_HEAP_MB,
                MrHeapAssignment::uniform(MIN_HEAP_MB),
            );
            let facts = SimFacts {
                table_cols: if spec.name == "GLM" { 20 } else { 5 },
                ..SimFacts::default()
            };
            for (plan, faults) in &plans {
                classes.push(AdaptClass {
                    script,
                    base: base.clone(),
                    config: SimConfig {
                        resources: ResourceConfig::uniform(MIN_HEAP_MB, MIN_HEAP_MB),
                        reopt: true,
                        facts: facts.clone(),
                        slot_availability: 1.0,
                        faults: faults.clone(),
                    },
                    label: format!("{}/{plan}", grid_label(spec, &shape)),
                    plan,
                    cell,
                });
            }
        }
        AdaptFaults {
            scripts,
            analyzed,
            cluster,
            classes: thin(classes, smoke),
        }
    }

    fn classes(&self) -> usize {
        self.classes.len()
    }

    fn class_label(&self, c: usize) -> &str {
        &self.classes[c].label
    }

    fn op(&self, c: usize) -> Result<(f64, SimOutput), String> {
        self.simulate(c, true)
    }

    fn check(&self, c: usize, out: &SimOutput) -> Result<(), String> {
        out.check_against(expected_entry(Self::NAME, self.class_label(c))?)
    }

    fn corrupt(out: &mut SimOutput) {
        out.trace_digest ^= 1;
    }

    fn output_value(&self, out: &SimOutput) -> Value {
        out.to_value()
    }

    fn sizes(&self) -> Value {
        obj(vec![
            ("classes", num(self.classes.len() as f64)),
            ("scripts", num(self.analyzed.len() as f64)),
            ("scenarios", Value::Str("S..XL".into())),
            ("fault_plans", Value::Str("none light canonical".into())),
            ("entry", Value::Str("512/512, reopt on".into())),
        ])
    }

    fn layers(&self, run: &TracedRun<'_, SimOutput>, out: &mut Layers) -> Result<(), String> {
        layers::front_end(&self.scripts, out);
        // Each script x scenario x shape cell once, not once per fault plan.
        let mut seen = std::collections::BTreeSet::new();
        let programs: Vec<_> = self
            .classes
            .iter()
            .filter(|class| seen.insert(class.cell))
            .map(|class| (&self.analyzed[class.script], &class.base))
            .collect();
        layers::compile_stages(&programs, out)?;
        let sims: Vec<&SimOutput> = run.first.iter().collect();
        let simulated_s = layers::sim_counts(run, &sims, out);
        layers::optimizer_counts(run, simulated_s, out);

        let mut reopt_extra_ms = Vec::new();
        let mut fault_extra_ms = Vec::new();
        for (c, class) in self.classes.iter().enumerate() {
            let (fixed, _) = self.simulate(c, false)?;
            reopt_extra_ms.push((run.class_s[c] - fixed) * 1e3);
            if class.plan == "canonical" {
                let benign = self
                    .classes
                    .iter()
                    .position(|other| other.cell == class.cell && other.plan == "none");
                if let Some(benign) = benign {
                    fault_extra_ms.push((run.class_s[c] - run.class_s[benign]) * 1e3);
                }
            }
        }
        out.set("sim.reopt_extra_ms", median(&reopt_extra_ms));
        if !fault_extra_ms.is_empty() {
            out.set("sim.fault_extra_ms", median(&fault_extra_ms));
        }
        layers::no_vm_time(run)
    }
}
