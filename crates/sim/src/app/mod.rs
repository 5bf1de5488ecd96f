//! Single-application execution simulation.
//!
//! The simulator interprets the statement-block hierarchy directly,
//! mirroring SystemML's runtime: every generic block is (re)compiled with
//! the *actual* variable sizes right before execution (dynamic
//! recompilation semantics), timed with the measured model (analytic
//! phases + buffer-pool evictions + seeded jitter), and — when runtime
//! adaptation is enabled — blocks that were initially marked unknown and
//! still compile to MR jobs trigger the §4 re-optimization/migration
//! loop.
//!
//! Every simulated second is charged once, to the run's ledger
//! ([`CausalTrace`]); [`AppOutcome`] holds counts plus views derived
//! from that ledger. The module splits along what gets charged:
//!
//! * this file — configuration, the outcome, [`Simulator::run_app`] and
//!   the walk over statement blocks;
//! * `timing` — per-instruction charges: cost-model phases, MR jitter,
//!   buffer-pool evictions and restores, the OOM watermark check;
//! * `faults` — AM kills and MR-scoped faults (rework, requeue delays,
//!   lost capacity);
//! * `adapt` — §4 runtime adaptation and the re-optimization helpers it
//!   shares with AM-kill recovery.

mod adapt;
mod faults;
mod timing;

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use reml_cluster::ClusterConfig;
use reml_compiler::build::Env;
use reml_compiler::pipeline::{
    compile, compile_block_with_env, fold_predicate_with_env, propagate_blocks_env, AnalyzedProgram,
};
use reml_compiler::{CompileConfig, CompileError};
use reml_cost::{CostModel, VarStates};
use reml_lang::{BlockId, StatementBlock, StatementBlockKind};
use reml_optimizer::ResourceConfig;
use reml_runtime::program::RtBlock;
use reml_runtime::{BufferPool, Instruction};

use crate::causal::{Bucket, CausalKind, CausalTrace, Comp};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, TraceEvent, TracedEvent};

/// Iterations assumed for loops without a static bound (inner
/// line-search loops converge in a few steps).
const DEFAULT_INNER_ITERATIONS: u64 = 3;
/// Local-disk write bandwidth for buffer-pool evictions, MB/s.
const LOCAL_DISK_WRITE_MBS: f64 = 120.0;
/// Local-disk read bandwidth for buffer-pool restores, MB/s.
const LOCAL_DISK_READ_MBS: f64 = 180.0;

/// Data-dependent facts the simulator resolves at "runtime" — the values
/// the compiler could not know statically.
#[derive(Debug, Clone)]
pub struct SimFacts {
    /// Actual column count of `table()` outputs (number of classes/bins).
    pub table_cols: u64,
    /// Maximum relative jitter applied to MR-job times (deterministic,
    /// seeded).
    pub jitter: f64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for SimFacts {
    fn default() -> Self {
        SimFacts {
            table_cols: 2,
            jitter: 0.10,
            seed: 42,
        }
    }
}

/// Per-application simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Initial resource configuration (from the optimizer or a baseline).
    pub resources: ResourceConfig,
    /// Enable §4 runtime resource adaptation.
    pub reopt: bool,
    /// Runtime facts.
    pub facts: SimFacts,
    /// Fraction of MR slots available to this application (1.0 = idle
    /// cluster); models multi-tenant load for utilization-aware
    /// adaptation (§6).
    pub slot_availability: f64,
    /// Deterministic fault schedule ([`FaultPlan::none`] = benign run).
    pub faults: FaultPlan,
}

impl SimConfig {
    /// Static configuration on an idle cluster.
    pub fn fixed(resources: ResourceConfig) -> Self {
        SimConfig {
            resources,
            reopt: false,
            facts: SimFacts::default(),
            slot_availability: 1.0,
            faults: FaultPlan::none(),
        }
    }

    /// Refuse values that would put NaN or ∞ on the clock or silently
    /// drop charges: slot availability in (0, 1], finite non-negative
    /// jitter.
    fn check_ranges(&self) -> Result<(), CompileError> {
        let refuse = |field: &str, value: f64, range: &str| {
            Err(CompileError::Unsupported(format!(
                "SimConfig.{field} = {value} is outside {range}"
            )))
        };
        let (avail, jitter) = (self.slot_availability, self.facts.jitter);
        if !(avail > 0.0 && avail <= 1.0) {
            return refuse("slot_availability", avail, "(0, 1]");
        }
        if !(jitter.is_finite() && jitter >= 0.0) {
            return refuse("facts.jitter", jitter, "[0, ∞)");
        }
        Ok(())
    }
}

/// Measured outcome of one application.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// End-to-end measured time, seconds (excluding initial optimizer
    /// overhead, which the caller adds): the ledger's final clock.
    pub elapsed_s: f64,
    /// MR jobs executed.
    pub mr_jobs: u64,
    /// AM migrations performed.
    pub migrations: u32,
    /// Dynamic recompilations (per-block compiles at runtime).
    pub recompilations: u64,
    /// Resources at program end.
    pub final_resources: ResourceConfig,
    /// One entry per runtime re-optimization decision (§4 trace).
    pub adaptations: Vec<AdaptationEvent>,
    /// AM restarts after injected kills.
    pub recoveries: u32,
    /// Task containers re-queued after preemptions/node losses.
    pub task_retries: u64,
    /// Faults injected from the plan.
    pub faults_injected: u64,
    /// Structured fault/recovery/adaptation trace (the replay contract).
    pub events: Vec<TracedEvent>,
    /// The ledger: every charged second as one node, plus the
    /// per-component totals (the `reml_insight` attribution substrate).
    pub causal: CausalTrace,
}

impl AppOutcome {
    /// Seconds attributable to injected faults (re-execution, backoff,
    /// restarts, OOM-wasted attempts) — informational; already included
    /// in `elapsed_s`. The work of every [`CausalKind::Fault`] node plus
    /// the `wasted_s` of every [`TraceEvent::Oom`], whose failed attempt
    /// was charged as ordinary work while it ran.
    pub fn fault_rework_s(&self) -> f64 {
        let faults = self
            .causal
            .nodes
            .iter()
            .filter(|n| n.kind == CausalKind::Fault);
        let ooms = self.events.iter().filter_map(|e| match e.event {
            TraceEvent::Oom { wasted_s, .. } => Some(wasted_s),
            _ => None,
        });
        // From +0.0, so a fault-free run reports 0 rather than -0.
        faults
            .map(|n| n.serial_s)
            .chain(ooms)
            .fold(0.0, |sum, s| sum + s)
    }
}

/// Trace record of one runtime re-optimization decision.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct AdaptationEvent {
    /// Statement block that triggered re-optimization.
    pub block: usize,
    /// Whether the AM migrated.
    pub migrated: bool,
    /// Globally optimal CP heap found, MB.
    pub global_cp_mb: u64,
    /// Estimated benefit ΔC, seconds.
    pub delta_cost_s: f64,
    /// Estimated migration cost C_M, seconds.
    pub migration_cost_s: f64,
}

/// The execution simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Cluster description.
    pub cluster: ClusterConfig,
}

impl Simulator {
    /// Simulator over a cluster.
    pub fn new(cluster: ClusterConfig) -> Self {
        Simulator { cluster }
    }

    /// Run one application end to end.
    ///
    /// `base` supplies params and input metadata (heap fields ignored).
    /// Out-of-range `sim` values are refused with
    /// [`CompileError::Unsupported`] before any work.
    pub fn run_app(
        &self,
        analyzed: &AnalyzedProgram,
        base: &CompileConfig,
        sim: &SimConfig,
    ) -> Result<AppOutcome, CompileError> {
        sim.check_ranges()?;
        // Initial compile at the initial resources: recompile markers and
        // loop-iteration hints.
        let initial = compile(analyzed, &self.config_for(base, &sim.resources, None))?;
        let mut marked: HashSet<usize> = HashSet::new();
        let mut hints: HashMap<usize, u64> = HashMap::new();
        collect_markers(&initial.runtime.blocks, &mut marked, &mut hints);

        let mut state = SimState {
            sim: self,
            analyzed,
            base,
            facts: sim.facts.clone(),
            reopt: sim.reopt,
            resources: sim.resources.clone(),
            cfg: self.config_for(base, &sim.resources, Some(sim.facts.table_cols)),
            cost_model: CostModel::with_slot_availability(
                self.cluster.clone(),
                sim.slot_availability,
            ),
            env: Env::new(),
            var_states: VarStates::new(),
            pool: BufferPool::new(pool_capacity_bytes(&self.cluster, sim.resources.cp_heap_mb)),
            rng: StdRng::seed_from_u64(sim.facts.seed),
            marked,
            hints,
            adapted: HashSet::new(),
            injector: FaultInjector::new(
                sim.faults.clone(),
                self.cluster.clone(),
                sim.resources.cp_heap_mb,
            ),
            outcome: AppOutcome {
                elapsed_s: 0.0,
                mr_jobs: 0,
                migrations: 0,
                recompilations: 0,
                final_resources: sim.resources.clone(),
                adaptations: Vec::new(),
                recoveries: 0,
                task_retries: 0,
                faults_injected: 0,
                events: Vec::new(),
                causal: CausalTrace::new(),
            },
        };
        // Application start: CP AM container allocation.
        state.outcome.causal.charge(
            Comp::Latency,
            Bucket::SchedulingDelay,
            CausalKind::Container,
            "am.alloc",
            self.cluster.container_alloc_latency_s,
            1,
        );
        state.sync_trace_clock();
        let _app_span = reml_trace::span!(
            "sim.app",
            cp_heap_mb = sim.resources.cp_heap_mb,
            blocks = analyzed.blocks.len()
        );
        state.injector.record(
            state.outcome.causal.now(),
            TraceEvent::AppStart {
                cp_heap_mb: sim.resources.cp_heap_mb,
            },
        );
        state.sim_blocks(&analyzed.blocks)?;
        state.sync_trace_clock();
        let mut injector = state.injector;
        let mut outcome = state.outcome;
        outcome.final_resources = state.resources;
        outcome.task_retries = injector.task_retries;
        outcome.faults_injected = injector.faults_injected;
        outcome.elapsed_s = outcome.causal.now();
        injector.record(
            outcome.elapsed_s,
            TraceEvent::Outcome {
                elapsed_s: outcome.elapsed_s,
                mr_jobs: outcome.mr_jobs,
                migrations: outcome.migrations,
                recoveries: outcome.recoveries,
                task_retries: outcome.task_retries,
                recompilations: outcome.recompilations,
                faults_injected: outcome.faults_injected,
                final_cp_mb: outcome.final_resources.cp_heap_mb,
            },
        );
        outcome.events = injector.events;
        Ok(outcome)
    }

    fn config_for(
        &self,
        base: &CompileConfig,
        resources: &ResourceConfig,
        table_cols_hint: Option<u64>,
    ) -> CompileConfig {
        let mut cfg = base.clone();
        cfg.cp_heap_mb = resources.cp_heap_mb;
        cfg.mr_heap = resources.mr_heap.clone();
        cfg.table_cols_hint = table_cols_hint;
        cfg
    }
}

/// Buffer-pool capacity for a CP heap: its memory budget, in bytes.
fn pool_capacity_bytes(cluster: &ClusterConfig, cp_heap_mb: u64) -> u64 {
    cluster.budget_mb_for_heap(cp_heap_mb) * 1024 * 1024
}

struct SimState<'a> {
    sim: &'a Simulator,
    analyzed: &'a AnalyzedProgram,
    base: &'a CompileConfig,
    facts: SimFacts,
    reopt: bool,
    resources: ResourceConfig,
    /// The compile configuration of `resources`: the base's params and
    /// inputs with the actual `table()` width. Rebuilt only when the
    /// resources change ([`SimState::apply_target`]).
    cfg: CompileConfig,
    cost_model: CostModel,
    env: Env,
    var_states: VarStates,
    /// The CP buffer pool over variable byte sizes.
    pool: BufferPool<u64>,
    rng: StdRng,
    marked: HashSet<usize>,
    hints: HashMap<usize, u64>,
    adapted: HashSet<usize>,
    injector: FaultInjector,
    outcome: AppOutcome,
}

/// Flat time cost of evaluating a predicate (scalar CP work).
const PREDICATE_COST_S: f64 = 1e-4;

impl<'a> SimState<'a> {
    /// Advance the global trace recorder's virtual clock (when one is
    /// installed on sim time) to the current simulated timestamp, so span
    /// begin/end records carry meaningful — and reproducible — times.
    fn sync_trace_clock(&self) {
        if let Some(t) = reml_trace::sim_time() {
            t.set_seconds(self.outcome.causal.now());
        }
    }

    /// Flat charge for evaluating a control-flow predicate.
    fn charge_predicate(&mut self) {
        self.outcome.causal.charge(
            Comp::Compute,
            Bucket::Compute,
            CausalKind::Cp,
            "predicate",
            PREDICATE_COST_S,
            1,
        );
    }

    /// Iterations to simulate for the loop at `id`: the compiler's hint,
    /// else the scenario default. A count the executors would refuse with
    /// `ExecError::RunawayLoop` is refused here too, instead of spinning.
    fn loop_iterations(&self, id: BlockId) -> Result<u64, CompileError> {
        let iters = self
            .hints
            .get(&id.0)
            .copied()
            .unwrap_or(DEFAULT_INNER_ITERATIONS)
            .max(1);
        if iters > reml_runtime::MAX_LOOP_ITERATIONS as u64 {
            return Err(CompileError::Unsupported(format!(
                "loop of {iters} iterations exceeds the runtime's limit of {}",
                reml_runtime::MAX_LOOP_ITERATIONS
            )));
        }
        Ok(iters)
    }

    fn sim_blocks(&mut self, blocks: &'a [StatementBlock]) -> Result<(), CompileError> {
        for block in blocks {
            match &block.kind {
                StatementBlockKind::Generic { .. } => self.sim_generic(block.id)?,
                StatementBlockKind::If {
                    pred,
                    then_blocks,
                    else_blocks,
                } => {
                    self.charge_predicate();
                    let konst = fold_predicate_with_env(&self.cfg, pred, &self.env)?;
                    match konst.and_then(|v| v.as_bool()) {
                        Some(true) => self.sim_blocks(then_blocks)?,
                        Some(false) => self.sim_blocks(else_blocks)?,
                        None => {
                            // Unknown predicate (typically a convergence
                            // check): execute the else branch, but merge
                            // the then branch's definitions into the
                            // environment so later compiles see them.
                            let mut then_env = self.env.clone();
                            propagate_blocks_env(&self.cfg, then_blocks, &mut then_env)?;
                            self.sim_blocks(else_blocks)?;
                            self.env =
                                reml_compiler::build::merge_env_branches(&then_env, &self.env);
                        }
                    }
                }
                StatementBlockKind::While { body, .. } => {
                    for _ in 0..self.loop_iterations(block.id)? {
                        self.charge_predicate();
                        self.sim_blocks(body)?;
                    }
                    self.charge_predicate(); // final check
                }
                StatementBlockKind::For { var, body, .. } => {
                    self.env
                        .insert(var.as_str().into(), reml_compiler::build::VarInfo::scalar());
                    for _ in 0..self.loop_iterations(block.id)? {
                        self.sim_blocks(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn sim_generic(&mut self, id: BlockId) -> Result<(), CompileError> {
        self.outcome.causal.enter_block(id.0);
        self.sync_trace_clock();
        let _block_span = reml_trace::span!("sim.block", block = id.0);
        // Counter samples at block granularity: memory pressure and RM
        // container population, so utilization lanes line up with the
        // buffer pool in the trace viewer. Block-boundary cadence keeps
        // the record volume far below any reasonable ring capacity.
        reml_trace::counter("sim.pool_resident_bytes", self.pool.resident_bytes() as f64);
        reml_trace::counter(
            "sim.live_containers",
            self.injector.rm.num_containers() as f64,
        );
        // Fault hook: statement-block boundary. A deferred (mid-job) AM
        // kill is processed here, and recompilation-triggered faults for
        // the upcoming recompile index fire now.
        let mut am_kill = self.injector.take_deferred_am_kill();
        let mut oom_watermark: Option<f64> = None;
        for kind in self
            .injector
            .take_recompile_faults(self.outcome.recompilations)
        {
            match kind {
                FaultKind::AmKill => am_kill = true,
                FaultKind::TaskOom { watermark_frac } => oom_watermark = Some(watermark_frac),
                _ => {}
            }
        }
        if am_kill {
            self.handle_am_kill(id)?;
        }

        // Dynamic recompilation: compile with actual sizes.
        let mut probe_env = self.env.clone();
        let (mut instructions, ..) =
            compile_block_with_env(self.analyzed, &self.cfg, id, &mut probe_env)?;
        self.outcome.recompilations += 1;
        self.outcome.causal.mark_recompile("recompile");

        // Runtime adaptation trigger (§4.1): the block was initially
        // marked, recompilation produced MR jobs, and we have not adapted
        // at this block before.
        let has_mr = instructions.iter().any(Instruction::is_mr);
        reml_trace::event!("sim.recompile", block = id.0, has_mr = has_mr);
        let mut resources_changed = false;
        if self.reopt && has_mr && self.marked.contains(&id.0) && !self.adapted.contains(&id.0) {
            let before = self.resources.clone();
            self.adapted.insert(id.0);
            self.adapt(id)?;
            resources_changed = self.resources != before;
        }

        // Execute — recompiled first if adaptation changed the resources;
        // otherwise the compile above is the one a second would repeat.
        let env_snapshot = oom_watermark.map(|_| self.env.clone());
        if resources_changed {
            (instructions, ..) =
                compile_block_with_env(self.analyzed, &self.cfg, id, &mut self.env)?;
        } else {
            self.env = probe_env;
        }
        let mr_heap = self.resources.mr_heap.for_block(id.0);
        let mut temps = Vec::new();
        let attempt_start = self.outcome.causal.now();
        if let Some((op, needed_mb, budget_mb)) =
            self.run_instructions(&instructions, mr_heap, oom_watermark, &mut temps)
        {
            // OOM: the attempt's work so far is wasted (its charges stay —
            // that work really happened). Forced recompilation to a
            // distributed plan: compile with a minimal CP heap so every
            // memory-sensitive operator goes MR, then re-execute the
            // whole block.
            let now = self.outcome.causal.now();
            self.injector.record(
                now,
                TraceEvent::Oom {
                    block: id.0,
                    op: op.to_string(),
                    needed_mb,
                    budget_mb,
                    wasted_s: now - attempt_start,
                },
            );
            self.env = env_snapshot.expect("snapshot exists when watermark armed");
            let mut forced = self.cfg.clone();
            forced.cp_heap_mb = self.sim.cluster.min_heap_mb();
            let (instructions, ..) =
                compile_block_with_env(self.analyzed, &forced, id, &mut self.env)?;
            self.outcome.recompilations += 1;
            self.outcome.causal.mark_recompile("oom.recompile");
            self.injector.record(
                self.outcome.causal.now(),
                TraceEvent::OomRecompile {
                    block: id.0,
                    mr_jobs: instructions.iter().filter(|i| i.is_mr()).count() as u64,
                },
            );
            self.run_instructions(&instructions, mr_heap, None, &mut temps);
        }
        // Block-scope temporaries die at block end (rmvar semantics).
        for t in temps {
            self.pool.remove(&t);
        }
        self.sync_trace_clock();
        Ok(())
    }
}

/// Collect recompile markers and loop hints from a compiled program.
fn collect_markers(
    blocks: &[RtBlock],
    marked: &mut HashSet<usize>,
    hints: &mut HashMap<usize, u64>,
) {
    for top in blocks {
        top.walk(&mut |b| match b {
            RtBlock::Generic {
                source,
                requires_recompile: true,
                ..
            } => {
                marked.insert(source.0);
            }
            RtBlock::While {
                source,
                max_iter_hint: Some(h),
                ..
            }
            | RtBlock::For {
                source,
                iterations_hint: Some(h),
                ..
            } => {
                hints.insert(source.0, *h);
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_compiler::pipeline::analyze_program;
    use reml_compiler::MrHeapAssignment;
    use reml_scripts::{DataShape, Scenario};

    fn sim() -> Simulator {
        Simulator::new(ClusterConfig::paper_cluster())
    }

    fn setup(
        script: &reml_scripts::ScriptSpec,
        scenario: Scenario,
        cols: u64,
        sparsity: f64,
    ) -> (AnalyzedProgram, CompileConfig) {
        let shape = DataShape {
            scenario,
            cols,
            sparsity,
        };
        let cfg = script.compile_config(
            shape,
            ClusterConfig::paper_cluster(),
            512,
            MrHeapAssignment::uniform(512),
        );
        (analyze_program(&script.source).unwrap(), cfg)
    }

    fn run(
        script: &reml_scripts::ScriptSpec,
        scenario: Scenario,
        cols: u64,
        sparsity: f64,
        resources: ResourceConfig,
        reopt: bool,
    ) -> AppOutcome {
        let (analyzed, base) = setup(script, scenario, cols, sparsity);
        let facts = SimFacts {
            table_cols: 5,
            ..SimFacts::default()
        };
        sim()
            .run_app(
                &analyzed,
                &base,
                &SimConfig {
                    resources,
                    reopt,
                    facts,
                    slot_availability: 1.0,
                    faults: FaultPlan::none(),
                },
            )
            .unwrap()
    }

    #[test]
    fn linreg_ds_small_data_fast_in_cp() {
        // XS data with a large CP heap: pure in-memory, no MR jobs.
        let out = run(
            &reml_scripts::linreg_ds(),
            Scenario::XS,
            100,
            1.0,
            ResourceConfig::uniform(8 * 1024, 2 * 1024),
            false,
        );
        assert_eq!(out.mr_jobs, 0);
        assert!(out.elapsed_s < 30.0, "{}", out.elapsed_s);
    }

    #[test]
    fn small_heap_on_medium_data_spawns_mr_jobs() {
        let out = run(
            &reml_scripts::linreg_ds(),
            Scenario::M,
            1000,
            1.0,
            ResourceConfig::uniform(512, 2 * 1024),
            false,
        );
        assert!(out.mr_jobs > 0);
        assert!(out.causal.component_s(Comp::Latency) > 15.0);
    }

    #[test]
    fn cg_large_cp_beats_small_cp_on_medium_dense() {
        // The Figure 1 contrast, measured: CG with a big CP heap reads X
        // once; with a tiny heap it pays MR latency every iteration.
        let script = reml_scripts::linreg_cg();
        let small = run(
            &script,
            Scenario::M,
            1000,
            1.0,
            ResourceConfig::uniform(512, 2 * 1024),
            false,
        );
        let big = run(
            &script,
            Scenario::M,
            1000,
            1.0,
            ResourceConfig::uniform(16 * 1024, 2 * 1024),
            false,
        );
        assert!(
            big.elapsed_s < small.elapsed_s,
            "big {} vs small {}",
            big.elapsed_s,
            small.elapsed_s
        );
        assert_eq!(big.mr_jobs, 0);
    }

    #[test]
    fn ds_small_cp_beats_huge_cp_on_medium_dense1000() {
        // DS is compute-bound: distributed plans win (§5.2 Figure 7(a)).
        let script = reml_scripts::linreg_ds();
        let small = run(
            &script,
            Scenario::M,
            1000,
            1.0,
            ResourceConfig::uniform(512, 2 * 1024),
            false,
        );
        let huge = run(
            &script,
            Scenario::M,
            1000,
            1.0,
            ResourceConfig::uniform(53 * 1024, 2 * 1024),
            false,
        );
        assert!(
            small.elapsed_s < huge.elapsed_s,
            "small {} vs huge {}",
            small.elapsed_s,
            huge.elapsed_s
        );
    }

    #[test]
    fn eviction_overhead_appears_with_tight_pool() {
        // CG on M sparse data: a heap just big enough to force evictions
        // shows eviction time a larger heap avoids.
        let script = reml_scripts::linreg_cg();
        let tight = run(
            &script,
            Scenario::M,
            1000,
            0.01,
            ResourceConfig::uniform(512, 2 * 1024),
            false,
        );
        let roomy = run(
            &script,
            Scenario::M,
            1000,
            0.01,
            ResourceConfig::uniform(8 * 1024, 2 * 1024),
            false,
        );
        assert!(
            tight.causal.component_s(Comp::Eviction) >= roomy.causal.component_s(Comp::Eviction)
        );
    }

    #[test]
    fn mlogreg_reopt_migrates_and_improves() {
        // MLogreg on M data starting at the minimum CP heap (what the
        // initial optimizer picks under unknowns): adaptation should
        // migrate to a larger AM and beat the non-adaptive run
        // (Figure 15).
        let script = reml_scripts::mlogreg();
        let no_adapt = run(
            &script,
            Scenario::M,
            100,
            1.0,
            ResourceConfig::uniform(512, 512),
            false,
        );
        let adapt = run(
            &script,
            Scenario::M,
            100,
            1.0,
            ResourceConfig::uniform(512, 512),
            true,
        );
        assert!(adapt.migrations >= 1, "migrations {}", adapt.migrations);
        assert!(adapt.migrations <= 2, "migrations {}", adapt.migrations);
        assert!(
            adapt.elapsed_s < no_adapt.elapsed_s,
            "adapt {} vs static {}",
            adapt.elapsed_s,
            no_adapt.elapsed_s
        );
        assert!(adapt.final_resources.cp_heap_mb > 512);
    }

    #[test]
    fn loaded_cluster_adaptation_prefers_single_node() {
        // §6 utilization-aware adaptation: with 90% of the MR slots taken
        // by other tenants, distributed plans lose their parallelism and
        // re-optimization should fall back to (migrate toward) a large
        // single-node CP configuration at least as eagerly as on an idle
        // cluster.
        let script = reml_scripts::mlogreg();
        let (analyzed, base) = setup(&script, Scenario::M, 100, 1.0);
        let facts = SimFacts {
            table_cols: 5,
            ..SimFacts::default()
        };
        let run = |avail: f64| {
            sim()
                .run_app(
                    &analyzed,
                    &base,
                    &SimConfig {
                        resources: ResourceConfig::uniform(512, 512),
                        reopt: true,
                        facts: facts.clone(),
                        slot_availability: avail,
                        faults: FaultPlan::none(),
                    },
                )
                .unwrap()
        };
        let idle = run(1.0);
        let loaded = run(0.1);
        assert!(loaded.migrations >= idle.migrations.min(1));
        // On the loaded cluster the chosen CP is at least as large.
        assert!(loaded.final_resources.cp_heap_mb >= idle.final_resources.cp_heap_mb.min(8192));
        // And the loaded run's MR work is no higher than the idle run's.
        assert!(loaded.mr_jobs <= idle.mr_jobs.max(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let script = reml_scripts::l2svm();
        let a = run(
            &script,
            Scenario::S,
            1000,
            1.0,
            ResourceConfig::uniform(2 * 1024, 2 * 1024),
            false,
        );
        let b = run(
            &script,
            Scenario::S,
            1000,
            1.0,
            ResourceConfig::uniform(2 * 1024, 2 * 1024),
            false,
        );
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.mr_jobs, b.mr_jobs);
    }

    #[test]
    fn collect_markers_walks_nested_blocks() {
        use reml_runtime::program::Predicate;
        let blocks = vec![RtBlock::While {
            source: reml_lang::BlockId(0),
            pred: Predicate {
                instructions: vec![],
                result_var: "p".into(),
            },
            body: vec![RtBlock::Generic {
                source: reml_lang::BlockId(1),
                instructions: vec![],
                requires_recompile: true,
            }],
            max_iter_hint: Some(4),
        }];
        let mut marked = HashSet::new();
        let mut hints = HashMap::new();
        collect_markers(&blocks, &mut marked, &mut hints);
        assert!(marked.contains(&1));
        assert_eq!(hints.get(&0), Some(&4));
    }

    #[test]
    fn runaway_loop_is_refused_not_simulated() {
        // A trip count the executors refuse (`ExecError::RunawayLoop`) is
        // reachable from DML text; simulating it iteration by iteration
        // would spin for years. The time box turns a regression into a
        // failure instead of a hung test run.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let analyzed = analyze_program("s = 0;\nfor (i in 1:1e12) { s = s + i; }\nprint(s);")
                .expect("valid DML");
            let base = CompileConfig::new(ClusterConfig::paper_cluster(), 512, 512);
            let out = sim().run_app(
                &analyzed,
                &base,
                &SimConfig::fixed(ResourceConfig::uniform(512, 512)),
            );
            let _ = done_tx.send(out.map(|o| o.elapsed_s));
        });
        let out = done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("run_app returns within the time box");
        assert!(matches!(out, Err(CompileError::Unsupported(_))), "{out:?}");
    }

    #[test]
    fn out_of_range_config_is_refused() {
        // Each value used to put NaN or ∞ on the clock (and into the
        // replay trace) or silently drop charges.
        type Break = fn(&mut SimConfig);
        let cases: [(&str, Break); 5] = [
            ("jitter", |c| c.facts.jitter = f64::INFINITY),
            ("jitter", |c| c.facts.jitter = -0.1),
            ("slot_availability", |c| c.slot_availability = f64::NAN),
            ("slot_availability", |c| c.slot_availability = 0.0),
            ("slot_availability", |c| c.slot_availability = 1.5),
        ];
        let (analyzed, base) = setup(&reml_scripts::linreg_ds(), Scenario::XS, 100, 1.0);
        for (field, break_config) in cases {
            let mut cfg = SimConfig::fixed(ResourceConfig::uniform(512, 512));
            break_config(&mut cfg);
            match sim().run_app(&analyzed, &base, &cfg) {
                Err(CompileError::Unsupported(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!(
                    "{field}: want a refusal, got {:?}",
                    other.map(|o| o.elapsed_s)
                ),
            }
        }
        // The edges of every range stay accepted.
        let mut cfg = SimConfig::fixed(ResourceConfig::uniform(512, 512));
        cfg.slot_availability = 0.01;
        cfg.facts.jitter = 0.0;
        let out = sim().run_app(&analyzed, &base, &cfg).unwrap();
        assert!(out.elapsed_s.is_finite() && out.elapsed_s > 0.0);
    }

    #[test]
    fn iterative_scripts_scale_with_iterations() {
        // L2SVM runs maxiter outer iterations: more work than LinregDS on
        // the same data at the same (large) memory.
        let res = ResourceConfig::uniform(16 * 1024, 2 * 1024);
        let ds = run(
            &reml_scripts::linreg_ds(),
            Scenario::S,
            100,
            1.0,
            res.clone(),
            false,
        );
        let svm = run(&reml_scripts::l2svm(), Scenario::S, 100, 1.0, res, false);
        assert!(svm.recompilations > ds.recompilations);
    }
}
