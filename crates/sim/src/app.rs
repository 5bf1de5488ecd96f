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

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use reml_cluster::ClusterConfig;
use reml_compiler::build::Env;
use reml_compiler::pipeline::{
    compile, compile_block_with_env, fold_predicate_with_env, propagate_blocks_env, AnalyzedProgram,
};
use reml_compiler::{CompileConfig, CompileError};
use reml_cost::{CostBreakdown, CostModel, VarStates};
use reml_lang::{BlockId, StatementBlock, StatementBlockKind};
use reml_matrix::MatrixCharacteristics;
use reml_optimizer::{decide_adaptation, decide_recovery, ResourceConfig, ResourceOptimizer};
use reml_runtime::instructions::OpCode;
use reml_runtime::program::RtBlock;
use reml_runtime::value::Operand;
use reml_runtime::Instruction;

use crate::causal::{Bucket, CausalKind, CausalTrace};
use crate::fault::{FaultInjector, FaultKind, FaultPlan, TraceEvent, TracedEvent};
use crate::shadow::ShadowPool;

/// Data-dependent facts the simulator resolves at "runtime" — the values
/// the compiler could not know statically.
#[derive(Debug, Clone)]
pub struct SimFacts {
    /// Actual column count of `table()` outputs (number of classes/bins).
    pub table_cols: u64,
    /// Iterations assumed for loops without a static bound (inner
    /// line-search loops converge in a few steps).
    pub default_inner_iterations: u64,
    /// Local-disk write bandwidth for buffer-pool evictions, MB/s.
    pub local_disk_write_mbs: f64,
    /// Local-disk read bandwidth for buffer-pool restores, MB/s.
    pub local_disk_read_mbs: f64,
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
            default_inner_iterations: 3,
            local_disk_write_mbs: 120.0,
            local_disk_read_mbs: 180.0,
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
}

/// Measured outcome of one application.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    /// End-to-end measured time, seconds (excluding initial optimizer
    /// overhead, which the caller adds).
    pub elapsed_s: f64,
    /// IO component.
    pub io_s: f64,
    /// Compute component.
    pub compute_s: f64,
    /// Latency component (job/task/container).
    pub latency_s: f64,
    /// Shuffle component.
    pub shuffle_s: f64,
    /// Buffer-pool eviction/restore component.
    pub eviction_s: f64,
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
    /// Seconds of the components above attributable to injected faults
    /// (re-execution, backoff, restarts) — informational; already
    /// included in `elapsed_s`.
    pub fault_rework_s: f64,
    /// Structured fault/recovery/adaptation trace (the replay contract).
    pub events: Vec<TracedEvent>,
    /// Causal event DAG: every charged second as a happens-before node
    /// (the `reml_insight` attribution substrate).
    pub causal: CausalTrace,
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
    pub fn run_app(
        &self,
        analyzed: &AnalyzedProgram,
        base: &CompileConfig,
        sim: &SimConfig,
    ) -> Result<AppOutcome, CompileError> {
        // Initial compile at the initial resources: recompile markers and
        // loop-iteration hints.
        let initial_cfg = self.config_for(base, &sim.resources, None);
        let initial = compile(analyzed, &initial_cfg)?;
        let mut marked: HashSet<usize> = HashSet::new();
        let mut hints: std::collections::HashMap<usize, u64> = Default::default();
        collect_markers(&initial.runtime.blocks, &mut marked, &mut hints);

        let mut state = SimState {
            sim: self,
            analyzed,
            base,
            facts: sim.facts.clone(),
            reopt: sim.reopt,
            resources: sim.resources.clone(),
            cost_model: CostModel::with_slot_availability(
                self.cluster.clone(),
                sim.slot_availability,
            ),
            env: Env::new(),
            var_states: VarStates::new(),
            pool: ShadowPool::new(
                self.cluster.budget_mb_for_heap(sim.resources.cp_heap_mb) * 1024 * 1024,
            ),
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
                io_s: 0.0,
                compute_s: 0.0,
                latency_s: 0.0,
                shuffle_s: 0.0,
                eviction_s: 0.0,
                mr_jobs: 0,
                migrations: 0,
                recompilations: 0,
                final_resources: sim.resources.clone(),
                adaptations: Vec::new(),
                recoveries: 0,
                task_retries: 0,
                faults_injected: 0,
                fault_rework_s: 0.0,
                events: Vec::new(),
                causal: CausalTrace::new(),
            },
            current_block: None,
        };
        // Application start: CP AM container allocation.
        state.charge(
            Comp::Latency,
            Bucket::SchedulingDelay,
            CausalKind::Container,
            "am.alloc",
            self.cluster.container_alloc_latency_s,
        );
        state.sync_trace_clock();
        let _app_span = reml_trace::span!(
            "sim.app",
            cp_heap_mb = sim.resources.cp_heap_mb,
            blocks = analyzed.blocks.len()
        );
        let t0 = state.now();
        state.injector.record(
            t0,
            TraceEvent::AppStart {
                cp_heap_mb: sim.resources.cp_heap_mb,
            },
        );
        state.sim_blocks(&analyzed.blocks)?;
        let mut injector = state.injector;
        let mut outcome = state.outcome;
        outcome.final_resources = state.resources;
        outcome.task_retries = injector.task_retries;
        outcome.faults_injected = injector.faults_injected;
        outcome.elapsed_s = outcome.io_s
            + outcome.compute_s
            + outcome.latency_s
            + outcome.shuffle_s
            + outcome.eviction_s;
        if let Some(t) = reml_trace::sim_time() {
            t.set_seconds(outcome.elapsed_s);
        }
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

struct SimState<'a> {
    sim: &'a Simulator,
    analyzed: &'a AnalyzedProgram,
    base: &'a CompileConfig,
    facts: SimFacts,
    reopt: bool,
    resources: ResourceConfig,
    cost_model: CostModel,
    env: Env,
    var_states: VarStates,
    pool: ShadowPool,
    rng: StdRng,
    marked: HashSet<usize>,
    hints: std::collections::HashMap<usize, u64>,
    adapted: HashSet<usize>,
    injector: FaultInjector,
    outcome: AppOutcome,
    /// Statement block currently executing (for causal-node attribution).
    current_block: Option<usize>,
}

/// Which [`AppOutcome`] component a charge lands in.
#[derive(Debug, Clone, Copy)]
enum Comp {
    Io,
    Compute,
    Latency,
    Shuffle,
    Eviction,
}

/// Flat time cost of evaluating a predicate (scalar CP work).
const PREDICATE_COST_S: f64 = 1e-4;

impl<'a> SimState<'a> {
    fn current_cfg(&self) -> CompileConfig {
        self.sim
            .config_for(self.base, &self.resources, Some(self.facts.table_cols))
    }

    /// Simulated elapsed time so far (trace timestamps).
    fn now(&self) -> f64 {
        self.outcome.io_s
            + self.outcome.compute_s
            + self.outcome.latency_s
            + self.outcome.shuffle_s
            + self.outcome.eviction_s
    }

    /// Advance the global trace recorder's virtual clock (when one is
    /// installed on sim time) to the current simulated timestamp, so span
    /// begin/end records carry meaningful — and reproducible — times.
    fn sync_trace_clock(&self) {
        if let Some(t) = reml_trace::sim_time() {
            t.set_seconds(self.now());
        }
    }

    /// Charge serial time to one outcome component and append the
    /// matching causal node. Zero charges are dropped (no node).
    fn charge(&mut self, comp: Comp, bucket: Bucket, kind: CausalKind, label: &str, secs: f64) {
        self.charge_par(comp, bucket, kind, label, secs, 1);
    }

    /// [`Self::charge`] for work running at parallel `width`: the node's
    /// duration is `secs` of elapsed time, its serialized work
    /// `secs × width`.
    fn charge_par(
        &mut self,
        comp: Comp,
        bucket: Bucket,
        kind: CausalKind,
        label: &str,
        secs: f64,
        width: u64,
    ) {
        if secs <= 0.0 {
            return;
        }
        let start = self.now();
        match comp {
            Comp::Io => self.outcome.io_s += secs,
            Comp::Compute => self.outcome.compute_s += secs,
            Comp::Latency => self.outcome.latency_s += secs,
            Comp::Shuffle => self.outcome.shuffle_s += secs,
            Comp::Eviction => self.outcome.eviction_s += secs,
        }
        let width = width.max(1);
        self.outcome.causal.push(
            kind,
            label,
            self.current_block,
            bucket,
            start,
            start + secs,
            secs * width as f64,
            width,
        );
    }

    /// Append a zero-duration recompilation marker node (a DAG vertex
    /// for the happens-before edge; the decision overhead, when any, is
    /// charged separately).
    fn mark_recompile(&mut self, label: &str) {
        let t = self.now();
        self.outcome.causal.push(
            CausalKind::Recompilation,
            label,
            self.current_block,
            Bucket::Recompilation,
            t,
            t,
            0.0,
            1,
        );
    }

    /// Charge a fraction of an MR job's component work as retry/rework
    /// (the re-executed share really runs again).
    fn charge_fault_rework(&mut self, frac: f64, cost: &CostBreakdown, label: &str) {
        self.charge(
            Comp::Io,
            Bucket::RetryRework,
            CausalKind::Fault,
            label,
            frac * cost.io_s,
        );
        self.charge(
            Comp::Compute,
            Bucket::RetryRework,
            CausalKind::Fault,
            label,
            frac * cost.compute_s,
        );
        self.charge(
            Comp::Shuffle,
            Bucket::RetryRework,
            CausalKind::Fault,
            label,
            frac * cost.shuffle_s,
        );
    }

    /// Flat charge for evaluating a control-flow predicate.
    fn charge_predicate(&mut self) {
        self.charge(
            Comp::Compute,
            Bucket::Compute,
            CausalKind::Cp,
            "predicate",
            PREDICATE_COST_S,
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
            .unwrap_or(self.facts.default_inner_iterations)
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
                    let konst = fold_predicate_with_env(&self.current_cfg(), pred, &self.env)?;
                    match konst.and_then(|v| v.as_bool()) {
                        Some(true) => self.sim_blocks(then_blocks)?,
                        Some(false) => self.sim_blocks(else_blocks)?,
                        None => {
                            // Unknown predicate (typically a convergence
                            // check): execute the else branch, but merge
                            // the then branch's definitions into the
                            // environment so later compiles see them.
                            let mut then_env = self.env.clone();
                            propagate_blocks_env(&self.current_cfg(), then_blocks, &mut then_env)?;
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
        self.current_block = Some(id.0);
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
        let cfg = self.current_cfg();
        let mut probe_env = self.env.clone();
        let (instructions, _summary, _stats) =
            compile_block_with_env(self.analyzed, &cfg, id, &mut probe_env)?;
        self.outcome.recompilations += 1;
        self.mark_recompile("recompile");

        // Runtime adaptation trigger (§4.1): the block was initially
        // marked, recompilation produced MR jobs, and we have not adapted
        // at this block before.
        let has_mr = instructions.iter().any(Instruction::is_mr);
        reml_trace::event!("sim.recompile", block = id.0, has_mr = has_mr);
        if self.reopt && has_mr && self.marked.contains(&id.0) && !self.adapted.contains(&id.0) {
            self.adapted.insert(id.0);
            self.adapt(id)?;
        }

        // (Re)compile at the possibly-updated resources and execute.
        let cfg = self.current_cfg();
        let env_snapshot = oom_watermark.map(|_| self.env.clone());
        let (instructions, _summary, _stats) =
            compile_block_with_env(self.analyzed, &cfg, id, &mut self.env)?;
        let mr_heap = self.resources.mr_heap.for_block(id.0);
        let mut temps: Vec<String> = Vec::new();
        let attempt_start = self.now();
        let mut oomed = false;
        for instr in &instructions {
            if let Some(frac) = oom_watermark {
                if let Some((op, needed_mb)) = self.cp_oom_check(instr, frac) {
                    // OOM: the attempt's work so far is wasted; the block
                    // recompiles to an MR plan at the actual sizes.
                    let budget_mb = self
                        .sim
                        .cluster
                        .budget_mb_for_heap(self.resources.cp_heap_mb);
                    let wasted_s = self.now() - attempt_start;
                    let t = self.now();
                    self.injector.record(
                        t,
                        TraceEvent::Oom {
                            block: id.0,
                            op,
                            needed_mb,
                            budget_mb,
                            wasted_s,
                        },
                    );
                    self.outcome.fault_rework_s += wasted_s;
                    oomed = true;
                    break;
                }
            }
            self.time_instruction(instr, mr_heap);
            if let Instruction::Cp(cp) = instr {
                if let Some(out) = &cp.output {
                    if out.starts_with("_mVar") {
                        temps.push(out.clone());
                    }
                }
            }
        }
        if oomed {
            // Forced recompilation to a distributed plan: compile with a
            // minimal CP heap so every memory-sensitive operator goes MR,
            // then re-execute the whole block (the failed attempt's
            // charges stay — that work really happened).
            self.env = env_snapshot.expect("snapshot exists when watermark armed");
            let mut forced = self.current_cfg();
            forced.cp_heap_mb = self.sim.cluster.min_heap_mb();
            let (instructions, _summary, _stats) =
                compile_block_with_env(self.analyzed, &forced, id, &mut self.env)?;
            self.outcome.recompilations += 1;
            self.mark_recompile("oom.recompile");
            let mr_jobs = instructions.iter().filter(|i| i.is_mr()).count() as u64;
            let t = self.now();
            self.injector.record(
                t,
                TraceEvent::OomRecompile {
                    block: id.0,
                    mr_jobs,
                },
            );
            for instr in &instructions {
                self.time_instruction(instr, mr_heap);
                if let Instruction::Cp(cp) = instr {
                    if let Some(out) = &cp.output {
                        if out.starts_with("_mVar") {
                            temps.push(out.clone());
                        }
                    }
                }
            }
        }
        // Block-scope temporaries die at block end (rmvar semantics).
        for t in temps {
            self.pool.remove(&t);
        }
        self.sync_trace_clock();
        Ok(())
    }

    /// OOM watermark check: a CP instruction whose actual-size footprint
    /// (operands + output) exceeds `frac` of the CP budget fails.
    /// Returns `(opcode, needed_mb)` when it fires.
    fn cp_oom_check(&self, instr: &Instruction, frac: f64) -> Option<(String, u64)> {
        let patched = patch_unknowns(instr, &self.facts);
        let Instruction::Cp(cp) = &patched else {
            return None;
        };
        // Reads/writes stream block-wise; only computational operators
        // hold full operands in memory.
        if matches!(
            cp.opcode,
            OpCode::PersistentRead { .. } | OpCode::PersistentWrite { .. } | OpCode::Assign
        ) {
            return None;
        }
        let needed: u64 = cp
            .operand_mcs
            .iter()
            .chain(std::iter::once(&cp.output_mc))
            .filter(|mc| !mc.is_scalar())
            .map(|mc| mc.estimated_size_bytes().unwrap_or(0))
            .sum();
        let needed_mb = needed / (1024 * 1024);
        let budget_mb = self
            .sim
            .cluster
            .budget_mb_for_heap(self.resources.cp_heap_mb);
        if needed_mb as f64 > frac.clamp(0.0, 1.0) * budget_mb as f64 {
            Some((opcode_tag(&cp.opcode), needed_mb))
        } else {
            None
        }
    }

    /// AM kill at a statement-block boundary: charge state
    /// restoration/regeneration and the restart latency, then run the
    /// §4-style recovery decision on the restarted AM.
    fn handle_am_kill(&mut self, id: BlockId) -> Result<(), CompileError> {
        let retry = self.injector.plan.retry;
        let mb = 1024.0 * 1024.0;
        // Clean (HDFS-backed) resident state re-reads from HDFS; dirty
        // (never-exported) state is regenerated by lineage and spilled.
        let clean_mb = self.pool.clean_resident_bytes() as f64 / mb;
        let dirty_bytes = self.pool.dirty_bytes();
        let dirty_mb = dirty_bytes as f64 / mb;
        let restore_s = clean_mb / self.sim.cluster.hdfs_read_mbs;
        let rework_s = dirty_mb / self.facts.local_disk_write_mbs;
        let restart_latency_s = retry.backoff_s + self.sim.cluster.container_alloc_latency_s;
        self.charge(
            Comp::Io,
            Bucket::RetryRework,
            CausalKind::Fault,
            "am.restore",
            restore_s,
        );
        self.charge(
            Comp::Compute,
            Bucket::RetryRework,
            CausalKind::Fault,
            "am.rework",
            rework_s,
        );
        self.charge(
            Comp::Latency,
            Bucket::SchedulingDelay,
            CausalKind::Fault,
            "am.restart",
            restart_latency_s,
        );
        self.outcome.fault_rework_s += restore_s + rework_s + restart_latency_s;
        self.outcome.recoveries += 1;
        let t = self.now();
        self.injector.record(
            t,
            TraceEvent::AmKill {
                block: id.0,
                restart_latency_s,
                lost_dirty_mb: dirty_bytes / (1024 * 1024),
                rework_s,
                restore_s,
            },
        );
        if self.reopt {
            // The restart is paid either way, so the recovery decision
            // only weighs the re-allocation premium (§4 with C_M reduced).
            let optimizer = ResourceOptimizer::new(CostModel::with_slot_availability(
                self.sim.cluster.clone(),
                self.cost_model.slot_availability,
            ));
            let mut base = self.base.clone();
            base.table_cols_hint = Some(self.facts.table_cols);
            let decision = decide_recovery(
                &optimizer,
                self.analyzed,
                &base,
                id,
                &self.env,
                self.resources.cp_heap_mb,
            )?;
            self.charge(
                Comp::Compute,
                Bucket::Recompilation,
                CausalKind::Recompilation,
                "recovery.reopt",
                decision_opt_overhead_s(),
            );
            let t = self.now();
            self.injector.record(
                t,
                TraceEvent::Recovery {
                    block: id.0,
                    migrated: decision.migrate,
                    target_cp_mb: decision.target.cp_heap_mb,
                    delta_cost_s: decision.delta_cost_s,
                    premium_s: decision.migration_cost_s,
                },
            );
            if decision.migrate {
                self.resources = decision.target.clone();
                self.pool.set_capacity(
                    self.sim
                        .cluster
                        .budget_mb_for_heap(self.resources.cp_heap_mb)
                        * 1024
                        * 1024,
                );
                self.outcome.migrations += 1;
            } else {
                self.resources.mr_heap = decision.target.mr_heap.clone();
            }
        }
        self.injector.restart_am(self.resources.cp_heap_mb);
        Ok(())
    }

    /// Runtime re-optimization + migration decision.
    fn adapt(&mut self, id: BlockId) -> Result<(), CompileError> {
        // The re-optimizer sees the current cluster utilization — the §6
        // utilization-aware extension.
        let optimizer = ResourceOptimizer::new(CostModel::with_slot_availability(
            self.sim.cluster.clone(),
            self.cost_model.slot_availability,
        ));
        let mut base = self.base.clone();
        base.table_cols_hint = Some(self.facts.table_cols);
        let decision = decide_adaptation(
            &optimizer,
            self.analyzed,
            &base,
            id,
            &self.env,
            self.resources.cp_heap_mb,
            self.pool.dirty_bytes(),
        )?;
        // Optimizer overhead is part of measured time.
        self.charge(
            Comp::Compute,
            Bucket::Recompilation,
            CausalKind::Recompilation,
            "adapt.reopt",
            decision_opt_overhead_s(),
        );
        let ev = AdaptationEvent {
            block: id.0,
            migrated: decision.migrate,
            global_cp_mb: decision.global.0.cp_heap_mb,
            delta_cost_s: decision.delta_cost_s,
            migration_cost_s: decision.migration_cost_s,
        };
        let t = self.now();
        self.injector
            .record(t, TraceEvent::Adaptation { ev: ev.clone() });
        self.outcome.adaptations.push(ev);
        if decision.migrate {
            let migration = reml_optimizer::adapt::estimate_migration_cost(
                &self.sim.cluster,
                self.pool.dirty_bytes(),
            );
            self.charge(
                Comp::Io,
                Bucket::Io,
                CausalKind::Migration,
                "migrate.export",
                migration.io_s,
            );
            self.charge(
                Comp::Latency,
                Bucket::SchedulingDelay,
                CausalKind::Migration,
                "migrate.alloc",
                migration.latency_s,
            );
            self.outcome.migrations += 1;
            self.resources = decision.target.clone();
            self.pool.set_capacity(
                self.sim
                    .cluster
                    .budget_mb_for_heap(self.resources.cp_heap_mb)
                    * 1024
                    * 1024,
            );
            // Dirty variables were exported; they are clean now.
            self.pool.mark_all_clean();
            // Keep the RM mirror honest: the AM moved to a new container.
            self.injector.restart_am(self.resources.cp_heap_mb);
            let t = self.now();
            self.injector.record(
                t,
                TraceEvent::Migration {
                    block: id.0,
                    io_s: migration.io_s,
                    latency_s: migration.latency_s,
                    to_cp_mb: self.resources.cp_heap_mb,
                },
            );
        } else {
            // Apply the locally optimal MR configuration in place.
            self.resources.mr_heap = decision.target.mr_heap.clone();
        }
        Ok(())
    }

    fn time_instruction(&mut self, instr: &Instruction, mr_heap_mb: u64) {
        let patched = patch_unknowns(instr, &self.facts);
        let cost = self.cost_model.cost_instructions(
            std::slice::from_ref(&patched),
            // The simulator models evictions itself via the shadow pool;
            // disable the cost model's partial eviction accounting here.
            u64::MAX / (2 * 1024 * 1024),
            mr_heap_mb,
            &mut self.var_states,
        );
        // Causal identity of this instruction's work: a distributed job
        // runs `width` tasks in parallel (serialized work = duration ×
        // width); CP work is serial.
        let (kind, label, width, input_mb) = match &patched {
            Instruction::MrJob(job) => {
                let input_mb = job
                    .hdfs_inputs
                    .iter()
                    .map(|(_, mc)| mc.estimated_size_bytes().unwrap_or(0))
                    .sum::<u64>()
                    / (1024 * 1024);
                let width = (self.sim.cluster.num_splits(input_mb) as u64)
                    .min(self.sim.cluster.total_slots(mr_heap_mb) as u64)
                    .max(1);
                (CausalKind::MrJob, "mr.job".to_string(), width, input_mb)
            }
            Instruction::Cp(cp) => (CausalKind::Cp, opcode_tag(&cp.opcode), 1, 0),
        };
        self.charge_par(Comp::Io, Bucket::Io, kind, &label, cost.io_s, width);
        self.charge_par(
            Comp::Compute,
            Bucket::Compute,
            kind,
            &label,
            cost.compute_s,
            width,
        );
        self.charge_par(
            Comp::Shuffle,
            Bucket::Shuffle,
            kind,
            &label,
            cost.shuffle_s,
            width,
        );
        // Measured jitter on MR jobs.
        if cost.mr_jobs > 0 {
            let jitter = 1.0 + self.rng.gen_range(0.0..self.facts.jitter.max(1e-9));
            self.charge(
                Comp::Latency,
                Bucket::QueueWait,
                kind,
                &label,
                cost.latency_s * jitter,
            );
            let first = self.outcome.mr_jobs;
            self.outcome.mr_jobs += cost.mr_jobs;
            // Fault hook: faults scheduled on any of this instruction's
            // job indices fire now, in job order.
            let fired = self.injector.take_mr_faults(first, cost.mr_jobs);
            for (job_idx, fault_kind) in fired {
                self.apply_mr_fault(job_idx, fault_kind, &cost, input_mb, mr_heap_mb);
            }
        } else {
            self.charge(
                Comp::Latency,
                Bucket::SchedulingDelay,
                kind,
                &label,
                cost.latency_s,
            );
        }
        // Shadow buffer pool: evictions/restores the cost model ignores.
        match &patched {
            Instruction::Cp(cp) => {
                if let OpCode::PersistentWrite { .. } = &cp.opcode {
                    if let Some(v) = cp.operands.first().and_then(|o| o.as_var()) {
                        self.pool.mark_clean(v);
                    }
                }
                let before_evicted = self.pool.bytes_evicted;
                let mut restored_bytes = 0u64;
                for (operand, mc) in cp.operands.iter().zip(&cp.operand_mcs) {
                    if let Operand::Var(name) = operand {
                        if !mc.is_scalar() {
                            restored_bytes += self.pool.touch(name);
                        }
                    }
                }
                self.charge(
                    Comp::Eviction,
                    Bucket::Eviction,
                    CausalKind::Cp,
                    "pool.restore",
                    restored_bytes as f64 / (1024.0 * 1024.0) / self.facts.local_disk_read_mbs,
                );
                if let Some(out) = &cp.output {
                    if !cp.output_mc.is_scalar() {
                        let bytes = cp.output_mc.estimated_size_bytes().unwrap_or(0);
                        // Reads are clean; renames inherit the source's
                        // dirty state; computed outputs are dirty.
                        let dirty = match &cp.opcode {
                            OpCode::PersistentRead { .. } => false,
                            OpCode::Assign => cp
                                .operands
                                .first()
                                .and_then(|o| o.as_var())
                                .and_then(|v| self.pool.is_dirty(v))
                                .unwrap_or(true),
                            _ => true,
                        };
                        self.pool.put(out, bytes, dirty);
                    }
                }
                let evicted_delta = self.pool.bytes_evicted - before_evicted;
                self.charge(
                    Comp::Eviction,
                    Bucket::Eviction,
                    CausalKind::Cp,
                    "pool.evict",
                    evicted_delta as f64 / (1024.0 * 1024.0) / self.facts.local_disk_write_mbs,
                );
            }
            Instruction::MrJob(job) => {
                for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                    self.pool.mark_clean(name);
                }
            }
        }
    }

    /// Charge one MR-scoped fault against the job it hit. `cost` is the
    /// breakdown of the instruction that spawned the job; re-executed
    /// shares are charged proportionally to its components (YARN task
    /// re-execution: the work really runs twice).
    fn apply_mr_fault(
        &mut self,
        job_idx: u64,
        kind: FaultKind,
        cost: &CostBreakdown,
        input_mb: u64,
        mr_heap_mb: u64,
    ) {
        let retry = self.injector.plan.retry;
        let requeue_delay_s = retry.backoff_s + self.sim.cluster.container_alloc_latency_s;
        match kind {
            FaultKind::Straggler { factor } => {
                let slowdown_s = (factor - 1.0).max(0.0) * cost.latency_s;
                self.charge(
                    Comp::Latency,
                    Bucket::StragglerWait,
                    CausalKind::Fault,
                    "fault.straggler",
                    slowdown_s,
                );
                self.outcome.fault_rework_s += slowdown_s;
                let t = self.now();
                self.injector.record(
                    t,
                    TraceEvent::Straggler {
                        job: job_idx,
                        factor,
                        slowdown_s,
                    },
                );
            }
            FaultKind::ContainerPreemption { fraction } => {
                let frac = fraction.clamp(0.0, 1.0);
                // Mirror the job's task containers through the RM: how
                // many it held, how many the preemption re-queued.
                let tasks = (self.sim.cluster.num_splits(input_mb) as u64)
                    .min(self.sim.cluster.total_slots(mr_heap_mb) as u64)
                    .max(1);
                let task_mem_mb = self.sim.cluster.container_mb_for_heap(mr_heap_mb);
                let (containers, requeued) =
                    self.injector.churn_job_containers(tasks, task_mem_mb, frac);
                let rework_s = frac * (cost.io_s + cost.compute_s + cost.shuffle_s);
                self.charge_fault_rework(frac, cost, "fault.preempt.rework");
                self.charge(
                    Comp::Latency,
                    Bucket::SchedulingDelay,
                    CausalKind::Fault,
                    "fault.preempt.requeue",
                    requeue_delay_s,
                );
                self.outcome.fault_rework_s += rework_s + requeue_delay_s;
                let t = self.now();
                self.injector.record(
                    t,
                    TraceEvent::Preemption {
                        job: job_idx,
                        containers,
                        requeued,
                        rework_s,
                        backoff_s: requeue_delay_s,
                    },
                );
            }
            FaultKind::NodeLoss { node } => {
                let node = node % self.sim.cluster.num_nodes.max(1);
                let active_before = self.injector.rm.active_nodes();
                if self.injector.rm.is_node_down(node) || active_before <= 1 {
                    // Already down (or it is the last node): nothing to
                    // kill; the spec still counts as fired.
                    return;
                }
                let killed = self.injector.rm.fail_node(node);
                // The lost node ran 1/active of the job's tasks; that
                // share re-executes on the survivors.
                let frac = 1.0 / active_before as f64;
                let rework_s = frac * (cost.io_s + cost.compute_s + cost.shuffle_s);
                self.charge_fault_rework(frac, cost, "fault.node_loss.rework");
                self.charge(
                    Comp::Latency,
                    Bucket::SchedulingDelay,
                    CausalKind::Fault,
                    "fault.node_loss.requeue",
                    requeue_delay_s,
                );
                self.outcome.fault_rework_s += rework_s + requeue_delay_s;
                // Capacity shrinks for the rest of the run: the §6 slot
                // availability scales by the surviving-node fraction.
                let avail = self.cost_model.slot_availability * (active_before - 1) as f64
                    / active_before as f64;
                self.cost_model =
                    CostModel::with_slot_availability(self.sim.cluster.clone(), avail);
                let t = self.now();
                self.injector.record(
                    t,
                    TraceEvent::NodeLoss {
                        job: job_idx,
                        node,
                        containers_lost: killed.len() as u64,
                        rework_s,
                        slot_availability: avail,
                    },
                );
            }
            // CP-scoped kinds never reach here (filtered by the
            // injector).
            FaultKind::AmKill | FaultKind::TaskOom { .. } => {}
        }
    }
}

/// Overhead charged for one runtime re-optimization (the paper reports
/// sub-second re-optimization; we charge a conservative constant).
fn decision_opt_overhead_s() -> f64 {
    0.5
}

/// Short opcode tag for causal-node labels and OOM events
/// (`MatMult { .. }` → "MatMult").
fn opcode_tag(op: &OpCode) -> String {
    let s = format!("{op:?}");
    s.split([' ', '{', '(']).next().unwrap_or("op").to_string()
}

/// Replace unknown characteristics in an instruction with runtime-actual
/// values: the only source of unknowns in the bundled programs is
/// `table()`, whose width is `facts.table_cols`.
fn patch_unknowns(instr: &Instruction, facts: &SimFacts) -> Instruction {
    let patch_mc = |mc: &MatrixCharacteristics, indicator: bool| -> MatrixCharacteristics {
        if mc.dims_known() && mc.nnz.is_some() {
            return *mc;
        }
        let rows = mc.rows.unwrap_or(facts.table_cols);
        let cols = mc.cols.unwrap_or(facts.table_cols);
        let nnz = mc.nnz.unwrap_or(if indicator {
            rows
        } else {
            rows.saturating_mul(cols)
        });
        MatrixCharacteristics {
            rows: Some(rows),
            cols: Some(cols),
            nnz: Some(nnz),
        }
    };
    match instr {
        Instruction::Cp(cp) => {
            let mut cp = cp.clone();
            let indicator = matches!(cp.opcode, OpCode::TableSeq);
            cp.operand_mcs = cp.operand_mcs.iter().map(|m| patch_mc(m, false)).collect();
            cp.output_mc = patch_mc(&cp.output_mc, indicator);
            Instruction::Cp(cp)
        }
        Instruction::MrJob(job) => {
            let mut job = job.clone();
            for (_, mc) in job
                .hdfs_inputs
                .iter_mut()
                .chain(job.broadcast_inputs.iter_mut())
            {
                *mc = patch_mc(mc, false);
            }
            for op in job.mappers.iter_mut().chain(job.reducers.iter_mut()) {
                let indicator = matches!(op.opcode, OpCode::TableSeq);
                op.operand_mcs = op.operand_mcs.iter().map(|m| patch_mc(m, false)).collect();
                op.output_mc = patch_mc(&op.output_mc, indicator);
            }
            for (_, mc) in job.outputs.iter_mut() {
                *mc = patch_mc(mc, false);
            }
            for mc in job.shuffle.iter_mut() {
                *mc = patch_mc(mc, false);
            }
            Instruction::MrJob(job)
        }
    }
}

/// Collect recompile markers and loop hints from a compiled program.
fn collect_markers(
    blocks: &[RtBlock],
    marked: &mut HashSet<usize>,
    hints: &mut std::collections::HashMap<usize, u64>,
) {
    for b in blocks {
        match b {
            RtBlock::Generic {
                source,
                requires_recompile,
                ..
            } => {
                if *requires_recompile {
                    marked.insert(source.0);
                }
            }
            RtBlock::If {
                then_blocks,
                else_blocks,
                ..
            } => {
                collect_markers(then_blocks, marked, hints);
                collect_markers(else_blocks, marked, hints);
            }
            RtBlock::While {
                source,
                body,
                max_iter_hint,
                ..
            } => {
                if let Some(h) = max_iter_hint {
                    hints.insert(source.0, *h);
                }
                collect_markers(body, marked, hints);
            }
            RtBlock::For {
                source,
                body,
                iterations_hint,
                ..
            } => {
                if let Some(h) = iterations_hint {
                    hints.insert(source.0, *h);
                }
                collect_markers(body, marked, hints);
            }
        }
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
        assert!(out.latency_s > 15.0);
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
        assert!(tight.eviction_s >= roomy.eviction_s);
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
    fn patch_unknowns_fills_table_width() {
        use reml_runtime::instructions::CpInstruction;
        let facts = SimFacts {
            table_cols: 7,
            ..SimFacts::default()
        };
        let instr = Instruction::Cp(CpInstruction {
            opcode: OpCode::TableSeq,
            operands: vec![Operand::var("y")],
            output: Some("Y".into()),
            operand_mcs: vec![MatrixCharacteristics::dense(100, 1)],
            output_mc: MatrixCharacteristics {
                rows: Some(100),
                cols: None,
                nnz: Some(100),
            },
            bound_bytes: None,
        });
        let Instruction::Cp(patched) = patch_unknowns(&instr, &facts) else {
            panic!()
        };
        assert_eq!(patched.output_mc.cols, Some(7));
        // Indicator output keeps its one-per-row nnz.
        assert_eq!(patched.output_mc.nnz, Some(100));
    }

    #[test]
    fn patch_unknowns_keeps_known_mcs() {
        use reml_runtime::instructions::CpInstruction;
        let facts = SimFacts::default();
        let mc = MatrixCharacteristics::known(10, 20, 50);
        let instr = Instruction::Cp(CpInstruction {
            opcode: OpCode::Transpose,
            operands: vec![Operand::var("x")],
            output: Some("t".into()),
            operand_mcs: vec![mc],
            output_mc: mc.transpose(),
            bound_bytes: None,
        });
        let Instruction::Cp(patched) = patch_unknowns(&instr, &facts) else {
            panic!()
        };
        assert_eq!(patched.operand_mcs[0], mc);
        assert_eq!(patched.output_mc, mc.transpose());
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
        let mut hints = std::collections::HashMap::new();
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
