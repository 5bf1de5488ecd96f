//! The core resource optimizer: Algorithm 1 with pruning and memoization,
//! enumerated through a what-if compilation session (plan caching).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use reml_compiler::build::Env;
use reml_compiler::pipeline::{AnalyzedProgram, CompiledProgram};
use reml_compiler::session::WhatIfSession;
use reml_compiler::{CompileConfig, CompileError};
use reml_cost::CostModel;

use crate::cache::{improves, stage_agg, stage_baseline, stage_enum_block, CostMemo};
use crate::grid::GridStrategy;
use crate::provenance::{build_ledger, DecisionLedger};
use crate::resources::ResourceConfig;

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Grid strategy for the CP dimension.
    pub cp_grid: GridStrategy,
    /// Grid strategy for the MR dimension.
    pub mr_grid: GridStrategy,
    /// Prune blocks without MR jobs (§3.4, "blocks of small operations").
    pub prune_small: bool,
    /// Prune blocks where all MR operators have unknown dimensions
    /// (§3.4, "blocks of unknowns").
    pub prune_unknown: bool,
    /// Optimization-time budget; enumeration stops when exceeded.
    pub time_budget: Option<Duration>,
    /// Threads walking the CP grid, the caller included (1 = serial
    /// Algorithm 1, nothing is spawned).
    pub workers: usize,
    /// Serve what-if compilations from the session's breakpoint-keyed
    /// plan cache (§3.3 memoization). Disable to force a fresh
    /// compilation per grid point (the differential-testing baseline).
    pub plan_cache: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            cp_grid: GridStrategy::default_hybrid(),
            mr_grid: GridStrategy::default_hybrid(),
            prune_small: true,
            prune_unknown: true,
            time_budget: None,
            workers: 1,
            plan_cache: true,
        }
    }
}

/// Counters for the overhead experiments (Table 3, Figures 13/14/18).
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct OptimizerStats {
    /// Generic-block compilations performed ("# Comp.").
    pub block_compilations: u64,
    /// Cost-model invocations ("# Cost."; whole-program costing counts as
    /// one invocation).
    pub cost_invocations: u64,
    /// Wall-clock optimization time.
    pub opt_time: Duration,
    /// Enumerated CP grid points.
    pub cp_points: usize,
    /// Enumerated MR grid points.
    pub mr_points: usize,
    /// Generic blocks before pruning, per CP point (first point recorded).
    pub blocks_total: usize,
    /// Generic blocks remaining after pruning (first CP point).
    pub blocks_remaining: usize,
    /// Whether the time budget cut enumeration short.
    pub budget_exhausted: bool,
    /// What-if compilations served from the session's plan/block caches.
    pub plan_cache_hits: u64,
    /// What-if compilations that missed the caches (actual compiles).
    pub plan_cache_misses: u64,
    /// Generic-block compilations avoided by cache hits (the work the
    /// session saved relative to a cache-bypass run).
    pub compilations_avoided: u64,
    /// CP grid points discarded before costing because their budget lies
    /// below the statically-proven minimum — no plan at those points can
    /// execute the program's forced-CP operators.
    pub cp_points_pruned_unsound: usize,
    /// The statically-proven minimum CP budget (MB) from the interval
    /// soundness analysis (`reml-sizebound`), when one exists.
    pub sound_min_cp_budget_mb: Option<f64>,
    /// Phase split of `opt_time` (Table 3's enumeration-vs-costing
    /// attribution): wall time enumerating/compiling grid points,
    /// seconds. With `workers > 1` this sums over the walking threads,
    /// so the phases can exceed the elapsed `opt_time`.
    pub enumerate_s: f64,
    /// Wall time inside cost-model executions, seconds.
    pub cost_s: f64,
    /// Wall time in grid pruning (the sizebound interval analysis plus
    /// grid filtering), seconds.
    pub prune_s: f64,
    /// Wall time in plan-cache bookkeeping (fingerprints, lookups,
    /// inserts), seconds.
    pub cache_s: f64,
}

impl OptimizerStats {
    /// Derive the enumerate/cost/cache phase columns from the shared
    /// stage accounting: `cost` and `cache` are measured directly;
    /// `enumerate` is stage time minus both (what-if compilation and
    /// grid bookkeeping).
    pub(crate) fn fill_phases(&mut self, stage_us: u64, cost_us: u64, cache_us: u64, prune_s: f64) {
        self.cost_s = cost_us as f64 / 1e6;
        self.cache_s = cache_us as f64 / 1e6;
        self.enumerate_s = stage_us.saturating_sub(cost_us + cache_us) as f64 / 1e6;
        self.prune_s = prune_s;
    }

    /// Publish the counters under their stable metric names (see the
    /// DESIGN.md metric catalog). No-op unless tracing is enabled.
    pub(crate) fn publish_metrics(&self) {
        if !reml_trace::enabled() {
            return;
        }
        reml_trace::count("optimizer.block_compilations", self.block_compilations);
        reml_trace::count("optimizer.cost_invocations", self.cost_invocations);
        reml_trace::count("optimizer.cp_points", self.cp_points as u64);
        reml_trace::count("optimizer.mr_points", self.mr_points as u64);
        reml_trace::count("optimizer.plan_cache.hits", self.plan_cache_hits);
        reml_trace::count("optimizer.plan_cache.misses", self.plan_cache_misses);
        reml_trace::count("optimizer.compilations_avoided", self.compilations_avoided);
        reml_trace::count(
            "optimizer.cp_points_pruned_unsound",
            self.cp_points_pruned_unsound as u64,
        );
        reml_trace::count(
            "optimizer.phase.enumerate_us",
            (self.enumerate_s * 1e6) as u64,
        );
        reml_trace::count("optimizer.phase.cost_us", (self.cost_s * 1e6) as u64);
        reml_trace::count("optimizer.phase.prune_us", (self.prune_s * 1e6) as u64);
        reml_trace::count("optimizer.phase.cache_us", (self.cache_s * 1e6) as u64);
        reml_trace::count("optimizer.opt_time_us", self.opt_time.as_micros() as u64);
    }
}

/// The optimization outcome.
#[derive(Debug, Clone)]
pub struct OptimizationResult {
    /// Globally best configuration `R*_P`.
    pub best: ResourceConfig,
    /// Its estimated cost, seconds.
    pub best_cost_s: f64,
    /// Best configuration constrained to the current CP heap
    /// (`R*_P | r_c`), when requested — the §4.2 extension.
    pub best_local: Option<(ResourceConfig, f64)>,
    /// Counters.
    pub stats: OptimizerStats,
    /// Decision provenance: one record per generated CP grid point.
    pub ledger: DecisionLedger,
}

/// State of one grid walk, opened by [`ResourceOptimizer::begin_walk`]
/// and consumed by [`ResourceOptimizer::finish_walk`]; in between, the
/// `workers` threads of [`ResourceOptimizer::optimize_scope`] share it
/// by reference, one [`ResourceOptimizer::walk_point`] per CP grid point.
pub(crate) struct GridWalk<'a> {
    start: Instant,
    /// When the optimization-time budget runs out.
    deadline: Option<Instant>,
    /// The what-if session every grid point compiles through.
    session: WhatIfSession<'a>,
    /// Per-block cost memo shared by all stages.
    memo: CostMemo,
    /// CP grid after soundness pruning — the points actually walked.
    src: Vec<u64>,
    /// MR grid.
    srm: Vec<u64>,
    /// The generated (pre-pruning) CP grid: the ledger's key space.
    full_grid: Vec<u64>,
    prune_s: f64,
    /// Counters filled along the walk.
    stats: OptimizerStats,
    _span: reml_trace::SpanGuard,
}

/// What [`ResourceOptimizer::walk_point`] found at one CP grid point.
struct PointOut {
    /// The aggregated `(configuration, cost)` at this `r_c`.
    candidate: (ResourceConfig, f64),
    /// Generic-block count before pruning.
    blocks_total: usize,
    /// Generic blocks left after pruning (§3.4).
    blocks_remaining: usize,
    /// The deadline passed during this point's MR enumeration.
    cut: bool,
}

/// The resource optimizer over a cost model.
#[derive(Debug, Clone)]
pub struct ResourceOptimizer {
    /// Optimizer knobs.
    pub config: OptimizerConfig,
    /// The cost model (carries the cluster).
    pub cost_model: CostModel,
}

impl ResourceOptimizer {
    /// Optimizer with default configuration over a cluster's cost model.
    pub fn new(cost_model: CostModel) -> Self {
        ResourceOptimizer {
            config: OptimizerConfig::default(),
            cost_model,
        }
    }

    /// Optimizer whose grid walk prices plans with a trace-fitted
    /// calibration profile attached (see `reml_cost::calibrate`). The
    /// profile flows through every enumeration stage, on every walking
    /// thread. Opcodes absent from the profile are priced analytically.
    pub fn with_calibration(
        cost_model: CostModel,
        profile: std::sync::Arc<reml_cost::CalibrationProfile>,
    ) -> Self {
        ResourceOptimizer::new(cost_model.with_calibration(profile))
    }

    /// Optimize the resource configuration for a program (Algorithm 1;
    /// `workers > 1` walks Appendix C's semi-independent `r_c` problems
    /// concurrently).
    ///
    /// `base` provides params/inputs; its heap fields are ignored.
    /// `current_cp_heap` requests the `R*|r_c` local optimum as well
    /// (used by runtime re-optimization).
    pub fn optimize(
        &self,
        analyzed: &AnalyzedProgram,
        base: &CompileConfig,
        current_cp_heap: Option<u64>,
    ) -> Result<OptimizationResult, CompileError> {
        self.optimize_scope(analyzed, base, None, current_cp_heap)
    }

    /// Optimize a *scope* of the program — the §4.2 re-optimization
    /// entry point. `scope` is `(first top-level block index, entry
    /// environment from runtime state)`; `None` optimizes the whole
    /// program from an empty environment.
    pub fn optimize_scope(
        &self,
        analyzed: &AnalyzedProgram,
        base: &CompileConfig,
        scope: Option<(usize, &Env)>,
        current_cp_heap: Option<u64>,
    ) -> Result<OptimizationResult, CompileError> {
        let mut walk = self.begin_walk(analyzed, base, scope)?;
        // Grid indices are claimed in ascending order; `stop` ends the
        // claims once the budget ran out or a point failed to compile.
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let claim_points = || {
            let mut outs = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                let late = walk.deadline.is_some_and(|d| Instant::now() > d);
                let rc_idx = next.fetch_add(1, Ordering::SeqCst);
                let Some(&rc) = walk.src.get(rc_idx) else {
                    break;
                };
                // The first point is walked even on an exhausted budget
                // (without its MR enumeration), so a valid, if unrefined,
                // configuration always comes out.
                if late && rc_idx > 0 {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                let out = self.walk_point(&walk, rc, late);
                let go_on = !late && matches!(out, Ok(PointOut { cut: false, .. }));
                if !go_on {
                    stop.store(true, Ordering::SeqCst);
                }
                outs.push((rc_idx, out));
            }
            outs
        };
        // The caller is one of the `workers`: with one, nothing is spawned
        // and this is the serial loop of Algorithm 1.
        let spawned = self.config.workers.min(walk.src.len()).saturating_sub(1);
        let mut outs = std::thread::scope(|threads| {
            let handles: Vec<_> = (0..spawned).map(|_| threads.spawn(claim_points)).collect();
            let mut outs = claim_points();
            for handle in handles {
                outs.extend(
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            outs
        });
        outs.sort_unstable_by_key(|&(rc_idx, _)| rc_idx);

        // Aggregated (config, cost) per walked grid point; the
        // lowest-index compile error fails the walk.
        let mut candidates: Vec<Option<(ResourceConfig, f64)>> = vec![None; walk.src.len()];
        for (rc_idx, out) in outs {
            let out = out?;
            if rc_idx == 0 {
                walk.stats.blocks_total = out.blocks_total;
                walk.stats.blocks_remaining = out.blocks_remaining;
            }
            candidates[rc_idx] = Some(out.candidate);
        }
        walk.stats.budget_exhausted = stop.into_inner();
        self.finish_walk(walk, &candidates, current_cp_heap)
    }

    /// One CP grid point, start to finish — the unit of §3.2's
    /// semi-independent problems: baseline compile at `(rc, min)` (unrolls
    /// P into blocks, prunes per §3.4, seeds the per-block costs), MR
    /// enumeration per remaining block, then the whole-program compile at
    /// the per-block optima and its global costing (loops and branches
    /// included). `skip_enum` leaves every block at its baseline.
    fn walk_point(
        &self,
        walk: &GridWalk<'_>,
        rc: u64,
        skip_enum: bool,
    ) -> Result<PointOut, CompileError> {
        let min_heap = self.cost_model.cluster.min_heap_mb();
        let bl = stage_baseline(self, &walk.session, &walk.memo, rc)?;
        let mut enums: BTreeMap<usize, (u64, f64)> = BTreeMap::new();
        let mut cut = false;
        for &(bid, baseline_cost) in &bl.blocks {
            // Once the deadline cut one block's enumeration short, the
            // rest stay at their baseline.
            let mut found = (min_heap, baseline_cost);
            if !(skip_enum || cut) {
                (found, cut) = stage_enum_block(
                    self,
                    &walk.session,
                    &walk.memo,
                    &walk.srm,
                    walk.deadline,
                    rc,
                    bid,
                    baseline_cost,
                );
            }
            enums.insert(bid, found);
        }
        Ok(PointOut {
            candidate: stage_agg(self, &walk.session, &walk.memo, rc, &enums)?,
            blocks_total: bl.blocks_total,
            blocks_remaining: bl.blocks.len(),
            cut,
        })
    }

    /// Everything before the first grid point: the what-if session with
    /// its probe compile (Step 2 of Figure 3 — program info and memory
    /// estimates for grid generation, and the seed of the plan cache),
    /// the two grids, the soundness pruning of the CP one, and the walk
    /// span.
    pub(crate) fn begin_walk<'a>(
        &self,
        analyzed: &'a AnalyzedProgram,
        base: &CompileConfig,
        scope: Option<(usize, &Env)>,
    ) -> Result<GridWalk<'a>, CompileError> {
        let start = Instant::now();
        let cc = &self.cost_model.cluster;
        let (min_heap, max_heap) = (cc.min_heap_mb(), cc.max_heap_mb());
        let mut stats = OptimizerStats::default();
        let mut session = WhatIfSession::new(analyzed, base, scope, self.config.plan_cache)?;
        let mem_estimates: Vec<f64> = session
            .probe()
            .summaries
            .iter()
            .flat_map(|s| s.mem_estimates_mb.iter().copied())
            .collect();
        let mut src = self
            .config
            .cp_grid
            .generate(min_heap, max_heap, &mem_estimates);
        let srm = self
            .config
            .mr_grid
            .generate(min_heap, max_heap, &mem_estimates);
        stats.cp_points = src.len();
        stats.mr_points = srm.len();
        let full_grid = src.clone();
        let t_prune = Instant::now();
        self.prune_unsound_cp_points(analyzed, &mut session, base, &mut src, &mut stats);
        let prune_s = t_prune.elapsed().as_secs_f64();
        let span = reml_trace::span!(
            "optimize.grid_walk",
            cp_points = src.len(),
            mr_points = srm.len(),
            workers = self.config.workers
        );
        Ok(GridWalk {
            start,
            deadline: self.config.time_budget.map(|b| start + b),
            session,
            memo: CostMemo::new(self.config.plan_cache),
            src,
            srm,
            full_grid,
            prune_s,
            stats,
            _span: span,
        })
    }

    /// Everything after the last grid point: fold the per-point
    /// candidates in ascending CP grid order (so completion order never
    /// matters), collect session/memo statistics, publish metrics, and
    /// build the ledger.
    pub(crate) fn finish_walk(
        &self,
        walk: GridWalk<'_>,
        candidates: &[Option<(ResourceConfig, f64)>],
        current_cp_heap: Option<u64>,
    ) -> Result<OptimizationResult, CompileError> {
        let cc = &self.cost_model.cluster;
        let mut best: Option<(ResourceConfig, f64)> = None;
        let mut best_local: Option<(ResourceConfig, f64)> = None;
        for (candidate, cost) in candidates.iter().flatten() {
            if improves(&best, candidate, *cost, cc) {
                best = Some((candidate.clone(), *cost));
            }
            if Some(candidate.cp_heap_mb) == current_cp_heap
                && improves(&best_local, candidate, *cost, cc)
            {
                best_local = Some((candidate.clone(), *cost));
            }
        }
        let GridWalk {
            start,
            session,
            memo,
            src,
            full_grid,
            prune_s,
            mut stats,
            ..
        } = walk;
        let session_stats = session.stats();
        stats.block_compilations = session_stats.block_compilations;
        stats.plan_cache_hits = session_stats.plan_cache_hits;
        stats.plan_cache_misses = session_stats.plan_cache_misses;
        stats.compilations_avoided = session_stats.compilations_avoided;
        stats.cost_invocations = memo.runs();
        stats.opt_time = start.elapsed();
        stats.fill_phases(
            memo.stage_time_us(),
            memo.cost_time_us(),
            session_stats.cache_lookup_us,
            prune_s,
        );
        stats.publish_metrics();
        let (best, best_cost_s) = best.ok_or_else(|| {
            CompileError::Internal("optimizer enumerated no configurations".into())
        })?;
        let ledger = build_ledger(
            &full_grid,
            &src,
            candidates,
            &best,
            best_cost_s,
            stats.sound_min_cp_budget_mb,
            cc,
        );
        Ok(OptimizationResult {
            best,
            best_cost_s,
            best_local,
            stats,
            ledger,
        })
    }

    /// Soundness pruning of the CP grid: run the interval analysis over
    /// the probe plan, derive the statically-proven minimum CP budget,
    /// and drop every grid point whose budget falls below it — those
    /// points cannot execute the program's forced-CP operators under
    /// *any* plan, so costing them is wasted work. The bound is also
    /// registered as a session breakpoint so cached plans never cross
    /// the feasibility boundary. Never empties the grid: if the bound
    /// rules out every point (the program is infeasible on this
    /// cluster), the grid is left untouched and enumeration proceeds —
    /// surfacing the least-bad configuration is more useful than an
    /// error here.
    pub(crate) fn prune_unsound_cp_points(
        &self,
        analyzed: &AnalyzedProgram,
        session: &mut WhatIfSession,
        base: &CompileConfig,
        src: &mut Vec<u64>,
        stats: &mut OptimizerStats,
    ) {
        let cc = &self.cost_model.cluster;
        let min_heap = cc.min_heap_mb();
        let probe_cfg = reml_compiler::session::with_resources(
            base,
            min_heap,
            reml_compiler::MrHeapAssignment::uniform(min_heap),
        );
        let sound_min =
            match reml_sizebound::analyze_with_min_budget(analyzed, session.probe(), &probe_cfg) {
                Ok((_, min)) => min,
                // Analysis failure must never fail optimization: no pruning.
                Err(_) => 0.0,
            };
        if sound_min <= 0.0 {
            return;
        }
        stats.sound_min_cp_budget_mb = Some(sound_min);
        let kept: Vec<u64> = src
            .iter()
            .copied()
            .filter(|&rc| cc.budget_mb_for_heap(rc) as f64 >= sound_min)
            .collect();
        if !kept.is_empty() {
            stats.cp_points_pruned_unsound = src.len() - kept.len();
            *src = kept;
        }
        reml_trace::event!(
            "optimize.prune_unsound",
            pruned = stats.cp_points_pruned_unsound,
            sound_min_mb = sound_min
        );
        session.add_program_threshold_mb(sound_min);
    }

    /// Apply §3.4 pruning to the generic-block list of a baseline
    /// compilation; returns (remaining block ids, total count).
    pub(crate) fn prune_blocks(&self, compiled: &CompiledProgram) -> (Vec<usize>, usize) {
        let total = compiled.summaries.len();
        let remaining = compiled
            .summaries
            .iter()
            .filter(|s| {
                if self.config.prune_small && s.mr_jobs == 0 {
                    return false;
                }
                if self.config.prune_unknown && s.all_mr_unknown {
                    return false;
                }
                true
            })
            .map(|s| s.block_id)
            .collect();
        (remaining, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;
    use reml_compiler::pipeline::analyze_program;
    use reml_compiler::MrHeapAssignment;
    use reml_scripts::{DataShape, Scenario};

    fn optimizer() -> ResourceOptimizer {
        ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()))
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
        let analyzed = analyze_program(&script.source).unwrap();
        (analyzed, cfg)
    }

    #[test]
    fn tiny_data_chooses_minimal_resources() {
        // XS (80 MB): everything fits everywhere; minimality tie-break
        // must select the smallest configuration.
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::XS, 100, 1.0);
        let result = optimizer().optimize(&analyzed, &base, None).unwrap();
        let cc = ClusterConfig::paper_cluster();
        assert_eq!(result.best.cp_heap_mb, cc.min_heap_mb());
        assert!(result.best_cost_s > 0.0);
    }

    #[test]
    fn cg_on_medium_data_prefers_large_cp() {
        // M dense (8 GB): iterative CG wants X in CP memory (Figure 1).
        let script = reml_scripts::linreg_cg();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let result = optimizer().optimize(&analyzed, &base, None).unwrap();
        // The CP budget must hold the 8 GB X in memory (plus vectors):
        // heap * 0.7 > 7630 MB.
        assert!(
            result.best.cp_heap_mb as f64 * 0.7 > 7630.0,
            "chose {}",
            result.best.display_gb()
        );
    }

    #[test]
    fn ds_on_medium_data_prefers_small_cp_parallel_mr() {
        // M dense1000: DS is compute-intensive; distributed plans win
        // (Figure 1 left).
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let result = optimizer().optimize(&analyzed, &base, None).unwrap();
        assert!(
            result.best.cp_heap_mb < 12 * 1024,
            "chose {}",
            result.best.display_gb()
        );
    }

    #[test]
    fn pruning_removes_all_blocks_for_tiny_data() {
        let script = reml_scripts::l2svm();
        let (analyzed, base) = setup(&script, Scenario::XS, 100, 1.0);
        let opt = optimizer();
        let result = opt.optimize(&analyzed, &base, None).unwrap();
        assert_eq!(result.stats.blocks_remaining, 0, "{:?}", result.stats);
        assert!(result.stats.blocks_total > 0);
    }

    #[test]
    fn pruning_disabled_keeps_blocks() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let mut opt = optimizer();
        opt.config.prune_small = false;
        let with_blocks = opt.optimize(&analyzed, &base, None).unwrap();
        assert!(with_blocks.stats.blocks_remaining > 0);
        let mut opt2 = optimizer();
        opt2.config.prune_small = true;
        let pruned = opt2.optimize(&analyzed, &base, None).unwrap();
        assert!(pruned.stats.cost_invocations <= with_blocks.stats.cost_invocations);
    }

    #[test]
    fn unknown_blocks_pruned_for_mlogreg() {
        let script = reml_scripts::mlogreg();
        let (analyzed, base) = setup(&script, Scenario::S, 1000, 1.0);
        let mut opt = optimizer();
        opt.config.prune_unknown = true;
        let a = opt.optimize(&analyzed, &base, None).unwrap();
        opt.config.prune_unknown = false;
        let b = opt.optimize(&analyzed, &base, None).unwrap();
        assert!(
            a.stats.blocks_remaining <= b.stats.blocks_remaining,
            "{} vs {}",
            a.stats.blocks_remaining,
            b.stats.blocks_remaining
        );
    }

    #[test]
    fn local_optimum_reported_for_current_rc() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::S, 1000, 1.0);
        let cc = ClusterConfig::paper_cluster();
        let result = optimizer()
            .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
            .unwrap();
        let (local, local_cost) = result.best_local.expect("local requested");
        assert_eq!(local.cp_heap_mb, cc.min_heap_mb());
        assert!(local_cost >= result.best_cost_s - 1e-9);
    }

    #[test]
    fn time_budget_stops_enumeration() {
        let script = reml_scripts::glm();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let mut opt = optimizer();
        opt.config.time_budget = Some(Duration::from_millis(1));
        let result = opt.optimize(&analyzed, &base, None);
        // Either finished very fast or flagged exhaustion; in both cases
        // a best configuration must exist if any point was evaluated.
        if let Ok(r) = result {
            assert!(r.stats.budget_exhausted || r.stats.opt_time < Duration::from_secs(2));
        }
    }

    #[test]
    fn zero_time_budget_still_returns_a_configuration() {
        // Satellite of the session refactor: an exhausted budget used to
        // leak out of the MR loop only, silently continuing with the next
        // CP point. Now exhaustion propagates to the outer loop — and a
        // budget that is exhausted before any point is evaluated still
        // produces a valid (baseline-only) configuration. That holds for
        // any worker count: only the first grid point is ever walked, so
        // four workers return exactly what one does.
        let script = reml_scripts::glm();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let full = optimizer().optimize(&analyzed, &base, None).unwrap();
        let mut walked = Vec::new();
        for workers in [1, 4] {
            let mut opt = optimizer();
            opt.config.time_budget = Some(Duration::ZERO);
            opt.config.workers = workers;
            let r = opt.optimize(&analyzed, &base, None).unwrap();
            assert!(r.stats.budget_exhausted, "workers={workers}");
            assert!(r.best_cost_s > 0.0);
            // Only the probe, one baseline, and one aggregate were compiled.
            assert!(
                r.stats.block_compilations < full.stats.block_compilations,
                "workers={workers}: {} vs {}",
                r.stats.block_compilations,
                full.stats.block_compilations
            );
            walked.push((
                r.best,
                r.best_cost_s.to_bits(),
                r.ledger,
                r.stats.block_compilations,
            ));
        }
        assert_eq!(walked[0], walked[1]);
    }

    #[test]
    fn plan_cache_and_bypass_agree_on_the_paper_scripts() {
        // The decision-fingerprint cache must be semantically invisible:
        // for every paper script, the cached optimizer returns the exact
        // configuration and cost of a cache-bypass run — while compiling
        // at least 2x fewer blocks.
        for ctor in [
            reml_scripts::linreg_ds,
            reml_scripts::linreg_cg,
            reml_scripts::l2svm,
            reml_scripts::glm,
            reml_scripts::mlogreg,
        ] {
            let script = ctor();
            let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
            let cc = ClusterConfig::paper_cluster();
            let mut cached = optimizer();
            cached.config.plan_cache = true;
            let mut bypass = optimizer();
            bypass.config.plan_cache = false;
            let rc = cached
                .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
                .unwrap();
            let rb = bypass
                .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
                .unwrap();
            assert_eq!(rc.best, rb.best, "{}", script.name);
            assert_eq!(
                rc.best_cost_s.to_bits(),
                rb.best_cost_s.to_bits(),
                "{}",
                script.name
            );
            assert_eq!(
                rc.best_local
                    .as_ref()
                    .map(|(c, s)| (c.clone(), s.to_bits())),
                rb.best_local
                    .as_ref()
                    .map(|(c, s)| (c.clone(), s.to_bits())),
                "{}",
                script.name
            );
            assert_eq!(rb.stats.plan_cache_hits, 0);
            assert_eq!(rb.stats.compilations_avoided, 0);
            assert!(
                rc.stats.block_compilations * 2 <= rb.stats.block_compilations,
                "{}: {} cached vs {} bypassed",
                script.name,
                rc.stats.block_compilations,
                rb.stats.block_compilations
            );
        }
    }

    #[test]
    fn unsound_cp_points_are_pruned() {
        // 8000 features make t(X)%*%X an 8000x8000 dense matrix; solve()
        // is CP-only and needs ~2x its dense size, which the interval
        // analysis proves exceeds the smallest grid budgets. Those points
        // must be skipped before costing, and the chosen configuration
        // must respect the proven bound.
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::S, 8000, 1.0);
        let result = optimizer().optimize(&analyzed, &base, None).unwrap();
        let sound_min = result
            .stats
            .sound_min_cp_budget_mb
            .expect("solve gives a finite bound");
        let cc = ClusterConfig::paper_cluster();
        assert!(
            sound_min > cc.budget_mb_for_heap(cc.min_heap_mb()) as f64,
            "{sound_min}"
        );
        assert!(
            result.stats.cp_points_pruned_unsound > 0,
            "{:?}",
            result.stats
        );
        assert!(cc.budget_mb_for_heap(result.best.cp_heap_mb) as f64 >= sound_min);

        // Four workers walk the same pruned grid and stay bit-identical.
        let mut par = optimizer();
        par.config.workers = 4;
        let rp = par.optimize(&analyzed, &base, None).unwrap();
        assert_eq!(result.best, rp.best);
        assert_eq!(result.best_cost_s.to_bits(), rp.best_cost_s.to_bits());
        assert_eq!(
            result.stats.cp_points_pruned_unsound,
            rp.stats.cp_points_pruned_unsound
        );
    }

    #[test]
    fn sound_pruning_reduces_optimization_work() {
        // Pruned grid points are never compiled or costed: the pruned
        // run must do strictly less work than a run with pruning's
        // threshold but the full grid would. Compare cost invocations
        // against total grid size as a sanity signal.
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::S, 8000, 1.0);
        let r = optimizer().optimize(&analyzed, &base, None).unwrap();
        let walked = r.stats.cp_points - r.stats.cp_points_pruned_unsound;
        assert!(walked >= 1);
        assert!(walked < r.stats.cp_points, "{:?}", r.stats);
    }

    #[test]
    fn ledger_covers_every_grid_point_and_matches_the_outcome() {
        use crate::provenance::PointVerdict;
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::S, 8000, 1.0);
        let r = optimizer().optimize(&analyzed, &base, None).unwrap();
        // One record per generated grid point, exactly one chosen.
        assert_eq!(r.ledger.points.len(), r.stats.cp_points);
        let (costed, pruned, skipped) = r.ledger.counts();
        assert_eq!(pruned, r.stats.cp_points_pruned_unsound);
        assert_eq!(costed + pruned + skipped, r.stats.cp_points);
        assert_eq!(skipped, 0, "no time budget, nothing skipped");
        let chosen = r.ledger.chosen().expect("winner recorded");
        assert_eq!(chosen.cp_heap_mb, r.best.cp_heap_mb);
        assert_eq!(
            chosen.verdict.cost_s().unwrap().to_bits(),
            r.best_cost_s.to_bits()
        );
        // Every dominated point names the winner and a non-negative-ish
        // delta (ties may dip within the 0.1% band).
        for p in &r.ledger.points {
            if let PointVerdict::Dominated {
                by_cp_heap_mb,
                delta_s,
                tie,
                ..
            } = &p.verdict
            {
                assert_eq!(*by_cp_heap_mb, r.best.cp_heap_mb);
                assert!(*delta_s >= -0.001 * r.best_cost_s || *tie);
            }
        }
        // Four workers build the identical ledger.
        let mut par = optimizer();
        par.config.workers = 4;
        let rp = par.optimize(&analyzed, &base, None).unwrap();
        assert_eq!(r.ledger, rp.ledger);
    }

    #[test]
    fn stats_report_cache_behaviour() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let r = optimizer().optimize(&analyzed, &base, None).unwrap();
        assert!(r.stats.plan_cache_hits > 0, "{:?}", r.stats);
        assert!(r.stats.compilations_avoided > 0);
        assert!(r.stats.plan_cache_hits + r.stats.plan_cache_misses >= 1);
    }

    #[test]
    fn stats_track_compilations_and_costings() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let result = optimizer().optimize(&analyzed, &base, None).unwrap();
        assert!(result.stats.block_compilations > 0);
        assert!(result.stats.cost_invocations > 0);
        assert!(result.stats.cp_points >= 2);
        assert!(result.stats.opt_time > Duration::ZERO);
    }

    #[test]
    fn parallel_identical_to_serial_bit_for_bit() {
        // Every worker runs the same per-point routine and candidates are
        // folded in grid order, so the worker count is invisible in the
        // result: the full configuration (including per-block MR
        // overrides), the cost, the local optimum and the ledger match
        // the one-worker walk exactly — also with about as many workers
        // as the hybrid grid has CP points.
        for ctor in [
            reml_scripts::linreg_ds,
            reml_scripts::linreg_cg,
            reml_scripts::l2svm,
            reml_scripts::glm,
            reml_scripts::mlogreg,
        ] {
            let script = ctor();
            let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
            let min_heap = ClusterConfig::paper_cluster().min_heap_mb();
            let walk = |workers: usize| {
                let mut opt = optimizer();
                opt.config.workers = workers;
                let r = opt.optimize(&analyzed, &base, Some(min_heap)).unwrap();
                (
                    r.best,
                    r.best_cost_s.to_bits(),
                    r.best_local.map(|(c, s)| (c, s.to_bits())),
                    r.ledger,
                )
            };
            let serial = walk(1);
            for workers in [2, 4, 8] {
                assert_eq!(serial, walk(workers), "{} x{workers}", script.name);
            }
        }
    }

    #[test]
    fn parallel_on_glm_counts_work() {
        let script = reml_scripts::glm();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let mut par = optimizer();
        par.config.workers = 4;
        let r = par.optimize(&analyzed, &base, None).unwrap();
        assert!(r.stats.block_compilations > 0);
        assert!(r.best_cost_s > 0.0);
    }

    #[test]
    fn parallel_local_optimum_reported() {
        let script = reml_scripts::linreg_cg();
        let (analyzed, base) = setup(&script, Scenario::S, 1000, 1.0);
        let cc = ClusterConfig::paper_cluster();
        let mut par = optimizer();
        par.config.workers = 4;
        let r = par
            .optimize(&analyzed, &base, Some(cc.min_heap_mb()))
            .unwrap();
        let (local, _) = r.best_local.expect("local requested");
        assert_eq!(local.cp_heap_mb, cc.min_heap_mb());
    }

    #[test]
    fn parallel_shares_the_plan_cache_across_workers() {
        let script = reml_scripts::linreg_ds();
        let (analyzed, base) = setup(&script, Scenario::M, 1000, 1.0);
        let mut par = optimizer();
        par.config.workers = 4;
        let r = par.optimize(&analyzed, &base, None).unwrap();
        assert!(r.stats.plan_cache_hits > 0, "{:?}", r.stats);
        assert!(r.stats.compilations_avoided > 0);
    }
}
