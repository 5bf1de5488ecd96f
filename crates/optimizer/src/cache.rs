//! Shared grid-walk stages and cost memoization over a what-if session.
//!
//! Algorithm 1's inner loop is three stages — baseline compile,
//! per-block MR enumeration, aggregate compile-and-cost — and this
//! module holds their single implementation; `ResourceOptimizer::
//! walk_point` runs them in that order for one CP grid point, on
//! whichever of the `workers` threads claimed it. All
//! compilation goes through the [`WhatIfSession`]'s breakpoint-keyed
//! caches, and costing is memoized here (see [`CostMemo`]).

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use reml_compiler::session::WhatIfSession;
use reml_compiler::{CompileError, CompiledProgram, MrHeapAssignment};
use reml_cost::{CostBreakdown, VarStates};
use reml_runtime::program::RtBlock;
use reml_runtime::Instruction;

use crate::optimizer::ResourceOptimizer;
use crate::resources::ResourceConfig;

/// Plan costing that reuses scans across CP budgets. The CP heap reaches
/// a scan only through its eviction checks, so a scan that evicted
/// nothing — its [`VarStates::peak`] fits the budget — gives the same
/// bits under every budget ≥ that peak. `reusable` keeps such scans keyed
/// by plan identity and MR heap(s), and serves them to any `r_c` whose
/// budget covers the peak; reuse is off when the plan cache is.
///
/// `runs` counts every costing requested, reused or run (the paper's
/// "# Cost."). A walk requests each `(block, r_c, rⁱ)` once: the grids
/// hold distinct points and the enumeration skips the baseline's `rⁱ`.
pub(crate) struct CostMemo {
    enabled: bool,
    /// Eviction-free scans, reusable at any budget ≥ their peak.
    reusable: Mutex<HashMap<ScanKey, Reusable>>,
    runs: AtomicU64,
    /// Wall time inside actual cost-model executions, microseconds (the
    /// "cost" column of the Table 3 phase split). Shared atomics so all
    /// walking threads accumulate into the same totals.
    cost_us: AtomicU64,
    /// Wall time inside the grid-walk stages (baseline/enum/agg) overall,
    /// microseconds; enumerate time = stage time − cost time.
    stage_us: AtomicU64,
    /// Plan requests already lint-verified this round (debug builds):
    /// each distinct `(r_c, mr assignment)` is checked once, bounded by
    /// the grid size.
    #[cfg(debug_assertions)]
    verified: Mutex<std::collections::HashSet<PlanReq>>,
}

/// Everything a plan scan depends on but the CP budget: the scanned plan
/// (by the address of the shared allocation holding it) and its MR
/// heap(s).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ScanKey {
    /// One generic block's instructions under MR heap `ri`.
    Block { plan: usize, block: usize, ri: u64 },
    /// A whole program under an MR heap assignment.
    Program {
        plan: usize,
        mr_heap: MrHeapAssignment,
    },
}

/// A scan that evicted nothing.
struct Reusable {
    /// Its peak resident bytes: the least budget it replays under.
    peak: u64,
    /// Its cost in f64 bits.
    bits: u64,
    /// The scanned plan, held so its address names it while the entry
    /// lives.
    _plan: Arc<dyn Any + Send + Sync>,
}

/// The address a shared plan is keyed by.
fn plan_address<P>(plan: &Arc<P>) -> usize {
    Arc::as_ptr(plan) as *const () as usize
}

/// A concrete plan request: `(r_c, default rⁱ, per-block overrides)`.
#[cfg(debug_assertions)]
type PlanReq = (u64, u64, Vec<(usize, u64)>);

impl CostMemo {
    pub(crate) fn new(enabled: bool) -> Self {
        CostMemo {
            enabled,
            reusable: Mutex::new(HashMap::new()),
            runs: AtomicU64::new(0),
            cost_us: AtomicU64::new(0),
            stage_us: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            verified: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// Cost a block's instructions under `(rc, ri)`, reusing an
    /// eviction-free scan of the same instructions. `instructions` belong
    /// to `plan`, the shared allocation a session cache handed out.
    pub(crate) fn cost_block<P: Any + Send + Sync>(
        &self,
        opt: &ResourceOptimizer,
        plan: &Arc<P>,
        instructions: &[Instruction],
        block_id: usize,
        rc: u64,
        ri: u64,
    ) -> f64 {
        let scan = ScanKey::Block {
            plan: plan_address(plan),
            block: block_id,
            ri,
        };
        self.scan(opt, rc, scan, plan, |states| {
            opt.cost_model
                .cost_instructions(instructions, rc, ri, states)
        })
    }

    /// Cost a whole program under `(rc, mr_heap)` (loops and branches
    /// included), reusing an eviction-free scan of the same plan.
    pub(crate) fn cost_program(
        &self,
        opt: &ResourceOptimizer,
        plan: &Arc<CompiledProgram>,
        rc: u64,
        mr_heap: &MrHeapAssignment,
    ) -> f64 {
        let scan = ScanKey::Program {
            plan: plan_address(plan),
            mr_heap: mr_heap.clone(),
        };
        self.scan(opt, rc, scan, plan, |states| {
            opt.cost_model.cost_program_states(
                &plan.runtime,
                rc,
                &|bid| mr_heap.for_block(bid),
                states,
            )
        })
    }

    /// One counted costing at CP heap `rc`: served from an eviction-free
    /// scan of the same `key` whose peak the budget covers, else `run`
    /// from fresh states (and kept when it evicted nothing).
    fn scan<P: Any + Send + Sync>(
        &self,
        opt: &ResourceOptimizer,
        rc: u64,
        key: ScanKey,
        plan: &Arc<P>,
        run: impl FnOnce(&mut VarStates) -> CostBreakdown,
    ) -> f64 {
        self.runs.fetch_add(1, Ordering::Relaxed);
        let budget = opt.cost_model.cp_budget_bytes(rc);
        if self.enabled {
            if let Some(hit) = self.reusable.lock().get(&key) {
                if budget >= hit.peak {
                    return f64::from_bits(hit.bits);
                }
            }
        }
        let t0 = Instant::now();
        let mut states = VarStates::new();
        let cost = run(&mut states).total_s();
        self.cost_us
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        if self.enabled && states.peak() <= budget {
            self.reusable.lock().entry(key).or_insert_with(|| Reusable {
                peak: states.peak(),
                bits: cost.to_bits(),
                _plan: plan.clone(),
            });
        }
        cost
    }

    /// Costings counted so far ("# Cost."), reused or run.
    pub(crate) fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Wall time spent inside the cost model so far, microseconds.
    pub(crate) fn cost_time_us(&self) -> u64 {
        self.cost_us.load(Ordering::Relaxed)
    }

    /// Wall time spent inside grid-walk stages so far, microseconds.
    /// With `workers > 1` this sums across threads, so it can exceed the
    /// elapsed wall time — it is CPU time spent enumerating.
    pub(crate) fn stage_time_us(&self) -> u64 {
        self.stage_us.load(Ordering::Relaxed)
    }

    /// RAII timer charging its scope to the stage total.
    fn stage_timer(&self) -> StageTimer<'_> {
        StageTimer {
            memo: self,
            start: Instant::now(),
        }
    }
}

struct StageTimer<'a> {
    memo: &'a CostMemo,
    start: Instant,
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        self.memo
            .stage_us
            .fetch_add(self.start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

/// Debug-mode plan verification (the linter's first wiring point): every
/// distinct plan request the grid walk makes is linted against the full
/// rule catalog, and — because `compile_plan` may have served it from
/// the breakpoint-keyed cache — re-compiled fresh and compared. A cached
/// plan that differs from the fresh compile, or lints differently, means
/// the threshold fingerprinting collided.
#[cfg(debug_assertions)]
fn debug_verify_plan(
    session: &WhatIfSession<'_>,
    memo: &CostMemo,
    rc: u64,
    mr_heap: &MrHeapAssignment,
    plan: &CompiledProgram,
) {
    let req: PlanReq = (
        rc,
        mr_heap.default_mb,
        mr_heap.per_block.iter().map(|(b, h)| (*b, *h)).collect(),
    );
    if !memo.verified.lock().insert(req) {
        return;
    }
    let cfg = reml_compiler::session::with_resources(session.base(), rc, mr_heap.clone());
    let report = reml_planlint::lint_compiled(session.analyzed(), plan, &cfg);
    assert!(
        report.is_empty(),
        "plan lint failed at (rc={rc} MB, ri={} MB):\n{}",
        mr_heap.default_mb,
        report.render()
    );
    let fresh = session
        .compile_plan_uncached(rc, mr_heap)
        .expect("fresh what-if compile for cache verification");
    assert!(
        fresh.runtime == plan.runtime,
        "cached plan diverges from a fresh compile at (rc={rc} MB, ri={} MB): \
         breakpoint fingerprint collision",
        mr_heap.default_mb
    );
    assert!(
        fresh.rewrite_audit == plan.rewrite_audit,
        "cached plan's rewrite audit diverges from a fresh compile at (rc={rc} MB, \
         ri={} MB): the PL050 translation-validation evidence is stale",
        mr_heap.default_mb
    );
    let fresh_report = reml_planlint::lint_compiled(session.analyzed(), &fresh, &cfg);
    assert!(
        report == fresh_report,
        "cached plan lints differently from a fresh compile at rc={rc} MB:\ncached:\n{}\nfresh:\n{}",
        report.render(),
        fresh_report.render()
    );
    // The plan the executor would actually run is the *lowered* one —
    // verify the bytecode too (PL040 family), in both fusion modes, so a
    // cache hit can never hand out a program whose lowering violates the
    // VM's invariants.
    reml_planlint::install_vm_verifier();
    for fuse in [false, true] {
        let vm = plan
            .runtime
            .lower_vm(reml_runtime::vm::VmLowerOptions { fuse });
        let vm_report = reml_planlint::lint_vm(&plan.runtime, &vm);
        assert!(
            vm_report.is_empty(),
            "bytecode lint failed at (rc={rc} MB, ri={} MB, fuse={fuse}):\n{}",
            mr_heap.default_mb,
            vm_report.render()
        );
    }
}

/// Output of the baseline stage for one CP grid point.
pub(crate) struct BaselineOut {
    /// `(block id, baseline cost)` for every unpruned block with a
    /// recorded entry environment.
    pub blocks: Vec<(usize, f64)>,
    /// Generic-block count before pruning.
    pub blocks_total: usize,
}

/// Baseline stage: compile at `(r_c, min)`, prune, and cost every
/// remaining block at the minimum MR heap (the memo seed).
pub(crate) fn stage_baseline(
    opt: &ResourceOptimizer,
    session: &WhatIfSession<'_>,
    memo: &CostMemo,
    rc: u64,
) -> Result<BaselineOut, CompileError> {
    let _t = memo.stage_timer();
    let _s = reml_trace::span!("optimize.stage_baseline", rc = rc);
    let min = session.min_heap_mb();
    let plan = session.compile_plan(rc, &MrHeapAssignment::uniform(min))?;
    #[cfg(debug_assertions)]
    debug_verify_plan(session, memo, rc, &MrHeapAssignment::uniform(min), &plan);
    let (remaining, blocks_total) = opt.prune_blocks(&plan);
    let instructions = generic_instructions(&plan);
    let mut blocks = Vec::with_capacity(remaining.len());
    for bid in remaining {
        if session.entry_env(bid).is_none() {
            continue;
        }
        let cost = memo.cost_block(opt, &plan, instructions[&bid], bid, rc, min);
        blocks.push((bid, cost));
    }
    Ok(BaselineOut {
        blocks,
        blocks_total,
    })
}

/// Every generic block's instructions in `plan`, by block id, borrowed.
fn generic_instructions(plan: &CompiledProgram) -> HashMap<usize, &[Instruction]> {
    let mut out = HashMap::new();
    for top in &plan.runtime.blocks {
        top.visit_generic(&mut |b| {
            if let RtBlock::Generic {
                source,
                instructions,
                ..
            } = b
            {
                out.insert(source.0, instructions.as_slice());
            }
        });
    }
    out
}

/// Enumeration stage: walk the MR grid for one block at a fixed `r_c`,
/// returning the best `(rⁱ, cost)` found and whether the deadline cut
/// the walk short. A per-point compile error skips that point. Strict
/// `<` keeps the smaller, earlier grid point on cost ties.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stage_enum_block(
    opt: &ResourceOptimizer,
    session: &WhatIfSession<'_>,
    memo: &CostMemo,
    srm: &[u64],
    deadline: Option<Instant>,
    rc: u64,
    block_id: usize,
    baseline_cost: f64,
) -> ((u64, f64), bool) {
    let _t = memo.stage_timer();
    let _s = reml_trace::span!("optimize.stage_enum", rc = rc, block = block_id);
    let min = session.min_heap_mb();
    let mut best = (min, baseline_cost);
    let mut exhausted = false;
    for &ri in srm {
        if ri == min {
            continue; // the baseline stage already costed this point
        }
        if deadline.map(|d| Instant::now() > d).unwrap_or(false) {
            exhausted = true;
            break;
        }
        let Ok(block) = session.compile_block(block_id, rc, ri) else {
            continue;
        };
        let cost = memo.cost_block(opt, &block, &block.instructions, block_id, rc, ri);
        if cost < best.1 {
            best = (ri, cost);
        }
    }
    (best, exhausted)
}

/// Aggregation stage: assemble the memoized MR assignment for `r_c`,
/// compile the whole program (or scope) under it, and cost it globally
/// (loops and branches included).
pub(crate) fn stage_agg(
    opt: &ResourceOptimizer,
    session: &WhatIfSession<'_>,
    memo: &CostMemo,
    rc: u64,
    enums: &BTreeMap<usize, (u64, f64)>,
) -> Result<(ResourceConfig, f64), CompileError> {
    let _t = memo.stage_timer();
    let _s = reml_trace::span!("optimize.stage_agg", rc = rc);
    let min = session.min_heap_mb();
    let mut mr_heap = MrHeapAssignment::uniform(min);
    for (bid, (ri, _)) in enums {
        if *ri != min {
            mr_heap.set_block(*bid, *ri);
        }
    }
    let plan = session.compile_plan(rc, &mr_heap)?;
    #[cfg(debug_assertions)]
    debug_verify_plan(session, memo, rc, &mr_heap, &plan);
    let cost = memo.cost_program(opt, &plan, rc, &mr_heap);
    reml_trace::event!("optimize.point", rc = rc, cost = cost);
    Ok((
        ResourceConfig {
            cp_heap_mb: rc,
            mr_heap,
        },
        cost,
    ))
}

/// Whether `(candidate, cost)` beats the incumbent: lower cost, or equal
/// cost (within 0.1%) and smaller resources (Definition 1's minimality).
pub(crate) fn improves(
    incumbent: &Option<(ResourceConfig, f64)>,
    candidate: &ResourceConfig,
    cost: f64,
    cc: &reml_cluster::ClusterConfig,
) -> bool {
    match incumbent {
        None => true,
        Some((inc, inc_cost)) => {
            let tie = (cost - inc_cost).abs() <= 0.001 * inc_cost.max(1e-9);
            if tie {
                candidate.magnitude(cc) < inc.magnitude(cc)
            } else {
                cost < *inc_cost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;
    use reml_compiler::pipeline::analyze_program;
    use reml_compiler::session::CompiledBlock;
    use reml_cost::CostModel;
    use reml_scripts::{DataShape, Scenario};

    /// One scan the grid walk requests: a generic block of a whole-program
    /// plan or a single-block recompile at `ri`, or a whole program under an
    /// MR assignment.
    enum Requested {
        PlanBlock(Arc<CompiledProgram>, usize, u64),
        Block(Arc<CompiledBlock>, usize, u64),
        Program(Arc<CompiledProgram>, MrHeapAssignment),
    }

    /// Every plan the walk requests, re-costed through the memo at every
    /// CP grid point from the largest budget down, must give the bits of a
    /// fresh scan — including the points whose budget lies below the peak
    /// an earlier, larger-budget scan of the same plan recorded, where
    /// reuse would be wrong.
    #[test]
    fn reused_costs_equal_fresh_scans() {
        let cluster = ClusterConfig::paper_cluster();
        let opt = ResourceOptimizer::new(CostModel::new(cluster.clone()));
        let (min, max) = (cluster.min_heap_mb(), cluster.max_heap_mb());
        let (mut requests, mut reused, mut below_peak) = (0, 0, 0);
        for ctor in [
            reml_scripts::linreg_ds,
            reml_scripts::linreg_cg,
            reml_scripts::l2svm,
            reml_scripts::glm,
            reml_scripts::mlogreg,
        ] {
            let script = ctor();
            let analyzed = analyze_program(&script.source).unwrap();
            for scenario in [Scenario::S, Scenario::M] {
                let shape = DataShape::paper_variants(scenario)[0];
                let base = script.compile_config(
                    shape,
                    cluster.clone(),
                    min,
                    MrHeapAssignment::uniform(min),
                );
                let session = WhatIfSession::new(&analyzed, &base, None, true).unwrap();
                let estimates: Vec<f64> = (session.probe().summaries.iter())
                    .flat_map(|s| s.mem_estimates_mb.iter().copied())
                    .collect();
                let grid = opt.config.cp_grid.generate(min, max, &estimates);
                let srm = opt.config.mr_grid.generate(min, max, &estimates);
                // Each distinct scan once, by the key the memo files it under.
                let mut scans = HashMap::new();
                for &rc in &grid {
                    let plan = session
                        .compile_plan(rc, &MrHeapAssignment::uniform(min))
                        .unwrap();
                    let mut mr_heap = MrHeapAssignment::uniform(min);
                    for bid in plan.summaries.iter().map(|s| s.block_id) {
                        let key = ScanKey::Block {
                            plan: plan_address(&plan),
                            block: bid,
                            ri: min,
                        };
                        scans.insert(key, Requested::PlanBlock(plan.clone(), bid, min));
                        for &ri in &srm {
                            let block = session.compile_block(bid, rc, ri).unwrap();
                            let key = ScanKey::Block {
                                plan: plan_address(&block),
                                block: bid,
                                ri,
                            };
                            scans.insert(key, Requested::Block(block, bid, ri));
                        }
                        mr_heap.set_block(bid, srm[bid % srm.len()]);
                    }
                    for mr_heap in [MrHeapAssignment::uniform(min), mr_heap] {
                        let plan = session.compile_plan(rc, &mr_heap).unwrap();
                        let key = ScanKey::Program {
                            plan: plan_address(&plan),
                            mr_heap: mr_heap.clone(),
                        };
                        scans.insert(key, Requested::Program(plan, mr_heap));
                    }
                }
                let memo = CostMemo::new(true);
                for (key, scan) in &scans {
                    for &rc in grid.iter().rev() {
                        let mut states = VarStates::new();
                        let model = &opt.cost_model;
                        let budget = model.cp_budget_bytes(rc);
                        let entry = memo.reusable.lock().get(key).map(|e| e.peak);
                        reused += usize::from(entry.is_some_and(|peak| budget >= peak));
                        let (got, want) = match scan {
                            Requested::PlanBlock(plan, bid, ri) => {
                                let instrs = generic_instructions(plan)[bid];
                                (
                                    memo.cost_block(&opt, plan, instrs, *bid, rc, *ri),
                                    model.cost_instructions(instrs, rc, *ri, &mut states),
                                )
                            }
                            Requested::Block(block, bid, ri) => (
                                memo.cost_block(&opt, block, &block.instructions, *bid, rc, *ri),
                                model.cost_instructions(&block.instructions, rc, *ri, &mut states),
                            ),
                            Requested::Program(plan, mr_heap) => (
                                memo.cost_program(&opt, plan, rc, mr_heap),
                                model.cost_program_states(
                                    &plan.runtime,
                                    rc,
                                    &|bid| mr_heap.for_block(bid),
                                    &mut states,
                                ),
                            ),
                        };
                        assert_eq!(
                            got.to_bits(),
                            want.total_s().to_bits(),
                            "{} {}: rc={rc}",
                            script.name,
                            scenario.name()
                        );
                        requests += 1;
                        below_peak += usize::from(states.peak() > budget);
                    }
                }
            }
        }
        assert!(
            below_peak > 100,
            "{below_peak} of {requests} requests below a peak"
        );
        assert!(
            reused > requests / 4,
            "{reused} of {requests} requests reused"
        );
    }
}
