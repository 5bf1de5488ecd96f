//! Shared grid-walk stages and cost memoization over a what-if session.
//!
//! Algorithm 1's inner loop is three stages — baseline compile,
//! per-block MR enumeration, aggregate compile-and-cost — and this
//! module holds their single implementation; `ResourceOptimizer::
//! walk_point` runs them in that order for one CP grid point, on
//! whichever of the `workers` threads claimed it. All
//! compilation goes through the [`WhatIfSession`]'s breakpoint-keyed
//! caches, and per-block costing is memoized here keyed by
//! `(block, r_c, rⁱ)` (the cost model reads the actual heap sizes, not
//! just the plan, so the raw heaps stay in the key).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use reml_compiler::session::WhatIfSession;
use reml_compiler::{CompileError, MrHeapAssignment};
use reml_cost::VarStates;
use reml_runtime::Instruction;

use crate::optimizer::ResourceOptimizer;
use crate::resources::ResourceConfig;

/// Memoized per-block costing. `runs` counts actual cost-model
/// executions (the paper's "# Cost."); hits return the stored value
/// without running the model.
pub(crate) struct CostMemo {
    enabled: bool,
    /// (block id, cp heap, mr heap) → cost in f64 bits.
    map: Mutex<HashMap<(usize, u64, u64), u64>>,
    runs: AtomicU64,
    hits: AtomicU64,
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

/// A concrete plan request: `(r_c, default rⁱ, per-block overrides)`.
#[cfg(debug_assertions)]
type PlanReq = (u64, u64, Vec<(usize, u64)>);

impl CostMemo {
    pub(crate) fn new(enabled: bool) -> Self {
        CostMemo {
            enabled,
            map: Mutex::new(HashMap::new()),
            runs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            cost_us: AtomicU64::new(0),
            stage_us: AtomicU64::new(0),
            #[cfg(debug_assertions)]
            verified: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// Cost a block's instructions under `(rc, ri)`, memoized.
    pub(crate) fn cost_block(
        &self,
        opt: &ResourceOptimizer,
        instructions: &[Instruction],
        block_id: usize,
        rc: u64,
        ri: u64,
    ) -> f64 {
        let key = (block_id, rc, ri);
        if self.enabled {
            if let Some(bits) = self.map.lock().get(&key).copied() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return f64::from_bits(bits);
            }
        }
        let t0 = Instant::now();
        let cost = opt
            .cost_model
            .cost_instructions(instructions, rc, ri, &mut VarStates::new())
            .total_s();
        self.cost_us
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
        if self.enabled {
            self.map.lock().insert(key, cost.to_bits());
        }
        cost
    }

    /// Record an unmemoized cost-model run (whole-program costing).
    pub(crate) fn count_direct(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Actual cost-model executions so far.
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
    plan: &reml_compiler::session::PlanHandle,
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
    let report = reml_planlint::lint_compiled(session.analyzed(), &plan.compiled, &cfg);
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
        fresh.compiled.runtime == plan.compiled.runtime,
        "cached plan diverges from a fresh compile at (rc={rc} MB, ri={} MB): \
         breakpoint fingerprint collision",
        mr_heap.default_mb
    );
    assert!(
        fresh.compiled.rewrite_audit == plan.compiled.rewrite_audit,
        "cached plan's rewrite audit diverges from a fresh compile at (rc={rc} MB, \
         ri={} MB): the PL050 translation-validation evidence is stale",
        mr_heap.default_mb
    );
    let fresh_report = reml_planlint::lint_compiled(session.analyzed(), &fresh.compiled, &cfg);
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
            .compiled
            .runtime
            .lower_vm(reml_runtime::vm::VmLowerOptions { fuse });
        let vm_report = reml_planlint::lint_vm(&plan.compiled.runtime, &vm);
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
    let (remaining, blocks_total) = opt.prune_blocks(&plan.compiled);
    let mut blocks = Vec::with_capacity(remaining.len());
    for bid in remaining {
        if session.entry_env(bid).is_none() {
            continue;
        }
        let instrs = &plan.generic_instructions[&bid];
        let cost = memo.cost_block(opt, instrs, bid, rc, min);
        blocks.push((bid, cost));
    }
    Ok(BaselineOut {
        blocks,
        blocks_total,
    })
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
        let cost = memo.cost_block(opt, &block.instructions, block_id, rc, ri);
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
    let heap_of = mr_heap.clone();
    let t0 = Instant::now();
    let cost = opt
        .cost_model
        .cost_program(&plan.compiled.runtime, rc, &|bid| heap_of.for_block(bid))
        .total_s();
    memo.cost_us
        .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    memo.count_direct();
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
