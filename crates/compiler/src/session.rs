//! What-if compilation sessions: breakpoint-keyed plan caching for the
//! resource optimizer.
//!
//! A [`WhatIfSession`] pins one [`AnalyzedProgram`] and cluster and
//! serves every what-if compilation the optimizer requests against them
//! — whole-program plans ([`WhatIfSession::compile_plan`]) and
//! single-block recompilations ([`WhatIfSession::compile_block`]).
//!
//! The cache key is a *decision fingerprint*, not the raw heap sizes.
//! Every lowering decision the compiler makes under a memory budget —
//! the CP/MR execution choice, physical-operator selection, fusion,
//! broadcast-side selection, and piggybacking's job packing — flips only
//! at a finite set of memory thresholds, a function of each block's HOP
//! DAG alone (see [`crate::lower::decision_thresholds`]), which the
//! session derives from its probe compile's DAGs. Two budgets
//! with no threshold between them therefore produce bit-identical plans,
//! so a fingerprint is simply the index of the budget's interval in the
//! sorted threshold list. Grid enumeration over tens of heap sizes
//! collapses to a handful of distinct compilations; all other grid
//! points are cache hits.
//!
//! The distinct compilations are cheap too: the probe compile records
//! every block's built, rewritten and memory-estimated HOP DAG (and the
//! rest of the walk's budget-independent work) in a walk memo, so a cache
//! miss only re-lowers. That re-lowering is the session's one memoized
//! path. Its memo-free oracles walk from scratch, one per granularity: a
//! whole program or scope under `Memo::Off`
//! ([`WhatIfSession::compile_plan_uncached`], and every `compile_plan`
//! with caching off), and a single block through
//! [`compile_block_with_env`] (every `compile_block` with caching off).
//! A plan is held once, as an `Arc<CompiledProgram>`: the cache, the
//! probe and every caller share it.
//!
//! Sessions are `Sync`: the parallel optimizer shares one session across
//! its worker threads, so a plan compiled for one grid point is reused
//! by every other worker whose budgets land in the same intervals.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use reml_lang::BlockId;
use reml_runtime::Instruction;

use crate::build::Env;
use crate::config::{CompileConfig, CompileError, MrHeapAssignment};
use crate::pipeline::{
    compile_block_with_env, compile_memo, relower_block, AnalyzedProgram, BlockSummary,
    CompiledProgram, Memo, WalkMemo,
};

/// Tag bit marking a raw-heap (fingerprint-less) key component, used for
/// block ids the probe compilation did not see.
const RAW_HEAP_TAG: u64 = 1 << 63;

/// A cached single-block what-if recompilation.
#[derive(Debug, Clone)]
pub struct CompiledBlock {
    /// The block's instructions under the requested budgets.
    pub instructions: Vec<Instruction>,
    /// The block's summary under the requested budgets.
    pub summary: BlockSummary,
}

/// Cache counters of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Plan- and block-cache hits.
    pub plan_cache_hits: u64,
    /// Plan- and block-cache misses (actual compilations triggered).
    pub plan_cache_misses: u64,
    /// Generic-block compilations actually performed.
    pub block_compilations: u64,
    /// Generic-block compilations avoided by cache hits.
    pub compilations_avoided: u64,
    /// Wall time spent on cache bookkeeping (fingerprinting, lookups,
    /// inserts), microseconds — the "cache" column of the Table 3
    /// phase split.
    pub cache_lookup_us: u64,
}

/// Whole-program cache key: CP fingerprint, default-MR fingerprint, and
/// the per-block override fingerprints that differ from the default's
/// interval on their block (sorted by block id).
type PlanKey = (u64, u64, Vec<(usize, u64)>);

/// Single-block cache key: (block id, CP fingerprint, MR fingerprint)
/// over that block's own thresholds.
type BlockKey = (usize, u64, u64);

/// One analyzed program + cluster, with breakpoint-keyed caches over
/// every what-if compilation requested against them.
pub struct WhatIfSession<'a> {
    analyzed: &'a AnalyzedProgram,
    base: CompileConfig,
    scope: Option<(usize, Env)>,
    caching: bool,
    min_heap_mb: u64,
    probe: Arc<CompiledProgram>,
    /// The probe walk's budget-independent half (empty unless caching):
    /// every later compile only re-lowers it.
    memo: WalkMemo,
    /// Sorted, deduplicated decision thresholds per generic block (empty
    /// unless caching: only cache keys read them).
    block_thresholds: BTreeMap<usize, Vec<f64>>,
    /// Union of all block thresholds plus predicate-lowering thresholds.
    program_thresholds: Vec<f64>,
    plans: Mutex<HashMap<PlanKey, Arc<CompiledProgram>>>,
    blocks: Mutex<HashMap<BlockKey, Arc<CompiledBlock>>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    compilations: AtomicU64,
    avoided: AtomicU64,
    cache_us: AtomicU64,
}

impl<'a> WhatIfSession<'a> {
    /// Open a session: compile the probe plan at minimal resources and,
    /// when caching, derive the decision thresholds from the DAGs its walk
    /// memoized. `scope`
    /// restricts every compilation to the top-level blocks from the
    /// given index onward, starting from the given environment (the §4.2
    /// re-optimization scope).
    pub fn new(
        analyzed: &'a AnalyzedProgram,
        base: &CompileConfig,
        scope: Option<(usize, &Env)>,
        caching: bool,
    ) -> Result<Self, CompileError> {
        let min_heap_mb = base.cluster.min_heap_mb();
        let base = base.clone();
        let scope = scope.map(|(start, env)| (start, env.clone()));
        let probe_cfg = with_resources(&base, min_heap_mb, MrHeapAssignment::uniform(min_heap_mb));
        let mut memo = WalkMemo::default();
        let probe = compile_memo(
            analyzed,
            &probe_cfg,
            scope.as_ref().map(|(start, env)| (*start, env)),
            if caching {
                Memo::Fill(&mut memo)
            } else {
                Memo::Off
            },
        )?;

        // The memo holds every block and predicate DAG the probe lowered.
        let (mut block_thresholds, predicate_thresholds) = memo.thresholds();
        let mut program_thresholds: Vec<f64> = block_thresholds
            .values()
            .flatten()
            .copied()
            .chain(predicate_thresholds)
            .collect();
        for th in block_thresholds.values_mut() {
            sort_dedup(th);
        }
        sort_dedup(&mut program_thresholds);

        let compilations = probe.stats.block_compilations;
        let probe = Arc::new(probe);

        let session = WhatIfSession {
            analyzed,
            base,
            scope,
            caching,
            min_heap_mb,
            probe: probe.clone(),
            memo,
            block_thresholds,
            program_thresholds,
            plans: Mutex::new(HashMap::new()),
            blocks: Mutex::new(HashMap::new()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            compilations: AtomicU64::new(compilations),
            avoided: AtomicU64::new(0),
            cache_us: AtomicU64::new(0),
        };
        if session.caching {
            let key = session.plan_key(min_heap_mb, &MrHeapAssignment::uniform(min_heap_mb));
            session.plans.lock().insert(key, probe);
        }
        Ok(session)
    }

    /// The probe plan (compiled at minimal resources).
    pub fn probe(&self) -> &Arc<CompiledProgram> {
        &self.probe
    }

    /// The cluster's minimum heap, MB.
    pub fn min_heap_mb(&self) -> u64 {
        self.min_heap_mb
    }

    /// The analyzed program this session serves.
    pub fn analyzed(&self) -> &'a AnalyzedProgram {
        self.analyzed
    }

    /// The base compile configuration (cluster, params, inputs).
    pub fn base(&self) -> &CompileConfig {
        &self.base
    }

    /// The sorted budget thresholds (MB) whole-program plan keys are
    /// fingerprinted over: every block's and predicate's decision
    /// thresholds plus any added program threshold. Empty without caching.
    pub fn program_thresholds(&self) -> &[f64] {
        &self.program_thresholds
    }

    /// The sorted decision thresholds (MB) of one generic block, when
    /// caching and the probe compile reached the block.
    pub fn block_thresholds(&self, block_id: usize) -> Option<&[f64]> {
        self.block_thresholds.get(&block_id).map(Vec::as_slice)
    }

    /// The recorded entry environment of a generic block, if the probe
    /// compilation reached it.
    pub fn entry_env(&self, block_id: usize) -> Option<&Env> {
        self.probe.entry_envs.get(&block_id)
    }

    /// Register an additional program-level budget threshold (e.g. the
    /// statically-proven minimum CP budget from the soundness analysis).
    /// Budgets on either side of the threshold get distinct plan
    /// fingerprints, so the cache never serves a plan across a
    /// feasibility boundary the caller knows about. Clears the caches:
    /// existing keys were computed over the old threshold list.
    pub fn add_program_threshold_mb(&mut self, mb: f64) {
        if !mb.is_finite() || mb <= 0.0 {
            return;
        }
        self.program_thresholds.push(mb);
        sort_dedup(&mut self.program_thresholds);
        self.plans.lock().clear();
        self.blocks.lock().clear();
        if self.caching {
            let key = self.plan_key(
                self.min_heap_mb,
                &MrHeapAssignment::uniform(self.min_heap_mb),
            );
            self.plans.lock().insert(key, self.probe.clone());
        }
    }

    /// Fingerprint of a budget over a sorted threshold list: the index
    /// of the interval the budget falls into. Budgets in the same
    /// interval make identical decisions everywhere the thresholds came
    /// from.
    fn fingerprint(&self, thresholds: &[f64], heap_mb: u64) -> u64 {
        let budget = self.base.cluster.budget_mb_for_heap(heap_mb) as f64;
        thresholds.partition_point(|t| *t <= budget) as u64
    }

    fn plan_key(&self, cp_heap_mb: u64, mr_heap: &MrHeapAssignment) -> PlanKey {
        let cp_fp = self.fingerprint(&self.program_thresholds, cp_heap_mb);
        let default_fp = self.fingerprint(&self.program_thresholds, mr_heap.default_mb);
        let mut overrides = Vec::new();
        for (&bid, &heap) in &mr_heap.per_block {
            match self.block_thresholds.get(&bid) {
                Some(th) => {
                    let fp = self.fingerprint(th, heap);
                    // An override in the same interval as the default is
                    // indistinguishable from no override on this block.
                    if fp != self.fingerprint(th, mr_heap.default_mb) {
                        overrides.push((bid, fp));
                    }
                }
                None => overrides.push((bid, heap | RAW_HEAP_TAG)),
            }
        }
        (cp_fp, default_fp, overrides)
    }

    fn block_key(&self, block_id: usize, cp_heap_mb: u64, mr_heap_mb: u64) -> BlockKey {
        match self.block_thresholds.get(&block_id) {
            Some(th) => (
                block_id,
                self.fingerprint(th, cp_heap_mb),
                self.fingerprint(th, mr_heap_mb),
            ),
            None => (
                block_id,
                cp_heap_mb | RAW_HEAP_TAG,
                mr_heap_mb | RAW_HEAP_TAG,
            ),
        }
    }

    /// Walk the session's scope under `(cp, mr)` heaps: from scratch with
    /// [`Memo::Off`], or re-lowering every block the probe's memo holds.
    fn walk(
        &self,
        cp_heap_mb: u64,
        mr_heap: &MrHeapAssignment,
        memo: Memo<'_>,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        let cfg = with_resources(&self.base, cp_heap_mb, mr_heap.clone());
        let scope = self.scope.as_ref().map(|(start, env)| (*start, env));
        compile_memo(self.analyzed, &cfg, scope, memo).map(Arc::new)
    }

    /// What-if compile the whole program (or session scope) under the
    /// given resources, serving from the plan cache when the requested
    /// budgets fingerprint-match an earlier compilation. With caching off
    /// every call walks from scratch.
    pub fn compile_plan(
        &self,
        cp_heap_mb: u64,
        mr_heap: &MrHeapAssignment,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        if !self.caching {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
            let plan = self.walk(cp_heap_mb, mr_heap, Memo::Off)?;
            self.compilations
                .fetch_add(plan.stats.block_compilations, Ordering::Relaxed);
            return Ok(plan);
        }
        let t0 = Instant::now();
        let key = self.plan_key(cp_heap_mb, mr_heap);
        let hit = self.plans.lock().get(&key).cloned();
        self.cache_us
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        if let Some(hit) = hit {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            self.avoided
                .fetch_add(hit.stats.block_compilations, Ordering::Relaxed);
            reml_trace::count("session.plan_cache.hits", 1);
            return Ok(hit);
        }
        reml_trace::count("session.plan_cache.misses", 1);
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        // The lock is released during compilation: a racing worker may
        // compile the same key, but both compilations are deterministic
        // and identical, so last-insert-wins is fine.
        let plan = {
            let _s = reml_trace::span!("session.compile_plan", cp_mb = cp_heap_mb);
            self.walk(cp_heap_mb, mr_heap, Memo::Use(&self.memo))?
        };
        self.compilations
            .fetch_add(plan.stats.block_compilations, Ordering::Relaxed);
        let t1 = Instant::now();
        self.plans.lock().insert(key, plan.clone());
        self.cache_us
            .fetch_add(t1.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(plan)
    }

    /// Compile the plan from scratch, without touching the session
    /// counters: the memo-free oracle walk, invisible to the hit/miss
    /// accounting. Debug-mode cache verification holds every cached plan
    /// to it — a cached plan must be byte-identical to this fresh
    /// compile, or the breakpoint fingerprinting collided or the memo
    /// went stale.
    pub fn compile_plan_uncached(
        &self,
        cp_heap_mb: u64,
        mr_heap: &MrHeapAssignment,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        self.walk(cp_heap_mb, mr_heap, Memo::Off)
    }

    /// What-if recompile a single generic block under `(cp, mr)` heaps,
    /// starting from the probe's recorded entry environment (entry
    /// environments are resource-independent).
    pub fn compile_block(
        &self,
        block_id: usize,
        cp_heap_mb: u64,
        mr_heap_mb: u64,
    ) -> Result<Arc<CompiledBlock>, CompileError> {
        let t0 = Instant::now();
        let key = self
            .caching
            .then(|| self.block_key(block_id, cp_heap_mb, mr_heap_mb));
        if let Some(key) = &key {
            let hit = self.blocks.lock().get(key).cloned();
            self.cache_us
                .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
            if let Some(hit) = hit {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                self.avoided.fetch_add(1, Ordering::Relaxed);
                reml_trace::count("session.block_cache.hits", 1);
                return Ok(hit);
            }
            reml_trace::count("session.block_cache.misses", 1);
        }
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        let entry_env = self.entry_env(block_id).ok_or_else(|| {
            CompileError::Internal(format!("no entry environment for block {block_id}"))
        })?;
        let mut cfg = with_resources(
            &self.base,
            cp_heap_mb,
            MrHeapAssignment::uniform(self.min_heap_mb),
        );
        cfg.mr_heap.set_block(block_id, mr_heap_mb);
        // The probe walk that recorded the entry environment also filled
        // the memo, so with caching on the block is always memoized.
        let (instructions, summary, stats) = if self.caching {
            relower_block(&cfg, BlockId(block_id), &self.memo)?
        } else {
            compile_block_with_env(
                self.analyzed,
                &cfg,
                BlockId(block_id),
                &mut entry_env.clone(),
            )?
        };
        self.compilations
            .fetch_add(stats.block_compilations, Ordering::Relaxed);
        let block = Arc::new(CompiledBlock {
            instructions,
            summary,
        });
        if let Some(key) = key {
            let t1 = Instant::now();
            self.blocks.lock().insert(key, block.clone());
            self.cache_us
                .fetch_add(t1.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        Ok(block)
    }

    /// Snapshot of the session's cache counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            plan_cache_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.plan_misses.load(Ordering::Relaxed),
            block_compilations: self.compilations.load(Ordering::Relaxed),
            compilations_avoided: self.avoided.load(Ordering::Relaxed),
            cache_lookup_us: self.cache_us.load(Ordering::Relaxed),
        }
    }
}

/// Clone a base config with new resources.
pub fn with_resources(
    base: &CompileConfig,
    cp_heap_mb: u64,
    mr_heap: MrHeapAssignment,
) -> CompileConfig {
    let mut cfg = base.clone();
    cfg.cp_heap_mb = cp_heap_mb;
    cfg.mr_heap = mr_heap;
    cfg
}

fn sort_dedup(values: &mut Vec<f64>) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
    values.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze_program;
    use reml_cluster::ClusterConfig;
    use reml_matrix::MatrixCharacteristics;

    fn setup() -> (AnalyzedProgram, CompileConfig) {
        let src = r#"
            X = read("X");
            y = read("y");
            w = t(X) %*% (X %*% t(X) %*% y);
            z = sum(w * y);
            print(z);
        "#;
        let analyzed = analyze_program(src).unwrap();
        let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 512, 512)
            .with_input("X", MatrixCharacteristics::dense(100_000, 1_000))
            .with_input("y", MatrixCharacteristics::dense(100_000, 1));
        (analyzed, cfg)
    }

    #[test]
    fn same_interval_heaps_hit_the_cache() {
        let (analyzed, cfg) = setup();
        let session = WhatIfSession::new(&analyzed, &cfg, None, true).unwrap();
        let mr = MrHeapAssignment::uniform(512);
        let a = session.compile_plan(4096, &mr).unwrap();
        // 4097 MB heap lands in the same budget interval as 4096 unless a
        // threshold separates them — and thresholds are sparse.
        let key_a = session.plan_key(4096, &mr);
        let key_b = session.plan_key(4097, &mr);
        if key_a == key_b {
            let b = session.compile_plan(4097, &mr).unwrap();
            assert!(Arc::ptr_eq(&a, &b));
            assert!(session.stats().plan_cache_hits >= 1);
        }
    }

    #[test]
    fn probe_resources_are_served_from_cache() {
        let (analyzed, cfg) = setup();
        let session = WhatIfSession::new(&analyzed, &cfg, None, true).unwrap();
        let min = session.min_heap_mb();
        let before = session.stats().block_compilations;
        let plan = session
            .compile_plan(min, &MrHeapAssignment::uniform(min))
            .unwrap();
        assert!(Arc::ptr_eq(&plan, session.probe()));
        assert_eq!(session.stats().block_compilations, before);
        assert!(session.stats().compilations_avoided > 0);
    }

    #[test]
    fn bypass_mode_always_recompiles() {
        let (analyzed, cfg) = setup();
        let session = WhatIfSession::new(&analyzed, &cfg, None, false).unwrap();
        let mr = MrHeapAssignment::uniform(512);
        let before = session.stats().block_compilations;
        session.compile_plan(4096, &mr).unwrap();
        session.compile_plan(4096, &mr).unwrap();
        let after = session.stats().block_compilations;
        assert!(after >= before + 2);
        assert_eq!(session.stats().plan_cache_hits, 0);
    }

    #[test]
    fn caching_off_compile_plan_is_the_uncached_walk() {
        let (analyzed, cfg) = setup();
        let session = WhatIfSession::new(&analyzed, &cfg, None, false).unwrap();
        let mr = MrHeapAssignment::uniform(512);
        for (i, heap) in [512u64, 4096, 32768].into_iter().enumerate() {
            let plan = session.compile_plan(heap, &mr).unwrap();
            let counted = session.stats();
            assert_eq!(counted.plan_cache_misses, i as u64 + 1);
            let fresh = session.compile_plan_uncached(heap, &mr).unwrap();
            assert_eq!(session.stats(), counted, "the oracle walk counts nothing");
            assert!(plan.runtime == fresh.runtime);
            assert!(plan.rewrite_audit == fresh.rewrite_audit);
            assert_eq!(
                format!("{:?}", plan.summaries),
                format!("{:?}", fresh.summaries)
            );
            assert!(plan.entry_envs == fresh.entry_envs);
            assert_eq!(plan.stats, fresh.stats);
        }
    }

    #[test]
    fn cached_and_fresh_plans_agree_across_the_grid() {
        let (analyzed, cfg) = setup();
        let cached = WhatIfSession::new(&analyzed, &cfg, None, true).unwrap();
        let fresh = WhatIfSession::new(&analyzed, &cfg, None, false).unwrap();
        for heap in [512u64, 1024, 2048, 4096, 8192, 16384, 32768] {
            let mr = MrHeapAssignment::uniform(512);
            let a = cached.compile_plan(heap, &mr).unwrap();
            let b = fresh.compile_plan(heap, &mr).unwrap();
            assert_eq!(
                format!("{:?}", a.runtime),
                format!("{:?}", b.runtime),
                "plans diverge at cp heap {heap}"
            );
        }
        assert!(cached.stats().block_compilations < fresh.stats().block_compilations);
    }

    #[test]
    fn block_recompilation_is_cached() {
        let (analyzed, cfg) = setup();
        let session = WhatIfSession::new(&analyzed, &cfg, None, true).unwrap();
        let bid = session.probe().summaries[0].block_id;
        let before = session.stats().block_compilations;
        let a = session.compile_block(bid, 512, 4096).unwrap();
        let mid = session.stats().block_compilations;
        let b = session.compile_block(bid, 512, 4096).unwrap();
        assert_eq!(session.stats().block_compilations, mid);
        assert!(mid > before);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(session.stats().compilations_avoided, 1);
    }
}
