//! Whole-program compilation: the orchestration of front end, inlining,
//! inter-block size propagation, per-block HOP→LOP lowering, and runtime
//! program assembly. Also provides the per-block recompilation entry
//! points the resource optimizer (Algorithm 1) and the runtime adaptation
//! loop (§4) use.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use reml_lang::ast::{BinOp, Expr};
use reml_lang::blocks::{
    build_blocks, count_all_blocks, find_block, StatementBlock, StatementBlockKind,
};
use reml_lang::{validate, BlockId};
use reml_matrix::MatrixCharacteristics;
use reml_runtime::program::{Predicate, RtBlock, RuntimeProgram};
use reml_runtime::value::ScalarValue;
use reml_runtime::Instruction;

use crate::build::{
    agreed_constant, join_env_into, merge_env_into, BlockBuilder, Env, FoldRecord, VarInfo,
};
use crate::config::{CompileConfig, CompileError, CompileStats};
use crate::hop::{CseHit, HopDag, HopId, VType};
use crate::inline::inline_functions;
use crate::lower::{decision_thresholds, lower_dag};
use crate::memest::estimate_dag;
use crate::rewrites::{apply_rewrites_logged, RewriteRecord, RewriteStats};

/// A parsed, validated, inlined program with its statement-block
/// hierarchy — the resource-independent front half of compilation. The
/// resource optimizer compiles one `AnalyzedProgram` many times under
/// different memory budgets.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The inlined program.
    pub program: reml_lang::Program,
    /// Statement-block hierarchy.
    pub blocks: Vec<StatementBlock>,
    /// Source line count (Table 1's `#Lines`).
    pub num_lines: usize,
}

impl AnalyzedProgram {
    /// Total block count (Table 1's `#Blocks`).
    pub fn num_blocks(&self) -> usize {
        count_all_blocks(&self.blocks)
    }
}

/// Parse, validate, and inline a DML source.
pub fn analyze_program(source: &str) -> Result<AnalyzedProgram, CompileError> {
    let _analyze = reml_trace::span!("compile.analyze");
    let program = {
        let _s = reml_trace::span!("compile.parse");
        reml_lang::parse(source)?
    };
    {
        let _s = reml_trace::span!("compile.validate");
        validate(&program)?;
    }
    let inlined = {
        let _s = reml_trace::span!("compile.inline");
        inline_functions(&program)?
    };
    let blocks = {
        let _s = reml_trace::span!("compile.build_blocks");
        build_blocks(&inlined)
    };
    reml_trace::event!(
        "compile.analyzed",
        lines = inlined.num_lines as u64,
        blocks = blocks.len()
    );
    Ok(AnalyzedProgram {
        num_lines: inlined.num_lines,
        program: inlined,
        blocks,
    })
}

/// Per-generic-block compilation summary — the information the resource
/// optimizer's pruning (§3.4) and grid generation (§3.3) need.
#[derive(Debug, Clone)]
pub struct BlockSummary {
    /// Statement-block id.
    pub block_id: usize,
    /// Number of MR jobs compiled for this block.
    pub mr_jobs: usize,
    /// Whether unknown sizes marked the block for dynamic recompilation.
    pub requires_recompile: bool,
    /// Whether *all* MR operators in the block have unknown dimensions
    /// (pruning of blocks of unknowns).
    pub all_mr_unknown: bool,
    /// Finite operator memory estimates, MB (memory-based grid fodder).
    pub mem_estimates_mb: Vec<f64>,
}

/// Everything the rewrite engine claimed about one generic block:
/// applied rewrites, constant folds, and CSE merges, in occurrence
/// order. The PL050 translation-validation pass re-proves each claim.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockAudit {
    /// Algebraic rewrites applied to the block DAG.
    pub records: Vec<RewriteRecord>,
    /// Constant folds performed while building the block DAG.
    pub folds: Vec<FoldRecord>,
    /// CSE merges during construction and rewriting.
    pub cse: Vec<CseHit>,
}

/// One branch removed at compile time because its predicate folded to a
/// constant. The validator re-proves the guard by independent constant
/// propagation over the recorded entry environment (PL055).
#[derive(Debug, Clone, PartialEq)]
pub struct BranchRecord {
    /// Statement-block id of the removed `if`.
    pub block_id: usize,
    /// Which branch the compiler inlined (`true` = then).
    pub taken: bool,
    /// Variable environment the predicate was folded against.
    pub env: Env,
}

/// Whole-program rewrite audit log: the structured self-report every
/// translation-validation rule checks against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RewriteAudit {
    /// Per-generic-block audit, keyed by statement-block id.
    pub blocks: BTreeMap<usize, BlockAudit>,
    /// Compile-time branch removals, in walk order.
    pub branches: Vec<BranchRecord>,
}

impl RewriteAudit {
    /// Total rewrite records across all blocks.
    pub fn num_rewrites(&self) -> u64 {
        self.blocks.values().map(|b| b.records.len() as u64).sum()
    }
}

/// A compiled program plus optimizer-facing metadata.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The executable plan.
    pub runtime: RuntimeProgram,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Summaries of all generic blocks in execution order.
    pub summaries: Vec<BlockSummary>,
    /// Variable environment at entry of each generic block (key:
    /// statement-block id). Resource-independent; enables per-block
    /// what-if recompilation without re-walking the program.
    pub entry_envs: BTreeMap<usize, Env>,
    /// Structured self-report of every rewrite, fold, CSE merge, and
    /// branch removal the compiler performed (empty for single-block
    /// recompiles, which do not record).
    pub rewrite_audit: RewriteAudit,
}

impl CompiledProgram {
    /// Total MR jobs in the program.
    pub fn mr_jobs(&self) -> usize {
        self.runtime.count_mr_jobs()
    }

    /// Shortcut to the block count.
    pub fn num_blocks(&self) -> usize {
        self.runtime.num_blocks()
    }

    /// Lower the compiled runtime program into flat bytecode for the
    /// register VM, with peephole fusion per `options`.
    pub fn lower_vm(&self, options: reml_runtime::vm::VmLowerOptions) -> reml_runtime::VmProgram {
        reml_runtime::vm::lower_program(&self.runtime, options)
    }
}

/// Compile an analyzed program under a resource configuration.
pub fn compile(
    analyzed: &AnalyzedProgram,
    config: &CompileConfig,
) -> Result<CompiledProgram, CompileError> {
    compile_memo(analyzed, config, None, Memo::Off)
}

/// Convenience: analyze + compile a source string.
pub fn compile_source(
    source: &str,
    config: &CompileConfig,
) -> Result<CompiledProgram, CompileError> {
    let analyzed = analyze_program(source)?;
    compile(&analyzed, config)
}

/// Compile the whole program (`scope: None`) or a *scope* of it — the
/// top-level blocks from a start index to the end, from a given variable
/// environment: the §4.2 re-optimization scope, "expand the scope from the
/// current position to the outer loop or top level in the current call
/// context to the end of this context". With [`Memo::Off`] this is the
/// memo-free oracle walk; a what-if session fills and serves a memo.
pub(crate) fn compile_memo(
    analyzed: &AnalyzedProgram,
    config: &CompileConfig,
    scope: Option<(usize, &Env)>,
    memo: Memo<'_>,
) -> Result<CompiledProgram, CompileError> {
    // The whole program is the scope from the first top-level block with
    // nothing bound; only a whole program carries its params and inputs.
    let (start, mut env) = scope.map_or((0, Env::new()), |(start, env)| (start, env.clone()));
    let mut walker = Walker::new(config, true, memo);
    let blocks = walker.walk_blocks(
        &analyzed.blocks[start.min(analyzed.blocks.len())..],
        &mut env,
    )?;
    let mut runtime = RuntimeProgram {
        blocks,
        params: Vec::new(),
        inputs: Vec::new(),
    };
    if scope.is_none() {
        runtime.params = config
            .params
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        runtime.inputs = config.inputs.iter().map(|(k, v)| (k.clone(), *v)).collect();
    }
    Ok(CompiledProgram {
        runtime,
        stats: walker.stats,
        summaries: walker.summaries,
        entry_envs: walker.entry_envs,
        rewrite_audit: walker.audit,
    })
}

/// Index of the top-level block containing (or equal to) `id`, for scope
/// expansion. Returns `None` when the id is unknown.
pub fn top_level_index_of(analyzed: &AnalyzedProgram, id: BlockId) -> Option<usize> {
    analyzed
        .blocks
        .iter()
        .position(|b| find_block([b], id).is_some())
}

/// A single-block compile: the block's instructions, its summary, and
/// the counters the compile charged.
pub type SingleBlock = (Vec<Instruction>, BlockSummary, CompileStats);

/// Recompile a single generic block under (possibly different) resources,
/// starting from a recorded entry environment, and advance `env` past the
/// block. This is the inner-loop operation of Algorithm 1 (line 11), of
/// runtime re-optimization, and of the simulator's block-by-block
/// interpretation.
pub fn compile_block_with_env(
    analyzed: &AnalyzedProgram,
    config: &CompileConfig,
    block_id: BlockId,
    env: &mut Env,
) -> Result<SingleBlock, CompileError> {
    let block = find_block(&analyzed.blocks, block_id)
        .ok_or_else(|| CompileError::Internal(format!("no block {block_id:?}")))?;
    let StatementBlockKind::Generic { statements } = &block.kind else {
        return Err(CompileError::Internal(format!(
            "block {block_id:?} is not generic"
        )));
    };
    let mut walker = Walker::new(config, false, Memo::Off);
    let rt = walker.compile_generic(block_id, statements, env)?;
    walker.into_single_block(rt)
}

/// [`compile_block_with_env`] of a block `memo` holds: only its lowering
/// runs.
pub(crate) fn relower_block(
    config: &CompileConfig,
    block_id: BlockId,
    memo: &WalkMemo,
) -> Result<SingleBlock, CompileError> {
    let built = memo
        .generic
        .get(&block_id.0)
        .ok_or_else(|| CompileError::Internal(format!("no memoized build of {block_id:?}")))?;
    let _block = reml_trace::span!("compile.block", block = block_id.0);
    let mut walker = Walker::new(config, false, Memo::Off);
    let rt = walker.lower_generic(block_id, built)?;
    walker.into_single_block(rt)
}

/// Size-propagation-only pass over a block list from a given environment
/// (no instruction generation). The simulator uses this to advance the
/// environment over branches it does not execute.
pub fn propagate_blocks_env(
    config: &CompileConfig,
    blocks: &[StatementBlock],
    env: &mut Env,
) -> Result<(), CompileError> {
    Walker::new(config, false, Memo::Off).propagate_blocks(blocks, env)
}

/// Fold a predicate expression against an environment (simulator control
/// flow). Returns the constant when the predicate folds.
pub fn fold_predicate_with_env(
    config: &CompileConfig,
    pred: &Expr,
    env: &Env,
) -> Result<Option<ScalarValue>, CompileError> {
    let builder = BlockBuilder::new(config);
    let (_, _, konst) = builder.build_predicate(pred, env)?;
    Ok(konst)
}

/// The budget-independent half of a compile walk, keyed by statement
/// block: everything the walk derives before `lower_dag` sees a memory
/// budget. Nothing in it reads the heaps — DAG construction, rewrites and
/// memory estimates see only the environment, params, inputs and the
/// `table()` hint — so every walk of one scope under one base
/// configuration reaches each block with the same environment and
/// rebuilds exactly these values. A what-if session fills one memo with
/// its probe compile and afterwards only re-lowers.
#[derive(Debug, Default)]
pub(crate) struct WalkMemo {
    /// Each generic block's build.
    generic: HashMap<usize, GenericBuild>,
    /// Constant fold of each `if` predicate.
    if_folds: HashMap<usize, Option<ScalarValue>>,
    /// Each loop's relaxed body-entry environment and iteration hint.
    loops: HashMap<usize, (Env, Option<u64>)>,
    /// Each predicate's estimated DAG and root.
    predicates: HashMap<(usize, PredSlot), (HopDag, HopId)>,
}

impl WalkMemo {
    /// The memoized walk's decision thresholds (see
    /// [`decision_thresholds`]): each generic block's, keyed by block id,
    /// and each predicate's, in no particular order. They are a function
    /// of the memoized DAGs alone, so no lowering computes them.
    pub(crate) fn thresholds(&self) -> (BTreeMap<usize, Vec<f64>>, Vec<f64>) {
        let blocks = (self.generic.iter())
            .map(|(&id, built)| (id, decision_thresholds(&built.dag, &[])))
            .collect();
        let predicates = (self.predicates.values())
            .flat_map(|(dag, root)| decision_thresholds(dag, &[*root]))
            .collect();
        (blocks, predicates)
    }
}

/// Which predicate of a control-flow block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PredSlot {
    /// `if`/`while` condition.
    Cond,
    /// `for` range start.
    From,
    /// `for` range end.
    To,
}

/// One generic block's HOP DAG, built, rewritten and memory-estimated,
/// with what building it reported.
#[derive(Debug)]
struct GenericBuild {
    dag: HopDag,
    /// Environment after the block (kept only in a memo).
    env_after: Env,
    records: Vec<RewriteRecord>,
    folds: Vec<FoldRecord>,
    /// Counters the build charges: all but `block_compilations`, which
    /// lowering charges.
    stats: CompileStats,
}

impl GenericBuild {
    /// What building the block reported, for the rewrite audit.
    fn audit(&self) -> BlockAudit {
        BlockAudit {
            records: self.records.clone(),
            folds: self.folds.clone(),
            cse: self.dag.cse_log.clone(),
        }
    }

    /// [`GenericBuild::audit`], moved out of a build nothing keeps.
    fn take_audit(&mut self) -> BlockAudit {
        BlockAudit {
            records: std::mem::take(&mut self.records),
            folds: std::mem::take(&mut self.folds),
            cse: std::mem::take(&mut self.dag.cse_log),
        }
    }
}

/// How a walk uses a [`WalkMemo`].
pub(crate) enum Memo<'m> {
    /// Build everything (plain compilation).
    Off,
    /// Build everything and record it.
    Fill(&'m mut WalkMemo),
    /// Serve what the memo holds; build the rest.
    Use(&'m WalkMemo),
}

struct Walker<'a, 'm> {
    config: &'a CompileConfig,
    memo: Memo<'m>,
    stats: CompileStats,
    summaries: Vec<BlockSummary>,
    entry_envs: BTreeMap<usize, Env>,
    audit: RewriteAudit,
    /// Record entry envs (disabled for single-block recompiles).
    record: bool,
}

impl<'a, 'm> Walker<'a, 'm> {
    fn new(config: &'a CompileConfig, record: bool, memo: Memo<'m>) -> Self {
        Walker {
            config,
            memo,
            stats: CompileStats::default(),
            summaries: Vec::new(),
            entry_envs: BTreeMap::new(),
            audit: RewriteAudit::default(),
            record,
        }
    }

    /// The memo this walk serves from, if any.
    fn recall(&self) -> Option<&'m WalkMemo> {
        match self.memo {
            Memo::Use(memo) => Some(memo),
            _ => None,
        }
    }

    /// The memo this walk records into, if any.
    fn filling(&mut self) -> Option<&mut WalkMemo> {
        match &mut self.memo {
            Memo::Fill(memo) => Some(memo),
            _ => None,
        }
    }

    /// The instructions, summary and counters of a single-block walk.
    fn into_single_block(mut self, rt: RtBlock) -> Result<SingleBlock, CompileError> {
        let RtBlock::Generic { instructions, .. } = rt else {
            unreachable!()
        };
        let summary = self
            .summaries
            .pop()
            .ok_or_else(|| CompileError::Internal("missing summary".into()))?;
        Ok((instructions, summary, self.stats))
    }

    fn walk_blocks(
        &mut self,
        blocks: &[StatementBlock],
        env: &mut Env,
    ) -> Result<Vec<RtBlock>, CompileError> {
        let mut out = Vec::new();
        for block in blocks {
            match &block.kind {
                StatementBlockKind::Generic { statements } => {
                    if self.record {
                        self.entry_envs.insert(block.id.0, env.clone());
                    }
                    out.push(self.compile_generic(block.id, statements, env)?);
                }
                StatementBlockKind::If {
                    pred,
                    then_blocks,
                    else_blocks,
                } => {
                    // Try branch removal on a constant predicate.
                    let konst = match self.recall().and_then(|m| m.if_folds.get(&block.id.0)) {
                        Some(konst) => konst.clone(),
                        None => {
                            let konst = fold_predicate_with_env(self.config, pred, env)?;
                            if let Some(memo) = self.filling() {
                                memo.if_folds.insert(block.id.0, konst.clone());
                            }
                            konst
                        }
                    };
                    match konst.and_then(|v| v.as_bool()) {
                        Some(true) => {
                            self.stats.branches_removed += 1;
                            if self.record {
                                self.audit.branches.push(BranchRecord {
                                    block_id: block.id.0,
                                    taken: true,
                                    env: env.clone(),
                                });
                            }
                            out.extend(self.walk_blocks(then_blocks, env)?);
                        }
                        Some(false) => {
                            self.stats.branches_removed += 1;
                            if self.record {
                                self.audit.branches.push(BranchRecord {
                                    block_id: block.id.0,
                                    taken: false,
                                    env: env.clone(),
                                });
                            }
                            out.extend(self.walk_blocks(else_blocks, env)?);
                        }
                        None => {
                            let pred_rt =
                                self.compile_predicate(block.id, PredSlot::Cond, pred, env)?;
                            let mut then_env = env.clone();
                            let then_rt = self.walk_blocks(then_blocks, &mut then_env)?;
                            let else_rt = self.walk_blocks(else_blocks, env)?;
                            merge_env_into(&then_env, env);
                            out.push(RtBlock::If {
                                source: block.id,
                                pred: pred_rt,
                                then_blocks: then_rt,
                                else_blocks: else_rt,
                            });
                        }
                    }
                }
                StatementBlockKind::While { pred, body } => {
                    // Loop stabilization: tentative propagation pass, then
                    // relax differing variable facts, then final compile.
                    let env0 = env.clone();
                    let max_iter_hint = match self.recall().and_then(|m| m.loops.get(&block.id.0)) {
                        Some((relaxed, hint)) => {
                            env.clone_from(relaxed);
                            *hint
                        }
                        None => {
                            self.propagate_blocks(body, env)?;
                            relax_env_into(&env0, env);
                            let hint = self.loop_bound_hint(pred, env);
                            self.remember_loop(block.id, env, hint);
                            hint
                        }
                    };
                    let pred_rt = self.compile_predicate(block.id, PredSlot::Cond, pred, env)?;
                    let body_rt = self.walk_blocks(body, env)?;
                    // Loop may execute zero times: merge pre/post.
                    merge_env_into(&env0, env);
                    out.push(RtBlock::While {
                        source: block.id,
                        pred: pred_rt,
                        body: body_rt,
                        max_iter_hint,
                    });
                }
                StatementBlockKind::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let recalled = self.recall().and_then(|m| m.loops.get(&block.id.0));
                    let iterations_hint = match recalled {
                        Some((_, hint)) => *hint,
                        None => match (
                            fold_predicate_with_env(self.config, from, env)?
                                .and_then(|v| v.as_f64()),
                            fold_predicate_with_env(self.config, to, env)?.and_then(|v| v.as_f64()),
                        ) {
                            // A non-finite range has no count (the executors
                            // refuse it); a huge finite one saturates.
                            (Some(f), Some(t)) if t >= f && (t - f).is_finite() => {
                                Some(((t - f) as u64).saturating_add(1))
                            }
                            _ => None,
                        },
                    };
                    let from_rt = self.compile_predicate(block.id, PredSlot::From, from, env)?;
                    let to_rt = self.compile_predicate(block.id, PredSlot::To, to, env)?;
                    let env0 = env.clone();
                    match recalled {
                        Some((relaxed, _)) => env.clone_from(relaxed),
                        None => {
                            // Loop variable: scalar with unknown value.
                            env.insert(var.as_str().into(), VarInfo::scalar());
                            let before = env.clone();
                            self.propagate_blocks(body, env)?;
                            relax_env_into(&before, env);
                            env.insert(var.as_str().into(), VarInfo::scalar());
                            self.remember_loop(block.id, env, iterations_hint);
                        }
                    }
                    let body_rt = self.walk_blocks(body, env)?;
                    merge_env_into(&env0, env);
                    env.insert(var.as_str().into(), VarInfo::scalar());
                    out.push(RtBlock::For {
                        source: block.id,
                        var: var.clone(),
                        from: from_rt,
                        to: to_rt,
                        body: body_rt,
                        iterations_hint,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Size-propagation-only pass (no instruction generation, no stats).
    fn propagate_blocks(
        &self,
        blocks: &[StatementBlock],
        env: &mut Env,
    ) -> Result<(), CompileError> {
        for block in blocks {
            match &block.kind {
                StatementBlockKind::Generic { statements } => {
                    BlockBuilder::new(self.config).propagate_statements(statements, env)?;
                }
                StatementBlockKind::If {
                    then_blocks,
                    else_blocks,
                    ..
                } => {
                    let mut then_env = env.clone();
                    self.propagate_blocks(then_blocks, &mut then_env)?;
                    self.propagate_blocks(else_blocks, env)?;
                    merge_env_into(&then_env, env);
                }
                StatementBlockKind::While { body, .. } => {
                    // Relax over one body pass, then merge the entry with
                    // the relaxation over a second pass from there.
                    let env0 = env.clone();
                    self.propagate_blocks(body, env)?;
                    relax_env_into(&env0, env);
                    let relaxed = env.clone();
                    self.propagate_blocks(body, env)?;
                    relax_env_into(&relaxed, env);
                    merge_env_into(&env0, env);
                }
                StatementBlockKind::For { var, body, .. } => {
                    let env0 = env.clone();
                    env.insert(var.as_str().into(), VarInfo::scalar());
                    let before = env.clone();
                    self.propagate_blocks(body, env)?;
                    relax_env_into(&before, env);
                    merge_env_into(&env0, env);
                    env.insert(var.as_str().into(), VarInfo::scalar());
                }
            }
        }
        Ok(())
    }

    fn compile_generic(
        &mut self,
        id: BlockId,
        statements: &[reml_lang::ast::Statement],
        env: &mut Env,
    ) -> Result<RtBlock, CompileError> {
        let _block = reml_trace::span!("compile.block", block = id.0);
        if let Some(built) = self.recall().and_then(|m| m.generic.get(&id.0)) {
            env.clone_from(&built.env_after);
            self.audit_block(id, || built.audit());
            return self.lower_generic(id, built);
        }
        let mut built = self.build_generic(statements, env)?;
        let rt = self.lower_generic(id, &built)?;
        match self.filling() {
            Some(memo) => {
                built.env_after = env.clone();
                let audit = built.audit();
                memo.generic.insert(id.0, built);
                self.audit_block(id, || audit);
            }
            // Nothing keeps the build: its audit moves.
            None => self.audit_block(id, || built.take_audit()),
        }
        Ok(rt)
    }

    /// Record a block's rewrite audit, when this walk records.
    fn audit_block(&mut self, id: BlockId, audit: impl FnOnce() -> BlockAudit) {
        if self.record {
            self.audit.blocks.insert(id.0, audit());
        }
    }

    /// Build, rewrite and memory-estimate a generic block's DAG,
    /// advancing `env` past the block.
    fn build_generic(
        &self,
        statements: &[reml_lang::ast::Statement],
        env: &mut Env,
    ) -> Result<GenericBuild, CompileError> {
        let builder = BlockBuilder::new(self.config);
        let built = {
            let _s = reml_trace::span!("compile.hop_build");
            builder.build_statements(statements, env)?
        };
        let mut dag = built.dag;
        let cse_eliminated = dag.cse_hits;
        let (rw, records) = if self.config.enable_rewrites {
            let _s = reml_trace::span!("compile.rewrites");
            apply_rewrites_logged(&mut dag)
        } else {
            (RewriteStats::default(), Vec::new())
        };
        {
            let _s = reml_trace::span!("compile.memest");
            estimate_dag(&mut dag);
        }
        Ok(GenericBuild {
            dag,
            env_after: Env::new(),
            records,
            folds: built.fold_log,
            stats: CompileStats {
                dags_built: 1,
                cse_eliminated,
                constants_folded: built.constants_folded,
                rewrites_applied: rw.total(),
                ..CompileStats::default()
            },
        })
    }

    /// Charge a built block's counters and audit, and lower its DAG under
    /// this walk's budgets.
    fn lower_generic(
        &mut self,
        id: BlockId,
        built: &GenericBuild,
    ) -> Result<RtBlock, CompileError> {
        self.stats.absorb(&built.stats);
        let lowered = {
            let _s = reml_trace::span!("compile.lower");
            lower_dag(
                &built.dag,
                self.config.cp_budget_mb(),
                self.config.mr_budget_mb(id.0),
                &[],
            )?
        };
        self.stats.block_compilations += 1;
        let (mr_jobs, all_mr_unknown) = mr_job_stats(&lowered.instructions);
        reml_trace::event!(
            "compile.block_done",
            block = id.0,
            mr_jobs = mr_jobs,
            rewrites = built.stats.rewrites_applied,
            recompile = lowered.requires_recompile
        );
        self.summaries.push(BlockSummary {
            block_id: id.0,
            mr_jobs,
            requires_recompile: lowered.requires_recompile,
            all_mr_unknown,
            mem_estimates_mb: lowered.mem_estimates_mb,
        });
        Ok(RtBlock::Generic {
            source: id,
            instructions: lowered.instructions,
            requires_recompile: lowered.requires_recompile,
        })
    }

    /// Compile a predicate expression into runtime form.
    fn compile_predicate(
        &mut self,
        block: BlockId,
        slot: PredSlot,
        pred: &Expr,
        env: &Env,
    ) -> Result<Predicate, CompileError> {
        let key = (block.0, slot);
        let mut fresh = None;
        let (dag, root) = match self.recall().and_then(|m| m.predicates.get(&key)) {
            Some((dag, root)) => (dag, *root),
            None => {
                let builder = BlockBuilder::new(self.config);
                let (built, root, _) = builder.build_predicate(pred, env)?;
                let mut dag = built.dag;
                estimate_dag(&mut dag);
                let (dag, root) = fresh.insert((dag, root));
                (&*dag, *root)
            }
        };
        let result_var = format!("__pred{}", block.0);
        let lowered = lower_dag(
            dag,
            self.config.cp_budget_mb(),
            self.config.mr_budget_mb(block.0),
            &[(root, Arc::from(result_var.as_str()))],
        )?;
        if let (Some(memo), Some(fresh)) = (self.filling(), fresh) {
            memo.predicates.insert(key, fresh);
        }
        Ok(Predicate {
            instructions: lowered.instructions,
            result_var,
        })
    }

    /// Record a loop's relaxed body-entry environment and hint.
    fn remember_loop(&mut self, id: BlockId, relaxed: &Env, hint: Option<u64>) {
        if let Some(memo) = self.filling() {
            memo.loops.insert(id.0, (relaxed.clone(), hint));
        }
    }

    /// Derive an iteration bound from predicates shaped like
    /// `... & var < bound` (the scripts' `iter < maxiterations` pattern).
    fn loop_bound_hint(&self, pred: &Expr, env: &Env) -> Option<u64> {
        fn scan(config: &CompileConfig, e: &Expr, env: &Env) -> Option<u64> {
            match e {
                Expr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                    ..
                } => scan(config, lhs, env).or_else(|| scan(config, rhs, env)),
                Expr::Binary {
                    op: BinOp::Lt | BinOp::LtEq,
                    rhs,
                    ..
                } => fold_predicate_with_env(config, rhs, env)
                    .ok()
                    .flatten()
                    .and_then(|v| v.as_f64())
                    .filter(|v| *v >= 0.0 && *v < 1e9)
                    .map(|v| v as u64),
                _ => None,
            }
        }
        scan(self.config, pred, env)
    }
}

/// Relax variable facts that changed across a loop body: keep agreeing
/// components, drop the rest (sizes to unknown, constants dropped).
/// Variables first defined inside the loop keep their facts from the body
/// pass; a second propagation pass validates them.
pub fn relax_loop_env(before: &Env, after: &Env) -> Env {
    let mut out = after.clone();
    relax_env_into(before, &mut out);
    out
}

/// [`relax_loop_env`]`(before, after)` written over `after`.
fn relax_env_into(before: &Env, after: &mut Env) {
    join_env_into(before, after, |v0, v1| {
        if v0 == v1 {
            v1.clone_from(v0);
        } else {
            *v1 = VarInfo {
                vtype: v1.vtype,
                mc: v0.mc.merge_branches(&v1.mc),
                konst: agreed_constant(v0, v1),
            };
        }
    });
}

/// Count MR jobs and whether all MR operators have unknown dimensions.
fn mr_job_stats(instructions: &[Instruction]) -> (usize, bool) {
    let mut jobs = 0usize;
    let mut any_known = false;
    for instr in instructions {
        if let Instruction::MrJob(job) = instr {
            jobs += 1;
            for op in job.mappers.iter().chain(job.reducers.iter()) {
                if op.output_mc.dims_known() {
                    any_known = true;
                }
            }
        }
    }
    (jobs, jobs > 0 && !any_known)
}

/// Build an entry environment from observed runtime characteristics (the
/// dynamic-recompilation path: actual sizes of live matrices plus actual
/// scalar values).
pub fn env_from_runtime_state(
    matrices: &std::collections::HashMap<String, MatrixCharacteristics>,
    scalars: &std::collections::HashMap<String, ScalarValue>,
) -> Env {
    let mut env = Env::new();
    for (name, mc) in matrices {
        env.insert(name.as_str().into(), VarInfo::matrix(*mc));
    }
    for (name, value) in scalars {
        env.insert(name.as_str().into(), VarInfo::constant(value.clone()));
    }
    env
}

/// Check whether an environment entry is a matrix (test/diagnostic aid).
pub fn is_matrix_var(env: &Env, name: &str) -> bool {
    env.get(name)
        .map(|v| v.vtype == VType::Matrix)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_cluster::ClusterConfig;

    fn paper_cfg(cp_heap: u64, mr_heap: u64) -> CompileConfig {
        CompileConfig::new(ClusterConfig::paper_cluster(), cp_heap, mr_heap)
            .with_param("X", ScalarValue::Str("hdfs:X".into()))
            .with_param("Y", ScalarValue::Str("hdfs:Y".into()))
            .with_param("icpt", ScalarValue::Num(0.0))
            .with_param("maxiter", ScalarValue::Num(5.0))
            .with_input("hdfs:X", MatrixCharacteristics::dense(10_000_000, 100))
            .with_input("hdfs:Y", MatrixCharacteristics::dense(10_000_000, 1))
    }

    #[test]
    fn straight_line_program_compiles() {
        let cfg = paper_cfg(48 * 1024, 512);
        let compiled = compile_source(
            "X = read($X)\nY = read($Y)\ng = t(X) %*% Y\nwrite(g, \"out\")",
            &cfg,
        )
        .unwrap();
        assert_eq!(compiled.runtime.blocks.len(), 1);
        assert_eq!(compiled.mr_jobs(), 0);
        assert_eq!(compiled.stats.block_compilations, 1);
    }

    #[test]
    fn branch_removal_on_constant_param() {
        let cfg = paper_cfg(48 * 1024, 512);
        let src = r#"
            X = read($X)
            ic = $icpt
            if (ic == 1) {
                ones = matrix(1, rows=nrow(X), cols=1)
                X = append(X, ones)
            }
            s = sum(X)
            print(s)
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        assert_eq!(compiled.stats.branches_removed, 1);
        // No If block survives.
        assert!(compiled
            .runtime
            .blocks
            .iter()
            .all(|b| matches!(b, RtBlock::Generic { .. })));
    }

    #[test]
    fn branch_kept_when_unknown() {
        let cfg = paper_cfg(48 * 1024, 512);
        let src = r#"
            X = read($X)
            s = sum(X)
            if (s > 0) { y = 1 } else { y = 2 }
            print(y)
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        assert!(compiled
            .runtime
            .blocks
            .iter()
            .any(|b| matches!(b, RtBlock::If { .. })));
    }

    #[test]
    fn while_loop_with_maxiter_hint() {
        let cfg = paper_cfg(48 * 1024, 512);
        let src = r#"
            maxi = $maxiter
            i = 0
            continue = TRUE
            while (continue & i < maxi) {
                i = i + 1
                if (i == 3) { continue = FALSE }
            }
            print(i)
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        let w = compiled
            .runtime
            .blocks
            .iter()
            .find_map(|b| match b {
                RtBlock::While { max_iter_hint, .. } => Some(*max_iter_hint),
                _ => None,
            })
            .expect("while block");
        assert_eq!(w, Some(5));
    }

    #[test]
    fn loop_variable_sizes_relaxed() {
        // X grows columns inside the loop: its cols must become unknown
        // inside and after the loop.
        let cfg = paper_cfg(48 * 1024, 512);
        let src = r#"
            X = read($X)
            i = 0
            while (i < 3) {
                o = matrix(1, rows=nrow(X), cols=1)
                X = append(X, o)
                i = i + 1
            }
            s = sum(X)
            print(s)
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        // Entry env of the post-loop block: X cols unknown.
        let post_env = compiled.entry_envs.values().last().expect("post-loop env");
        assert_eq!(post_env["X"].mc.cols, None);
        assert_eq!(post_env["X"].mc.rows, Some(10_000_000));
    }

    #[test]
    fn stable_loop_sizes_preserved() {
        let cfg = paper_cfg(48 * 1024, 512);
        let src = r#"
            X = read($X)
            w = matrix(0, rows=ncol(X), cols=1)
            i = 0
            while (i < 3) {
                q = X %*% w
                w = w + 1
                i = i + 1
            }
            print(sum(w))
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        let post_env = compiled.entry_envs.values().last().unwrap();
        // w keeps its dims (100 x 1) through the loop; nnz relaxed.
        assert_eq!(post_env["w"].mc.rows, Some(100));
        assert_eq!(post_env["w"].mc.cols, Some(1));
    }

    #[test]
    fn table_unknowns_flow_and_mark_recompile() {
        let cfg = paper_cfg(512, 512);
        let src = r#"
            y = read($Y)
            Y = table(seq(1, nrow(y)), y)
            grad = t(Y) %*% Y
            print(sum(grad))
        "#;
        let compiled = compile_source(src, &cfg).unwrap();
        let has_recompile = compiled.summaries.iter().any(|s| s.requires_recompile);
        assert!(has_recompile);
    }

    #[test]
    fn single_block_recompile_roundtrip() {
        let cfg = paper_cfg(512, 512);
        let src = "X = read($X)\nY = read($Y)\ng = t(X) %*% Y\nwrite(g, \"out\")";
        let analyzed = analyze_program(src).unwrap();
        let compiled = compile(&analyzed, &cfg).unwrap();
        let block_id = compiled.summaries[0].block_id;
        let entry = &compiled.entry_envs[&block_id];
        // Recompile with a huge CP heap: MR jobs disappear.
        let big = paper_cfg(48 * 1024, 512);
        let (instrs, summary, _) =
            compile_block_with_env(&analyzed, &big, BlockId(block_id), &mut entry.clone()).unwrap();
        assert_eq!(summary.mr_jobs, 0);
        assert!(instrs.iter().all(|i| !i.is_mr()));
        // And with the small heap the MR jobs are back.
        let (instrs2, summary2, _) =
            compile_block_with_env(&analyzed, &cfg, BlockId(block_id), &mut entry.clone()).unwrap();
        assert!(summary2.mr_jobs >= 1);
        assert!(instrs2.iter().any(Instruction::is_mr));
    }

    #[test]
    fn env_from_runtime_state_builds_constants() {
        let mut mats = std::collections::HashMap::new();
        mats.insert("Y".to_string(), MatrixCharacteristics::dense(100, 3));
        let mut scalars = std::collections::HashMap::new();
        scalars.insert("k".to_string(), ScalarValue::Num(3.0));
        let env = env_from_runtime_state(&mats, &scalars);
        assert!(is_matrix_var(&env, "Y"));
        assert_eq!(env["k"].konst, Some(ScalarValue::Num(3.0)));
    }

    #[test]
    fn for_loop_compiles_with_hint() {
        let cfg = paper_cfg(48 * 1024, 512);
        let src = "s = 0\nfor (i in 1:10) { s = s + i }\nprint(s)";
        let compiled = compile_source(src, &cfg).unwrap();
        let hint = compiled.runtime.blocks.iter().find_map(|b| match b {
            RtBlock::For {
                iterations_hint, ..
            } => Some(*iterations_hint),
            _ => None,
        });
        assert_eq!(hint, Some(Some(10)));
    }

    #[test]
    fn analyze_reports_table1_metrics() {
        let src = r#"
            X = read($X)
            i = 0
            while (i < 3) {
                i = i + 1
                if (i > 1) { j = 1 }
            }
            print(i)
        "#;
        let analyzed = analyze_program(src).unwrap();
        assert!(analyzed.num_lines >= 7);
        assert!(analyzed.num_blocks() >= 5);
        assert!(find_block(&analyzed.blocks, BlockId(0)).is_some());
        assert!(find_block(&analyzed.blocks, BlockId(99)).is_none());
    }
}
