//! The abstract interpreter: a walk over the compiled runtime tree that
//! carries an interval environment per live variable, evaluates the
//! transfer functions over each generic block's HOP DAG, hull-joins at
//! `if`/`else` merges, and runs a widening fixpoint at `while`/`for`
//! loop heads.
//!
//! The walk follows the *runtime* block tree (not the source statement
//! tree): constant-folded branches never execute, so they must not
//! contribute to the bounds, and every runtime block carries its source
//! block id for the DAG rebuild. Per generic block the canonical HOP DAG
//! is rebuilt once via [`reml_planlint::rebuild_block_dag`] from the
//! recorded (resource-independent) entry environment — hop ids then
//! align with the `_mVar<hop>` names in the lowered instructions.
//!
//! ## Soundness of the leaf injections
//!
//! Transfer rules take dimensions from the rebuilt DAG's characteristics
//! only at leaf positions whose extents derive from scalar constants
//! (data generators, indexing extents, `diag`). Those characteristics
//! were inferred under the compiler's relaxed loop environment
//! (`relax_loop_env`), which keeps a fact only if it is stable across
//! iterations for every program that executes without an
//! undefined-variable error — a fact that could change at iteration ≥ 2
//! would require reading a body-defined variable before its first
//! in-iteration definition, which faults at iteration 1. Data-dependent
//! extents (`table()` columns) are *never* injected and stay ⊤.

use std::collections::BTreeMap;

use reml_compiler::pipeline::{AnalyzedProgram, CompiledProgram};
use reml_compiler::{CompileConfig, CompileError, HopDag, HopOp};
use reml_lang::blocks::{assigned_vars, find_block};
use reml_lang::BlockId;
use reml_runtime::program::RtBlock;

use crate::interval::SizeBound;
use crate::transfer::transfer;

/// Interval environment: one [`SizeBound`] per live variable (matrices
/// *and* scalars — scalar bindings carry the exact 1×1 bound).
pub type AbsEnv = BTreeMap<String, SizeBound>;

/// Safety cap on widening iterations per loop. Termination is already
/// guaranteed (each interval component widens at most once and the
/// variable set is finite); the cap only guards against a lattice bug
/// looping forever — on hitting it, every variable the loop body can
/// assign is forced to ⊤, which is trivially sound.
const MAX_FIXPOINT_ITERS: usize = 64;

/// Bounds computed for one generic block.
#[derive(Debug, Clone)]
pub struct BlockBounds {
    /// Interval environment at block entry (post-fixpoint for loop
    /// bodies).
    pub entry: AbsEnv,
    /// Bound per hop of `dag`, indexed by hop id (⊤ for dead hops).
    pub hops: Vec<SizeBound>,
    /// Join of the bounds written to each variable in this block (a
    /// variable's in-block footprint is covered by entry ⊔ writes).
    pub writes: BTreeMap<String, SizeBound>,
    /// The rebuilt canonical HOP DAG; `_mVar<hop>` instruction names
    /// index into it.
    pub dag: HopDag,
}

/// Result of the whole-program analysis.
#[derive(Debug, Clone, Default)]
pub struct ProgramBounds {
    /// Per generic block (keyed by source block id).
    pub blocks: BTreeMap<usize, BlockBounds>,
    /// Interval environment under which each predicate evaluates, keyed
    /// by the owning control block's source id (`if`/`while`: the loop
    /// fixpoint; `for`: the pre-loop environment — from/to evaluate
    /// once).
    pub pred_envs: BTreeMap<usize, AbsEnv>,
    /// Total widening steps taken across all loops (diagnostics).
    pub widening_steps: u64,
}

/// Run the abstract interpretation over a compiled program and return
/// the per-block bounds.
pub fn analyze_bounds(
    analyzed: &AnalyzedProgram,
    compiled: &CompiledProgram,
    config: &CompileConfig,
) -> Result<ProgramBounds, CompileError> {
    let mut analyzer = Analyzer {
        analyzed,
        compiled,
        config,
        dags: BTreeMap::new(),
        out: ProgramBounds::default(),
    };
    let mut env = AbsEnv::new();
    analyzer.walk(&compiled.runtime.blocks, &mut env, true)?;
    Ok(analyzer.out)
}

struct Analyzer<'a> {
    analyzed: &'a AnalyzedProgram,
    compiled: &'a CompiledProgram,
    config: &'a CompileConfig,
    /// Rebuilt DAG per source block id (`None`: rebuild impossible, the
    /// block's effects are treated as ⊤). The DAG is entry-environment
    /// dependent only through the *compiler* env, which is fixed, so one
    /// rebuild serves every fixpoint iteration.
    dags: BTreeMap<usize, Option<HopDag>>,
    out: ProgramBounds,
}

impl<'a> Analyzer<'a> {
    fn dag_for(&mut self, source: usize) -> Result<Option<&HopDag>, CompileError> {
        if !self.dags.contains_key(&source) {
            let rebuilt = match (
                find_block(&self.analyzed.blocks, BlockId(source)),
                self.compiled.entry_envs.get(&source),
            ) {
                (Some(block), Some(entry)) => {
                    Some(reml_planlint::rebuild_block_dag(self.config, block, entry)?)
                }
                _ => None,
            };
            self.dags.insert(source, rebuilt);
        }
        Ok(self.dags.get(&source).and_then(|d| d.as_ref()))
    }

    /// Interpret a block list, updating `env` in place. `record = false`
    /// runs pure fixpoint iterations; `record = true` additionally
    /// stores entry environments, hop bounds, and predicate
    /// environments into `self.out`.
    fn walk(
        &mut self,
        blocks: &[RtBlock],
        env: &mut AbsEnv,
        record: bool,
    ) -> Result<(), CompileError> {
        for block in blocks {
            match block {
                RtBlock::Generic { source, .. } => {
                    self.walk_generic(source.0, env, record)?;
                }
                RtBlock::If {
                    source,
                    then_blocks,
                    else_blocks,
                    ..
                } => {
                    if record {
                        self.out.pred_envs.insert(source.0, env.clone());
                    }
                    let mut then_env = env.clone();
                    self.walk(then_blocks, &mut then_env, record)?;
                    let mut else_env = env.clone();
                    self.walk(else_blocks, &mut else_env, record)?;
                    *env = hull_join(&then_env, &else_env);
                }
                RtBlock::While { source, body, .. } => {
                    let fix = self.fixpoint(source.0, body, env)?;
                    if record {
                        // The predicate re-evaluates before every
                        // iteration: it sees the fixpoint environment.
                        self.out.pred_envs.insert(source.0, fix.clone());
                        let mut pass = fix.clone();
                        self.walk(body, &mut pass, true)?;
                    }
                    *env = fix;
                }
                RtBlock::For {
                    source, var, body, ..
                } => {
                    if record {
                        // from/to evaluate once, before the loop.
                        self.out.pred_envs.insert(source.0, env.clone());
                    }
                    let mut env0 = env.clone();
                    env0.insert(var.clone(), SizeBound::scalar());
                    let fix = self.fixpoint(source.0, body, &env0)?;
                    if record {
                        let mut pass = fix.clone();
                        self.walk(body, &mut pass, true)?;
                    }
                    *env = fix;
                }
            }
        }
        Ok(())
    }

    fn walk_generic(
        &mut self,
        source: usize,
        env: &mut AbsEnv,
        record: bool,
    ) -> Result<(), CompileError> {
        let config = self.config;
        let Some(dag) = self.dag_for(source)? else {
            // No rebuildable DAG (e.g. the block never got an entry
            // environment): its effects are unknown — every variable the
            // source block may assign goes to ⊤.
            if let Some(block) = find_block(&self.analyzed.blocks, BlockId(source)) {
                for name in assigned_vars(std::iter::once(block)) {
                    env.insert(name, SizeBound::top());
                }
            }
            return Ok(());
        };

        let entry = env.clone();
        let mut hops = vec![SizeBound::top(); dag.len()];
        for id in dag.live_hops(&[]) {
            hops[id.0] = transfer(dag, id, &hops, &entry, config);
        }

        // Apply writes in ascending hop id order — the lowerer emits the
        // end-of-block assignments sorted the same way, so the last
        // write wins for the exit environment; the recorded `writes` map
        // joins all of them (any assignment's value is live within the
        // block).
        let mut write_joins: BTreeMap<String, SizeBound> = BTreeMap::new();
        for (i, hop) in dag.hops.iter().enumerate() {
            if let HopOp::TWrite(name) = &hop.op {
                let bound = hops[i];
                write_joins
                    .entry(name.to_string())
                    .and_modify(|b| *b = b.join(&bound))
                    .or_insert(bound);
                env.insert(name.to_string(), bound);
            }
        }

        if record {
            let dag = dag.clone();
            self.out.blocks.insert(
                source,
                BlockBounds {
                    entry,
                    hops,
                    writes: write_joins,
                    dag,
                },
            );
        }
        Ok(())
    }

    /// Widening fixpoint of a loop body from `env0`. The returned
    /// environment `E` satisfies `env0 ⊆ E` (covers zero iterations) and
    /// `F(E) ⊆ E` (covers every further iteration), so it is a sound
    /// loop invariant and also the exit environment.
    fn fixpoint(
        &mut self,
        source: usize,
        body: &[RtBlock],
        env0: &AbsEnv,
    ) -> Result<AbsEnv, CompileError> {
        let mut cur = env0.clone();
        for _ in 0..MAX_FIXPOINT_ITERS {
            let mut next = cur.clone();
            self.walk(body, &mut next, false)?;
            let widened = widen_env(&cur, &hull_join(&cur, &next));
            if widened == cur {
                return Ok(cur);
            }
            self.out.widening_steps += 1;
            cur = widened;
        }
        // Lattice-bug safety net: force ⊤ for everything the loop can
        // assign (trivially sound) rather than looping forever.
        if let Some(block) = find_block(&self.analyzed.blocks, BlockId(source)) {
            for name in assigned_vars(std::iter::once(block)) {
                cur.insert(name, SizeBound::top());
            }
        }
        Ok(cur)
    }
}

/// Hull join of two environments: keys present in both are joined; a key
/// present in only one keeps its value (the variable simply does not
/// exist on the other path, and error-free executions only read
/// variables on paths that defined them).
pub fn hull_join(a: &AbsEnv, b: &AbsEnv) -> AbsEnv {
    let mut out = a.clone();
    for (name, bound) in b {
        out.entry(name.clone())
            .and_modify(|existing| *existing = existing.join(bound))
            .or_insert(*bound);
    }
    out
}

/// Environment widening: keys of `next` are widened against `prev`
/// (fresh keys enter as-is and widen on their next growth).
/// `widen_env(prev, next) == prev` iff `next ⊆ prev` pointwise, which is
/// the fixpoint convergence test.
pub fn widen_env(prev: &AbsEnv, next: &AbsEnv) -> AbsEnv {
    let mut out = AbsEnv::new();
    for (name, bound) in next {
        match prev.get(name) {
            Some(p) => out.insert(name.clone(), p.widen(bound)),
            None => out.insert(name.clone(), *bound),
        };
    }
    out
}
