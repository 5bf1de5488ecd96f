//! # reml-planlint — static invariant verifier for compiled plans
//!
//! A lint pass over every artifact the compiler produces: HOP DAGs,
//! lowered CP instructions, piggybacked MR jobs, and the runtime
//! program-block tree. The resource optimizer's what-if enumeration is
//! only as trustworthy as these artifacts — a single unsound memory
//! estimate or illegal piggybacking decision silently corrupts the
//! cost-based choice — so each invariant the compiler relies on is
//! restated here as an independently checkable rule with a stable ID.
//!
//! The catalog (see [`RULES`] and DESIGN.md's "Plan-lint" section):
//!
//! | rule  | layer   | invariant |
//! |-------|---------|-----------|
//! | PL001 | HOP     | dimension agreement across HOP edges |
//! | PL002 | HOP     | matrix/scalar typing of operator inputs/outputs |
//! | PL003 | HOP     | no dangling input references (CSE leftovers) |
//! | PL004 | HOP     | DAG acyclicity |
//! | PL005 | HOP     | `mem_mb` matches a fresh `memest` recomputation |
//! | PL006 | HOP     | output characteristics consistent with inputs |
//! | PL010 | LOP     | CP-executed MR-capable operators fit the CP budget |
//! | PL011 | LOP/MR  | piggybacked broadcast memory fits the task budget |
//! | PL012 | LOP/MR  | broadcasts are materialized before the job |
//! | PL013 | LOP/MR  | map-phase operators never consume reduce output |
//! | PL014 | LOP/MR  | job structure: shuffle⇔reduce, outputs produced, phase tags |
//! | PL015 | LOP/MR  | in-job dataflow ordering; HDFS inputs not produced in-job |
//! | PL020 | runtime | definite assignment along the program-block tree |
//! | PL021 | runtime | instruction reads/writes within `lang::blocks` live sets |
//! | PL022 | runtime | predicate instructions bind their result variable |
//! | PL023 | runtime | block summaries match the emitted plan |
//! | PL024 | runtime | every runtime block maps to a source statement block |
//! | PL025 | runtime | plan is reproducible from recorded entry environments |
//! | PL030 | sizebound | point memory estimate never exceeds the sound interval bound |
//! | PL031 | sizebound | CP placement justified beyond the point estimate |
//! | PL032 | sizebound | forced-CP operators provably fit the CP budget |
//! | PL040 | vm      | every slot/constant/spec/job/meta index resolves in its pool |
//! | PL041 | vm      | metadata side table index-aligned and internally consistent |
//! | PL042 | vm      | definite assignment over the `VmBlock` dataflow |
//! | PL043 | vm      | no dead stores or leaked buffers among temporaries |
//! | PL044 | vm      | fused chains well-formed (arity, shape, `Flow` threading) |
//! | PL045 | vm      | predicate bytecode binds its result symbol |
//! | PL046 | vm      | bytecode corresponds to the source plan modulo fusion; fusion safety re-proved |
//! | PL047 | vm      | stamped observation metadata matches fresh recomputation from the source |
//! | PL050 | rewrite | rewrite audit log well-formed, reproducible, and complete |
//! | PL051 | rewrite | rewrite preserves shape and value type of the root |
//! | PL052 | rewrite | rewrite preserves the sparsity (nnz) claim of the root |
//! | PL053 | rewrite | before/after regions evaluate identically on seeded probes |
//! | PL054 | rewrite | CSE merges only pure operators; rand needs literal seeds |
//! | PL055 | rewrite | removed branch guards re-proven by independent const-prop |
//! | PL056 | rewrite | rewrite never increases the region's peak memory estimate |
//! | PL057 | rewrite | rule-specific obligations re-proven per rewrite rule |
//!
//! The PL030 family is implemented in the `reml-sizebound` crate (it
//! needs the interval analysis results) and is *not* part of
//! [`lint_compiled`]; only the rule ids and severities live here. The
//! PL040 family (see [`vm_rules`]) verifies lowered bytecode and is run
//! from [`lint_vm`]/[`lint_vm_program`], or process-wide after every
//! lowering once [`install_vm_verifier`] has been called. The PL050
//! family (see [`rw_rules`]) is *translation validation* for the HOP
//! rewrite engine: every rewrite the compiler claims to have applied is
//! re-certified from its recorded audit trail without trusting the
//! engine that produced it.
//!
//! The main entry point is [`lint_compiled`], which re-derives the HOP
//! DAG of every generic block from the recorded entry environment (DAG
//! construction, rewrites, and memory estimation are
//! resource-independent, so the rebuild is canonical) and maps CP
//! instruction outputs (`_mVar<hop>`) back onto it; [`lint_artifacts`]
//! lints explicit (DAG, instruction) pairs for tests and fixtures.
//!
//! Diagnostics are structured and `serde`-serializable so CI can diff
//! them across commits.

#![forbid(unsafe_code)]

use reml_compiler::build::Env;
use reml_compiler::pipeline::{AnalyzedProgram, BlockAudit, CompiledProgram};
use reml_compiler::{CompileConfig, CompileError, HopDag};
use reml_lang::blocks::{find_block, StatementBlock};
use reml_lang::{BlockId, StatementBlockKind};
use reml_runtime::instructions::Instruction;
use reml_runtime::program::RtBlock;

pub mod diag;
mod hop_rules;
mod lop_rules;
mod rt_rules;
pub mod rw_rules;
pub mod vm_rules;

pub use diag::{natural_cmp, Diagnostic, LintReport, Severity};
pub use hop_rules::lint_hop_dag;
pub use lop_rules::{lint_cp_budget, lint_mr_job};
pub use rt_rules::lint_runtime;
pub use rw_rules::{validate_block_rewrites, validate_program_rewrites};
pub use vm_rules::{install_vm_verifier, lint_vm, lint_vm_fragment, lint_vm_program};

/// The rule catalog: `(id, severity, layer, invariant)`.
pub const RULES: &[(&str, Severity, &str, &str)] = &[
    (
        "PL001",
        Severity::Error,
        "hop",
        "dimension agreement across HOP edges",
    ),
    (
        "PL002",
        Severity::Error,
        "hop",
        "matrix/scalar typing of operator inputs and outputs",
    ),
    (
        "PL003",
        Severity::Error,
        "hop",
        "no dangling input references",
    ),
    ("PL004", Severity::Error, "hop", "DAG acyclicity"),
    (
        "PL005",
        Severity::Error,
        "hop",
        "memory estimate matches a fresh memest recomputation",
    ),
    (
        "PL006",
        Severity::Warning,
        "hop",
        "output characteristics consistent with inputs",
    ),
    (
        "PL010",
        Severity::Error,
        "lop",
        "CP-executed MR-capable operators fit the CP budget",
    ),
    (
        "PL011",
        Severity::Error,
        "lop",
        "piggybacked broadcast memory fits the MR task budget",
    ),
    (
        "PL012",
        Severity::Error,
        "lop",
        "broadcast inputs are not produced inside their own job",
    ),
    (
        "PL013",
        Severity::Error,
        "lop",
        "map-phase operators never consume reduce-phase output",
    ),
    (
        "PL014",
        Severity::Error,
        "lop",
        "job structure: shuffle iff reduce, outputs produced, phase tags",
    ),
    (
        "PL015",
        Severity::Error,
        "lop",
        "in-job dataflow ordering and HDFS-input materialization",
    ),
    (
        "PL020",
        Severity::Error,
        "runtime",
        "definite assignment along the program-block tree",
    ),
    (
        "PL021",
        Severity::Error,
        "runtime",
        "instruction reads/writes stay within the block live sets",
    ),
    (
        "PL022",
        Severity::Error,
        "runtime",
        "predicate instructions bind their result variable",
    ),
    (
        "PL023",
        Severity::Warning,
        "runtime",
        "block summaries match the emitted plan",
    ),
    (
        "PL024",
        Severity::Error,
        "runtime",
        "every runtime block maps to a source statement block",
    ),
    (
        "PL025",
        Severity::Error,
        "runtime",
        "plan reproducible from recorded entry environments",
    ),
    (
        "PL030",
        Severity::Error,
        "sizebound",
        "point memory estimate never exceeds the sound interval bound",
    ),
    (
        "PL031",
        Severity::Warning,
        "sizebound",
        "CP placement justified beyond the point estimate",
    ),
    (
        "PL032",
        Severity::Error,
        "sizebound",
        "forced-CP operators provably fit the CP budget",
    ),
    (
        "PL040",
        Severity::Error,
        "vm",
        "every slot/constant/spec/job/meta index resolves inside its pool",
    ),
    (
        "PL041",
        Severity::Error,
        "vm",
        "instruction metadata side table index-aligned and internally consistent",
    ),
    (
        "PL042",
        Severity::Error,
        "vm",
        "definite assignment: every temporary read dominated by a write",
    ),
    (
        "PL043",
        Severity::Warning,
        "vm",
        "no dead stores or leaked buffers among temporaries",
    ),
    (
        "PL044",
        Severity::Error,
        "vm",
        "fused chains well-formed: arity, shape, Flow threading",
    ),
    (
        "PL045",
        Severity::Error,
        "vm",
        "predicate bytecode binds its result symbol",
    ),
    (
        "PL046",
        Severity::Error,
        "vm",
        "bytecode corresponds to the source plan modulo fusion; fusion safety re-proved",
    ),
    (
        "PL047",
        Severity::Error,
        "vm",
        "stamped observation metadata matches fresh recomputation from the source",
    ),
    (
        "PL050",
        Severity::Error,
        "rw",
        "rewrite audit log well-formed, reproducible, and complete",
    ),
    (
        "PL051",
        Severity::Error,
        "rw",
        "rewrite preserves shape and value type of the rewritten root",
    ),
    (
        "PL052",
        Severity::Warning,
        "rw",
        "rewrite preserves the sparsity (nnz) claim of the rewritten root",
    ),
    (
        "PL053",
        Severity::Error,
        "rw",
        "before/after regions evaluate identically on seeded concrete probes",
    ),
    (
        "PL054",
        Severity::Error,
        "rw",
        "CSE merges only pure operators; rand merges require a literal seed",
    ),
    (
        "PL055",
        Severity::Error,
        "rw",
        "removed branch guards re-proven by independent constant propagation",
    ),
    (
        "PL056",
        Severity::Warning,
        "rw",
        "rewrite does not increase the region's peak memory estimate",
    ),
    (
        "PL057",
        Severity::Error,
        "rw",
        "rule-specific obligations re-proven: pattern, purity, folded constants",
    ),
];

/// Severity of a rule id (panics on unknown ids — rules are a closed set).
pub fn rule_severity(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|(id, ..)| *id == rule)
        .map(|(_, s, ..)| *s)
        .unwrap_or_else(|| panic!("unknown lint rule {rule}"))
}

/// Rebuild the canonical HOP DAG of a generic block from its recorded
/// entry environment: DAG construction, rewrites, and memory estimation
/// never read the resource configuration, so this reproduces exactly the
/// DAG the compiler lowered (including CSE-assigned hop ids) for *any*
/// budget — the `_mVar<hop>` names in the emitted instructions index
/// into it.
pub fn rebuild_block_dag(
    config: &CompileConfig,
    block: &StatementBlock,
    entry_env: &Env,
) -> Result<HopDag, CompileError> {
    Ok(rebuild_block_dag_staged(config, block, entry_env)?.post)
}

/// A [`rebuild_block_dag`] that keeps the intermediate stages the PL050
/// rewrite-validation family needs: the estimated pre-rewrite DAG, the
/// estimated post-rewrite DAG, and the audit log the rebuild produced
/// (for the stored-vs-rebuilt reproducibility check).
pub struct StagedRebuild {
    /// DAG after construction + estimation, before rewrites.
    pub pre: HopDag,
    /// DAG after rewrites + estimation (what the compiler lowered).
    pub post: HopDag,
    /// Audit rebuilt from scratch: rewrite records, folds, CSE hits.
    pub audit: BlockAudit,
}

/// Rebuild a generic block's DAG in stages (see [`StagedRebuild`]).
/// Respects `config.enable_rewrites`: with rewrites disabled the pre and
/// post DAGs coincide and the rebuilt record list is empty.
pub fn rebuild_block_dag_staged(
    config: &CompileConfig,
    block: &StatementBlock,
    entry_env: &Env,
) -> Result<StagedRebuild, CompileError> {
    let StatementBlockKind::Generic { statements } = &block.kind else {
        return Err(CompileError::Internal(format!(
            "block {} is not generic",
            block.id.0
        )));
    };
    let mut env = entry_env.clone();
    let built =
        reml_compiler::build::BlockBuilder::new(config).build_statements(statements, &mut env)?;
    let folds = built.fold_log;
    let mut pre = built.dag;
    let mut post = pre.clone();
    reml_compiler::memest::estimate_dag(&mut pre);
    let records = if config.enable_rewrites {
        reml_compiler::rewrites::apply_rewrites_logged(&mut post).1
    } else {
        Vec::new()
    };
    reml_compiler::memest::estimate_dag(&mut post);
    let cse = post.cse_log.clone();
    Ok(StagedRebuild {
        pre,
        post,
        audit: BlockAudit {
            records,
            folds,
            cse,
        },
    })
}

/// Lint explicit per-block artifacts: HOP rules on `dag`, the CP budget
/// rule over `instructions` (whose `_mVar` outputs index into `dag`),
/// and the MR-job rules on every job instruction. Used by unit tests and
/// fixtures; [`lint_compiled`] drives it for whole programs.
pub fn lint_artifacts(
    dag: &HopDag,
    instructions: &[Instruction],
    cp_budget_mb: f64,
    mr_budget_mb: f64,
    path: &str,
) -> Vec<Diagnostic> {
    let mut diags = hop_rules::lint_hop_dag(dag, path);
    diags.extend(lop_rules::lint_cp_budget(
        dag,
        instructions,
        cp_budget_mb,
        path,
    ));
    for (i, instr) in instructions.iter().enumerate() {
        if let Instruction::MrJob(job) = instr {
            diags.extend(lop_rules::lint_mr_job(
                job,
                mr_budget_mb,
                &format!("{path}/instr {i}"),
            ));
        }
    }
    diags
}

/// Lint a whole compiled program against its source analysis and the
/// configuration it was compiled under. Walks the runtime tree, rebuilds
/// each generic block's HOP DAG from the recorded entry environment, and
/// runs the full rule catalog.
pub fn lint_compiled(
    analyzed: &AnalyzedProgram,
    compiled: &CompiledProgram,
    config: &CompileConfig,
) -> LintReport {
    let _s = reml_trace::span!("planlint.lint_compiled");
    let mut diags = rt_rules::lint_runtime(analyzed, compiled);

    compiled.runtime.walk(&mut |b| {
        let bid = b.source().0;
        // MR jobs inside predicates (rare — predicates are
        // scalar-dominated, but lowering is budget-driven and may emit
        // them).
        for (_, pred) in b.predicates() {
            for (i, instr) in pred.instructions.iter().enumerate() {
                if let Instruction::MrJob(job) = instr {
                    diags.extend(lop_rules::lint_mr_job(
                        job,
                        config.mr_budget_mb(bid),
                        &format!("block {bid}/pred instr {i}"),
                    ));
                }
            }
        }
        let RtBlock::Generic { instructions, .. } = b else {
            return;
        };
        let path = format!("block {bid}");
        let Some(entry_env) = compiled.entry_envs.get(&bid) else {
            diags.push(Diagnostic::new(
                "PL025",
                &path,
                "no entry environment recorded for generic block",
            ));
            return;
        };
        let Some(block) = find_block(&analyzed.blocks, BlockId(bid)) else {
            // PL024 already reports the missing source mapping.
            return;
        };
        let staged = match rebuild_block_dag_staged(config, block, entry_env) {
            Ok(staged) => staged,
            Err(e) => {
                diags.push(Diagnostic::new(
                    "PL025",
                    &path,
                    format!("DAG rebuild from entry environment failed: {e}"),
                ));
                return;
            }
        };
        match compiled.rewrite_audit.blocks.get(&bid) {
            Some(stored) => {
                diags.extend(rw_rules::check_reproducible(stored, &staged.audit, &path));
                diags.extend(rw_rules::validate_block_rewrites(
                    &staged.pre,
                    &staged.post,
                    stored,
                    &path,
                ));
            }
            None => diags.push(Diagnostic::new(
                "PL050",
                &path,
                "no rewrite audit recorded for generic block",
            )),
        }
        let dag = staged.post;
        diags.extend(hop_rules::lint_hop_dag(&dag, &path));
        diags.extend(lop_rules::lint_cp_budget(
            &dag,
            instructions,
            config.cp_budget_mb(),
            &path,
        ));
        for (i, instr) in instructions.iter().enumerate() {
            if let Instruction::MrJob(job) = instr {
                diags.extend(lop_rules::lint_mr_job(
                    job,
                    config.mr_budget_mb(bid),
                    &format!("{path}/instr {i}"),
                ));
            }
        }
    });

    diags.extend(rw_rules::validate_program_rewrites(
        analyzed, compiled, config,
    ));

    LintReport::from_diagnostics(diags)
}

/// Mirror of the lowering's MR-capability predicate (`lower.rs`): the
/// operators that *can* run as MR jobs, and therefore the only ones for
/// which CP placement is a budget decision (PL010). Kept in sync by the
/// zero-diagnostics integration tests.
pub(crate) fn mr_capable(op: &reml_compiler::HopOp) -> bool {
    use reml_compiler::HopOp;
    matches!(
        op,
        HopOp::MatMult
            | HopOp::MmChain
            | HopOp::BinaryMM(_)
            | HopOp::BinaryMS(_)
            | HopOp::BinarySM(_)
            | HopOp::UnaryM(_)
            | HopOp::Agg(_)
            | HopOp::Transpose
            | HopOp::TableSeq
            | HopOp::RightIndex
            | HopOp::LeftIndex
            | HopOp::Append
            | HopOp::RBind
            | HopOp::Diag
            | HopOp::DataGenConst
            | HopOp::DataGenSeq
            | HopOp::DataGenRand
    ) && op.is_matrix_op()
}

/// Whether a variable name is a lowering-generated temporary.
pub(crate) fn is_temp_name(name: &str) -> bool {
    name.starts_with("_mVar") || name.starts_with("__pred")
}
