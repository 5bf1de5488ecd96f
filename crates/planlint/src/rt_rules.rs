//! Runtime-layer rules (PL020–PL024): consistency between the compiled
//! runtime program tree and the `lang::blocks` source analysis.

use std::collections::BTreeSet;

use reml_compiler::pipeline::{AnalyzedProgram, CompiledProgram};
use reml_lang::blocks::{find_block, BlockId, StatementBlock, StatementBlockKind};
use reml_runtime::instructions::{Instruction, OpCode};
use reml_runtime::program::{Predicate, RtBlock};
use reml_runtime::Operand;

use crate::{is_temp_name, Diagnostic};

/// Run the runtime-layer rules over a compiled program.
pub fn lint_runtime(analyzed: &AnalyzedProgram, compiled: &CompiledProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    compiled.runtime.walk(&mut |b| {
        check_source_mapping(b, analyzed, &mut diags);
        check_predicates(b, &mut diags);
    });
    check_live_sets(analyzed, compiled, &mut diags);
    check_summaries(compiled, &mut diags);
    check_definite_assignment(compiled, &mut diags);

    diags
}

/// PL024: every runtime block maps to a source statement block of the
/// same control kind.
fn check_source_mapping(block: &RtBlock, analyzed: &AnalyzedProgram, diags: &mut Vec<Diagnostic>) {
    let bid = block.source().0;
    match find_block(&analyzed.blocks, BlockId(bid)) {
        None => diags.push(Diagnostic::new(
            "PL024",
            format!("block {bid}"),
            "runtime block has no source statement block",
        )),
        Some(src) => {
            let kinds_match = matches!(
                (block, &src.kind),
                (RtBlock::Generic { .. }, StatementBlockKind::Generic { .. })
                    | (RtBlock::If { .. }, StatementBlockKind::If { .. })
                    | (RtBlock::While { .. }, StatementBlockKind::While { .. })
                    | (RtBlock::For { .. }, StatementBlockKind::For { .. })
            );
            if !kinds_match {
                diags.push(Diagnostic::new(
                    "PL024",
                    format!("block {bid}"),
                    format!(
                        "runtime block kind disagrees with source statement block ({:?} lines)",
                        src.lines
                    ),
                ));
            }
        }
    }
}

/// PL022: a non-empty compiled predicate must bind its `result_var`.
fn check_predicates(block: &RtBlock, diags: &mut Vec<Diagnostic>) {
    for (which, pred) in block.predicates() {
        if pred.instructions.is_empty() {
            continue;
        }
        let binds = pred.instructions.iter().any(|i| match i {
            Instruction::Cp(cp) => cp.output.as_deref() == Some(pred.result_var.as_str()),
            Instruction::MrJob(job) => job
                .outputs
                .iter()
                .any(|(name, _)| **name == *pred.result_var),
        });
        if !binds {
            diags.push(Diagnostic::new(
                "PL022",
                format!("block {}/{which}", block.source().0),
                format!(
                    "no predicate instruction binds result variable {}",
                    pred.result_var
                ),
            ));
        }
    }
}

/// PL021: in each generic block, every named (non-temporary) variable an
/// instruction reads from the enclosing scope must be in the source
/// block's live-in set (`reads ∪ updates`), and every named variable it
/// binds must be in `updates`.
fn check_live_sets(
    analyzed: &AnalyzedProgram,
    compiled: &CompiledProgram,
    diags: &mut Vec<Diagnostic>,
) {
    compiled.runtime.walk(&mut |b| {
        let RtBlock::Generic {
            source,
            instructions,
            ..
        } = b
        else {
            return;
        };
        let bid = source.0;
        let Some(block) = find_block(&analyzed.blocks, BlockId(bid)) else {
            return; // PL024 reports the missing mapping
        };
        check_block_live_sets(bid, block, instructions, diags);
    });
}

fn check_block_live_sets(
    bid: usize,
    block: &StatementBlock,
    instructions: &[Instruction],
    diags: &mut Vec<Diagnostic>,
) {
    let mut written: BTreeSet<&str> = BTreeSet::new();
    let check_read =
        |name: &str, i: usize, written: &BTreeSet<&str>, diags: &mut Vec<Diagnostic>| {
            if is_temp_name(name) || written.contains(name) {
                return;
            }
            if !block.reads.contains(name) && !block.updates.contains(name) {
                diags.push(Diagnostic::new(
                    "PL021",
                    format!("block {bid}/instr {i}"),
                    format!("instruction reads {name} outside the block's live-in set"),
                ));
            }
        };
    for (i, instr) in instructions.iter().enumerate() {
        match instr {
            Instruction::Cp(cp) => {
                if !matches!(cp.opcode, OpCode::RmVar) {
                    for o in &cp.operands {
                        if let Operand::Var(name) = o {
                            check_read(name, i, &written, diags);
                        }
                    }
                }
                if let Some(out) = cp.output.as_deref() {
                    // A PersistentRead's output is the dataset *path* (the
                    // value is then bound by Assign) — a legitimate read,
                    // not an update of the path name.
                    let is_pread = matches!(cp.opcode, OpCode::PersistentRead { .. });
                    if !is_temp_name(out) && !is_pread && !block.updates.contains(out) {
                        diags.push(Diagnostic::new(
                            "PL021",
                            format!("block {bid}/instr {i}"),
                            format!("instruction binds {out} outside the block's update set"),
                        ));
                    }
                    written.insert(out);
                }
            }
            Instruction::MrJob(job) => {
                for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                    check_read(name, i, &written, diags);
                }
                for op in job.mappers.iter().chain(&job.reducers) {
                    for o in &op.operands {
                        if let Operand::Var(name) = o {
                            if !written.contains(&**name)
                                && job
                                    .hdfs_inputs
                                    .iter()
                                    .chain(&job.broadcast_inputs)
                                    .all(|(n, _)| n != name)
                            {
                                check_read(name, i, &written, diags);
                            }
                        }
                    }
                    if let Some(out) = op.output.as_deref() {
                        if !is_temp_name(out) && !block.updates.contains(out) {
                            diags.push(Diagnostic::new(
                                "PL021",
                                format!("block {bid}/instr {i}"),
                                format!("MR operator binds {out} outside the block's update set"),
                            ));
                        }
                        written.insert(out);
                    }
                }
            }
        }
    }
}

/// PL023 (warning): the per-block compile summaries must describe the
/// plan that was actually emitted.
fn check_summaries(compiled: &CompiledProgram, diags: &mut Vec<Diagnostic>) {
    compiled.runtime.walk(&mut |b| {
        let RtBlock::Generic {
            source,
            instructions,
            requires_recompile,
        } = b
        else {
            return;
        };
        let bid = source.0;
        // Loop bodies are summarized once per compile; the last summary
        // for a block id is the one describing the emitted plan.
        let Some(summary) = compiled.summaries.iter().rev().find(|s| s.block_id == bid) else {
            diags.push(Diagnostic::new(
                "PL023",
                format!("block {bid}"),
                "no compile summary recorded for generic block",
            ));
            return;
        };
        let mr_jobs = instructions.iter().filter(|i| i.is_mr()).count();
        if summary.mr_jobs != mr_jobs {
            diags.push(Diagnostic::new(
                "PL023",
                format!("block {bid}"),
                format!(
                    "summary reports {} MR jobs but the block holds {mr_jobs}",
                    summary.mr_jobs
                ),
            ));
        }
        if summary.requires_recompile != *requires_recompile {
            diags.push(Diagnostic::new(
                "PL023",
                format!("block {bid}"),
                format!(
                    "summary reports requires_recompile={} but the block says {}",
                    summary.requires_recompile, requires_recompile
                ),
            ));
        }
    });
}

/// PL020: definite assignment of lowering temporaries (`_mVar`/`__pred`)
/// along every control path. Named user variables are seeded from the
/// recorded entry environments (scoped plans legitimately read variables
/// defined outside the compiled fragment), so only temporaries — which
/// must be produced and consumed within the plan — are checked strictly.
fn check_definite_assignment(compiled: &CompiledProgram, diags: &mut Vec<Diagnostic>) {
    let mut defined: BTreeSet<String> = BTreeSet::new();
    for env in compiled.entry_envs.values() {
        defined.extend(env.keys().map(|k| k.to_string()));
    }
    for (path, _) in &compiled.runtime.inputs {
        defined.insert(path.clone());
    }
    for b in &compiled.runtime.blocks {
        walk_defs(b, &mut defined, diags);
    }
}

fn walk_defs(block: &RtBlock, defined: &mut BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    match block {
        RtBlock::Generic {
            source,
            instructions,
            ..
        } => {
            for (i, instr) in instructions.iter().enumerate() {
                check_instr_defs(
                    instr,
                    defined,
                    &format!("block {}/instr {i}", source.0),
                    diags,
                );
            }
        }
        RtBlock::If {
            source,
            pred,
            then_blocks,
            else_blocks,
        } => {
            check_pred_defs(pred, defined, &format!("block {}/pred", source.0), diags);
            let mut then_defs = defined.clone();
            for b in then_blocks {
                walk_defs(b, &mut then_defs, diags);
            }
            let mut else_defs = defined.clone();
            for b in else_blocks {
                walk_defs(b, &mut else_defs, diags);
            }
            // Visible after the branch: defined on either path (only
            // temporaries are checked strictly, so union is sound here).
            defined.extend(then_defs);
            defined.extend(else_defs);
        }
        RtBlock::While {
            source, pred, body, ..
        } => {
            check_pred_defs(pred, defined, &format!("block {}/pred", source.0), diags);
            for b in body {
                walk_defs(b, defined, diags);
            }
        }
        RtBlock::For {
            source,
            var,
            from,
            to,
            body,
            ..
        } => {
            check_pred_defs(from, defined, &format!("block {}/from", source.0), diags);
            check_pred_defs(to, defined, &format!("block {}/to", source.0), diags);
            defined.insert(var.clone());
            for b in body {
                walk_defs(b, defined, diags);
            }
        }
    }
}

fn check_pred_defs(
    pred: &Predicate,
    defined: &mut BTreeSet<String>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, instr) in pred.instructions.iter().enumerate() {
        check_instr_defs(instr, defined, &format!("{path} instr {i}"), diags);
    }
}

fn check_instr_defs(
    instr: &Instruction,
    defined: &mut BTreeSet<String>,
    path: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let require = |name: &str, defined: &BTreeSet<String>, diags: &mut Vec<Diagnostic>| {
        if is_temp_name(name) && !defined.contains(name) {
            diags.push(Diagnostic::new(
                "PL020",
                path.to_string(),
                format!("temporary {name} is read before any assignment"),
            ));
        }
    };
    match instr {
        Instruction::Cp(cp) => {
            if matches!(cp.opcode, OpCode::RmVar) {
                for o in &cp.operands {
                    if let Operand::Var(name) = o {
                        defined.remove(&**name);
                    }
                }
                return;
            }
            for o in &cp.operands {
                if let Operand::Var(name) = o {
                    require(name, defined, diags);
                }
            }
            if let Some(out) = &cp.output {
                defined.insert(out.to_string());
            }
        }
        Instruction::MrJob(job) => {
            for (name, _) in job.hdfs_inputs.iter().chain(&job.broadcast_inputs) {
                require(name, defined, diags);
            }
            let mut in_job: BTreeSet<&str> = BTreeSet::new();
            for op in job.mappers.iter().chain(&job.reducers) {
                for o in &op.operands {
                    if let Operand::Var(name) = o {
                        if !in_job.contains(&**name) {
                            require(name, defined, diags);
                        }
                    }
                }
                if let Some(out) = op.output.as_deref() {
                    in_job.insert(out);
                }
            }
            for op in job.mappers.iter().chain(&job.reducers) {
                if let Some(out) = &op.output {
                    defined.insert(out.to_string());
                }
            }
        }
    }
}
