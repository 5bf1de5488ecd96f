//! LOP-layer rules (PL010–PL015): budget soundness of CP placement and
//! piggybacking legality of packed MR jobs.

use std::collections::BTreeSet;

use reml_compiler::HopDag;
use reml_runtime::instructions::{Instruction, MrJobInstruction, MrLocation, MrOperator};
use reml_runtime::Operand;

use crate::{mr_capable, Diagnostic};

/// PL010 (plus PL025 for unmappable temporaries): every CP instruction
/// whose output is a lowering temporary `_mVar<hop>` maps back onto the
/// rebuilt DAG; if the hop is MR-capable, choosing CP was a budget
/// decision and the hop's memory estimate must fit the CP budget.
pub fn lint_cp_budget(
    dag: &HopDag,
    instructions: &[Instruction],
    cp_budget_mb: f64,
    path: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Absorb representation noise from the budget arithmetic (0.7×heap).
    let slack = cp_budget_mb.abs() * 1e-12 + 1e-12;
    for (i, instr) in instructions.iter().enumerate() {
        let Instruction::Cp(cp) = instr else { continue };
        let Some(out) = cp.output.as_deref() else {
            continue;
        };
        let Some(id_str) = out.strip_prefix("_mVar") else {
            continue;
        };
        let Ok(id) = id_str.parse::<usize>() else {
            continue;
        };
        if id >= dag.len() {
            diags.push(Diagnostic::new(
                "PL025",
                format!("{path}/instr {i}"),
                format!(
                    "CP output {out} has no hop in the rebuilt DAG ({} hops)",
                    dag.len()
                ),
            ));
            continue;
        }
        let hop = &dag.hops[id];
        if mr_capable(&hop.op) && hop.mem_mb > cp_budget_mb + slack {
            diags.push(Diagnostic::new(
                "PL010",
                format!("{path}/instr {i}"),
                format!(
                    "{:?} runs in CP with estimate {:.3} MB over the CP budget {:.3} MB",
                    hop.op, hop.mem_mb, cp_budget_mb
                ),
            ));
        }
    }
    diags
}

fn operand_names(op: &MrOperator) -> impl Iterator<Item = &str> {
    op.operands.iter().filter_map(|o| match o {
        Operand::Var(v) => Some(&**v),
        Operand::Lit(_) => None,
    })
}

/// PL011–PL015: legality of one piggybacked MR job (the paper's Table 4
/// constraints, restated against the packed artifact).
pub fn lint_mr_job(job: &MrJobInstruction, mr_budget_mb: f64, path: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let ops: Vec<&MrOperator> = job.mappers.iter().chain(&job.reducers).collect();
    let op_outputs: BTreeSet<&str> = ops.iter().filter_map(|o| o.output.as_deref()).collect();
    let mapper_outputs: BTreeSet<&str> = job
        .mappers
        .iter()
        .filter_map(|o| o.output.as_deref())
        .collect();
    let reducer_outputs: BTreeSet<&str> = job
        .reducers
        .iter()
        .filter_map(|o| o.output.as_deref())
        .collect();

    // PL011: broadcast memory within the per-task budget. A job holding a
    // single operator is exempt — an oversized operator must still be
    // schedulable somewhere, so the packer admits it alone (and costing
    // accounts for the spill); packing *additional* work into such a job
    // is what the rule forbids.
    if ops.len() > 1 && job.broadcast_mb() > mr_budget_mb * (1.0 + 1e-6) {
        diags.push(Diagnostic::new(
            "PL011",
            path.to_string(),
            format!(
                "broadcast inputs need {:.3} MB but the MR task budget is {:.3} MB",
                job.broadcast_mb(),
                mr_budget_mb
            ),
        ));
    }

    // PL012: a broadcast must be materialized before the job starts — it
    // cannot be produced by an operator inside the same job.
    for (name, _) in &job.broadcast_inputs {
        if op_outputs.contains(&**name) {
            diags.push(Diagnostic::new(
                "PL012",
                path.to_string(),
                format!("broadcast input {name} is produced inside the same job"),
            ));
        }
    }

    // PL013: map-phase operators run before the shuffle, so they can
    // never consume reduce-phase output.
    for (mi, m) in job.mappers.iter().enumerate() {
        for name in operand_names(m) {
            if reducer_outputs.contains(name) {
                diags.push(Diagnostic::new(
                    "PL013",
                    format!("{path}/map {mi}"),
                    format!(
                        "map-phase {} consumes reduce-phase output {name}",
                        m.opcode.mnemonic()
                    ),
                ));
            }
        }
    }

    // PL014: structural consistency.
    if job.shuffle.is_empty() != job.reducers.is_empty() {
        diags.push(Diagnostic::new(
            "PL014",
            path.to_string(),
            format!(
                "shuffle ({} entries) and reduce phase ({} operators) must appear together",
                job.shuffle.len(),
                job.reducers.len()
            ),
        ));
    }
    for (name, _) in &job.outputs {
        if !op_outputs.contains(&**name) {
            diags.push(Diagnostic::new(
                "PL014",
                path.to_string(),
                format!("job output {name} is not produced by any packed operator"),
            ));
        }
    }
    for (mi, m) in job.mappers.iter().enumerate() {
        if m.location != MrLocation::Map {
            diags.push(Diagnostic::new(
                "PL014",
                format!("{path}/map {mi}"),
                format!(
                    "{} packed into the map phase but tagged Reduce",
                    m.opcode.mnemonic()
                ),
            ));
        }
    }
    for (ri, r) in job.reducers.iter().enumerate() {
        if r.location != MrLocation::Reduce {
            diags.push(Diagnostic::new(
                "PL014",
                format!("{path}/reduce {ri}"),
                format!(
                    "{} packed into the reduce phase but tagged Map",
                    r.opcode.mnemonic()
                ),
            ));
        }
    }

    // PL015: in-job dataflow. An operand that names an in-job output must
    // be produced by an *earlier* operator of a phase it can see; mappers
    // are checked against mapper outputs only (reduce-output consumption
    // is PL013's finding, not repeated here). HDFS inputs must be
    // pre-existing datasets, never in-job products.
    let mut produced: BTreeSet<&str> = BTreeSet::new();
    for (mi, m) in job.mappers.iter().enumerate() {
        for name in operand_names(m) {
            if mapper_outputs.contains(name) && !produced.contains(name) {
                diags.push(Diagnostic::new(
                    "PL015",
                    format!("{path}/map {mi}"),
                    format!(
                        "{} consumes in-job value {name} before it is produced",
                        m.opcode.mnemonic()
                    ),
                ));
            }
        }
        if let Some(out) = m.output.as_deref() {
            produced.insert(out);
        }
    }
    for (ri, r) in job.reducers.iter().enumerate() {
        for name in operand_names(r) {
            if op_outputs.contains(name) && !produced.contains(name) {
                diags.push(Diagnostic::new(
                    "PL015",
                    format!("{path}/reduce {ri}"),
                    format!(
                        "{} consumes in-job value {name} before it is produced",
                        r.opcode.mnemonic()
                    ),
                ));
            }
        }
        if let Some(out) = r.output.as_deref() {
            produced.insert(out);
        }
    }
    for (name, _) in &job.hdfs_inputs {
        if op_outputs.contains(&**name) {
            diags.push(Diagnostic::new(
                "PL015",
                path.to_string(),
                format!("HDFS input {name} is produced inside the same job"),
            ));
        }
    }

    diags
}
