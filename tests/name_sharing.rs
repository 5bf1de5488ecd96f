//! Variable names are shared handles (`Arc<str>`) from the HOP builder to
//! the emitted instructions: a transient read names its operand with the
//! environment's own key, and every lowering names hop `n`'s temporary
//! with one shared `_mVar{n}`. These tests pin the sharing down with
//! `Arc::ptr_eq`, over the five paper scripts.

use std::sync::Arc;

use reml::compiler::build::Env;
use reml::compiler::pipeline::{analyze_program, compile_block_with_env};
use reml::compiler::session::{with_resources, WhatIfSession};
use reml::compiler::MrHeapAssignment;
use reml::lang::BlockId;
use reml::prelude::ClusterConfig;
use reml::runtime::instructions::TEMP_PREFIX;
use reml::runtime::{Instruction, Operand};
use reml::scripts::{all_scripts, DataShape, Scenario};

/// Every variable name an instruction list holds: operands, outputs and
/// MR-job inputs and outputs.
fn names(instructions: &[Instruction]) -> Vec<&Arc<str>> {
    fn vars(operands: &[Operand]) -> impl Iterator<Item = &Arc<str>> {
        operands.iter().filter_map(|o| match o {
            Operand::Var(name) => Some(name),
            Operand::Lit(_) => None,
        })
    }
    let mut out = Vec::new();
    for instr in instructions {
        match instr {
            Instruction::Cp(cp) => {
                out.extend(vars(&cp.operands));
                out.extend(&cp.output);
            }
            Instruction::MrJob(job) => {
                let io = job.hdfs_inputs.iter().chain(&job.broadcast_inputs);
                out.extend(io.chain(&job.outputs).map(|(name, _)| name));
                for op in job.mappers.iter().chain(&job.reducers) {
                    out.extend(vars(&op.operands));
                    out.extend(&op.output);
                }
            }
        }
    }
    out
}

/// Each name that is a key of `env`, with that key.
fn env_keys<'a>(env: &'a Env, names: &[&'a Arc<str>]) -> Vec<(&'a Arc<str>, &'a Arc<str>)> {
    names
        .iter()
        .filter_map(|name| env.get_key_value(&***name).map(|(key, _)| (*name, key)))
        .collect()
}

#[test]
fn temporaries_are_shared_across_lowerings_of_a_memoized_block() {
    let cluster = ClusterConfig::paper_cluster();
    let (min, max) = (cluster.min_heap_mb(), cluster.max_heap_mb());
    let mut shared = 0;
    let mut distinct_plans = 0;
    for script in all_scripts() {
        let analyzed = analyze_program(&script.source).unwrap();
        let shape = DataShape::paper_variants(Scenario::M)[0];
        let base =
            script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
        let session = WhatIfSession::new(&analyzed, &base, None, true).unwrap();
        for summary in &session.probe().summaries {
            let small = session.compile_block(summary.block_id, min, min).unwrap();
            let large = session.compile_block(summary.block_id, max, max).unwrap();
            if Arc::ptr_eq(&small, &large) {
                // Both budgets fall between the same thresholds: one
                // lowering serves both.
                continue;
            }
            if small.instructions != large.instructions {
                distinct_plans += 1;
            }
            let large_names = names(&large.instructions);
            for a in names(&small.instructions) {
                if !a.starts_with(TEMP_PREFIX) {
                    continue;
                }
                for b in large_names.iter().filter(|&&b| b == a) {
                    assert!(Arc::ptr_eq(a, b), "{}: {a} is copied", script.name);
                    shared += 1;
                }
            }
        }
    }
    assert!(
        distinct_plans > 0,
        "no block changed its plan between budgets"
    );
    assert!(shared > 100, "only {shared} shared temporaries checked");
}

#[test]
fn transient_reads_name_their_operand_with_the_environment_key() {
    let cluster = ClusterConfig::paper_cluster();
    let min = cluster.min_heap_mb();
    let mut checked = 0;
    for script in all_scripts() {
        let analyzed = analyze_program(&script.source).unwrap();
        let shape = DataShape::paper_variants(Scenario::S)[0];
        let base =
            script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
        let session = WhatIfSession::new(&analyzed, &base, None, true).unwrap();
        for summary in &session.probe().summaries {
            let bid = summary.block_id;
            let entry = session.entry_env(bid).expect("probe reached the block");
            // Re-lowered from the session's memo, whose DAG was built over
            // the recorded entry environment...
            let memoized = session.compile_block(bid, min, min).unwrap();
            // ...and compiled from scratch over a clone of it.
            let cfg = with_resources(&base, min, MrHeapAssignment::uniform(min));
            let mut env = entry.clone();
            let (fresh, ..) =
                compile_block_with_env(&analyzed, &cfg, BlockId(bid), &mut env).unwrap();
            for instructions in [&memoized.instructions, &fresh] {
                let names = names(instructions);
                for (name, key) in env_keys(entry, &names) {
                    assert!(Arc::ptr_eq(name, key), "{}: {name} is copied", script.name);
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 100, "only {checked} transient names checked");
}
