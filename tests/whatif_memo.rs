//! A what-if session builds each block's HOP DAG once (its probe compile)
//! and afterwards only re-lowers it per grid point. This checks, in any
//! build profile, that those re-lowered plans are exactly what a memo-free
//! walk produces: `compile_plan` against `compile` (or, for a scope,
//! against a caching-off session's `compile_plan`) and `compile_block`
//! against `compile_block_with_env` from the probe's entry environment,
//! over the five paper scripts at XS–XL, every CP grid point and a spread
//! of MR overrides.

use std::collections::HashMap;
use std::sync::Arc;

use reml::compiler::build::Env;
use reml::compiler::pipeline::{
    analyze_program, compile, compile_block_with_env, env_from_runtime_state, top_level_index_of,
    AnalyzedProgram, CompiledProgram,
};
use reml::compiler::session::{with_resources, WhatIfSession};
use reml::compiler::{CompileConfig, MrHeapAssignment};
use reml::lang::{BlockId, StatementBlockKind};
use reml::matrix::MatrixCharacteristics;
use reml::optimizer::GridStrategy;
use reml::prelude::ClusterConfig;
use reml::runtime::ScalarValue;
use reml::scripts::{all_scripts, DataShape, Scenario};

/// Every field a what-if plan must share with a fresh compile.
fn assert_same_plan(memo: &CompiledProgram, fresh: &CompiledProgram, at: &str) {
    assert!(memo.runtime == fresh.runtime, "{at}: runtime differs");
    assert!(
        memo.rewrite_audit == fresh.rewrite_audit,
        "{at}: rewrite audit differs"
    );
    assert_eq!(
        format!("{:?}", memo.summaries),
        format!("{:?}", fresh.summaries),
        "{at}: summaries differ"
    );
    assert!(
        memo.entry_envs == fresh.entry_envs,
        "{at}: entry envs differ"
    );
    assert_eq!(memo.stats, fresh.stats, "{at}: stats differ");
}

/// Walk one session's CP grid with a spread of MR assignments, comparing
/// every whole-program and single-block what-if compile with a fresh one.
/// `fresh` compiles the session's scope under `(r_c, MR heaps)`.
fn check_session(
    analyzed: &AnalyzedProgram,
    base: &CompileConfig,
    scope: Option<(usize, &Env)>,
    label: &str,
    fresh: &dyn Fn(u64, &MrHeapAssignment) -> Arc<CompiledProgram>,
) -> usize {
    let session = WhatIfSession::new(analyzed, base, scope, true).unwrap();
    let cc = &base.cluster;
    let (min, max) = (cc.min_heap_mb(), cc.max_heap_mb());
    let estimates: Vec<f64> = (session.probe().summaries.iter())
        .flat_map(|s| s.mem_estimates_mb.iter().copied())
        .collect();
    let cp_grid = GridStrategy::default_hybrid().generate(min, max, &estimates);
    let mr_spread = [min, 2 * 1024, max];
    let blocks: Vec<usize> = (session.probe().summaries.iter())
        .map(|s| s.block_id)
        .collect();
    let mut compiles = 0;
    for &rc in &cp_grid {
        let mut assignments: Vec<MrHeapAssignment> = mr_spread
            .iter()
            .map(|&mr| MrHeapAssignment::uniform(mr))
            .collect();
        // One override per block, rotating through the spread.
        for (i, &bid) in blocks.iter().enumerate() {
            let mut mr = MrHeapAssignment::uniform(min);
            mr.set_block(bid, mr_spread[(i + rc as usize) % mr_spread.len()]);
            assignments.push(mr);
        }
        for mr in &assignments {
            let at = format!("{label} rc={rc} mr={mr:?}");
            let plan = session.compile_plan(rc, mr).unwrap();
            assert_same_plan(&plan, &fresh(rc, mr), &at);
            compiles += 1;
        }
        for &bid in &blocks {
            let entry = session.entry_env(bid).expect("probe reached the block");
            for &ri in &mr_spread {
                let block = session.compile_block(bid, rc, ri).unwrap();
                let mut cfg = with_resources(base, rc, MrHeapAssignment::uniform(min));
                cfg.mr_heap.set_block(bid, ri);
                let (instructions, summary, _) =
                    compile_block_with_env(analyzed, &cfg, BlockId(bid), &mut entry.clone())
                        .unwrap();
                let at = format!("{label} block {bid} rc={rc} ri={ri}");
                assert!(block.instructions == instructions, "{at}: instructions");
                assert_eq!(
                    format!("{:?}", block.summary),
                    format!("{summary:?}"),
                    "{at}: summary"
                );
                compiles += 1;
            }
        }
    }
    compiles
}

#[test]
fn memoized_what_if_plans_equal_fresh_compiles() {
    let cluster = ClusterConfig::paper_cluster();
    let mut compiles = 0;
    for script in all_scripts() {
        let analyzed = analyze_program(&script.source).unwrap();
        for scenario in Scenario::ALL {
            let shape = DataShape::paper_variants(scenario)[0];
            let base =
                script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
            let label = format!("{}/{}", script.name, scenario.name());
            compiles += check_session(&analyzed, &base, None, &label, &|rc, mr| {
                Arc::new(compile(&analyzed, &with_resources(&base, rc, mr.clone())).unwrap())
            });
        }
    }
    assert!(compiles > 1000, "only {compiles} what-if compiles checked");
}

#[test]
fn memoized_scoped_plans_equal_fresh_compiles() {
    // A §4 re-optimization scope: MLogreg on M data from its core loop,
    // with the number of classes k known from runtime state.
    let script = reml::scripts::mlogreg();
    let shape = DataShape {
        scenario: Scenario::M,
        cols: 100,
        sparsity: 1.0,
    };
    let cluster = ClusterConfig::paper_cluster();
    let mut base = script.compile_config(shape, cluster, 512, MrHeapAssignment::uniform(512));
    base.table_cols_hint = Some(5);
    let analyzed = analyze_program(&script.source).unwrap();
    let n = shape.rows();
    let mats = HashMap::from([
        ("X".to_string(), shape.x_characteristics()),
        ("Y".to_string(), MatrixCharacteristics::known(n, 5, n)),
        ("y".to_string(), MatrixCharacteristics::dense(n, 1)),
        ("B".to_string(), MatrixCharacteristics::dense(100, 5)),
        (
            "scale_lambda".to_string(),
            MatrixCharacteristics::dense(n, 1),
        ),
    ]);
    let scalars = HashMap::from([
        ("k".to_string(), ScalarValue::Num(5.0)),
        ("n".to_string(), ScalarValue::Num(n as f64)),
        ("m".to_string(), ScalarValue::Num(100.0)),
        ("lambda".to_string(), ScalarValue::Num(0.01)),
        ("eps".to_string(), ScalarValue::Num(1e-9)),
        ("maxi".to_string(), ScalarValue::Num(5.0)),
        ("iter".to_string(), ScalarValue::Num(0.0)),
        ("delta_init".to_string(), ScalarValue::Num(1.0)),
        ("converge".to_string(), ScalarValue::Bool(false)),
    ]);
    let env = env_from_runtime_state(&mats, &scalars);
    let loop_block = (analyzed.blocks.iter())
        .find(|b| matches!(b.kind, StatementBlockKind::While { .. }))
        .expect("mlogreg has a loop")
        .id;
    let scope = Some((top_level_index_of(&analyzed, loop_block).unwrap(), &env));
    let oracle = WhatIfSession::new(&analyzed, &base, scope, false).unwrap();
    let compiles = check_session(&analyzed, &base, scope, "MLogreg/M scoped", &|rc, mr| {
        oracle.compile_plan(rc, mr).unwrap()
    });
    assert!(compiles > 100, "only {compiles} what-if compiles checked");
}
