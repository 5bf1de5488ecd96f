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

/// FNV-1a over the bits of `values`, in order.
fn digest(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A session derives its decision thresholds from the DAGs its probe
/// walk memoized, without lowering them. The digests below were recorded
/// when every lowering still returned its thresholds and the session took
/// the union over the probe's block summaries and predicate lowerings;
/// equal thresholds give equal fingerprints, so cache keys and hit counts
/// cannot drift. Per row: script, scenario, paper shape index, program
/// threshold count, digest of the program thresholds, digest of every
/// block's `(id, count, thresholds…)`.
#[test]
fn session_thresholds_equal_the_probe_lowerings() {
    const RECORDED: [(&str, &str, usize, usize, u64, u64); 40] = [
        (
            "LinregDS",
            "S",
            0,
            183,
            0xbe57db4f7b63b870,
            0xc39df0fa0176805a,
        ),
        (
            "LinregDS",
            "S",
            1,
            243,
            0xc7bd2ae3878763c4,
            0x1845b9bcd42686f5,
        ),
        (
            "LinregDS",
            "S",
            2,
            183,
            0x1b9a5d75fa3e3e51,
            0xf80412ba4bc15478,
        ),
        (
            "LinregDS",
            "S",
            3,
            163,
            0x63b783f85f1a5f6c,
            0x89cb4a01352d05b3,
        ),
        (
            "LinregDS",
            "M",
            0,
            107,
            0xb4ea885d89305567,
            0xd3bb31c1ec74f12d,
        ),
        (
            "LinregDS",
            "M",
            1,
            142,
            0xa67b0463d4986227,
            0x88f39a6074cdab20,
        ),
        (
            "LinregDS",
            "M",
            2,
            183,
            0x5203da321d1d186f,
            0xaa0f2b0ced617c44,
        ),
        (
            "LinregDS",
            "M",
            3,
            163,
            0xe0d467a45086e977,
            0xf1be39274a9da648,
        ),
        (
            "LinregCG",
            "S",
            0,
            63,
            0x85653f806ab645ae,
            0xa1936756ea59237d,
        ),
        (
            "LinregCG",
            "S",
            1,
            71,
            0xebf27aa0857b2796,
            0xeb61c642a29dca34,
        ),
        (
            "LinregCG",
            "S",
            2,
            63,
            0x73ecd72162ac5ad8,
            0xec4332c61196b567,
        ),
        (
            "LinregCG",
            "S",
            3,
            63,
            0xed05449f8f9729a0,
            0x21857156524ce322,
        ),
        (
            "LinregCG",
            "M",
            0,
            63,
            0x7a2347d489619adb,
            0x1bc1f152cf60ecb3,
        ),
        (
            "LinregCG",
            "M",
            1,
            71,
            0x20445a23ee39b0f3,
            0xeefea2b6d59f10c5,
        ),
        (
            "LinregCG",
            "M",
            2,
            63,
            0x0ff448a9bfe24fd9,
            0x621c2006ba68cbc7,
        ),
        (
            "LinregCG",
            "M",
            3,
            63,
            0xbdcec132af50075e,
            0xf6ccdbe141cca505,
        ),
        ("L2SVM", "S", 0, 162, 0x45948135b0361351, 0x65c8e2df66012028),
        ("L2SVM", "S", 1, 165, 0x00be4a7fa5933a74, 0xa7ba787641e1acd9),
        ("L2SVM", "S", 2, 162, 0x8832b80e079fdf71, 0x9f55d44f5e3f42a8),
        ("L2SVM", "S", 3, 149, 0x9bc4fa8bc6d43624, 0xf7a1b1ac78b35019),
        ("L2SVM", "M", 0, 162, 0x4c250422340dbf79, 0xdc4f312cdac1301b),
        ("L2SVM", "M", 1, 165, 0xf0be08453dabdfb7, 0x6edae6e4ce2b6d32),
        ("L2SVM", "M", 2, 162, 0xf891f7c1e31feb4e, 0x15df8ed688f9cb6b),
        ("L2SVM", "M", 3, 149, 0x8c10577f55ccf680, 0x2027165f149a2b40),
        (
            "MLogreg",
            "S",
            0,
            82,
            0x67a4274ecdbbc259,
            0xedf83c34e16e4eee,
        ),
        (
            "MLogreg",
            "S",
            1,
            109,
            0x152fda9188ac7624,
            0xac4b9f9668f3febc,
        ),
        (
            "MLogreg",
            "S",
            2,
            82,
            0xa35b3dc61cd56a54,
            0x902bd1819959e185,
        ),
        (
            "MLogreg",
            "S",
            3,
            91,
            0xc28b32b7765b1027,
            0xd3a82dcbbae80151,
        ),
        (
            "MLogreg",
            "M",
            0,
            82,
            0x34323e615271a1cc,
            0x8153a1aaee322895,
        ),
        (
            "MLogreg",
            "M",
            1,
            109,
            0x62694763356549c1,
            0x425fbb1fcf7b04ae,
        ),
        (
            "MLogreg",
            "M",
            2,
            82,
            0x3fc11567c65c6312,
            0xd69a6ae212572600,
        ),
        (
            "MLogreg",
            "M",
            3,
            91,
            0x1699e538a9b926a8,
            0xe821f2f27dff18c1,
        ),
        ("GLM", "S", 0, 187, 0xdc233dcbb892746f, 0x015a798207fbb1dc),
        ("GLM", "S", 1, 191, 0x1fe9707af6e35758, 0x2622cb981c6898ac),
        ("GLM", "S", 2, 187, 0xd18fdba0d865c48d, 0x17b33f5feed39655),
        ("GLM", "S", 3, 154, 0xa5f53cdbcaf536a2, 0xef4c8350ccf55c73),
        ("GLM", "M", 0, 173, 0xeb671f61f29f0127, 0xa7869d3d21f28210),
        ("GLM", "M", 1, 180, 0x210c7d8f85ec3f82, 0xf86a233f00a4f8ce),
        ("GLM", "M", 2, 187, 0x743859f68a0587b0, 0xed0b2589e452e207),
        ("GLM", "M", 3, 154, 0x0ef4255863f6c97f, 0xc25037a576172904),
    ];
    let cluster = ClusterConfig::paper_cluster();
    let mut rows = RECORDED.iter();
    for script in all_scripts() {
        let analyzed = analyze_program(&script.source).unwrap();
        for scenario in [Scenario::S, Scenario::M] {
            for (i, shape) in DataShape::paper_variants(scenario).into_iter().enumerate() {
                let base = script.compile_config(
                    shape,
                    cluster.clone(),
                    512,
                    MrHeapAssignment::uniform(512),
                );
                let session = WhatIfSession::new(&analyzed, &base, None, true).unwrap();
                let program = session.program_thresholds();
                let mut blocks = Vec::new();
                let mut ids: Vec<usize> = (session.probe().summaries.iter())
                    .map(|s| s.block_id)
                    .collect();
                ids.sort_unstable();
                for id in ids {
                    let th = session.block_thresholds(id).expect("a probed block");
                    blocks.extend([id as f64, th.len() as f64]);
                    blocks.extend_from_slice(th);
                }
                let at = (script.name, scenario.name(), i);
                let &(name, scen, idx, count, program_digest, blocks_digest) =
                    rows.next().expect("a recorded row");
                assert_eq!(at, (name, scen, idx), "row order");
                assert_eq!(program.len(), count, "{at:?}: program threshold count");
                assert_eq!(
                    digest(program),
                    program_digest,
                    "{at:?}: program thresholds"
                );
                assert_eq!(digest(&blocks), blocks_digest, "{at:?}: block thresholds");
                let uncached = WhatIfSession::new(&analyzed, &base, None, false).unwrap();
                assert!(
                    uncached.program_thresholds().is_empty(),
                    "nothing reads them"
                );
            }
        }
    }
    assert!(rows.next().is_none(), "every recorded row checked");
}
