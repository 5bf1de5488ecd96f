//! §4.1 AM runtime migration on the *real* executor: split a program at a
//! block boundary, migrate the state to a differently-sized container,
//! resume, and verify the results are identical to an unmigrated run —
//! the safety argument the paper makes ("migration at program block
//! boundaries ... all intermediates are bound to logical variable
//! names").

use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{lower_program, HdfsStore, RuntimeProgram, VmExecutor, VmLowerOptions};
use reml::scripts::data::{generate_dataset, LabelKind};

fn compiled(
    script: &reml::scripts::ScriptSpec,
    data: &reml::scripts::Dataset,
) -> (reml::compiler::pipeline::CompiledProgram, HdfsStore) {
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    cfg.inputs.insert("X".into(), data.x.characteristics());
    cfg.inputs.insert("y".into(), data.y.characteristics());
    let compiled = compile_source(&script.source, &cfg).expect("compiles");
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    (compiled, hdfs)
}

/// Run `blocks[..split]` and `blocks[split..]` as two lowered programs on
/// one executor; `between` runs at the block boundary.
fn run_split(
    runtime: &RuntimeProgram,
    split: usize,
    exec: &mut VmExecutor,
    between: impl FnOnce(&mut VmExecutor),
) {
    let part = |blocks: &[reml::runtime::RtBlock]| {
        let program = RuntimeProgram {
            blocks: blocks.to_vec(),
            ..Default::default()
        };
        lower_program(&program, VmLowerOptions::default())
    };
    exec.run(&part(&runtime.blocks[..split]), &mut NoRecompile)
        .expect("prefix runs");
    between(exec);
    exec.run(&part(&runtime.blocks[split..]), &mut NoRecompile)
        .expect("suffix runs");
}

/// Reference: the whole program in one container, never migrated.
fn unmigrated(runtime: &RuntimeProgram, hdfs: HdfsStore) -> VmExecutor {
    let mut exec = VmExecutor::new(64 << 20, hdfs);
    exec.run(
        &lower_program(runtime, VmLowerOptions::default()),
        &mut NoRecompile,
    )
    .expect("reference runs");
    exec
}

fn assert_same_model(migrated: &VmExecutor, reference: &VmExecutor) {
    let ref_model = reference.hdfs.peek("model").unwrap();
    let model = migrated.hdfs.peek("model").unwrap();
    assert_eq!(model.rows(), ref_model.rows());
    for r in 0..ref_model.rows() {
        assert!(
            (model.get(r, 0) - ref_model.get(r, 0)).abs() < 1e-12,
            "weight {r} diverged after migration"
        );
    }
    // Scalars travel implicitly (same executor object models the
    // serialized position state); printed output must match too.
    assert_eq!(migrated.stats.printed, reference.stats.printed);
}

#[test]
fn migration_at_block_boundary_preserves_results() {
    let data = generate_dataset(500, 8, 1.0, LabelKind::BinaryPm1, 17);
    let (compiled, hdfs) = compiled(&reml::scripts::l2svm(), &data);
    let reference = unmigrated(&compiled.runtime, hdfs.clone());

    // Migrated: run the prefix (up to the while loop), migrate to a
    // container 8x the size, run the remainder.
    let split = compiled
        .runtime
        .blocks
        .iter()
        .position(|b| matches!(b, reml::runtime::RtBlock::While { .. }))
        .expect("has a loop");
    let mut exec = VmExecutor::new(64 << 20, hdfs);
    run_split(&compiled.runtime, split, &mut exec, |exec| {
        let report = exec.migrate(512 << 20);
        assert!(report.variables > 0);
        assert!(report.dirty_exported > 0, "loop state is dirty");
        assert_eq!(exec.pool.capacity_bytes(), 512 << 20);
    });
    assert_same_model(&exec, &reference);
}

#[test]
fn migration_to_smaller_container_still_correct() {
    // Shrinking (the "trivial" direction per §4) must also preserve
    // results, merely causing evictions.
    let data = generate_dataset(400, 6, 1.0, LabelKind::Regression, 23);
    let (compiled, hdfs) = compiled(&reml::scripts::linreg_ds(), &data);
    let reference = unmigrated(&compiled.runtime, hdfs.clone());

    // Run the first block, then migrate to a tiny pool.
    let mut exec = VmExecutor::new(64 << 20, hdfs);
    run_split(&compiled.runtime, 1, &mut exec, |exec| {
        exec.migrate(100 * 1024);
        assert!(exec.pool.resident_bytes() <= exec.pool.capacity_bytes());
    });
    assert_same_model(&exec, &reference);
    let model = exec.hdfs.peek("model").unwrap();
    let truth = data.truth.as_ref().unwrap();
    for j in 0..6 {
        assert!((model.get(j, 0) - truth.get(j, 0)).abs() < 0.05);
    }
}

#[test]
fn migration_report_accounts_dirty_bytes() {
    let mut exec = VmExecutor::new(1 << 20, HdfsStore::new());
    let matrix = |rows, v| std::sync::Arc::new(reml::matrix::Matrix::constant(rows, 10, v));
    exec.pool.put_with_dirty("clean", matrix(10, 1.0), false);
    exec.pool.put("dirty", matrix(20, 2.0));
    let report = exec.migrate(2 << 20);
    assert_eq!(report.variables, 2);
    assert_eq!(report.dirty_exported, 1);
    assert_eq!(report.dirty_bytes, 20 * 10 * 8);
    // Only the dirty variable is written out; both survive the migration.
    assert!(exec.hdfs.exists("am_state/dirty"));
    assert!(!exec.hdfs.exists("am_state/clean"));
    assert!(exec.pool.contains("clean"));
    assert!(exec.pool.contains("dirty"));
}
