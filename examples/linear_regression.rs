//! End-to-end *real* execution: train linear regression models with the
//! bytecode VM on generated data and verify the recovered weights.
//!
//! The big §5.1 scenarios exist as metadata for the optimizer and the
//! simulator; this example shows the same compiled programs computing
//! real values on laptop-scale data — both the direct-solve and the
//! conjugate-gradient algorithm.
//!
//! Run with: `cargo run --example linear_regression`

use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{lower_program, HdfsStore, VmExecutor, VmLowerOptions};
use reml::scripts::data::{generate_dataset, LabelKind};

fn main() {
    let (rows, cols) = (2000usize, 20usize);
    let data = generate_dataset(rows, cols, 1.0, LabelKind::Regression, 7);
    let truth = data.truth.clone().expect("regression has ground truth");

    for script in [reml::scripts::linreg_ds(), reml::scripts::linreg_cg()] {
        println!("== {} on {rows}x{cols} generated data ==", script.name);

        // Compile with the real data's characteristics.
        let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
        for (name, value) in &script.params {
            cfg.params.insert((*name).to_string(), value.clone());
        }
        cfg.inputs.insert("X".to_string(), data.x.characteristics());
        cfg.inputs.insert("y".to_string(), data.y.characteristics());
        let compiled = compile_source(&script.source, &cfg).expect("compiles");

        // Execute on the real matrices.
        let mut hdfs = HdfsStore::new();
        hdfs.stage("X", data.x.clone());
        hdfs.stage("y", data.y.clone());
        let program = lower_program(&compiled.runtime, VmLowerOptions::default());
        let mut exec = VmExecutor::new(4 * 1024 * 1024 * 1024, hdfs);
        exec.run(&program, &mut NoRecompile).expect("runs");

        for line in &exec.stats.printed {
            println!("  {line}");
        }
        let model = exec.hdfs.peek("model").expect("model written");
        let max_err = (0..cols)
            .map(|j| (model.get(j, 0) - truth.get(j, 0)).abs())
            .fold(0.0f64, f64::max)
            .max(0.0);
        println!(
            "  max |beta - truth| = {max_err:.4}  ({} CP instructions)\n",
            exec.stats.cp_instructions
        );
        assert!(max_err < 0.05, "model should recover the ground truth");
    }
    println!("both algorithms recovered the generating weights.");
}
