//! A classic "traditional statistical test" workload from the paper's
//! introduction: a Pearson correlation matrix over the feature columns,
//! written declaratively in DML and executed for real — then sized by the
//! resource optimizer for a cluster-scale version of the same script.
//!
//! Run with: `cargo run --example correlation`

use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{lower_program, HdfsStore, ScalarValue, VmExecutor, VmLowerOptions};
use reml::scripts::{DataShape, Scenario};

const SCRIPT: &str = r#"
    # Pearson correlation matrix of the columns of X.
    X = read($X)
    n = nrow(X)
    mu = colSums(X) / n
    Xc = X - mu
    S = t(Xc) %*% Xc / (n - 1)
    sd = sqrt(diag(S))
    R = S / (sd %*% t(sd))
    print("mean abs off-diagonal correlation = " + (sum(abs(R)) - ncol(X)) / (ncol(X) * ncol(X) - ncol(X)))
    write(R, $model)
"#;

fn main() {
    // --- Real execution on generated data ---
    let (rows, cols) = (3000usize, 6usize);
    let x = reml::matrix::generate::rand_dense(rows, cols, -1.0, 1.0, 99);
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    cfg.params.insert("X".into(), ScalarValue::Str("X".into()));
    cfg.params
        .insert("model".into(), ScalarValue::Str("model".into()));
    cfg.inputs.insert(
        "X".into(),
        reml::matrix::MatrixCharacteristics::dense(rows as u64, cols as u64),
    );
    let compiled = compile_source(SCRIPT, &cfg).expect("compiles");
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", reml::matrix::Matrix::Dense(x.clone()));
    let program = lower_program(&compiled.runtime, VmLowerOptions::default());
    let mut exec = VmExecutor::new(1 << 30, hdfs);
    exec.run(&program, &mut NoRecompile).expect("runs");
    let r = exec.hdfs.peek("model").expect("R written");

    println!("== correlation matrix ({cols}x{cols}) on {rows} samples ==");
    for line in &exec.stats.printed {
        println!("{line}");
    }
    for i in 0..cols {
        let row: Vec<String> = (0..cols).map(|j| format!("{:>6.3}", r.get(i, j))).collect();
        println!("  {}", row.join(" "));
    }
    // Diagonal must be exactly 1; independent columns ~0 elsewhere.
    for i in 0..cols {
        assert!((r.get(i, i) - 1.0).abs() < 1e-9);
        for j in 0..cols {
            if i != j {
                assert!(r.get(i, j).abs() < 0.1, "spurious correlation");
            }
        }
    }

    // --- Resource optimization for the cluster-scale variant ---
    let shape = DataShape {
        scenario: Scenario::L,
        cols: 1000,
        sparsity: 1.0,
    };
    let mut big = CompileConfig::new(ClusterConfig::paper_cluster(), 512, 512);
    big.params.insert("X".into(), ScalarValue::Str("X".into()));
    big.params
        .insert("model".into(), ScalarValue::Str("model".into()));
    big.inputs.insert("X".into(), shape.x_characteristics());
    big.mr_heap = MrHeapAssignment::uniform(512);
    let analyzed = analyze_program(SCRIPT).expect("analyzes");
    let optimizer = ResourceOptimizer::new(CostModel::new(ClusterConfig::paper_cluster()));
    let result = optimizer
        .optimize(&analyzed, &big, None)
        .expect("optimizes");
    println!(
        "\ncluster-scale (80 GB X): optimizer requests CP/MR = {} GB, estimated {:.0} s",
        result.best.display_gb(),
        result.best_cost_s
    );
}
