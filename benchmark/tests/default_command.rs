//! The default command runs every workload, each in a process of its own.
//! `peak_rss_mb` is a high-water mark of the process, so the figure the
//! default command reports for a workload must be the one `--workload W`
//! reports alone — not the largest of the workloads run before it.

use std::process::Command;

use serde_json::Value;

/// Run the benchmark at smoke size with a short window; the JSON lines that
/// end its standard output.
fn result_lines(extra: &[&str]) -> Vec<Value> {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/default_command");
    let output = Command::new(env!("CARGO_BIN_EXE_reml-benchmark"))
        .args(["--smoke", "--seconds", "0.2", "--out", out_dir])
        .args(extra)
        .output()
        .expect("the benchmark starts");
    assert!(output.status.success(), "{output:?}");
    String::from_utf8(output.stdout)
        .expect("utf-8")
        .lines()
        .filter(|line| line.starts_with('{'))
        .map(|line| serde_json::from_str(line).expect("a JSON line"))
        .collect()
}

#[test]
fn peak_rss_is_the_workloads_own_under_the_default_command() {
    let bench: Value =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = bench["workloads"].as_array().expect("workloads");
    let bound = bench["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .find(|m| m["name"].as_str() == Some("peak_rss_mb"))
        .and_then(|m| m["bound"].as_f64())
        .expect("peak_rss_mb has a bound");

    let together = result_lines(&[]);
    assert_eq!(together.len(), workloads.len());
    for (workload, line) in workloads.iter().zip(&together) {
        let name = workload["name"].as_str().expect("name");
        let alone = result_lines(&["--workload", name]);
        assert_eq!(alone.len(), 1);
        let rss = |v: &Value| {
            v["metrics"]["peak_rss_mb"]["value"]
                .as_f64()
                .expect("peak_rss_mb")
        };
        let (alone, together) = (rss(&alone[0]), rss(line));
        assert!(
            (together - alone).abs() <= bound * alone,
            "{name}: {together} MB under the default command, {alone} MB alone"
        );
    }
}
