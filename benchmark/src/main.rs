//! `reml-benchmark`: the repo's standing benchmark. See `README.md` beside
//! this crate for the workloads, metrics and how they interact.
//!
//! ```text
//! reml-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                [--trace [0|1]] [--smoke] [--out DIR]
//! reml-benchmark compare DIR_A DIR_B
//! reml-benchmark selftest | record
//! ```
//!
//! A run prints every metric by name with its unit and ends with one JSON
//! line per workload: `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is non-zero when any check failed. Without `--workload` every
//! workload runs, each in a process of its own.

#![forbid(unsafe_code)]

mod compare;
mod exec;
mod harness;
mod layers;
mod metrics;
mod plan;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use exec::Exec;
use harness::{Options, Summary, Workload};
use plan::{AdaptFaults, PlanSweep};

type ExecDense = Exec<false>;
type ExecSparse = Exec<true>;

/// Seeds whose MLogreg / GLM models are recorded under `expected/`.
const RECORDED_SEEDS: [u64; 2] = [42, 7];
const SMOKE_SECONDS: f64 = 2.0;

fn run<W: Workload>(opts: &Options) -> Result<Summary, String> {
    if opts.trace {
        harness::run_traced::<W>(opts)
    } else {
        harness::run_end_to_end::<W>(opts)
    }
}

fn run_named(name: &str, opts: &Options) -> Result<Summary, String> {
    match name {
        PlanSweep::NAME => run::<PlanSweep>(opts),
        AdaptFaults::NAME => run::<AdaptFaults>(opts),
        ExecDense::NAME => run::<ExecDense>(opts),
        ExecSparse::NAME => run::<ExecSparse>(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Regenerate `expected/*.json` from the current tree. The simulated
/// workloads do not depend on the seed; the executed ones are recorded for
/// `RECORDED_SEEDS`.
fn record() -> Result<(), String> {
    fn write(name: &str, mut entries: Vec<(String, serde_json::Value)>) -> Result<(), String> {
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{name}.json"));
        let mut text =
            serde_json::to_string_pretty(&serde_json::Value::Object(entries)).expect("serializes");
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("{path:?}: {e}"))?;
        println!("wrote {}", path.display());
        Ok(())
    }
    let mut entries = Vec::new();
    harness::record::<PlanSweep>(RECORDED_SEEDS[0], &mut entries)?;
    write(PlanSweep::NAME, entries)?;
    let mut entries = Vec::new();
    harness::record::<AdaptFaults>(RECORDED_SEEDS[0], &mut entries)?;
    write(AdaptFaults::NAME, entries)?;
    let (mut dense, mut sparse) = (Vec::new(), Vec::new());
    for seed in RECORDED_SEEDS {
        harness::record::<ExecDense>(seed, &mut dense)?;
        harness::record::<ExecSparse>(seed, &mut sparse)?;
    }
    write(ExecDense::NAME, dense)?;
    write(ExecSparse::NAME, sparse)
}

fn self_test() -> Result<(), String> {
    let seed = RECORDED_SEEDS[0];
    harness::self_test::<PlanSweep>(seed)?;
    harness::self_test::<AdaptFaults>(seed)?;
    harness::self_test::<ExecDense>(seed)?;
    harness::self_test::<ExecSparse>(seed)
}

/// Every workload of the contract, each in a child process given the same
/// arguments and `--workload W`. `peak_rss_mb` is a high-water mark of the
/// process, so only a process per workload makes it that workload's own,
/// and the same figure `--workload W` reports. The children's JSON lines
/// come last, one per workload.
fn run_each_in_its_own_process(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    let mut correct = true;
    for name in &metrics::contract().workloads {
        let child = Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (report, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{report}");
        match child.status.code() {
            Some(0) => {}
            Some(1) => correct = false,
            _ => return Err(format!("{name}: child ended with {}", child.status)),
        }
        lines.push(line.to_string());
    }
    for line in lines {
        println!("{line}");
    }
    Ok(correct)
}

fn parse_run(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = "all".to_string();
    let mut opts = Options {
        seed: 42,
        seconds: metrics::contract().run_seconds as f64,
        trace: false,
        smoke: false,
        out_dir: harness::default_out_dir(),
    };
    let mut seconds_given = false;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--out" => opts.out_dir = PathBuf::from(value("--out")?),
            "--smoke" => opts.smoke = true,
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.smoke && !seconds_given {
        opts.seconds = SMOKE_SECONDS;
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match args.as_slice() {
            [_, a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: compare DIR_A DIR_B".into()),
        },
        Some("record") => record().map(|()| true),
        Some("selftest") => self_test().map(|()| true),
        _ => parse_run(&args).and_then(|(workload, opts)| {
            if workload == "all" {
                return run_each_in_its_own_process(&args);
            }
            let summary = run_named(&workload, &opts)?;
            println!("{}", summary.to_json_line());
            Ok(summary.correct)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("reml-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
