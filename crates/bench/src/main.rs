//! `reml-bench <entry>… | all`: see the `reml_bench` crate docs.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(reml_bench::run(
        &args,
        reml_bench::ENTRIES,
        reml_bench::write_measured,
    ))
}
