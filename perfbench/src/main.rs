//! End-to-end and per-layer benchmark of the fedopt workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig-weighted|fig-deadline|serve-mixed|sim-rounds> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, measures for `--seconds`, checks the
//! program's outputs against the paper's constraints, and prints one JSON object as the
//! last line of stdout: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are every end-to-end metric, measured with no span recording;
//! with `--trace 1` the run records spans around the calls it makes into the library
//! (see [`trace`]) and prints the per-layer metrics plus `trace.overhead`. The benchmark
//! only times and counts: it calls public library entry points and changes no solver,
//! serve or simulation behaviour. `NOTES.md` next to this file records why each workload
//! exists and which end-to-end metric each layer metric should move.

mod probe;
mod report;
mod serve;
mod sim;
mod stats;
mod sweep;
mod trace;

use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Engine threads and serve workers: the benchmark host has two cores.
pub const THREADS: usize = 2;

/// One parsed invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Calls `step` until one more call would overrun `budget`, judged by the mean call time
/// so far; always at least once.
pub fn for_budget(budget: Duration, mut step: impl FnMut()) {
    let start = Instant::now();
    let mut calls = 0.0;
    loop {
        step();
        calls += 1.0;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / calls > budget.as_secs_f64() {
            return;
        }
    }
}

const USAGE: &str =
    "usage: perfbench --workload <fig-weighted|fig-deadline|serve-mixed|sim-rounds> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program must see only the generated inputs: environment overrides of the
    // engine's thread count or warm-start default would change the workload.
    std::env::remove_var(experiments::engine::THREADS_ENV);
    std::env::remove_var(experiments::engine::WARM_START_ENV);

    let result: Result<Report, String> = match args.workload.as_str() {
        "fig-weighted" => sweep::run(sweep::Workload::Weighted, &args),
        "fig-deadline" => sweep::run(sweep::Workload::Deadline, &args),
        "serve-mixed" => serve::run(&args),
        "sim-rounds" => sim::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    match result {
        Ok(mut report) => {
            let complete = if args.trace {
                report.complete_per_layer()
            } else {
                report.metric("peak_rss_mib", report::peak_rss_mib(), "MiB");
                report.complete_end_to_end()
            };
            if let Err(e) = complete {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
