//! End-to-end and per-layer benchmark of the stride-prefetch reproduction
//! and its profile service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|serve|cluster --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. Every run checks the program's
//! outputs, prints one human-readable line per metric (value, unit and
//! sample count) and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the run's spans to `.perfbench/traces/`.
//! `perfbench/README.md` explains the workloads and every metric.

mod attrib;
mod figures;
mod report;
mod service;
mod spans;

#[cfg(test)]
mod selftest;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use report::Report;

/// Everything a workload run needs from the command line.
pub struct Opts {
    /// `figures`, `serve` or `cluster`.
    pub workload: String,
    /// Drives every generated input (request verbs and keys).
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of end-to-end ones.
    pub trace: bool,
}

/// Where runs keep traces and scratch databases, relative to the
/// repository root.
pub const STATE: &str = ".perfbench";

/// The byte-exact expected output of the `figures` workload, relative to
/// the repository root.
pub const GOLDEN: &str = "repro_output.txt";

/// Worker threads and client connections: the benchmark is sized for a
/// two-core machine.
pub const JOBS: usize = 2;

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload figures|serve|cluster --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn parse_args() -> Option<Opts> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    for pair in args.chunks(2) {
        let [flag, v] = pair else {
            return None;
        };
        match flag.as_str() {
            "--workload" => opts.workload = v.clone(),
            "--seed" => opts.seed = v.parse().ok()?,
            "--seconds" => opts.seconds = v.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--trace" => {
                opts.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    matches!(opts.workload.as_str(), "figures" | "serve" | "cluster").then_some(opts)
}

/// Kills the process with a failed result if the run is stuck (a wedged
/// daemon or a client waiting forever), so a hang is recorded as a
/// failure instead of stalling whoever runs the benchmark.
fn start_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: watchdog fired after {limit:?}; the run is stuck");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(3);
    });
}

/// A fresh scratch directory, unique within the process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(STATE)
        .join("tmp")
        .join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        return usage();
    };
    if !Path::new(GOLDEN).is_file() && opts.workload == "figures" {
        eprintln!(
            "perfbench: golden figure output {GOLDEN} not found; run from the repository root"
        );
        return ExitCode::from(2);
    }
    // Whole-run budget: the measured phase plus set-up, checks and (in a
    // traced run) the attribution pass must fit well inside three minutes.
    start_watchdog(Duration::from_secs(170));
    let mut report = Report::new(&opts);
    let result = match opts.workload.as_str() {
        "figures" => figures::run(&opts, &mut report),
        _ => service::run(&opts, &mut report),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", report.finish());
    ExitCode::SUCCESS
}
