//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|table2|cli_batch [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each run repeats closed-loop passes over
//! the workload for `--seconds`, sets its inputs up once more before each
//! pass (the median is `setup_s`), checks every output, prints a
//! human-readable report and, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and the metrics:
//! the end-to-end ones untraced (`--trace 0`), the per-layer ones from
//! a traced run (`--trace 1`). See `perfbench/README.md`.

mod batch;
mod layers;
mod metrics;
mod mirror;
mod probe;
mod rows;
mod sys;
mod tables;
mod trace;

use metrics::{result_json, Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Passes every run makes however short `--seconds` is (a traced run
/// needs one untraced and one traced pass).
const MIN_PASSES: usize = 2;

/// Settings of one benchmark run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch and report directory (`.perfbench/` in the checkout).
    pub out_dir: PathBuf,
}

impl Run {
    /// Writes `contents` to `name` in the report directory.
    pub fn write_file(&self, name: &str, contents: &str) -> Result<(), String> {
        let path = self.out_dir.join(name);
        std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// The expected per-row file of `name` (captured when the benchmark
    /// was defined).
    pub fn expected(&self, name: &str) -> PathBuf {
        Path::new("perfbench/expected").join(format!("{name}.tsv"))
    }
}

/// What a workload run hands back for the result line.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Times one more set-up of a run's inputs, done before each untimed
/// pass (outside its timing). Spread over the run like the passes, the
/// median of these sees the same mix of host load as `wall_s`, where a
/// burst of set-ups at start-up would see only the load of that moment.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let r = std::hint::black_box(setup());
    (r, start.elapsed().as_secs_f64())
}

/// Calls `pass(k)` for k = 0, 1, ... until `seconds` have passed (and at
/// least [`MIN_PASSES`] times): a closed loop, each pass starting when
/// the previous one ends.
pub fn timed_passes(seconds: f64, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        pass(k);
        k += 1;
    }
}

const USAGE: &str =
    "usage: perfbench --workload table1|table2|cli_batch [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds.is_finite() && run.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: use 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("unknown or missing --workload\n{USAGE}"));
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        eprintln!("perfbench must run from the repository root");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&run.out_dir) {
        eprintln!("cannot create {}: {e}", run.out_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = match run.workload.as_str() {
        "table1" => tables::run(tables::Table::One, &run),
        "table2" => tables::run(tables::Table::Two, &run),
        _ => batch::run(&run),
    };
    match outcome {
        Ok(o) => {
            let defs = if run.trace { PER_LAYER } else { END_TO_END };
            println!("{}", result_json(o.attempted, o.failed, defs, &o.values));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let r = parse_args(&args(
            "--workload cli_batch --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.seconds, r.trace),
            ("cli_batch", 7, 12.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload table1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload table1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload table1 --seed")).is_err());
    }
}
