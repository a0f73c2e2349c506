//! `fcix-bench`: end-to-end host time-to-solution and a per-layer ledger
//! for the fcix stack, driven from outside the program.
//!
//! ```text
//! fcix-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. `--trace 0` is the timed run: it prints
//! the end-to-end metrics. `--trace 1` is the traced run: it records
//! spans around calls into each layer, writes them to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`, and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! 0 only when every result passed its correctness check. See
//! `README.md` for the workloads and the metric map.

mod c2;
mod clock;
mod mix;
mod report;
mod serve;
mod spans;
mod sparse;
mod stats;

use report::Report;
use spans::Spans;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, each with the layers it isolates (see `README.md`).
const WORKLOADS: &[&str] = &["c2-dense", "hubbard8-sparse", "serve-mix"];

const USAGE: &str = "usage: fcix-bench --workload <c2-dense|hubbard8-sparse|serve-mix> \
--seed <n> --seconds <s> --trace <0|1>";

/// One run's settings, parsed from the command line.
pub struct RunCfg {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement window: whole operations run until it has elapsed
    /// (at least one, and at least a workload's minimum sample count).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub traced: bool,
    /// Where spans and scratch files go (inside the working directory).
    pub out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(RunCfg {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out_dir: PathBuf::from(".bench_out"),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fcix-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new(cfg.traced);
    let rep: Report = match cfg.workload.as_str() {
        "c2-dense" => c2::run(&cfg, &spans),
        "hubbard8-sparse" => sparse::run(&cfg, &spans),
        _ => serve::run(&cfg, &spans),
    };
    if cfg.traced {
        let path = cfg
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
        match spans.write_jsonl(&path) {
            Ok(()) => eprintln!("fcix-bench: spans written to {}", path.display()),
            Err(e) => eprintln!("fcix-bench: could not write {}: {e}", path.display()),
        }
    }
    for f in &rep.failures {
        eprintln!("fcix-bench: CHECK FAILED: {f}");
    }
    let line = rep.to_json(cfg.traced).to_string();
    let mut out = std::io::stdout().lock();
    if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
        return ExitCode::from(1);
    }
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
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
        let c = parse_args(&args(
            "--workload serve-mix --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (c.workload.as_str(), c.seed, c.seconds, c.traced),
            ("serve-mix", 7, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload c2-dense --seed x --seconds 1 --trace 0",
            "--workload c2-dense --seed 1 --seconds 0 --trace 0",
            "--workload c2-dense --seed 1 --seconds 1 --trace 2",
            "--workload c2-dense --seed 1 --seconds 1",
            "--workload c2-dense --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
