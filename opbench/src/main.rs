//! `opbench` — the repository benchmark: GB-KMV at the paper's operating
//! point (10% space budget, t* = 0.5, cost-model-chosen buffer), driven
//! through the library's public API.
//!
//! ```text
//! cargo run --release --manifest-path opbench/Cargo.toml -- \
//!     --workload skewed_search --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Lines starting with `#` describe the run;
//! the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Scratch files,
//! cached ground truth and span dumps go to `.bench_out/`. A failed
//! correctness check prints the mismatch and exits with status 1 without
//! a result line. See `opbench/README.md` for the workloads.

mod alloc;
mod data;
mod metrics;
mod run;
mod speed;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
fn parse_args(argv: &[String]) -> Result<run::Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("invalid {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(data::workload(value).ok_or_else(|| {
                    bad(&format!("expected one of {}", data::WORKLOADS.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(run::Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("opbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# opbench workload={} seed={} seconds={} trace={} threads={}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let outcome = match run::run(args, Path::new(".bench_out")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("opbench: correctness check failed: {e}");
            return ExitCode::from(1);
        }
    };
    let spec = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for &(name, unit) in spec {
        if let Some(v) = outcome.metrics.get(name) {
            println!("# {name:<30} {v:>16.4} {unit}");
        }
    }
    match outcome
        .metrics
        .render(spec, true, outcome.attempted, outcome.failed)
    {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("opbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload skewed_serve --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.name, "skewed_serve");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--workload skewed_search --trace 2",
            "--workload skewed_search --seconds 0",
            "--workload skewed_search --seed",
            "--seed 3",
            "--workload skewed_search --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
