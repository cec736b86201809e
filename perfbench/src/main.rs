//! The swcc pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <repro_all|sim_scale|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload repeats one fixed round of work until `--seconds` have
//! passed, checks every round's outputs, and prints as its last line one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the named workload's end-to-end ones; with
//! `--trace 1` the benchmark times each call into a layer and prints the
//! per-layer metrics of every layer, passing briefly through the other
//! workloads for the layers the named one does not reach.
//! The benchmark calls only the crates' public functions; nothing inside
//! the program is instrumented. See README.md for the workloads, the
//! metrics and the reference figures.

mod checks;
mod measure;
mod repro_all;
mod serve_mixed;
mod sim_scale;

use std::process::ExitCode;

use measure::Outcome;

const USAGE: &str = "usage: perfbench --workload <repro_all|sim_scale|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// The workloads, in the order a traced run passes through them.
/// `serve_mixed` comes last because it pins the process to one CPU.
const WORKLOADS: [&str; 3] = ["repro_all", "sim_scale", "serve_mixed"];

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "repro_all" => repro_all::run(seed, seconds, trace),
        "sim_scale" => sim_scale::run(seed, seconds, trace),
        "serve_mixed" => serve_mixed::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// A traced run reports every layer, whichever workload it names: the
/// named workload is traced for `--seconds`, and each other workload for
/// its minimum number of rounds, since each layer is reached by one
/// workload only. `traced_wall_s` is the named workload's; attempts,
/// failures and checks add up over all three.
fn traced(args: &Args) -> Result<Outcome, String> {
    let mut total = Outcome::new(0, 0, &[]);
    for workload in WORKLOADS {
        let named = workload == args.workload;
        let seconds = if named { args.seconds } else { 0.0 };
        let mut outcome = run(workload, args.seed, seconds, true)?;
        if !named {
            outcome.metrics.retain(|m| m.name != "traced_wall_s");
        }
        total.absorb(outcome);
    }
    Ok(total)
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("error: unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    }
    let outcome = if args.trace {
        traced(&args)
    } else {
        run(&args.workload, args.seed, args.seconds, false)
    };
    match outcome {
        Ok(outcome) => {
            outcome.print();
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
