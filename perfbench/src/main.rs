//! The repository benchmark: three workloads over the GRIPhoN stack,
//! each run in its own process.
//!
//! ```text
//! perfbench --workload <provision-churn|fault-storm|edge-overload>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it prints the per-layer metrics, measured by the
//! benchmark's own spans and counters around calls into each layer's
//! public functions. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when any output check fails. See `README.md`.

mod alloc;
mod checks;
mod churn;
mod common;
mod edge;
mod stats;
mod storm;

use common::{Mode, Outcome};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["provision-churn", "fault-storm", "edge-overload"];

fn run(workload: &str, seed: u64, seconds: f64, trace: bool, mode: Mode) -> Outcome {
    match workload {
        "provision-churn" => churn::run(seed, seconds, trace, mode),
        "fault-storm" => storm::run(seed, seconds, trace, mode),
        "edge-overload" => edge::run(seed, seconds, trace, mode),
        other => unreachable!("unknown workload {other}"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Mode::Full,
    );
    if args.trace {
        // Layers this workload does not touch get their figure from a
        // one-round probe of the workload that does.
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let probe = run(other, args.seed, 0.0, true, Mode::Probe);
            out.metrics.fill(&probe.metrics);
            out.bad.extend(probe.bad);
            out.notes
                .extend(probe.notes.into_iter().map(|n| format!("probe {n}")));
        }
    }
    for n in &out.notes {
        println!("{n}");
    }
    for b in &out.bad {
        println!("CHECK FAILED: {b}");
    }
    let correct = out.bad.is_empty();
    for m in &out.metrics.0 {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        stats::result_json(correct, out.attempted, out.failed, &out.metrics.0)
    );
    if !correct {
        std::process::exit(1);
    }
}
