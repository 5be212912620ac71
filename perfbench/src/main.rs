//! `kind-perfbench`: the served mediator's benchmark.
//!
//! ```text
//! kind-perfbench --workload <serve_read|serve_read_write|federated_answer>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report on stderr, the run record as one JSON
//! line on stdout, and as the last stdout line the result object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! from a separate traced run. Exits 1 when an oracle check failed or
//! the generator fell behind its schedule, 2 on bad arguments.

mod federated;
mod gen;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;

const WORKLOADS: &[&str] = &["serve_read", "serve_read_write", "federated_answer"];

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
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(1.0..=120.0).contains(&seconds) {
        return Err("--seconds must be within 1..=120".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kind-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "serve_read" => serve::run(false, args.seed, args.seconds, args.trace),
        "serve_read_write" => serve::run(true, args.seed, args.seconds, args.trace),
        _ => federated::run(args.seed, args.seconds, args.trace),
    };
    out.note("workload", args.workload.clone());
    out.note("seed", args.seed.to_string());
    out.note("seconds", args.seconds.to_string());
    out.note("trace", (args.trace as u8).to_string());
    out.note(
        "nproc",
        std::env::var("KIND_BENCH_NPROC").unwrap_or_else(|_| "unknown".into()),
    );
    out.note(
        "available_parallelism",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    out.note(
        "commit",
        std::env::var("KIND_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    out.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for (name, (value, unit)) in &out.metrics {
        eprintln!("{name:<48} {value:>14.4} {unit}");
    }
    for p in &out.problems {
        eprintln!("PROBLEM: {p}");
    }
    let record = out.record_line();
    std::fs::create_dir_all("perfbench/out")
        .and_then(|_| {
            std::fs::write(
                format!(
                    "perfbench/out/record-{}-{}-{}.json",
                    args.workload, args.seed, args.trace as u8
                ),
                format!("{record}\n"),
            )
        })
        .unwrap_or_else(|e| eprintln!("kind-perfbench: run record not written: {e}"));
    println!("{record}");
    println!("{}", out.result_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
