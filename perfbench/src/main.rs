//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <zipf-lookup-1m|churn-journaled|flash-crowd|all>
//!           [--seed N] [--seconds N] [--trace 0|1]
//!           [--size full|tiny] [--fingerprint]
//! ```
//!
//! Prints one `name value unit` line per metric, the output checks, and
//! as the last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ledger of a traced run. Exits 1 when an
//! output check fails, 2 on bad arguments. `--workload all` runs each
//! workload in its own process.

use perfbench::{Scale, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: legion_bench::alloc_counter::CountingAlloc =
    legion_bench::alloc_counter::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    fingerprint: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        tiny: false,
        fingerprint: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--fingerprint" {
            a.fingerprint = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.clamp(1, 600),
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--size" => {
                a.tiny = match value.as_str() {
                    "full" => false,
                    "tiny" => true,
                    _ => return Err(format!("--size takes full or tiny, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Run every workload in a child process of its own (one peak-memory
/// reading each), forwarding their output.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in WORKLOADS {
        let mut child_args = args.clone();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[i + 1] = w.to_string();
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let scale = if args.tiny {
        Scale::Tiny
    } else {
        Scale::Seconds(args.seconds)
    };
    let outcome = perfbench::run(&args.workload, args.seed, scale, args.trace)
        .expect("workload name checked");
    for (name, value, unit) in outcome.metrics.iter() {
        println!("{name} {value} {unit}");
    }
    println!(
        "latency samples {} (completed of {} attempted, {} failed)",
        outcome.completed, outcome.attempted, outcome.failed
    );
    for c in &outcome.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("check {} {verdict}: {}", c.name, c.detail);
    }
    if args.fingerprint {
        for (name, value) in &outcome.fingerprint {
            println!("fingerprint {name} {value}");
        }
    }
    println!("{}", outcome.json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        for c in outcome.checks.iter().filter(|c| !c.ok) {
            eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
        }
        ExitCode::from(1)
    }
}
