//! The `legion-exp` command-line driver — run any reproduction
//! experiment and print its table.
//!
//! ```text
//! legion-exp all            # every experiment at report scale
//! legion-exp e1 e4 e12      # a subset (e01/e04/e12 also accepted)
//! legion-exp --quick all    # small/fast configuration
//! legion-exp e1 --trace-out t.jsonl --metrics-out m.json
//! ```
//!
//! The printed tables are the ones recorded in EXPERIMENTS.md. The
//! observability flags export the traced E1 run: `--trace-out` writes one
//! span event per line (JSONL, deterministic for a given seed) and
//! `--metrics-out` writes the structured metrics snapshot plus the
//! trace-analysis tables as a single JSON document. `--report-out FILE`
//! re-runs the E12 steady state with the profiler, SLO tracker, and span
//! sink enabled and writes the unified run report (JSON to `FILE`, text
//! digest to `FILE.txt`).
//!
//! The journal flags ride the same instrumented E12 run:
//! `--journal-out FILE` records every kernel ingress (with
//! content-addressed snapshots every [`run_report::SNAP_EVERY`] events)
//! into `FILE`; `--replay-from FILE` re-executes the run as a verified
//! replay against that journal, exiting 1 with the divergence context if
//! the re-execution does not match record for record; `--from-snapshot`
//! starts the verification at the journal's last snapshot waypoint
//! instead of the origin. `--bisect A B` compares two journals and
//! prints the first differing record with context.

use crate::experiments as exp;
use crate::obs_run;
use crate::run_report;
use legion_journal::{bisect, FileSink, ReplayStart};
use serde::Serialize;

struct Opts {
    quick: bool,
    which: Vec<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    report_out: Option<String>,
    journal_out: Option<String>,
    replay_from: Option<String>,
    from_snapshot: bool,
    bisect: Option<(String, String)>,
}

/// The experiment ids `legion-exp` runs, in run order (E14 is retired).
const EXPERIMENTS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15", "e16",
    "e17", "e18",
];

/// Accept `e01`/`E01` spellings for `e1` etc.
fn normalize(name: &str) -> String {
    let lower = name.to_ascii_lowercase();
    match lower.strip_prefix('e') {
        Some(digits) if digits.chars().all(|c| c.is_ascii_digit()) && !digits.is_empty() => {
            format!("e{}", digits.trim_start_matches('0'))
        }
        _ => lower,
    }
}

fn parse_args() -> Opts {
    let mut quick = false;
    let mut which = Vec::new();
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut report_out = None;
    let mut journal_out = None;
    let mut replay_from = None;
    let mut from_snapshot = false;
    let mut bisect = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out needs a path");
                    std::process::exit(2);
                }))
            }
            "--metrics-out" => {
                metrics_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out needs a path");
                    std::process::exit(2);
                }))
            }
            "--report-out" => {
                report_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--report-out needs a path");
                    std::process::exit(2);
                }))
            }
            "--journal-out" => {
                journal_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--journal-out needs a path");
                    std::process::exit(2);
                }))
            }
            "--replay-from" => {
                replay_from = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--replay-from needs a path");
                    std::process::exit(2);
                }))
            }
            "--from-snapshot" => from_snapshot = true,
            "--bisect" => {
                let a = args.next();
                let b = args.next();
                match (a, b) {
                    (Some(a), Some(b)) => bisect = Some((a, b)),
                    _ => {
                        eprintln!("--bisect needs two journal paths");
                        std::process::exit(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: legion-exp [--quick] [--trace-out FILE] [--metrics-out FILE] \
                     [--report-out FILE] [--journal-out FILE | --replay-from FILE \
                     [--from-snapshot]] (all | e1 ... e13 e15 ... e18)\n\
                     \u{20}      legion-exp --bisect A B\n\
                     Runs the Legion reproduction experiments (see EXPERIMENTS.md).\n\
                     --trace-out     write the traced E1 run's spans as JSONL\n\
                     --metrics-out   write the traced E1 run's metrics snapshot as JSON\n\
                     --report-out    write the instrumented E12 run's unified report\n\
                     \u{20}               (JSON to FILE, text digest to FILE.txt)\n\
                     --journal-out   record the instrumented E12 run's event journal\n\
                     --replay-from   re-execute the E12 run verified against a journal\n\
                     \u{20}               (exits 1 with context if the replay diverges)\n\
                     --from-snapshot start --replay-from at the last snapshot waypoint\n\
                     --bisect A B    binary-search two journals to the first\n\
                     \u{20}               differing record and print its context"
                );
                std::process::exit(0);
            }
            other => {
                let id = normalize(other);
                if id != "all" && !EXPERIMENTS.contains(&id.as_str()) {
                    eprintln!(
                        "unknown argument `{other}`; valid experiments: all {}",
                        EXPERIMENTS.join(" ")
                    );
                    std::process::exit(2);
                }
                which.push(id);
            }
        }
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    if journal_out.is_some() && replay_from.is_some() {
        eprintln!("--journal-out and --replay-from are mutually exclusive");
        std::process::exit(2);
    }
    if from_snapshot && replay_from.is_none() {
        eprintln!("--from-snapshot only modifies --replay-from");
        std::process::exit(2);
    }
    Opts {
        quick,
        which,
        trace_out,
        metrics_out,
        report_out,
        journal_out,
        replay_from,
        from_snapshot,
        bisect,
    }
}

/// Build the report run's journal mode from the parsed flags.
fn journal_mode(opts: &Opts) -> run_report::ReportJournal {
    if let Some(path) = &opts.journal_out {
        let sink = FileSink::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        run_report::ReportJournal::Record {
            sink: Box::new(sink),
            snap_every: run_report::SNAP_EVERY,
        }
    } else if let Some(path) = &opts.replay_from {
        let journal = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let start = if opts.from_snapshot {
            ReplayStart::LatestSnapshot
        } else {
            ReplayStart::Origin
        };
        run_report::ReportJournal::Verify { journal, start }
    } else {
        run_report::ReportJournal::Off
    }
}

/// `--bisect A B`: index both journals, binary-search to the first
/// differing record, print the verdict with context windows. Exits 1 on
/// unparseable input; an honest divergence is a successful answer and
/// exits 0.
fn run_bisect(path_a: &str, path_b: &str) {
    let read = |path: &str| {
        std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let (a, b) = (read(path_a), read(path_b));
    match bisect(&a, &b) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("bisect failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Entry point shared by the `legion-exp` binaries (workspace root and
/// `legion-sim`): parse argv, run the requested experiments, honour the
/// trace/metrics export flags.
pub fn main() {
    let opts = parse_args();
    if let Some((a, b)) = &opts.bisect {
        run_bisect(a, b);
        return;
    }
    let all = opts.which.iter().any(|w| w == "all");
    let want = |name: &str| all || opts.which.iter().any(|w| w == name);
    let scale = if opts.quick { 1 } else { 2 };
    let seed = 20260707;

    if want("e1") {
        exp::e01_binding_path::table(&exp::e01_binding_path::run(scale, seed)).print();
        println!();
        // The traced re-run: same system + workload, span sink enabled.
        let traced = obs_run::run_e01_traced(scale, seed);
        let tables = obs_run::analysis_tables(&traced.events);
        for t in &tables {
            t.print();
            println!();
        }
        if let Some(path) = &opts.trace_out {
            let jsonl = legion_obs::export::to_jsonl(&traced.events);
            if let Err(e) = std::fs::write(path, jsonl) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {} spans to {path}", traced.events.len());
        }
        if let Some(path) = &opts.metrics_out {
            let doc = serde::Value::Object(vec![
                ("experiment".to_string(), serde::Value::Str("e1".into())),
                ("metrics".to_string(), traced.metrics.to_json_value()),
                (
                    "tables".to_string(),
                    serde::Value::Array(tables.iter().map(|t| t.to_json()).collect()),
                ),
            ]);
            if let Err(e) = std::fs::write(path, serde::json::to_string_pretty(&doc)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote metrics snapshot to {path}");
        }
    } else if opts.trace_out.is_some() || opts.metrics_out.is_some() {
        eprintln!("--trace-out/--metrics-out export the traced E1 run; include e1 (or all)");
        std::process::exit(2);
    }
    if want("e2") {
        exp::e02_agent_load::table(&exp::e02_agent_load::run(scale, seed)).print();
        println!();
    }
    if want("e3") {
        exp::e03_cache_tiers::table(&exp::e03_cache_tiers::run(scale, seed)).print();
        println!();
    }
    if want("e4") {
        exp::e04_combining_tree::table(&exp::e04_combining_tree::run(scale, seed)).print();
        println!();
    }
    if want("e5") {
        let depth = if opts.quick { 4 } else { 6 };
        exp::e05_find_class::table(&exp::e05_find_class::run(depth, seed)).print();
        println!();
    }
    if want("e6") {
        let creates = if opts.quick { 32 } else { 128 };
        exp::e06_class_cloning::table(&exp::e06_class_cloning::run(creates, seed)).print();
        println!();
    }
    if want("e7") {
        let n = if opts.quick { 6 } else { 20 };
        exp::e07_lifecycle::table(&exp::e07_lifecycle::run(n, seed)).print();
        println!();
    }
    if want("e8") {
        exp::e08_stale_bindings::table(&exp::e08_stale_bindings::run(scale, seed)).print();
        println!();
    }
    if want("e9") {
        let n = if opts.quick { 100_000 } else { 1_000_000 };
        exp::e09_loid::table(&exp::e09_loid::run(n)).print();
        println!();
    }
    if want("e10") {
        let reqs = if opts.quick { 20 } else { 100 };
        exp::e10_replication::table(&exp::e10_replication::run(4, reqs, seed)).print();
        println!();
    }
    if want("e11") {
        let n = if opts.quick { 1_000 } else { 20_000 };
        exp::e11_object_model::table(&exp::e11_object_model::run(n)).print();
        println!();
    }
    if want("e12") {
        let points: &[u32] = if opts.quick {
            &[1, 2, 4]
        } else {
            &[1, 2, 4, 8]
        };
        exp::e12_scalability::table(&exp::e12_scalability::run(points, seed)).print();
        println!();
        if opts.report_out.is_some() || opts.journal_out.is_some() || opts.replay_from.is_some() {
            // The instrumented re-run: one sweep point (system doubling
            // kept modest so the report stays readable) with profiler,
            // SLO tracker, and span sink all on. The journal session —
            // when requested — wraps this same run.
            let j = 2;
            let mode = journal_mode(&opts);
            let (report, outcome) = match run_report::generate_with_journal(j, seed, mode) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("journal error: {e}");
                    std::process::exit(1);
                }
            };
            if let Some((summary, divergence)) = &outcome {
                if let Some(div) = divergence {
                    eprintln!("replay diverged from the reference journal:\n{div}");
                    std::process::exit(1);
                }
                if opts.journal_out.is_some() {
                    eprintln!(
                        "recorded {} journal records ({} bytes, {} snapshots) to {}",
                        summary.records,
                        summary.bytes,
                        summary.snapshots,
                        opts.journal_out.as_deref().unwrap_or("-"),
                    );
                } else {
                    eprintln!(
                        "replay verified: {} of {} records byte-identical ({} skipped \
                         via snapshot fast path)",
                        summary.verified, summary.records, summary.skipped
                    );
                }
            }
            if let Some(path) = &opts.report_out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
                let text_path = format!("{path}.txt");
                if let Err(e) = std::fs::write(&text_path, report.render_text()) {
                    eprintln!("cannot write {text_path}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote run report to {path} (text digest: {text_path})");
            }
        }
    } else if opts.report_out.is_some() || opts.journal_out.is_some() || opts.replay_from.is_some()
    {
        eprintln!(
            "--report-out/--journal-out/--replay-from export the instrumented E12 run; \
             include e12 (or all)"
        );
        std::process::exit(2);
    }
    if want("e13") {
        let n = if opts.quick { 100_000 } else { 1_000_000 };
        let micro = exp::e13_security::run_micro(n);
        let live = exp::e13_security::run_live(50, seed);
        let (t1, t2) = exp::e13_security::table(&micro, &live);
        t1.print();
        t2.print();
        println!();
    }
    if want("e15") {
        exp::e15_crash_recovery::table(&exp::e15_crash_recovery::run(scale, seed)).print();
        println!();
    }
    if want("e16") {
        let (rows, shrinks) = exp::e16_chaos::run(scale, seed);
        let (t1, t2) = exp::e16_chaos::table(&rows, &shrinks);
        t1.print();
        t2.print();
        println!();
    }
    if want("e17") {
        exp::e17_scale::table(&exp::e17_scale::run(scale, seed)).print();
        println!();
    }
    if want("e18") {
        let (sweep, flash) = exp::e18_overload::run(scale, seed);
        let (t1, t2) = exp::e18_overload::table(&sweep, &flash);
        t1.print();
        t2.print();
        println!();
    }
}
