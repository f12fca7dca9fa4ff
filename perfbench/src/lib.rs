//! The repository benchmark: three workloads, each measured end to end
//! with tracing off, and layer by layer in a separate traced run.
//!
//! * `zipf` — `zipf-lookup-1m`, the read path (kernel + naming).
//! * `churn` — `churn-journaled`, the write path (runtime, persist,
//!   journal, HA, faults) beside the same reads.
//! * `flash` — `flash-crowd`, open-loop overload (admission, SLO
//!   monitor, autoscaling).
//!
//! Every workload drives the repository only through public APIs and
//! builds its inputs from the seed alone. See `README.md` beside this
//! crate for the metrics, the ledger and the measured spread.

mod churn;
mod flash;
mod ledger;
mod meter;
mod oplog;
pub mod report;
mod zipf;

use legion_net::SimKernel;
use meter::Phase;
use oplog::OpLog;
use report::{Metrics, Outcome, END_TO_END};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 20261017;
/// A seed no tuning has looked at, for re-checking a claim.
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// The workloads, by the names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["zipf-lookup-1m", "churn-journaled", "flash-crowd"];

/// Workload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sized so the measured phase takes about `seconds` on the reference
    /// host.
    Seconds(u64),
    /// The reduced size of the determinism self-test.
    Tiny,
}

/// Run one workload. `trace` selects the traced run and its per-layer
/// metrics; otherwise the metrics are end-to-end.
pub fn run(workload: &str, seed: u64, scale: Scale, trace: bool) -> Option<Outcome> {
    // Set-up time is the median of several set-ups; the traced run does
    // not report it.
    let setups = if trace { 1 } else { 5 };
    Some(match (workload, scale) {
        ("zipf-lookup-1m", Scale::Seconds(s)) => {
            zipf::run(seed, zipf::Size::for_seconds(s), setups, trace)
        }
        ("zipf-lookup-1m", Scale::Tiny) => zipf::run(seed, zipf::Size::tiny(), setups, trace),
        ("churn-journaled", Scale::Seconds(s)) => {
            churn::run(seed, churn::Size::for_seconds(s), setups, trace)
        }
        ("churn-journaled", Scale::Tiny) => churn::run(seed, churn::Size::tiny(), setups, trace),
        ("flash-crowd", Scale::Seconds(s)) => {
            flash::run(seed, flash::Size::for_seconds(s), setups, trace)
        }
        ("flash-crowd", Scale::Tiny) => flash::run(seed, flash::Size::tiny(), setups, trace),
        _ => return None,
    })
}

/// The end-to-end metrics of an untraced measured phase.
pub fn end_to_end(setup_s: &[f64], phase: &Phase, log: &OpLog, slo_rate: f64) -> Metrics {
    let mut m = Metrics::new(END_TO_END);
    let delivered = phase.delivered.max(1) as f64;
    m.set("setup_s", meter::median(setup_s));
    m.set("events_per_s", phase.events_per_s());
    m.set("ops_per_s", phase.ops_per_s(log.completed));
    m.set("allocs_per_msg", phase.allocs as f64 / delivered);
    m.set("peak_rss_mb", phase.peak_rss_mb);
    m.set("op_p50_ms", log.quantile_ns(0.50) as f64 / 1e6);
    m.set("op_p99_ms", log.quantile_ns(0.99) as f64 / 1e6);
    m.set("msgs_per_op", delivered / log.completed.max(1) as f64);
    m.set("ok_frac", log.ok_frac());
    m.set("goodput_per_s", log.goodput_per_s());
    m.set("slo_rate_per_s", slo_rate);
    m
}

/// The seed-determined quantities of a run: virtual latencies, counts,
/// allocator calls and every kernel counter.
pub fn fingerprint(kernel: &SimKernel, log: &OpLog, phase: &Phase) -> Vec<(String, u64)> {
    let mut f = vec![
        ("events".to_string(), phase.events),
        ("delivered".to_string(), phase.delivered),
        ("allocs".to_string(), phase.allocs),
        ("attempted".to_string(), log.attempted),
        ("completed".to_string(), log.completed),
        ("failed".to_string(), log.failed),
        ("op_p50_ns".to_string(), log.quantile_ns(0.50)),
        ("op_p99_ns".to_string(), log.quantile_ns(0.99)),
        ("op_lat_sum_ns".to_string(), log.lat_ns.iter().sum()),
        ("span_ns".to_string(), log.span_ns()),
        ("late_ns".to_string(), log.late_ns),
        ("queue_peak".to_string(), kernel.queue_peak_len() as u64),
    ];
    f.extend(
        kernel
            .counters()
            .iter()
            .map(|(name, n)| (format!("counter.{name}"), n)),
    );
    f
}
