//! Metric names, units and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's vocabulary; the
//! names and units in `BENCHMARK.json` must match them (the crate's tests
//! check this).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("allocs_per_msg", "count"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("msgs_per_op", "count"),
    ("ok_frac", "ratio"),
    ("goodput_per_s", "1/s"),
    ("slo_rate_per_s", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the crate they measure.
/// A workload that bypasses a layer reports its metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.kernel.self_ns_per_event", "ns"),
    ("net.kernel.events", "count"),
    ("net.kernel.delivered", "count"),
    ("net.kernel.timer_events", "count"),
    ("net.kernel.unaccounted_frac", "ratio"),
    ("net.equeue.peak_len", "count"),
    ("net.equeue.push_pop_ns", "ns"),
    ("net.hop_p99_ms", "ms"),
    ("net.faults.judge_ns", "ns"),
    ("net.faults.duplicated", "count"),
    ("net.faults.delayed", "count"),
    ("net.dedup.dropped", "count"),
    ("net.dispatch.dead_letters", "count"),
    ("net.dispatch.timeouts_expired", "count"),
    ("net.admission.offer_ns", "ns"),
    ("net.admission.shed", "count"),
    ("net.admission.overload_replies", "count"),
    ("net.admission.peak_backlog", "count"),
    ("net.admission.admit_ratio", "ratio"),
    ("flash.p99_ms.r0.5x", "ms"),
    ("flash.p99_ms.r1x", "ms"),
    ("flash.p99_ms.r1.5x", "ms"),
    ("flash.p99_ms.r2x", "ms"),
    ("net.alloc_bytes_per_msg", "B"),
    ("naming.agent.handler_ns", "ns"),
    ("naming.agent.calls", "count"),
    ("naming.client_cache.hit_ratio", "ratio"),
    ("naming.agent_cache.hit_ratio", "ratio"),
    ("naming.legion_class.requests", "count"),
    ("naming.hottest_agent.msgs", "count"),
    ("naming.stale_refreshes", "count"),
    ("runtime.class.handler_ns", "ns"),
    ("runtime.class.calls", "count"),
    ("runtime.magistrate.handler_ns", "ns"),
    ("runtime.magistrate.calls", "count"),
    ("runtime.host.handler_ns", "ns"),
    ("runtime.host.calls", "count"),
    ("runtime.router.handler_ns", "ns"),
    ("runtime.router.calls", "count"),
    ("runtime.magistrate.activations", "count"),
    ("runtime.magistrate.deactivations", "count"),
    ("runtime.churn.moves_ok", "count"),
    ("runtime.churn.moves_failed", "count"),
    ("runtime.autoscale.clones", "count"),
    ("runtime.autoscale.first_clone_ms", "ms"),
    ("persist.oprs_moved", "count"),
    ("persist.codec_ns", "ns"),
    ("journal.records", "count"),
    ("journal.bytes_per_msg", "B"),
    ("journal.snapshots", "count"),
    ("journal.sink_ns_per_record", "ns"),
    ("journal.replay_ns_per_record", "ns"),
    ("obs.flight.record_ns", "ns"),
    ("obs.slo.burn_events", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("ha.heartbeats", "count"),
    ("ha.false_positives", "count"),
    ("sim.driver.handler_ns", "ns"),
    ("sim.driver.calls", "count"),
    ("sim.gen.late_ns", "ns"),
];

/// A set of named metric values, units looked up from a table.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Every metric of `table`, all 0.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: table.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }

    /// Set `name` (which must be in the table).
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        self.values.insert(key, value);
    }

    /// `(name, value, unit)` in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table.iter().map(|(n, u)| (*n, self.values[n], *u))
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The observed values.
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed with an error.
    pub failed: u64,
    /// Completed operations: the samples behind the latency percentiles.
    pub completed: u64,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Seed-determined quantities (virtual metrics, counters, allocator
    /// calls) that must repeat exactly for one seed.
    pub fingerprint: Vec<(String, u64)>,
}

impl Outcome {
    /// Did every check hold?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The result line: one JSON object.
    pub fn json_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Build a check.
pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}
