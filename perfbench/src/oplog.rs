//! Exact per-operation latency accounting.
//!
//! The repository's clients keep latencies in log₂ histograms
//! ([`legion_net::Histogram`]), whose quantiles are bucket bounds: a p99
//! reads 2.10 ms or 4.19 ms and nothing in between. The benchmark's own
//! clients and client wrappers push every completed operation's virtual
//! latency into an [`OpLog`] instead, so percentiles are exact nearest-rank
//! values over every completed operation.

use std::cell::RefCell;
use std::rc::Rc;

/// What one workload's operations did, in virtual time.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Latency of every completed operation, first issue to success (ns).
    pub lat_ns: Vec<u64>,
    /// Virtual time of every completion, in completion order, so
    /// ascending (ns).
    pub done_ns: Vec<u64>,
    /// Operations attempted (planned or offered, not retries).
    pub attempted: u64,
    /// Operations that completed successfully.
    pub completed: u64,
    /// Operations that ended in an error (not an admission refusal).
    pub failed: u64,
    /// Operations refused by admission control after every retry.
    pub refused: u64,
    /// Virtual time of the first issue (ns).
    pub first_issue_ns: Option<u64>,
    /// Sum over open-loop first issues of (issue time − due time), ns.
    pub late_ns: u64,
    /// Clients that finished their whole plan or stream.
    pub clients_done: usize,
}

/// An [`OpLog`] shared between client endpoints and the measuring code.
pub type SharedLog = Rc<RefCell<OpLog>>;

impl OpLog {
    /// A fresh shared log.
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(OpLog::default()))
    }

    /// Note an operation's first issue at `now_ns`.
    pub fn issued(&mut self, now_ns: u64) {
        self.attempted += 1;
        self.first_issue_ns.get_or_insert(now_ns);
    }

    /// Note a successful completion at `now_ns` that took `lat_ns`.
    pub fn done(&mut self, now_ns: u64, lat_ns: u64) {
        self.completed += 1;
        self.lat_ns.push(lat_ns);
        self.done_ns.push(now_ns);
    }

    /// Exact nearest-rank quantile `q` of the completed latencies, ns.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        nearest_rank(&sorted, q)
    }

    /// Completed ÷ attempted.
    pub fn ok_frac(&self) -> f64 {
        self.completed as f64 / self.attempted.max(1) as f64
    }

    /// Completions counted by [`goodput_per_s`](Self::goodput_per_s):
    /// the first 95%, so a few stragglers do not set the span.
    fn goodput_count(&self) -> usize {
        (self.done_ns.len() as f64 * 0.95).ceil() as usize
    }

    /// Virtual span from the first issue to the completion that ends the
    /// goodput window, ns.
    pub fn span_ns(&self) -> u64 {
        match self.goodput_count() {
            0 => 0,
            k => self.done_ns[k - 1].saturating_sub(self.first_issue_ns.unwrap_or(0)),
        }
    }

    /// Completed operations per virtual second, over the span in which
    /// the first 95% of completions landed.
    pub fn goodput_per_s(&self) -> f64 {
        self.goodput_count() as f64 / (self.span_ns().max(1) as f64 / 1e9)
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Follows a repository client's latency histogram and moves each newly
/// recorded sample into an [`OpLog`] exactly.
///
/// A histogram keeps a running count and sum. When one handler call adds
/// a single sample, the sum's growth *is* that sample; when it adds
/// several, they are the zero-latency cache hits a client completes
/// back to back, so the sum does not grow. Anything else cannot be split
/// exactly and is reported as an error.
#[derive(Debug, Default, Clone, Copy)]
pub struct HistogramTap {
    count: u64,
    sum: u64,
}

impl HistogramTap {
    /// Move the samples added since the last call into `log`, stamped
    /// with completion time `now_ns`.
    pub fn drain(&mut self, count: u64, sum: u64, now_ns: u64, log: &mut OpLog) {
        let (dc, ds) = (count - self.count, sum - self.sum);
        self.count = count;
        self.sum = sum;
        match dc {
            0 => {}
            1 => log.done(now_ns, ds),
            _ => {
                assert_eq!(
                    ds, 0,
                    "{dc} samples in one handler call with a non-zero sum cannot be split exactly"
                );
                for _ in 0..dc {
                    log.done(now_ns, 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[], 0.5), 0);
    }

    #[test]
    fn tap_splits_single_samples_and_zero_runs() {
        let mut log = OpLog::default();
        let mut tap = HistogramTap::default();
        tap.drain(1, 700, 10, &mut log);
        tap.drain(4, 700, 20, &mut log);
        tap.drain(5, 1000, 30, &mut log);
        assert_eq!(log.lat_ns, vec![700, 0, 0, 0, 300]);
        assert_eq!(log.done_ns, vec![10, 20, 20, 20, 30]);
    }
}
