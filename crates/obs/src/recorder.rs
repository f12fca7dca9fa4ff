//! The always-on flight recorder: a bounded, allocation-free ring of
//! recent kernel events.
//!
//! Traces and metrics answer "what happened over the run"; the flight
//! recorder answers "what happened *just before it went wrong*". The
//! kernel records every delivery, dead letter, fault verdict, timeout
//! sweep, and HA verdict into a fixed-capacity ring that overwrites its
//! oldest entry once full — so when a chaos invariant trips, a deadline
//! sweep fires, or a run panics, the dump carries the last-N-events
//! context of the failure without anyone having enabled anything.
//!
//! Cost discipline: a [`FlightEvent`] is a small `Copy` struct whose
//! label is a pre-interned [`Sym`], and the ring's backing storage is
//! allocated once at construction. Recording an event after the ring has
//! warmed up performs **zero** heap allocations, which is what lets the
//! recorder stay always-on under the bench allocation gates.

use legion_core::event::KernelEventKind;
use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use serde::Value;
use std::fmt;

/// Default ring capacity: enough context to see the few round-trips
/// preceding a failure, small enough to be free to keep around.
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded kernel event. `Copy`, fixed-size, no owned strings: the
/// `label` is a pre-interned symbol (message kind, counter name, HA
/// verdict) and `detail` is a kind-specific number (call id, extra
/// nanoseconds, silence duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time the event happened.
    pub at: SimTime,
    /// What happened (a kind the routing table sends to the flight
    /// ring).
    pub kind: KernelEventKind,
    /// The endpoint it happened at (receiver for deliveries, sender for
    /// refusals/drops).
    pub endpoint: u64,
    /// Pre-interned label: the message's method symbol, the counter
    /// name, or the HA verdict.
    pub label: Sym,
    /// Kind-specific detail (call id, extra delay in ns, silence ns, …).
    pub detail: u64,
    /// Journal sequence number of the event, when the kernel journal is
    /// recording or verifying (0 when journaling is off) — the handle
    /// that makes a dumped event directly replayable.
    pub seq: u64,
}

impl FlightEvent {
    /// The event as a JSON value (dump/export shape).
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("at".to_string(), Value::U64(self.at.as_nanos())),
            ("kind".to_string(), Value::Str(self.kind.label().into())),
            ("endpoint".to_string(), Value::U64(self.endpoint)),
            ("label".to_string(), Value::Str(self.label.as_str().into())),
            ("detail".to_string(), Value::U64(self.detail)),
            ("seq".to_string(), Value::U64(self.seq)),
        ])
    }
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>12}ns] {:<11} ep{:<4} {} ({})",
            self.at.as_nanos(),
            self.kind.label(),
            self.endpoint,
            self.label.as_str(),
            self.detail
        )?;
        if self.seq != 0 {
            write!(f, " seq={}", self.seq)?;
        }
        Ok(())
    }
}

/// The bounded ring. Pushes until full, then overwrites the oldest
/// entry; [`FlightRecorder::iter`] always yields the surviving events in
/// chronological (recording) order.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    buf: Vec<FlightEvent>,
    /// Requested capacity — `buf.capacity()` may round up, and the ring
    /// arithmetic needs the exact modulus.
    cap: usize,
    /// Index the next event is written at once the ring is full.
    next: usize,
    /// Events ever recorded (including overwritten ones).
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` events (min 1). The ring's
    /// storage is fully allocated here, up front.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        FlightRecorder {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Events currently held (≤ capacity).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Nothing recorded yet?
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever recorded, overwritten ones included.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events lost to overwriting.
    #[cfg(test)]
    pub(crate) fn overwritten(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Record an event. Allocation-free: either appends into storage
    /// reserved at construction or overwrites the oldest entry in place.
    #[inline]
    pub fn record(&mut self, ev: FlightEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
            self.next = self.buf.len() % self.cap;
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
        self.total += 1;
    }

    /// Forget everything, keeping the allocated storage.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.next = 0;
        self.total = 0;
    }

    /// Surviving events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightEvent> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// The newest `n` surviving events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<FlightEvent> {
        let skip = self.buf.len().saturating_sub(n);
        self.iter().skip(skip).copied().collect()
    }

    /// The tail as a JSON value: `{total, overwritten, tail: [...]}`.
    #[cfg(test)]
    pub(crate) fn tail_json(&self, n: usize) -> Value {
        Value::Object(vec![
            ("total".to_string(), Value::U64(self.total)),
            ("overwritten".to_string(), Value::U64(self.overwritten())),
            (
                "tail".to_string(),
                Value::Array(self.tail(n).iter().map(|e| e.to_json_value()).collect()),
            ),
        ])
    }

    /// A human-readable dump of the newest `n` events, for stderr
    /// post-mortems. `reason` says why the dump fired.
    pub fn dump(&self, reason: &str, n: usize) -> String {
        let tail = self.tail(n);
        let mut out = format!(
            "=== flight recorder: {reason} (showing {} of {} recorded) ===\n",
            tail.len(),
            self.total
        );
        for ev in &tail {
            out.push_str(&format!("  {ev}\n"));
        }
        out.push_str("=== end flight recorder ===");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::symbol;

    fn ev(i: u64) -> FlightEvent {
        FlightEvent {
            at: SimTime(i * 10),
            kind: KernelEventKind::Deliver,
            endpoint: i,
            label: symbol::PING,
            detail: i,
            seq: 0,
        }
    }

    #[test]
    fn below_capacity_keeps_everything_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.total(), 5);
        assert_eq!(r.overwritten(), 0);
        let got: Vec<u64> = r.iter().map(|e| e.detail).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wrap_around_overwrites_oldest_first() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 10);
        assert_eq!(r.overwritten(), 6);
        // Events 0..=5 were overwritten; 6..=9 survive, oldest first.
        let got: Vec<u64> = r.iter().map(|e| e.detail).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        // The tail trims from the old end.
        let tail: Vec<u64> = r.tail(2).iter().map(|e| e.detail).collect();
        assert_eq!(tail, vec![8, 9]);
        // Asking for more than is held returns everything.
        assert_eq!(r.tail(100).len(), 4);
    }

    #[test]
    fn exact_fill_then_one_more() {
        let mut r = FlightRecorder::new(3);
        for i in 0..3 {
            r.record(ev(i));
        }
        assert_eq!(
            r.iter().map(|e| e.detail).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        r.record(ev(3));
        assert_eq!(
            r.iter().map(|e| e.detail).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6 {
            r.record(ev(i));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        r.record(ev(42));
        assert_eq!(r.iter().map(|e| e.detail).collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn dump_and_json_render() {
        let mut r = FlightRecorder::new(4);
        for i in 0..6 {
            r.record(ev(i));
        }
        let text = r.dump("test", 3);
        assert!(text.contains("flight recorder: test"));
        assert!(text.contains("deliver"));
        let json = serde::json::to_string(&r.tail_json(3));
        assert!(json.contains("\"total\":6"), "{json}");
        assert!(json.contains("\"kind\":\"deliver\""), "{json}");
    }
}
