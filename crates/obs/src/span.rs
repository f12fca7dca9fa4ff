//! The span-event schema.
//!
//! A trace is a flat, time-ordered list of [`SpanEvent`]s. A message hop
//! is one span: its `Send` event (at the sender, at send time) and its
//! `Deliver` event (at the receiver, at delivery time) share a span id,
//! so hop latency falls out of the event list without any state. Faulted
//! hops get a `Drop`/`Refuse`/`DeadLetter` event instead of a `Deliver`,
//! tagged with the fault verdict in `label`.

use legion_core::event::KernelEventKind;
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One recorded event. ~64 bytes; the sink stores these by value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// The request this event belongs to.
    pub trace: TraceId,
    /// The span this event describes.
    pub span: SpanId,
    /// The causal parent span (`SpanId::NONE` for roots).
    pub parent: SpanId,
    /// What happened.
    pub kind: KernelEventKind,
    /// When (virtual time).
    pub at: SimTime,
    /// The endpoint where the event was observed (`u64::MAX` when the
    /// event originated outside the kernel, e.g. a driver injection).
    pub endpoint: u64,
    /// Kind-specific detail: method name for hops, counter name for
    /// notes, outcome for `End`, timer tag for `Timer`.
    pub label: String,
}

impl SpanEvent {
    /// The sentinel endpoint for events originating outside the kernel.
    pub const EXTERNAL: u64 = u64::MAX;
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{} (parent {}) {} @ep{} [{}]",
            self.kind, self.trace, self.span, self.parent, self.at, self.endpoint, self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_displays_all_parts() {
        let e = SpanEvent {
            trace: TraceId(1),
            span: SpanId(2),
            parent: SpanId::NONE,
            kind: KernelEventKind::Send,
            at: SimTime(10),
            endpoint: 3,
            label: "Ping".into(),
        };
        let s = e.to_string();
        assert!(s.contains("T1") && s.contains("S2") && s.contains("Ping"));
    }
}
