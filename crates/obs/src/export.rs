//! JSONL export of recorded span events.
//!
//! One event per line, in recording order. Because the kernel is
//! deterministic and ids come from counters, two same-seed runs render
//! byte-identical output — which the acceptance tests assert.

use crate::span::SpanEvent;
use serde::{json, DeError, Deserialize, Serialize};

/// Render events as JSON Lines (one compact object per line, trailing
/// newline included when non-empty).
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&json::to_string(&e.to_json_value()));
        out.push('\n');
    }
    out
}

/// Parse JSON Lines back into events (blank lines are skipped).
pub fn from_jsonl(text: &str) -> Result<Vec<SpanEvent>, DeError> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = json::from_str(l)?;
            SpanEvent::from_json_value(&v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::event::KernelEventKind;
    use legion_core::time::SimTime;
    use legion_core::trace::{SpanId, TraceId};

    fn sample() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                trace: TraceId(1),
                span: SpanId(1),
                parent: SpanId::NONE,
                kind: KernelEventKind::Begin,
                at: SimTime(0),
                endpoint: 7,
                label: "lookup".into(),
            },
            SpanEvent {
                trace: TraceId(1),
                span: SpanId(2),
                parent: SpanId(1),
                kind: KernelEventKind::Send,
                at: SimTime(10),
                endpoint: 7,
                label: "GetBinding".into(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let back = from_jsonl(&text).expect("parses");
        assert_eq!(back, events);
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(to_jsonl(&[]), "");
        assert!(from_jsonl("").expect("parses").is_empty());
    }
}
