//! One physical send: the kernel's delivery verdicts (refuse, drop,
//! delay, duplicate, deliver) for a message leaving an endpoint or
//! injected from outside.

use super::observe::Observation;
use super::{kind_sym, EndpointId, Event, EventKind, Inner, Slot};
use crate::faults::Verdict;
use crate::message::Message;
use crate::topology::Location;
use legion_core::address::ObjectAddressElement;
use legion_core::event::KernelEventKind;
use legion_core::symbol;
use legion_obs::span::SpanEvent;

/// Attempt one physical send. Returns `true` if accepted (delivery still
/// subject to silent loss); `false` for a detectable refusal.
///
/// When tracing is on and the message belongs to a trace, the hop gets a
/// fresh span (child of the message's context): a `Send` event always,
/// then `Refuse`/`Drop` here or `Deliver` at arrival.
pub(super) fn send_one(
    inner: &mut Inner,
    slots: &mut [Slot],
    from_location: Location,
    from_slot: Option<usize>,
    to: ObjectAddressElement,
    mut msg: Message,
) -> bool {
    if let Some(i) = from_slot {
        slots[i].meta.sent += 1;
    }
    let from_ep = from_slot.map(|i| i as u64).unwrap_or(SpanEvent::EXTERNAL);
    let traced = inner.sink.is_enabled() && msg.env.trace.is_active();
    if traced {
        // The hop becomes the message's new span; the receiver's own
        // sends will parent under it.
        let parent = msg.env.trace.span;
        msg.env.trace.span = inner.sink.next_span();
        let method = kind_sym(&msg);
        inner.observe(Observation::span(
            KernelEventKind::Send,
            from_ep,
            msg.env.trace,
            parent,
            format_args!("{method}"),
        ));
    }
    // Fault spans (Refuse/Drop/DeadLetter, …) are recorded whenever the
    // sink is enabled, even when the message carries no trace context —
    // their route is `SpanRoute::Always`.
    let refuse = |inner: &mut Inner, msg: &Message, why: &str| {
        inner.stats.refused += 1;
        inner.observe(
            Observation::message(KernelEventKind::Refuse, from_ep, msg, 0)
                .traced(msg.env.trace, format_args!("{why}")),
        );
        false
    };
    let Some(ep) = to.sim_endpoint() else {
        return refuse(inner, &msg, "refused:bad-address");
    };
    let Some(dest) = slots.get(ep as usize) else {
        return refuse(inner, &msg, "refused:unknown-endpoint");
    };
    if !dest.meta.alive {
        return refuse(inner, &msg, "refused:dead-endpoint");
    }
    let dest_location = dest.meta.location;
    inner.stats.sent += 1;
    // Stamp the per-sender sequence number the receiver's at-most-once
    // window will check (kernel-level; endpoints never see it).
    let seq_no = match from_slot {
        Some(i) => {
            inner.witness.touch(i, &mut slots[i]);
            let s = slots[i].next_seq;
            slots[i].next_seq += 1;
            s
        }
        None => {
            let s = inner.external_seq;
            inner.external_seq += 1;
            s
        }
    };
    let verdict = inner
        .faults
        .judge(msg.id.0, from_location, dest_location, inner.now);
    if verdict == Verdict::DropSilently {
        inner.stats.lost += 1;
        inner.observe(
            Observation::message(KernelEventKind::Drop, from_ep, &msg, 0)
                .traced(msg.env.trace, format_args!("drop:silent")),
        );
        return true;
    }
    // Latency is sampled only for messages that actually deliver, so the
    // RNG stream of a run without adversarial verdicts is unchanged.
    let delay = inner
        .topology
        .latency(from_location, dest_location, &mut inner.rng)
        .as_nanos();
    let (effective, copy_after) = match verdict {
        Verdict::Deliver => (delay, None),
        Verdict::Delay { extra_ns, factor } => (
            delay.saturating_mul(factor as u64).saturating_add(extra_ns),
            None,
        ),
        Verdict::Duplicate { extra_ns } => (delay, Some(extra_ns)),
        Verdict::DropSilently => unreachable!("handled above"),
    };
    if let Verdict::Delay { extra_ns, factor } = verdict {
        inner.note_count_sym(symbol::NET_DELAYED, 1);
        inner.observe(
            Observation::message(KernelEventKind::Delay, from_ep, &msg, extra_ns)
                .traced(msg.env.trace, format_args!("delay:x{factor}+{extra_ns}ns")),
        );
    }
    inner.latency.record(effective);
    inner
        .by_kind
        .entry(kind_sym(&msg))
        .or_default()
        .record(effective);
    slots[ep as usize].meta.in_latency.record(effective);
    let at = inner.now.saturating_add(effective);
    // SLO samples are keyed by *arrival* time: the window a latency
    // counts against is the one the user experienced it in.
    inner.slo.record(at.as_nanos(), ep, effective);
    let trace = msg.env.trace;
    let dedup = Some((from_ep, seq_no));
    let copy = if let Some(extra_ns) = copy_after {
        inner.note_count_sym(symbol::NET_DUPLICATED, 1);
        inner.observe(
            Observation::message(KernelEventKind::Duplicate, from_ep, &msg, extra_ns)
                .traced(trace, format_args!("dup:+{extra_ns}ns")),
        );
        Some((at.saturating_add(extra_ns), msg.clone()))
    } else {
        None
    };
    let seq = inner.bump_seq();
    inner.enqueue(Event {
        at,
        seq,
        to: EndpointId(ep),
        trace,
        dedup,
        lat_ns: effective,
        kind: EventKind::Deliver(msg),
    });
    // The duplicate copy shares the original's dedup key: with the
    // at-most-once window on, exactly one of the two reaches the endpoint.
    if let Some((copy_at, copy_msg)) = copy {
        let seq = inner.bump_seq();
        inner.enqueue(Event {
            at: copy_at,
            seq,
            to: EndpointId(ep),
            trace,
            dedup,
            lat_ns: copy_at.as_nanos().saturating_sub(inner.now.as_nanos()),
            kind: EventKind::Deliver(copy_msg),
        });
    }
    true
}
