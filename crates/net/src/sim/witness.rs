//! Snapshot witnesses: digests of the kernel state a journal snapshot
//! names, maintained as the state changes instead of recomputed from it.
//!
//! A snapshot's sections are never read back — replay is verified
//! re-execution that compares only state roots — so a section only has
//! to *witness* the state: equal state gives equal bytes, and different
//! state gives different bytes with overwhelming probability. Two parts
//! of the state grow with the run and are witnessed by wrapping-sum
//! multiset digests:
//!
//! * the **pending queue** — each event's canonical encoding is digested
//!   once when it is enqueued (added) and once when it is popped
//!   (subtracted), so the sum is independent of the wheel's layout;
//! * the **endpoints** — each slot caches its term of the sum and is
//!   marked stale where its witnessed state mutates (attach, dedup
//!   admit, sequence stamp, death); a snapshot re-digests only the slots
//!   marked since the previous one.
//!
//! The witness runs only while snapshots are enabled; off, every hook is
//! one branch. In debug builds each snapshot recomputes both sums from
//! scratch and asserts they match the incremental ones.

use super::{Event, EventKind, Slot};
use crate::equeue::EventQueue;
use crate::message::{Body, Message};
use legion_persist::{digest64, mix64, Writer as StateWriter};

/// Incrementally maintained digests of the queue and the endpoint table.
#[derive(Default)]
pub(super) struct Witness {
    /// Maintaining digests (a journal session with snapshots is live).
    on: bool,
    /// Wrapping sum of [`event_digest`] over the pending queue.
    queue: u64,
    /// Wrapping sum of every slot's `witnessed` term.
    endpoints: u64,
    /// Slots marked stale since the last refresh, each listed once.
    stale: Vec<usize>,
    /// Reused encode buffer: digesting an event allocates nothing once
    /// the buffer has grown to the largest event seen.
    buf: StateWriter,
}

impl Witness {
    /// Start maintaining digests, seeded from the current state: slots
    /// and events that predate the journal session count too.
    pub(super) fn start(&mut self, slots: &mut [Slot], queue: &EventQueue<Event>) {
        self.on = true;
        self.stale.clear();
        self.queue = queue_sum(&mut self.buf, queue);
        self.endpoints = 0;
        for (idx, slot) in slots.iter_mut().enumerate() {
            slot.witnessed = slot_digest(idx, slot);
            slot.stale = false;
            self.endpoints = self.endpoints.wrapping_add(slot.witnessed);
        }
    }

    /// Stop maintaining digests (a journal session without snapshots).
    pub(super) fn stop(&mut self) {
        *self = Witness::default();
    }

    /// Note that `slot`'s witnessed state is about to change.
    #[inline]
    pub(super) fn touch(&mut self, idx: usize, slot: &mut Slot) {
        if self.on && !slot.stale {
            slot.stale = true;
            self.stale.push(idx);
        }
    }

    /// Are digests being maintained? The queue funnels check this before
    /// counting.
    #[inline]
    pub(super) fn is_on(&self) -> bool {
        self.on
    }

    /// Count an event entering the queue.
    pub(super) fn enqueued(&mut self, ev: &Event) {
        self.queue = self.queue.wrapping_add(event_digest(&mut self.buf, ev));
    }

    /// Count an event leaving the queue.
    pub(super) fn dequeued(&mut self, ev: &Event) {
        self.queue = self.queue.wrapping_sub(event_digest(&mut self.buf, ev));
    }

    /// The `queue` and `endpoints` snapshot sections: a count and a digest
    /// each. Re-digests only the slots marked stale since the last call.
    pub(super) fn sections(
        &mut self,
        slots: &mut [Slot],
        queue: &EventQueue<Event>,
    ) -> (Vec<u8>, Vec<u8>) {
        for idx in self.stale.drain(..) {
            let slot = &mut slots[idx];
            let fresh = slot_digest(idx, slot);
            self.endpoints = self
                .endpoints
                .wrapping_sub(slot.witnessed)
                .wrapping_add(fresh);
            slot.witnessed = fresh;
            slot.stale = false;
        }
        debug_assert_eq!(
            self.queue,
            queue_sum(&mut self.buf, queue),
            "queue witness drifted"
        );
        debug_assert_eq!(
            self.endpoints,
            endpoints_sum(slots),
            "endpoint witness drifted"
        );
        let section = |count: usize, digest: u64| {
            let mut w = StateWriter::new();
            w.put_varint(count as u64);
            w.put_u64(digest);
            w.finish().into()
        };
        (
            section(queue.len(), self.queue),
            section(slots.len(), self.endpoints),
        )
    }
}

/// The queue digest computed from the queue itself.
fn queue_sum(buf: &mut StateWriter, queue: &EventQueue<Event>) -> u64 {
    queue
        .iter()
        .fold(0u64, |sum, ev| sum.wrapping_add(event_digest(buf, ev)))
}

/// The endpoint digest computed from the slots themselves.
fn endpoints_sum(slots: &[Slot]) -> u64 {
    slots.iter().enumerate().fold(0u64, |sum, (idx, slot)| {
        sum.wrapping_add(slot_digest(idx, slot))
    })
}

/// One endpoint's term of the endpoint digest: its index, location,
/// name, liveness, send sequence and dedup windows.
fn slot_digest(idx: usize, slot: &Slot) -> u64 {
    let loc = slot.meta.location;
    [
        (loc.jurisdiction as u64) << 32 | loc.host as u64,
        digest64(slot.meta.name.as_bytes()),
        slot.meta.alive as u64,
        slot.next_seq,
        slot.seen.state_digest(),
    ]
    .into_iter()
    .fold(mix64(idx as u64), |h, v| mix64(h.rotate_left(17) ^ v))
}

/// Digest one queued event through its canonical encoding.
fn event_digest(buf: &mut StateWriter, e: &Event) -> u64 {
    buf.clear();
    buf.put_u64(e.at.as_nanos());
    buf.put_varint(e.seq);
    buf.put_varint(e.to.0);
    buf.put_u64(e.trace.trace.0);
    buf.put_u64(e.trace.span.0);
    match e.dedup {
        Some((sender, n)) => {
            buf.put_u8(1);
            buf.put_varint(sender);
            buf.put_varint(n);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64(e.lat_ns);
    match &e.kind {
        EventKind::Start => buf.put_u8(0),
        EventKind::Deliver(m) => {
            buf.put_u8(1);
            encode_message(buf, m);
        }
        EventKind::Timer(tag) => {
            buf.put_u8(2);
            buf.put_u64(*tag);
        }
    }
    digest64(buf.as_bytes())
}

/// Deterministically encode a queued message, using the OPR codec's
/// primitives. Method names and errors are encoded as strings so the
/// bytes are stable across processes.
fn encode_message(w: &mut StateWriter, m: &Message) {
    w.put_varint(m.id.0);
    match &m.target {
        Some(l) => {
            w.put_u8(1);
            w.put_loid(l);
        }
        None => w.put_u8(0),
    }
    match &m.reply_to {
        Some(e) => {
            w.put_u8(1);
            w.put_element(e);
        }
        None => w.put_u8(0),
    }
    match &m.sender {
        Some(l) => {
            w.put_u8(1);
            w.put_loid(l);
        }
        None => w.put_u8(0),
    }
    w.put_loid(&m.env.responsible);
    w.put_loid(&m.env.security);
    w.put_loid(&m.env.calling);
    w.put_u64(m.env.trace.trace.0);
    w.put_u64(m.env.trace.span.0);
    match &m.body {
        Body::Call { method, args } => {
            w.put_u8(0);
            w.put_str(method.as_str());
            w.put_varint(args.len() as u64);
            for a in args {
                w.put_value(a);
            }
        }
        Body::Reply {
            in_reply_to,
            result,
        } => {
            w.put_u8(1);
            w.put_varint(in_reply_to.0);
            match result {
                Ok(v) => {
                    w.put_u8(0);
                    w.put_value(v);
                }
                Err(e) => {
                    w.put_u8(1);
                    w.put_str(e);
                }
            }
        }
    }
}
