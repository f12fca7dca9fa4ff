//! The deterministic discrete-event kernel.
//!
//! Every Active Legion object (and every Host Object, Magistrate, Binding
//! Agent, and class object) runs as an **endpoint** attached to the
//! kernel. Endpoints interact only through messages — the paper's
//! "independent, address space disjoint objects" — and through timers.
//! The kernel:
//!
//! * delivers messages with topology-sampled latency ([`crate::topology`]),
//! * applies the fault plan ([`crate::faults`]),
//! * counts traffic per endpoint (the §5.2 "distributed systems principle"
//!   measurements) and globally,
//! * is fully deterministic for a given seed (events are ordered by
//!   `(time, sequence)`),
//! * lets handlers spawn and remove endpoints (activation/deactivation).
//!
//! Sends to a *dead or unknown* endpoint fail **detectably** at the sender
//! (connection refused) — this is the §4.1.4 signal that a cached binding
//! has gone stale. Random drops and partitions are *silent*.

use crate::equeue::EventQueue;
use crate::faults::{DedupState, FaultPlan};
use crate::message::{CallId, Message};
use crate::metrics::{Counters, EndpointMetrics, Histogram, MetricsSnapshot, WindowedCounters};
use crate::pool::MessagePool;
use crate::topology::{Location, Topology};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::event::KernelEventKind;
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_core::trace::TraceContext;
use legion_journal::{
    Divergence, JournalError, JournalSink, JournalSummary, KernelJournal, ReplayStart,
};
use legion_obs::profile::{KernelProfiler, Profile};
use legion_obs::sink::TraceSink;
use legion_obs::slo::{SloConfig, SloReport, SloTracker};
use legion_obs::span::SpanEvent;
use legion_persist::Writer as StateWriter;
use observe::Observation;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use send::send_one;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use witness::Witness;

mod ctx;
mod observe;
mod send;
mod witness;

pub use ctx::Ctx;

pub use legion_obs::recorder::{FlightEvent, FlightRecorder};

/// The flight recorder's former kind name. Its only user is the
/// `perfbench` harness (`perfbench/src/ledger.rs`), a workspace of its
/// own; code in this workspace names [`KernelEventKind`].
pub use legion_core::event::KernelEventKind as FlightKind;

/// Identifies an endpoint attached to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub u64);

impl EndpointId {
    /// The address element for this endpoint.
    pub fn element(self) -> ObjectAddressElement {
        ObjectAddressElement::sim(self.0)
    }

    /// A single-element Object Address for this endpoint.
    pub fn address(self) -> ObjectAddress {
        ObjectAddress::single(self.element())
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A simulated process: receives messages and timer ticks.
///
/// `Any` is a supertrait so tests and drivers can downcast endpoints for
/// inspection (`SimKernel::endpoint::<T>`).
pub trait Endpoint: Any {
    /// Called once, right after the endpoint is attached.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

/// Descriptive and accounting data for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointMeta {
    /// Where the endpoint lives (latency tiers, partitions).
    pub location: Location,
    /// Human-readable name for reports.
    pub name: String,
    /// Messages delivered to this endpoint.
    pub received: u64,
    /// Messages this endpoint attempted to send.
    pub sent: u64,
    /// Latency distribution of messages delivered to this endpoint.
    pub in_latency: Histogram,
    /// Is the endpoint alive? Dead endpoints refuse sends detectably.
    pub alive: bool,
}

/// How many per-sender sequence numbers each receiver remembers for
/// at-most-once delivery. Far larger than any realistic in-flight window,
/// so reordered originals are never mistaken for duplicates.
const DEDUP_WINDOW: usize = 1024;

struct Slot {
    ep: Option<Box<dyn Endpoint>>,
    meta: EndpointMeta,
    /// Next per-sender sequence number stamped onto this endpoint's sends.
    next_seq: u64,
    /// Receiver half of at-most-once delivery: sequence numbers already
    /// admitted, per sender.
    seen: DedupState,
    /// This slot's current term in the snapshot witness's endpoint digest.
    witnessed: u64,
    /// Witnessed state changed since `witnessed` was computed.
    stale: bool,
}

impl Slot {
    fn new(meta: EndpointMeta, ep: Box<dyn Endpoint>) -> Self {
        Slot {
            ep: Some(ep),
            meta,
            next_seq: 0,
            seen: DedupState::new(DEDUP_WINDOW),
            witnessed: 0,
            stale: false,
        }
    }
}

// `Deliver` holds the message inline: events already live on the heap
// inside the queue's backing storage, so boxing the message again was a
// pure extra allocation on every accepted send. The variant size skew is
// the point — deliveries dominate the queue, so the per-event footprint
// is the message either way, minus the indirection.
#[allow(clippy::large_enum_variant)]
enum EventKind {
    Start,
    Deliver(Message),
    Timer(u64),
}

struct Event {
    at: SimTime,
    seq: u64,
    to: EndpointId,
    /// Trace context the event executes under: the message's context for
    /// deliveries, the context captured when the timer was armed for
    /// timers, none for starts.
    trace: TraceContext,
    /// `(sender, per-sender sequence number)` for deliveries: the key the
    /// receiver's at-most-once window checks. A duplicated message's two
    /// copies share one key. `None` for starts and timers.
    dedup: Option<(u64, u64)>,
    /// The hop latency this delivery paid (sim-time the profiler
    /// attributes to the handling endpoint). Zero for starts and timers.
    lat_ns: u64,
    kind: EventKind,
}

/// Global kernel statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Messages accepted into the network.
    pub sent: u64,
    /// Messages delivered to a live endpoint.
    pub delivered: u64,
    /// Messages silently lost (drops, partitions).
    pub lost: u64,
    /// Sends refused detectably (dead/unknown endpoint).
    pub refused: u64,
    /// Deliveries that found the endpoint dead on arrival.
    pub dead_letters: u64,
    /// Events processed.
    pub events: u64,
}

struct Inner {
    now: SimTime,
    seq: u64,
    next_call: u64,
    queue: EventQueue<Event>,
    topology: Topology,
    faults: FaultPlan,
    rng: SmallRng,
    counters: Counters,
    latency: Histogram,
    by_kind: BTreeMap<Sym, Histogram>,
    windows: WindowedCounters,
    stats: KernelStats,
    sink: TraceSink,
    /// The trace context of the handler currently executing (stamped onto
    /// outgoing sends and captured by armed timers).
    current: TraceContext,
    /// Sequence counter for sends injected from outside the kernel.
    external_seq: u64,
    /// At-most-once delivery on/off (off only to demonstrate what a
    /// duplicating network does to an unprotected endpoint).
    dedup_enabled: bool,
    /// The always-on flight recorder: last-N kernel events, dumped on
    /// chaos violations, deadline sweeps, and panics.
    flight: FlightRecorder,
    /// Per-endpoint × per-method cost attribution (off by default).
    profile: KernelProfiler,
    /// Windowed latency-objective tracking (off by default).
    slo: SloTracker,
    /// The event journal: off (default), recording every kernel ingress,
    /// or verifying a re-execution against a reference journal.
    journal: KernelJournal,
    /// Free lists for recycled message-body buffers (arg vectors,
    /// binding shells) — see [`crate::pool`].
    pool: MessagePool,
    /// Incremental digests of the queue and endpoints that journal
    /// snapshots witness (live only while snapshots are enabled).
    witness: Witness,
}

/// The outcome of sending through an [`ObjectAddress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendReport {
    /// Elements the semantics selected for this send.
    pub attempted: usize,
    /// Sends accepted into the network (silent loss may still occur).
    pub accepted: usize,
}

/// The deterministic discrete-event kernel.
pub struct SimKernel {
    slots: Vec<Slot>,
    inner: Inner,
}

impl SimKernel {
    /// A kernel with the given topology, fault plan, and RNG seed.
    pub fn new(topology: Topology, faults: FaultPlan, seed: u64) -> Self {
        SimKernel {
            slots: Vec::new(),
            inner: Inner {
                now: SimTime::ZERO,
                seq: 0,
                next_call: 1,
                queue: EventQueue::new(),
                topology,
                faults,
                rng: SmallRng::seed_from_u64(seed),
                counters: Counters::new(),
                latency: Histogram::new(),
                by_kind: BTreeMap::new(),
                windows: WindowedCounters::disabled(),
                stats: KernelStats::default(),
                sink: TraceSink::disabled(),
                current: TraceContext::NONE,
                external_seq: 0,
                dedup_enabled: true,
                flight: FlightRecorder::default(),
                profile: KernelProfiler::disabled(),
                slo: SloTracker::disabled(),
                journal: KernelJournal::default(),
                pool: MessagePool::new(),
                witness: Witness::default(),
            },
        }
    }

    /// A default-topology, fault-free kernel.
    pub fn with_seed(seed: u64) -> Self {
        SimKernel::new(Topology::default(), FaultPlan::none(), seed)
    }

    /// Attach an endpoint; its `on_start` runs at the current time.
    pub fn add_endpoint(
        &mut self,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: impl Into<String>,
    ) -> EndpointId {
        let id = self
            .inner
            .attach(&mut self.slots, ep, location, name.into());
        self.inner
            .schedule(self.inner.now, id, TraceContext::NONE, EventKind::Start);
        id
    }

    /// Remove (kill) an endpoint. Future sends to it are refused; queued
    /// deliveries become dead letters.
    pub fn remove_endpoint(&mut self, id: EndpointId) {
        self.inner.detach(&mut self.slots, id, false);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Global statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.inner.stats
    }

    /// Named protocol counters bumped by endpoints.
    pub fn counters(&self) -> &Counters {
        &self.inner.counters
    }

    /// Reset named counters and per-endpoint traffic (not the clock).
    /// Observability state resets too: the flight recorder forgets its
    /// ring, the profiler zeroes its stats in place (keeping warmed-up
    /// map keys), and the SLO tracker drops collected windows.
    pub fn reset_metrics(&mut self) {
        self.inner.counters.reset();
        self.inner.latency = Histogram::new();
        self.inner.by_kind.clear();
        self.inner.windows.clear();
        self.inner.stats = KernelStats::default();
        self.inner.flight.clear();
        self.inner.profile.reset_values();
        self.inner.slo.clear();
        for slot in &mut self.slots {
            slot.meta.received = 0;
            slot.meta.sent = 0;
            slot.meta.in_latency = Histogram::new();
        }
    }

    /// Delivered-message latency distribution.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.inner.latency
    }

    /// Start recording span events into a bounded sink.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.inner.sink = TraceSink::with_capacity(capacity);
    }

    /// Take every recorded span event, leaving tracing enabled.
    pub fn drain_trace(&mut self) -> Vec<SpanEvent> {
        self.inner.sink.drain()
    }

    /// Open a root span from outside the kernel (drivers, tests). The
    /// returned context can be stamped onto an injected message's
    /// environment. Returns [`TraceContext::NONE`] when tracing is off.
    #[cfg(test)]
    pub(crate) fn begin_trace(&mut self, label: &str) -> TraceContext {
        self.inner
            .sink
            .begin(self.inner.now, SpanEvent::EXTERNAL, label)
    }

    /// Close a root span opened with [`SimKernel::begin_trace`].
    #[cfg(test)]
    pub(crate) fn end_trace(&mut self, tc: TraceContext, outcome: &str) {
        self.inner.observe(Observation::span(
            KernelEventKind::End,
            SpanEvent::EXTERNAL,
            tc,
            legion_core::trace::SpanId::NONE,
            format_args!("{outcome}"),
        ));
    }

    /// Start bucketing named counters into windows of `window_ns`.
    pub fn enable_windows(&mut self, window_ns: u64) {
        self.inner.windows = WindowedCounters::new(window_ns);
    }

    /// The always-on flight recorder (read the tail, render dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.flight
    }

    /// Replace the flight recorder's ring with one of `capacity` events
    /// (discards recorded history).
    #[cfg(test)]
    pub(crate) fn set_flight_capacity(&mut self, capacity: usize) {
        self.inner.flight = FlightRecorder::new(capacity);
    }

    /// Turn on per-endpoint × per-method cost attribution.
    pub fn enable_profiling(&mut self) {
        self.inner.profile = KernelProfiler::enabled();
    }

    /// Snapshot the profiler with endpoint names resolved (empty when
    /// profiling is off).
    pub fn profile(&self) -> Profile {
        self.inner.profile.snapshot(|ep| {
            self.slots
                .get(ep as usize)
                .map(|s| s.meta.name.clone())
                .unwrap_or_else(|| format!("ep{ep}"))
        })
    }

    /// Turn on windowed latency-objective tracking.
    pub fn enable_slo(&mut self, cfg: SloConfig) {
        self.inner.slo = SloTracker::new(cfg);
    }

    /// Turn on SLO tracking *with* the incremental burn monitor, so
    /// in-sim consumers ([`Ctx::drain_burn_events`]) see burn-rate
    /// alarms while the run is still executing — the signal an
    /// auto-scaling policy endpoint closes its control loop on.
    pub fn enable_slo_online(&mut self, cfg: SloConfig) {
        self.inner.slo = SloTracker::new_online(cfg);
    }

    /// Evaluate the collected SLO windows with endpoint names resolved.
    /// `None` when tracking is off.
    pub fn slo_report(&self) -> Option<SloReport> {
        self.inner.slo.report(|ep| {
            self.slots
                .get(ep as usize)
                .map(|s| s.meta.name.clone())
                .unwrap_or_else(|| format!("ep{ep}"))
        })
    }

    /// A JSON-exportable snapshot of everything the kernel measures.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at: self.inner.now,
            stats: self.inner.stats.clone(),
            counters: self.inner.counters.clone(),
            latency: self.inner.latency.clone(),
            by_kind: render_by_kind(&self.inner.by_kind),
            endpoints: self
                .slots
                .iter()
                .enumerate()
                .map(|(i, s)| EndpointMetrics {
                    endpoint: i as u64,
                    name: s.meta.name.clone(),
                    sent: s.meta.sent,
                    received: s.meta.received,
                    in_latency: s.meta.in_latency.clone(),
                })
                .collect(),
            windows: self.inner.windows.clone(),
            trace_dropped: self.inner.sink.dropped(),
            dispatch_dead_letters: self
                .inner
                .counters
                .iter()
                .filter(|(name, _)| name.ends_with(".dead_letter"))
                .map(|(_, n)| n)
                .sum(),
            timeouts_expired: self.inner.counters.get_sym(symbol::NET_TIMEOUT_EXPIRED),
            requests_shed: self.inner.counters.get_sym(symbol::NET_REQUESTS_SHED),
            overload_replies: self.inner.counters.get_sym(symbol::NET_OVERLOAD_REPLIES),
        }
    }

    /// Metadata for an endpoint.
    pub fn meta(&self, id: EndpointId) -> Option<&EndpointMeta> {
        self.slots.get(id.0 as usize).map(|s| &s.meta)
    }

    /// Metadata for every endpoint, in id order.
    pub fn all_meta(&self) -> impl Iterator<Item = (EndpointId, &EndpointMeta)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (EndpointId(i as u64), &s.meta))
    }

    /// Mutable fault plan (inject faults mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.inner.faults
    }

    /// Downcast a live endpoint for inspection.
    pub fn endpoint<T: Endpoint>(&self, id: EndpointId) -> Option<&T> {
        let slot = self.slots.get(id.0 as usize)?;
        let ep = slot.ep.as_deref()?;
        (ep as &dyn Any).downcast_ref::<T>()
    }

    /// Downcast a live endpoint for mutation (test setup only; production
    /// interaction goes through messages).
    pub fn endpoint_mut<T: Endpoint>(&mut self, id: EndpointId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let ep = slot.ep.as_deref_mut()?;
        (ep as &mut dyn Any).downcast_mut::<T>()
    }

    /// Send a message from "outside Legion" (bootstrap, drivers, tests).
    /// Delivered at `now + latency from `from_location``.
    pub fn inject(
        &mut self,
        from_location: Location,
        to: ObjectAddressElement,
        msg: Message,
    ) -> bool {
        let inner = &mut self.inner;
        let to_ep = to.sim_endpoint().unwrap_or(u64::MAX);
        inner.observe(Observation::message(
            KernelEventKind::Inject,
            to_ep,
            &msg,
            0,
        ));
        send_one(inner, &mut self.slots, from_location, None, to, msg)
    }

    /// A fresh call id for drivers injecting calls from outside.
    pub fn fresh_call_id(&mut self) -> CallId {
        self.inner.fresh_call_id()
    }

    /// Arm a timer on `to` from outside any handler (bootstrap and test
    /// harnesses configuring endpoints through `endpoint_mut` after
    /// their `on_start` already ran). Returns `false` if the endpoint is
    /// not alive.
    pub fn set_timer(&mut self, to: EndpointId, delay_ns: u64, tag: u64) -> bool {
        let alive = self
            .slots
            .get(to.0 as usize)
            .map(|s| s.meta.alive && s.ep.is_some())
            .unwrap_or(false);
        if !alive {
            return false;
        }
        let at = self.inner.now.saturating_add(delay_ns);
        self.inner
            .schedule(at, to, TraceContext::NONE, EventKind::Timer(tag));
        true
    }

    /// Turn the receiver-side at-most-once window off (or back on).
    /// On by default; switching it off exists solely to demonstrate what
    /// a duplicating network does to an unprotected endpoint.
    pub fn set_dedup_enabled(&mut self, on: bool) {
        self.inner.dedup_enabled = on;
    }

    /// Is the at-most-once window active?
    #[cfg(test)]
    pub(crate) fn dedup_enabled(&self) -> bool {
        self.inner.dedup_enabled
    }

    /// Start journaling every kernel ingress to `sink`, taking a
    /// content-addressed state snapshot every `snap_every` events
    /// (0 = never). Enable right after construction, before attaching
    /// endpoints, so the journal covers the whole run.
    pub fn enable_journal_record(&mut self, sink: Box<dyn JournalSink>, snap_every: u64) {
        self.inner.journal = KernelJournal::record(sink, snap_every);
        self.sync_witness();
    }

    /// Verify this run against a reference journal: every ingress the
    /// re-execution produces is compared against the recorded one.
    /// `start` picks the fast path — from a snapshot mark, the prefix is
    /// skipped with a seq-alignment check and the snapshot's state root
    /// proves the re-executed state matches the recorded state there.
    pub fn enable_journal_verify(
        &mut self,
        data: Vec<u8>,
        start: ReplayStart,
    ) -> Result<(), JournalError> {
        self.inner.journal = KernelJournal::verify(data, start)?;
        self.sync_witness();
        Ok(())
    }

    /// Run the snapshot witness exactly while the journal session takes
    /// snapshots, seeding it from the state already present.
    fn sync_witness(&mut self) {
        if self.inner.journal.snap_every() > 0 {
            self.inner.witness.start(&mut self.slots, &self.inner.queue);
        } else {
            self.inner.witness.stop();
        }
    }

    /// Is a journal session (recording or verifying) live?
    pub fn journal_enabled(&self) -> bool {
        self.inner.journal.is_on()
    }

    /// The first divergence found while verifying, if any.
    pub fn journal_divergence(&self) -> Option<&Divergence> {
        self.inner.journal.divergence()
    }

    /// Finish the journal session: flush the sink (recording) or require
    /// the whole reference journal to have been consumed (verifying).
    /// Returns the summary and, in verify mode, the first divergence.
    pub fn finish_journal(&mut self) -> Result<(JournalSummary, Option<Divergence>), JournalError> {
        self.inner.journal.finish()
    }

    /// The flight-recorder dump annotated with journal position and
    /// nearest snapshot (plain dump when no journal session is live).
    pub fn flight_dump(&self, reason: &str, n: usize) -> String {
        self.inner.flight_dump(reason, n)
    }

    /// The kernel's replay-relevant state as the five fixed sections of a
    /// content-addressed snapshot: `core`, `rng` and `counters` are
    /// encoded whole (they are small); `queue` and `endpoints` carry a
    /// count and the witness's incrementally maintained digest, so a
    /// snapshot costs O(endpoints changed since the last one). Pure
    /// metrics (histograms, per-endpoint traffic) are excluded: they are
    /// derived observations, not inputs to execution.
    fn state_sections(&mut self) -> Vec<(String, Vec<u8>)> {
        let inner = &mut self.inner;
        let mut w = StateWriter::new();
        w.put_u64(inner.now.as_nanos());
        w.put_u64(inner.seq);
        w.put_u64(inner.next_call);
        w.put_u64(inner.external_seq);
        w.put_u8(inner.dedup_enabled as u8);
        w.put_u64(inner.stats.sent);
        w.put_u64(inner.stats.delivered);
        w.put_u64(inner.stats.lost);
        w.put_u64(inner.stats.refused);
        w.put_u64(inner.stats.dead_letters);
        w.put_u64(inner.stats.events);
        let core = w.finish().into();

        let mut w = StateWriter::new();
        for word in inner.rng.state() {
            w.put_u64(word);
        }
        let rng = w.finish().into();

        let mut w = StateWriter::new();
        for (name, value) in inner.counters.iter() {
            w.put_str(name);
            w.put_u64(value);
        }
        let counters = w.finish().into();

        let (queue, endpoints) = inner.witness.sections(&mut self.slots, &inner.queue);
        vec![
            ("core".to_string(), core),
            ("rng".to_string(), rng),
            ("counters".to_string(), counters),
            ("queue".to_string(), queue),
            ("endpoints".to_string(), endpoints),
        ]
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        // Snapshots land on the cadence boundary *between* events: after
        // the Nth event's handler fully ran, before the next pop. Both
        // the recording and the verifying run hit the same boundaries.
        if self.inner.journal.snapshot_due(self.inner.stats.events) {
            let sections = self.state_sections();
            let (at, events) = (self.inner.now.as_nanos(), self.inner.stats.events);
            self.inner.journal.on_snapshot(at, events, &sections);
        }
        let Some(ev) = self.inner.dequeue() else {
            return false;
        };
        debug_assert!(ev.at >= self.inner.now, "time must not run backwards");
        self.inner.now = ev.at;
        self.inner.stats.events += 1;
        let idx = ev.to.0 as usize;
        let alive = self
            .slots
            .get(idx)
            .map(|s| s.meta.alive && s.ep.is_some())
            .unwrap_or(false);
        if !alive {
            if let EventKind::Deliver(msg) = &ev.kind {
                self.inner.stats.dead_letters += 1;
                let label = kind_sym(msg);
                self.inner.observe(
                    Observation::message(KernelEventKind::DeadLetter, idx as u64, msg, 0)
                        .traced(ev.trace, format_args!("dead_letter:{label}")),
                );
            }
            return true;
        }
        // At-most-once: a delivery whose (sender, seq) the receiver has
        // already admitted is suppressed before the endpoint sees it.
        if self.inner.dedup_enabled {
            if let (EventKind::Deliver(msg), Some((sender, seq_no))) = (&ev.kind, ev.dedup) {
                let slot = &mut self.slots[idx];
                self.inner.witness.touch(idx, slot);
                if !slot.seen.admit(sender, seq_no) {
                    self.inner.note_count_sym(symbol::NET_DEDUP_DROPPED, 1);
                    let label = kind_sym(msg);
                    self.inner.observe(
                        Observation::message(KernelEventKind::Dedup, idx as u64, msg, 0)
                            .traced(ev.trace, format_args!("dedup:{label}")),
                    );
                    return true;
                }
            }
        }
        let mut ep = self.slots[idx].ep.take().expect("alive implies present");
        {
            // The handler runs under the event's trace context; sends it
            // makes and timers it arms inherit it.
            self.inner.current = ev.trace;
            let mut ctx = Ctx {
                self_id: ev.to,
                inner: &mut self.inner,
                slots: &mut self.slots,
                spawned: Vec::new(),
            };
            match ev.kind {
                EventKind::Start => {
                    let start = Observation::fact(KernelEventKind::Start, idx as u64, 0, 0, "");
                    ctx.inner.observe(start);
                    ep.on_start(&mut ctx)
                }
                EventKind::Deliver(msg) => {
                    ctx.slots[idx].meta.received += 1;
                    ctx.inner.stats.delivered += 1;
                    let method = kind_sym(&msg);
                    ctx.inner.observe(
                        Observation::message(KernelEventKind::Deliver, idx as u64, &msg, ev.lat_ns)
                            .traced(ev.trace, format_args!("{method}")),
                    );
                    if ctx.inner.profile.is_enabled() {
                        // Bracket the handler with wall-clock and the
                        // process-wide allocation counters (live when a
                        // counting allocator is registered, zero
                        // otherwise). Sim-time is the hop latency the
                        // delivery paid.
                        let (a0, b0) = legion_core::allocs::counts();
                        let t0 = std::time::Instant::now();
                        ep.on_message(&mut ctx, msg);
                        let wall_ns = t0.elapsed().as_nanos() as u64;
                        let (a1, b1) = legion_core::allocs::counts();
                        ctx.inner.profile.record(
                            idx as u64,
                            method,
                            ev.lat_ns,
                            wall_ns,
                            a1 - a0,
                            b1 - b0,
                        );
                    } else {
                        ep.on_message(&mut ctx, msg);
                    }
                }
                EventKind::Timer(tag) => {
                    ctx.inner.observe(
                        Observation::fact(KernelEventKind::Timer, idx as u64, tag, 0, "")
                            .traced(ev.trace, format_args!("tag={tag}")),
                    );
                    ep.on_timer(&mut ctx, tag)
                }
            }
            let spawned = std::mem::take(&mut ctx.spawned);
            drop(ctx);
            self.inner.current = TraceContext::NONE;
            // Schedule Start events for endpoints spawned by the handler.
            for id in spawned {
                self.inner
                    .schedule(self.inner.now, id, TraceContext::NONE, EventKind::Start);
            }
        }
        // The handler may have killed its own endpoint.
        if self.slots[idx].meta.alive {
            self.slots[idx].ep = Some(ep);
        }
        true
    }

    /// Run until the event queue drains or `max_events` were processed.
    /// Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Run until virtual time reaches `deadline` (events after it stay
    /// queued) or the queue drains. The boundary check is an O(1) peek
    /// of the wheel's ready lane — no pop/re-push at the deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        loop {
            match self.inner.queue.peek_key() {
                Some((at, _)) if at <= deadline.as_nanos() => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        self.inner.now = self.inner.now.max(deadline);
        n
    }

    /// Number of endpoints ever attached (dead slots included).
    pub fn endpoint_count(&self) -> usize {
        self.slots.len()
    }

    /// Are there pending events?
    pub fn is_quiescent(&self) -> bool {
        self.inner.queue.is_empty()
    }

    /// Pending events in the queue right now.
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// High-water mark of the pending-event queue over the kernel's
    /// lifetime — the E17 scale campaign's queue-pressure metric.
    /// Derived observability, deliberately *not* part of the serialized
    /// kernel state or metrics snapshot.
    pub fn queue_peak_len(&self) -> usize {
        self.inner.queue.peak_len()
    }
}

impl Inner {
    /// The single ingress into the event wheel: keys it by the event's
    /// `(time, insertion seq)`, the kernel's deterministic total order.
    /// All scheduling goes through here (`tools/lint_hotpath.sh` holds
    /// future code to it).
    fn enqueue(&mut self, ev: Event) {
        let queued = self.queue.push(ev.at.as_nanos(), ev.seq, ev);
        if self.witness.is_on() {
            self.witness.enqueued(queued);
        }
    }

    /// The single egress from the event wheel, the counterpart of
    /// [`Inner::enqueue`]: together they keep the snapshot witness's
    /// queue digest exact (`tools/lint_hotpath.sh` holds both single).
    ///
    /// Both funnels digest events where the wheel stores them (`push`
    /// hands back the stored value, `peek` shows the next one), never a
    /// stack copy: borrowing the event in transit would cost every
    /// event an extra copy, witness on or off.
    fn dequeue(&mut self) -> Option<Event> {
        if self.witness.is_on() {
            if let Some(next) = self.queue.peek() {
                self.witness.dequeued(next);
            }
        }
        self.queue.pop()
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Queue a start or timer event for `to` at `at`.
    fn schedule(&mut self, at: SimTime, to: EndpointId, trace: TraceContext, kind: EventKind) {
        let seq = self.bump_seq();
        self.enqueue(Event {
            at,
            seq,
            to,
            trace,
            dedup: None,
            lat_ns: 0,
            kind,
        });
    }

    /// Attach an endpoint in a fresh slot: journal it, push the slot and
    /// enter it into the snapshot witness. The caller queues its `Start`
    /// ([`SimKernel::add_endpoint`] at once, [`Ctx::spawn`] after the
    /// spawning handler returns).
    fn attach(
        &mut self,
        slots: &mut Vec<Slot>,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: String,
    ) -> EndpointId {
        let id = EndpointId(slots.len() as u64);
        let attach = Observation::fact(KernelEventKind::Attach, id.0, 0, 0, name.as_str());
        self.observe(attach);
        slots.push(Slot::new(
            EndpointMeta {
                location,
                name,
                received: 0,
                sent: 0,
                in_latency: Histogram::new(),
                alive: true,
            },
            ep,
        ));
        let slot = slots.last_mut().expect("just pushed");
        self.witness.touch(id.0 as usize, slot);
        id
    }

    /// Detach (kill) an endpoint: future sends to it are refused and
    /// queued deliveries become dead letters. With `running` the
    /// endpoint is the one whose handler is executing; it is dropped
    /// when that handler returns instead of here.
    fn detach(&mut self, slots: &mut [Slot], id: EndpointId, running: bool) {
        if let Some(slot) = slots.get_mut(id.0 as usize) {
            self.witness.touch(id.0 as usize, slot);
            slot.meta.alive = false;
            if !running {
                slot.ep = None;
            }
            self.observe(Observation::fact(KernelEventKind::Detach, id.0, 0, 0, ""));
        }
    }

    fn fresh_call_id(&mut self) -> CallId {
        let id = CallId(self.next_call);
        self.next_call += 1;
        id
    }

    /// Bump a named counter in the flat registry and the time windows.
    fn note_count(&mut self, name: &str, n: u64) {
        self.note_count_sym(Sym::intern(name), n);
    }

    /// [`Inner::note_count`] for an already-interned name — the
    /// allocation-free path the kernel's own counters use.
    fn note_count_sym(&mut self, sym: Sym, n: u64) {
        self.counters.add_sym(sym, n);
        self.windows.record_sym(self.now, sym, n);
    }

    /// The flight-recorder dump, annotated with the journal position and
    /// nearest snapshot when a journal session is live — a post-mortem
    /// names the exact seq to replay to and the snapshot to start from.
    fn flight_dump(&self, reason: &str, n: usize) -> String {
        let mut out = self.flight.dump(reason, n);
        if self.journal.is_on() {
            let snap = match self.journal.last_snapshot() {
                Some((ordinal, seq)) if seq > 0 => {
                    format!("last snapshot #{ordinal} at journal seq {seq}")
                }
                Some((ordinal, _)) => format!("last snapshot #{ordinal}"),
                None => "no snapshot yet".to_string(),
            };
            out.push_str(&format!(
                "\njournal: next seq {}, {snap}",
                self.journal.next_seq()
            ));
        }
        out
    }
}

/// The per-message-kind metrics key: the method symbol for calls,
/// [`symbol::REPLY`] for replies. A `Copy` of a `u32` — zero label work
/// per delivery, whether or not metrics consumers exist.
fn kind_sym(msg: &Message) -> Sym {
    msg.method_sym().unwrap_or(symbol::REPLY)
}

/// Render the `Sym`-keyed per-kind map to names, in name order (the
/// snapshot/export shape; `Sym` order is intern order, not name order).
fn render_by_kind(by_kind: &BTreeMap<Sym, Histogram>) -> BTreeMap<String, Histogram> {
    by_kind
        .iter()
        .map(|(s, h)| (s.as_str().to_owned(), h.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Body;
    use legion_core::address::AddressSemantics;
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;

    /// Echoes every call back as a reply carrying the same args.
    struct Echo {
        loid: Loid,
        got: Vec<String>,
    }

    impl Echo {
        fn new(loid: Loid) -> Self {
            Echo {
                loid,
                got: Vec::new(),
            }
        }
    }

    impl Endpoint for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(m) = msg.method() {
                self.got.push(m.to_owned());
                ctx.count("echo_calls");
                let args = msg.args().to_vec();
                ctx.reply(&msg, Ok(LegionValue::List(args)));
            }
            let _ = self.loid;
        }
    }

    /// Records replies it receives.
    #[derive(Default)]
    struct Client {
        replies: Vec<Result<LegionValue, String>>,
    }

    impl Endpoint for Client {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let Body::Reply { result, .. } = msg.body {
                self.replies.push(result);
            }
        }
    }

    fn kernel() -> SimKernel {
        SimKernel::new(
            Topology::fixed(1_000, 10_000, 1_000_000),
            FaultPlan::none(),
            42,
        )
    }

    /// Attach an [`Echo`] for the `Ping` LOID.
    fn add_echo(k: &mut SimKernel) -> EndpointId {
        let echo = Box::new(Echo::new(Loid::instance(16, 1)));
        k.add_endpoint(echo, Location::new(0, 0), "echo")
    }

    /// An argument-less `Ping` to the echo LOID with a fresh call id.
    fn ping(k: &mut SimKernel) -> Message {
        let id = k.fresh_call_id();
        Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        )
    }

    #[test]
    fn call_and_reply_roundtrip() {
        let mut k = kernel();
        let echo = add_echo(&mut k);
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![LegionValue::Uint(9)],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(client.element());
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(100);
        let c = k.endpoint::<Client>(client).unwrap();
        assert_eq!(c.replies.len(), 1);
        assert_eq!(
            c.replies[0],
            Ok(LegionValue::List(vec![LegionValue::Uint(9)]))
        );
        assert_eq!(k.counters().get("echo_calls"), 1);
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert_eq!(k.stats().delivered, 2); // call + reply
    }

    #[test]
    fn latency_tiers_shape_virtual_time() {
        let mut k = kernel();
        let echo = add_echo(&mut k);
        // Same-jurisdiction call: 10µs there + 10µs back = 20µs.
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let mut msg = ping(&mut k);
        msg.reply_to = Some(client.element());
        k.inject(Location::new(0, 1), echo.element(), msg);
        k.run_until_quiescent(100);
        assert_eq!(k.now(), SimTime(20_000));
    }

    #[test]
    fn send_to_dead_endpoint_is_refused() {
        let mut k = kernel();
        let echo = add_echo(&mut k);
        k.remove_endpoint(echo);
        let msg = ping(&mut k);
        assert!(!k.inject(Location::new(0, 0), echo.element(), msg));
        assert_eq!(k.stats().refused, 1);
    }

    #[test]
    fn send_to_unknown_endpoint_is_refused() {
        let mut k = kernel();
        let msg = ping(&mut k);
        assert!(!k.inject(
            Location::new(0, 0),
            ObjectAddressElement::sim(999),
            msg.clone()
        ));
        // Non-sim elements are refused too.
        assert!(!k.inject(
            Location::new(0, 0),
            ObjectAddressElement::ipv4([127, 0, 0, 1], 80),
            msg
        ));
        assert_eq!(k.stats().refused, 2);
    }

    /// An endpoint that forwards a call through a replicated address.
    struct Fanout {
        addr: ObjectAddress,
    }

    impl Endpoint for Fanout {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Ping",
                vec![],
                InvocationEnv::anonymous(),
            );
            let report = ctx.send_address(&self.addr.clone(), msg);
            ctx.count_n("fanout_accepted", report.accepted as u64);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    fn replicated_kernel(
        semantics: AddressSemantics,
        replicas: usize,
    ) -> (SimKernel, Vec<EndpointId>) {
        let mut k = kernel();
        let mut eps = Vec::new();
        for i in 0..replicas {
            eps.push(k.add_endpoint(
                Box::new(Echo::new(Loid::instance(16, i as u64 + 1))),
                Location::new(0, i as u32),
                format!("replica{i}"),
            ));
        }
        let addr = ObjectAddress::replicated(eps.iter().map(|e| e.element()).collect(), semantics);
        k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 99), "fanout");
        (k, eps)
    }

    /// A small fixed workload: `calls` Pings from the client to the echo,
    /// with one arg knob to let tests plant a payload divergence.
    fn journaled_run(cfg: impl FnOnce(&mut SimKernel), calls: u64, arg0: u64) -> SimKernel {
        let mut k = kernel();
        cfg(&mut k);
        load_pings(&mut k, calls, arg0);
        k.run_until_quiescent(1_000);
        k
    }

    /// Attach the echo and its client and inject the Pings, unrun.
    fn load_pings(k: &mut SimKernel, calls: u64, arg0: u64) {
        let echo = add_echo(k);
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        for i in 0..calls {
            let id = k.fresh_call_id();
            let arg = if i == 0 { arg0 } else { i };
            let mut msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Ping",
                vec![LegionValue::Uint(arg)],
                InvocationEnv::anonymous(),
            );
            msg.reply_to = Some(client.element());
            k.inject(Location::new(0, 1), echo.element(), msg);
        }
    }

    /// A journal opened mid-run, with events queued, slots attached and
    /// dedup windows filled, seeds the snapshot witness from that state:
    /// its sections match those of a kernel journaled from the start.
    #[test]
    fn late_journal_enable_seeds_the_witness() {
        use legion_journal::MemSink;
        let mut early = kernel();
        early.enable_journal_record(Box::new(MemSink::new()), 3);
        load_pings(&mut early, 8, 0);
        let mut late = kernel();
        load_pings(&mut late, 8, 0);
        for _ in 0..5 {
            assert!(early.step() && late.step());
        }
        assert!(late.queue_len() > 0, "events must be pending at enable");
        late.enable_journal_record(Box::new(MemSink::new()), 3);
        assert_eq!(early.state_sections(), late.state_sections());
        while early.step() {
            assert!(late.step());
            assert_eq!(early.state_sections(), late.state_sections());
        }
        assert!(!late.step());
        assert!(late.finish_journal().unwrap().0.snapshots > 0);
    }

    /// Each witnessed mutation site (sequence stamp, dedup admit, kill,
    /// remove, spawn, attach) moves the `endpoints` section, and an event
    /// that mutates no witnessed slot state leaves it alone.
    #[test]
    fn witnessed_mutations_move_the_endpoint_section() {
        use legion_journal::MemSink;
        fn endpoints(k: &mut SimKernel) -> Vec<u8> {
            let (name, bytes) = k.state_sections().pop().expect("five sections");
            assert_eq!(name, "endpoints");
            bytes
        }
        struct Silent;
        impl Endpoint for Silent {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        }
        let mut k = kernel();
        let eps: Vec<EndpointId> = (0..2)
            .map(|i| k.add_endpoint(Box::new(Silent), Location::new(0, i), format!("silent{i}")))
            .collect();
        let addr = ObjectAddress::replicated(
            eps.iter().map(|e| e.element()).collect(),
            AddressSemantics::SendToAll,
        );
        k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 2), "fanout");
        k.enable_journal_record(Box::new(MemSink::new()), 1_000);
        let mut last = endpoints(&mut k);
        let mut expect_move = |k: &mut SimKernel, moved: bool, what: &str| {
            let now = endpoints(k);
            assert_eq!(now != last, moved, "{what}");
            last = now;
        };
        // Start events for the two receivers touch no witnessed state.
        assert!(k.step() && k.step());
        expect_move(&mut k, false, "receiver starts");
        // The fanout's start stamps two sends (it never receives).
        assert!(k.step());
        expect_move(&mut k, true, "sequence stamps");
        assert!(k.step());
        expect_move(&mut k, true, "dedup admit");
        k.remove_endpoint(eps[1]);
        expect_move(&mut k, true, "remove_endpoint");
        k.add_endpoint(Box::new(SelfKiller), Location::new(0, 3), "killer");
        expect_move(&mut k, true, "attach");
        assert!(k.step()); // the removed receiver's delivery: a dead letter
        expect_move(&mut k, false, "dead letter");
        assert!(k.step());
        expect_move(&mut k, true, "Ctx::kill");
        k.add_endpoint(Box::new(Spawner), Location::new(0, 4), "spawner");
        expect_move(&mut k, true, "attach");
        assert!(k.step());
        expect_move(&mut k, true, "Ctx::spawn");
    }

    #[test]
    fn journal_record_then_replay_is_identical() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        let (recorded, div) = k.finish_journal().unwrap();
        assert!(div.is_none());
        assert!(recorded.records > 0);
        assert!(recorded.snapshots > 0, "cadence 4 must snapshot");
        let data = sink.contents();

        // Verified re-execution from the origin: every record byte-checked.
        let mut k = journaled_run(
            |k| {
                k.enable_journal_verify(data.clone(), ReplayStart::Origin)
                    .unwrap()
            },
            6,
            0,
        );
        let (s, div) = k.finish_journal().unwrap();
        assert!(div.is_none(), "{}", div.map(|d| d.to_string()).unwrap());
        assert_eq!(s.verified, recorded.records);
        assert_eq!(s.skipped, 0);

        // Snapshot fast path: the prefix is skipped, roots still checked.
        let mut k = journaled_run(
            |k| {
                k.enable_journal_verify(data.clone(), ReplayStart::LatestSnapshot)
                    .unwrap()
            },
            6,
            0,
        );
        let (s, div) = k.finish_journal().unwrap();
        assert!(div.is_none(), "{}", div.map(|d| d.to_string()).unwrap());
        assert!(s.skipped > 0, "snapshot fast path must skip a prefix");
        assert_eq!(s.skipped + s.verified, recorded.records);
    }

    #[test]
    fn journal_replay_catches_payload_divergence_at_snapshot_root() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        k.finish_journal().unwrap();
        let data = sink.contents();

        // Same event timeline, different call argument: record bodies are
        // identical (args never enter the journal), so only the
        // content-addressed state root can catch it.
        let mut k = journaled_run(
            |k| k.enable_journal_verify(data, ReplayStart::Origin).unwrap(),
            6,
            999,
        );
        let (_, div) = k.finish_journal().unwrap();
        let div = div.expect("payload divergence must trip the root check");
        assert!(div.expected.contains("snapshot"), "{div}");
    }

    #[test]
    fn journal_replay_catches_missing_workload() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 0), 6, 0);
        k.finish_journal().unwrap();
        let data = sink.contents();

        let mut k = journaled_run(
            |k| k.enable_journal_verify(data, ReplayStart::Origin).unwrap(),
            5,
            0,
        );
        let (_, div) = k.finish_journal().unwrap();
        let div = div.expect("a shorter run must diverge");
        assert!(div.got.contains("quiesced") || !div.got.is_empty(), "{div}");
    }

    #[test]
    fn flight_events_carry_journal_seq_and_dump_names_position() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        assert!(k.flight().iter().all(|e| e.seq > 0));
        // Seqs are strictly increasing in recording order.
        let seqs: Vec<u64> = k.flight().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        let dump = k.flight_dump("test", 4);
        assert!(dump.contains("journal: next seq"), "{dump}");
        assert!(dump.contains("last snapshot #"), "{dump}");
        assert!(dump.contains("seq="), "{dump}");
    }

    #[test]
    fn journal_off_leaves_flight_seq_zero() {
        let k = journaled_run(|_| {}, 3, 0);
        assert!(!k.journal_enabled());
        assert!(k.flight().iter().all(|e| e.seq == 0));
    }

    /// The three sinks report each event the same way: every flight event
    /// is the journal record at its seq, and every fault span has a
    /// journal record of its kind at the same time and endpoint.
    #[test]
    fn sinks_agree_on_every_event() {
        use legion_journal::{read_all, MemSink};
        struct Annotate;
        impl Endpoint for Annotate {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.flight(KernelEventKind::HaVerdict, symbol::HA_SUSPECT, 42);
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        }
        let mut k = SimKernel::new(
            Topology::fixed(1_000, 10_000, 1_000_000),
            FaultPlan::seeded(11),
            42,
        );
        let sink = MemSink::new();
        k.enable_journal_record(Box::new(sink.clone()), 0);
        k.enable_tracing(4096);
        k.set_flight_capacity(4096);
        k.add_endpoint(Box::new(Annotate), Location::new(0, 2), "annotate");
        // A delivery queued to an endpoint that dies first (dead letter),
        // then a send to the corpse (refusal) — before faults are on.
        let doomed = k.add_endpoint(Box::new(Client::default()), Location::new(0, 0), "doomed");
        let msg = ping(&mut k);
        assert!(k.inject(Location::new(0, 1), doomed.element(), msg));
        k.remove_endpoint(doomed);
        let msg = ping(&mut k);
        assert!(!k.inject(Location::new(0, 1), doomed.element(), msg));
        k.faults_mut().set_drop_probability(0.1);
        k.faults_mut().set_duplicate_probability(0.3);
        k.faults_mut().set_reorder(0.3, 5_000);
        load_pings(&mut k, 60, 0);
        k.run_until_quiescent(10_000);
        k.finish_journal().unwrap();
        let (_, records) = read_all(&sink.contents()).unwrap();

        let mut kinds = std::collections::BTreeSet::new();
        for e in k.flight().iter() {
            let rec = &records[e.seq as usize];
            assert_eq!(rec.seq, e.seq);
            assert_eq!(
                (rec.at, rec.kind, rec.endpoint, rec.label.as_str()),
                (e.at.as_nanos(), e.kind, e.endpoint, e.label.as_str()),
                "flight event {e}"
            );
            let detail = match e.kind {
                KernelEventKind::Delay | KernelEventKind::Duplicate => rec.b,
                _ => rec.a,
            };
            assert_eq!(e.detail, detail, "flight event {e}");
            kinds.insert(e.kind);
        }
        use KernelEventKind::*;
        for kind in [Drop, Duplicate, Delay, Dedup, DeadLetter, Refuse, HaVerdict] {
            assert!(kinds.contains(&kind), "no {kind} in the flight ring");
        }

        let mut fault_spans = std::collections::BTreeSet::new();
        for s in k.drain_trace() {
            if s.kind.route().span != legion_core::event::SpanRoute::Always {
                continue;
            }
            assert!(
                records.iter().any(|r| r.kind == s.kind
                    && r.at == s.at.as_nanos()
                    && r.endpoint == s.endpoint),
                "span {s} has no journal record"
            );
            fault_spans.insert(s.kind);
        }
        assert_eq!(
            fault_spans.into_iter().collect::<Vec<_>>(),
            [Drop, Duplicate, Delay, Dedup, DeadLetter, Refuse]
        );
    }

    #[test]
    fn send_to_all_reaches_every_replica() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::SendToAll, 4);
        k.run_until_quiescent(100);
        for e in eps {
            assert_eq!(k.meta(e).unwrap().received, 1);
        }
        assert_eq!(k.counters().get("fanout_accepted"), 4);
    }

    #[test]
    fn pick_random_reaches_exactly_one() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::PickRandom, 4);
        k.run_until_quiescent(100);
        let total: u64 = eps.iter().map(|e| k.meta(*e).unwrap().received).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn k_of_n_reaches_k_distinct() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::KOfN(2), 5);
        k.run_until_quiescent(100);
        let hit: Vec<u64> = eps.iter().map(|e| k.meta(*e).unwrap().received).collect();
        assert_eq!(hit.iter().sum::<u64>(), 2);
        assert!(hit.iter().all(|&h| h <= 1), "distinct replicas: {hit:?}");
    }

    #[test]
    fn first_reachable_skips_dead_replicas() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::FirstReachable, 3);
        k.remove_endpoint(eps[0]);
        k.run_until_quiescent(100);
        assert_eq!(k.meta(eps[1]).unwrap().received, 1);
        assert_eq!(k.meta(eps[2]).unwrap().received, 0);
    }

    #[test]
    fn empty_address_sends_nothing() {
        let mut k = kernel();
        let addr = ObjectAddress {
            elements: vec![],
            semantics: AddressSemantics::SendToAll,
        };
        k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 0), "fanout");
        k.run_until_quiescent(10);
        assert_eq!(k.stats().sent, 0);
    }

    struct TimerBeat {
        fired: Vec<u64>,
    }

    impl Endpoint for TimerBeat {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(500, 1);
            ctx.set_timer(1500, 2);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.fired.push(tag);
            if tag == 2 {
                ctx.set_timer(100, 3);
            }
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(TimerBeat { fired: vec![] }),
            Location::new(0, 0),
            "timer",
        );
        k.run_until_quiescent(100);
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(k.now(), SimTime(1_600));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(TimerBeat { fired: vec![] }),
            Location::new(0, 0),
            "timer",
        );
        k.run_until(SimTime(600));
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1]);
        assert_eq!(k.now(), SimTime(600));
        k.run_until(SimTime(10_000));
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1, 2, 3]);
    }

    /// Spawner: on start, spawns a child and messages it.
    struct Spawner;
    struct Child {
        started: bool,
        got: u64,
    }

    impl Endpoint for Spawner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let child = ctx.spawn(
                Box::new(Child {
                    started: false,
                    got: 0,
                }),
                Location::new(0, 0),
                "child",
            );
            let id = ctx.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Hello",
                vec![],
                InvocationEnv::anonymous(),
            );
            assert!(ctx.send(child.element(), msg));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    impl Endpoint for Child {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
            self.started = true;
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.got += 1;
        }
    }

    #[test]
    fn handlers_can_spawn_endpoints() {
        let mut k = kernel();
        k.add_endpoint(Box::new(Spawner), Location::new(0, 0), "spawner");
        k.run_until_quiescent(100);
        assert_eq!(k.endpoint_count(), 2);
        let child_id = EndpointId(1);
        let child = k.endpoint::<Child>(child_id).unwrap();
        assert!(child.started);
        assert_eq!(child.got, 1);
    }

    struct SelfKiller;
    impl Endpoint for SelfKiller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.self_id();
            ctx.kill(me);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            panic!("dead endpoints receive nothing");
        }
    }

    #[test]
    fn self_kill_takes_effect_after_handler() {
        let mut k = kernel();
        let id = k.add_endpoint(Box::new(SelfKiller), Location::new(0, 0), "sk");
        k.run_until_quiescent(10);
        assert!(!k.meta(id).unwrap().alive);
        // Deliveries to it are refused at send time.
        let msg = ping(&mut k);
        assert!(!k.inject(Location::new(0, 0), id.element(), msg));
    }

    #[test]
    fn drops_are_silent_and_counted() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 7);
        k.faults_mut().set_drop_probability(1.0);
        let echo = add_echo(&mut k);
        let msg = ping(&mut k);
        // Accepted (sender can't tell) but never delivered.
        assert!(k.inject(Location::new(0, 0), echo.element(), msg));
        k.run_until_quiescent(10);
        assert_eq!(k.stats().lost, 1);
        assert_eq!(k.meta(echo).unwrap().received, 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let (mut k, _) = {
                let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
                let mut eps = Vec::new();
                for i in 0..5 {
                    eps.push(k.add_endpoint(
                        Box::new(Echo::new(Loid::instance(16, i + 1))),
                        Location::new(i as u32 % 2, i as u32),
                        format!("e{i}"),
                    ));
                }
                let addr = ObjectAddress::replicated(
                    eps.iter().map(|e| e.element()).collect(),
                    AddressSemantics::KOfN(3),
                );
                k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 9), "f");
                (k, eps)
            };
            k.run_until_quiescent(1000);
            (k.now(), k.stats().delivered, k.latency_histogram().sum())
        };
        assert_eq!(run(123), run(123));
    }

    /// Forwards every call to `next` (same method, no args), so a request
    /// hops across a chain of endpoints under one trace.
    struct Relay {
        next: Option<ObjectAddressElement>,
    }

    impl Endpoint for Relay {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let (Some(next), Some(target), Some(m)) = (self.next, msg.target, msg.method()) {
                ctx.call(next, target, m, vec![], InvocationEnv::anonymous(), None);
            }
        }
    }

    /// Build a 3-relay chain, push one traced request through it, and
    /// return the drained span events.
    fn traced_chain_run(seed: u64) -> Vec<SpanEvent> {
        let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
        k.enable_tracing(1024);
        let c = k.add_endpoint(Box::new(Relay { next: None }), Location::new(1, 2), "c");
        let b = k.add_endpoint(
            Box::new(Relay {
                next: Some(c.element()),
            }),
            Location::new(1, 1),
            "b",
        );
        let a = k.add_endpoint(
            Box::new(Relay {
                next: Some(b.element()),
            }),
            Location::new(0, 1),
            "a",
        );
        let tc = k.begin_trace("chain");
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Hop",
            vec![],
            InvocationEnv::anonymous().with_trace(tc),
        );
        assert!(k.inject(Location::new(0, 0), a.element(), msg));
        k.run_until_quiescent(1_000);
        k.end_trace(tc, "ok");
        k.drain_trace()
    }

    #[test]
    fn one_request_across_three_endpoints_is_one_parented_trace() {
        let events = traced_chain_run(5);
        // Every event belongs to the single trace the driver opened.
        let traces: std::collections::BTreeSet<_> = events.iter().map(|e| e.trace).collect();
        assert_eq!(traces.len(), 1, "{events:?}");
        let s = legion_obs::analysis::summarize(&events);
        assert_eq!(s.len(), 1);
        let s = &s[0];
        assert_eq!(s.hops.len(), 3, "{:?}", s.hops);
        // Delivered at three distinct endpoints.
        let visited: std::collections::BTreeSet<_> = s.hops.iter().filter_map(|h| h.to).collect();
        assert_eq!(visited.len(), 3);
        // Parent chain: root span → hop1 → hop2 → hop3.
        let root = events
            .iter()
            .find(|e| e.kind == KernelEventKind::Begin)
            .unwrap()
            .span;
        assert_eq!(s.hops[0].parent, root);
        assert_eq!(s.hops[1].parent, s.hops[0].span);
        assert_eq!(s.hops[2].parent, s.hops[1].span);
        // And the reconstruction accounts (at least) 95% of the latency.
        let b = legion_obs::analysis::hop_breakdown(&events);
        assert_eq!(b.requests, 1);
        assert!(b.min_coverage >= 0.95, "{b:?}");
    }

    #[test]
    fn same_seed_trace_export_is_byte_identical() {
        let a = legion_obs::export::to_jsonl(&traced_chain_run(9));
        let b = legion_obs::export::to_jsonl(&traced_chain_run(9));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_message_records_fault_verdict_span() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 7);
        k.enable_tracing(64);
        k.faults_mut().set_drop_probability(1.0);
        let echo = add_echo(&mut k);
        let tc = k.begin_trace("doomed");
        let mut msg = ping(&mut k);
        msg.env.trace = tc;
        assert!(k.inject(Location::new(0, 0), echo.element(), msg));
        k.run_until_quiescent(10);
        k.end_trace(tc, "lost");
        let events = k.drain_trace();
        let drop = events
            .iter()
            .find(|e| e.kind == KernelEventKind::Drop)
            .expect("drop span recorded");
        assert_eq!(drop.label, "drop:silent");
        assert_eq!(drop.trace, tc.trace);
    }

    #[test]
    fn refused_message_records_fault_verdict_span() {
        let mut k = kernel();
        k.enable_tracing(64);
        let echo = add_echo(&mut k);
        k.remove_endpoint(echo);
        let tc = k.begin_trace("stale");
        let mut msg = ping(&mut k);
        msg.env.trace = tc;
        assert!(!k.inject(Location::new(0, 1), echo.element(), msg));
        k.end_trace(tc, "refused");
        let events = k.drain_trace();
        let refuse = events
            .iter()
            .find(|e| e.kind == KernelEventKind::Refuse)
            .expect("refuse span recorded");
        assert_eq!(refuse.label, "refused:dead-endpoint");
        assert_eq!(refuse.trace, tc.trace);
    }

    #[test]
    fn untraced_crash_fallout_still_records_fault_spans() {
        // A message without any trace context refused by a crashed
        // endpoint, and one already queued to it when it dies, must both
        // show up in the span stream (trace id NONE) — crash fallout is
        // observable without whole-flow tracing.
        let mut k = kernel();
        k.enable_tracing(64);
        let echo = add_echo(&mut k);
        let msg = ping(&mut k);
        // Queued delivery, then the endpoint dies: dead letter.
        assert!(k.inject(Location::new(0, 1), echo.element(), msg.clone()));
        k.remove_endpoint(echo);
        k.run_until_quiescent(10);
        // And a post-crash send: detectable refusal.
        assert!(!k.inject(Location::new(0, 1), echo.element(), msg));
        let events = k.drain_trace();
        let dead = events
            .iter()
            .find(|e| e.kind == KernelEventKind::DeadLetter)
            .expect("dead-letter span for untraced message");
        assert_eq!(dead.label, "dead_letter:Ping");
        assert_eq!(dead.trace, legion_core::trace::TraceId::NONE);
        let refuse = events
            .iter()
            .find(|e| e.kind == KernelEventKind::Refuse)
            .expect("refuse span for untraced message");
        assert_eq!(refuse.label, "refused:dead-endpoint");
        assert_eq!(refuse.trace, legion_core::trace::TraceId::NONE);
    }

    #[test]
    fn external_set_timer_fires_and_respects_liveness() {
        struct Ticker {
            tags: Vec<u64>,
        }
        impl Endpoint for Ticker {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.tags.push(tag);
            }
        }
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(Ticker { tags: Vec::new() }),
            Location::new(0, 0),
            "ticker",
        );
        assert!(k.set_timer(t, 5_000, 7));
        assert!(k.set_timer(t, 1_000, 3));
        k.run_until_quiescent(10);
        assert_eq!(k.endpoint::<Ticker>(t).unwrap().tags, vec![3, 7]);
        assert_eq!(k.now(), SimTime(5_000));
        k.remove_endpoint(t);
        assert!(!k.set_timer(t, 1_000, 9), "dead endpoint: refused");
    }

    #[test]
    fn duplicated_message_is_delivered_exactly_once() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        k.enable_tracing(64);
        k.faults_mut().set_duplicate_probability(1.0);
        let echo = add_echo(&mut k);
        let msg = ping(&mut k);
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // The copy was queued but the at-most-once window suppressed it.
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert_eq!(k.counters().get("net.duplicated"), 1);
        assert_eq!(k.counters().get("net.dedup_dropped"), 1);
        assert_eq!(k.endpoint::<Echo>(echo).unwrap().got.len(), 1);
        let events = k.drain_trace();
        assert!(events.iter().any(|e| e.kind == KernelEventKind::Duplicate));
        assert!(events.iter().any(|e| e.kind == KernelEventKind::Dedup));
    }

    #[test]
    fn dedup_disabled_exposes_endpoints_to_duplicates() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        k.set_dedup_enabled(false);
        assert!(!k.dedup_enabled());
        k.faults_mut().set_duplicate_probability(1.0);
        let echo = add_echo(&mut k);
        let msg = ping(&mut k);
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // Without the window the endpoint executes the call twice.
        assert_eq!(k.meta(echo).unwrap().received, 2);
        assert_eq!(k.endpoint::<Echo>(echo).unwrap().got.len(), 2);
    }

    #[test]
    fn delay_spike_stretches_delivery_time() {
        let mut plan = FaultPlan::none();
        plan.add_delay_spike(crate::faults::DelaySpike {
            jurisdiction: None,
            from_ns: 0,
            until_ns: 100_000,
            multiplier: 3,
        });
        let mut k = SimKernel::new(Topology::fixed(1_000, 10_000, 1_000_000), plan, 42);
        let echo = add_echo(&mut k);
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let mut msg = ping(&mut k);
        msg.reply_to = Some(client.element());
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // 10µs LAN × 3 each way instead of 10µs + 10µs.
        assert_eq!(k.now(), SimTime(60_000));
        assert_eq!(k.counters().get("net.delayed"), 2);
        assert_eq!(k.endpoint::<Client>(client).unwrap().replies.len(), 1);
    }

    #[test]
    fn reorder_jitter_delays_but_delivers() {
        let mut k = SimKernel::new(
            Topology::fixed(1_000, 10_000, 1_000_000),
            FaultPlan::seeded(9),
            42,
        );
        k.faults_mut().set_reorder(1.0, 5_000);
        let echo = add_echo(&mut k);
        let msg = ping(&mut k);
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert!(
            k.now() > SimTime(10_000) && k.now() <= SimTime(15_000),
            "perturbed delivery at {:?}",
            k.now()
        );
    }

    #[test]
    fn adversarial_runs_are_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::seeded(seed);
            plan.set_drop_probability(0.1);
            plan.set_duplicate_probability(0.2);
            plan.set_reorder(0.3, 40_000);
            let mut k = SimKernel::new(Topology::default(), plan, seed);
            let mut eps = Vec::new();
            for i in 0..5 {
                eps.push(k.add_endpoint(
                    Box::new(Echo::new(Loid::instance(16, i + 1))),
                    Location::new(i as u32 % 2, i as u32),
                    format!("e{i}"),
                ));
            }
            let addr = ObjectAddress::replicated(
                eps.iter().map(|e| e.element()).collect(),
                AddressSemantics::SendToAll,
            );
            k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 9), "f");
            k.run_until_quiescent(1_000);
            (
                k.now(),
                k.stats().clone(),
                k.counters().get("net.duplicated"),
                k.counters().get("net.dedup_dropped"),
                k.latency_histogram().sum(),
            )
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(124));
    }
}
