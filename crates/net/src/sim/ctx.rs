//! The handler-side view of the kernel: what an endpoint can do while
//! one of its handlers runs.

use super::observe::Observation;
use super::send::send_one;
use super::{Endpoint, EndpointId, EventKind, Inner, SendReport, Slot};
use crate::message::{CallId, Message};
use crate::topology::Location;
use legion_core::address::{AddressSemantics, ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::event::KernelEventKind;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceContext};
use legion_core::value::LegionValue;
use legion_obs::slo::BurnEvent;
use rand::seq::SliceRandom;
use rand::Rng;

/// The handler-side view of the kernel.
pub struct Ctx<'a> {
    pub(super) self_id: EndpointId,
    pub(super) inner: &'a mut Inner,
    pub(super) slots: &'a mut Vec<Slot>,
    pub(super) spawned: Vec<EndpointId>,
}

impl Ctx<'_> {
    /// This endpoint's id.
    #[cfg(test)]
    pub(crate) fn self_id(&self) -> EndpointId {
        self.self_id
    }

    /// This endpoint's address element.
    pub fn self_element(&self) -> ObjectAddressElement {
        self.self_id.element()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// A fresh call id.
    pub fn fresh_call_id(&mut self) -> CallId {
        self.inner.fresh_call_id()
    }

    /// An empty argument buffer from the kernel pool (capacity recycled
    /// from a spent call when one is available).
    pub fn take_args(&mut self) -> Vec<LegionValue> {
        self.inner.pool.take_args()
    }

    /// A `LegionValue::Binding` copy of `src`, built in a recycled shell
    /// when the pool has one (allocation-free on the steady path).
    pub fn binding_value(&mut self, src: &Binding) -> LegionValue {
        self.inner.pool.binding_value(src)
    }

    /// Recycle the heap shells of a consumed value (binding boxes, list
    /// vectors) back into the kernel pool.
    pub fn recycle_value(&mut self, value: LegionValue) {
        self.inner.pool.recycle_value(value);
    }

    /// Recycle a fully-handled message's body buffers back into the
    /// kernel pool (`dispatch::serve` calls this on every served call).
    pub fn recycle_message(&mut self, msg: Message) {
        self.inner.pool.recycle_message(msg);
    }

    /// Bump a named protocol counter. Inside an active trace, the bump
    /// is also recorded as a `Note` span event — counters *are* the
    /// protocol-level events (cache hits, activations, …), so every
    /// instrumented site annotates the request it served for free.
    pub fn count(&mut self, name: &str) {
        self.count_n(name, 1);
    }

    /// Add to a named protocol counter (traced like [`Ctx::count`]).
    pub fn count_n(&mut self, name: &str, n: u64) {
        self.inner.note_count(name, n);
        self.trace_note(name);
    }

    /// [`Ctx::count_n`] for a pre-interned name — allocation-free, for
    /// counters bumped on sweep/teardown paths that must stay off the
    /// allocator even when no trace is active.
    pub fn count_n_sym(&mut self, sym: Sym, n: u64) {
        self.inner.note_count_sym(sym, n);
        if self.inner.current.is_active() {
            self.trace_note(sym.as_str());
        }
    }

    /// Open a root span for a new workload-level request and make it the
    /// current context. Returns [`TraceContext::NONE`] when tracing is
    /// off (everything downstream degrades to a no-op).
    pub fn trace_begin(&mut self, label: &str) -> TraceContext {
        let at = self.inner.now;
        let tc = self.inner.sink.begin(at, self.self_id.0, label);
        if tc.is_active() {
            self.inner.current = tc;
        }
        tc
    }

    /// Close the current request's trace with an outcome label and leave
    /// the handler untraced.
    pub fn trace_end(&mut self, outcome: &str) {
        self.inner.observe(Observation::span(
            KernelEventKind::End,
            self.self_id.0,
            self.inner.current,
            SpanId::NONE,
            format_args!("{outcome}"),
        ));
        self.inner.current = TraceContext::NONE;
    }

    /// Annotate the current trace with a protocol-level event (cache hit,
    /// activation, …). No-op outside a trace.
    pub fn trace_note(&mut self, label: &str) {
        self.inner.observe(Observation::span(
            KernelEventKind::Note,
            self.self_id.0,
            self.inner.current,
            SpanId::NONE,
            format_args!("{label}"),
        ));
    }

    /// Is this handler executing under an active trace? Gate `format!`
    /// label construction on this before calling [`Ctx::trace_note`], so
    /// untraced runs pay no allocation for notes that would be dropped.
    pub fn trace_active(&self) -> bool {
        self.inner.current.is_active()
    }

    /// Is the span sink enabled at all? Gate label construction for
    /// *root* spans ([`Ctx::trace_begin`]) on this — a root span records
    /// whenever the sink is on, even outside any current trace.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.sink.is_enabled()
    }

    /// Record an event attributed to this endpoint into the journal (as
    /// `a = detail`) and, for flight-routed kinds (timeouts, HA
    /// verdicts, notes, sheds), the always-on flight recorder.
    /// Allocation-free: the label is a pre-interned [`Sym`].
    pub fn flight(&mut self, kind: KernelEventKind, label: Sym, detail: u64) {
        let ev = Observation::fact(kind, self.self_id.0, detail, 0, label);
        self.inner.observe(ev);
    }

    /// Record an explicit SLO sample for this endpoint at the current
    /// virtual time. The kernel samples *hop* latencies automatically;
    /// endpoints that model service time (admission queues) record their
    /// end-to-end response time here so objectives judge what a caller
    /// actually experienced. No-op while SLO tracking is off.
    pub fn slo_record(&mut self, latency_ns: u64) {
        let at = self.inner.now.as_nanos();
        self.inner.slo.record(at, self.self_id.0, latency_ns);
    }

    /// Drain burn-rate alarms fired by the online SLO monitor since the
    /// last drain, as `(endpoint id, event)` in firing order. Always
    /// empty unless the kernel was configured with
    /// [`SimKernel::enable_slo_online`](super::SimKernel::enable_slo_online).
    pub fn drain_burn_events(&mut self) -> Vec<(u64, BurnEvent)> {
        self.inner.slo.drain_burn()
    }

    /// Dump the flight-recorder tail (newest `n` events) to stderr with
    /// a reason line — post-mortem context for sweeps, invariant
    /// violations, and imminent panics.
    pub fn dump_flight(&self, reason: &str, n: usize) {
        eprintln!("{}", self.inner.flight_dump(reason, n));
    }

    /// This endpoint's location.
    pub fn location(&self) -> Location {
        self.slots[self.self_id.0 as usize].meta.location
    }

    /// Send to one address element. `true` = accepted (may still be lost
    /// silently); `false` = detectably refused (stale address, §4.1.4).
    pub fn send(&mut self, to: ObjectAddressElement, mut msg: Message) -> bool {
        if msg.reply_to.is_none() {
            msg.reply_to = Some(self.self_element());
        }
        // Stamp the current trace context unless the caller set one
        // explicitly (e.g. a message built from a stored environment).
        if !msg.env.trace.is_active() {
            msg.env.trace = self.inner.current;
        }
        let loc = self.location();
        send_one(
            self.inner,
            self.slots,
            loc,
            Some(self.self_id.0 as usize),
            to,
            msg,
        )
    }

    /// Send through a full [`ObjectAddress`], honouring its semantics
    /// (§3.4, §4.3).
    pub fn send_address(&mut self, addr: &ObjectAddress, msg: Message) -> SendReport {
        let elements = &addr.elements;
        if elements.is_empty() {
            return SendReport::default();
        }
        let targets: Vec<ObjectAddressElement> = match addr.semantics {
            AddressSemantics::Single | AddressSemantics::User(_) => vec![elements[0]],
            AddressSemantics::SendToAll => elements.clone(),
            AddressSemantics::PickRandom => {
                let i = self.inner.rng.gen_range(0..elements.len());
                vec![elements[i]]
            }
            AddressSemantics::KOfN(k) => {
                let mut pool = elements.clone();
                pool.shuffle(&mut self.inner.rng);
                pool.truncate((k as usize).min(elements.len()));
                pool
            }
            AddressSemantics::FirstReachable => {
                // Try in order until a send is accepted.
                let mut report = SendReport::default();
                for e in elements {
                    report.attempted += 1;
                    if self.send(*e, msg.clone()) {
                        report.accepted += 1;
                        break;
                    }
                }
                return report;
            }
        };
        let mut report = SendReport::default();
        for e in targets {
            report.attempted += 1;
            if self.send(e, msg.clone()) {
                report.accepted += 1;
            }
        }
        report
    }

    /// Issue a method call to `to`, returning the fresh [`CallId`] if the
    /// send was accepted.
    pub fn call(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        env: InvocationEnv,
        sender: Option<Loid>,
    ) -> Option<CallId> {
        let id = self.fresh_call_id();
        let mut msg = Message::call(id, target, method, args, env);
        msg.sender = sender;
        if self.send(to, msg) {
            Some(id)
        } else {
            None
        }
    }

    /// Reply to `call` with `result`. Returns `false` if the caller's
    /// address is unknown or refused.
    pub fn reply(&mut self, call: &Message, result: Result<LegionValue, String>) -> bool {
        let Some(dest) = call.reply_to else {
            return false;
        };
        let id = self.fresh_call_id();
        let reply = Message::reply_to(call, id, result);
        self.send(dest, reply)
    }

    /// Fire `on_timer(tag)` on this endpoint after `delay_ns`. The timer
    /// captures the current trace context, so the firing handler resumes
    /// the same trace (retry/backoff stays attributed to its request).
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) {
        let at = self.inner.now.saturating_add(delay_ns);
        let trace = self.inner.current;
        self.inner
            .schedule(at, self.self_id, trace, EventKind::Timer(tag));
    }

    /// Spawn a new endpoint (activation); its `on_start` runs right after
    /// the current handler returns.
    pub fn spawn(
        &mut self,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: impl Into<String>,
    ) -> EndpointId {
        let id = self.inner.attach(self.slots, ep, location, name.into());
        self.spawned.push(id);
        id
    }

    /// Kill an endpoint (deactivation). Killing `self` is allowed: the
    /// current handler finishes, then the endpoint is dropped.
    pub fn kill(&mut self, id: EndpointId) {
        self.inner.detach(self.slots, id, id == self.self_id);
    }
}
