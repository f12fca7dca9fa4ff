//! Transport binding for the unified invocation layer.
//!
//! [`legion_core::dispatch`] owns the model half of method dispatch —
//! signatures, typed argument codecs, uniform errors, verdicts, and the
//! generic method-table / continuation stores. This module instantiates
//! those generics with the transport types (`Message`, [`Ctx`], `CallId`)
//! and drives the per-message flow every endpoint shares:
//!
//! 1. replies are routed to the endpoint's [`Continuations`] store;
//! 2. a call with **no method name** is *dead-lettered* — counted and
//!    annotated, never silently dropped;
//! 3. unknown methods and signature mismatches are answered with the
//!    uniform `CoreError` rendering;
//! 4. the MayI gate (§2.4) runs once here, for every gated method of
//!    every endpoint — with the heartbeat bypass expressed as an
//!    *ungated, one-way* registration rather than endpoint-specific code;
//! 5. the span annotation `(method, verdict)` is recorded at this
//!    boundary. The kernel's per-delivery span already carries the method
//!    name, so the boundary only adds an explicit `dispatch.…` note for
//!    non-`allowed` verdicts — keeping same-seed traces of healthy runs
//!    byte-identical while making every refusal visible.
//!
//! Endpoints register methods against a [`TableBuilder`] at construction
//! and keep the sealed table in an `Rc`; `on_message` becomes a call to
//! [`serve`] plus a continuation take for replies.

use crate::message::{Body, CallId, Message};
use crate::sim::Ctx;
use legion_core::dispatch::{
    self as model, FromArg, FromArgs, InvocationGate, MethodTable as ModelTable, Verdict,
};
use legion_core::error::CoreError;
use legion_core::event::KernelEventKind;
use legion_core::idl;
use legion_core::interface::{MethodSignature, ParamType};
use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;
use std::rc::Rc;

/// What a method handler tells the dispatch boundary to do next.
pub enum Outcome {
    /// Reply with this result now.
    Reply(Result<LegionValue, String>),
    /// The handler started asynchronous work (registered a continuation
    /// or forwarded the call); a reply is sent later, by someone else.
    Pending,
    /// One-way by design (heartbeats): no reply, ever.
    NoReply,
    /// Internal: the typed codec rejected the arguments (the uniform
    /// signature-mismatch error, pre-rendered). Produced by the codec
    /// wrapper, not by user handlers.
    Invalid(String),
}

/// A type-erased method handler bound to endpoint type `E`.
pub type Handler<E> = Box<dyn Fn(&mut E, &mut Ctx<'_>, &Message, &[LegionValue]) -> Outcome>;

/// A continuation awaiting the reply to one outbound call.
pub type Continuation<E> = Box<dyn FnOnce(&mut E, &mut Ctx<'_>, Result<LegionValue, String>)>;

/// The shared call-id → continuation store, keyed by [`CallId`].
pub type Continuations<E> = model::Continuations<CallId, Continuation<E>>;

/// Box a plain continuation closure.
pub fn cont<E, F>(f: F) -> Continuation<E>
where
    F: FnOnce(&mut E, &mut Ctx<'_>, Result<LegionValue, String>) + 'static,
{
    Box::new(f)
}

/// Box a *typed* continuation: the reply payload is decoded to `T` before
/// the closure runs; a payload of the wrong type becomes an `Err`.
pub fn cont_expecting<E, T: FromArg, F>(f: F) -> Continuation<E>
where
    F: FnOnce(&mut E, &mut Ctx<'_>, Result<T, String>) + 'static,
{
    Box::new(move |e, ctx, r| {
        let typed = match r {
            Err(err) => Err(err),
            Ok(v) => T::from_value(&v).ok_or_else(|| format!("unexpected payload {v}")),
        };
        f(e, ctx, typed)
    })
}

/// Timer tag endpoints reserve for their continuation deadline sweep.
/// High in the tag space, so it never collides with protocol timers or
/// with naming-agent per-call tags (raw call ids, which count up from 1).
pub const TIMER_DEADLINE_SWEEP: u64 = 0x4444_4c53_5745_4550; // "DDLSWEEP"

/// The uniform timeout rendering a deadline sweep substitutes for a reply
/// that never came ([`CoreError::Timeout`] on the wire).
pub fn timeout_error(after_ns: u64) -> String {
    CoreError::Timeout { after_ns }.to_string()
}

/// Does `err` carry the uniform timeout rendering? Continuations that
/// retry on timeout (but fail fast on typed errors) branch on this.
pub fn is_timeout(err: &str) -> bool {
    err.starts_with("call timed out after ")
}

/// The uniform load-shed rendering an overloaded endpoint substitutes
/// for service ([`CoreError::Overloaded`] on the wire). The hint tells
/// the caller when a queue slot is expected to free.
pub fn overload_error(retry_after_ns: u64) -> String {
    CoreError::Overloaded { retry_after_ns }.to_string()
}

/// Parse the uniform overload rendering back out of a reply error,
/// returning the server's retry-after hint in virtual ns. Clients that
/// honor server backpressure (instead of their own backoff schedule)
/// branch on this — the counterpart of [`is_timeout`].
pub fn is_overloaded(err: &str) -> Option<u64> {
    let rest = err.strip_prefix("server overloaded, retry after ")?;
    rest.strip_suffix("ns")?.parse().ok()
}

/// Register a continuation under the endpoint's deadline policy.
///
/// With `deadline_ns = None` the endpoint waits forever (the historical
/// behavior — no timer events are created, so fault-free runs are
/// untouched). With `Some(d)`, the continuation is recorded with deadline
/// `now + d` and a sweep timer is armed `d` from now with `timer_tag`
/// (usually [`TIMER_DEADLINE_SWEEP`]); the endpoint's `on_timer` then
/// calls [`sweep_expired`].
pub fn insert_pending<E>(
    conts: &mut Continuations<E>,
    ctx: &mut Ctx<'_>,
    id: CallId,
    k: Continuation<E>,
    deadline_ns: Option<u64>,
    timer_tag: u64,
) {
    match deadline_ns {
        None => {
            conts.insert(id, k);
        }
        Some(d) => {
            conts.insert_with_deadline(id, k, ctx.now().saturating_add(d));
            ctx.set_timer(d, timer_tag);
        }
    }
}

/// The deadline sweep: resolve every overdue continuation with the
/// uniform timeout error ([`timeout_error`]). Returns how many expired.
///
/// Each expiry bumps the `net.timeout_expired` counter (surfaced as
/// [`MetricsSnapshot::timeouts_expired`](crate::metrics::MetricsSnapshot))
/// and records a `Timeout` flight event carrying the expired call id; a
/// sweep that fired dumps the recorder tail to stderr — both
/// allocation-free on the no-expiry path.
///
/// `conts` is an accessor (not a borrow) so each continuation can receive
/// `&mut E` without aliasing the store.
pub fn sweep_expired<E>(
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    conts: fn(&mut E) -> &mut Continuations<E>,
    after_ns: u64,
) -> usize {
    let due = conts(endpoint).take_expired(ctx.now());
    let n = due.len();
    if n > 0 {
        ctx.count_n_sym(symbol::NET_TIMEOUT_EXPIRED, n as u64);
    }
    for (id, k) in due {
        ctx.flight(KernelEventKind::Timeout, symbol::NET_TIMEOUT_EXPIRED, id.0);
        k(endpoint, ctx, Err(timeout_error(after_ns)));
    }
    if n > 0 {
        ctx.dump_flight("deadline sweep expired continuations", SWEEP_DUMP_TAIL);
    }
    n
}

/// How many recorder-tail events a fired deadline sweep dumps.
const SWEEP_DUMP_TAIL: usize = 16;

/// If `msg` is a reply, yield the call-id it answers. Endpoints use this
/// to route replies into their [`Continuations`] store before serving.
pub fn reply_id(msg: &Message) -> Option<CallId> {
    match &msg.body {
        Body::Reply { in_reply_to, .. } => Some(*in_reply_to),
        Body::Call { .. } => None,
    }
}

/// The reply payload, for messages [`reply_id`] matched.
pub fn reply_result(msg: &Message) -> Result<LegionValue, String> {
    match &msg.body {
        Body::Reply { result, .. } => result.clone(),
        Body::Call { .. } => Err("not a reply".into()),
    }
}

/// [`reply_result`] without the clone: consumes the message and moves the
/// payload out. Continuation-resume paths use this so the reply value
/// changes owners instead of being copied (and so the consumer can
/// recycle its shell through [`Ctx::recycle_value`] when done).
pub fn take_reply_result(msg: Message) -> Result<LegionValue, String> {
    match msg.body {
        Body::Reply { result, .. } => result,
        Body::Call { .. } => Err("not a reply".into()),
    }
}

/// A sealed per-endpoint method table: the model-layer registry plus the
/// derived interface (rendered once) and the gate accessor.
pub struct MethodTable<E> {
    inner: ModelTable<Handler<E>>,
    gate: Option<fn(&E) -> &dyn InvocationGate>,
    prefix: &'static str,
    interface_idl: String,
    intrinsic_get_interface: bool,
}

impl<E> MethodTable<E> {
    /// The registered signature of `method`, if any. Probes via
    /// [`Sym::try_lookup`], so asking about arbitrary names never grows
    /// the interner.
    pub fn signature(&self, method: &str) -> Option<&MethodSignature> {
        let sym = Sym::try_lookup(method)?;
        self.inner.get(sym).map(|e| e.signature())
    }
}

/// Builds a [`MethodTable`]: registration happens in the endpoint's
/// constructor, `seal()` derives the interface and freezes the table.
pub struct TableBuilder<E> {
    name: String,
    inner: ModelTable<Handler<E>>,
    gate: Option<fn(&E) -> &dyn InvocationGate>,
    prefix: &'static str,
    intrinsic_get_interface: bool,
}

impl<E> TableBuilder<E> {
    /// A builder for an endpoint whose derived interface is rendered as
    /// `interface name` and whose counters live under `prefix.…`;
    /// `owner` is the provenance LOID recorded on interface entries.
    pub fn new(prefix: &'static str, name: impl Into<String>, owner: Loid) -> Self {
        TableBuilder {
            name: name.into(),
            inner: ModelTable::new(owner),
            gate: None,
            prefix,
            intrinsic_get_interface: false,
        }
    }

    /// Install the MayI gate accessor: given the endpoint, return its
    /// gate. Gated methods are checked here, at the boundary, once.
    pub fn gate(mut self, f: fn(&E) -> &dyn InvocationGate) -> Self {
        self.gate = Some(f);
        self
    }

    fn push<A: FromArgs + 'static, F>(mut self, sig: MethodSignature, gated: bool, f: F) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let err_sig = sig.clone();
        let handler: Handler<E> = Box::new(move |e, ctx, msg, args| match A::from_args(args) {
            Ok(a) => f(e, ctx, msg, a),
            Err(err) => Outcome::Invalid(model::mismatch(&err_sig, err).to_string()),
        });
        self.inner.define(sig, gated, handler);
        self
    }

    /// Register a gated method. `A` (a [`FromArgs`] type) both decodes the
    /// arguments and publishes the parameter types of the signature.
    pub fn method<A: FromArgs + 'static, F>(
        self,
        name: impl Into<Sym>,
        param_names: &[&str],
        returns: ParamType,
        f: F,
    ) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let sig = model::signature_of::<A>(name.into().as_str(), param_names, returns);
        self.push(sig, true, f)
    }

    /// Register an *ungated* method — exempt from the MayI check. Used
    /// for `MayI` itself and for the heartbeat bypass.
    pub fn ungated_method<A: FromArgs + 'static, F>(
        self,
        name: impl Into<Sym>,
        param_names: &[&str],
        returns: ParamType,
        f: F,
    ) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let sig = model::signature_of::<A>(name.into().as_str(), param_names, returns);
        self.push(sig, false, f)
    }

    /// Register the intrinsic `GetInterface()`: answered by the table
    /// itself with the interface derived from every registered method —
    /// including this one — so the published interface can never drift
    /// from the dispatch table.
    pub fn get_interface(mut self) -> Self {
        self.intrinsic_get_interface = true;
        self.push::<(), _>(
            MethodSignature::new(symbol::GET_INTERFACE.as_str(), vec![], ParamType::Str),
            true,
            |_, _, _, _| Outcome::NoReply,
        )
    }

    /// Derive the interface, render it, and freeze the table.
    pub fn seal(self) -> Rc<MethodTable<E>> {
        let interface_idl = idl::render(&self.name, &self.inner.interface());
        Rc::new(MethodTable {
            inner: self.inner,
            gate: self.gate,
            prefix: self.prefix,
            interface_idl,
            intrinsic_get_interface: self.intrinsic_get_interface,
        })
    }
}

/// How [`serve`] disposed of one incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A call was dispatched with this verdict.
    Call(Verdict),
    /// The message is a reply — the endpoint resolves its continuations.
    Reply,
}

/// The dispatch boundary: route one incoming message through the table.
///
/// Callers pass a *clone* of the endpoint's `Rc<MethodTable<_>>` so the
/// handler can borrow the endpoint mutably while the table stays alive.
///
/// Takes the message by value: once dispatch is done the body's heap
/// buffers (the call argument vector, an unclaimed reply's payload) go
/// back to the kernel pool via [`Ctx::recycle_message`]. Handlers still
/// see `&Message` — recycling happens strictly after the handler returns.
pub fn serve<E>(
    table: &MethodTable<E>,
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    msg: Message,
) -> Served {
    let served = serve_ref(table, endpoint, ctx, &msg);
    ctx.recycle_message(msg);
    served
}

fn serve_ref<E>(
    table: &MethodTable<E>,
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    msg: &Message,
) -> Served {
    if msg.is_reply() {
        return Served::Reply;
    }
    let prefix = table.prefix;
    let Some(method) = msg.method_sym().filter(|&m| m != symbol::EMPTY) else {
        // A call with no method name (empty on the wire) used to vanish
        // silently in per-endpoint dispatch; dead-letter it visibly.
        ctx.count(&format!("{prefix}.dead_letter"));
        ctx.trace_note(&format!(
            "dispatch.{}:{prefix}",
            Verdict::DeadLetter.label()
        ));
        return Served::Call(Verdict::DeadLetter);
    };
    let entry = match table.inner.resolve(method) {
        Ok(e) => e,
        Err(err) => {
            ctx.count(&format!("{prefix}.unknown_method"));
            ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::Unknown.label()));
            ctx.reply(msg, Err(err.to_string()));
            return Served::Call(Verdict::Unknown);
        }
    };
    if entry.gated() {
        if let Some(gate) = table.gate {
            if let Err(reason) = gate(endpoint).check(&msg.env, method.as_str()) {
                ctx.count(&format!("{prefix}.refused"));
                ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::Denied.label()));
                ctx.reply(msg, Err(format!("MayI refused: {reason}")));
                return Served::Call(Verdict::Denied);
            }
        }
    }
    if table.intrinsic_get_interface && method == symbol::GET_INTERFACE {
        ctx.reply(msg, Ok(LegionValue::Str(table.interface_idl.clone())));
        return Served::Call(Verdict::Allowed);
    }
    match (entry.handler())(endpoint, ctx, msg, msg.args()) {
        Outcome::Reply(result) => {
            ctx.reply(msg, result);
            Served::Call(Verdict::Allowed)
        }
        Outcome::Pending | Outcome::NoReply => Served::Call(Verdict::Allowed),
        Outcome::Invalid(rendered) => {
            ctx.count(&format!("{prefix}.bad_args"));
            ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::BadArgs.label()));
            ctx.reply(msg, Err(rendered));
            Served::Call(Verdict::BadArgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_rendering_round_trips() {
        assert!(is_timeout(&timeout_error(500)));
        assert!(!is_timeout("some other error"));
        assert!(!is_timeout(&overload_error(500)));
    }

    #[test]
    fn overload_rendering_round_trips() {
        assert_eq!(is_overloaded(&overload_error(0)), Some(0));
        assert_eq!(is_overloaded(&overload_error(1_250_000)), Some(1_250_000));
        assert_eq!(is_overloaded(&timeout_error(500)), None);
        assert_eq!(is_overloaded("server overloaded, retry after xns"), None);
        assert_eq!(is_overloaded("unrelated"), None);
    }
}
