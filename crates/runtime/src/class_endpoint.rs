//! Class objects as live endpoints (paper §3.7, §4.1, §4.2).
//!
//! A class object is "responsible for creating and locating its instances
//! and subclasses". The [`ClassEndpoint`] owns the per-class state
//! ([`ClassObject`]: interface, LOID allocator, logical table) and serves
//! the class-mandatory member functions through the shared dispatch layer:
//!
//! * `Create()` — pick a Magistrate (a scheduling decision "left up to the
//!   class"), hand it an activation spec, record the new row;
//! * `GetBinding(loid)` — answer from the logical table's Object Address
//!   column, or consult a Magistrate from the row's Current Magistrate
//!   List via `Activate()` — "referring to the LOID of an Inert object can
//!   cause the object to be activated" (§4.1.2);
//! * `Derive(name[, flags])` — obtain a Class Identifier from LegionClass,
//!   then spawn the new class object with this class's interface;
//! * `InheritFrom(base)` — resolve the base (through the class's own
//!   Binding Agent — classes are objects too), fetch its *instance*
//!   interface as IDL text, and merge it;
//! * table-maintenance notifications (`SetAddress`, `Add/RemoveMagistrate`,
//!   `Announce`).
//!
//! Two interfaces coexist here: `GetInterface()` (a table intrinsic)
//! describes the class object's *own* member functions, while
//! `GetInstanceInterface()` returns the run-time interface the class
//! confers on its instances (§2.1 class data).
//!
//! [`LegionClassEndpoint`] is the metaclass: the Class Identifier
//! authority and the keeper of responsibility pairs (§4.1.3).

use crate::protocol::{
    class as class_proto, magistrate as mag_proto, ActivationSpec, CreateArgs, DeriveArgs,
    SetAddressArgs,
};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::class::{ClassKind, ClassObject, TableEntry};
use legion_core::dispatch::InvocationGate;
use legion_core::env::InvocationEnv;
use legion_core::event::KernelEventKind;
use legion_core::idl;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::metaclass::LegionClassAuthority;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_naming::protocol::{
    self as naming_proto, BindingArg, FIND_RESPONSIBLE, GET_BINDING, ISSUE_CLASS_ID,
};
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_net::admission::{Admission, AdmissionConfig, AdmissionQueue};
use legion_net::dispatch::{
    cont, insert_pending, overload_error, reply_id, serve, sweep_expired, take_reply_result,
    Continuation, Continuations, MethodTable, Outcome, TableBuilder, TIMER_DEADLINE_SWEEP,
};
use legion_net::message::CallId;
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::collections::HashMap;
use std::rc::Rc;

/// Shared configuration for class endpoints (inherited by subclasses
/// spawned through `Derive`).
#[derive(Clone)]
pub struct ClassConfig {
    /// Address of the LegionClass endpoint.
    pub legion_class: ObjectAddressElement,
    /// Candidate Magistrates available for object placement.
    pub magistrates: Vec<(Loid, ObjectAddressElement)>,
    /// The class's Binding Agent, for resolving base classes.
    pub binding_agent: Option<ObjectAddressElement>,
    /// Expiry stamped on served bindings (§3.5's "time that the binding
    /// becomes invalid"). `None` serves never-expiring bindings; a TTL
    /// bounds downstream cache staleness at the price of re-resolution.
    pub binding_ttl_ns: Option<u64>,
    /// Admission control / service model for data-plane calls. `None`
    /// (the default) serves instantaneously and never sheds — the exact
    /// historical behavior. `Some` makes the class a deterministic
    /// single server: admitted calls complete after their modeled queue
    /// wait + service time, offers past the queue budget are shed with
    /// `CoreError::Overloaded` + retry-after. Inherited by subclasses
    /// spawned through `Derive`, so clones of a guarded hot class are
    /// guarded the same way.
    pub admission: Option<AdmissionConfig>,
}

/// Class names may contain characters illegal in IDL identifiers (clones
/// are named "X#clone"); sanitize before rendering.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A live class object.
pub struct ClassEndpoint {
    class: ClassObject,
    cfg: ClassConfig,
    resolver: Option<ClientResolver>,
    policy: Box<dyn MayIPolicy>,
    table: Rc<MethodTable<Self>>,
    continuations: Continuations<Self>,
    /// GetBinding requests combined while a Magistrate activates a target.
    binding_waiters: HashMap<Loid, Vec<Message>>,
    /// InheritFrom requests waiting on base resolution.
    inherit_waiters: HashMap<Loid, Vec<Message>>,
    /// Round-robin cursor over candidate magistrates.
    next_magistrate: usize,
    /// When set, outbound call continuations expire after this many
    /// virtual ns with the uniform timeout error instead of leaking.
    /// `None` (default) keeps the historical wait-forever behavior.
    call_deadline_ns: Option<u64>,
    /// The admission ledger, when `cfg.admission` is set.
    admission: Option<AdmissionQueue>,
    /// Admitted data-plane calls awaiting their modeled service-
    /// completion timer, keyed by deferral sequence. Size is bounded by
    /// the admission queue depth — the ledger sheds before this map can
    /// grow past it.
    deferred: HashMap<u64, (Message, u64)>,
    next_deferred: u64,
    deferred_peak: usize,
}

/// Timer-tag bit marking a modeled service completion; the low bits
/// carry the deferral sequence. The top bit keeps the space disjoint
/// from [`TIMER_DEADLINE_SWEEP`] and protocol timers.
const SERVICE_TIMER_BIT: u64 = 1 << 63;

impl ClassEndpoint {
    /// Wrap a class object.
    pub fn new(class: ClassObject, cfg: ClassConfig) -> Self {
        let resolver = cfg
            .binding_agent
            .map(|agent| ClientResolver::new(class.loid, agent, 128));
        let table = Self::table(class.loid, &class.name);
        let admission = cfg.admission.map(AdmissionQueue::new);
        ClassEndpoint {
            class,
            cfg,
            resolver,
            policy: Box::new(AllowAll),
            table,
            continuations: Continuations::new(),
            binding_waiters: HashMap::new(),
            inherit_waiters: HashMap::new(),
            next_magistrate: 0,
            call_deadline_ns: None,
            admission,
            deferred: HashMap::new(),
            next_deferred: 0,
            deferred_peak: 0,
        }
    }

    /// The admission ledger, when admission control is on.
    pub fn admission(&self) -> Option<&AdmissionQueue> {
        self.admission.as_ref()
    }

    /// High-water mark of the deferred-call map — must stay within the
    /// admission queue depth (the "no unbounded queue" invariant).
    pub fn deferred_peak(&self) -> usize {
        self.deferred_peak
    }

    /// Is `msg` subject to admission control? Only the data-plane calls
    /// a flash crowd multiplies (§4.1 binding lookups, instance
    /// creation, interface discovery) pay the service model. Control-
    /// plane traffic — `Derive`, table maintenance, liveness probes —
    /// bypasses the queue: an auto-scaling policy must be able to clone
    /// an overloaded class *while* it is overloaded.
    fn admission_gated(msg: &Message) -> bool {
        matches!(
            msg.method_sym(),
            Some(m) if m == symbol::GET_BINDING
                || m == symbol::CREATE
                || m == symbol::GET_INSTANCE_INTERFACE
        )
    }

    /// Run one call through the admission ledger. Returns `None` when
    /// the call was consumed here (shed, or deferred to its service-
    /// completion timer); `Some(msg)` hands it back for immediate serve.
    fn admit(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> Option<Message> {
        let Some(queue) = &mut self.admission else {
            return Some(msg);
        };
        if !Self::admission_gated(&msg) {
            return Some(msg);
        }
        let now = ctx.now().as_nanos();
        match queue.offer(now) {
            Admission::Shed { retry_after_ns } => {
                ctx.count_n_sym(symbol::NET_REQUESTS_SHED, 1);
                ctx.flight(
                    KernelEventKind::Shed,
                    msg.method_sym().unwrap_or(symbol::EMPTY),
                    retry_after_ns,
                );
                if ctx.reply(&msg, Err(overload_error(retry_after_ns))) {
                    ctx.count_n_sym(symbol::NET_OVERLOAD_REPLIES, 1);
                }
                ctx.recycle_message(msg);
                None
            }
            Admission::Admit { delay_ns } => {
                let seq = self.next_deferred;
                self.next_deferred += 1;
                self.deferred.insert(seq, (msg, now));
                self.deferred_peak = self.deferred_peak.max(self.deferred.len());
                ctx.set_timer(delay_ns, SERVICE_TIMER_BIT | seq);
                None
            }
        }
    }

    /// Expire outstanding call continuations after `deadline_ns`
    /// (opt-in; see the `call_deadline_ns` field).
    pub fn set_call_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.call_deadline_ns = deadline_ns;
    }

    /// Outstanding (unresolved) call continuations.
    pub fn outstanding_continuations(&self) -> usize {
        self.continuations.len()
    }

    /// Register an outbound call's continuation under the deadline policy.
    fn pend(&mut self, ctx: &mut Ctx<'_>, call_id: CallId, k: Continuation<Self>) {
        insert_pending(
            &mut self.continuations,
            ctx,
            call_id,
            k,
            self.call_deadline_ns,
            TIMER_DEADLINE_SWEEP,
        );
    }

    /// Read access to the wrapped class object (tests, experiments).
    pub fn class(&self) -> &ClassObject {
        &self.class
    }

    /// Mutable access (bootstrap wiring).
    pub fn class_mut(&mut self) -> &mut ClassObject {
        &mut self.class
    }

    fn table(loid: Loid, name: &str) -> Rc<MethodTable<Self>> {
        TableBuilder::new("class", sanitize(name), loid)
            .gate(|e: &Self| &e.policy as &dyn InvocationGate)
            .get_interface()
            .method::<CreateArgs, _>(
                class_proto::CREATE,
                &["state"],
                ParamType::Binding,
                |e, ctx, msg, a| e.handle_create(ctx, msg, a),
            )
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e, ctx, msg, (arg,)| e.handle_get_binding(ctx, msg, arg),
            )
            .method::<DeriveArgs, _>(
                class_proto::DERIVE,
                &["name", "flags"],
                ParamType::Binding,
                |e, ctx, msg, a| e.handle_derive(ctx, msg, a),
            )
            .method::<(Loid,), _>(
                class_proto::INHERIT_FROM,
                &["base"],
                ParamType::Void,
                |e, ctx, msg, (base,)| e.handle_inherit_from(ctx, msg, base),
            )
            .method::<(Loid,), _>(
                class_proto::DELETE,
                &["target"],
                ParamType::Void,
                |e, ctx, msg, (target,)| e.handle_delete(ctx, msg, target),
            )
            .method::<SetAddressArgs, _>(
                class_proto::SET_ADDRESS,
                &["loid", "address"],
                ParamType::Void,
                |e, _ctx, _msg, a| {
                    Outcome::Reply(if e.class.table.set_address(&a.loid, a.address) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("SetAddress: no such row".into())
                    })
                },
            )
            .method::<(Loid, Loid), _>(
                class_proto::ADD_MAGISTRATE,
                &["loid", "magistrate"],
                ParamType::Void,
                |e, _ctx, _msg, (l, m)| {
                    Outcome::Reply(if e.class.table.add_magistrate(&l, m) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("AddMagistrate: no such row".into())
                    })
                },
            )
            .method::<(Loid, Loid), _>(
                class_proto::REMOVE_MAGISTRATE,
                &["loid", "magistrate"],
                ParamType::Void,
                |e, _ctx, _msg, (l, m)| {
                    Outcome::Reply(if e.class.table.remove_magistrate(&l, m) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("RemoveMagistrate: no such row".into())
                    })
                },
            )
            // §4.2.1 announcement from an externally started instance
            // (Host Object or Magistrate): record (or refresh) its row.
            .method::<(Loid, ObjectAddress), _>(
                class_proto::ANNOUNCE,
                &["loid", "address"],
                ParamType::Void,
                |e, ctx, _msg, (loid, address)| {
                    ctx.count("class.announcements");
                    if e.class.table.get(&loid).is_none() {
                        e.class.table.insert(loid, TableEntry::new(false));
                    }
                    e.class.table.set_address(&loid, Some(address));
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            // The interface this class confers on its *instances* —
            // run-time data, distinct from the intrinsic GetInterface.
            .method::<(), _>(
                class_proto::GET_INSTANCE_INTERFACE,
                &[],
                ParamType::Str,
                |e, _ctx, _msg, ()| {
                    let text = idl::render(&sanitize(&e.class.name), &e.class.interface);
                    Outcome::Reply(Ok(LegionValue::Str(text)))
                },
            )
            .method::<(), _>(
                legion_core::object::methods::PING,
                &[],
                ParamType::Uint,
                |e, _ctx, _msg, ()| {
                    Outcome::Reply(Ok(LegionValue::Uint(e.class.table.len() as u64)))
                },
            )
            .method::<(), _>(
                legion_core::object::methods::IAM,
                &[],
                ParamType::Loid,
                |e, _ctx, _msg, ()| Outcome::Reply(Ok(LegionValue::Loid(e.class.loid))),
            )
            .seal()
    }

    fn env(&self) -> InvocationEnv {
        InvocationEnv::solo(self.class.loid)
    }

    fn pick_magistrate(&mut self) -> Option<(Loid, ObjectAddressElement)> {
        if self.cfg.magistrates.is_empty() {
            return None;
        }
        let pick = self.cfg.magistrates[self.next_magistrate % self.cfg.magistrates.len()];
        self.next_magistrate += 1;
        Some(pick)
    }

    fn magistrate_element(&self, loid: &Loid) -> Option<ObjectAddressElement> {
        self.cfg
            .magistrates
            .iter()
            .find(|(l, _)| l == loid)
            .map(|(_, e)| *e)
    }

    // ----- handlers -------------------------------------------------------

    fn handle_create(&mut self, ctx: &mut Ctx<'_>, msg: &Message, a: CreateArgs) -> Outcome {
        let loid = match self.class.create_instance() {
            Ok(l) => l,
            Err(e) => {
                ctx.count("class.create_refused");
                return Outcome::Reply(Err(e.to_string()));
            }
        };
        let Some((mag_loid, mag_element)) = self.pick_magistrate() else {
            self.class.table.remove(&loid);
            return Outcome::Reply(Err("class has no candidate magistrates".into()));
        };
        self.class.table.add_magistrate(&loid, mag_loid);
        let spec = ActivationSpec {
            loid,
            class: self.class.loid,
            state: a.state,
            class_addr: Some(ctx.self_element()),
            magistrate_addr: Some(mag_element),
        };
        let env = self.env();
        let me = self.class.loid;
        match ctx.call(
            mag_element,
            mag_loid,
            mag_proto::CREATE_OBJECT,
            spec.to_args(),
            env,
            Some(me),
        ) {
            Some(call_id) => {
                ctx.count("class.creates");
                let requester = msg.clone();
                self.pend(
                    ctx,
                    call_id,
                    cont(
                        move |e: &mut Self, ctx, result| match naming_proto::binding_from_result(
                            &result,
                        ) {
                            Some(b) => {
                                e.class.table.set_address(&b.loid, Some(b.address.clone()));
                                let b = e.stamp(ctx, b);
                                ctx.reply(&requester, Ok(LegionValue::from(b)));
                            }
                            None => {
                                let err = match result {
                                    Err(err) => err,
                                    Ok(v) => format!("unexpected magistrate reply {v}"),
                                };
                                ctx.reply(&requester, Err(format!("Create failed: {err}")));
                            }
                        },
                    ),
                );
                Outcome::Pending
            }
            None => {
                self.class.table.remove(&loid);
                Outcome::Reply(Err(format!("magistrate {mag_loid} unreachable")))
            }
        }
    }

    fn handle_get_binding(&mut self, ctx: &mut Ctx<'_>, msg: &Message, arg: BindingArg) -> Outcome {
        let (target, refresh) = match arg {
            BindingArg::Loid(l) => (l, false),
            BindingArg::Binding(b) => (b.loid, true),
        };
        ctx.count("class.get_binding");
        let Some(entry) = self.class.table.get(&target) else {
            return Outcome::Reply(Err(format!("{}: unknown object {target}", self.class.loid)));
        };
        if !refresh {
            if let Some(addr) = &entry.address {
                let b = self.stamp(ctx, Binding::forever(target, addr.clone()));
                return Outcome::Reply(Ok(LegionValue::from(b)));
            }
        }
        // The address column is NIL (or suspect): consult a Magistrate
        // from the Current Magistrate List via Activate (§4.1.2).
        let Some(mag_loid) = entry.current_magistrates.first().copied() else {
            return Outcome::Reply(Err(format!(
                "{target} is Inert and has no magistrate on record"
            )));
        };
        if self.magistrate_element(&mag_loid).is_none() {
            return Outcome::Reply(Err(format!("magistrate {mag_loid} has no known address")));
        }
        let first = !self.binding_waiters.contains_key(&target);
        self.binding_waiters
            .entry(target)
            .or_default()
            .push(msg.clone());
        if first {
            ctx.count("class.activates_for_binding");
            self.consult_magistrate(ctx, target, mag_loid);
        }
        Outcome::Pending
    }

    /// Ask `magistrate` to activate `target` for a pending GetBinding.
    fn consult_magistrate(&mut self, ctx: &mut Ctx<'_>, target: Loid, magistrate: Loid) {
        let Some(mag_element) = self.magistrate_element(&magistrate) else {
            self.finish_binding(
                ctx,
                target,
                Err(format!("magistrate {magistrate} has no known address")),
            );
            return;
        };
        let env = self.env();
        let me = self.class.loid;
        match ctx.call(
            mag_element,
            magistrate,
            mag_proto::ACTIVATE,
            vec![LegionValue::Loid(target)],
            env,
            Some(me),
        ) {
            Some(call_id) => {
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| {
                        e.on_activate_for_binding(ctx, target, magistrate, result)
                    }),
                );
            }
            None => {
                self.finish_binding(
                    ctx,
                    target,
                    Err(format!("magistrate {magistrate} unreachable")),
                );
            }
        }
    }

    fn on_activate_for_binding(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Loid,
        magistrate: Loid,
        result: Result<LegionValue, String>,
    ) {
        match naming_proto::binding_from_result(&result) {
            Some(b) => self.finish_binding(ctx, target, Ok(b)),
            None => {
                let e = match result {
                    Err(e) => e,
                    Ok(v) => format!("unexpected magistrate reply {v}"),
                };
                // Self-healing (§3.7 list semantics): a magistrate that
                // disclaims the object leaves the row's Current Magistrate
                // List; try the next one.
                if e.contains("not managed") {
                    ctx.count("class.magistrate_disclaimed");
                    self.class.table.remove_magistrate(&target, magistrate);
                    let next = self
                        .class
                        .table
                        .get(&target)
                        .and_then(|row| row.current_magistrates.first().copied());
                    if let Some(next_mag) = next {
                        self.consult_magistrate(ctx, target, next_mag);
                        return;
                    }
                }
                self.finish_binding(ctx, target, Err(e));
            }
        }
    }

    /// Apply the configured TTL to an outgoing binding (§3.5: bindings
    /// carry "the time that the binding becomes invalid").
    fn stamp(&self, ctx: &Ctx<'_>, mut b: Binding) -> Binding {
        if let Some(ttl) = self.cfg.binding_ttl_ns {
            b.expiry = legion_core::time::Expiry::after(ctx.now(), ttl);
        }
        b
    }

    fn finish_binding(&mut self, ctx: &mut Ctx<'_>, target: Loid, result: Result<Binding, String>) {
        if let Ok(b) = &result {
            self.class
                .table
                .set_address(&target, Some(b.address.clone()));
        }
        let result = result.map(|b| self.stamp(ctx, b));
        for msg in self.binding_waiters.remove(&target).unwrap_or_default() {
            ctx.reply(&msg, result.clone().map(LegionValue::from));
        }
    }

    fn handle_derive(&mut self, ctx: &mut Ctx<'_>, msg: &Message, a: DeriveArgs) -> Outcome {
        if self.class.kind.is_private {
            ctx.count("class.derive_refused");
            return Outcome::Reply(Err(format!(
                "class {} is Private: Derive() is empty",
                self.class.loid
            )));
        }
        let env = self.env();
        let me = self.class.loid;
        let lc = self.cfg.legion_class;
        match ctx.call(
            lc,
            legion_core::wellknown::LEGION_CLASS,
            ISSUE_CLASS_ID,
            vec![LegionValue::Loid(me)],
            env,
            Some(me),
        ) {
            Some(call_id) => {
                ctx.count("class.derives");
                let requester = msg.clone();
                let DeriveArgs { name, kind } = a;
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| match result {
                        Ok(LegionValue::Uint(class_id)) => {
                            let b = e.spawn_subclass(ctx, class_id, name, kind);
                            ctx.reply(&requester, Ok(LegionValue::from(b)));
                        }
                        Ok(v) => {
                            ctx.reply(&requester, Err(format!("unexpected LegionClass reply {v}")));
                        }
                        Err(err) => {
                            ctx.reply(&requester, Err(format!("Derive failed: {err}")));
                        }
                    }),
                );
                Outcome::Pending
            }
            None => Outcome::Reply(Err("LegionClass unreachable".into())),
        }
    }

    fn spawn_subclass(
        &mut self,
        ctx: &mut Ctx<'_>,
        class_id: u64,
        name: String,
        kind: ClassKind,
    ) -> Binding {
        let loid = Loid::class_object(class_id);
        let mut sub = ClassObject::new(loid, name.clone(), kind);
        sub.superclass = Some(self.class.loid);
        // "A class that is derived from another class inherits the
        // superclass's member functions" — copy the interface wholesale.
        sub.interface = self.class.interface.clone();
        sub.default_scheduling_agent = self.class.default_scheduling_agent;
        let endpoint = ClassEndpoint::new(sub, self.cfg.clone());
        let loc = ctx.location();
        let ep = ctx.spawn(Box::new(endpoint), loc, format!("class:{name}"));
        // Record responsibility: our table row + its address.
        self.class
            .record_subclass(loid)
            .expect("Private checked earlier");
        let address = ObjectAddress::single(ep.element());
        self.class.table.set_address(&loid, Some(address.clone()));
        Binding::forever(loid, address)
    }

    fn handle_inherit_from(&mut self, ctx: &mut Ctx<'_>, msg: &Message, base: Loid) -> Outcome {
        if self.class.kind.is_fixed {
            ctx.count("class.inherit_refused");
            return Outcome::Reply(Err(format!(
                "class {} is Fixed: InheritFrom() is empty",
                self.class.loid
            )));
        }
        if base == self.class.loid {
            return Outcome::Reply(Err("a class cannot inherit from itself".into()));
        }
        // Resolve the base class, preferring our own table (it may be our
        // subclass), then the Binding Agent.
        let known = self
            .class
            .table
            .get(&base)
            .and_then(|e| e.address.clone())
            .map(|address| Binding::forever(base, address));
        match known {
            Some(b) => {
                self.fetch_base_interface(ctx, &b, msg.clone());
                Outcome::Pending
            }
            None => match &mut self.resolver {
                Some(resolver) => match resolver.lookup(ctx, base) {
                    Lookup::Cached(b) => {
                        self.fetch_base_interface(ctx, &b, msg.clone());
                        Outcome::Pending
                    }
                    Lookup::Requested(_) => {
                        self.inherit_waiters
                            .entry(base)
                            .or_default()
                            .push(msg.clone());
                        Outcome::Pending
                    }
                    Lookup::AgentUnreachable => {
                        Outcome::Reply(Err("binding agent unreachable".into()))
                    }
                },
                None => Outcome::Reply(Err(format!(
                    "cannot locate base {base}: no binding agent configured"
                ))),
            },
        }
    }

    /// Fetch the base's *instance* interface for an InheritFrom merge.
    /// Replies to `msg` itself on every path (also reached from the
    /// resolver's reply fan-out, where there is no dispatch outcome).
    fn fetch_base_interface(&mut self, ctx: &mut Ctx<'_>, base_binding: &Binding, msg: Message) {
        let Some(primary) = base_binding.address.primary().copied() else {
            ctx.reply(&msg, Err("base class has an empty address".into()));
            return;
        };
        let env = self.env();
        let me = self.class.loid;
        match ctx.call(
            primary,
            base_binding.loid,
            class_proto::GET_INSTANCE_INTERFACE,
            vec![],
            env,
            Some(me),
        ) {
            Some(call_id) => {
                let base = base_binding.loid;
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| {
                        e.on_base_interface(ctx, msg, base, result)
                    }),
                );
            }
            None => {
                ctx.reply(
                    &msg,
                    Err(format!("base class {} unreachable", base_binding.loid)),
                );
            }
        }
    }

    fn on_base_interface(
        &mut self,
        ctx: &mut Ctx<'_>,
        requester: Message,
        base: Loid,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(LegionValue::Str(text)) => match idl::parse_one(&text) {
                Ok(parsed) => {
                    let base_if = parsed.into_interface(base);
                    match self.class.inherit_from(base, &base_if) {
                        Ok(()) => {
                            ctx.count("class.inherits");
                            ctx.reply(&requester, Ok(LegionValue::Void));
                        }
                        Err(e) => {
                            ctx.reply(&requester, Err(e.to_string()));
                        }
                    }
                }
                Err(e) => {
                    ctx.reply(&requester, Err(format!("base interface unparseable: {e}")));
                }
            },
            Ok(v) => {
                ctx.reply(
                    &requester,
                    Err(format!("unexpected GetInterface reply {v}")),
                );
            }
            Err(e) => {
                ctx.reply(&requester, Err(format!("GetInterface failed: {e}")));
            }
        }
    }

    fn handle_delete(&mut self, ctx: &mut Ctx<'_>, msg: &Message, target: Loid) -> Outcome {
        let Some(entry) = self.class.table.get(&target) else {
            return Outcome::Reply(Err(format!("{}: unknown object {target}", self.class.loid)));
        };
        match entry.current_magistrates.first().copied() {
            Some(mag_loid) => {
                let Some(mag_element) = self.magistrate_element(&mag_loid) else {
                    return Outcome::Reply(Err(format!(
                        "magistrate {mag_loid} has no known address"
                    )));
                };
                let env = self.env();
                let me = self.class.loid;
                match ctx.call(
                    mag_element,
                    mag_loid,
                    mag_proto::DELETE,
                    vec![LegionValue::Loid(target)],
                    env,
                    Some(me),
                ) {
                    Some(call_id) => {
                        let requester = msg.clone();
                        self.pend(
                            ctx,
                            call_id,
                            cont(move |e: &mut Self, ctx, result| match result {
                                Ok(_) => {
                                    let _ = e.class.delete_child(&target);
                                    ctx.count("class.deletes");
                                    ctx.reply(&requester, Ok(LegionValue::Void));
                                }
                                Err(err) => {
                                    ctx.reply(&requester, Err(format!("Delete failed: {err}")));
                                }
                            }),
                        );
                        Outcome::Pending
                    }
                    None => {
                        // Magistrate gone; drop the row anyway.
                        let _ = self.class.delete_child(&target);
                        Outcome::Reply(Ok(LegionValue::Void))
                    }
                }
            }
            None => {
                let _ = self.class.delete_child(&target);
                Outcome::Reply(Ok(LegionValue::Void))
            }
        }
    }
}

impl Endpoint for ClassEndpoint {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag & SERVICE_TIMER_BIT != 0 {
            // Modeled service completion: serve the deferred call now and
            // record the caller-experienced response time (queue wait +
            // service) as this endpoint's SLO sample — the signal burn
            // events, and therefore the auto-scaler, run on.
            if let Some((msg, enqueued_at)) = self.deferred.remove(&(tag & !SERVICE_TIMER_BIT)) {
                let response_ns = ctx.now().as_nanos().saturating_sub(enqueued_at);
                ctx.slo_record(response_ns);
                let table = Rc::clone(&self.table);
                serve(&table, self, ctx, msg);
            }
            return;
        }
        if tag == TIMER_DEADLINE_SWEEP {
            fn conts(e: &mut ClassEndpoint) -> &mut Continuations<ClassEndpoint> {
                &mut e.continuations
            }
            let after_ns = self.call_deadline_ns.unwrap_or(0);
            let expired = sweep_expired(self, ctx, conts, after_ns);
            for _ in 0..expired {
                ctx.count("class.timeouts");
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            // Binding-agent replies feed the resolver first.
            if let Some((base, result)) = self.resolver.as_mut().and_then(|r| r.handle_reply(&msg))
            {
                let waiters = self.inherit_waiters.remove(&base).unwrap_or_default();
                match result {
                    Ok(binding) => {
                        for m in waiters {
                            self.fetch_base_interface(ctx, &binding, m);
                        }
                    }
                    Err(e) => {
                        for m in waiters {
                            ctx.reply(&m, Err(format!("cannot locate base {base}: {e}")));
                        }
                    }
                }
                return;
            }
            if let Some(id) = reply_id(&msg) {
                if let Some(resume) = self.continuations.take(&id) {
                    resume(self, ctx, take_reply_result(msg));
                }
            }
            return;
        }
        let Some(msg) = self.admit(ctx, msg) else {
            return;
        };
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

/// The LegionClass metaclass endpoint: Class Identifier authority and
/// responsibility-pair keeper (§3.2, §4.1.3).
pub struct LegionClassEndpoint {
    authority: LegionClassAuthority,
    class_bindings: HashMap<Loid, Binding>,
    table: Rc<MethodTable<Self>>,
}

impl Default for LegionClassEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl LegionClassEndpoint {
    /// A fresh metaclass endpoint.
    pub fn new() -> Self {
        LegionClassEndpoint {
            authority: LegionClassAuthority::new(),
            class_bindings: HashMap::new(),
            table: Self::table(),
        }
    }

    fn table() -> Rc<MethodTable<Self>> {
        TableBuilder::new(
            "legion_class",
            "LegionClass",
            legion_core::wellknown::LEGION_CLASS,
        )
        .get_interface()
        .method::<(Loid,), _>(
            ISSUE_CLASS_ID,
            &["creator"],
            ParamType::Uint,
            |e: &mut Self, ctx, _msg, (creator,)| {
                ctx.count("legion_class.issue");
                Outcome::Reply(
                    e.authority
                        .issue_class_id(creator)
                        .map(|(id, _)| LegionValue::Uint(id.0))
                        .map_err(|err| err.to_string()),
                )
            },
        )
        .method::<(Loid,), _>(
            FIND_RESPONSIBLE,
            &["target"],
            ParamType::Loid,
            |e, ctx, _msg, (target,)| {
                ctx.count("legion_class.find");
                Outcome::Reply(
                    e.authority
                        .find_responsible(&target)
                        .map(LegionValue::Loid)
                        .map_err(|err| err.to_string()),
                )
            },
        )
        .method::<(BindingArg,), _>(
            GET_BINDING,
            &["target"],
            ParamType::Binding,
            |e, ctx, _msg, (arg,)| {
                ctx.count("legion_class.get_binding");
                Outcome::Reply(match e.class_bindings.get(&arg.loid()) {
                    Some(b) => Ok(LegionValue::from(b.clone())),
                    None => Err(format!("LegionClass has no binding for {}", arg.loid())),
                })
            },
        )
        .seal()
    }

    /// Register a class binding LegionClass maintains directly (core
    /// classes at bootstrap).
    pub fn register_class_binding(&mut self, b: Binding) {
        self.class_bindings.insert(b.loid, b);
    }

    /// Adopt an externally started class (§4.2.1): LegionClass becomes the
    /// end of its responsibility chain, maintains its binding directly,
    /// and reserves its Class Identifier against future `IssueClassId`
    /// collisions.
    pub fn adopt_class(&mut self, binding: Binding) {
        let loid = binding.loid;
        self.authority
            .adopt(loid, legion_core::wellknown::LEGION_CLASS)
            .expect("adopting a class object");
        self.class_bindings.insert(loid, binding);
    }
}

impl Endpoint for LegionClassEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}
