//! Binding Agents (paper §3.6, §4.1, §5.2.2).
//!
//! A Binding Agent "acts on behalf of other Legion objects to bind LOID's
//! to Object Addresses". This endpoint implements the full §4.1 procedure:
//!
//! 1. answer from its **cache** when possible;
//! 2. otherwise consult its **parent** Binding Agent, if configured — the
//!    k-ary tree of §5.2.2 ("a software combining tree");
//! 3. otherwise locate the **responsible class** (locally for instances by
//!    zeroing the Class Specific field; via LegionClass responsibility
//!    pairs for classes) and ask it with `GetBinding()`.
//!
//! Concurrent requests for the same LOID are **combined**: only one
//! upstream request is in flight per target, and every waiter is answered
//! from the single reply — this is what makes the tree a combining tree.
//!
//! The `GetBinding(binding)` overload is a *refresh*: the stale binding is
//! evicted and the resolution bypasses both cache and parent, going
//! straight to the class ("the Binding Agent might contact the class
//! object for an updated binding", §3.6).
//!
//! Upstream replies resume typed continuations from the shared
//! [`Continuations`] store; each call is registered with a deadline and
//! a per-call timer drives the shared deadline sweep, which resolves
//! overdue continuations with the uniform timeout error — so the retry
//! policy lives in exactly one place.

use crate::cache::BindingCache;
use crate::protocol::{
    self, BindingArg, ADD_BINDING, FIND_RESPONSIBLE, GET_BINDING, INVALIDATE_BINDING,
};
use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_core::wellknown::{is_core_class, LEGION_CLASS};
use legion_net::dispatch::{
    cont, insert_pending, is_timeout, reply_id, serve, sweep_expired, take_reply_result,
    Continuation, Continuations, MethodTable, Outcome, TableBuilder,
};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use std::rc::Rc;

/// Configuration of one Binding Agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The agent's own LOID (an instance of `LegionBindingAgent`).
    pub loid: Loid,
    /// Cache capacity (bindings).
    pub cache_capacity: usize,
    /// Parent agent in the k-ary tree; `None` for roots, which go to
    /// classes directly.
    pub parent: Option<ObjectAddressElement>,
    /// Address of the LegionClass endpoint (bootstrap knowledge).
    pub legion_class: ObjectAddressElement,
    /// Per-request upstream timeout.
    pub request_timeout_ns: u64,
    /// Retries after a timeout before failing waiters.
    pub max_retries: u32,
    /// Ablation switch (experiment E3): a disabled cache never answers
    /// and never stores.
    pub cache_enabled: bool,
}

impl AgentConfig {
    /// A root agent with sane defaults.
    pub fn root(loid: Loid, legion_class: ObjectAddressElement) -> Self {
        AgentConfig {
            loid,
            cache_capacity: 4096,
            parent: None,
            legion_class,
            request_timeout_ns: 500_000_000, // 500 ms
            max_retries: 2,
            cache_enabled: true,
        }
    }

    /// Same, but with a parent (an interior/leaf node of the tree).
    pub fn with_parent(mut self, parent: ObjectAddressElement) -> Self {
        self.parent = Some(parent);
        self
    }
}

/// What a completed resolution must service.
enum Waiter {
    /// Reply to this original external call.
    External(Box<Message>),
    /// We resolved a *class*; now ask it for `next_target`'s binding.
    Chained { next_target: Loid },
}

/// Per-target in-flight bookkeeping (request combining).
struct Inflight {
    attempts: u32,
    /// Refresh resolutions bypass cache & parent.
    force_fresh: bool,
    /// The stale binding that triggered the refresh, forwarded to the
    /// class through the `GetBinding(binding)` overload so the class
    /// knows its own table entry is suspect (§3.6).
    stale: Option<Binding>,
}

/// The Binding Agent endpoint.
pub struct BindingAgentEndpoint {
    cfg: AgentConfig,
    cache: BindingCache,
    waiting: FxHashMap<Loid, Vec<Waiter>>,
    inflight: FxHashMap<Loid, Inflight>,
    continuations: Continuations<Self>,
    table: Rc<MethodTable<Self>>,
}

impl BindingAgentEndpoint {
    /// Build from config.
    pub fn new(cfg: AgentConfig) -> Self {
        let cache = BindingCache::new(cfg.cache_capacity);
        let table = Self::table(cfg.loid);
        BindingAgentEndpoint {
            cfg,
            cache,
            waiting: FxHashMap::default(),
            inflight: FxHashMap::default(),
            continuations: Continuations::new(),
            table,
        }
    }

    /// Cached binding count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("ba", "LegionBindingAgent", loid)
            .get_interface()
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e: &mut Self, ctx, msg, (arg,)| match arg {
                    BindingArg::Loid(l) => e.handle_get(ctx, msg, l, false, None),
                    BindingArg::Binding(stale) => {
                        // Refresh: evict the stale binding and bypass the
                        // cache and parent on the way to the class.
                        ctx.count("ba.refresh");
                        e.cache.invalidate_exact(&stale);
                        let target = stale.loid;
                        e.handle_get(ctx, msg, target, true, Some(stale))
                    }
                },
            )
            .method::<(BindingArg,), _>(
                INVALIDATE_BINDING,
                &["target"],
                ParamType::Void,
                |e: &mut Self, _ctx, _msg, (arg,)| {
                    match arg {
                        BindingArg::Loid(l) => {
                            e.cache.invalidate(&l);
                        }
                        BindingArg::Binding(b) => {
                            e.cache.invalidate_exact(&b);
                        }
                    }
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .method::<(Binding,), _>(
                ADD_BINDING,
                &["binding"],
                ParamType::Void,
                |e: &mut Self, _ctx, _msg, (b,)| {
                    // "used ... to explicitly propagate binding information
                    // for performance purposes" (§3.6).
                    if e.cfg.cache_enabled {
                        e.cache.insert(b);
                    }
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .seal()
    }

    // ----- resolution machinery -------------------------------------------

    fn handle_get(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        target: Loid,
        force_fresh: bool,
        stale: Option<Binding>,
    ) -> Outcome {
        if !force_fresh && self.cfg.cache_enabled {
            // `get_ref` + `binding_value`: a cache hit copies the binding
            // into a recycled shell instead of boxing a fresh clone.
            if let Some(b) = self.cache.get_ref(&target, ctx.now()) {
                ctx.count("ba.cache_hit");
                if ctx.trace_active() {
                    ctx.trace_note(&format!("ba.cache_hit:{target}"));
                }
                let value = ctx.binding_value(b);
                return Outcome::Reply(Ok(value));
            }
        }
        ctx.count("ba.cache_miss");
        if ctx.trace_active() {
            ctx.trace_note(&format!("ba.cache_miss:{target}"));
        }
        self.enqueue(
            ctx,
            target,
            Waiter::External(Box::new(msg.clone())),
            force_fresh,
            stale,
        );
        Outcome::Pending
    }

    /// Add a waiter for `target`, starting an upstream resolution if none
    /// is in flight (request combining).
    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Loid,
        waiter: Waiter,
        force_fresh: bool,
        stale: Option<Binding>,
    ) {
        self.waiting.entry(target).or_default().push(waiter);
        if let Some(inf) = self.inflight.get_mut(&target) {
            inf.force_fresh |= force_fresh;
            if inf.stale.is_none() {
                inf.stale = stale;
            }
            ctx.count("ba.combined");
            return;
        }
        self.inflight.insert(
            target,
            Inflight {
                attempts: 0,
                force_fresh,
                stale,
            },
        );
        self.start_upstream(ctx, target);
    }

    /// The continuation for an expected binding reply: timeouts retry,
    /// everything else completes the resolution.
    fn binding_continuation(target: Loid) -> Continuation<Self> {
        cont(
            move |e: &mut Self, ctx, result| match protocol::binding_from_result(&result) {
                Some(b) => e.complete(ctx, target, Ok(b)),
                None => {
                    let reason = match result {
                        Err(err) => err,
                        Ok(v) => format!("unexpected payload {v}"),
                    };
                    if is_timeout(&reason) {
                        e.retry_or_fail(ctx, target, &reason);
                    } else {
                        e.complete(ctx, target, Err(reason));
                    }
                }
            },
        )
    }

    /// The continuation for LegionClass's `FindResponsible(target)`.
    fn responsible_continuation(target: Loid) -> Continuation<Self> {
        cont(move |e: &mut Self, ctx, result| match result {
            Ok(LegionValue::Loid(responsible)) => {
                e.ensure_class_then_ask(ctx, responsible, target);
            }
            Ok(v) => {
                let v = format!("unexpected payload {v}");
                e.complete(ctx, target, Err(v));
            }
            Err(err) => {
                if is_timeout(&err) {
                    e.retry_or_fail(ctx, target, &err);
                } else {
                    e.complete(ctx, target, Err(err));
                }
            }
        })
    }

    /// Issue (or re-issue) the upstream request for `target`.
    fn start_upstream(&mut self, ctx: &mut Ctx<'_>, target: Loid) {
        let force_fresh = self
            .inflight
            .get(&target)
            .map(|i| i.force_fresh)
            .unwrap_or(false);

        // Route 1: parent agent — for *class objects* only (unless
        // refreshing). §5.2.2 is explicit about the division of labour:
        // on an instance miss "the Binding Agent consults the class
        // object of the object ... thus, the load is distributed to the
        // class objects", while the k-ary tree exists to "eliminate
        // traffic from 'leaf' Binding Agents to LegionClass" — i.e. the
        // combining tree carries class-object lookups.
        if !force_fresh && target.is_class() {
            if let Some(parent) = self.cfg.parent {
                ctx.count("ba.to_parent");
                let mut args = ctx.take_args();
                args.push(LegionValue::Loid(target));
                if self.send_pending(
                    ctx,
                    parent,
                    LEGION_CLASS, // nominal target loid of the call frame
                    GET_BINDING,
                    args,
                    Self::binding_continuation(target),
                ) {
                    return;
                }
                // Parent unreachable: fall through to the class route.
                ctx.count("ba.parent_unreachable");
            }
        }

        // Route 2: the responsible class.
        if !target.is_class() {
            // §4.1.3: derive the class LOID locally, then ask the class.
            let class = target.class_loid();
            self.ensure_class_then_ask(ctx, class, target);
        } else if target == LEGION_CLASS || is_core_class(&target) {
            // The chain ends at LegionClass, which "simply hands out the
            // appropriate binding".
            ctx.count("ba.to_legion_class");
            let lc = self.cfg.legion_class;
            let mut args = ctx.take_args();
            args.push(LegionValue::Loid(target));
            if !self.send_pending(
                ctx,
                lc,
                LEGION_CLASS,
                GET_BINDING,
                args,
                Self::binding_continuation(target),
            ) {
                self.complete(ctx, target, Err("LegionClass unreachable".into()));
            }
        } else {
            // A user class: ask LegionClass who is responsible, then ask
            // that class.
            ctx.count("ba.to_legion_class");
            let lc = self.cfg.legion_class;
            let mut args = ctx.take_args();
            args.push(LegionValue::Loid(target));
            if !self.send_pending(
                ctx,
                lc,
                LEGION_CLASS,
                FIND_RESPONSIBLE,
                args,
                Self::responsible_continuation(target),
            ) {
                self.complete(ctx, target, Err("LegionClass unreachable".into()));
            }
        }
    }

    /// Once we hold a binding for `class`, ask it for `next_target`.
    fn ensure_class_then_ask(&mut self, ctx: &mut Ctx<'_>, class: Loid, next_target: Loid) {
        if class == LEGION_CLASS {
            // LegionClass's address is bootstrap knowledge (§4.2.1): no
            // resolution needed, ask it directly — "LegionClass simply
            // hands out the appropriate binding".
            let b = Binding::forever(
                LEGION_CLASS,
                legion_core::address::ObjectAddress::single(self.cfg.legion_class),
            );
            self.ask_class(ctx, &b, next_target);
            return;
        }
        let cached = if self.cfg.cache_enabled {
            self.cache.get(&class, ctx.now())
        } else {
            None
        };
        if let Some(b) = cached {
            ctx.count("ba.class_addr_hit");
            self.ask_class(ctx, &b, next_target);
        } else {
            ctx.count("ba.class_addr_miss");
            self.enqueue(ctx, class, Waiter::Chained { next_target }, false, None);
        }
    }

    /// Send `GetBinding(next_target)` to a resolved class. A refresh
    /// travels as the `GetBinding(binding)` overload end to end, so the
    /// class bypasses its own (suspect) Object Address column and
    /// consults a Magistrate (§3.6, §4.1.4).
    fn ask_class(&mut self, ctx: &mut Ctx<'_>, class_binding: &Binding, next_target: Loid) {
        ctx.count("ba.to_class");
        let Some(primary) = class_binding.address.primary().copied() else {
            self.complete(ctx, next_target, Err("class has empty address".into()));
            return;
        };
        let arg = match self.inflight.get(&next_target) {
            Some(inf) if inf.force_fresh => {
                let stale = inf.stale.clone().unwrap_or_else(|| Binding {
                    loid: next_target,
                    address: legion_core::address::ObjectAddress {
                        elements: Vec::new(),
                        semantics: legion_core::address::AddressSemantics::Single,
                    },
                    expiry: legion_core::time::Expiry::Never,
                });
                LegionValue::from(stale)
            }
            _ => LegionValue::Loid(next_target),
        };
        let mut args = ctx.take_args();
        args.push(arg);
        if !self.send_pending(
            ctx,
            primary,
            class_binding.loid,
            GET_BINDING,
            args,
            Self::binding_continuation(next_target),
        ) {
            // The class endpoint itself is unreachable — its cached
            // binding is stale. Evict and retry through the full path.
            self.cache.invalidate(&class_binding.loid);
            self.retry_or_fail(ctx, next_target, "class unreachable");
        }
    }

    /// Send a call, register its continuation, and arm its timeout.
    /// Returns `false` on a detectable refusal (nothing registered).
    fn send_pending(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ObjectAddressElement,
        frame_target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        k: Continuation<Self>,
    ) -> bool {
        let env = InvocationEnv::solo(self.cfg.loid);
        match ctx.call(to, frame_target, method, args, env, Some(self.cfg.loid)) {
            Some(call_id) => {
                // Tag the sweep timer with the raw call id so traces stay
                // attributable to the call that armed them.
                insert_pending(
                    &mut self.continuations,
                    ctx,
                    call_id,
                    k,
                    Some(self.cfg.request_timeout_ns),
                    call_id.0,
                );
                true
            }
            None => false,
        }
    }

    fn retry_or_fail(&mut self, ctx: &mut Ctx<'_>, target: Loid, reason: &str) {
        let attempts = match self.inflight.get_mut(&target) {
            Some(inf) => {
                inf.attempts += 1;
                inf.attempts
            }
            None => return, // already completed
        };
        if attempts <= self.cfg.max_retries {
            ctx.count("ba.retry");
            self.start_upstream(ctx, target);
        } else {
            self.complete(ctx, target, Err(format!("binding failed: {reason}")));
        }
    }

    /// Finish a resolution: cache, then service every waiter.
    fn complete(&mut self, ctx: &mut Ctx<'_>, target: Loid, result: Result<Binding, String>) {
        self.inflight.remove(&target);
        if let Ok(b) = &result {
            if self.cfg.cache_enabled {
                self.cache.insert(b.clone());
            }
        }
        let waiters = self.waiting.remove(&target).unwrap_or_default();
        for w in waiters {
            match w {
                Waiter::External(msg) => {
                    let payload = match &result {
                        Ok(b) => Ok(ctx.binding_value(b)),
                        Err(e) => Err(format!("GetBinding({target}): {e}")),
                    };
                    ctx.reply(&msg, payload);
                }
                Waiter::Chained { next_target } => match &result {
                    Ok(class_binding) => {
                        let b = class_binding.clone();
                        self.ask_class(ctx, &b, next_target);
                    }
                    Err(e) => {
                        let e = e.clone();
                        self.complete(ctx, next_target, Err(e));
                    }
                },
            }
        }
    }
}

impl Endpoint for BindingAgentEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(id) = reply_id(&msg) {
            match self.continuations.take(&id) {
                Some(resume) => resume(self, ctx, take_reply_result(msg)),
                None => ctx.count("ba.late_reply"),
            }
            return;
        }
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        fn conts(e: &mut BindingAgentEndpoint) -> &mut Continuations<BindingAgentEndpoint> {
            &mut e.continuations
        }
        let after_ns = self.cfg.request_timeout_ns;
        let expired = sweep_expired(self, ctx, conts, after_ns);
        for _ in 0..expired {
            ctx.count("ba.timeout");
        }
    }
}
