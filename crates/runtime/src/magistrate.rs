//! Magistrates (paper §2.2, §3.8, Figure 11).
//!
//! "A Magistrate is in charge of a Jurisdiction ... The purpose of a
//! Magistrate is to perform the activation, deactivation, and migration of
//! the Legion objects under its control ... member function calls on
//! Magistrates should be thought of as requests rather than commands" —
//! a Magistrate may refuse anything its security policy dislikes.
//!
//! The endpoint implements the §3.8 member functions as asynchronous
//! state machines over the host and object endpoints:
//!
//! * `Activate(LOID[, host])` — load the OPR from jurisdiction storage,
//!   pick a host (Scheduling hook), `HostActivate`, record the Object
//!   Address, notify the class, answer every combined waiter;
//! * `Deactivate(LOID)` — `SaveState` on the object, write the OPR,
//!   `HostDeactivate`, clear the class's address column;
//! * `Delete(LOID)` — remove Active and Inert copies;
//! * `Copy/Move(LOID, LOID)` — deactivate if needed, ship the OPR bytes to
//!   the peer Magistrate (`ReceiveOpr`), optionally delete locally —
//!   exactly Figure 11's migration-through-storage path.
//!
//! Requests arrive through the shared dispatch layer: a [`MethodTable`]
//! routes them (MayI gate at the boundary — "requests rather than
//! commands"), and the multi-hop state machines are expressed as typed
//! continuations in a [`Continuations`] store rather than a hand-rolled
//! `Pending` enum. The heartbeat bypass (§3.9 liveness is not a request)
//! is an *ungated, one-way* registration on the same table.

use crate::protocol::{
    class as class_proto, host as host_proto, magistrate as mag_proto, ActivateArgs,
    ActivationSpec, ReceiveOprArgs,
};
use crate::scheduler::{HostView, LeastLoaded, SchedulingPolicy};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::dispatch::InvocationGate;
use legion_core::env::InvocationEnv;
use legion_core::event::KernelEventKind;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_methods;
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;
use legion_ha::detector::FailureDetector;
use legion_ha::policy::{Health, SuspicionPolicy};
use legion_ha::recovery::RecoveryTracker;
use legion_naming::stale;
use legion_net::dispatch::{
    cont, insert_pending, reply_id, serve, sweep_expired, take_reply_result, Continuations,
    MethodTable, Outcome, TableBuilder, TIMER_DEADLINE_SWEEP,
};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use legion_persist::opr::Opr;
use legion_persist::storage::{JurisdictionStorage, PersistentAddress};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::collections::HashMap;
use std::rc::Rc;

/// Where an object managed by this Magistrate currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjState {
    /// Running on `host`, reachable at `element`.
    Active {
        /// Host Object the process runs under.
        host: Loid,
        /// The object's endpoint element.
        element: ObjectAddressElement,
        /// With HA enabled: the OPR checkpoint retained at activation
        /// (§3.1's vault), so the object survives its host. `None` when
        /// HA is off — the OPR is consumed by activation as before.
        vault: Option<PersistentAddress>,
    },
    /// Resting in jurisdiction storage.
    Inert {
        /// Where the OPR lives.
        addr: PersistentAddress,
    },
}

/// Per-object record.
#[derive(Debug, Clone)]
struct ObjRecord {
    class: Loid,
    class_addr: Option<ObjectAddressElement>,
    state: ObjState,
}

struct HostRecord {
    loid: Loid,
    element: ObjectAddressElement,
    capacity: u32,
    assigned: u32,
    /// Cleared when a send to the host is refused (crashed Host Object);
    /// dead hosts are skipped by the scheduler until re-registered.
    alive: bool,
}

/// Follow-up work queued until an object reaches the Inert state.
enum AfterInert {
    /// Ship the OPR to a peer magistrate; optionally delete locally (Move).
    Ship {
        dst_magistrate: Loid,
        dst_element: ObjectAddressElement,
        delete_after: bool,
        requester: Box<Message>,
    },
}

/// Timer tag for the periodic failure-detector sweep (armed externally
/// after [`MagistrateEndpoint::enable_ha`]).
pub const TIMER_HA_SWEEP: u64 = 0x5357_4550; // "SWEP"

/// Failure-detection and recovery state (see
/// [`MagistrateEndpoint::enable_ha`]).
struct HaState {
    detector: FailureDetector,
    tracker: RecoveryTracker,
    sweep_interval_ns: u64,
    /// Stop re-arming the sweep once virtual time passes this (keeps
    /// experiment kernels quiescable).
    horizon_ns: u64,
    /// Binding Agents to invalidate through / push fresh bindings to
    /// when a recovered object comes back at a new address (§4.1.4).
    agents: Vec<ObjectAddressElement>,
}

/// Configuration of a Magistrate.
pub struct MagistrateConfig {
    /// The Magistrate's LOID (instance of a `LegionMagistrate` subclass).
    pub loid: Loid,
    /// The jurisdiction it governs.
    pub jurisdiction: u32,
    /// Address of its class, for the §4.2.1 announcement.
    pub class_addr: Option<ObjectAddressElement>,
    /// Disks and capacity of the jurisdiction's storage.
    pub disks: usize,
    /// Per-disk capacity in bytes.
    pub disk_capacity: u64,
}

/// The Magistrate endpoint.
pub struct MagistrateEndpoint {
    cfg: MagistrateConfig,
    storage: JurisdictionStorage,
    hosts: Vec<HostRecord>,
    policy: Box<dyn SchedulingPolicy>,
    mayi: Box<dyn MayIPolicy>,
    objects: HashMap<Loid, ObjRecord>,
    table: Rc<MethodTable<Self>>,
    continuations: Continuations<Self>,
    activate_waiters: HashMap<Loid, Vec<Message>>,
    after_inert: HashMap<Loid, Vec<AfterInert>>,
    peers: HashMap<Loid, ObjectAddressElement>,
    salt: u64,
    ha: Option<HaState>,
    /// When set, every outbound call's continuation expires after this
    /// many virtual ns and resolves with the uniform timeout error
    /// (instead of leaking forever if the reply is lost). `None` — the
    /// default — preserves wait-forever behavior: no timers are armed.
    call_deadline_ns: Option<u64>,
}

impl MagistrateEndpoint {
    /// A Magistrate with the default (least-loaded) scheduling and the
    /// permissive security default.
    pub fn new(cfg: MagistrateConfig) -> Self {
        let storage = JurisdictionStorage::new(cfg.jurisdiction, cfg.disks, cfg.disk_capacity);
        MagistrateEndpoint {
            storage,
            hosts: Vec::new(),
            policy: Box::new(LeastLoaded),
            mayi: Box::new(AllowAll),
            objects: HashMap::new(),
            table: Self::table(cfg.loid),
            continuations: Continuations::new(),
            activate_waiters: HashMap::new(),
            after_inert: HashMap::new(),
            peers: HashMap::new(),
            salt: 0,
            ha: None,
            call_deadline_ns: None,
            cfg,
        }
    }

    /// Expire outstanding call continuations after `deadline_ns` (see
    /// the `call_deadline_ns` field). Opt-in; chaos campaigns enable it
    /// so lost replies surface as timeouts instead of leaked state.
    pub fn set_call_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.call_deadline_ns = deadline_ns;
    }

    /// Outstanding (unresolved) call continuations — zero after
    /// quiescence in a healthy run.
    pub fn outstanding_continuations(&self) -> usize {
        self.continuations.len()
    }

    /// Register an outbound call's continuation under the deadline policy.
    fn pend(
        &mut self,
        ctx: &mut Ctx<'_>,
        call_id: legion_net::message::CallId,
        k: legion_net::dispatch::Continuation<Self>,
    ) {
        insert_pending(
            &mut self.continuations,
            ctx,
            call_id,
            k,
            self.call_deadline_ns,
            TIMER_DEADLINE_SWEEP,
        );
    }

    /// The §3.8 method table. Every member function is gated ("requests
    /// rather than commands"); `Heartbeat` is registered ungated and
    /// one-way — a paranoid policy must not blind the failure detector,
    /// and a dead Magistrate must not wedge its hosts.
    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("magistrate", "LegionMagistrate", loid)
            .gate(|e: &Self| &e.mayi as &dyn InvocationGate)
            .method::<ActivateArgs, _>(
                mag_proto::ACTIVATE,
                &["target", "host"],
                ParamType::Binding,
                |e, ctx, msg, args| e.handle_activate(ctx, msg, args),
            )
            .method::<(Loid,), _>(
                mag_proto::DEACTIVATE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| {
                    e.begin_deactivate(ctx, loid, Some(Box::new(msg.clone())));
                    Outcome::Pending
                },
            )
            .method::<(Loid,), _>(
                mag_proto::DELETE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| e.handle_delete(ctx, msg, loid),
            )
            .method::<(Loid, Loid), _>(
                mag_proto::COPY,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid, dst)| {
                    e.handle_copy_or_move(ctx, msg, loid, dst, false)
                },
            )
            .method::<(Loid, Loid), _>(
                mag_proto::MOVE,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid, dst)| {
                    e.handle_copy_or_move(ctx, msg, loid, dst, true)
                },
            )
            .method::<ActivationSpec, _>(
                mag_proto::CREATE_OBJECT,
                &["loid", "class", "state", "class_addr", "magistrate_addr"],
                ParamType::Binding,
                |e, ctx, msg, spec| e.handle_create_object(ctx, msg, spec),
            )
            .method::<ReceiveOprArgs, _>(
                mag_proto::RECEIVE_OPR,
                &["loid", "class", "opr", "class_addr"],
                ParamType::Void,
                |e, ctx, _msg, args| e.handle_receive_opr(ctx, args),
            )
            .ungated_method::<(Loid, u64), _>(
                legion_ha::protocol::HEARTBEAT,
                &["host", "running"],
                ParamType::Void,
                |e: &mut Self, ctx, _msg, (host, _running)| {
                    e.handle_heartbeat(ctx, host);
                    Outcome::NoReply
                },
            )
            .get_interface()
            .seal()
    }

    /// Enable heartbeat failure detection and automatic recovery. Every
    /// currently registered host is monitored from `now`; silence is
    /// classified by `policy` each sweep, and a Dead verdict triggers the
    /// recovery driver (re-activate lost objects from their vault OPRs on
    /// surviving hosts, invalidate stale bindings through `agents`).
    ///
    /// Configuration happens after `on_start` has already run, so the
    /// first sweep timer must be armed externally:
    /// `SimKernel::set_timer(magistrate_ep, sweep_interval_ns,
    /// TIMER_HA_SWEEP)`.
    pub fn enable_ha(
        &mut self,
        policy: Box<dyn SuspicionPolicy>,
        heartbeat_interval_ns: u64,
        sweep_interval_ns: u64,
        horizon_ns: u64,
        agents: Vec<ObjectAddressElement>,
        now: legion_core::time::SimTime,
    ) {
        let mut detector = FailureDetector::new(policy, heartbeat_interval_ns);
        for h in &self.hosts {
            if h.alive {
                detector.register(h.loid, now);
            }
        }
        self.ha = Some(HaState {
            detector,
            tracker: RecoveryTracker::new(),
            sweep_interval_ns,
            horizon_ns,
            agents,
        });
    }

    /// Recovery accounting, when HA is enabled.
    pub fn ha_tracker(&self) -> Option<&RecoveryTracker> {
        self.ha.as_ref().map(|h| &h.tracker)
    }

    /// Detector's view of a host's health, when HA is enabled.
    pub fn host_health(&self, loid: &Loid) -> Option<Health> {
        self.ha.as_ref().and_then(|h| h.detector.health(loid))
    }

    /// Replace the scheduling policy (a Scheduling Agent hook, §3.8).
    pub fn with_policy(mut self, policy: Box<dyn SchedulingPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the security policy — "a Magistrate has the authority to
    /// reject requests".
    pub fn with_mayi(mut self, mayi: Box<dyn MayIPolicy>) -> Self {
        self.mayi = mayi;
        self
    }

    /// Register a host in this jurisdiction (bootstrap wiring).
    pub fn add_host(&mut self, loid: Loid, element: ObjectAddressElement, capacity: u32) {
        self.hosts.push(HostRecord {
            loid,
            element,
            capacity,
            assigned: 0,
            alive: true,
        });
    }

    /// Register a peer magistrate for Copy/Move by LOID.
    pub fn add_peer(&mut self, loid: Loid, element: ObjectAddressElement) {
        self.peers.insert(loid, element);
    }

    /// The Magistrate's LOID.
    pub fn loid(&self) -> Loid {
        self.cfg.loid
    }

    /// Current state of an object, if managed here.
    pub fn object_state(&self, loid: &Loid) -> Option<&ObjState> {
        self.objects.get(loid).map(|r| &r.state)
    }

    /// Number of managed objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Jurisdiction storage statistics: `(files, bytes)`.
    pub fn storage_usage(&self) -> (usize, u64) {
        (self.storage.file_count(), self.storage.used())
    }

    // ----- helpers ---------------------------------------------------------

    fn host_views(&self) -> Vec<HostView> {
        self.hosts
            .iter()
            .filter(|h| h.alive)
            .map(|h| HostView {
                loid: h.loid,
                load: h.assigned,
                capacity: h.capacity,
            })
            .collect()
    }

    fn mark_host_dead(&mut self, loid: &Loid) {
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == *loid) {
            h.alive = false;
        }
    }

    fn host_element(&self, loid: &Loid) -> Option<ObjectAddressElement> {
        self.hosts
            .iter()
            .find(|h| h.loid == *loid)
            .map(|h| h.element)
    }

    fn bump_host(&mut self, loid: &Loid, delta: i64) {
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == *loid) {
            h.assigned = (h.assigned as i64 + delta).max(0) as u32;
        }
    }

    fn notify_class(
        &mut self,
        ctx: &mut Ctx<'_>,
        class_addr: Option<ObjectAddressElement>,
        class: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) {
        if let Some(addr) = class_addr {
            let me = self.cfg.loid;
            ctx.call(addr, class, method, args, InvocationEnv::solo(me), Some(me));
        }
    }

    /// Answer every queued Activate waiter for `loid`. This is also the
    /// single point every activation — including a crash recovery —
    /// concludes at, so the HA bookkeeping hooks in here.
    fn answer_activate_waiters(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        result: Result<Binding, String>,
    ) {
        let me = self.cfg.loid;
        if let Some(ha) = &mut self.ha {
            if ha.tracker.recovering(&loid) {
                match &result {
                    Ok(b) => {
                        ha.tracker.object_recovered(&loid, ctx.now());
                        ctx.count("magistrate.ha_recovered");
                        ctx.trace_note("ha.object_recovered");
                        // Push the fresh binding down the agent tree so
                        // clients stop chasing the dead address (§4.1.4's
                        // "explicitly propagating news").
                        let agents = ha.agents.clone();
                        stale::propagate_binding(ctx, me, &agents, b);
                    }
                    Err(_) => {
                        ha.tracker.object_lost(&loid);
                        ctx.count("magistrate.ha_object_lost");
                        ctx.trace_note("ha.object_lost");
                    }
                }
            }
        }
        for msg in self.activate_waiters.remove(&loid).unwrap_or_default() {
            let payload = result.clone().map(LegionValue::from);
            ctx.reply(&msg, payload);
        }
    }

    /// Begin activation of an Inert object. Waiters must already be
    /// queued in `activate_waiters[loid]`.
    fn start_activation(&mut self, ctx: &mut Ctx<'_>, loid: Loid, host_hint: Option<Loid>) {
        let Some(record) = self.objects.get(&loid) else {
            self.answer_activate_waiters(ctx, loid, Err(format!("{loid} not managed here")));
            return;
        };
        let ObjState::Inert { addr } = &record.state else {
            // Raced: became Active already.
            if let ObjState::Active { element, .. } = &record.state {
                let b = Binding::forever(loid, ObjectAddress::single(*element));
                self.answer_activate_waiters(ctx, loid, Ok(b));
            }
            return;
        };
        let opr = match self.storage.load_opr(addr) {
            Ok(o) => o,
            Err(e) => {
                ctx.count("magistrate.opr_load_failed");
                self.answer_activate_waiters(ctx, loid, Err(format!("OPR load failed: {e}")));
                return;
            }
        };
        let class = record.class;
        let class_addr = record.class_addr;
        self.dispatch_to_host(ctx, loid, class, opr.state, class_addr, host_hint, 0);
    }

    /// Pick a host and send `HostActivate`. The reply resumes
    /// [`Self::on_host_activate_reply`] through the continuation store.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_to_host(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        class: Loid,
        state: Vec<u8>,
        class_addr: Option<ObjectAddressElement>,
        host_hint: Option<Loid>,
        attempts: u32,
    ) {
        self.salt += 1;
        let views = self.host_views();
        let chosen = host_hint
            .filter(|h| views.iter().any(|v| v.loid == *h && v.free() > 0))
            .or_else(|| self.policy.pick(&views, self.salt));
        let Some(host) = chosen else {
            ctx.count("magistrate.no_host");
            self.answer_activate_waiters(ctx, loid, Err("no host with free capacity".into()));
            return;
        };
        let Some(host_element) = self.host_element(&host) else {
            self.answer_activate_waiters(ctx, loid, Err(format!("unknown host {host}")));
            return;
        };
        let spec = ActivationSpec {
            loid,
            class,
            state: state.clone(),
            class_addr,
            magistrate_addr: Some(ctx.self_element()),
        };
        let me = self.cfg.loid;
        match ctx.call(
            host_element,
            host,
            host_proto::ACTIVATE,
            spec.to_args(),
            InvocationEnv::solo(me),
            Some(me),
        ) {
            Some(call_id) => {
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| {
                        e.on_host_activate_reply(ctx, loid, host, attempts, result)
                    }),
                );
            }
            None => {
                // The Host Object is dead (§2.3's "reaping" case): skip it
                // for future placements and try another host.
                ctx.count("magistrate.host_dead");
                self.mark_host_dead(&host);
                if attempts < 3 {
                    self.dispatch_to_host(ctx, loid, class, state, class_addr, None, attempts + 1);
                } else {
                    self.answer_activate_waiters(
                        ctx,
                        loid,
                        Err(format!("host {host} unreachable")),
                    );
                }
            }
        }
    }

    /// Run queued after-inert work (shipping for Copy/Move).
    fn run_after_inert(&mut self, ctx: &mut Ctx<'_>, loid: Loid) {
        let jobs = self.after_inert.remove(&loid).unwrap_or_default();
        for job in jobs {
            match job {
                AfterInert::Ship {
                    dst_magistrate,
                    dst_element,
                    delete_after,
                    requester,
                } => self.ship(
                    ctx,
                    loid,
                    dst_magistrate,
                    dst_element,
                    delete_after,
                    requester,
                ),
            }
        }
    }

    fn ship(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        dst_magistrate: Loid,
        dst_element: ObjectAddressElement,
        delete_after: bool,
        requester: Box<Message>,
    ) {
        let Some(record) = self.objects.get(&loid) else {
            ctx.reply(&requester, Err(format!("{loid} not managed here")));
            return;
        };
        let ObjState::Inert { addr } = &record.state else {
            ctx.reply(
                &requester,
                Err(format!("{loid} is not Inert after deactivation")),
            );
            return;
        };
        let bytes = match self.storage.read_raw(addr) {
            Ok(b) => b,
            Err(e) => {
                ctx.reply(&requester, Err(format!("read OPR failed: {e}")));
                return;
            }
        };
        let class = record.class;
        let class_addr = record.class_addr;
        let me = self.cfg.loid;
        let class_addr_val = match class_addr {
            Some(e) => LegionValue::Address(ObjectAddress::single(e)),
            None => LegionValue::Void,
        };
        match ctx.call(
            dst_element,
            dst_magistrate,
            mag_proto::RECEIVE_OPR,
            vec![
                LegionValue::Loid(loid),
                LegionValue::Loid(class),
                LegionValue::Bytes(bytes),
                class_addr_val,
            ],
            InvocationEnv::solo(me),
            Some(me),
        ) {
            Some(call_id) => {
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| {
                        e.on_ship_reply(ctx, loid, delete_after, requester, result)
                    }),
                );
            }
            None => {
                ctx.reply(
                    &requester,
                    Err(format!("magistrate {dst_magistrate} unreachable")),
                );
            }
        }
    }

    // ----- failure detection and recovery -----------------------------------

    /// A Host Object reported in. Fire-and-forget: no reply.
    fn handle_heartbeat(&mut self, ctx: &mut Ctx<'_>, host: Loid) {
        ctx.count("magistrate.heartbeats");
        let Some(ha) = &mut self.ha else {
            return;
        };
        let Some(transition) = ha.detector.heartbeat(host, ctx.now()) else {
            return;
        };
        // A Suspect (or, with message loss, even Dead) host turned out to
        // be alive: re-admit it to scheduling. Its objects may already
        // have been re-homed elsewhere — the class's address row points at
        // the recovered copies, so any survivors on the resurrected host
        // are unreferenced orphans awaiting the §2.3 reap.
        if transition.from == Health::Dead {
            ha.tracker.false_positive();
            ctx.count("magistrate.ha_false_positive");
            ctx.trace_note("ha.false_positive");
            ctx.flight(KernelEventKind::HaVerdict, symbol::HA_FALSE_POSITIVE, 0);
        }
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == host) {
            h.alive = true;
        }
    }

    /// Periodic detector sweep: classify every monitored host, recover
    /// the objects of any host newly confirmed Dead.
    fn ha_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ha) = &mut self.ha else {
            return;
        };
        let now = ctx.now();
        let transitions = ha.detector.sweep(now);
        let sweep_interval = ha.sweep_interval_ns;
        let horizon = ha.horizon_ns;
        for t in transitions {
            match t.to {
                Health::Suspect => {
                    ctx.count("magistrate.ha_suspect");
                    ctx.flight(KernelEventKind::HaVerdict, symbol::HA_SUSPECT, t.silence_ns);
                }
                Health::Dead => self.recover_host(ctx, t.host, t.silence_ns),
                Health::Alive => {}
            }
        }
        if now.0.saturating_add(sweep_interval) <= horizon {
            ctx.set_timer(sweep_interval, TIMER_HA_SWEEP);
        }
    }

    /// A host is confirmed dead: re-activate everything it was running
    /// from the vault OPRs, on surviving hosts.
    fn recover_host(&mut self, ctx: &mut Ctx<'_>, host: Loid, silence_ns: u64) {
        ctx.count("magistrate.ha_host_dead");
        ctx.flight(KernelEventKind::HaVerdict, symbol::HA_HOST_DEAD, silence_ns);
        self.mark_host_dead(&host);
        if let Some(ha) = &mut self.ha {
            ha.tracker.host_dead(silence_ns);
        }
        // Root span for this host's recovery: the HostActivate calls made
        // below inherit it, so their replies (and the completion notes in
        // `answer_activate_waiters`) stay causally linked to the verdict.
        // The labels are rendered only when a sink is actually attached.
        if ctx.tracing_enabled() {
            ctx.trace_begin(&format!("ha.recovery:{host}"));
            ctx.trace_note(&format!("ha.detected:silence={silence_ns}ns"));
        }
        let mut lost: Vec<Loid> = self
            .objects
            .iter()
            .filter(|(_, r)| matches!(&r.state, ObjState::Active { host: h, .. } if *h == host))
            .map(|(l, _)| *l)
            .collect();
        lost.sort(); // deterministic recovery order
        for loid in lost {
            self.recover_object(ctx, loid, host);
        }
        ctx.trace_end("ha.recovery-dispatched");
    }

    /// Re-home one object that died with `dead_host`.
    fn recover_object(&mut self, ctx: &mut Ctx<'_>, loid: Loid, dead_host: Loid) {
        let me = self.cfg.loid;
        // Duplicated or replayed recovery triggers (a flapping detector,
        // a duplicated host-dead verdict) must not re-activate an object
        // whose recovery is already in flight: exactly one activation per
        // LOID per incident.
        if let Some(ha) = &self.ha {
            if ha.tracker.recovering(&loid) {
                ctx.count("magistrate.ha_duplicate_trigger");
                return;
            }
        }
        let Some(record) = self.objects.get(&loid) else {
            return;
        };
        let ObjState::Active { vault, .. } = &record.state else {
            return;
        };
        let Some(vault) = vault.clone() else {
            // No checkpoint to restart from (HA was enabled after this
            // activation): the object is gone until someone re-creates it.
            ctx.count("magistrate.ha_unrecoverable");
            ctx.trace_note("ha.unrecoverable");
            self.bump_host(&dead_host, -1);
            return;
        };
        let (class, class_addr) = (record.class, record.class_addr);
        self.bump_host(&dead_host, -1);
        // Back to Inert at the vault checkpoint, then through the normal
        // activation path — the scheduler picks a surviving host.
        self.objects.get_mut(&loid).expect("checked above").state = ObjState::Inert { addr: vault };
        let agents = if let Some(ha) = &mut self.ha {
            ha.tracker.begin_object(loid, ctx.now());
            ha.agents.clone()
        } else {
            Vec::new()
        };
        ctx.count("magistrate.ha_recoveries");
        ctx.flight(
            KernelEventKind::HaVerdict,
            symbol::HA_RECOVERED,
            loid.class_specific,
        );
        // The old binding is now stale everywhere: purge agent caches and
        // clear the class's address row until re-activation sets it.
        stale::propagate_invalidation(ctx, me, &agents, loid);
        self.notify_class(
            ctx,
            class_addr,
            class,
            class_proto::SET_ADDRESS,
            vec![LegionValue::Loid(loid), LegionValue::Void],
        );
        self.start_activation(ctx, loid, None);
    }

    // ----- request handlers --------------------------------------------------

    fn handle_activate(&mut self, ctx: &mut Ctx<'_>, msg: &Message, args: ActivateArgs) -> Outcome {
        let ActivateArgs { loid, host: hint } = args;
        match self.objects.get(&loid) {
            None => Outcome::Reply(Err(format!("{loid} not managed by {}", self.cfg.loid))),
            Some(r) => match &r.state {
                ObjState::Active { element, .. } => {
                    ctx.count("magistrate.activate_already_active");
                    let b = Binding::forever(loid, ObjectAddress::single(*element));
                    Outcome::Reply(Ok(LegionValue::from(b)))
                }
                ObjState::Inert { .. } => {
                    ctx.count("magistrate.activations");
                    let first = !self.activate_waiters.contains_key(&loid);
                    self.activate_waiters
                        .entry(loid)
                        .or_default()
                        .push(msg.clone());
                    if first {
                        self.start_activation(ctx, loid, hint);
                    }
                    Outcome::Pending
                }
            },
        }
    }

    fn handle_create_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        spec: ActivationSpec,
    ) -> Outcome {
        if self.objects.contains_key(&spec.loid) {
            return Outcome::Reply(Err(format!("{} already managed here", spec.loid)));
        }
        ctx.count("magistrate.creations");
        // Record a provisional Inert entry by writing the initial OPR;
        // then activate it immediately.
        let opr = Opr::new(spec.loid, spec.class, 0, spec.state.clone());
        let addr = match self.storage.store_opr(&opr) {
            Ok(a) => a,
            Err(e) => {
                return Outcome::Reply(Err(format!("initial OPR store failed: {e}")));
            }
        };
        self.objects.insert(
            spec.loid,
            ObjRecord {
                class: spec.class,
                class_addr: spec.class_addr,
                state: ObjState::Inert { addr },
            },
        );
        self.activate_waiters
            .entry(spec.loid)
            .or_default()
            .push(msg.clone());
        self.start_activation(ctx, spec.loid, None);
        Outcome::Pending
    }

    /// Start a deactivation; `requester` (if any) gets the final reply.
    fn begin_deactivate(&mut self, ctx: &mut Ctx<'_>, loid: Loid, requester: Option<Box<Message>>) {
        let Some(record) = self.objects.get(&loid) else {
            if let Some(req) = requester {
                ctx.reply(&req, Err(format!("{loid} not managed here")));
            }
            return;
        };
        let ObjState::Active { element, .. } = &record.state else {
            // Already Inert: fine (idempotent), and after-inert work can run.
            if let Some(req) = requester {
                ctx.reply(&req, Ok(LegionValue::Void));
            }
            self.run_after_inert(ctx, loid);
            return;
        };
        ctx.count("magistrate.deactivations");
        let me = self.cfg.loid;
        match ctx.call(
            *element,
            loid,
            obj_methods::SAVE_STATE,
            vec![],
            InvocationEnv::solo(me),
            Some(me),
        ) {
            Some(call_id) => {
                self.pend(
                    ctx,
                    call_id,
                    cont(move |e: &mut Self, ctx, result| {
                        e.on_save_state_reply(ctx, loid, requester, result)
                    }),
                );
            }
            None => {
                if let Some(req) = requester {
                    ctx.reply(&req, Err(format!("{loid} unreachable for SaveState")));
                }
            }
        }
    }

    fn handle_delete(&mut self, ctx: &mut Ctx<'_>, msg: &Message, loid: Loid) -> Outcome {
        let Some(record) = self.objects.get(&loid) else {
            return Outcome::Reply(Err(format!("{loid} not managed here")));
        };
        ctx.count("magistrate.deletions");
        match record.state.clone() {
            ObjState::Active { host, .. } => {
                // Kill the process, then finish deletion on reply.
                let Some(host_element) = self.host_element(&host) else {
                    return Outcome::Reply(Err(format!("unknown host {host}")));
                };
                let me = self.cfg.loid;
                match ctx.call(
                    host_element,
                    host,
                    host_proto::DEACTIVATE,
                    vec![LegionValue::Loid(loid)],
                    InvocationEnv::solo(me),
                    Some(me),
                ) {
                    Some(call_id) => {
                        let requester = Box::new(msg.clone());
                        // Whether or not the host succeeds, finish the
                        // delete when it answers.
                        self.pend(
                            ctx,
                            call_id,
                            cont(move |e: &mut Self, ctx, _result| {
                                e.finish_delete(ctx, loid, requester)
                            }),
                        );
                        Outcome::Pending
                    }
                    None => {
                        // Host gone: drop the record anyway.
                        self.finish_delete(ctx, loid, Box::new(msg.clone()));
                        Outcome::Pending
                    }
                }
            }
            ObjState::Inert { .. } => {
                self.finish_delete(ctx, loid, Box::new(msg.clone()));
                Outcome::Pending
            }
        }
    }

    fn finish_delete(&mut self, ctx: &mut Ctx<'_>, loid: Loid, requester: Box<Message>) {
        if let Some(record) = self.objects.remove(&loid) {
            if let ObjState::Inert { addr } = &record.state {
                let _ = self.storage.delete(addr);
            }
            if let ObjState::Active { host, vault, .. } = &record.state {
                if let Some(vault) = vault {
                    let _ = self.storage.delete(vault);
                }
                self.bump_host(&host.clone(), -1);
            }
            // The class row update is driven by the class (it called us);
            // still clear the address column defensively.
            self.notify_class(
                ctx,
                record.class_addr,
                record.class,
                class_proto::REMOVE_MAGISTRATE,
                vec![LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
            );
        }
        ctx.reply(&requester, Ok(LegionValue::Void));
    }

    fn handle_copy_or_move(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        loid: Loid,
        dst: Loid,
        delete_after: bool,
    ) -> Outcome {
        let Some(dst_element) = self.peers.get(&dst).copied() else {
            return Outcome::Reply(Err(format!("unknown peer magistrate {dst}")));
        };
        if !self.objects.contains_key(&loid) {
            return Outcome::Reply(Err(format!("{loid} not managed here")));
        }
        ctx.count(if delete_after {
            "magistrate.moves"
        } else {
            "magistrate.copies"
        });
        self.after_inert
            .entry(loid)
            .or_default()
            .push(AfterInert::Ship {
                dst_magistrate: dst,
                dst_element,
                delete_after,
                requester: Box::new(msg.clone()),
            });
        // "This function causes the Magistrate to deactivate the object,
        // creating an OPR, and to send the OPR to the other Magistrate."
        self.begin_deactivate(ctx, loid, None);
        Outcome::Pending
    }

    fn handle_receive_opr(&mut self, ctx: &mut Ctx<'_>, args: ReceiveOprArgs) -> Outcome {
        let ReceiveOprArgs {
            loid,
            class,
            opr: bytes,
            class_addr,
        } = args;
        // Validate before storing: a corrupt OPR is refused here, not at
        // some future activation.
        if let Err(e) = Opr::decode(&bytes) {
            ctx.count("magistrate.receive_corrupt");
            return Outcome::Reply(Err(format!("refused corrupt OPR: {e}")));
        }
        let addr = self.storage.reserve_address(&loid);
        if let Err(e) = self.storage.store_at(&addr, bytes) {
            return Outcome::Reply(Err(format!("store failed: {e}")));
        }
        ctx.count("magistrate.received_oprs");
        self.objects.insert(
            loid,
            ObjRecord {
                class,
                class_addr,
                state: ObjState::Inert { addr },
            },
        );
        // Tell the class this magistrate now holds an OPR (Current
        // Magistrate List maintenance, §3.7).
        self.notify_class(
            ctx,
            class_addr,
            class,
            class_proto::ADD_MAGISTRATE,
            vec![LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
        );
        Outcome::Reply(Ok(LegionValue::Void))
    }

    // ----- continuation handlers ---------------------------------------------

    /// The host replied to `HostActivate(loid)`.
    fn on_host_activate_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        host: Loid,
        attempts: u32,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(LegionValue::Address(addr)) => {
                let element = addr.primary().copied();
                let Some(element) = element else {
                    self.answer_activate_waiters(
                        ctx,
                        loid,
                        Err("host returned empty address".into()),
                    );
                    return;
                };
                // The record may have vanished while the host was
                // starting the process (a racing Move/Delete): the
                // fresh process is an orphan — reap it (§2.3's "a Host
                // Object is responsible for ... reaping objects").
                if !self.objects.contains_key(&loid) {
                    ctx.count("magistrate.orphan_reaped");
                    if let Some(host_element) = self.host_element(&host) {
                        let me = self.cfg.loid;
                        ctx.call(
                            host_element,
                            host,
                            host_proto::DEACTIVATE,
                            vec![LegionValue::Loid(loid)],
                            InvocationEnv::solo(me),
                            Some(me),
                        );
                    }
                    self.answer_activate_waiters(
                        ctx,
                        loid,
                        Err(format!("{loid} was removed during activation")),
                    );
                    return;
                }
                // Mark Active. With HA on, the Inert OPR is retained
                // as the vault checkpoint the object restarts from if
                // this host dies; without HA it is consumed as before
                // (rewritten at the next deactivation).
                let keep_vault = self.ha.is_some();
                let (class, class_addr) = {
                    let record = self.objects.get_mut(&loid).expect("checked above");
                    let vault = match &record.state {
                        ObjState::Inert { addr } if keep_vault => Some(addr.clone()),
                        ObjState::Inert { addr } => {
                            let _ = self.storage.delete(addr);
                            None
                        }
                        _ => None,
                    };
                    record.state = ObjState::Active {
                        host,
                        element,
                        vault,
                    };
                    (record.class, record.class_addr)
                };
                self.bump_host(&host, 1);
                // Update the class's logical-table Object Address.
                self.notify_class(
                    ctx,
                    class_addr,
                    class,
                    class_proto::SET_ADDRESS,
                    vec![
                        LegionValue::Loid(loid),
                        LegionValue::Address(ObjectAddress::single(element)),
                    ],
                );
                let b = Binding::forever(loid, ObjectAddress::single(element));
                self.answer_activate_waiters(ctx, loid, Ok(b));
            }
            Ok(v) => {
                self.answer_activate_waiters(ctx, loid, Err(format!("unexpected host reply {v}")));
            }
            Err(e) => {
                // The chosen host refused (capacity, policy): try once
                // more with a different pick.
                if attempts < 2 {
                    ctx.count("magistrate.activation_retry");
                    let (class, state, class_addr) = {
                        let Some(record) = self.objects.get(&loid) else {
                            return;
                        };
                        let ObjState::Inert { addr } = &record.state else {
                            return;
                        };
                        match self.storage.load_opr(addr) {
                            Ok(o) => (record.class, o.state, record.class_addr),
                            Err(err) => {
                                self.answer_activate_waiters(
                                    ctx,
                                    loid,
                                    Err(format!("OPR reload failed: {err}")),
                                );
                                return;
                            }
                        }
                    };
                    self.dispatch_to_host(ctx, loid, class, state, class_addr, None, attempts + 1);
                } else {
                    self.answer_activate_waiters(ctx, loid, Err(format!("host refused: {e}")));
                }
            }
        }
    }

    /// The object replied to `SaveState()`.
    fn on_save_state_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        requester: Option<Box<Message>>,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(LegionValue::Bytes(state)) => {
                let Some(record) = self.objects.get(&loid) else {
                    return;
                };
                let ObjState::Active { host, .. } = record.state.clone() else {
                    return;
                };
                let opr = Opr::new(loid, record.class, 0, state.clone());
                let addr = match self.storage.store_opr(&opr) {
                    Ok(a) => a,
                    Err(e) => {
                        if let Some(req) = requester {
                            ctx.reply(&req, Err(format!("OPR store failed: {e}")));
                        }
                        return;
                    }
                };
                let Some(host_element) = self.host_element(&host) else {
                    if let Some(req) = requester {
                        ctx.reply(&req, Err(format!("unknown host {host}")));
                    }
                    return;
                };
                let me = self.cfg.loid;
                match ctx.call(
                    host_element,
                    host,
                    host_proto::DEACTIVATE,
                    vec![LegionValue::Loid(loid)],
                    InvocationEnv::solo(me),
                    Some(me),
                ) {
                    Some(call_id) => {
                        self.pend(
                            ctx,
                            call_id,
                            cont(move |e: &mut Self, ctx, result| {
                                e.on_host_deactivate_reply(ctx, loid, addr, requester, result)
                            }),
                        );
                    }
                    None => {
                        if let Some(req) = requester {
                            ctx.reply(&req, Err(format!("host {host} unreachable")));
                        }
                    }
                }
            }
            Ok(v) => {
                if let Some(req) = requester {
                    ctx.reply(&req, Err(format!("unexpected SaveState reply {v}")));
                }
            }
            Err(e) => {
                if let Some(req) = requester {
                    ctx.reply(&req, Err(format!("SaveState failed: {e}")));
                }
            }
        }
    }

    /// The host replied to the deactivation kill; the fresh OPR is at
    /// `addr`.
    fn on_host_deactivate_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        addr: PersistentAddress,
        requester: Option<Box<Message>>,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(_) => {
                // A racing Delete may have removed the record; the
                // process is already dead, so just clean the OPR.
                if !self.objects.contains_key(&loid) {
                    let _ = self.storage.delete(&addr);
                    if let Some(req) = requester {
                        ctx.reply(&req, Err(format!("{loid} was removed during deactivation")));
                    }
                    return;
                }
                let (class, class_addr, host) = {
                    let record = self.objects.get_mut(&loid).expect("checked above");
                    let host = match &record.state {
                        ObjState::Active { host, .. } => Some(*host),
                        _ => None,
                    };
                    // The fresh OPR supersedes the activation-time
                    // vault checkpoint.
                    if let ObjState::Active {
                        vault: Some(vault), ..
                    } = &record.state
                    {
                        let _ = self.storage.delete(&vault.clone());
                    }
                    record.state = ObjState::Inert { addr };
                    (record.class, record.class_addr, host)
                };
                if let Some(h) = host {
                    self.bump_host(&h, -1);
                }
                // Clear the class's Object Address column: the row
                // reads NIL while the object is Inert (§3.7).
                self.notify_class(
                    ctx,
                    class_addr,
                    class,
                    class_proto::SET_ADDRESS,
                    vec![LegionValue::Loid(loid), LegionValue::Void],
                );
                if let Some(req) = requester {
                    ctx.reply(&req, Ok(LegionValue::Void));
                }
                self.run_after_inert(ctx, loid);
            }
            Err(e) => {
                if let Some(req) = requester {
                    ctx.reply(&req, Err(format!("host deactivate failed: {e}")));
                }
            }
        }
    }

    /// The peer magistrate replied to `ReceiveOpr`.
    fn on_ship_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        delete_after: bool,
        requester: Box<Message>,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(_) => {
                if delete_after {
                    // Move = Copy then Delete (§3.8).
                    if let Some(record) = self.objects.remove(&loid) {
                        if let ObjState::Inert { addr } = &record.state {
                            let _ = self.storage.delete(addr);
                        }
                        self.notify_class(
                            ctx,
                            record.class_addr,
                            record.class,
                            class_proto::REMOVE_MAGISTRATE,
                            vec![LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
                        );
                    }
                }
                ctx.reply(&requester, Ok(LegionValue::Void));
            }
            Err(e) => {
                ctx.reply(&requester, Err(format!("ship failed: {e}")));
            }
        }
    }
}

impl Endpoint for MagistrateEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // §4.2.1: Magistrates are started outside Legion and contact their
        // class on start.
        if let Some(class) = self.cfg.class_addr {
            let me = self.cfg.loid;
            ctx.call(
                class,
                me.class_loid(),
                class_proto::ANNOUNCE,
                vec![
                    LegionValue::Loid(me),
                    LegionValue::Address(ObjectAddress::single(ctx.self_element())),
                ],
                InvocationEnv::solo(me),
                Some(me),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_HA_SWEEP {
            self.ha_sweep(ctx);
        } else if tag == TIMER_DEADLINE_SWEEP {
            fn conts(e: &mut MagistrateEndpoint) -> &mut Continuations<MagistrateEndpoint> {
                &mut e.continuations
            }
            let after_ns = self.call_deadline_ns.unwrap_or(0);
            let expired = sweep_expired(self, ctx, conts, after_ns);
            for _ in 0..expired {
                ctx.count("magistrate.timeouts");
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(id) = reply_id(&msg) {
            if let Some(k) = self.continuations.take(&id) {
                k(self, ctx, take_reply_result(msg));
            }
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod ha_duplication_tests {
    use super::*;
    use legion_core::time::SimTime;
    use legion_ha::policy::MissThreshold;
    use legion_net::sim::SimKernel;
    use legion_net::topology::Location;

    /// A duplicated or replayed host-dead verdict (flapping detector,
    /// duplicated verdict message) must not start a second activation for
    /// an object whose recovery is already in flight: the tracker guard
    /// counts `magistrate.ha_duplicate_trigger` and starts nothing —
    /// exactly one activation per LOID per incident.
    #[test]
    fn duplicated_dead_verdict_starts_no_second_activation() {
        let mut k = SimKernel::with_seed(7);
        let mag_loid = Loid::instance(4, 1);
        let host_loid = Loid::instance(5, 1);
        let obj_loid = Loid::instance(6, 1);
        let mut mag = MagistrateEndpoint::new(MagistrateConfig {
            loid: mag_loid,
            jurisdiction: 0,
            class_addr: None,
            disks: 1,
            disk_capacity: 1 << 20,
        });
        mag.hosts.push(HostRecord {
            loid: host_loid,
            element: ObjectAddressElement::sim(99),
            capacity: 4,
            assigned: 1,
            alive: true,
        });
        mag.objects.insert(
            obj_loid,
            ObjRecord {
                class: Loid::class_object(16),
                class_addr: None,
                state: ObjState::Active {
                    host: host_loid,
                    element: ObjectAddressElement::sim(98),
                    vault: None,
                },
            },
        );
        mag.enable_ha(
            Box::new(MissThreshold {
                suspect_after: 2,
                dead_after: 4,
            }),
            1_000_000,
            1_000_000,
            20_000_000,
            Vec::new(),
            SimTime::ZERO,
        );
        // An earlier Dead verdict already put this object's recovery in
        // flight; the silent host below re-confirms Dead (the duplicated
        // trigger) and must be absorbed by the guard.
        mag.ha
            .as_mut()
            .expect("ha enabled")
            .tracker
            .begin_object(obj_loid, SimTime::ZERO);
        let ep = k.add_endpoint(Box::new(mag), Location::new(0, 0), "magistrate");
        k.set_timer(ep, 1_000_000, TIMER_HA_SWEEP);
        k.run_until_quiescent(10_000);
        assert_eq!(k.counters().get("magistrate.ha_host_dead"), 1);
        assert_eq!(k.counters().get("magistrate.ha_duplicate_trigger"), 1);
        assert_eq!(
            k.counters().get("magistrate.ha_recoveries"),
            0,
            "the in-flight recovery must not be restarted"
        );
    }
}
