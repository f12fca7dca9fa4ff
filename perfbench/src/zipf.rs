//! `zipf-lookup-1m`: the read path.
//!
//! A closed loop of Zipf(0.9) `GetBinding` lookups over a million class
//! LOIDs behind a 585-agent arity-8 Binding-Agent tree (§5.2.2), the
//! shape of the repository's E17 campaign. LegionClass and the registry
//! class responsible for every target compute their answers, so the
//! per-LOID state lives where the paper puts it: in the agent and client
//! caches along the tree. No faults, no journal, no admission control.
//! E17's own computed endpoints are private to that experiment, so the
//! benchmark defines its own over the public dispatch API.

use crate::ledger;
use crate::meter::{self, Phase};
use crate::oplog::{OpLog, SharedLog};
use crate::report::{check, Metrics, Outcome, PER_LAYER};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_core::wellknown::{FIRST_USER_CLASS_ID, LEGION_CLASS};
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::{BindingArg, FIND_RESPONSIBLE, GET_BINDING};
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_naming::tree::TreeShape;
use legion_net::dispatch::{serve, MethodTable, Outcome as Reply, TableBuilder};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::{FaultPlan, Location, Message, Topology};
use legion_sim::system::agent_loid;
use legion_sim::workload::ZipfSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;

/// The registry class responsible for every target LOID.
const REGISTRY: Loid = Loid::class_object(FIRST_USER_CLASS_ID);
/// First target class id.
const FIRST_TARGET: u64 = FIRST_USER_CLASS_ID + 1;
/// Per-client binding-cache capacity.
const CLIENT_CACHE: usize = 512;
/// Closed-loop lookups one client completes per host second on the
/// reference host; sizes the measured phase to `--seconds`.
const LOOKUPS_PER_CLIENT_PER_S: usize = 1_150;

/// How big one run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Target LOIDs.
    pub loids: u64,
    /// Binding-Agent tree.
    pub tree: TreeShape,
    /// Closed-loop clients.
    pub clients: usize,
    /// Lookups per client in the warm-up wave.
    pub warm_lookups: usize,
    /// Lookups per client in the measured phase.
    pub lookups: usize,
}

impl Size {
    /// The benchmark size for a `seconds`-long measured phase.
    pub fn for_seconds(seconds: u64) -> Self {
        Size {
            loids: 1_000_000,
            tree: TreeShape::new(8, 585),
            clients: 64,
            warm_lookups: 500,
            lookups: LOOKUPS_PER_CLIENT_PER_S * seconds as usize,
        }
    }

    /// A reduced size for the determinism self-test.
    pub fn tiny() -> Self {
        Size {
            loids: 10_000,
            tree: TreeShape::new(8, 73),
            clients: 8,
            warm_lookups: 50,
            lookups: 200,
        }
    }
}

fn in_range(l: &Loid, loids: u64) -> bool {
    l.is_class() && l.class_id.0 >= FIRST_TARGET && l.class_id.0 < FIRST_TARGET + loids
}

/// The registry: answers `GetBinding` for every target by computation,
/// writing the target into a reused reply template.
struct Registry {
    loids: u64,
    template: Binding,
    table: Rc<MethodTable<Self>>,
}

impl Registry {
    fn new(loids: u64) -> Self {
        Registry {
            loids,
            template: Binding::forever(
                REGISTRY,
                ObjectAddress::single(ObjectAddressElement::sim(0)),
            ),
            table: TableBuilder::new("class", "BenchRegistry", REGISTRY)
                .get_interface()
                .method::<(BindingArg,), _>(
                    GET_BINDING,
                    &["target"],
                    ParamType::Binding,
                    |e: &mut Self, ctx, _msg, (arg,)| {
                        ctx.count("class.get_binding");
                        let target = arg.loid();
                        Reply::Reply(if in_range(&target, e.loids) {
                            e.template.loid = target;
                            Ok(ctx.binding_value(&e.template))
                        } else {
                            Err(format!("{REGISTRY}: unknown object {target}"))
                        })
                    },
                )
                .seal(),
        }
    }
}

impl Endpoint for Registry {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            serve(&Rc::clone(&self.table), self, ctx, msg);
        }
    }
}

/// LegionClass: every target resolves through the registry, whose own
/// binding ends the responsibility chain.
struct LegionClass {
    loids: u64,
    registry: Binding,
    table: Rc<MethodTable<Self>>,
}

impl LegionClass {
    fn new(loids: u64, registry: ObjectAddressElement) -> Self {
        LegionClass {
            loids,
            registry: Binding::forever(REGISTRY, ObjectAddress::single(registry)),
            table: TableBuilder::new("legion_class", "BenchLegionClass", LEGION_CLASS)
                .get_interface()
                .method::<(Loid,), _>(
                    FIND_RESPONSIBLE,
                    &["target"],
                    ParamType::Loid,
                    |e: &mut Self, ctx, _msg, (target,)| {
                        ctx.count("legion_class.find");
                        Reply::Reply(if !target.is_class() {
                            Ok(LegionValue::Loid(target.class_loid()))
                        } else if in_range(&target, e.loids) {
                            Ok(LegionValue::Loid(REGISTRY))
                        } else if target == REGISTRY || target == LEGION_CLASS {
                            Ok(LegionValue::Loid(LEGION_CLASS))
                        } else {
                            Err(format!("no responsibility pair for {target}"))
                        })
                    },
                )
                .method::<(BindingArg,), _>(
                    GET_BINDING,
                    &["target"],
                    ParamType::Binding,
                    |e: &mut Self, ctx, _msg, (arg,)| {
                        ctx.count("legion_class.get_binding");
                        let l = arg.loid();
                        Reply::Reply(if l == REGISTRY {
                            Ok(ctx.binding_value(&e.registry))
                        } else {
                            Err(format!("LegionClass has no binding for {l}"))
                        })
                    },
                )
                .seal(),
        }
    }
}

impl Endpoint for LegionClass {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            serve(&Rc::clone(&self.table), self, ctx, msg);
        }
    }
}

/// A closed-loop lookup client: resolve the next planned target, wait
/// for the agent if it went remote, repeat.
struct Client {
    resolver: ClientResolver,
    plan: Vec<Loid>,
    next: usize,
    issued_at: u64,
    done: bool,
    log: SharedLog,
}

impl Client {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.next < self.plan.len() {
            let target = self.plan[self.next];
            self.next += 1;
            let now = ctx.now().as_nanos();
            self.log.borrow_mut().issued(now);
            match self.resolver.lookup(ctx, target) {
                Lookup::Cached(_) => self.log.borrow_mut().done(now, 0),
                Lookup::Requested(_) => {
                    self.issued_at = now;
                    return;
                }
                Lookup::AgentUnreachable => self.log.borrow_mut().failed += 1,
            }
        }
        if !self.done {
            self.done = true;
            self.log.borrow_mut().clients_done += 1;
        }
    }
}

impl Endpoint for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok((_, result)) = self.resolver.handle_reply_owned(ctx, msg) {
            let now = ctx.now().as_nanos();
            match result {
                Ok(_) => self.log.borrow_mut().done(now, now - self.issued_at),
                Err(_) => self.log.borrow_mut().failed += 1,
            }
            self.pump(ctx);
        }
    }
}

/// Jurisdiction of agent `i`: the root with the naming services in 0,
/// each depth-1 subtree whole in one of four satellites.
fn cluster(tree: &TreeShape, i: usize) -> u32 {
    let mut a = i;
    while let Some(p) = tree.parent(a) {
        if p == 0 {
            return 1 + ((a - 1) as u32) % 4;
        }
        a = p;
    }
    0
}

/// A built, warmed system with the measured fleet attached.
struct System {
    kernel: SimKernel,
    log: SharedLog,
    clients: usize,
    /// Endpoints attached before the measured phase's start events.
    started: usize,
}

/// Where a fleet's lookups go: the agent tree and the popularity law.
struct Targets<'a> {
    agents: &'a [EndpointId],
    zipf: &'a ZipfSampler,
    seed: u64,
}

/// Attach `size.clients` clients of `lookups` planned lookups each;
/// `salt` keeps the fleets' plans, LOIDs and names apart.
fn attach_fleet(
    kernel: &mut SimKernel,
    size: &Size,
    targets: &Targets<'_>,
    salt: u64,
    lookups: usize,
    log: &SharedLog,
) {
    let Targets { agents, zipf, seed } = *targets;
    let leaves = size.tree.leaves();
    for c in 0..size.clients {
        let mut rng = SmallRng::seed_from_u64(seed ^ salt ^ (0xC11E57 + c as u64));
        let plan: Vec<Loid> = (0..lookups)
            .map(|_| Loid::class_object(FIRST_TARGET + zipf.sample(&mut rng) as u64))
            .collect();
        let leaf = leaves[c % leaves.len()];
        let client = Client {
            resolver: ClientResolver::new(
                Loid::instance(FIRST_TARGET, salt + c as u64 + 1),
                agents[leaf].element(),
                CLIENT_CACHE,
            ),
            plan,
            next: 0,
            issued_at: 0,
            done: false,
            log: Rc::clone(log),
        };
        kernel.add_endpoint(
            Box::new(client),
            Location::new(cluster(&size.tree, leaf), 10_000 + salt as u32 + c as u32),
            format!("client{salt}.{c}"),
        );
    }
}

/// Build the tree and services, run the warm-up wave, attach the
/// measured fleet.
fn setup(size: &Size, seed: u64) -> System {
    let mut kernel = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
    let registry = kernel.add_endpoint(
        Box::new(Registry::new(size.loids)),
        Location::new(0, 0),
        "registry",
    );
    let registry_el = registry.element();
    kernel
        .endpoint_mut::<Registry>(registry)
        .expect("registry endpoint")
        .template
        .address = ObjectAddress::single(registry_el);
    let lc = kernel.add_endpoint(
        Box::new(LegionClass::new(size.loids, registry_el)),
        Location::new(0, 1),
        "legion-class",
    );
    // Agent caches are sized to the LOID space: the upper levels see the
    // union of every leaf's misses.
    let agent_cache = ((size.loids / 64) as usize).max(4096);
    let mut agents: Vec<EndpointId> = Vec::with_capacity(size.tree.count);
    for i in 0..size.tree.count {
        let mut cfg = AgentConfig::root(agent_loid(i), lc.element());
        cfg.cache_capacity = agent_cache;
        if let Some(p) = size.tree.parent(i) {
            cfg = cfg.with_parent(agents[p].element());
        }
        agents.push(kernel.add_endpoint(
            Box::new(BindingAgentEndpoint::new(cfg)),
            Location::new(cluster(&size.tree, i), 100 + i as u32),
            format!("agent{i}"),
        ));
    }
    let zipf = ZipfSampler::new(size.loids as usize, 0.9);
    let targets = Targets {
        agents: &agents,
        zipf: &zipf,
        seed,
    };
    let warm = OpLog::shared();
    attach_fleet(&mut kernel, size, &targets, 0, size.warm_lookups, &warm);
    kernel.run_until_quiescent(u64::MAX);
    assert_eq!(
        warm.borrow().completed,
        (size.clients * size.warm_lookups) as u64,
        "warm-up wave completes"
    );
    kernel.reset_metrics();
    let started = kernel.endpoint_count();
    let log = OpLog::shared();
    attach_fleet(&mut kernel, size, &targets, 1 << 16, size.lookups, &log);
    System {
        kernel,
        log,
        clients: size.clients,
        started,
    }
}

fn measure(sys: &mut System, traced: bool) -> Phase {
    if traced {
        sys.kernel.enable_profiling();
    }
    let log = Rc::clone(&sys.log);
    let clients = sys.clients;
    meter::drive(&mut sys.kernel, traced, || {
        log.borrow().clients_done == clients
    })
}

/// Run the workload: `setups` timed set-ups (the last one is measured),
/// then the measured phase; traced runs measure again with tracing on.
pub fn run(seed: u64, size: Size, setups: usize, trace: bool) -> Outcome {
    let (mut sys, setup_s) = meter::timed_setups(setups, || setup(&size, seed));
    let phase = measure(&mut sys, false);
    let slo_rate = crate::flash::slo_rate_per_s(seed);
    let log = sys.log.borrow().clone();
    let planned = (size.clients * size.lookups) as u64;
    let mut checks = vec![
        check(
            "zipf.every_lookup_completes",
            log.completed == planned && log.attempted == planned,
            format!("completed {} of {planned}", log.completed),
        ),
        check(
            "zipf.zero_failed",
            log.failed == 0,
            format!("failed {}", log.failed),
        ),
    ];
    let mut fingerprint = crate::fingerprint(&sys.kernel, &log, &phase);
    fingerprint.push(("slo_rate_per_s".into(), slo_rate.to_bits()));

    let metrics = if trace {
        drop(sys);
        let mut traced_sys = setup(&size, seed);
        let traced = measure(&mut traced_sys, true);
        let tlog = traced_sys.log.borrow().clone();
        checks.push(check(
            "zipf.traced_run_matches",
            tlog.completed == log.completed && tlog.lat_ns == log.lat_ns,
            format!("traced completed {}", tlog.completed),
        ));
        let mut m = Metrics::new(PER_LAYER);
        ledger::kernel_layers(
            &mut m,
            &traced_sys.kernel,
            &FaultPlan::none(),
            &traced,
            &phase,
            (traced_sys.kernel.endpoint_count() - traced_sys.started) as u64,
        );
        m
    } else {
        crate::end_to_end(&setup_s, &phase, &log, slo_rate)
    };
    Outcome {
        attempted: log.attempted,
        failed: log.failed,
        completed: log.completed,
        metrics,
        checks,
        fingerprint,
    }
}
