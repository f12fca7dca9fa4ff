//! `flash-crowd`: overload, admission control and autoscaling.
//!
//! Several admission-gated classes each receive the E18b four-tenant
//! open-loop stream — steady at 0.5× saturation, a flash crowd at 2×,
//! then recovery — through a `ReplicaRouter` front door with an armed
//! `AutoScaler`. The load grows with the number of concurrent classes,
//! not by repeating one campaign. Naming is bypassed: clients address
//! the class through its router directly.
//!
//! Also here: the flat-rate probe behind `slo_rate_per_s`, the highest
//! offered rate one admission-gated class serves within the E18
//! objective.

use crate::ledger;
use crate::meter::{self, Phase};
use crate::oplog::{HistogramTap, OpLog, SharedLog};
use crate::report::{check, Metrics, Outcome, PER_LAYER};
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_net::admission::AdmissionConfig;
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::{FaultPlan, Location, Message, Topology};
use legion_obs::slo::{SloConfig, SloObjective};
use legion_runtime::autoscale::{AutoScalePolicy, AutoScaler, ReplicaRouter};
use legion_runtime::class_endpoint::ClassEndpoint;
use legion_sim::system::{LegionSystem, SystemConfig};
use legion_sim::workload::{generate_arrivals, FlashCrowd, OpenLoopClient, OpenLoopConfig};
use std::rc::Rc;

/// Each class's service model: 200 µs per call, 16 slots, 5000 calls/s.
const ADMISSION: AdmissionConfig = AdmissionConfig {
    service_ns: 200_000,
    queue_depth: 16,
};
/// The latency objective the burn monitor defends (E18's).
const OBJECTIVE: SloObjective = SloObjective {
    p50_ns: 1_000_000,
    p99_ns: 2_000_000,
    error_budget: 0.05,
    burn_threshold: 2.0,
};
/// SLO evaluation window, virtual ns.
const SLO_WINDOW_NS: u64 = 50_000_000;
/// Per-tenant rate weights.
const TENANT_WEIGHTS: [f64; 4] = [3.0, 2.0, 1.0, 1.0];
/// Concurrent classes per host second of measured phase on the reference
/// host; sizes the measured phase to `--seconds`.
const CLASSES_PER_S: usize = 6;
/// Virtual length of one flat-rate probe.
const PROBE_NS: u64 = 6_000_000_000;
/// Bisection steps for `slo_rate_per_s`.
const BISECT_STEPS: u32 = 12;

/// How big one run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Admission-gated classes, each with its own router, scaler and
    /// four tenants.
    pub classes: usize,
    /// Steady, flash and recovery phase lengths, virtual ns.
    pub spans: (u64, u64, u64),
}

impl Size {
    /// The benchmark size for a `seconds`-long measured phase.
    pub fn for_seconds(seconds: u64) -> Self {
        Size {
            classes: CLASSES_PER_S * seconds as usize,
            spans: (300_000_000, 1_200_000_000, 400_000_000),
        }
    }

    /// A reduced size for the determinism self-test.
    pub fn tiny() -> Self {
        Size {
            classes: 2,
            spans: (200_000_000, 600_000_000, 200_000_000),
        }
    }
}

fn topology() -> Topology {
    // µs-scale hops: the objective must burn on queueing, not on WAN
    // crossings.
    Topology::fixed(1_000, 20_000, 100_000)
}

/// An `OpenLoopClient` whose first issues are checked against their due
/// times and whose completions are moved into the shared log exactly.
struct Tenant {
    inner: OpenLoopClient,
    arrivals: Vec<u64>,
    started: u64,
    offered_seen: u64,
    failed_seen: u64,
    gave_up_seen: u64,
    tap: HistogramTap,
    done: bool,
    log: SharedLog,
}

impl Tenant {
    fn new(inner: OpenLoopClient, arrivals: Vec<u64>, log: &SharedLog) -> Self {
        Tenant {
            inner,
            arrivals,
            started: 0,
            offered_seen: 0,
            failed_seen: 0,
            gave_up_seen: 0,
            tap: HistogramTap::default(),
            done: false,
            log: Rc::clone(log),
        }
    }

    fn after(&mut self, ctx: &Ctx<'_>) {
        let now = ctx.now().as_nanos();
        let phases = &self.inner.report.phases;
        let (mut offered, mut failed, mut gave_up, mut count, mut sum) = (0, 0, 0, 0, 0);
        for p in phases {
            offered += p.offered;
            failed += p.failed;
            gave_up += p.gave_up;
            count += p.latency.count();
            sum += p.latency.sum();
        }
        let mut log = self.log.borrow_mut();
        for k in self.offered_seen..offered {
            let due = self.started + self.arrivals[k as usize];
            log.late_ns += now.saturating_sub(due);
            log.issued(now);
        }
        self.offered_seen = offered;
        self.tap.drain(count, sum, now, &mut log);
        log.failed += failed - self.failed_seen;
        log.refused += gave_up - self.gave_up_seen;
        self.failed_seen = failed;
        self.gave_up_seen = gave_up;
        if self.inner.is_done() && !self.done {
            self.done = true;
            log.clients_done += 1;
        }
    }
}

impl Endpoint for Tenant {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = ctx.now().as_nanos();
        self.inner.on_start(ctx);
        self.after(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        self.inner.on_message(ctx, msg);
        self.after(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.inner.on_timer(ctx, tag);
        self.after(ctx);
    }
}

fn build(classes: u32, seed: u64) -> LegionSystem {
    let mut sys = LegionSystem::build(SystemConfig {
        jurisdictions: 2,
        hosts_per_jurisdiction: 2,
        classes,
        objects_per_class: 1,
        class_admission: Some(ADMISSION),
        topology: topology(),
        seed,
        ..SystemConfig::default()
    });
    sys.kernel.reset_metrics();
    sys
}

/// The admission-gated class endpoints alive now, clones included.
fn gated_classes(kernel: &SimKernel) -> Vec<&ClassEndpoint> {
    kernel
        .all_meta()
        .filter(|(_, m)| m.alive && m.name.starts_with("class:"))
        .filter_map(|(id, _)| kernel.endpoint::<ClassEndpoint>(id))
        .filter(|c| c.admission().is_some())
        .collect()
}

fn tenant_loid(class: usize, tenant: usize) -> Loid {
    Loid::instance(9500, (class * TENANT_WEIGHTS.len() + tenant) as u64 + 1)
}

/// A built campaign, ready for its first event.
struct System {
    sys: LegionSystem,
    log: SharedLog,
    scalers: Vec<EndpointId>,
    tenants: usize,
    /// Virtual time the tenants start.
    t0: u64,
    /// Endpoints attached before the measured phase's start events.
    started: usize,
}

fn setup(size: &Size, seed: u64) -> System {
    let (steady, flash, recovery) = size.spans;
    let total = steady + flash + recovery;
    let mut sys = build(size.classes as u32, seed);
    sys.kernel.enable_slo_online(SloConfig {
        window_ns: SLO_WINDOW_NS,
        objective: OBJECTIVE,
        per_endpoint: Default::default(),
    });
    let t0 = sys.kernel.now().as_nanos();
    let started = sys.kernel.endpoint_count();
    let cfg = OpenLoopConfig {
        base_rate_per_sec: 0.5 * ADMISSION.saturation_per_sec(),
        duration_ns: total,
        diurnal_amplitude: 0.1,
        diurnal_period_ns: total,
        flash: Some(FlashCrowd {
            start_ns: steady,
            duration_ns: flash,
            multiplier: 4.0,
        }),
        tenant_weights: TENANT_WEIGHTS.to_vec(),
        ..OpenLoopConfig::default()
    };
    let log = OpLog::shared();
    let mut scalers = Vec::new();
    for (c, (class_loid, class_ep)) in sys.classes.clone().into_iter().enumerate() {
        let j = c as u32 % 2;
        let router = sys.kernel.add_endpoint(
            Box::new(ReplicaRouter::new(class_ep.element())),
            Location::new(j, 2000 + 2 * c as u32),
            format!("replica-router{c}"),
        );
        scalers.push(sys.kernel.add_endpoint(
            Box::new(AutoScaler::new(
                Loid::instance(9800, c as u64 + 1),
                class_loid,
                class_ep.element(),
                Some(router.element()),
                AutoScalePolicy::default(),
                t0 + total + 100_000_000,
            )),
            Location::new(j, 2001 + 2 * c as u32),
            format!("autoscaler{c}"),
        ));
        for i in 0..TENANT_WEIGHTS.len() {
            let arrivals = generate_arrivals(
                &cfg,
                cfg.tenant_share(i),
                seed ^ (0xF1A5 + (c * TENANT_WEIGHTS.len() + i) as u64),
            );
            let client = OpenLoopClient::new(
                tenant_loid(c, i),
                router.element(),
                class_loid,
                symbol::GET_INSTANCE_INTERFACE,
                arrivals.clone(),
                vec![steady, steady + flash],
                cfg.max_retries,
            );
            sys.kernel.add_endpoint(
                Box::new(Tenant::new(client, arrivals, &log)),
                Location::new(i as u32 % 2, 10_000 + (c * TENANT_WEIGHTS.len() + i) as u32),
                format!("tenant{c}.{i}"),
            );
        }
    }
    System {
        sys,
        log,
        scalers,
        tenants: size.classes * TENANT_WEIGHTS.len(),
        t0,
        started,
    }
}

/// Run the campaign until every tenant settles, then let the scalers'
/// polls drain. Passing the untraced run's phase makes this a traced run
/// and returns the ledger, taken when the measured phase ends.
fn measure(s: &mut System, untraced: Option<&Phase>) -> (Phase, Option<Metrics>) {
    let traced = untraced.is_some();
    if traced {
        s.sys.kernel.enable_profiling();
    }
    let log = Rc::clone(&s.log);
    let tenants = s.tenants;
    let phase = meter::drive(&mut s.sys.kernel, traced, || {
        log.borrow().clients_done == tenants
    });
    let layers = untraced.map(|base| {
        let mut m = Metrics::new(PER_LAYER);
        let starts = (s.sys.kernel.endpoint_count() - s.started) as u64;
        ledger::kernel_layers(
            &mut m,
            &s.sys.kernel,
            &FaultPlan::none(),
            &phase,
            base,
            starts,
        );
        m
    });
    s.sys.kernel.run_until_quiescent(u64::MAX);
    (phase, layers)
}

/// Clone landing times, virtual ns from the tenants' start.
fn clone_times(s: &System) -> Vec<u64> {
    let mut at: Vec<u64> = s
        .scalers
        .iter()
        .filter_map(|id| s.sys.kernel.endpoint::<AutoScaler>(*id))
        .flat_map(|a| a.clone_log.iter().map(|c| c.at_ns - s.t0))
        .collect();
    at.sort_unstable();
    at
}

/// One flat-rate probe of a single admission-gated class at
/// `multiplier` × saturation, aimed straight at the class.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Exact p99 first-issue → success latency, ns.
    pub p99_ns: u64,
    /// Completed ÷ offered.
    pub ok_frac: f64,
    /// Calls shed because the admission queue was full, ÷ calls offered
    /// to it (retries included).
    pub shed_frac: f64,
}

impl Probe {
    /// The E18 objective: p99 ≤ 2 ms, ≥ 99% of offered operations done,
    /// and a bounded backlog: the admission queue is full for at most 1%
    /// of the calls offered to it. (Its high-water mark alone is one
    /// extreme burst, too noisy to bisect on.)
    pub fn meets_objective(&self) -> bool {
        self.p99_ns <= OBJECTIVE.p99_ns && self.ok_frac >= 0.99 && self.shed_frac <= 0.01
    }
}

/// Run one flat-rate probe.
pub fn probe(multiplier: f64, seed: u64) -> Probe {
    let mut sys = build(1, seed);
    let (class_loid, class_ep) = sys.classes[0];
    let cfg = OpenLoopConfig {
        base_rate_per_sec: ADMISSION.saturation_per_sec(),
        duration_ns: PROBE_NS,
        max_retries: 2,
        ..OpenLoopConfig::default()
    };
    let arrivals = generate_arrivals(&cfg, multiplier, seed ^ 0x5107);
    let log = OpLog::shared();
    let client = OpenLoopClient::new(
        tenant_loid(0, 0),
        class_ep.element(),
        class_loid,
        symbol::GET_INSTANCE_INTERFACE,
        arrivals.clone(),
        Vec::new(),
        cfg.max_retries,
    );
    sys.kernel.add_endpoint(
        Box::new(Tenant::new(client, arrivals, &log)),
        Location::new(0, 700),
        "probe-tenant",
    );
    sys.kernel.run_until_quiescent(u64::MAX);
    let log = log.borrow();
    let queue = sys
        .kernel
        .endpoint::<ClassEndpoint>(class_ep)
        .and_then(|c| c.admission().copied())
        .expect("the probed class is admission-gated");
    Probe {
        p99_ns: log.quantile_ns(0.99),
        ok_frac: log.ok_frac(),
        shed_frac: queue.shed() as f64 / (queue.admitted() + queue.shed()).max(1) as f64,
    }
}

/// The highest flat offered rate (calls per virtual second) one
/// admission-gated class serves within the objective, by bisection over
/// the rate with admission on and no scaler.
pub fn slo_rate_per_s(seed: u64) -> f64 {
    let (mut lo, mut hi) = (0.1, 1.5);
    if !probe(lo, seed).meets_objective() {
        return 0.0;
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo + hi) / 2.0;
        if probe(mid, seed).meets_objective() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo * ADMISSION.saturation_per_sec()
}

/// Run the workload; see [`crate::zipf::run`] for the shape.
pub fn run(seed: u64, size: Size, setups: usize, trace: bool) -> Outcome {
    let (mut s, setup_s) = meter::timed_setups(setups, || setup(&size, seed));
    let (phase, _) = measure(&mut s, None);
    let log = s.log.borrow().clone();
    let slo_rate = slo_rate_per_s(seed);

    let (steady, flash, _) = size.spans;
    let clones = clone_times(&s);
    let classes = gated_classes(&s.sys.kernel);
    let peak = classes
        .iter()
        .map(|c| c.admission().map(|a| a.peak_backlog()).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let deferred = classes
        .iter()
        .map(|c| c.deferred_peak() as u64)
        .max()
        .unwrap_or(0);
    let depth = ADMISSION.queue_depth;
    let mut checks = vec![
        check(
            "flash.backlog_within_depth",
            peak <= depth && deferred <= depth,
            format!(
                "peak backlog {peak}, deferred {deferred}, depth {depth}, {} classes",
                classes.len()
            ),
        ),
        check(
            "flash.clone_lands_in_flash",
            clones.iter().any(|&t| t >= steady && t < steady + flash),
            format!("clones at {clones:?} ns"),
        ),
        check(
            "flash.generator_on_time",
            log.late_ns == 0,
            format!("late {} ns", log.late_ns),
        ),
        check(
            "flash.every_op_settles",
            log.completed + log.refused + log.failed == log.attempted && log.failed == 0,
            format!(
                "offered {}, ok {}, refused {}, failed {}",
                log.attempted, log.completed, log.refused, log.failed
            ),
        ),
    ];
    let mut fingerprint = crate::fingerprint(&s.sys.kernel, &log, &phase);
    fingerprint.push(("slo_rate_per_s".into(), slo_rate.to_bits()));
    fingerprint.push(("clones".into(), clones.len() as u64));
    fingerprint.push(("refused".into(), log.refused));

    let metrics = if trace {
        drop(s);
        let mut t = setup(&size, seed);
        let (_, layers) = measure(&mut t, Some(&phase));
        let tlog = t.log.borrow().clone();
        checks.push(check(
            "flash.traced_run_matches",
            tlog.completed == log.completed && tlog.lat_ns == log.lat_ns,
            format!("traced completed {}", tlog.completed),
        ));
        let mut m = layers.expect("traced run has a ledger");
        let gated = gated_classes(&t.sys.kernel);
        let (admitted, shed) = gated
            .iter()
            .filter_map(|c| c.admission())
            .fold((0, 0), |(a, s), q| (a + q.admitted(), s + q.shed()));
        m.set("net.admission.peak_backlog", peak as f64);
        m.set(
            "net.admission.admit_ratio",
            admitted as f64 / (admitted + shed).max(1) as f64,
        );
        m.set(
            "net.admission.offer_ns",
            ledger::admission_offer_ns(ADMISSION),
        );
        for (name, mult) in [
            ("flash.p99_ms.r0.5x", 0.5),
            ("flash.p99_ms.r1x", 1.0),
            ("flash.p99_ms.r1.5x", 1.5),
            ("flash.p99_ms.r2x", 2.0),
        ] {
            m.set(name, probe(mult, seed).p99_ns as f64 / 1e6);
        }
        let tclones = clone_times(&t);
        m.set("runtime.autoscale.clones", tclones.len() as f64);
        m.set(
            "runtime.autoscale.first_clone_ms",
            tclones.first().map(|&ns| ns as f64 / 1e6).unwrap_or(0.0),
        );
        let burns: u64 = t
            .scalers
            .iter()
            .filter_map(|id| t.sys.kernel.endpoint::<AutoScaler>(*id))
            .map(|a| a.burn_events_seen)
            .sum();
        m.set("obs.slo.burn_events", burns as f64);
        m.set("sim.gen.late_ns", t.log.borrow().late_ns as f64);
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
