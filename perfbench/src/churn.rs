//! `churn-journaled`: the write path beside the read path.
//!
//! A full multi-Jurisdiction `LegionSystem` — Magistrates, Host Objects,
//! classes and a Binding-Agent tree — with HA heartbeats on. Closed-loop
//! clients resolve an object and `Ping` it while a `ChurnDriver` moves
//! objects between Jurisdictions (deactivation, OPR transfer,
//! activation). The network duplicates and reorders messages but never
//! drops one, and the kernel journal records every ingress with
//! content-addressed snapshots at the `--journal-out` cadence. After the
//! run, a verified replay of the journal must find no divergence.

use crate::ledger;
use crate::meter::{self, Phase};
use crate::oplog::{HistogramTap, OpLog, SharedLog};
use crate::report::{check, Metrics, Outcome, PER_LAYER};
use legion_core::address::ObjectAddressElement;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_core::value::LegionValue;
use legion_journal::{JournalSink, MemSink, ReplayStart};
use legion_naming::protocol::GET_BINDING;
use legion_naming::tree::TreeShape;
use legion_net::sim::{Ctx, Endpoint};
use legion_net::{FaultPlan, LatencySpec, Location, Message, Topology};
use legion_sim::experiments::common::client_loid;
use legion_sim::experiments::e08_stale_bindings::ChurnDriver;
use legion_sim::system::{HaConfig, LegionSystem, SystemConfig};
use legion_sim::workload::{generate_plan, LookupClient, WorkloadConfig};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Snapshot cadence of `legion-exp --journal-out` (events per snapshot).
const SNAP_EVERY: u64 = 256;
/// Client think time between operations, virtual ns.
const THINK_NS: u64 = 2_000_000;
/// Virtual time between object moves.
const MOVE_EVERY_NS: u64 = 5_000_000;
/// HA heartbeat and detector sweep period, virtual ns.
const HEARTBEAT_NS: u64 = 10_000_000;
/// Virtual time budgeted per client operation (think time, resolution,
/// stale refreshes and the odd invoke timeout).
const OP_BUDGET_NS: u64 = 40_000_000;
/// Resolve-and-ping operations one client completes per host second on
/// the reference host; sizes the measured phase to `--seconds`.
const OPS_PER_CLIENT_PER_S: u32 = 35;

/// How big one run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Jurisdictions (one Magistrate each).
    pub jurisdictions: u32,
    /// Host Objects per Jurisdiction.
    pub hosts: u32,
    /// User classes.
    pub classes: u32,
    /// Objects per class.
    pub objects_per_class: u32,
    /// Closed-loop clients.
    pub clients: usize,
    /// Operations per client in the warm-up wave.
    pub warm_ops: u32,
    /// Operations per client in the measured phase.
    pub ops: u32,
}

impl Size {
    /// The benchmark size for a `seconds`-long measured phase.
    pub fn for_seconds(seconds: u64) -> Self {
        Size {
            jurisdictions: 4,
            hosts: 4,
            classes: 8,
            objects_per_class: 32,
            clients: 64,
            warm_ops: 20,
            ops: OPS_PER_CLIENT_PER_S * seconds as u32,
        }
    }

    /// A reduced size for the determinism self-test.
    pub fn tiny() -> Self {
        Size {
            jurisdictions: 2,
            hosts: 2,
            classes: 2,
            objects_per_class: 8,
            clients: 8,
            warm_ops: 5,
            ops: 30,
        }
    }

    /// Virtual time the measured phase is expected to need, generously:
    /// heartbeats and churn stop after it so the kernel can drain.
    fn phase_ns(&self) -> u64 {
        self.ops as u64 * OP_BUDGET_NS
    }
}

/// Every `LookupClient` completion, moved into the shared log exactly.
struct Tapped {
    inner: LookupClient,
    tap: HistogramTap,
    failed_seen: u64,
    done: bool,
    log: SharedLog,
}

impl Tapped {
    fn after(&mut self, ctx: &Ctx<'_>) {
        let now = ctx.now().as_nanos();
        let report = &self.inner.report;
        let mut log = self.log.borrow_mut();
        self.tap
            .drain(report.latency.count(), report.latency.sum(), now, &mut log);
        log.failed += report.failed - self.failed_seen;
        self.failed_seen = report.failed;
        if self.inner.is_done() && !self.done {
            self.done = true;
            log.clients_done += 1;
        }
    }
}

impl Endpoint for Tapped {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.log
            .borrow_mut()
            .first_issue_ns
            .get_or_insert(ctx.now().as_nanos());
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

/// Journal writes and the host time they took.
#[derive(Default)]
struct SinkClock {
    writes: AtomicU64,
    ns: AtomicU64,
}

/// A journal sink that times every write into an in-memory sink.
struct TimedSink {
    inner: MemSink,
    clock: Arc<SinkClock>,
}

impl JournalSink for TimedSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write(bytes);
        // Statistics only: nothing else is published through these.
        self.clock
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.clock.writes.fetch_add(1, Ordering::Relaxed);
        r
    }
}

/// The network: LAN and WAN latencies with jitter, 2% of messages
/// duplicated and 5% delayed by up to 500 µs, nothing dropped.
fn faults(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed ^ 0xC4A0);
    plan.set_duplicate_probability(0.02);
    plan.set_reorder(0.05, 500_000);
    plan
}

fn topology() -> Topology {
    Topology {
        same_host: LatencySpec::fixed(5_000),
        same_jurisdiction: LatencySpec {
            base_ns: 100_000,
            jitter_ns: 50_000,
        },
        cross_jurisdiction: LatencySpec {
            base_ns: 4_000_000,
            jitter_ns: 2_000_000,
        },
    }
}

fn workload(ops: u32) -> WorkloadConfig {
    WorkloadConfig {
        lookups_per_client: ops,
        inter_arrival_ns: THINK_NS,
        locality: 0.8,
        client_cache_capacity: 64,
        invoke_after_resolve: true,
        ..WorkloadConfig::default()
    }
}

fn attach_clients(sys: &mut LegionSystem, size: &Size, ops: u32, salt: u64, log: &SharedLog) {
    let wl = workload(ops);
    let objects = sys.objects.clone();
    let j = sys.config().jurisdictions;
    for i in 0..size.clients {
        let jur = i as u32 % j;
        let plan = generate_plan(&objects, jur, &wl, sys.config().seed ^ salt ^ i as u64);
        log.borrow_mut().attempted += plan.len() as u64;
        let agent = sys.leaf_agent_for(i);
        let client = Tapped {
            inner: LookupClient::new(client_loid(i), agent.element(), plan, &wl),
            tap: HistogramTap::default(),
            failed_seen: 0,
            done: false,
            log: Rc::clone(log),
        };
        sys.kernel.add_endpoint(
            Box::new(client),
            Location::new(jur, 500 + salt as u32 + i as u32),
            format!("client{salt}.{i}"),
        );
    }
}

/// Build the system, run the warm-up wave (fault-free, unjournaled) and
/// switch on HA.
fn setup(size: &Size, seed: u64) -> LegionSystem {
    let leaves = size.jurisdictions as usize;
    let mut sys = LegionSystem::build(SystemConfig {
        jurisdictions: size.jurisdictions,
        hosts_per_jurisdiction: size.hosts,
        host_capacity: 4096,
        agent_tree: TreeShape::new(leaves, leaves + 1),
        classes: size.classes,
        objects_per_class: size.objects_per_class,
        topology: topology(),
        seed,
        ..SystemConfig::default()
    });
    let warm = OpLog::shared();
    attach_clients(&mut sys, size, size.warm_ops, 0, &warm);
    let clients = size.clients;
    while warm.borrow().clients_done < clients {
        assert!(
            sys.kernel.run_until_quiescent(100_000) > 0,
            "warm-up wave stalled"
        );
    }
    // Heartbeats and detector sweeps from here to the end of the
    // measured phase.
    let horizon_ns = sys.kernel.now().as_nanos() + size.phase_ns();
    sys.enable_ha(&HaConfig {
        heartbeat_interval_ns: HEARTBEAT_NS,
        sweep_interval_ns: HEARTBEAT_NS,
        horizon_ns,
        ..HaConfig::default()
    });
    sys.kernel.reset_metrics();
    sys
}

/// The journal session of one run.
enum Journal {
    /// Record into a plain in-memory sink.
    Record(MemSink),
    /// Record through a timing sink.
    Timed(MemSink, Arc<SinkClock>),
    /// Verify against a recorded journal.
    Verify(Vec<u8>),
}

/// What one measured phase left behind.
struct Run {
    sys: LegionSystem,
    phase: Phase,
    /// Traced runs: the ledger, taken when the measured phase ends.
    layers: Option<Metrics>,
    log: OpLog,
    /// Moves that succeeded and failed during the measured phase.
    moves: (u64, u64),
    journal: Vec<u8>,
    /// Host time from opening the journal session to closing it, ns.
    session_ns: u64,
    records: u64,
    snapshots: u64,
    bytes: u64,
    divergence: Option<String>,
}

/// Open the journal, start churn and the measured fleet, run until every
/// client is done, drain, close the journal. Passing the untraced run's
/// phase makes this a traced run.
fn measure(mut sys: LegionSystem, size: &Size, journal: Journal, untraced: Option<&Phase>) -> Run {
    let seed = sys.config().seed;
    let traced = untraced.is_some();
    let started = sys.kernel.endpoint_count();
    let opened = Instant::now();
    let sink = match journal {
        Journal::Record(sink) => {
            sys.kernel
                .enable_journal_record(Box::new(sink.clone()), SNAP_EVERY);
            Some(sink)
        }
        Journal::Timed(sink, clock) => {
            sys.kernel.enable_journal_record(
                Box::new(TimedSink {
                    inner: sink.clone(),
                    clock,
                }),
                SNAP_EVERY,
            );
            Some(sink)
        }
        Journal::Verify(data) => {
            sys.kernel
                .enable_journal_verify(data, ReplayStart::Origin)
                .expect("recorded journal parses");
            None
        }
    };
    *sys.kernel.faults_mut() = faults(seed);
    let mags: Vec<(Loid, ObjectAddressElement)> = sys
        .magistrates
        .iter()
        .map(|(l, e)| (*l, e.element()))
        .collect();
    let agents: Vec<ObjectAddressElement> = sys.agents.iter().map(|a| a.element()).collect();
    let moves = size.phase_ns() / MOVE_EVERY_NS;
    let churn = sys.kernel.add_endpoint(
        Box::new(ChurnDriver::new(
            mags,
            sys.objects.clone(),
            MOVE_EVERY_NS,
            moves,
            agents,
            false,
        )),
        Location::new(0, 800),
        "churn-driver",
    );
    let log = OpLog::shared();
    attach_clients(&mut sys, size, size.ops, 1 << 12, &log);
    if traced {
        sys.kernel.enable_profiling();
    }
    let clients = size.clients;
    let phase = meter::drive(&mut sys.kernel, traced, || {
        log.borrow().clients_done == clients
    });
    let driver = sys
        .kernel
        .endpoint::<ChurnDriver>(churn)
        .expect("churn driver");
    let moves = (driver.moves_ok, driver.moves_failed);
    let layers = untraced.map(|base| {
        let mut m = Metrics::new(PER_LAYER);
        let starts = (sys.kernel.endpoint_count() - started) as u64;
        ledger::kernel_layers(&mut m, &sys.kernel, &faults(seed), &phase, base, starts);
        m
    });
    // Heartbeats and churn run on until the horizon; settle them
    // outside the measurement so the journal covers a complete run.
    sys.kernel.run_until_quiescent(u64::MAX);
    let (summary, divergence) = sys.kernel.finish_journal().expect("journal session closes");
    let session_ns = opened.elapsed().as_nanos() as u64;
    *sys.kernel.faults_mut() = FaultPlan::none();
    let log = log.borrow().clone();
    Run {
        sys,
        phase,
        layers,
        log,
        moves,
        journal: sink.map(|s| s.contents()).unwrap_or_default(),
        session_ns,
        records: summary.records,
        snapshots: summary.snapshots,
        bytes: summary.bytes,
        divergence: divergence.map(|d| d.to_string()),
    }
}

/// An object's current state, fetched through the real protocol: its
/// class resolves it, the object answers `SaveState`.
fn object_state(sys: &mut LegionSystem) -> Option<(Loid, Loid, Vec<u8>)> {
    let (class, cep) = sys.classes[0];
    let obj = sys.objects.first()?.0;
    let binding = sys
        .call_for_binding(
            cep.element(),
            class,
            GET_BINDING,
            vec![LegionValue::Loid(obj)],
        )
        .ok()?;
    let primary = *binding.address.primary()?;
    match sys.call(primary, obj, obj_m::SAVE_STATE, vec![]) {
        Ok(LegionValue::Bytes(state)) => Some((obj, class, state)),
        _ => None,
    }
}

/// Run the workload; see [`crate::zipf::run`] for the shape.
pub fn run(seed: u64, size: Size, setups: usize, trace: bool) -> Outcome {
    let (sys, setup_s) = meter::timed_setups(setups, || setup(&size, seed));
    let run = measure(sys, &size, Journal::Record(MemSink::new()), None);
    let false_positives = run
        .sys
        .kernel
        .counters()
        .get("magistrate.ha_false_positive");
    let heartbeats = run.sys.kernel.counters().get("magistrate.heartbeats");
    let mut fingerprint = crate::fingerprint(&run.sys.kernel, &run.log, &run.phase);
    fingerprint.push(("moves_ok".into(), run.moves.0));
    fingerprint.push(("journal_records".into(), run.records));
    fingerprint.push(("journal_bytes".into(), run.bytes));
    let Run {
        sys: recorded_sys,
        phase,
        log,
        journal,
        records,
        ..
    } = run;
    drop(recorded_sys);

    // The verified replay: same build, same inputs, every ingress
    // compared byte for byte against the recording.
    let replay = measure(setup(&size, seed), &size, Journal::Verify(journal), None);
    let replay_ns = replay.session_ns;
    let divergence = replay.divergence.clone();
    drop(replay);

    let planned = size.clients as u64 * size.ops as u64;
    let mut checks = vec![
        check(
            "churn.every_op_completes",
            log.completed == planned,
            format!("completed {} of {planned}", log.completed),
        ),
        check(
            "churn.zero_failed",
            log.failed == 0,
            format!("failed {}", log.failed),
        ),
        check(
            "churn.ha_false_positives_zero",
            false_positives == 0,
            format!("false positives {false_positives}, heartbeats {heartbeats}"),
        ),
        check(
            "churn.heartbeats_ran",
            heartbeats > 0,
            format!("heartbeats {heartbeats}"),
        ),
        check(
            "churn.replay_no_divergence",
            divergence.is_none(),
            divergence.unwrap_or_else(|| format!("{records} records verified")),
        ),
    ];

    let slo_rate = crate::flash::slo_rate_per_s(seed);
    fingerprint.push(("slo_rate_per_s".into(), slo_rate.to_bits()));
    let metrics = if trace {
        let sink = MemSink::new();
        let clock = Arc::new(SinkClock::default());
        let mut t = measure(
            setup(&size, seed),
            &size,
            Journal::Timed(sink, Arc::clone(&clock)),
            Some(&phase),
        );
        checks.push(check(
            "churn.traced_run_matches",
            t.log.completed == log.completed && t.log.lat_ns == log.lat_ns,
            format!("traced completed {}", t.log.completed),
        ));
        let mut m = t.layers.take().expect("traced run has a ledger");
        m.set("runtime.churn.moves_ok", t.moves.0 as f64);
        m.set("runtime.churn.moves_failed", t.moves.1 as f64);
        m.set("journal.records", t.records as f64);
        m.set(
            "journal.bytes_per_msg",
            t.bytes as f64 / t.phase.delivered.max(1) as f64,
        );
        m.set("journal.snapshots", t.snapshots as f64);
        let writes = clock.writes.load(Ordering::Relaxed);
        m.set(
            "journal.sink_ns_per_record",
            clock.ns.load(Ordering::Relaxed) as f64 / writes.max(1) as f64,
        );
        m.set(
            "journal.replay_ns_per_record",
            replay_ns as f64 / records.max(1) as f64,
        );
        if let Some((obj, class, state)) = object_state(&mut t.sys) {
            m.set("persist.codec_ns", ledger::codec_ns(obj, class, &state));
        }
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
