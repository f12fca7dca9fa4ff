//! The per-layer ledger of a traced run, and the micro-benches that price
//! single layer entry points.
//!
//! Layers are named after the crates. The kernel profiler attributes
//! handler wall time to endpoint × method; endpoints are grouped into
//! layers by name (see [`layer_of`]). The rest of the time inside
//! `SimKernel::step` is the kernel's own, and the time outside every
//! `step` is unaccounted, so for the measured phase:
//!
//! ```text
//! wall = Σ handler time + kernel self time + unaccounted
//! ```

use crate::meter::{median, Phase};
use crate::report::Metrics;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::time::SimTime;
use legion_net::admission::{AdmissionConfig, AdmissionQueue};
use legion_net::equeue::EventQueue;
use legion_net::sim::{FlightEvent, FlightKind, FlightRecorder};
use legion_net::{FaultPlan, Histogram, Location, SimKernel};
use legion_persist::opr::Opr;
use std::hint::black_box;
use std::time::Instant;

/// The layer an endpoint's handler time belongs to, by endpoint name.
/// Objects count with their hosts; the autoscaler with the router it
/// feeds; the benchmark's clients, drivers and synthesized services are
/// `sim.driver`.
pub fn layer_of(endpoint_name: &str) -> &'static str {
    let n = endpoint_name;
    if n.starts_with("agent") {
        "naming.agent"
    } else if n.starts_with("class:") || n == "LegionClass" {
        "runtime.class"
    } else if n.starts_with("magistrate:") {
        "runtime.magistrate"
    } else if n.starts_with("host:") || n.starts_with("obj:") {
        "runtime.host"
    } else if n.starts_with("replica-router") || n.starts_with("autoscaler") {
        "runtime.router"
    } else {
        "sim.driver"
    }
}

const LAYERS: [&str; 6] = [
    "naming.agent",
    "runtime.class",
    "runtime.magistrate",
    "runtime.host",
    "runtime.router",
    "sim.driver",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fill the layer metrics the kernel itself can report after a traced
/// measured phase: profile, counters, stats and metrics snapshot.
/// `untraced` is the same phase run without tracing; `starts` is the
/// number of endpoints attached during the phase (each costs one start
/// event); `faults` is the fault plan the workload installed.
pub fn kernel_layers(
    m: &mut Metrics,
    kernel: &SimKernel,
    faults: &FaultPlan,
    traced: &Phase,
    untraced: &Phase,
    starts: u64,
) {
    let stats = kernel.stats();
    let counters = kernel.counters();
    let snap = kernel.metrics_snapshot();

    // Handler time per layer, from the profiler.
    let mut wall = [0u64; LAYERS.len()];
    let mut calls = [0u64; LAYERS.len()];
    for e in &kernel.profile().entries {
        let i = LAYERS
            .iter()
            .position(|l| *l == layer_of(&e.endpoint_name))
            .expect("every layer is listed");
        wall[i] += e.stat.wall_ns;
        calls[i] += e.stat.count;
    }
    for (i, layer) in LAYERS.iter().enumerate() {
        m.set(&format!("{layer}.handler_ns"), ratio(wall[i], calls[i]));
        m.set(&format!("{layer}.calls"), calls[i] as f64);
    }
    let handlers: u64 = wall.iter().sum();
    let events = traced.events.max(1);
    m.set(
        "net.kernel.self_ns_per_event",
        traced.step_ns.saturating_sub(handlers) as f64 / events as f64,
    );
    m.set("net.kernel.events", traced.events as f64);
    m.set("net.kernel.delivered", stats.delivered as f64);
    let dedup = counters.get_sym(symbol::NET_DEDUP_DROPPED);
    m.set(
        "net.kernel.timer_events",
        traced
            .events
            .saturating_sub(stats.delivered + stats.dead_letters + dedup + starts) as f64,
    );
    m.set(
        "net.kernel.unaccounted_frac",
        traced.wall_ns.saturating_sub(traced.step_ns) as f64 / traced.wall_ns.max(1) as f64,
    );
    m.set("net.equeue.peak_len", kernel.queue_peak_len() as f64);
    m.set(
        "net.equeue.push_pop_ns",
        equeue_push_pop_ns(kernel.queue_peak_len().max(1), kernel.latency_histogram()),
    );
    m.set(
        "net.hop_p99_ms",
        kernel.latency_histogram().quantile(0.99) as f64 / 1e6,
    );
    m.set(
        "net.faults.duplicated",
        counters.get_sym(symbol::NET_DUPLICATED) as f64,
    );
    m.set(
        "net.faults.delayed",
        counters.get_sym(symbol::NET_DELAYED) as f64,
    );
    m.set("net.dedup.dropped", dedup as f64);
    m.set(
        "net.dispatch.dead_letters",
        snap.dispatch_dead_letters as f64,
    );
    m.set(
        "net.dispatch.timeouts_expired",
        snap.timeouts_expired as f64,
    );
    m.set("net.admission.shed", snap.requests_shed as f64);
    m.set(
        "net.admission.overload_replies",
        snap.overload_replies as f64,
    );
    m.set(
        "net.alloc_bytes_per_msg",
        ratio(untraced.alloc_bytes, stats.delivered),
    );

    let hits = counters.get("client.cache_hit");
    m.set(
        "naming.client_cache.hit_ratio",
        ratio(hits, hits + counters.get("client.cache_miss")),
    );
    let ba_hits = counters.get("ba.cache_hit");
    m.set(
        "naming.agent_cache.hit_ratio",
        ratio(ba_hits, ba_hits + counters.get("ba.cache_miss")),
    );
    m.set(
        "naming.legion_class.requests",
        (counters.get("legion_class.find")
            + counters.get("legion_class.issue")
            + counters.get("legion_class.get_binding")) as f64,
    );
    let hottest = snap
        .endpoints
        .iter()
        .filter(|e| e.name.starts_with("agent"))
        .map(|e| e.received)
        .max()
        .unwrap_or(0);
    m.set("naming.hottest_agent.msgs", hottest as f64);
    m.set(
        "naming.stale_refreshes",
        counters.get("client.stale_detected") as f64,
    );

    m.set(
        "runtime.magistrate.activations",
        counters.get("magistrate.activations") as f64,
    );
    m.set(
        "runtime.magistrate.deactivations",
        counters.get("magistrate.deactivations") as f64,
    );
    m.set(
        "persist.oprs_moved",
        counters.get("magistrate.received_oprs") as f64,
    );
    m.set(
        "ha.heartbeats",
        counters.get("magistrate.heartbeats") as f64,
    );
    m.set(
        "ha.false_positives",
        counters.get("magistrate.ha_false_positive") as f64,
    );

    m.set(
        "obs.trace_overhead_frac",
        (traced.wall_ns as f64 - untraced.wall_ns as f64) / untraced.wall_ns.max(1) as f64,
    );
    m.set("obs.flight.record_ns", flight_record_ns());
    m.set("net.faults.judge_ns", judge_ns(kernel, faults));
}

/// Median over five rounds of the mean cost of `f`, ns per call.
fn bench_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// The timer wheel in a steady "hold" at `depth` pending events: pop the
/// earliest, push it back one delay later, with delays drawn from the
/// workload's hop-latency distribution. ns per pop + push.
pub fn equeue_push_pop_ns(depth: usize, hops: &Histogram) -> f64 {
    const N: usize = 1024;
    let delays: Vec<u64> = (0..N)
        .map(|i| hops.quantile((i as f64 + 0.5) / N as f64).max(1))
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut seq = 0u64;
    for i in 0..depth {
        let at = delays[(i * 613) % N];
        q.push(at, seq, at);
        seq += 1;
    }
    bench_ns(200_000, |i| {
        let at = q.pop().expect("hold keeps the queue at depth");
        let next = at + delays[(i as usize * 613) % N];
        q.push(next, seq, next);
        seq += 1;
        black_box(&q);
    })
}

/// The workload's fault plan judging messages between its endpoints.
fn judge_ns(kernel: &SimKernel, plan: &FaultPlan) -> f64 {
    let locs: Vec<Location> = kernel
        .all_meta()
        .map(|(_, m)| m.location)
        .take(64)
        .collect();
    let n = locs.len().max(1);
    bench_ns(500_000, |i| {
        let from = locs[i as usize % n];
        let to = locs[(i as usize * 7 + 3) % n];
        black_box(plan.judge(black_box(i), from, to, SimTime(i * 1000)));
    })
}

/// One admission ledger offered calls at twice its saturation rate, so
/// admits and sheds alternate. ns per offer.
pub fn admission_offer_ns(cfg: AdmissionConfig) -> f64 {
    let mut q = AdmissionQueue::new(cfg);
    let step = (cfg.service_ns / 2).max(1);
    bench_ns(1_000_000, |i| {
        black_box(q.offer(black_box(i * step)));
    })
}

/// Encode an object's OPR and decode it again. ns per round trip.
pub fn codec_ns(loid: Loid, class: Loid, state: &[u8]) -> f64 {
    let opr = Opr::new(loid, class, 0, state.to_vec());
    bench_ns(100_000, |_| {
        let bytes = black_box(&opr).encode();
        black_box(Opr::decode(&bytes).expect("round trip"));
    })
}

/// One flight-recorder append into a full ring. ns per record.
fn flight_record_ns() -> f64 {
    let mut rec = FlightRecorder::default();
    bench_ns(1_000_000, |i| {
        rec.record(FlightEvent {
            at: SimTime(i),
            kind: FlightKind::Deliver,
            endpoint: i & 63,
            label: symbol::PING,
            detail: i,
            seq: 0,
        });
        black_box(&rec);
    })
}
