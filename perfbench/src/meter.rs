//! The measured phase: drive a kernel in fixed event slices, time it,
//! count allocator traffic, and — in a traced run — time every `step()`.

use legion_net::SimKernel;
use std::time::Instant;

/// Kernel events between two checks of a phase's end condition.
const SLICE_EVENTS: u64 = 10_000;

/// What a measured phase cost on the host.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Host wall time of the whole phase, ns.
    pub wall_ns: u64,
    /// Traced runs: host wall time spent inside `SimKernel::step`, ns.
    pub step_ns: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Messages delivered (the kernel's metrics are reset before a phase).
    pub delivered: u64,
    /// Allocator calls during the phase.
    pub allocs: u64,
    /// Bytes requested from the allocator during the phase.
    pub alloc_bytes: u64,
    /// Peak resident set during the phase, MiB (see [`drive`]).
    pub peak_rss_mb: f64,
}

impl Phase {
    /// Kernel events per host second over the whole phase. (Host speed
    /// drifts between slower and faster stretches of a second or more;
    /// a median over short slices jumps between them, while the phase
    /// mean averages them.)
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s()
    }

    /// Operations per host second over the whole phase, for `ops`
    /// operations completed in it.
    pub fn ops_per_s(&self, ops: u64) -> f64 {
        ops as f64 / self.wall_s()
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns.max(1) as f64 / 1e9
    }
}

/// Run the kernel until `done()` holds (checked between slices) or the
/// queue drains. With `traced`, every `step()` is bracketed by a
/// wall-clock read. The process's peak-RSS mark is reset when the phase
/// starts and read when it ends, so `peak_rss_mb` covers the phase and
/// none of the benchmark's own work after it.
pub fn drive(kernel: &mut SimKernel, traced: bool, done: impl Fn() -> bool) -> Phase {
    let mut phase = Phase::default();
    reset_peak_rss();
    let (a0, b0) = legion_bench::alloc_counter::counts();
    let t0 = Instant::now();
    loop {
        let n = if traced {
            let mut n = 0;
            while n < SLICE_EVENTS {
                let s = Instant::now();
                let more = kernel.step();
                phase.step_ns += s.elapsed().as_nanos() as u64;
                if !more {
                    break;
                }
                n += 1;
            }
            n
        } else {
            kernel.run_until_quiescent(SLICE_EVENTS)
        };
        phase.events += n;
        if n < SLICE_EVENTS {
            break;
        }
        if done() {
            break;
        }
    }
    phase.wall_ns = t0.elapsed().as_nanos() as u64;
    phase.peak_rss_mb = peak_rss_mb();
    phase.delivered = kernel.stats().delivered;
    let (a1, b1) = legion_bench::alloc_counter::counts();
    phase.allocs = a1 - a0;
    phase.alloc_bytes = b1 - b0;
    eprintln!(
        "measured phase{}: {} events, {} delivered, {:.3} s",
        if traced { " (traced)" } else { "" },
        phase.events,
        phase.delivered,
        phase.wall_ns as f64 / 1e9
    );
    phase
}

/// Reset this process's peak-RSS mark to its current resident set
/// (writing 5 to `/proc/self/clear_refs`, Linux 4.0 and later). Where that
/// fails, `VmHWM` keeps counting from process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), MiB. 0 where `/proc` is
/// unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Set a workload up repeatedly, timing each set-up, and keep the last
/// system. At least `count` set-ups, more (up to 100) while they take
/// under two seconds in total, so short set-ups get a median that spans
/// more than one spell of host speed.
pub fn timed_setups<T>(count: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begun = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < count.max(1)
        || (count > 1 && begun.elapsed().as_secs_f64() < 2.0 && times.len() < 100)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}
