//! The benchmark's own checks: runs are a function of the seed, and the
//! metric vocabulary matches `BENCHMARK.json` and `manifest.json`.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};
use std::process::Command;

/// Every seed-determined quantity of one reduced-size run: virtual
/// latencies, message and operation counts, allocator calls and every
/// kernel counter. Each run is its own process, as in the benchmark.
fn fingerprint(workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--size", "tiny", "--fingerprint"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{last}");
    stdout
        .lines()
        .filter(|l| l.starts_with("fingerprint "))
        .map(str::to_string)
        .collect()
}

/// Two fingerprints of one seed must agree exactly, except that the
/// allocator-call count may differ by one in ten thousand: the
/// repository's `LookupClient` and `OpenLoopClient` keep calls in std
/// `HashMap`s, whose per-process random hash keys decide when a table
/// with tombstones grows instead of rehashing in place.
fn assert_same_run(w: &str, a: &[String], b: &[String]) {
    assert_eq!(a.len(), b.len(), "{w}: fingerprints differ in shape");
    for (x, y) in a.iter().zip(b) {
        match (
            x.strip_prefix("fingerprint allocs "),
            y.strip_prefix("fingerprint allocs "),
        ) {
            (Some(x), Some(y)) => {
                let (x, y): (f64, f64) = (x.parse().unwrap(), y.parse().unwrap());
                assert!((x - y).abs() <= x * 1e-4, "{w}: allocs {x} vs {y}");
            }
            _ => assert_eq!(x, y, "{w}: two runs of one seed differ"),
        }
    }
}

#[test]
fn same_seed_runs_agree_and_another_seed_differs() {
    for w in WORKLOADS {
        let a = fingerprint(w, DEFAULT_SEED, false);
        let b = fingerprint(w, DEFAULT_SEED, false);
        assert!(a.len() > 10, "{w}: fingerprint too small: {a:?}");
        assert_same_run(w, &a, &b);
        let c = fingerprint(w, HELD_OUT_SEED, false);
        let virtual_part = |f: &[String]| -> Vec<String> {
            f.iter()
                .filter(|l| !l.contains(" allocs "))
                .cloned()
                .collect()
        };
        assert_ne!(
            virtual_part(&a),
            virtual_part(&c),
            "{w}: the held-out seed changed nothing"
        );
    }
}

#[test]
fn traced_runs_pass_their_checks_and_repeat_the_run() {
    // A traced run re-executes the workload with tracing on and checks
    // that it completes the same operations with the same latencies.
    for w in WORKLOADS {
        let plain = fingerprint(w, DEFAULT_SEED, false);
        let traced = fingerprint(w, DEFAULT_SEED, true);
        assert_same_run(w, &plain, &traced);
    }
}

fn read(path: &str) -> String {
    let p = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{p}: {e}"))
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let bench = read("../BENCHMARK.json");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(bench.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = bench.matches("\"name\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "BENCHMARK.json names metrics the benchmark does not report"
    );
}

#[test]
fn manifest_records_seeds_and_a_target_for_every_layer_metric() {
    let manifest = read("manifest.json");
    assert!(manifest.contains(&format!("\"default_seed\": {DEFAULT_SEED}")));
    assert!(manifest.contains(&format!("\"held_out_seed\": {HELD_OUT_SEED}")));
    for (name, _) in PER_LAYER {
        assert!(
            manifest.contains(&format!("\"metric\": \"{name}\"")),
            "manifest.json has no target for {name}"
        );
    }
}
