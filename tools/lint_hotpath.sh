#!/usr/bin/env bash
# Hot-path scheduler lint: the kernel's event ordering lives in exactly
# one place — the hierarchical timer wheel (crates/net/src/equeue.rs).
#
# Fails the build if:
#   * `BinaryHeap` appears outside equeue.rs. The wheel replaced the
#     heap on the hot path; the only remaining heap is the reference
#     model inside equeue.rs's own property tests. A heap creeping back
#     in elsewhere silently reintroduces O(log n) comparisons (and
#     32-byte event moves) per scheduling operation.
#   * `queue.push(` appears outside equeue.rs in more than the one
#     blessed call site: the kernel's single enqueue funnel in
#     crates/net/src/sim.rs (`Inner::enqueue`), which stamps the
#     deterministic (time, seq) key. Any other direct push would bypass
#     the sequence stamping that the replay/journal layer depends on.
#   * `queue.pop(` appears outside equeue.rs in more than the one
#     blessed call site: the kernel's single dequeue funnel in
#     crates/net/src/sim.rs (`Inner::dequeue`). The snapshot witness's
#     queue digest adds at the enqueue funnel and subtracts at the
#     dequeue funnel; a second pop site would let it drift.
#   * `flight.record(`, `journal.note(` or `sink.record(` appears in
#     non-test code outside its owning crate (crates/obs, crates/journal)
#     anywhere but the one kernel emission funnel,
#     crates/net/src/sim/observe.rs (`Inner::observe`). The funnel routes
#     each event kind to its sinks from one table; a direct call would
#     let the journal, flight ring and span stream disagree.
set -euo pipefail
cd "$(dirname "$0")/.."

wheel='crates/net/src/equeue.rs'

heap_hits=$(grep -rn 'BinaryHeap' crates/ --include='*.rs' \
    | grep -v "^$wheel:" || true)

if [[ -n "$heap_hits" ]]; then
    echo "error: BinaryHeap outside the timer wheel ($wheel):" >&2
    echo "$heap_hits" >&2
    echo >&2
    echo "Schedule through legion_net::equeue::EventQueue instead; it preserves" >&2
    echo "the deterministic (time, seq) pop order at amortized O(1)." >&2
    exit 1
fi

# The single call site of `call` outside the paths matching `owners`
# (an extended regex over grep's `path:` prefix), which must be in
# `file`, or exit 1.
single_site() {
    local call="$1" owners="$2" file="$3" funnel="$4" why="$5" hits count
    hits=$(grep -rnF "$call" crates/ --include='*.rs' \
        | grep -Ev "^($owners)" || true)
    count=$(printf '%s' "$hits" | grep -c . || true)
    if [[ "$count" -ne 1 ]] || ! grep -q "^$file:" <<<"$hits"; then
        echo "error: expected exactly one $call call site outside its owner" >&2
        echo "(the $funnel funnel in $file); found:" >&2
        echo "${hits:-<none>}" >&2
        echo >&2
        echo "$why" >&2
        exit 1
    fi
}

single_site 'queue.push(' "$wheel:" crates/net/src/sim.rs enqueue \
    "Route all event scheduling through SimKernel's enqueue so every event
gets its deterministic sequence stamp and enters the snapshot witness."
single_site 'queue.pop(' "$wheel:" crates/net/src/sim.rs dequeue \
    "Take events off the wheel only through SimKernel's dequeue so the
snapshot witness's queue digest stays exact."

# Kernel emission: one funnel feeds the journal, the flight ring and the
# span stream. Test files may drive the sinks directly.
observe='crates/net/src/sim/observe.rs'
sink_owners='crates/obs/|crates/journal/|crates/[^:]*/(tests|benches)/'
for call in 'flight.record(' 'journal.note(' 'sink.record('; do
    single_site "$call" "$sink_owners" "$observe" observe \
        "Emit kernel events through Inner::observe so the routing table decides
which sinks see them."
done

# Admission path: the per-endpoint admission queue is an O(1) integer
# ledger (admitted-until horizon + counters), not a buffer. Overload is
# shed at the door with a retry-after hint; nothing is ever queued in a
# growable collection, so a flash crowd cannot balloon memory. Any
# collection type appearing in admission.rs means someone reintroduced
# an unbounded queue on the overload path.
admission='crates/net/src/admission.rs'
queue_hits=$(grep -n 'Vec<\|VecDeque\|HashMap\|BTreeMap\|HashSet\|BTreeSet\|LinkedList' \
    "$admission" || true)

if [[ -n "$queue_hits" ]]; then
    echo "error: growable collection type on the admission path ($admission):" >&2
    echo "$queue_hits" >&2
    echo >&2
    echo "Admission control must stay an O(1) bounded ledger: shed with a" >&2
    echo "retry-after hint instead of buffering. Unbounded queues turn overload" >&2
    echo "into memory exhaustion." >&2
    exit 1
fi
echo "lint_hotpath: ok"
