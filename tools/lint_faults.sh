#!/usr/bin/env bash
# Fault-accounting lint: adversarial delivery semantics (drop/duplicate/
# reorder/delay verdicts) and the kernel's delivery counters are owned by
# legion-net's fault layer. Everything else configures faults through the
# public API — `FaultPlan` setters and `SimKernel::faults_mut()` — and
# reads accounting through `stats()`/`counters()`, never by poking the
# raw fields or re-deciding verdicts.
#
# Fails the build if kernel-internal stats accounting (`inner.stats`,
# `.stats.sent`-style field access) or fault-verdict construction
# (`Verdict::Duplicate { .. }` etc.) appears outside
# crates/net/src/faults.rs, crates/net/src/sim.rs and the kernel's send
# path crates/net/src/sim/send.rs (plus legion-net's own integration
# tests, which exercise the fault plan directly).
set -euo pipefail
cd "$(dirname "$0")/.."

allowed_re='^crates/net/src/(faults|sim|sim/send)\.rs:|^crates/net/tests/'

hits=$(grep -rnE 'inner\.stats|\.stats\.(sent|delivered|lost|refused|dead_letters|events)|Verdict::(Deliver|DropSilently|Duplicate|Delay)' \
    crates/ --include='*.rs' | grep -vE "$allowed_re" || true)

if [[ -n "$hits" ]]; then
    echo "error: raw fault accounting outside legion-net's fault layer:" >&2
    echo "$hits" >&2
    echo >&2
    echo "Configure faults via FaultPlan / SimKernel::faults_mut() and read" >&2
    echo "delivery accounting via SimKernel::stats()/counters() instead." >&2
    exit 1
fi
echo "lint_faults: ok"
