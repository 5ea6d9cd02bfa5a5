#!/usr/bin/env bash
# Tier-2 gate: fault-injection soak of the echo ORB.
#
# Runs examples/chaos_echo — the Compadres client invoking through a
# seeded hostile link (drops, truncations, delays, disconnects) — and
# asserts the fault-tolerance invariants hold:
#
#   * the run terminates (no wedged threads; a hang trips `timeout`);
#   * the example's own asserts pass: bounded deadline-miss rate, no
#     corrupted replies, fault path actually exercised;
#   * retry/reconnect counters surface in App::metrics_text().
#
# A second, overload phase (`chaos_echo overload`) drives the
# banded-admission dispatch path above saturation with mixed-priority
# traffic and asserts the high band is fully protected: zero
# high-priority sheds and zero high-priority deadline misses while the
# low band is measurably shed (DESIGN.md §5j).
#
# A third, multinode phase runs the partitioned FanIn deployment
# (examples/multinode: naming shards, primary + standby hub, two edge
# senders as separate processes) with a seeded primary-exporter kill,
# asserting automatic failover through sharded naming with zero
# high-band deadline misses (DESIGN.md §5k). Each iteration varies the
# seed, so the kill lands at a different point in the traffic.
#
# Fixed seed => deterministic fault schedule => reproducible failures.
#
# Usage: soak.sh [all|multinode] — `multinode` runs only that phase.
set -euo pipefail
cd "$(dirname "$0")/.."

PHASE="${1:-all}"
SOAK_SECS="${SOAK_SECS:-30}"
SEED="${SEED:-42}"
# The soak must finish in soak-time plus compile-free slack; a run that
# needs more than double its budget has a wedged thread somewhere.
HARD_LIMIT=$((SOAK_SECS * 2 + 60))

echo "==> building release artefacts"
cargo build --release --offline --example chaos_echo --example orb_echo \
    --example multinode

if [ "$PHASE" != "multinode" ]; then

echo "==> clean-network baseline (sanity, 2s quiet run via orb_echo)"
timeout 120 ./target/release/examples/orb_echo > /tmp/soak_baseline.log \
    || { echo "baseline orb_echo failed"; cat /tmp/soak_baseline.log; exit 1; }
tail -n 3 /tmp/soak_baseline.log

echo "==> ${SOAK_SECS}s chaos soak, seed ${SEED}"
if ! timeout "$HARD_LIMIT" \
    ./target/release/examples/chaos_echo "$SOAK_SECS" "$SEED" > /tmp/soak_chaos.log 2>&1
then
    status=$?
    if [ "$status" -eq 124 ]; then
        echo "FAIL: soak timed out after ${HARD_LIMIT}s — wedged thread"
    else
        echo "FAIL: chaos_echo exited with status $status"
    fi
    last_progress=$(grep '^progress:' /tmp/soak_chaos.log | tail -n 1 || true)
    echo "chaos seed: ${SEED}"
    echo "last recorded iteration: ${last_progress:-<none — died before first heartbeat>}"
    echo "reproduce with: SOAK_SECS=${SOAK_SECS} SEED=${SEED} scripts/soak.sh"
    # The example's panic hook appends both journal tails and the
    # stitched span tree; carve them into a standalone artefact so CI
    # can upload the causal trace next to the raw log.
    sed -n '/--- client journal tail ---/,$p' /tmp/soak_chaos.log \
        > /tmp/soak_trace_dump.txt 2>/dev/null || true
    [ -s /tmp/soak_trace_dump.txt ] \
        && echo "trace dump saved to /tmp/soak_trace_dump.txt"
    cat /tmp/soak_chaos.log
    exit 1
fi

grep '^invocations=' /tmp/soak_chaos.log

# A healthy run must end with the sample stitched cross-ORB span tree —
# the tracing path is part of the tier-2 contract, not best-effort.
grep -q 'sample stitched span tree' /tmp/soak_chaos.log \
    || { echo "FAIL: no stitched span tree in a passing run"; exit 1; }

# The counters must be visible to operators via the metrics endpoint.
for metric in remote_retries_total remote_reconnects_total \
              remote_deadline_misses_total remote_retry_backoff_ns; do
    grep -q "$metric" /tmp/soak_chaos.log \
        || { echo "FAIL: $metric missing from metrics output"; exit 1; }
done

# Overload phase: above-saturation mixed-priority flood under banded
# admission. The example asserts the invariants itself; the grep pins
# the contract in the CI log even if the example's asserts change.
OVERLOAD_SECS="${OVERLOAD_SECS:-5}"
echo "==> ${OVERLOAD_SECS}s overload phase (banded admission above saturation)"
if ! timeout $((OVERLOAD_SECS * 4 + 60)) \
    ./target/release/examples/chaos_echo overload "$OVERLOAD_SECS" \
    > /tmp/soak_overload.log 2>&1
then
    echo "FAIL: overload phase failed"
    cat /tmp/soak_overload.log
    exit 1
fi
grep '^overload:' /tmp/soak_overload.log
grep -q 'high_shed=0 ' /tmp/soak_overload.log \
    || { echo "FAIL: high band was shed under overload"; exit 1; }
grep -q 'high_deadline_misses=0 ' /tmp/soak_overload.log \
    || { echo "FAIL: high-priority deadline missed under overload"; exit 1; }

fi # PHASE != multinode

# Multinode phase: the partitioned deployment survives seeded
# primary-exporter kills. The example's stdout is the journal: it
# carries the deployment manifest, per-edge failover/recovery latency
# from the shared membership log, and the standby's counters.
MULTINODE_RUNS="${MULTINODE_RUNS:-3}"
echo "==> multinode failover phase (${MULTINODE_RUNS} seeded kills)"
for i in $(seq 1 "$MULTINODE_RUNS"); do
    mn_seed=$((SEED + i))
    echo "==> multinode run $i (seed $mn_seed)"
    if ! timeout 120 env COMPADRES_MN_SEED_OVERRIDE="$mn_seed" \
        ./target/release/examples/multinode \
        > "/tmp/soak_multinode_$i.log" 2>&1
    then
        echo "FAIL: multinode failover run $i (seed $mn_seed)"
        echo "journal: /tmp/soak_multinode_$i.log"
        echo "reproduce with: SEED=${SEED} MULTINODE_RUNS=${MULTINODE_RUNS} scripts/soak.sh multinode"
        cat "/tmp/soak_multinode_$i.log"
        exit 1
    fi
    grep -E '^(  (edge|standby|naming)|multinode)' "/tmp/soak_multinode_$i.log" | tail -n 6
done

echo "Soak passed."
