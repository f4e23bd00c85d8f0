#!/usr/bin/env bash
# First lints that perfbench refuses every env gate src/ reads. Then builds
# the suite under AddressSanitizer + UndefinedBehaviorSanitizer and
# runs every tier-1 test six times: plain, with PLEXUS_TRACE=1 and
# PLEXUS_PROFILE=1 together (tracer recording and wall-clock engine
# profiler armed: both pure observers), with PLEXUS_MBUF_POOL=small
# (starved 256-segment mbuf pool), with PLEXUS_CHAOS_FLAP=1 (mid-run link
# flap), with PLEXUS_SLAB=off (slab allocators degraded to plain operator
# new/delete), and with PLEXUS_BATCH=off (rx bursts, batch dispatch, and
# GRO/GSO all disabled — the engine must degrade to the per-packet path
# byte-identically). Catches the memory
# bugs the fault-containment, tracing, overload-control, observability,
# and allocation machinery must never introduce (use-after-free across
# handler quarantine, fence lifetime mistakes during stack unwinding,
# dangling span frames across ring eviction, pool accounting races on
# drop paths, slab-gate behaviour divergence, ...). Wall-clock, overload,
# chaos, adversarial and paper-baseline gates follow, and last a
# virtual-time identity gate for the default engine's perfbench workloads.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-sanitize}"

echo "=== lint: perfbench refuses every env gate named in src/ ==="
# perfbench promises to measure the default engine only. A "PLEXUS_..."
# gate that src/ reads but perfbench's kEngineGates list does not refuse
# could switch the benchmarked engine without anyone noticing.
refused="$(sed -n '/kEngineGates\[\] = {/,/};/p' perfbench/main.cc)"
lint_failed=0
for gate in $(grep -rhoE '"PLEXUS_[A-Z0-9_]+"' src | sort -u); do
  if ! grep -qF "$gate" <<<"$refused"; then
    echo "env gate $gate in src/ is missing from kEngineGates in perfbench/main.cc" >&2
    lint_failed=1
  fi
done
[[ "$lint_failed" == 0 ]] || exit 1

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPLEXUS_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)"

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
# detect_stack_use_after_return catches a callback that outlives the stack
# frame whose locals it captured by reference (an event scheduled from
# inside another event's lambda).
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0:detect_stack_use_after_return=1}"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== second pass: observers armed (PLEXUS_TRACE=1 PLEXUS_PROFILE=1) ==="
# The tracer and the wall-clock engine self-profiler record on every hot
# path. Both are pure observers with one contract — no effect on virtual
# time, none on memory safety — so one pass arms them together, as
# perfbench's traced phase does.
PLEXUS_TRACE=1 PLEXUS_PROFILE=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== third pass: starved mbuf pool (PLEXUS_MBUF_POOL=small) ==="
# 256-segment pools force the exhaustion paths (rx refill failures, tx
# ENOBUFS drops, TCP retransmit recovery) through the whole tier-1 suite,
# still under the sanitizers: exhaustion must degrade, never corrupt.
PLEXUS_MBUF_POOL=small ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== fourth pass: mid-run link flap (PLEXUS_CHAOS_FLAP=1) ==="
# Every medium briefly drops carrier at t=7.777ms: the whole tier-1 suite
# must tolerate a link blip in the middle of its workload (retransmission,
# ARP retry, and carrier-notification paths), still under the sanitizers.
PLEXUS_CHAOS_FLAP=1 ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== fifth pass: slab allocators disabled (PLEXUS_SLAB=off) ==="
# Every pooled allocation degrades to plain operator new/delete (accounting
# intact): behaviour and virtual time must be identical with and without
# the slabs, and the heap path gets full sanitizer coverage.
PLEXUS_SLAB=off ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== sixth pass: batched packet path disabled (PLEXUS_BATCH=off) ==="
# The off-gate identity: with batching off the NIC delivers one frame per
# interrupt, so no batch scope opens, no RaiseBatch runs, and GRO/GSO never
# engage. The whole tier-1 suite must behave exactly as the per-packet
# engine did, still under the sanitizers.
PLEXUS_BATCH=off ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure "$@"

echo "=== slow pass: soak / scale suites (label: slow) ==="
# The connection-churn soak and other large-population suites run once,
# in their own labelled pass, still under the sanitizers.
ctest --test-dir "$BUILD_DIR" -L slow --output-on-failure "$@"

echo "=== perf smoke: demux index vs linear guard scan, timer wheel vs lazy heap ==="
# Wall-clock gates, so they run against the regular (non-sanitized) build:
# bench_micro_dispatch exits non-zero if indexed dispatch at N=256 handlers
# is not at least 5x faster than the linear path it replaces (and if
# disabled tracing taxes the raise path); bench_micro_timer exits non-zero
# if the simulator's schedule+cancel throughput at 64k pending timers is
# not at least 1.5x that of the bench's own lazily cancelled binary heap
# (both slab-pooled, so the gate measures the wheel's algorithmic edge).
PERF_BUILD_DIR="${PERF_BUILD_DIR:-build}"
cmake -B "$PERF_BUILD_DIR" -S .
cmake --build "$PERF_BUILD_DIR" -j "$(nproc)" --target bench_micro_dispatch \
  bench_micro_timer bench_overload_sweep bench_chaos bench_adversarial \
  bench_fig5_udp_latency bench_tab1_tcp_throughput bench_scale_connections
"$PERF_BUILD_DIR/bench/bench_micro_dispatch" --benchmark_filter=none
"$PERF_BUILD_DIR/bench/bench_micro_timer"

echo "=== overload gate: graceful degradation at 10x offered load ==="
# Exits non-zero unless the protected server's goodput at 10x stays >= 60%
# of its peak, interrupt->poll transitions occur and are traced, and the
# mbuf pool drains to zero after every run.
"$PERF_BUILD_DIR/bench/bench_overload_sweep"

echo "=== chaos gate: recovery + goodput retention under faults ==="
# Exits non-zero unless all faulted transfers complete byte-exactly,
# goodput retention at the standard flap (period 2s, down fraction 0.1)
# stays >= 60%, crash recovery stays under 10s of overhead, and every run
# drains leak-free with zero quarantines. The 1000-seed invariant sweep
# runs in the slow ctest pass above (chaos_property_test).
"$PERF_BUILD_DIR/bench/bench_chaos"

echo "=== adversarial gate: SYN flood and RST spray ==="
# Exits non-zero unless SYN cookies hold >= 80% connection-churn goodput
# under a 1000 SYN/s spoofed flood (and the cookie-less listener visibly
# collapses), every blind-RST-sprayed transfer completes byte-exactly with
# challenge ACKs observed, and every run drains leak-free with zero
# quarantines. The 1000-seed structure-aware fuzz corpus runs in the slow
# ctest pass above (fuzz_property_test).
"$PERF_BUILD_DIR/bench/bench_adversarial"

echo "=== bench regression gate: fresh fig5/tab1 vs committed baselines ==="
# Re-runs the two paper-figure benches and diffs their metrics against
# bench/baselines/. Both are virtual-clock outputs, so the gate is exact:
# every RTT (us) and throughput (Mb/s) cell must match bit for bit.
# --self-test proves the comparator still rejects an injected regression.
BENCH_TMP="$(mktemp -d)"
trap 'rm -rf "$BENCH_TMP"' EXIT
# The committed baselines predate the batched packet path, whose burst
# coalescing legitimately moves virtual time; PLEXUS_BATCH=off pins the
# per-packet engine these baselines describe (and doubles as a system-level
# proof that the off-gate really restores it).
PLEXUS_BATCH=off "$PERF_BUILD_DIR/bench/bench_fig5_udp_latency" --json "$BENCH_TMP/BENCH_fig5.json"
PLEXUS_BATCH=off "$PERF_BUILD_DIR/bench/bench_tab1_tcp_throughput" --json "$BENCH_TMP/BENCH_tab1.json"
python3 scripts/bench_compare.py bench/baselines/BENCH_fig5.json "$BENCH_TMP/BENCH_fig5.json"
python3 scripts/bench_compare.py bench/baselines/BENCH_tab1.json "$BENCH_TMP/BENCH_tab1.json"
python3 scripts/bench_compare.py bench/baselines/BENCH_fig5.json --self-test

echo "=== scale gate: virtual-time identity at 100..100k connections ==="
# Re-runs the full connection ladder (including the 100k rung) and diffs it
# against the committed baseline. The sim_ns rows are an EXACT gate — the
# simulation is deterministic, so any drift in virtual time means engine
# behaviour changed; the wall rows are report-only (machine-dependent).
PLEXUS_BATCH=off "$PERF_BUILD_DIR/bench/bench_scale_connections" \
  --sizes 100,1000,10000,100000 --json "$BENCH_TMP/BENCH_scale.json"
python3 scripts/bench_compare.py bench/baselines/BENCH_scale.json \
  "$BENCH_TMP/BENCH_scale.json"

echo "=== virtual-time gate: default-engine perfbench digests vs committed baselines ==="
# The gates above pin PLEXUS_BATCH=off; this one pins the engine users run.
# Each perfbench workload's model.digest hashes its virtual-time window
# (latencies, CPU busy, exact byte counts), so any drift means the model
# changed. The self-test then checks the benchmark itself.
while read -r workload digest; do
  [[ -z "$workload" || "$workload" == \#* ]] && continue
  got="$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 |
    awk -v w="$workload" '$1 == "model.digest" && $2 == w && NF == 3 { print $3 }')"
  if [[ "$got" != "$digest" ]]; then
    echo "model.digest $workload: got '$got', baseline $digest" >&2
    exit 1
  fi
  echo "model.digest $workload $got: matches baseline"
done < bench/baselines/perfbench_digests.txt
python3 perfbench/run.py --self-test
