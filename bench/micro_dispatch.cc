// Microbenchmark for the Section 2 claim: "the overhead of invoking each
// handler is roughly one procedure call."
//
// Measures real wall time of Event::Raise against a direct virtual and
// direct std::function call, plus the scaling of guard chains (the demux
// cost as more endpoints install filters on one event).
//
// The custom main additionally guards the observability invariant: with the
// tracer disabled, Event::Raise must stay within a small constant factor of
// a direct call — instrumentation may not tax the fast path it is not
// observing.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"

#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/profiler.h"
#include "sim/simulator.h"
#include "sim/tracer.h"
#include "spin/dispatcher.h"
#include "spin/event.h"

namespace {

int g_sink = 0;

void DirectCall(benchmark::State& state) {
  std::function<void(int)> fn = [](int v) { g_sink += v; };
  for (auto _ : state) {
    fn(1);
    benchmark::DoNotOptimize(g_sink);
  }
}
BENCHMARK(DirectCall);

void EventRaiseNoGuard(benchmark::State& state) {
  spin::Event<int> ev("Bench.Event");
  (void)ev.Install([](int v) { g_sink += v; });
  for (auto _ : state) {
    ev.Raise(1);
    benchmark::DoNotOptimize(g_sink);
  }
}
BENCHMARK(EventRaiseNoGuard);

void EventRaiseWithGuard(benchmark::State& state) {
  spin::Event<int> ev("Bench.Event");
  (void)ev.Install([](int v) { g_sink += v; }, [](int v) { return v > 0; });
  for (auto _ : state) {
    ev.Raise(1);
    benchmark::DoNotOptimize(g_sink);
  }
}
BENCHMARK(EventRaiseWithGuard);

// N handlers each guarded on a distinct key; exactly one fires per raise —
// the protocol-graph demux pattern. Shows linear guard-chain scaling.
void EventDemuxGuardChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  spin::Event<int> ev("Bench.Demux");
  for (int i = 0; i < n; ++i) {
    (void)ev.Install([](int v) { g_sink += v; }, [i](int v) { return v == i; });
  }
  int key = 0;
  for (auto _ : state) {
    ev.Raise(key);
    key = (key + 1) % n;
    benchmark::DoNotOptimize(g_sink);
  }
  state.SetComplexityN(n);
}
BENCHMARK(EventDemuxGuardChain)->RangeMultiplier(4)->Range(1, 1024)->Complexity();

// The same demux pattern through the compiled index: one hash probe per
// raise instead of N guard evaluations. Near-flat in N.
void EventDemuxIndexed(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  spin::Event<int> ev("Bench.DemuxIndexed");
  ev.SetDemuxKey("key", [](int v) { return std::optional<std::uint64_t>(
                            static_cast<std::uint64_t>(v)); });
  for (int i = 0; i < n; ++i) {
    (void)ev.InstallKeyed([](int v) { g_sink += v; }, static_cast<std::uint64_t>(i));
  }
  int key = 0;
  for (auto _ : state) {
    ev.Raise(key);
    key = (key + 1) % n;
    benchmark::DoNotOptimize(g_sink);
  }
  state.SetComplexityN(n);
}
BENCHMARK(EventDemuxIndexed)->RangeMultiplier(4)->Range(1, 1024)->Complexity();

void EventInstallUninstall(benchmark::State& state) {
  spin::Event<int> ev("Bench.Install");
  for (auto _ : state) {
    auto id = ev.Install([](int) {});
    ev.Uninstall(id.value());
  }
}
BENCHMARK(EventInstallUninstall);

// Best-of-trials wall time per operation: the minimum is robust against
// scheduler noise on shared machines.
template <typename Fn>
double NsPerOpIters(int iters, Fn&& fn) {
  constexpr int kTrials = 7;
  double best = 1e100;
  for (int t = 0; t < kTrials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
      benchmark::DoNotOptimize(g_sink);
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

template <typename Fn>
double NsPerOp(Fn&& fn) {
  return NsPerOpIters(200000, std::forward<Fn>(fn));
}

// Asserts the "tracing disabled adds no measurable cost" acceptance
// criterion. Bounds are deliberately loose — they catch a raise path that
// started building span names or touching the ring while disabled, not
// nanosecond drift.
int CheckDisabledTracingCost() {
  std::function<void(int)> direct = [](int v) { g_sink += v; };

  spin::Event<int> detached("Bench.Detached");
  (void)detached.Install([](int v) { g_sink += v; });

  sim::Simulator sim;
  sim.tracer().SetEnabled(false);  // explicit: immune to PLEXUS_TRACE in the env
  sim::Host host(sim, "bench", sim::CostModel::Default1996(), 1);
  spin::Dispatcher dispatcher(&host);
  spin::Event<int> attached("Bench.Attached", &dispatcher);
  (void)attached.Install([](int v) { g_sink += v; });

  const double call_ns = NsPerOp([&] { direct(1); });
  const double raise_ns = NsPerOp([&] { detached.Raise(1); });
  const double attached_ns = NsPerOp([&] { attached.Raise(1); });

  const double raise_vs_call = raise_ns / call_ns;
  const double attached_vs_detached = attached_ns / raise_ns;
  std::printf("\ntracing-disabled cost check:\n");
  std::printf("  direct call            %8.2f ns/op\n", call_ns);
  std::printf("  raise (no host)        %8.2f ns/op  (%.2fx call)\n", raise_ns, raise_vs_call);
  std::printf("  raise (host, no trace) %8.2f ns/op  (%.2fx detached)\n", attached_ns,
              attached_vs_detached);

  int rc = 0;
  if (raise_vs_call > 40.0) {
    std::fprintf(stderr, "FAIL: Raise is %.1fx a direct call (limit 40x) — the paper's "
                         "'roughly one procedure call' claim no longer holds\n",
                 raise_vs_call);
    rc = 1;
  }
  if (attached_vs_detached > 6.0) {
    std::fprintf(stderr, "FAIL: a host-attached raise with tracing disabled is %.1fx a "
                         "detached raise (limit 6x) — disabled tracing is taxing dispatch\n",
                 attached_vs_detached);
    rc = 1;
  }
  if (rc == 0) std::printf("  PASS\n");
  return rc;
}

// The profiler satellite of the same invariant: with profiling off, a probe
// is one load + one predictable branch. Measures the disabled probe's
// marginal cost directly (probed loop minus empty loop, best-of-trials) and
// requires that the ~3 probes the raise path crosses (raise, demux lookup,
// guard) cost under 2% of a raise. The marginal cost is the difference of
// two sub-nanosecond loop timings, so one attempt can read high on a noisy
// machine; a genuinely heavy disabled path fails every attempt, so the gate
// takes the best of several.
int CheckDisabledProfilerCost() {
  sim::Profiler::SetEnabled(false);  // explicit: immune to PLEXUS_PROFILE in the env

  spin::Event<int> ev("Bench.ProfOff");
  (void)ev.Install([](int v) { g_sink += v; });
  const double raise_ns = NsPerOp([&] { ev.Raise(1); });

  constexpr double kProbesPerRaise = 3.0;
  constexpr int kAttempts = 5;
  double overhead = 1e100;
  double probe_ns = 0.0, probed_ns = 0.0, empty_ns = 0.0;
  for (int a = 0; a < kAttempts; ++a) {
    // The marginal cost is well under a nanosecond, so these two loops need
    // an order of magnitude more iterations than the raise loop to push the
    // measurement floor below the gate.
    const double e = NsPerOpIters(2000000, [] { g_sink += 1; });
    const double p = NsPerOpIters(2000000, [] {
      PLEXUS_PROFILE_SCOPE(kEventRaise);
      g_sink += 1;
    });
    const double marginal = std::max(0.0, p - e);
    const double o = kProbesPerRaise * marginal / raise_ns;
    if (o < overhead) {
      overhead = o;
      probe_ns = marginal;
      probed_ns = p;
      empty_ns = e;
    }
    if (overhead < 0.02) break;  // already inside the gate; stop burning time
  }

  // Code-alignment luck (ASLR) can make the probed loop read a few tenths of
  // a nanosecond slow for an entire process lifetime, which retries inside
  // the process cannot wash out. Anything under half a nanosecond is at most
  // a load and a branch — the invariant this gate protects — while a real
  // regression (span names, ring writes, map lookups) costs tens of
  // nanoseconds and clears both bounds by an order of magnitude.
  constexpr double kNoiseFloorNs = 0.5;
  const bool within = overhead < 0.02 || probe_ns < kNoiseFloorNs;

  std::printf("\nprofiler-disabled cost check:\n");
  std::printf("  raise (probes disabled) %8.2f ns/op\n", raise_ns);
  std::printf("  disabled probe          %8.3f ns marginal (%.3f probed - %.3f empty)\n",
              probe_ns, probed_ns, empty_ns);
  std::printf("  est. %.0f probes/raise   %8.2f%% of a raise (limit 2%%, "
              "or <%.1f ns/probe)\n",
              kProbesPerRaise, overhead * 100.0, kNoiseFloorNs);

  if (!within) {
    std::fprintf(stderr, "FAIL: disabled profiler probes cost %.2f%% of a raise "
                         "(%.3f ns/probe; limit 2%% or <%.1f ns) — the disabled "
                         "path is no longer one load and one branch\n",
                 overhead * 100.0, probe_ns, kNoiseFloorNs);
    return 1;
  }
  std::printf("  PASS\n");
  return 0;
}

// --- Demux scaling: linear guard chain vs compiled index ---------------------

void InstallLinearChain(spin::Event<int>& ev, int n) {
  for (int i = 0; i < n; ++i) {
    (void)ev.Install([](int v) { g_sink += v; }, [i](int v) { return v == i; });
  }
}

void InstallIndexedChain(spin::Event<int>& ev, int n) {
  ev.SetDemuxKey("key", [](int v) {
    return std::optional<std::uint64_t>(static_cast<std::uint64_t>(v));
  });
  for (int i = 0; i < n; ++i) {
    (void)ev.InstallKeyed([](int v) { g_sink += v; }, static_cast<std::uint64_t>(i));
  }
}

// Virtual CPU time per raise under the 1996 cost model: the linear chain
// charges n guard_evals, the index one demux_lookup.
double SimulatedNsPerRaise(bool indexed, int n) {
  sim::Simulator sim;
  sim::Host host(sim, "bench", sim::CostModel::Default1996(), 1);
  spin::Dispatcher dispatcher(&host);
  spin::Event<int> ev("Bench.DemuxSim", &dispatcher);
  if (indexed) {
    InstallIndexedChain(ev, n);
  } else {
    InstallLinearChain(ev, n);
  }
  constexpr int kRaises = 256;
  host.Submit(sim::Priority::kKernel, [&] {
    for (int i = 0; i < kRaises; ++i) ev.Raise(i % n);
  });
  sim.Run();
  return static_cast<double>(host.cpu().busy_total().ns()) / kRaises;
}

// Measures the demux pattern (one matching handler out of N) on the linear
// and indexed paths, prints the table, adds plexus-bench-v1 records to the
// shared reporter, and enforces the perf-smoke gate: indexed at N=256 must
// beat the linear scan by at least 5x wall-clock.
int RunDemuxScaling(bench::JsonReporter& reporter) {
  std::printf("\ndemux scaling (one matching handler out of N):\n");
  std::printf("  %6s | %12s %12s %8s | %13s %13s\n", "N", "linear ns", "indexed ns",
              "speedup", "linear sim-ns", "indexed sim-ns");
  double linear_256 = 0, indexed_256 = 0;
  for (int n : {1, 16, 256, 1024}) {
    spin::Event<int> lin("Bench.DemuxLinear");
    InstallLinearChain(lin, n);
    spin::Event<int> idx("Bench.DemuxIndexed");
    InstallIndexedChain(idx, n);
    const int iters = std::max(2000, 400000 / n);
    int key = 0;
    const double lin_ns = NsPerOpIters(iters, [&] {
      lin.Raise(key);
      key = (key + 1) % n;
    });
    key = 0;
    const double idx_ns = NsPerOpIters(iters, [&] {
      idx.Raise(key);
      key = (key + 1) % n;
    });
    const double lin_sim = SimulatedNsPerRaise(false, n);
    const double idx_sim = SimulatedNsPerRaise(true, n);
    std::printf("  %6d | %12.1f %12.1f %7.1fx | %13.1f %13.1f\n", n, lin_ns, idx_ns,
                lin_ns / idx_ns, lin_sim, idx_sim);
    if (n == 256) {
      linear_256 = lin_ns;
      indexed_256 = idx_ns;
    }
    for (const bool indexed : {false, true}) {
      bench::BenchRecord r;
      r.experiment = "micro_demux_scaling";
      r.device = "wall-clock";
      r.system = indexed ? "indexed" : "linear";
      r.metric = "raise_n" + std::to_string(n);
      r.unit = "ns";
      r.measured = indexed ? idx_ns : lin_ns;
      r.paper_expected = "~1 procedure call";
      r.metrics_json = "{\"n\":" + std::to_string(n) + ",\"simulated_ns_per_raise\":" +
                       std::to_string(indexed ? idx_sim : lin_sim) + "}";
      reporter.Add(std::move(r));
    }
  }
  int rc = 0;
  const double speedup = linear_256 / indexed_256;
  if (speedup < 5.0) {
    std::fprintf(stderr, "FAIL: indexed dispatch at N=256 is only %.1fx the linear scan "
                         "(gate: >=5x) — the demux index is not doing its job\n",
                 speedup);
    rc = 1;
  } else {
    std::printf("  demux gate PASS: indexed is %.1fx linear at N=256 (>=5x required)\n",
                speedup);
  }
  return rc;
}

// --- Batched dispatch: RaiseBatch vs the per-packet Raise loop ---------------

// Virtual CPU time per packet when `burst` same-key packets cross the event:
// the per-packet loop pays demux_lookup + event_dispatch each; RaiseBatch
// pays the probe and full dispatch once and batch_dispatch for the rest.
double SimulatedNsPerPacket(bool batched, int burst) {
  sim::Simulator sim;
  sim::Host host(sim, "bench", sim::CostModel::Default1996(), 1);
  spin::Dispatcher dispatcher(&host);
  spin::Event<int> ev("Bench.BatchSim", &dispatcher);
  InstallIndexedChain(ev, 16);
  constexpr int kBursts = 256;
  host.Submit(sim::Priority::kKernel, [&] {
    std::vector<int> items(static_cast<std::size_t>(burst), 3);
    for (int b = 0; b < kBursts; ++b) {
      if (batched) {
        ev.RaiseBatch(items, [](int& v) { return std::forward_as_tuple(v); });
      } else {
        for (int v : items) ev.Raise(v);
      }
    }
  });
  sim.Run();
  return static_cast<double>(host.cpu().busy_total().ns()) / (kBursts * burst);
}

// The batching acceptance gate: at burst 16 the batched path must cost at
// least 2x less simulated CPU per packet than the per-packet loop. Also
// prints wall-clock per packet — the host-machine cost of the partition
// bookkeeping itself — which is informational, not gated.
int RunBatchDispatch(bench::JsonReporter& reporter) {
  std::printf("\nbatched dispatch (one flow, RaiseBatch vs per-packet Raise):\n");
  std::printf("  %6s | %14s %14s %8s | %12s\n", "burst", "per-pkt sim-ns",
              "batched sim-ns", "speedup", "batched wall");
  double ratio_16 = 0.0;
  for (int burst : {1, 4, 16, 64}) {
    const double per_pkt = SimulatedNsPerPacket(/*batched=*/false, burst);
    const double batched = SimulatedNsPerPacket(/*batched=*/true, burst);
    spin::Event<int> ev("Bench.BatchWall");
    InstallIndexedChain(ev, 16);
    std::vector<int> items(static_cast<std::size_t>(burst), 3);
    const int iters = std::max(2000, 200000 / burst);
    const double wall = NsPerOpIters(iters, [&] {
                          ev.RaiseBatch(items,
                                        [](int& v) { return std::forward_as_tuple(v); });
                        }) /
                        burst;
    const double speedup = per_pkt / batched;
    if (burst == 16) ratio_16 = speedup;
    std::printf("  %6d | %14.1f %14.1f %7.2fx | %9.1f ns\n", burst, per_pkt, batched,
                speedup, wall);
    bench::BenchRecord r;
    r.experiment = "micro_batch_dispatch";
    r.device = "sim-1996";
    r.system = "batched";
    r.metric = "ns_per_pkt_burst" + std::to_string(burst);
    r.unit = "sim_ns";
    r.measured = batched;
    r.paper_expected = "amortized dispatch";
    r.metrics_json = "{\"per_packet_sim_ns\":" + std::to_string(per_pkt) +
                     ",\"wall_ns_per_pkt\":" + std::to_string(wall) + "}";
    reporter.Add(std::move(r));
  }
  if (ratio_16 < 2.0) {
    std::fprintf(stderr, "FAIL: batched dispatch at burst 16 is only %.2fx the "
                         "per-packet path (gate: >=2x) — amortization is not "
                         "reaching the cost model\n",
                 ratio_16);
    return 1;
  }
  std::printf("  batch gate PASS: batched is %.2fx per-packet at burst 16 "
              "(>=2x required)\n",
              ratio_16);
  return 0;
}

// Removes "--flag value" from argv (returning value) so our custom flags
// don't trip benchmark::ReportUnrecognizedArguments.
std::string TakeFlagValue(int& argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return value;
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = TakeFlagValue(argc, argv, "--json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int rc = CheckDisabledTracingCost();
  rc |= CheckDisabledProfilerCost();
  bench::JsonReporter reporter;
  rc |= RunDemuxScaling(reporter);
  rc |= RunBatchDispatch(reporter);
  if (!json_path.empty() && !reporter.WriteTo(json_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
    rc = 1;
  }
  return rc;
}
