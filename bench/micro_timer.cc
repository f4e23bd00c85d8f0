// Microbenchmark for the scheduler: schedule+cancel throughput of the
// simulator's hierarchical timing wheel against a lazily cancelled binary
// heap, at connection-scale pending-timer populations.
//
// The workload is the TCP regime that motivated the wheel: a large stable
// population of pending timers (RTO / delack / 2MSL) where nearly every
// timer is cancelled and re-armed before it fires — each ACK disarms and
// re-arms the retransmit timer. The heap pays O(log n) per op plus the
// lazy-cancellation dead entries; the wheel pays O(1) with eager removal.
//
// The heap (LazyHeap below) is the algorithm the wheel replaced, kept here
// only as the comparator: slab-pooled nodes, POD entries, compaction once
// dead entries exceed half the heap. Both queues draw nodes from a
// sim::IndexPool, so the edge is purely algorithmic (O(1) eager cancel vs
// O(log n) sift + lazy-cancel debris). The wheel runs inside a full
// sim::Simulator, instruments included; the heap runs bare.
//
// Exit status is the perf gate: the wheel must deliver >= 1.5x the heap's
// schedule+cancel throughput at 64k pending timers.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/slab.h"

namespace {

// Binary heap keyed on (deadline, seq) with lazy cancellation: Cancel frees
// the node (the generation bump marks its heap entry dead) and the dead
// entries are filtered out and re-heapified once they exceed half the heap.
class LazyHeap {
 public:
  sim::EventId Schedule(sim::Duration delay, sim::EventFn fn) {
    const std::uint32_t idx = pool_.Alloc();
    pool_.at(idx) = std::move(fn);
    heap_.push_back(Entry{now_ + delay.ns(), seq_++, idx, pool_.gen(idx)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return sim::EventId{idx} << 32 | pool_.gen(idx);
  }
  bool IsPending(sim::EventId id) const {
    return pool_.LiveHandle(static_cast<std::uint32_t>(id >> 32), static_cast<std::uint32_t>(id));
  }
  void Cancel(sim::EventId id) {
    if (!IsPending(id)) return;
    const auto idx = static_cast<std::uint32_t>(id >> 32);
    pool_.at(idx) = nullptr;
    pool_.Free(idx);
    if (++dead_ * 2 <= heap_.size()) return;
    std::erase_if(heap_, [this](const Entry& e) { return !Live(e); });
    std::make_heap(heap_.begin(), heap_.end(), Later);
    dead_ = 0;
  }
  std::size_t Run() {
    std::size_t fired = 0;
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Later);
      const Entry e = heap_.back();
      heap_.pop_back();
      if (!Live(e)) {
        --dead_;
        continue;
      }
      now_ = e.when;
      sim::EventFn fn = std::move(pool_.at(e.idx));
      pool_.Free(e.idx);
      fn();
      ++fired;
    }
    return fired;
  }

 private:
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;
  };
  static bool Later(const Entry& a, const Entry& b) {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
  bool Live(const Entry& e) const { return pool_.LiveHandle(e.idx, e.gen); }

  sim::IndexPool<sim::EventFn> pool_{"bench.lazy_heap_node"};
  std::vector<Entry> heap_;
  std::size_t dead_ = 0;
  std::int64_t now_ = 0;
  std::uint64_t seq_ = 0;
};

// Deterministic 64-bit mix for delay spreading (splitmix64 step).
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Timer horizons drawn from the TCP mix: 1ms..~64s (delack through backed-off
// RTO and 2MSL), hitting several wheel levels.
sim::Duration DelayFor(std::uint64_t k) {
  const std::int64_t span = sim::Duration::Seconds(64).ns() - 1000000;
  return sim::Duration::Nanos(
      1000000 + static_cast<std::int64_t>(Mix(k) % static_cast<std::uint64_t>(span)));
}

int g_fired = 0;

// Steady-state ns per (cancel + re-schedule) pair at `pending` outstanding
// timers. Best of `trials` fresh queues.
template <typename Queue>
double SchedCancelNsPerPair(int pending, int pairs, int trials = 5) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    Queue q;
    std::vector<sim::EventId> ids(static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) {
      ids[static_cast<std::size_t>(i)] =
          q.Schedule(DelayFor(static_cast<std::uint64_t>(i)), [] { ++g_fired; });
    }
    std::size_t slot = 0;
    std::uint64_t k = static_cast<std::uint64_t>(pending);
    const auto start = std::chrono::steady_clock::now();
    for (int p = 0; p < pairs; ++p) {
      // The exact disarm/re-arm sequence of TcpConnection::CancelTimer +
      // ArmRexmt: probe, cancel, schedule.
      if (q.IsPending(ids[slot])) q.Cancel(ids[slot]);
      ids[slot] = q.Schedule(DelayFor(k++), [] { ++g_fired; });
      slot = (slot + 1) % ids.size();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                stop - start)
                                .count()) /
        pairs;
    if (ns < best) best = ns;
  }
  return best;
}

// ns per fire when draining `pending` timers to empty (pop-side cost,
// including the wheel's cascades).
template <typename Queue>
double DrainNsPerFire(int pending, int trials = 5) {
  double best = 1e100;
  for (int t = 0; t < trials; ++t) {
    Queue q;
    for (int i = 0; i < pending; ++i) {
      q.Schedule(DelayFor(static_cast<std::uint64_t>(i)), [] { ++g_fired; });
    }
    const auto start = std::chrono::steady_clock::now();
    const std::size_t fired = q.Run();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                stop - start)
                                .count()) /
        static_cast<double>(fired);
    if (ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  bench::JsonReporter reporter;

  std::printf("timer queue: schedule+cancel pairs and drain, wheel vs heap\n");
  std::printf("(the per-ACK disarm/re-arm pattern of N concurrent TCP connections)\n\n");
  std::printf("  %8s | %13s %13s %8s | %12s %12s\n", "pending", "heap ns/pair",
              "wheel ns/pair", "speedup", "heap drain", "wheel drain");

  double heap_64k = 0, wheel_64k = 0;
  for (const int pending : {1024, 16384, 65536}) {
    const int pairs = 200000;
    const double heap_pair = SchedCancelNsPerPair<LazyHeap>(pending, pairs);
    const double wheel_pair = SchedCancelNsPerPair<sim::Simulator>(pending, pairs);
    const double heap_drain = DrainNsPerFire<LazyHeap>(pending);
    const double wheel_drain = DrainNsPerFire<sim::Simulator>(pending);
    std::printf("  %8d | %13.1f %13.1f %7.1fx | %12.1f %12.1f\n", pending,
                heap_pair, wheel_pair, heap_pair / wheel_pair, heap_drain,
                wheel_drain);
    if (pending == 65536) {
      heap_64k = heap_pair;
      wheel_64k = wheel_pair;
    }
    for (const bool wheel : {false, true}) {
      bench::BenchRecord r;
      r.experiment = "micro_timer_queue";
      r.device = "wall-clock";
      r.system = wheel ? "wheel" : "heap";
      r.metric = "sched_cancel_n" + std::to_string(pending);
      r.unit = "ns/pair";
      r.measured = wheel ? wheel_pair : heap_pair;
      r.paper_expected = "n/a (scheduler ablation)";
      r.metrics_json = "{\"pending\":" + std::to_string(pending) +
                       ",\"drain_ns_per_fire\":" +
                       std::to_string(wheel ? wheel_drain : heap_drain) + "}";
      reporter.Add(std::move(r));
    }
  }

  int rc = 0;
  if (!json_path.empty() && !reporter.WriteTo(json_path)) {
    std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
    rc = 1;
  }
  const double speedup = heap_64k / wheel_64k;
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: wheel schedule+cancel at 64k pending is only %.1fx the "
                 "heap (gate: >=1.5x) — eager O(1) cancellation is not paying off\n",
                 speedup);
    rc = 1;
  } else {
    std::printf("\n  timer gate PASS: wheel is %.1fx heap at 64k pending (>=1.5x required)\n",
                speedup);
  }
  return rc;
}
