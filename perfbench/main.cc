// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <dir>] [--inject-drop] [--list-metrics]
//
// --trace 0 prints the end-to-end metrics, measured with every instrument
// off. --trace 1 measures once more without instruments (for the tracing
// overhead and the digest comparison), then again with the tracer, the
// profiler and the benchmark's spans on, and prints the per-layer metrics.
// Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "net/mbuf_pool.h"
#include "sim/batch.h"
#include "sim/slab.h"
#include "sim/small_fn.h"

namespace perfbench {
namespace {

// Environment gates that select a non-default engine or switch
// instruments on behind the benchmark's back.
const char* const kEngineGates[] = {
    "PLEXUS_SCHED",      "PLEXUS_BATCH", "PLEXUS_SLAB",  "PLEXUS_MBUF_POOL",
    "PLEXUS_CHAOS_FLAP", "PLEXUS_TRACE", "PLEXUS_PROFILE",
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_drop = false;
  bool list_metrics = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--inject-drop") {
      a.inject_drop = true;
    } else if (flag == "--list-metrics") {
      a.list_metrics = true;
    } else if (flag == "--workload" || flag == "--seed" || flag == "--seconds" ||
               flag == "--trace" || flag == "--spans-out") {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else if (flag == "--seed") {
        a.seed = std::strtoull(v, &end, 10);
        if (*end != '\0') return false;
      } else if (flag == "--seconds") {
        a.seconds = std::strtod(v, &end);
        if (*end != '\0' || !(a.seconds > 0) || a.seconds > 600) return false;
      } else {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
        a.trace = v[0] == '1';
      }
    } else {
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile of the ladder with at least ten chunks above it
// (nearest rank).
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t beyond = 0;
};
Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    const std::size_t beyond = n - 1 - index;
    if (beyond >= 10 || p == 50.0) {
      t = {p, v[index], beyond};
      break;
    }
  }
  return t;
}

// --- one measured phase -----------------------------------------------------------

struct Phase {
  SpeedProbe probe;
  Context ctx;
  std::unique_ptr<Workload> workload;
  std::vector<std::string> systems;
  std::vector<double> setup_s;
  std::vector<Tally> start, end;  // per system, at the timing boundaries
  std::vector<ProfileSnap> profile;  // per system, traced phase only
  std::vector<ModelWindow> windows;
};

// Builds the workload `reps` times, each time through its warm-up, keeping
// the last; then measures for `seconds`, finishes and checks.
void RunPhase(Phase& ph, const Args& args, const WorkloadSpec& spec, bool traced, int reps,
              double seconds, std::int64_t process_start) {
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = r == 0 && !traced ? process_start : WallNs();
    ph.workload.reset();  // before its context, which it refers to
    ph.ctx = Context{};
    ph.ctx.seed = args.seed;
    ph.ctx.tracing = traced;
    ph.ctx.inject_drop = args.inject_drop;
    ph.workload = MakeWorkload(spec.name, ph.ctx);
    ph.systems = ph.workload->Systems();
    ph.workload->Build();
    for (std::size_t s = 0; s < ph.systems.size(); ++s) {
      ph.workload->RunLeg(static_cast<int>(s), spec.warmup_ops);
    }
    ph.setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9 * ph.probe.Scale());
  }

  Context& ctx = ph.ctx;
  Workload& w = *ph.workload;
  const std::size_t n = ph.systems.size();
  ph.profile.assign(n, ProfileSnap{});
  for (std::size_t s = 0; s < n; ++s) ph.start.push_back(w.Collect(static_cast<int>(s)));
  if (traced) {
    sim::Profiler::Reset();
    sim::Profiler::SetEnabled(true);
    ctx.spans.SetEnabled(true);
  }
  ctx.meter.BeginTiming();
  const std::int64_t deadline = WallNs() + static_cast<std::int64_t>(seconds * 1e9);
  while (true) {
    for (std::size_t s = 0; s < n; ++s) {
      ctx.spans.SetSystem(static_cast<int>(s));
      const ProfileSnap before = traced ? ProfileSnap::Take() : ProfileSnap{};
      w.RunLeg(static_cast<int>(s), spec.chunk_ops);
      if (traced) ph.profile[s].AddDelta(ProfileSnap::Take(), before);
    }
    ctx.meter.CloseChunk(ph.probe);
    const std::int64_t now = WallNs();
    if (now < deadline) continue;
    bool windows_done = true;
    for (std::size_t s = 0; s < n; ++s) windows_done &= w.Window(static_cast<int>(s)).complete;
    if (windows_done) break;
    if (now > deadline + 60'000'000'000LL) {
      ctx.Fail("the model window never completed");
      break;
    }
  }
  ctx.meter.EndTiming();
  for (std::size_t s = 0; s < n; ++s) ph.end.push_back(w.Collect(static_cast<int>(s)));
  if (traced) {
    sim::Profiler::SetEnabled(false);
    ctx.spans.SetEnabled(false);
  }
  w.Finish();
  for (std::size_t s = 0; s < n; ++s) ph.windows.push_back(w.Window(static_cast<int>(s)));
}

// FNV-1a over the windows' exact integers, folded to 48 bits so the value
// survives a JSON round trip through a double.
std::uint64_t Digest(const std::vector<ModelWindow>& windows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const ModelWindow& w : windows) {
    mix(w.ops);
    mix(w.virt_ns);
    mix(w.cpu_busy_ns);
    mix(w.latency_p50_ns);
    mix(w.latency_p99_ns);
    for (const std::int64_t e : w.extra) mix(e);
  }
  return (h ^ (h >> 48)) & 0xffffffffffffULL;
}

bool IsDu(const std::string& system) { return system.rfind("du_", 0) == 0; }

// --- metric declarations -------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;  // the end-to-end metric it should move
  const char* on;     // the workloads where it does
};

const std::vector<Metric>& EndToEnd() {
  static const std::vector<Metric> m = {
      {"wall_ns_per_op", "ns", "lower", "", "all"},
      {"wall_ns_per_op_tail", "ns", "lower", "", "all"},
      {"setup_s", "s", "lower", "", "all"},
      {"peak_rss_mib", "MiB", "lower", "", "all"},
  };
  return m;
}

const std::vector<Metric>& PerLayer() {
  static const std::vector<Metric> m = {
      {"sim.events_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_schedules_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_cancel_ratio", "ratio", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_cascades_per_op", "count/op", "lower", "wall_ns_per_op_tail", "http_churn"},
      {"sim.sched_pop_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_fire_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_schedule_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_cancel_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "http_churn"},
      {"sim.timer_pending_peak", "count", "lower", "peak_rss_mib", "http_churn"},
      {"spin.raises_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.handler_invocations_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.demux_lookups_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.guard_evals_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.guard_reject_ratio", "ratio", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.event_raise_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.demux_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.guard_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"spin.batch_mean_burst", "count", "higher", "wall_ns_per_op", "tcp_bulk,udp_flood"},
      {"spin.deferred_admitted_per_op", "count/op", "lower", "wall_ns_per_op", "udp_flood"},
      {"spin.deferred_shed_ratio", "ratio", "lower", "wall_ns_per_op", "udp_flood"},
      {"spin.deferred_hop_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_flood"},
      {"net.mbuf_allocs_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn,tcp_bulk"},
      {"net.mbuf_clones_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn,tcp_bulk"},
      {"net.clone_per_alloc", "ratio", "lower", "wall_ns_per_op", "http_churn,tcp_bulk"},
      {"net.mbuf_clone_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op",
       "http_churn,tcp_bulk"},
      {"net.alloc_bytes_per_op", "B/op", "lower", "wall_ns_per_op", "tcp_bulk"},
      {"net.clone_bytes_per_op", "B/op", "lower", "wall_ns_per_op", "tcp_bulk"},
      {"net.mbuf_alloc_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "tcp_bulk"},
      {"net.mbuf_free_self_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "tcp_bulk"},
      {"net.pool_peak", "count", "lower", "peak_rss_mib", "http_churn"},
      {"net.pool_exhausted_ratio", "ratio", "lower", "wall_ns_per_op", "udp_flood"},
      {"drivers.rx_frames_per_op", "count/op", "lower", "wall_ns_per_op", "all"},
      {"drivers.tx_frames_per_op", "count/op", "lower", "wall_ns_per_op", "all"},
      {"drivers.rx_ring_drop_ratio", "ratio", "lower", "wall_ns_per_op", "udp_flood"},
      {"drivers.poll_entries", "count", "lower", "wall_ns_per_op", "udp_flood"},
      {"drivers.deliver_wall_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_flood"},
      {"proto.ip_rx_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn"},
      {"proto.tcp_retransmissions_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn"},
      {"proto.tcp_timeouts_per_op", "count/op", "lower", "wall_ns_per_op", "http_churn"},
      {"proto.tcp_connect_wall_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "http_churn"},
      {"proto.tcp_send_wall_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "tcp_bulk"},
      {"proto.udp_send_wall_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_rpc"},
      {"proto.malformed_drops", "count", "lower", "none: must stay 0", "all"},
      {"os.syscalls_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc,tcp_bulk"},
      {"os.copy_bytes_per_op", "B/op", "lower", "wall_ns_per_op", "udp_rpc,tcp_bulk"},
      {"os.context_switches_per_op", "count/op", "lower", "wall_ns_per_op", "udp_rpc,tcp_bulk"},
      {"os.send_wall_ns_per_op", "ns/op", "lower", "wall_ns_per_op", "udp_rpc,tcp_bulk"},
      {"app.callback_self_ns_per_op", "ns/op", "lower", "none: the benchmark's own cost", "all"},
      {"engine.profiled_coverage", "ratio", "higher", "none: observability", "all"},
      {"trace.overhead_ratio", "ratio", "lower", "none: observability", "all"},
      {"model.virt_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.cpu_busy_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.arp_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.checksum_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.copy_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.demux_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.dispatch_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.driver_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.eth_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.guard_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.handler_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.ip_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.sched_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.socket_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.tcp_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.trap_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.udp_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.charge.unattributed_ns_per_op", "ns/op", "lower", "none: virtual time", "all"},
      {"model.echo_latency_us_p50", "us", "lower", "none: virtual time", "udp_flood"},
      {"model.echo_latency_us_p99", "us", "lower", "none: virtual time", "udp_flood"},
      {"model.digest", "hash", "lower", "none: must not change on an engine change", "all"},
  };
  return m;
}

using Values = std::map<std::string, double>;

Values PerLayerValues(const Phase& untraced, const Phase& traced) {
  const std::size_t n = traced.systems.size();
  Tally t;
  ProfileSnap p;
  double ops = 0, du_ops = 0, plexus_ops = 0;
  for (std::size_t s = 0; s < n; ++s) {
    t.Merge(Delta(traced.end[s], traced.start[s]));
    p.AddDelta(traced.profile[s], ProfileSnap{});
    const auto o = static_cast<double>(traced.ctx.meter.ops(static_cast<int>(s)));
    ops += o;
    (IsDu(traced.systems[s]) ? du_ops : plexus_ops) += o;
  }
  auto per = [](double v, double base) { return base > 0 ? v / base : 0.0; };
  auto c = [&t](const char* name) { return t.Get(name); };
  auto self = [&p](sim::Profiler::Site s) { return static_cast<double>(p.self_ns[s]); };
  auto span_total = [&traced](SpanKind k) {
    return static_cast<double>(traced.ctx.spans.Total(k).total_ns);
  };
  using P = sim::Profiler;

  Values v;
  v["sim.events_per_op"] = per(c("sim.events"), ops);
  v["sim.timer_schedules_per_op"] = per(c("sim.timer_schedules"), ops);
  v["sim.timer_cancel_ratio"] = per(c("sim.timer_cancels"), c("sim.timer_schedules"));
  v["sim.timer_cascades_per_op"] = per(c("sim.timer_cascades"), ops);
  v["sim.sched_pop_self_ns_per_op"] = per(self(P::kSchedulerPop), ops);
  v["sim.timer_fire_self_ns_per_op"] = per(self(P::kTimerFire), ops);
  v["sim.timer_schedule_self_ns_per_op"] = per(self(P::kTimerSchedule), ops);
  v["sim.timer_cancel_self_ns_per_op"] = per(self(P::kTimerCancel), ops);
  v["sim.timer_pending_peak"] = t.Peak("sim.timer_pending_peak");

  v["spin.raises_per_op"] = per(c("spin.raises"), ops);
  v["spin.handler_invocations_per_op"] = per(c("spin.handler_invocations"), ops);
  v["spin.demux_lookups_per_op"] = per(c("spin.demux_lookups"), ops);
  v["spin.guard_evals_per_op"] = per(c("spin.guard_evals"), ops);
  v["spin.guard_reject_ratio"] = per(c("spin.guard_rejections"), c("spin.guard_evals"));
  v["spin.event_raise_self_ns_per_op"] = per(self(P::kEventRaise), ops);
  v["spin.demux_self_ns_per_op"] = per(self(P::kDemuxLookup), ops);
  v["spin.guard_self_ns_per_op"] = per(self(P::kHandlerGuard), ops);
  v["spin.batch_mean_burst"] = per(c("spin.batch_packets"), c("spin.batch_raises"));
  v["spin.deferred_admitted_per_op"] = per(c("spin.deferred_admitted"), ops);
  v["spin.deferred_shed_ratio"] = per(c("spin.deferred_shed"), ops);
  v["spin.deferred_hop_self_ns_per_op"] = per(self(P::kDeferredHop), ops);

  const double allocs = static_cast<double>(p.calls[P::kMbufAlloc]);
  const double clones = static_cast<double>(p.calls[P::kMbufClone]);
  v["net.mbuf_allocs_per_op"] = per(allocs, ops);
  v["net.mbuf_clones_per_op"] = per(clones, ops);
  v["net.clone_per_alloc"] = per(clones, allocs);
  v["net.mbuf_clone_self_ns_per_op"] = per(self(P::kMbufClone), ops);
  v["net.alloc_bytes_per_op"] = per(static_cast<double>(p.bytes[P::kMbufAllocBytes]), ops);
  v["net.clone_bytes_per_op"] = per(static_cast<double>(p.bytes[P::kMbufCloneBytes]), ops);
  v["net.mbuf_alloc_self_ns_per_op"] = per(self(P::kMbufAlloc), ops);
  v["net.mbuf_free_self_ns_per_op"] = per(self(P::kMbufFree), ops);
  v["net.pool_peak"] = t.Peak("mbuf.pool_peak");
  v["net.pool_exhausted_ratio"] = per(c("mbuf.pool_exhausted"), ops);

  v["drivers.rx_frames_per_op"] = per(c("nic.rx_frames"), ops);
  v["drivers.tx_frames_per_op"] = per(c("nic.tx_frames"), ops);
  v["drivers.rx_ring_drop_ratio"] =
      per(c("nic.rx_ring_drops"), c("nic.rx_frames") + c("nic.rx_dropped"));
  v["drivers.poll_entries"] = c("nic.poll_entries");
  v["drivers.deliver_wall_ns_per_op"] = per(span_total(kNicDeliver), ops);

  v["proto.ip_rx_per_op"] = per(c("ip.rx_packets"), ops);
  v["proto.tcp_retransmissions_per_op"] = per(c("tcp.retransmissions"), ops);
  v["proto.tcp_timeouts_per_op"] = per(c("tcp.timeouts"), ops);
  v["proto.tcp_connect_wall_ns_per_op"] = per(span_total(kTcpConnect), ops);
  v["proto.tcp_send_wall_ns_per_op"] = per(span_total(kTcpSend), plexus_ops);
  v["proto.udp_send_wall_ns_per_op"] = per(span_total(kUdpSend), plexus_ops);
  double malformed = 0;
  for (const auto& [name, value] : t.counters) {
    if (name.rfind("proto.", 0) == 0 && name.find(".malformed_drops") != std::string::npos) {
      malformed += value;
    }
  }
  v["proto.malformed_drops"] = malformed;

  v["os.syscalls_per_op"] = per(c("os.syscalls"), du_ops);
  v["os.copy_bytes_per_op"] = per(c("os.copyin_bytes") + c("os.copyout_bytes"), du_ops);
  v["os.context_switches_per_op"] = per(c("os.context_switches"), du_ops);
  v["os.send_wall_ns_per_op"] = per(span_total(kOsSendTo) + span_total(kOsWrite), du_ops);

  v["app.callback_self_ns_per_op"] =
      per(static_cast<double>(traced.ctx.spans.Total(kAppCallback).self_ns), ops);
  v["engine.profiled_coverage"] =
      per(static_cast<double>(p.TotalSelfNs()), static_cast<double>(traced.ctx.meter.loop_ns()));
  v["trace.overhead_ratio"] =
      per(Median(traced.ctx.meter.chunks()), Median(untraced.ctx.meter.chunks()));

  std::int64_t window_ops = 0, window_virt = 0, window_busy = 0;
  for (const ModelWindow& w : traced.windows) {
    window_ops += w.ops;
    window_virt += w.virt_ns;
    window_busy += w.cpu_busy_ns;
  }
  v["model.virt_ns_per_op"] = per(static_cast<double>(window_virt), static_cast<double>(window_ops));
  v["model.cpu_busy_ns_per_op"] =
      per(static_cast<double>(window_busy), static_cast<double>(window_ops));
  for (const char* cat : {"arp", "checksum", "copy", "demux", "dispatch", "driver", "eth", "guard",
                          "handler", "ip", "sched", "socket", "tcp", "trap", "udp"}) {
    v[std::string("model.charge.") + cat + "_ns_per_op"] =
        per(c((std::string("charge.") + cat).c_str()), ops);
  }
  v["model.charge.unattributed_ns_per_op"] = per(c("charge.(unattributed)"), ops);
  std::int64_t p50 = 0, p99 = 0;
  for (const ModelWindow& w : traced.windows) {
    p50 = std::max(p50, w.latency_p50_ns);
    p99 = std::max(p99, w.latency_p99_ns);
  }
  v["model.echo_latency_us_p50"] = static_cast<double>(p50) / 1e3;
  v["model.echo_latency_us_p99"] = static_cast<double>(p99) / 1e3;
  v["model.digest"] = static_cast<double>(Digest(traced.windows));
  return v;
}

// A short per-system table for the multi-system workloads, from the same
// counters and spans as the per-layer metrics.
void PrintPerSystem(const Phase& ph) {
  std::printf("per system (traced run):\n");
  std::printf("  %-14s %10s %9s %9s %9s %9s %9s %11s %11s %11s\n", "system", "ops", "events/op",
              "raises/op", "rx/op", "tx/op", "syscall/op", "send ns/op", "virt ns/op",
              "busy ns/op");
  for (std::size_t s = 0; s < ph.systems.size(); ++s) {
    const Tally d = Delta(ph.end[s], ph.start[s]);
    const double ops = static_cast<double>(ph.ctx.meter.ops(static_cast<int>(s)));
    auto per = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
    const auto si = static_cast<int>(s);
    const double send_ns = static_cast<double>(
        ph.ctx.spans.stat(si, kUdpSend).total_ns + ph.ctx.spans.stat(si, kTcpSend).total_ns +
        ph.ctx.spans.stat(si, kOsSendTo).total_ns + ph.ctx.spans.stat(si, kOsWrite).total_ns);
    const ModelWindow& w = ph.windows[s];
    std::printf("  %-14s %10.0f %9.2f %9.2f %9.2f %9.2f %9.2f %11.1f %11.1f %11.1f\n",
                ph.systems[s].c_str(), ops, per(d.Get("sim.events")), per(d.Get("spin.raises")),
                per(d.Get("nic.rx_frames")), per(d.Get("nic.tx_frames")),
                per(d.Get("os.syscalls")), per(send_ns),
                w.ops > 0 ? static_cast<double>(w.virt_ns) / static_cast<double>(w.ops) : 0.0,
                w.ops > 0 ? static_cast<double>(w.cpu_busy_ns) / static_cast<double>(w.ops) : 0.0);
  }
}

// Peak resident set of this process. VmHWM rather than getrusage's
// ru_maxrss: after fork+exec from a large parent, ru_maxrss can report the
// parent's footprint, while VmHWM belongs to this address space alone.
double PeakRssMib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Main(int argc, char** argv) {
  const std::int64_t process_start = WallNs();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <dir>] [--inject-drop] | --list-metrics\n");
    return 2;
  }
  if (args.list_metrics) {
    for (const auto* table : {&EndToEnd(), &PerLayer()}) {
      for (const Metric& m : *table) {
        std::printf("{\"kind\":\"%s\",\"name\":\"%s\",\"unit\":\"%s\",\"better\":\"%s\","
                    "\"moves\":\"%s\",\"on\":\"%s\"}\n",
                    table == &EndToEnd() ? "end_to_end" : "per_layer", m.name, m.unit, m.better,
                    m.moves, m.on);
      }
    }
    return 0;
  }
  for (const char* gate : kEngineGates) {
    if (std::getenv(gate) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: %s is set; the benchmark measures the default engine only. "
                   "Unset every PLEXUS_* engine gate and rerun.\n",
                   gate);
      return 2;
    }
  }
  const WorkloadSpec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.inject_drop && args.workload != "http_churn") {
    std::fprintf(stderr, "perfbench: --inject-drop is implemented by http_churn only\n");
    return 2;
  }

  std::printf("engine: sched=%s batch=%s slab=%s mbuf_pool=%zu tracer=off profiler=%s\n",
              sim::Simulator::DefaultSchedulerImpl() == sim::SchedulerImpl::kWheel ? "wheel"
                                                                                     : "heap",
              sim::BatchConfig::enabled() ? "on" : "off", sim::SlabConfig::enabled() ? "on" : "off",
              net::MbufPool::DefaultCapacity(), sim::Profiler::enabled() ? "on" : "off");
  std::printf("workload: %s  seed %" PRIu64 "  seconds %g  trace %d  op = %s\n", spec->name,
              args.seed, args.seconds, args.trace ? 1 : 0, spec->op);
  std::fflush(stdout);

  // Untraced: every end-to-end number. With --trace 1 it shares the time
  // with the traced run and only supplies the overhead and digest baseline.
  auto untraced = std::make_unique<Phase>();
  RunPhase(*untraced, args, *spec, /*traced=*/false, args.trace ? 1 : kSetupReps,
           args.trace ? args.seconds / 2 : args.seconds, process_start);
  std::unique_ptr<Phase> traced;
  if (args.trace) {
    traced = std::make_unique<Phase>();
    RunPhase(*traced, args, *spec, /*traced=*/true, 1, args.seconds / 2, process_start);
  }

  std::int64_t attempted = untraced->ctx.attempted;
  std::int64_t failed = untraced->ctx.failed;
  std::vector<std::string> errors = untraced->ctx.errors;
  const std::uint64_t digest = Digest(untraced->windows);
  std::printf("model.digest %s %012" PRIx64 "\n", spec->name, digest);
  if (traced) {
    attempted += traced->ctx.attempted;
    failed += traced->ctx.failed;
    errors.insert(errors.end(), traced->ctx.errors.begin(), traced->ctx.errors.end());
    const std::uint64_t traced_digest = Digest(traced->windows);
    std::printf("model.digest %s %012" PRIx64 " (traced)\n", spec->name, traced_digest);
    if (traced_digest != digest) {
      ++failed;
      errors.push_back("tracing changed virtual time: digest differs from the untraced run");
    }
  }

  // Teardown before the leak checks: every simulator is gone by now.
  const std::vector<std::string> systems = untraced->systems;
  const std::vector<double> chunks = untraced->ctx.meter.chunks();
  const std::vector<double> raw_chunks = untraced->ctx.meter.raw_chunks();
  const std::vector<double> setup_s = untraced->setup_s;
  Values per_layer;
  if (traced) {
    PrintPerSystem(*traced);
    per_layer = PerLayerValues(*untraced, *traced);
    if (!args.spans_out.empty()) {
      const std::string base = args.spans_out + "/" + spec->name + "-seed" +
                               std::to_string(args.seed);
      if (!traced->ctx.spans.WriteJson(base + "-spans.json", systems)) {
        std::fprintf(stderr, "perfbench: could not write %s-spans.json\n", base.c_str());
      }
      if (std::FILE* f = std::fopen((base + "-profile.json").c_str(), "w")) {
        const std::string json = sim::Profiler::ToJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
    traced.reset();
  }
  untraced.reset();
  if (const std::size_t n = sim::SlabRegistry::InUse("mbuf"); n != 0) {
    ++failed;
    errors.push_back(std::to_string(n) + " mbuf slab objects outstanding after teardown");
  }
  if (const std::uint64_t n = sim::SmallFnHeapFallbacks(); n != 0) {
    ++failed;
    errors.push_back(std::to_string(n) + " SmallFn captures fell back to the heap");
  }

  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0;
  for (const std::string& e : errors) std::printf("FAIL: %s\n", e.c_str());

  Values end_to_end;
  const Tail tail = TailOf(chunks);
  end_to_end["wall_ns_per_op"] = Median(chunks);
  end_to_end["wall_ns_per_op_tail"] = tail.value;
  end_to_end["setup_s"] = Median(setup_s);
  end_to_end["peak_rss_mib"] = PeakRssMib();

  std::printf("wall_ns_per_op %.1f ns (median of %zu chunks at reference speed; raw median "
              "%.1f ns)\n",
              end_to_end["wall_ns_per_op"], chunks.size(), Median(raw_chunks));
  std::printf("wall_ns_per_op_tail %.1f ns (p%g of %zu chunks, %zu beyond)\n", tail.value,
              tail.percentile, chunks.size(), tail.beyond);
  std::printf("setup_s %.4f s (median of %zu set-ups)\n", end_to_end["setup_s"], setup_s.size());
  std::printf("peak_rss_mib %.1f MiB\n", end_to_end["peak_rss_mib"]);
  std::printf("error_rate %.6g ratio (%" PRId64 " failed of %" PRId64 " attempted)\n", error_rate,
              failed, attempted);
  std::printf("detail: {\"chunks\":%zu,\"tail_percentile\":%g,\"tail_beyond\":%zu,"
              "\"raw_wall_ns_per_op\":%s,\"error_rate\":%s,\"digest\":%" PRIu64 "}\n",
              chunks.size(), tail.percentile, tail.beyond, JsonNumber(Median(raw_chunks)).c_str(),
              JsonNumber(error_rate).c_str(), digest);

  const Values& out = args.trace ? per_layer : end_to_end;
  const std::vector<Metric>& declared = args.trace ? PerLayer() : EndToEnd();
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < declared.size(); ++i) {
    const auto it = out.find(declared[i].name);
    json += std::string(i == 0 ? "" : ", ") + "\"" + declared[i].name + "\": {\"value\": " +
            JsonNumber(it == out.end() ? 0.0 : it->second) + ", \"unit\": \"" + declared[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
