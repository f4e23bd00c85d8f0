// Connection-scale workload (not a paper figure): N concurrent TCP clients
// against the in-kernel Plexus web server — the "heavy traffic" regime of
// the paper's closing HTTP demo — under induced loss so retransmission
// timers genuinely arm, fire, and cancel.
//
// Every connection performs connect / HTTP GET / close. Induced frame loss
// forces RTO and delayed-ACK traffic, and every close parks a 2MSL timer, so
// the pending-timer population grows with N — exactly the load the
// simulator's hierarchical timing wheel exists for. The bench runs each N
// once and reports wall-clock and simulated ns per connection plus the
// pending-timer high-water mark (sim.timer_pending_peak). Its sim_ns rows
// are scripts/check.sh's zero-tolerance virtual-time gate against
// bench/baselines/BENCH_scale.json.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "proto/http.h"
#include "sim/metrics.h"
#include "sim/profiler.h"
#include "tests/net_harness.h"

namespace {

struct ScaleResult {
  int completed = 0;       // responses with HTTP 200
  int finished = 0;        // connections that terminated at all
  double sim_ms = 0;       // virtual time until the last response
  double wall_ns_per_conn = 0;
  double sim_ns_per_conn = 0;
  std::int64_t timer_pending_peak = 0;
  std::uint64_t timer_schedules = 0;
  std::uint64_t timer_cancels = 0;
  std::uint64_t timer_fires = 0;
  // Wall-clock profiler coverage of the run loop (PLEXUS_PROFILE=1 only):
  // profiled self-time must account for nearly all of the loop's wall time.
  double run_loop_wall_ns = 0;
  double profiled_self_ns = 0;
};

ScaleResult RunScale(int n) {
  const auto wall_start = std::chrono::steady_clock::now();

  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  lan.medium().set_faults({.drop_probability = 0.005});  // ~0.5% frame loss: RTOs really fire
  auto &server = lan.AddPlexus(1, "server"), &client = lan.AddPlexus(2, "client");
  lan.WarmArp();

  const std::string body(512, 'w');
  std::vector<std::unique_ptr<proto::HttpServerConnection>> server_conns;
  server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    server_conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [&](const std::string&) {
          server.host().Charge(server.host().costs().http_parse);
          return std::optional(body);
        }));
  });

  struct Conn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    std::unique_ptr<proto::HttpClient> http;
  };
  std::vector<Conn> conns(static_cast<std::size_t>(n));
  ScaleResult result;
  sim::TimePoint last_response;

  // Stagger the connects so the segment is not one giant collision, while
  // keeping lifetimes (handshake + GET + loss recovery + 2MSL) far longer
  // than the spacing: the population is genuinely concurrent. Beyond 10k
  // the 10 Mb/s segment itself is the bottleneck (~1.7 ms of link time per
  // connection), so the gap widens to keep the offered connect rate inside
  // the link's service rate — at 100 µs the tail of a 100k ladder queues
  // ~150 s behind the link and dies of SYN-retry exhaustion. The committed
  // rungs (100..10k) keep their original spacing so their virtual-time
  // numbers stay bit-identical across history.
  const sim::Duration gap =
      n > 10000 ? sim::Duration::Millis(2) : sim::Duration::Micros(100);
  for (int i = 0; i < n; ++i) {
    sim.Schedule(gap * i, [&, i] {
      client.Run([&, i] {
        Conn& c = conns[static_cast<std::size_t>(i)];
        c.ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
        c.http = std::make_unique<proto::HttpClient>(
            *c.ep, [&](const proto::HttpClient::Response& r) {
              ++result.finished;
              if (r.status == 200) {
                ++result.completed;
                last_response = sim.Now();
              }
            });
        c.ep->SetOnEstablished([&c] { c.http->Get("/page"); });
      });
    });
  }

  // Run until every connection resolved (or a generous cap under loss).
  // The profiler is reset here so its self-time table covers exactly the
  // run loop below (setup excluded) — the window run_loop_wall_ns measures.
  sim::Profiler::Reset();
  const auto loop_start = std::chrono::steady_clock::now();
  const sim::TimePoint cap = sim::TimePoint::FromNanos(0) + sim::Duration::Seconds(600);
  while (result.finished < n && sim.Now() < cap) {
    sim.RunFor(sim::Duration::Seconds(1));
  }
  const auto loop_stop = std::chrono::steady_clock::now();
  result.run_loop_wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(loop_stop - loop_start)
          .count());
  result.profiled_self_ns = static_cast<double>(sim::Profiler::TotalSelfNs());

  const auto wall_stop = std::chrono::steady_clock::now();
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_stop - wall_start)
          .count());
  result.sim_ms = (last_response - sim::TimePoint::FromNanos(0)).ms();
  result.wall_ns_per_conn = wall_ns / n;
  result.sim_ns_per_conn =
      static_cast<double>((last_response - sim::TimePoint::FromNanos(0)).ns()) / n;
  result.timer_pending_peak = sim.metrics().gauges().at("sim.timer_pending_peak").value();
  result.timer_schedules = sim.metrics().counters().at("sim.timer_schedules").value();
  result.timer_cancels = sim.metrics().counters().at("sim.timer_cancels").value();
  result.timer_fires = sim.metrics().counters().at("sim.timer_fires").value();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  const std::string profile_path = bench::ArgAfter(argc, argv, "--profile-json");
  const bool profiling = sim::Profiler::enabled();
  bench::JsonReporter reporter;

  // --sizes 100,1000,10000[,100000]: the population ladder to run. The
  // default matches the committed baseline; the 100k rung is opt-in (it is
  // the "first 100k-connection run" artifact, ~10x the 10k rung's wall).
  std::vector<int> sizes = {100, 1000, 10000};
  if (const std::string arg = bench::ArgAfter(argc, argv, "--sizes"); !arg.empty()) {
    sizes.clear();
    std::size_t pos = 0;
    while (pos < arg.size()) {
      const std::size_t comma = arg.find(',', pos);
      const std::string tok = arg.substr(pos, comma == std::string::npos ? arg.size() - pos
                                                                         : comma - pos);
      if (!tok.empty()) sizes.push_back(std::stoi(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (sizes.empty()) {
      std::fprintf(stderr, "FAIL: --sizes parsed to an empty list\n");
      return 1;
    }
  }

  std::printf("connection scale: N clients, connect/GET/close, 0.5%% frame loss\n");
  std::printf("(in-kernel web server; pending timers grow with N — RTO, delack, 2MSL)\n\n");
  std::printf("  %6s | %9s %13s %13s %11s | %10s %10s %10s\n", "N", "done",
              "sim ms total", "sim ns/conn", "wall ns/c", "peak timers", "schedules",
              "fires");

  int rc = 0;
  for (const int n : sizes) {
    const ScaleResult r = RunScale(n);
    std::printf("  %6d | %4d/%-4d %13.1f %13.0f %11.0f | %10" PRId64 " %10" PRIu64
                " %10" PRIu64 "\n",
                n, r.completed, n, r.sim_ms, r.sim_ns_per_conn, r.wall_ns_per_conn,
                r.timer_pending_peak, r.timer_schedules, r.timer_fires);
    if (r.completed != n) {
      std::fprintf(stderr, "FAIL: only %d/%d connections completed (n=%d)\n", r.completed, n,
                   n);
      rc = 1;
    }
    // Profiler acceptance gate: at the top N, the ranked self-time table
    // must account for at least 90% of the run loop's measured wall time.
    if (profiling && n == 10000) {
      const double coverage = r.profiled_self_ns / r.run_loop_wall_ns;
      std::printf("         profile coverage: %.1f%% of %.1f ms run-loop wall\n",
                  coverage * 100.0, r.run_loop_wall_ns / 1e6);
      if (coverage < 0.90) {
        std::fprintf(stderr,
                     "FAIL: profiled self-time covers only %.1f%% of the "
                     "run loop at n=%d; need >= 90%%\n",
                     coverage * 100.0, n);
        rc = 1;
      }
    }
    bench::BenchRecord rec;
    rec.experiment = "scale_connections";
    rec.device = "ethernet-10";
    rec.system = "plexus-wheel";
    rec.metric = "conn_n" + std::to_string(n);
    rec.unit = "sim_ns/conn";
    rec.measured = r.sim_ns_per_conn;
    rec.paper_expected = "n/a (scale workload)";
    rec.metrics_json =
        "{\"n\":" + std::to_string(n) +
        ",\"completed\":" + std::to_string(r.completed) +
        ",\"wall_ns_per_conn\":" + std::to_string(r.wall_ns_per_conn) +
        ",\"timer_pending_peak\":" + std::to_string(r.timer_pending_peak) +
        ",\"timer_schedules\":" + std::to_string(r.timer_schedules) +
        ",\"timer_cancels\":" + std::to_string(r.timer_cancels) +
        ",\"timer_fires\":" + std::to_string(r.timer_fires) + "}";
    reporter.Add(std::move(rec));
    // Companion wall-clock row. The "wall" metric/unit makes
    // bench_compare.py treat it as report-only (machine-dependent), while
    // the sim_ns row above stays a hard determinism gate. Distinct metric
    // name: compare keys are (experiment, device, system, metric).
    bench::BenchRecord wall;
    wall.experiment = "scale_connections";
    wall.device = "ethernet-10";
    wall.system = "plexus-wheel";
    wall.metric = "wall_n" + std::to_string(n);
    wall.unit = "wall_ns/conn";
    wall.measured = r.wall_ns_per_conn;
    wall.paper_expected = "n/a (host wall clock, report-only)";
    wall.metrics_json = "{\"n\":" + std::to_string(n) + "}";
    reporter.Add(std::move(wall));
  }
  if (rc == 0) {
    std::printf("\n  scale check PASS: all connections completed at every N\n");
  }
  if (profiling) {
    // Where the host CPU went during the last run.
    std::printf("\n%s", sim::Profiler::RankedTable().c_str());
    if (!profile_path.empty()) {
      std::FILE* f = std::fopen(profile_path.c_str(), "w");
      if (f != nullptr) {
        const std::string json = sim::Profiler::ToJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote profile: %s\n", profile_path.c_str());
      } else {
        std::fprintf(stderr, "FAIL: could not write %s\n", profile_path.c_str());
        rc = 1;
      }
    }
  }
  if (!json_path.empty()) {
    if (reporter.WriteTo(json_path)) {
      std::printf("wrote %zu records: %s\n", reporter.size(), json_path.c_str());
    } else {
      std::fprintf(stderr, "FAIL: could not write %s\n", json_path.c_str());
      rc = 1;
    }
  }
  return rc;
}
