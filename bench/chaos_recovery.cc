// Chaos recovery bench (not a paper figure): what structural faults cost.
//
// Two measurements over the echo workload on a 10 Mb/s Ethernet pair:
//
//  1. Recovery overhead per fault family. A 256 KiB retried echo transfer
//     runs while one 1-second fault window (link down, server NIC stall, or
//     server crash + cold restart) opens at t=0.1s. Overhead is the extra
//     completion time beyond the clean run plus the unavoidable outage
//     itself — the price of retransmission backoff, reconnection, and
//     redone work.
//
//  2. Goodput retention vs link-flap intensity. A self-clocked echo stream
//     runs for a 20-second horizon against a periodic carrier flap
//     (period 2s, down-fraction swept 0 -> 0.5); retention is goodput
//     relative to the fault-free run.
//
// Flags:
//   --json <path>   write every point as plexus-bench-v1 JSON
//
// Exit gates (non-zero exit on failure; scripts/check.sh runs this):
//   * retention >= 60% at the standard flap (period 2s, down fraction 0.1)
//   * crash recovery overhead < 10s (the reborn host RSTs stale state
//     promptly; the client does not grind through full RTO spirals)
//   * every run drains leak-free: all mbuf pools back to zero, and no
//     handler quarantined on either host
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/echo.h"
#include "app/retry.h"
#include "bench/bench_common.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "sim/simulator.h"
#include "tests/net_harness.h"

namespace {

using core::PlexusHost;

constexpr std::uint16_t kEchoPort = 7;

// One client/server pair on a shared segment, both with a 2 s
// retransmission ceiling.
std::pair<PlexusHost&, PlexusHost&> AddClientAndServer(harness::Lan& lan) {
  PlexusHost& client = lan.AddPlexus(1, "client", 11);
  PlexusHost& server = lan.AddPlexus(2, "server", 22);
  proto::TcpConfig cfg;
  cfg.rto_max = sim::Duration::Seconds(2);
  client.tcp().set_config(cfg);
  server.tcp().set_config(cfg);
  return {client, server};
}

bool DrainedCleanly(harness::Lan& p, PlexusHost& client, PlexusHost& server) {
  p.sim.Run();  // every timer is bounded; this terminates
  return client.host().mbuf_pool()->in_use() == 0 &&
         server.host().mbuf_pool()->in_use() == 0 &&
         client.dispatcher().stats().quarantines == 0 &&
         server.dispatcher().stats().quarantines == 0;
}

enum class Fault { kNone, kLinkDown, kNicStall, kCrash };

const char* FaultName(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kLinkDown: return "link-down";
    case Fault::kNicStall: return "nic-stall";
    case Fault::kCrash: return "crash-restart";
  }
  return "?";
}

struct TransferResult {
  bool success = false;
  bool clean = false;     // drained with zero leaks/quarantines
  double completion_s = 0;
  int attempts = 0;
};

// A 256 KiB retried echo transfer with one 1-second fault window.
TransferResult TimedTransfer(Fault fault) {
  harness::Lan p;
  auto [client_host, server_host] = AddClientAndServer(p);
  app::EchoServer server(server_host, kEchoPort);

  std::vector<std::byte> payload(256 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 13) & 0xff);
  }
  app::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.max_backoff = sim::Duration::Seconds(2);
  policy.attempt_timeout = sim::Duration::Seconds(15);

  TransferResult out;
  app::RetryingEchoClient client(
      client_host.host(),
      [&]() -> std::shared_ptr<proto::ByteStream> {
        if (client_host.crashed()) return nullptr;
        return std::static_pointer_cast<proto::ByteStream>(
            client_host.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), kEchoPort));
      },
      payload, policy, [&](const app::RetryingEchoClient::Result& r) {
        out.success = r.success;
        out.attempts = r.attempts;
        out.completion_s = (p.sim.Now() - sim::TimePoint()).seconds();
      });
  client.Start();

  const sim::Duration at = sim::Duration::Millis(100);  // mid-transfer
  const sim::Duration outage = sim::Duration::Seconds(1);
  switch (fault) {
    case Fault::kNone:
      break;
    case Fault::kLinkDown:
      p.sim.Schedule(at, [&] { p.medium().set_carrier(false); });
      p.sim.Schedule(at + outage, [&] { p.medium().set_carrier(true); });
      break;
    case Fault::kNicStall:
      p.sim.Schedule(at, [&] { server_host.nic().SetStalled(true); });
      p.sim.Schedule(at + outage, [&] { server_host.nic().SetStalled(false); });
      break;
    case Fault::kCrash:
      p.sim.Schedule(at, [&] { server_host.Crash(); });
      p.sim.Schedule(at + outage, [&] {
        server_host.Restart();
        server.Rearm();
      });
      break;
  }

  out.clean = DrainedCleanly(p, client_host, server_host);
  return out;
}

// Self-clocked echo stream for `horizon` against a periodic carrier flap:
// each period the link is up for (1-frac)*period then down for frac*period.
// Returns echoed goodput in Mb/s (and leak-check status via *clean).
double FlapGoodputMbps(double down_fraction, bool* clean) {
  harness::Lan p;
  auto [client_host, server_host] = AddClientAndServer(p);
  app::EchoServer server(server_host, kEchoPort);

  const sim::Duration horizon = sim::Duration::Seconds(20);
  const sim::Duration period = sim::Duration::Seconds(2);
  if (down_fraction > 0.0) {
    const auto down_len = sim::Duration::Nanos(
        static_cast<std::int64_t>(static_cast<double>(period.ns()) * down_fraction));
    for (sim::Duration t = period - down_len; t < horizon; t = t + period) {
      p.sim.Schedule(t, [&] { p.medium().set_carrier(false); });
      p.sim.Schedule(t + down_len, [&] { p.medium().set_carrier(true); });
    }
  }

  constexpr std::size_t kChunk = 8 * 1024;
  const std::vector<std::byte> chunk(kChunk, std::byte{0x6b});
  std::uint64_t echoed = 0;
  bool stopped = false;
  std::shared_ptr<core::PlexusTcpEndpoint> ep;
  client_host.Run([&] {
    ep = client_host.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), kEchoPort);
    ep->SetOnEstablished([&] { ep->Write(chunk); });
    ep->SetOnData([&](std::span<const std::byte> d) {
      echoed += d.size();
      // Echo-clocked: refill what came back, keeping the pipe full without
      // overrunning the send buffer.
      if (!stopped) ep->Write(d);
    });
  });
  p.sim.ScheduleAt(sim::TimePoint() + horizon, [&] {
    stopped = true;
    client_host.Run([&] {
      if (ep->attached()) ep->CloseStream();
    });
  });
  p.sim.RunUntil(sim::TimePoint() + horizon);
  const double goodput =
      static_cast<double>(echoed) * 8.0 / horizon.seconds() / 1e6;  // Mb/s
  *clean = DrainedCleanly(p, client_host, server_host);
  return goodput;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ArgAfter(argc, argv, "--json");
  bench::JsonReporter reporter;
  bool gates_ok = true;
  auto gate = [&](const char* what, bool ok) {
    std::printf("  GATE %-52s %s\n", what, ok ? "PASS" : "FAIL");
    gates_ok = gates_ok && ok;
  };

  // --- recovery overhead per fault family ---
  bench::PrintHeader("chaos recovery: 256 KiB retried echo, one 1s fault at t=0.1s");
  const TransferResult base = TimedTransfer(Fault::kNone);
  bool all_clean = base.clean;
  bool all_success = base.success;
  double crash_overhead_s = 0;
  for (Fault f : {Fault::kLinkDown, Fault::kNicStall, Fault::kCrash}) {
    const TransferResult r = TimedTransfer(f);
    all_clean = all_clean && r.clean;
    all_success = all_success && r.success;
    const double overhead_s = r.completion_s - base.completion_s - 1.0;
    if (f == Fault::kCrash) crash_overhead_s = overhead_s;
    bench::PrintRow(std::string(FaultName(f)) + " recovery overhead (attempts " +
                        std::to_string(r.attempts) + ")",
                    overhead_s * 1000.0, "ms");
    bench::BenchRecord rec;
    rec.experiment = "chaos_recovery";
    rec.device = "eth10";
    rec.system = FaultName(f);
    rec.metric = "recovery_overhead";
    rec.unit = "ms";
    rec.measured = overhead_s * 1000.0;
    reporter.Add(rec);
  }
  {
    bench::BenchRecord rec;
    rec.experiment = "chaos_recovery";
    rec.device = "eth10";
    rec.system = "none";
    rec.metric = "clean_completion";
    rec.unit = "s";
    rec.measured = base.completion_s;
    reporter.Add(rec);
  }

  // --- goodput retention vs flap intensity ---
  bench::PrintHeader("chaos goodput: 20s echo stream vs carrier flap (period 2s)");
  bool clean = true;
  const double clean_goodput = FlapGoodputMbps(0.0, &clean);
  all_clean = all_clean && clean;
  bench::PrintRow("fault-free goodput", clean_goodput, "Mb/s");
  double retention_at_standard = 0;
  for (double frac : {0.05, 0.10, 0.20, 0.35, 0.50}) {
    const double goodput = FlapGoodputMbps(frac, &clean);
    all_clean = all_clean && clean;
    const double retention = clean_goodput > 0 ? goodput / clean_goodput * 100.0 : 0.0;
    if (frac == 0.10) retention_at_standard = retention;
    char label[64];
    std::snprintf(label, sizeof(label), "down fraction %.2f retention", frac);
    bench::PrintRow(label, retention, "%");
    bench::BenchRecord rec;
    rec.experiment = "chaos_goodput";
    rec.device = "eth10";
    char sys[32];
    std::snprintf(sys, sizeof(sys), "flap-%.2f", frac);
    rec.system = sys;
    rec.metric = "goodput_retention";
    rec.unit = "%";
    rec.measured = retention;
    reporter.Add(rec);
  }

  std::printf("\n");
  gate("all transfers completed byte-exactly", all_success);
  gate("retention >= 60% at standard flap (0.10)", retention_at_standard >= 60.0);
  gate("crash recovery overhead < 10s", crash_overhead_s < 10.0 && crash_overhead_s > 0.0);
  gate("all runs drained leak-free, zero quarantines", all_clean);

  if (!json_path.empty()) {
    if (!reporter.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %zu records: %s\n", reporter.size(), json_path.c_str());
  }
  return gates_ok ? 0 : 1;
}
