// Adversarial bench (not a paper figure): what hostile traffic costs a
// legitimate flow, and whether the hardening holds it.
//
// Two sweeps over a client/server pair on a 10 Mb/s Ethernet (hostile
// frames are injected straight into the victim NIC, so they cost the victim
// CPU and protocol state but not link bandwidth — the measured effect is the
// stack's, not the wire's):
//
//  1. SYN flood vs connection churn. A client runs back-to-back 64 KiB
//     connect/transfer/close cycles for 15 s while spoofed SYNs hit the
//     listener at 0/500/1000/2000 per second, with SYN cookies in kAuto
//     versus kNever (backlog 64 in both). Retention is bytes delivered
//     relative to the unflooded run. Cookies should hold the line; the
//     cookie-less listener's backlog wedges solid (embryonic TCBs outlive
//     the horizon) and churn collapses.
//
//  2. Blind RST injection. A 2 MiB transfer runs while tuple-aware RSTs
//     (right 4-tuple — the client's port is fixed — wrong sequence; a Weyl
//     sweep over the 32-bit space guarantees in-window guesses at the top
//     rate) spray the server. RFC 5961 demotes them to challenge ACKs:
//     bytes must survive exactly and completion time barely move.
//
// The 1000-seed structure-aware fuzz corpus is not run here: it is
// tests/fuzz_property_test.cc (label: slow), which scripts/check.sh runs
// under ASan+UBSan.
//
// Flags:
//   --json <path>    write every point as plexus-bench-v1 JSON
//
// Exit gates (non-zero exit on failure; scripts/check.sh runs this):
//   * SYN flood 1000/s with cookies (kAuto): goodput retention >= 80%
//   * SYN flood 1000/s without cookies (kNever): retention < 50% — the
//     collapse the cookies exist to prevent; if this "passes", the flood
//     harness itself is broken
//   * RST injection at every rate: byte-exact transfer, retention >= 80%,
//     and at least one challenge ACK at the top rate
//   * every run drains leak-free with zero quarantines
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "tests/adversarial_util.h"

namespace {

using adversarial::AddServerAndClient;
using adversarial::Counter;
using adversarial::InjectAt;
using adversarial::kClientIp;
using adversarial::kServerIp;
using adversarial::kServerMac;
using adversarial::TcpSegmentBytes;
using adversarial::WrapIp;

const net::MacAddress kAttackerMac = net::MacAddress::FromId(0x66);

net::Ipv4Address SpoofedIp(int i) {
  return net::Ipv4Address(203, 0, 113, static_cast<std::uint8_t>(1 + i % 250));
}

// Lowers the client's retransmission ceiling to the server's so
// post-horizon drains (failed handshakes, embryonic TCBs) converge in tens
// of virtual seconds.
void TightenRto(core::PlexusHost& client) {
  proto::TcpConfig cfg = client.tcp().config();
  cfg.rto_max = sim::Duration::Seconds(2);
  client.tcp().set_config(cfg);
}

bool DrainedCleanly(harness::Lan& p, core::PlexusHost& server, core::PlexusHost& client) {
  p.sim.Run();  // every timer is bounded; this terminates
  return server.mbuf_pool().in_use() == 0 && client.mbuf_pool().in_use() == 0 &&
         server.dispatcher().stats().quarantines == 0 &&
         client.dispatcher().stats().quarantines == 0;
}

// --- sweep 1: SYN flood vs connection churn -------------------------------

struct ChurnResult {
  double mbytes = 0;  // delivered to the server inside the horizon
  bool clean = false;
  std::uint64_t cookies_sent = 0;
  std::uint64_t overflows = 0;
};

ChurnResult ChurnUnderSynFlood(int syn_rate_per_s, proto::SynCookies mode) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  TightenRto(client);
  const sim::Duration horizon = sim::Duration::Seconds(15);

  std::uint64_t delivered = 0;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  proto::ListenOptions opts;
  opts.syn_backlog = 64;
  opts.cookies = mode;
  server.tcp().Listen(
      80,
      [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        core::PlexusTcpEndpoint* raw = ep.get();
        raw->SetOnData(
            [&delivered](std::span<const std::byte> d) { delivered += d.size(); });
        raw->SetOnClose([raw] { raw->CloseStream(); });
        keep.push_back(std::move(ep));
      },
      opts);

  if (syn_rate_per_s > 0) {
    const auto gap = sim::Duration::Nanos(1'000'000'000ll / syn_rate_per_s);
    const int count = static_cast<int>(horizon.ns() / gap.ns());
    for (int i = 0; i < count; ++i) {
      auto seg = TcpSegmentBytes(static_cast<std::uint16_t>(1024 + i % 60000),
                                 80, static_cast<std::uint32_t>(7 * i), 0,
                                 net::tcpflag::kSyn, 8192, SpoofedIp(i),
                                 kServerIp);
      InjectAt(p.sim, server, gap * i,
               WrapIp(kServerMac, kAttackerMac, SpoofedIp(i),
                      kServerIp, net::ipproto::kTcp, seg));
    }
  }

  // Back-to-back 64 KiB connections; the next begins when the previous
  // closes. Starts at 300 ms, after any flood has had time to wedge a
  // cookie-less backlog (64 embryonic slots fill in <= 128 ms at the
  // slowest swept rate).
  const std::vector<std::byte> blob(64 * 1024, std::byte{0x42});
  bool stop = false;
  std::shared_ptr<core::PlexusTcpEndpoint> cep;
  std::function<void()> next = [&] {
    if (stop) return;
    client.Run([&] {
      cep = client.tcp().Connect(kServerIp, 80);
      cep->SetOnClose([&] {
        p.sim.Schedule(sim::Duration::Millis(1), [&] { next(); });
      });
      cep->SetOnEstablished([&] {
        cep->Write(blob);
        cep->CloseStream();
      });
    });
  };
  p.sim.Schedule(sim::Duration::Millis(300), [&] { next(); });
  p.sim.RunUntil(sim::TimePoint() + horizon);
  stop = true;

  ChurnResult out;
  out.mbytes = static_cast<double>(delivered) / (1024.0 * 1024.0);
  out.cookies_sent = Counter(server, "tcp.syn_cookies_sent");
  out.overflows = Counter(server, "tcp.listen_overflows");
  out.clean = DrainedCleanly(p, server, client);
  return out;
}

// --- sweep 2: blind RST injection vs a long transfer ----------------------

struct RstResult {
  bool exact = false;
  bool clean = false;
  double completion_s = 0;
  std::uint64_t challenge_acks = 0;
};

RstResult TransferUnderRstSpray(int rst_rate_per_s) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  TightenRto(client);
  constexpr std::uint16_t kClientPort = 45000;

  std::vector<std::byte> payload(2 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 31 + 7) & 0xff);
  }

  std::uint64_t delivered = 0;
  bool exact_so_far = true;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    core::PlexusTcpEndpoint* raw = ep.get();
    raw->SetOnData([&](std::span<const std::byte> d) {
      for (std::byte b : d) {
        if (b != payload[delivered]) exact_so_far = false;
        ++delivered;
      }
    });
    raw->SetOnClose([raw] { raw->CloseStream(); });
    keep.push_back(std::move(ep));
  });

  RstResult out;
  std::shared_ptr<core::PlexusTcpEndpoint> cep;
  client.Run([&] {
    cep = client.tcp().Connect(kServerIp, 80, kClientPort);
    cep->SetOnEstablished([&] {
      cep->Write(payload);
      cep->CloseStream();
    });
  });

  if (rst_rate_per_s > 0) {
    // 5 s of spray brackets the whole transfer (~2 s clean). The Weyl
    // stride covers the sequence space with max gap ~2^32/count, below the
    // 64 KiB receive window at the top rate — at least one guess lands
    // in-window, the shot that kills a pre-RFC 5961 stack.
    const auto gap = sim::Duration::Nanos(1'000'000'000ll / rst_rate_per_s);
    const int count = static_cast<int>(5ll * rst_rate_per_s);
    for (int i = 0; i < count; ++i) {
      const std::uint32_t seq =
          static_cast<std::uint32_t>(2654435761u * static_cast<std::uint32_t>(i));
      auto seg = TcpSegmentBytes(kClientPort, 80, seq, 0, net::tcpflag::kRst,
                                 0, kClientIp, kServerIp);
      InjectAt(p.sim, server, gap * i,
               WrapIp(kServerMac, kAttackerMac, kClientIp,
                      kServerIp, net::ipproto::kTcp, seg));
    }
  }

  bool done = false;
  double completion_s = 0;
  // Completion = all bytes in and the server-side close handshake done; we
  // watch delivered bytes from a poller so the hot path stays untouched.
  std::function<void()> poll = [&] {
    if (delivered >= payload.size()) {
      done = true;
      completion_s = (p.sim.Now() - sim::TimePoint()).seconds();
      return;
    }
    p.sim.Schedule(sim::Duration::Millis(10), [&] { poll(); });
  };
  p.sim.Schedule(sim::Duration::Millis(10), [&] { poll(); });
  p.sim.RunUntil(sim::TimePoint() + sim::Duration::Seconds(60));

  out.exact = done && exact_so_far && delivered == payload.size();
  out.completion_s = completion_s;
  out.challenge_acks = Counter(server, "tcp.challenge_acks");
  out.clean = DrainedCleanly(p, server, client);
  return out;
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

  // --- SYN flood sweep ---
  bench::PrintHeader(
      "syn flood: 15s of 64 KiB connection churn vs spoofed SYN rate");
  bool all_clean = true;
  const ChurnResult churn_base =
      ChurnUnderSynFlood(0, proto::SynCookies::kAuto);
  all_clean = all_clean && churn_base.clean;
  bench::PrintRow("unflooded churn", churn_base.mbytes, "MiB");
  double retention_auto_1000 = 0, retention_never_1000 = 0;
  for (proto::SynCookies mode :
       {proto::SynCookies::kAuto, proto::SynCookies::kNever}) {
    const char* mode_name = mode == proto::SynCookies::kAuto ? "cookies" : "no-cookies";
    for (int rate : {500, 1000, 2000}) {
      const ChurnResult r = ChurnUnderSynFlood(rate, mode);
      all_clean = all_clean && r.clean;
      const double retention =
          churn_base.mbytes > 0 ? r.mbytes / churn_base.mbytes * 100.0 : 0.0;
      if (rate == 1000 && mode == proto::SynCookies::kAuto) {
        retention_auto_1000 = retention;
      }
      if (rate == 1000 && mode == proto::SynCookies::kNever) {
        retention_never_1000 = retention;
      }
      char label[80];
      std::snprintf(label, sizeof(label), "%s %d SYN/s retention (cookies %llu)",
                    mode_name, rate,
                    static_cast<unsigned long long>(r.cookies_sent));
      bench::PrintRow(label, retention, "%");
      bench::BenchRecord rec;
      rec.experiment = "adversarial_synflood";
      rec.device = "eth10";
      char sys[48];
      std::snprintf(sys, sizeof(sys), "%s-%d", mode_name, rate);
      rec.system = sys;
      rec.metric = "goodput_retention";
      rec.unit = "%";
      rec.measured = retention;
      reporter.Add(rec);
    }
  }

  // --- RST injection sweep ---
  bench::PrintHeader("rst injection: 2 MiB transfer vs tuple-aware blind RSTs");
  const RstResult rst_base = TransferUnderRstSpray(0);
  all_clean = all_clean && rst_base.clean;
  bench::PrintRow("clean completion", rst_base.completion_s, "s");
  bool rst_all_exact = rst_base.exact;
  // Moderate-rate sprays must be absorbed with near-full goodput. At the
  // extreme rate the connection must survive byte-exact, but the victim's
  // challenge ACKs reach the data sender as duplicate ACKs and trigger
  // repeated fast-retransmit cwnd reductions — the classic challenge-ACK
  // storm side effect — so the gate there is "no livelock", not "no cost".
  double rst_moderate_retention = 100.0;
  double rst_extreme_retention = 100.0;
  std::uint64_t challenge_acks_top = 0;
  for (int rate : {500, 2000, 8000}) {
    const RstResult r = TransferUnderRstSpray(rate);
    all_clean = all_clean && r.clean;
    rst_all_exact = rst_all_exact && r.exact;
    const double retention =
        r.completion_s > 0 ? rst_base.completion_s / r.completion_s * 100.0 : 0.0;
    if (rate == 8000) {
      rst_extreme_retention = retention;
      challenge_acks_top = r.challenge_acks;
    } else if (retention < rst_moderate_retention) {
      rst_moderate_retention = retention;
    }
    char label[80];
    std::snprintf(label, sizeof(label), "%d RST/s retention (challenges %llu)",
                  rate, static_cast<unsigned long long>(r.challenge_acks));
    bench::PrintRow(label, retention, "%");
    bench::BenchRecord rec;
    rec.experiment = "adversarial_rst";
    rec.device = "eth10";
    char sys[32];
    std::snprintf(sys, sizeof(sys), "rst-%d", rate);
    rec.system = sys;
    rec.metric = "goodput_retention";
    rec.unit = "%";
    rec.measured = retention;
    reporter.Add(rec);
  }

  std::printf("\n");
  gate("cookies hold >= 80% churn at 1000 SYN/s", retention_auto_1000 >= 80.0);
  gate("cookie-less listener collapses (< 50%)", retention_never_1000 < 50.0);
  gate("RST spray: all transfers byte-exact", rst_all_exact);
  gate("RST spray: retention >= 80% at moderate rates", rst_moderate_retention >= 80.0);
  gate("RST spray: no livelock at 8000/s (>= 20%)", rst_extreme_retention >= 20.0);
  gate("RST spray: challenge ACKs fired at top rate", challenge_acks_top >= 1);
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
