// Chaos engine: deterministic fault schedules, structural medium faults
// (carrier, partition, burst loss), NIC stall, host crash + cold restart,
// and app-level retry. The 1000-seed invariant sweep lives in
// chaos_property_test.cc; these are the targeted tier-1 cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/echo.h"
#include "app/retry.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/chaos.h"
#include "sim/simulator.h"

namespace {

using core::HandlerMode;
using core::PlexusHost;

// --- ChaosSchedule -----------------------------------------------------------

TEST(ChaosSchedule, SameSeedSameSchedule) {
  sim::ChaosConfig cfg;
  cfg.hosts = 3;
  cfg.links = 2;
  cfg.w_partition = 1.0;
  const auto a = sim::ChaosSchedule::Random(42, cfg);
  const auto b = sim::ChaosSchedule::Random(42, cfg);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.Describe(), b.Describe());
  const auto c = sim::ChaosSchedule::Random(43, cfg);
  EXPECT_NE(a.Describe(), c.Describe());
}

TEST(ChaosSchedule, WindowsArePairedSortedAndInsideHorizon) {
  sim::ChaosConfig cfg;
  cfg.hosts = 4;
  cfg.links = 3;
  cfg.max_faults = 8;
  cfg.w_partition = 1.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto s = sim::ChaosSchedule::Random(seed, cfg);
    int open = 0;
    sim::TimePoint last;
    for (const auto& e : s.events()) {
      EXPECT_GE(e.at, last) << "events out of order, seed " << seed;
      last = e.at;
      EXPECT_GE(e.at, sim::TimePoint() + cfg.start);
      EXPECT_LE(e.at, sim::TimePoint() + cfg.horizon);
      switch (e.kind) {
        case sim::ChaosKind::kLinkDown:
        case sim::ChaosKind::kNicStall:
        case sim::ChaosKind::kPartition:
        case sim::ChaosKind::kCrash:
          ++open;
          break;
        default:
          --open;
          break;
      }
      EXPECT_GE(open, 0) << "an 'up' precedes its 'down', seed " << seed;
      if (e.kind == sim::ChaosKind::kPartition) {
        EXPECT_NE(e.aux, 0u);  // both partition sides non-empty
        EXPECT_NE(e.aux, (1ull << cfg.hosts) - 1);
      }
    }
    EXPECT_EQ(open, 0) << "unclosed fault window, seed " << seed;
  }
}

TEST(ChaosSchedule, InstallFiresEveryEventAtItsInstant) {
  sim::Simulator sim;
  sim::ChaosSchedule s;
  s.Add(sim::TimePoint() + sim::Duration::Millis(5), sim::ChaosKind::kLinkDown, 0);
  s.Add(sim::TimePoint() + sim::Duration::Millis(9), sim::ChaosKind::kLinkUp, 0);
  std::vector<sim::ChaosKind> seen;
  s.Install(sim, [&](const sim::ChaosEvent& e) { seen.push_back(e.kind); });
  sim.Run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], sim::ChaosKind::kLinkDown);
  EXPECT_EQ(seen[1], sim::ChaosKind::kLinkUp);
}

// --- fixture -----------------------------------------------------------------

// Hosts h0..h{n-1} at 10.0.0.1.. on one segment, seeded 100 + i.
std::vector<PlexusHost*> AddHosts(harness::Lan& net, int n = 2) {
  std::vector<PlexusHost*> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(
        &net.AddPlexus(i + 1, "h" + std::to_string(i), 100 + static_cast<std::uint64_t>(i)));
  }
  return hosts;
}

// An echo request from `from` to host ordinal `to`: true if answered
// within `wait`.
bool Ping(harness::Lan& net, PlexusHost& from, int to,
          sim::Duration wait = sim::Duration::Seconds(2)) {
  static std::uint16_t seq = 1;
  bool replied = false;
  from.icmp().SetEchoReplyCallback(
      [&](net::Ipv4Address, std::uint16_t, std::uint16_t) { replied = true; });
  from.Run([&, to] {
    from.icmp().SendEchoRequest(harness::Lan::Ip(to + 1), 7, seq++, 32);
  });
  net.sim.RunFor(wait);
  from.icmp().SetEchoReplyCallback(nullptr);
  return replied;
}

// --- carrier -----------------------------------------------------------------

TEST(ChaosMedium, CarrierDownKillsTrafficAndNotifiesNics) {
  harness::Lan net;
  auto h = AddHosts(net);
  ASSERT_TRUE(Ping(net, *h[0], 1));

  net.medium().set_carrier(false);
  EXPECT_FALSE(h[0]->nic().carrier());
  EXPECT_FALSE(h[1]->nic().carrier());
  const auto dropped_before = net.medium().frames_dropped_carrier();
  EXPECT_FALSE(Ping(net, *h[0], 1));
  EXPECT_GT(net.medium().frames_dropped_carrier(), dropped_before);

  net.medium().set_carrier(true);
  EXPECT_TRUE(h[0]->nic().carrier());
  EXPECT_TRUE(Ping(net, *h[0], 1));
  // The chaos-path instruments exist only because the link actually flapped.
  EXPECT_GE(h[0]->host().metrics().counter("nic0.carrier_downs").value(), 1u);
}

// --- partition ---------------------------------------------------------------

TEST(ChaosMedium, PartitionSeversGroupsAndHeals) {
  harness::Lan net;
  auto h = AddHosts(net, 3);
  ASSERT_TRUE(Ping(net, *h[0], 1));
  ASSERT_TRUE(Ping(net, *h[1], 2));

  net.medium().SetPartition(0b001);  // {h0} vs {h1, h2}
  EXPECT_FALSE(Ping(net, *h[0], 1));
  EXPECT_GT(net.medium().frames_dropped_partition(), 0u);
  EXPECT_TRUE(Ping(net, *h[1], 2));  // same side still flows

  net.medium().ClearPartition();
  EXPECT_TRUE(Ping(net, *h[0], 1));
}

// --- Gilbert–Elliott burst loss ----------------------------------------------

class RollableMedium : public drivers::Medium {
 public:
  using Medium::Medium;
  void Transmit(drivers::Nic*, net::MbufPtr) override {}
  int Roll() { return FaultCopies(); }
};

TEST(ChaosMedium, GilbertElliottMarginalLossRateMatchesTheory) {
  sim::Simulator sim;
  RollableMedium m(sim, /*fault_seed=*/7);
  drivers::Faults f;
  f.gilbert_elliott = true;
  f.ge_p_good_to_bad = 0.01;
  f.ge_p_bad_to_good = 0.10;
  f.ge_loss_good = 0.0;
  f.ge_loss_bad = 1.0;
  m.set_faults(f);

  // pi_bad = p_gb / (p_gb + p_bg) = 1/11 ~= 9.09% marginal loss.
  const int kFrames = 200'000;
  int dropped = 0;
  int run = 0, runs = 0, run_total = 0;
  for (int i = 0; i < kFrames; ++i) {
    if (m.Roll() == 0) {
      ++dropped;
      ++run;
    } else if (run > 0) {
      ++runs;
      run_total += run;
      run = 0;
    }
  }
  const double marginal = static_cast<double>(dropped) / kFrames;
  EXPECT_NEAR(marginal, 1.0 / 11.0, 0.015);
  // Burstiness: mean loss-run length ~= 1/p_bg = 10, far from i.i.d.'s ~1.1.
  const double mean_run = static_cast<double>(run_total) / runs;
  EXPECT_GT(mean_run, 5.0);
  EXPECT_EQ(m.frames_dropped_burst(), static_cast<std::uint64_t>(dropped));
}

// --- NIC stall ---------------------------------------------------------------

TEST(ChaosNic, StallBuffersRingThenResumeDrains) {
  harness::Lan net;
  auto h = AddHosts(net);
  auto tx = h[0]->udp().CreateEndpoint(5000);
  auto rx = h[1]->udp().CreateEndpoint(6000);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());
  int received = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  ASSERT_TRUE(rx.value()
                  ->InstallReceiveHandler(
                      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++received; }, opts)
                  .ok());
  // Prime ARP so the stalled window only carries UDP.
  ASSERT_TRUE(Ping(net, *h[0], 1));

  h[1]->nic().SetStalled(true);
  for (int i = 0; i < 4; ++i) {
    h[0]->Run([&] {
      tx.value()->Send(net::Mbuf::FromString("stall " + std::to_string(i)),
                       net::Ipv4Address(10, 0, 0, 2), 6000);
    });
    net.sim.RunFor(sim::Duration::Millis(50));
  }
  EXPECT_EQ(received, 0);
  EXPECT_GT(h[1]->nic().rx_ring_size(), 0u);

  h[1]->nic().SetStalled(false);
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(received, 4);
  EXPECT_EQ(h[1]->nic().rx_ring_size(), 0u);
  EXPECT_GE(h[1]->host().metrics().counter("nic0.stalls").value(), 1u);
}

// --- crash / cold restart ----------------------------------------------------

TEST(ChaosCrash, CrashLosesAllProtocolStateAndLeaksNothing) {
  harness::Lan net;
  auto h = AddHosts(net);
  app::EchoServer server(*h[1], 7777);

  // Mid-transfer crash: client writes a payload larger than one window.
  std::shared_ptr<core::PlexusTcpEndpoint> client_ep;
  std::optional<proto::StreamError> client_err;
  std::vector<std::byte> payload(256 * 1024, std::byte{0x5a});
  h[0]->Run([&] {
    client_ep = h[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 7777);
    client_ep->SetOnError([&](proto::StreamError e) { client_err = e; });
    client_ep->Write(payload);
  });
  net.sim.RunFor(sim::Duration::Millis(300));
  EXPECT_GT(server.bytes_echoed(), 0u);  // transfer genuinely in flight

  h[1]->Crash();
  EXPECT_TRUE(h[1]->crashed());
  // The dead machine holds no buffers: everything the protocol graph and
  // queued tasks owned went back to the pool at the power cut.
  net.sim.RunFor(sim::Duration::Seconds(2));  // in-flight wire frames retire
  EXPECT_EQ(h[1]->host().mbuf_pool()->in_use(), 0u);
  EXPECT_EQ(h[1]->host().metrics().counter("host.crashes").value(), 1u);

  // Reborn with a fresh graph: the old peer's retransmissions find no
  // connection in the demux and draw RSTs — ECONNRESET at the client.
  h[1]->Restart();
  server.Rearm();
  net.sim.RunFor(sim::Duration::Seconds(90));
  ASSERT_TRUE(client_err.has_value());
  EXPECT_EQ(*client_err, proto::StreamError::kReset);

  // The reborn host accepts fresh connections.
  std::shared_ptr<core::PlexusTcpEndpoint> again;
  bool established = false;
  h[0]->Run([&] {
    again = h[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 7777);
    again->SetOnEstablished([&] { established = true; });
  });
  net.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_TRUE(established);
  EXPECT_EQ(h[1]->host().metrics().counter("host.restarts").value(), 1u);
}

TEST(ChaosCrash, CrashWithoutRestartTimesOutTheSurvivor) {
  harness::Lan net;
  auto h = AddHosts(net);
  app::EchoServer server(*h[1], 7777);
  proto::TcpConfig fast;
  fast.rto_max = sim::Duration::Seconds(2);  // shorten the death spiral
  h[0]->tcp().set_config(fast);

  std::shared_ptr<core::PlexusTcpEndpoint> client_ep;
  std::optional<proto::StreamError> client_err;
  bool established = false;
  h[0]->Run([&] {
    client_ep = h[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 7777);
    client_ep->SetOnError([&](proto::StreamError e) { client_err = e; });
    client_ep->SetOnEstablished([&] { established = true; });
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  ASSERT_TRUE(established);

  h[1]->Crash();
  h[0]->Run([&] {
    std::vector<std::byte> data(1024, std::byte{0x11});
    client_ep->Write(data);
  });
  // No RSTs will ever come: the client retransmits into the void until the
  // limit trips and ETIMEDOUT surfaces.
  net.sim.RunFor(sim::Duration::Seconds(120));
  ASSERT_TRUE(client_err.has_value());
  EXPECT_EQ(*client_err, proto::StreamError::kTimedOut);
}

// --- ARP across restart (peer's link-layer state changed) --------------------

TEST(ChaosArp, StaleEntryExpiresAndRelearnsNewMacAfterRestart) {
  harness::Lan net;
  auto h = AddHosts(net);
  ASSERT_TRUE(Ping(net, *h[0], 1));
  ASSERT_EQ(h[0]->arp().Lookup(net::Ipv4Address(10, 0, 0, 2)),
            net::MacAddress::FromId(2));

  // The peer reboots with a swapped adapter.
  h[1]->Crash();
  h[1]->Restart(net::MacAddress::FromId(99));
  EXPECT_EQ(h[1]->mac(), net::MacAddress::FromId(99));

  // Frames to the cached (stale) MAC are filtered by the reborn NIC.
  EXPECT_FALSE(Ping(net, *h[0], 1));

  // Past the TTL the resolve path evicts the stale entry and re-resolves on
  // the wire, discovering the new adapter.
  net.sim.RunFor(sim::Duration::Seconds(601));
  EXPECT_TRUE(Ping(net, *h[0], 1));
  EXPECT_EQ(h[0]->arp().Lookup(net::Ipv4Address(10, 0, 0, 2)),
            net::MacAddress::FromId(99));
  EXPECT_GE(h[0]->arp().stats().expired, 1u);
  EXPECT_GE(h[0]->host().metrics().counter("arp.expired").value(), 1u);
}

// --- retry policy ------------------------------------------------------------

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  app::RetryPolicy p;
  p.initial_backoff = sim::Duration::Millis(100);
  p.multiplier = 2.0;
  p.max_backoff = sim::Duration::Seconds(1);
  p.jitter = 0.0;
  sim::Random rng(1);
  EXPECT_EQ(p.BackoffFor(1, rng).ns(), sim::Duration::Millis(100).ns());
  EXPECT_EQ(p.BackoffFor(2, rng).ns(), sim::Duration::Millis(200).ns());
  EXPECT_EQ(p.BackoffFor(3, rng).ns(), sim::Duration::Millis(400).ns());
  EXPECT_EQ(p.BackoffFor(10, rng).ns(), sim::Duration::Seconds(1).ns());  // capped
}

TEST(RetryPolicy, JitterIsBoundedAndSeedDeterministic) {
  app::RetryPolicy p;
  p.initial_backoff = sim::Duration::Millis(100);
  p.jitter = 0.25;
  sim::Random a(7), b(7);
  for (int i = 1; i <= 8; ++i) {
    const auto da = p.BackoffFor(i, a);
    const auto db = p.BackoffFor(i, b);
    EXPECT_EQ(da.ns(), db.ns());  // same seed, same schedule
    const double base = 100e6 * std::pow(2.0, i - 1);
    const double capped = std::min(base, static_cast<double>(p.max_backoff.ns()));
    EXPECT_GE(static_cast<double>(da.ns()), capped * 0.749);
    EXPECT_LE(static_cast<double>(da.ns()), capped * 1.251);
  }
}

// --- app-level recovery end to end -------------------------------------------

TEST(ChaosRecovery, EchoClientRetriesThroughCrashAndSucceeds) {
  harness::Lan net;
  auto h = AddHosts(net);
  app::EchoServer server(*h[1], 7777);
  proto::TcpConfig fast;
  fast.rto_max = sim::Duration::Seconds(2);
  h[0]->tcp().set_config(fast);

  std::vector<std::byte> payload;
  for (int i = 0; i < 192 * 1024; ++i) payload.push_back(static_cast<std::byte>(i * 31));

  app::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.attempt_timeout = sim::Duration::Seconds(20);
  std::optional<app::RetryingEchoClient::Result> result;
  app::RetryingEchoClient client(
      h[0]->host(),
      [&] {
        return std::static_pointer_cast<proto::ByteStream>(
            h[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 7777));
      },
      payload, policy, [&](const app::RetryingEchoClient::Result& r) { result = r; });
  client.Start();

  // Crash the server mid-transfer (192 KiB takes ~300 ms of 10 Mb/s wire
  // each way); reboot it two seconds later.
  net.sim.RunFor(sim::Duration::Millis(100));
  h[1]->Crash();
  net.sim.RunFor(sim::Duration::Seconds(2));
  h[1]->Restart();
  server.Rearm();

  net.sim.RunFor(sim::Duration::Seconds(120));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_GE(result->attempts, 2);  // the crash cost at least one attempt
  EXPECT_EQ(result->bytes_verified, payload.size());
}

TEST(ChaosRecovery, HttpFetcherRetriesThroughLinkFlap) {
  harness::Lan net;
  auto h = AddHosts(net);
  const std::string body(20'000, 'x');
  h[1]->tcp().Listen(8080, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    auto* server = new proto::HttpServerConnection(
        *ep, [&body](const std::string&) { return std::optional<std::string>(body); });
    ep->SetOnClose([server] { delete server; });
  });
  proto::TcpConfig fast;
  fast.rto_max = sim::Duration::Seconds(2);
  h[0]->tcp().set_config(fast);

  app::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.attempt_timeout = sim::Duration::Seconds(15);
  std::optional<app::RetryingHttpFetcher::Result> result;
  app::RetryingHttpFetcher fetcher(
      h[0]->host(),
      [&] {
        return std::static_pointer_cast<proto::ByteStream>(
            h[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 8080));
      },
      "/index.html", policy, [&](const app::RetryingHttpFetcher::Result& r) { result = r; });
  fetcher.Start();

  // A 3-second blackout in the middle of the fetch.
  net.sim.RunFor(sim::Duration::Millis(60));
  net.medium().set_carrier(false);
  net.sim.RunFor(sim::Duration::Seconds(3));
  net.medium().set_carrier(true);

  net.sim.RunFor(sim::Duration::Seconds(120));
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->success);
  EXPECT_EQ(result->response.status, 200);
  EXPECT_EQ(result->response.body, body);
}

}  // namespace
