// Extension fault containment (paper Section 3.3): measured handler
// budgets with asynchronous mid-handler termination, exception fences at
// the dispatch boundary, and strike-based quarantine. A faulty application
// extension degrades only itself — healthy handlers on the same events
// keep 100% delivery and nothing unwinds into the interrupt path.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/simulator.h"

namespace core {
namespace {

// The acceptance scenario: a throwing handler, a measured-over-budget
// handler, and an ephemeral-violating handler alongside healthy ones on
// the same event. Every offender is quarantined after exactly
// kDefaultMaxStrikes; healthy handlers never miss a packet; the dispatcher
// accounts for every injected fault.
TEST(Containment, MisbehavingExtensionsAreQuarantinedHealthyOnesUnaffected) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  const int kSends = 10;

  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions healthy_opts;
  healthy_opts.ephemeral = true;

  int healthy_before = 0;
  healthy_opts.name = "healthy-before";
  ASSERT_TRUE(rx->InstallReceiveHandler(
                    [&](const net::Mbuf&, const proto::UdpDatagram&) { ++healthy_before; },
                    healthy_opts)
                  .ok());

  // Offender 1: throws on every packet.
  int thrower_entered = 0;
  std::vector<spin::HandlerId> quarantined_ids;
  spin::HandlerOptions throw_opts;
  throw_opts.ephemeral = true;
  throw_opts.name = "thrower";
  throw_opts.fault.on_quarantined = [&](spin::HandlerId id, const spin::HandlerStats&) {
    quarantined_ids.push_back(id);
  };
  auto thrower = rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        ++thrower_entered;
        throw std::runtime_error("extension bug");
      },
      throw_opts);
  ASSERT_TRUE(thrower.ok());

  // Offender 2: declares an innocent cost but *measures* over budget —
  // the fence must cut it off mid-handler, abandoning later side effects.
  int overbudget_entered = 0, overbudget_completed = 0;
  spin::HandlerOptions budget_opts;
  budget_opts.ephemeral = true;
  budget_opts.name = "over-budget";
  budget_opts.declared_cost = sim::Duration::Micros(10);  // within the limit
  budget_opts.time_limit = sim::Duration::Micros(100);
  budget_opts.fault.on_quarantined = [&](spin::HandlerId id, const spin::HandlerStats&) {
    quarantined_ids.push_back(id);
  };
  auto overbudget = rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        ++overbudget_entered;
        b.host().Charge(sim::Duration::Millis(5));  // blows the budget
        ++overbudget_completed;                         // must be abandoned
      },
      budget_opts);
  ASSERT_TRUE(overbudget.ok());

  // Offender 3: violates the EPHEMERAL contract by blocking.
  spin::HandlerOptions block_opts;
  block_opts.ephemeral = true;
  block_opts.name = "blocker";
  block_opts.fault.on_quarantined = [&](spin::HandlerId id, const spin::HandlerStats&) {
    quarantined_ids.push_back(id);
  };
  auto blocker = rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { spin::AssertMayBlock("lock wait"); },
      block_opts);
  ASSERT_TRUE(blocker.ok());

  // A healthy handler installed *after* the offenders: the raise must keep
  // going past every fenced fault to reach it.
  int healthy_after = 0;
  healthy_opts.name = "healthy-after";
  ASSERT_TRUE(rx->InstallReceiveHandler(
                    [&](const net::Mbuf&, const proto::UdpDatagram&) { ++healthy_after; },
                    healthy_opts)
                  .ok());

  b.dispatcher().ResetStats();
  auto tx = a.udp().CreateEndpoint(5000).value();
  for (int i = 0; i < kSends; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("probe"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  EXPECT_NO_THROW(net.sim.RunFor(sim::Duration::Seconds(5)));  // zero leakage

  // Healthy handlers: 100% delivery.
  EXPECT_EQ(healthy_before, kSends);
  EXPECT_EQ(healthy_after, kSends);

  // Each offender struck exactly kDefaultMaxStrikes times, then never ran
  // again.
  EXPECT_EQ(thrower_entered, kDefaultMaxStrikes);
  EXPECT_EQ(overbudget_entered, kDefaultMaxStrikes);
  EXPECT_EQ(overbudget_completed, 0);  // side effects after the budget: abandoned

  auto& ev = b.udp().packet_recv();
  const auto throw_stats = ev.stats(thrower.value());
  EXPECT_EQ(throw_stats.faults, static_cast<std::uint64_t>(kDefaultMaxStrikes));
  EXPECT_TRUE(throw_stats.quarantined);
  EXPECT_NE(throw_stats.last_fault.find("extension bug"), std::string::npos);

  const auto budget_stats = ev.stats(overbudget.value());
  EXPECT_EQ(budget_stats.terminations, static_cast<std::uint64_t>(kDefaultMaxStrikes));
  EXPECT_EQ(budget_stats.faults, 0u);
  EXPECT_TRUE(budget_stats.quarantined);

  const auto block_stats = ev.stats(blocker.value());
  EXPECT_EQ(block_stats.faults, static_cast<std::uint64_t>(kDefaultMaxStrikes));
  EXPECT_TRUE(block_stats.quarantined);

  // Dispatcher-level accounting: every injected fault shows up, nothing
  // else does.
  const auto ds = b.dispatcher().stats();
  EXPECT_EQ(ds.terminations, static_cast<std::uint64_t>(kDefaultMaxStrikes));
  EXPECT_EQ(ds.faults, static_cast<std::uint64_t>(2 * kDefaultMaxStrikes));
  EXPECT_EQ(ds.quarantines, 3u);

  // The managers were notified for all three offenders.
  ASSERT_EQ(quarantined_ids.size(), 3u);
  EXPECT_EQ(quarantined_ids[0], thrower.value());
  EXPECT_EQ(quarantined_ids[1], overbudget.value());
  EXPECT_EQ(quarantined_ids[2], blocker.value());
}

TEST(Containment, DescribeGraphShowsFaultCountsAndQuarantinedTombstones) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "crashy-extension";
  ASSERT_TRUE(rx->InstallReceiveHandler(
                    [](const net::Mbuf&, const proto::UdpDatagram&) {
                      throw std::runtime_error("boom");
                    },
                    opts)
                  .ok());
  auto tx = a.udp().CreateEndpoint(5000).value();
  for (int i = 0; i < kDefaultMaxStrikes; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(2));

  const std::string graph = b.DescribeGraph();
  EXPECT_NE(graph.find("crashy-extension"), std::string::npos);
  EXPECT_NE(graph.find("[quarantined]"), std::string::npos);
  EXPECT_NE(graph.find("faults=3"), std::string::npos);
  // Kernel handlers remain, untouched.
  EXPECT_NE(graph.find("udp-input"), std::string::npos);
}

TEST(Containment, QuarantinedUdpHandlerReleasesEndpointClaim) {
  // After quarantine the endpoint no longer tracks the handler, so a second
  // uninstall is a clean no-op and the endpoint keeps working.
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  auto bad = rx->InstallReceiveHandler(
      [](const net::Mbuf&, const proto::UdpDatagram&) { throw std::runtime_error("x"); }, opts);
  ASSERT_TRUE(bad.ok());

  auto tx = a.udp().CreateEndpoint(5000).value();
  for (int i = 0; i < kDefaultMaxStrikes; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(b.udp().packet_recv().stats(bad.value()).quarantined);
  EXPECT_FALSE(rx->UninstallReceiveHandler(bad.value()));  // already gone

  // A replacement handler still receives traffic.
  int ok = 0;
  ASSERT_TRUE(rx->InstallReceiveHandler(
                    [&](const net::Mbuf&, const proto::UdpDatagram&) { ++ok; }, opts)
                  .ok());
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("again"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(ok, 1);
}

TEST(Containment, QuarantinedSpecialTcpImplementationReleasesPorts) {
  // A special TCP implementation claims port 80; while it lives, the
  // standard implementation's guard excludes the port. Quarantine must hand
  // the port back so standard TCP serves it again.
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "broken-special-tcp";
  bool notified = false;
  opts.fault.on_quarantined = [&](spin::HandlerId, const spin::HandlerStats&) {
    notified = true;
  };
  auto special = b.tcp().InstallSpecialImplementation(
      {80},
      [](const net::Mbuf&, const net::Ipv4Header&) { throw std::runtime_error("bad tcp"); },
      opts);
  ASSERT_TRUE(special.ok());

  bool established = false;
  b.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint>) { established = true; });

  // Strike the special implementation out: each SYN retransmission reaches
  // only the broken handler until quarantine hands the port back.
  std::shared_ptr<PlexusTcpEndpoint> conn;
  a.Run([&] { conn = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80); });
  net.sim.RunFor(sim::Duration::Seconds(30));

  EXPECT_TRUE(notified);
  EXPECT_TRUE(b.tcp().packet_recv().stats(special.value()).quarantined);
  // With the port released, the connection eventually established through
  // the standard implementation (SYN retransmissions survive the outage).
  EXPECT_TRUE(established);
}

TEST(Containment, AppIpProtocolHandlerIsGuardedAndContained) {
  // The IP manager's application install path: protocol-guarded handlers
  // with the same containment policy as every other manager.
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  ASSERT_FALSE(b.ip().InstallProtocolHandler(
                      net::ipproto::kTcp,
                      [](const net::Mbuf&, const net::Ipv4Header&) {})
                   .ok());  // kernel-owned protocol refused

  constexpr std::uint8_t kCustomProto = 253;  // RFC 3692 experimental
  int seen = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "custom-transport";
  auto id = b.ip().InstallProtocolHandler(
      kCustomProto, [&](const net::Mbuf&, const net::Ipv4Header&) { ++seen; }, opts);
  ASSERT_TRUE(id.ok());

  // Reaches the custom handler; UDP traffic does not.
  a.Run([&] {
    a.ip().Output(net::Mbuf::FromString("custom-payload"), net::Ipv4Address(10, 0, 0, 2),
                      kCustomProto);
  });
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("udp"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(b.ip().Uninstall(id.value()));
}

}  // namespace
}  // namespace core
