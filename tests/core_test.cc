// Tests for Plexus-graph internals not covered by the integration suite:
// thread-mode execution details, EPHEMERAL violations surfacing through the
// full stack, handler time budgets at the graph level, IP reinjection, and
// per-host domain isolation.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net/checksum.h"
#include "net_harness.h"
#include "sim/simulator.h"

namespace core {
namespace {

TEST(CoreGraph, InterruptModeRunsHandlerInsideEphemeralScope) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  bool in_scope = false;
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        in_scope = spin::EphemeralScope::active();
      },
      opts);
  auto tx = a.udp().CreateEndpoint(5000).value();
  a.Run([&] { tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7); });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(in_scope);
}

TEST(CoreGraph, ThreadModeRunsHandlerOutsideEphemeralScope) {
  harness::Lan net;
  auto& a = net.AddPlexus(1, "a", 1, HandlerMode::kThread);
  auto& b = net.AddPlexus(2, "b", 2, HandlerMode::kThread);
  bool handler_ran = false, in_scope = true;
  auto rx = b.udp().CreateEndpoint(7).value();
  rx->InstallReceiveHandler([&](const net::Mbuf&, const proto::UdpDatagram&) {
    handler_ran = true;
    in_scope = spin::EphemeralScope::active();
  });
  auto tx = a.udp().CreateEndpoint(5000).value();
  a.Run([&] { tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7); });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(handler_ran);
  EXPECT_FALSE(in_scope);  // a thread handler may block: no scope
}

TEST(CoreGraph, BlockingCallInInterruptHandlerIsFencedNotFatal) {
  // A handler that calls a blocking API inside the interrupt violates the
  // EPHEMERAL contract. The violation is fenced at the dispatch boundary —
  // recorded as a fault against the handler, never unwinding into the NIC
  // interrupt path — so the rest of the host keeps working.
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;  // claims to be ephemeral...
  auto id = rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        spin::AssertMayBlock("mutex wait");  // ...but blocks
      },
      opts);
  ASSERT_TRUE(id.ok());
  auto tx = a.udp().CreateEndpoint(5000).value();
  a.Run([&] { tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7); });
  EXPECT_NO_THROW(net.sim.RunFor(sim::Duration::Seconds(1)));
  const auto st = b.udp().packet_recv().stats(id.value());
  EXPECT_EQ(st.faults, 1u);
  EXPECT_NE(st.last_fault.find("EPHEMERAL"), std::string::npos);
  EXPECT_EQ(b.dispatcher().stats().faults, 1u);
}

TEST(CoreGraph, TimeBudgetEnforcedOnGraphHandler) {
  // The declared entry cost is measured against the budget fence, so the
  // handler is terminated at admission — and after kDefaultMaxStrikes
  // terminations the manager-assigned policy quarantines it.
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  int ran = 0, terminated = 0;
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.declared_cost = sim::Duration::Millis(5);   // way over budget
  opts.time_limit = sim::Duration::Micros(100);    // manager-assigned limit
  opts.on_terminated = [&] { ++terminated; };
  auto id = rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++ran; }, opts);
  ASSERT_TRUE(id.ok());
  auto tx = a.udp().CreateEndpoint(5000).value();
  for (int i = 0; i < 3; ++i) {
    a.Run([&] { tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7); });
  }
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(terminated, 3);
  const auto st = b.udp().packet_recv().stats(id.value());
  EXPECT_EQ(st.terminations, 3u);
  EXPECT_TRUE(st.quarantined);  // kDefaultMaxStrikes == 3
  EXPECT_EQ(b.dispatcher().stats().quarantines, 1u);
}

TEST(CoreGraph, ThreadModeChargesSpawnCosts) {
  // The same traffic must consume more CPU in thread mode (spawn + handoff
  // per graph hop).
  auto busy_for = [](HandlerMode mode) {
    harness::Lan net;
    auto &a = net.AddPlexus(1, "a", 1, mode), &b = net.AddPlexus(2, "b", 2, mode);
    auto rx = b.udp().CreateEndpoint(7).value();
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    (void)rx->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {}, opts);
    auto tx = a.udp().CreateEndpoint(5000).value();
    for (int i = 0; i < 10; ++i) {
      a.Run([&] {
        tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 7);
      });
    }
    net.sim.RunFor(sim::Duration::Seconds(2));
    return b.host().cpu().busy_total();
  };
  EXPECT_GT(busy_for(HandlerMode::kThread).ns(),
            busy_for(HandlerMode::kInterrupt).ns());
}

TEST(CoreGraph, IpReinjectSendsTowardNewDestination) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  // Craft an IP packet addressed to b, then reinject it on a toward b.
  int delivered = 0;
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler([&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; },
                            opts);

  a.Run([&] {
    // Build a full UDP/IP packet by sending through the normal path once,
    // then reinject a captured copy. Simplest: construct via the layers.
    net::UdpHeader uh;
    uh.src_port = 5000;
    uh.dst_port = 7;
    uh.length = 8 + 4;
    uh.checksum = 0;  // checksum-off datagram
    auto payload = net::Mbuf::Allocate(8 + 4);
    net::StorePacket(*payload, uh);
    net::Ipv4Header ih;
    ih.total_length = static_cast<std::uint16_t>(20 + payload->PacketLength());
    ih.protocol = net::ipproto::kUdp;
    ih.src = net::Ipv4Address(10, 0, 0, 1);
    ih.dst = net::Ipv4Address(10, 0, 0, 2);
    // Header checksum.
    std::byte raw[20];
    ih.checksum = 0;
    std::memcpy(raw, &ih, 20);
    ih.checksum = net::Checksum({raw, 20});
    auto room = payload->Prepend(20);
    net::Store(room, ih);
    a.ip().Reinject(std::move(payload), net::Ipv4Address(10, 0, 0, 2));
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(delivered, 1);
}

TEST(CoreGraph, DomainsAreIsolatedPerHost) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  // a's app domain resolves a's UdpManager, never b's.
  auto a_mgr = a.app_domain()->ResolveAs<UdpManager*>("UdpManager");
  auto b_mgr = b.app_domain()->ResolveAs<UdpManager*>("UdpManager");
  ASSERT_TRUE(a_mgr.has_value());
  ASSERT_TRUE(b_mgr.has_value());
  EXPECT_NE(*a_mgr, *b_mgr);
  EXPECT_EQ(*a_mgr, &a.udp());
}

TEST(CoreGraph, KernelDomainSupersetOfAppDomain) {
  harness::Lan net;
  auto& a = net.AddPlexus(1, "a", 1);
  net.AddPlexus(2, "b", 2);
  for (const char* sym : {"UdpManager", "TcpManager", "Mbuf.Allocate"}) {
    EXPECT_TRUE(a.app_domain()->Contains(sym)) << sym;
    EXPECT_TRUE(a.kernel_domain()->Contains(sym)) << sym;
  }
  for (const char* sym : {"EthernetManager", "IpManager", "ActiveMessages"}) {
    EXPECT_FALSE(a.app_domain()->Contains(sym)) << sym;
    EXPECT_TRUE(a.kernel_domain()->Contains(sym)) << sym;
  }
}

TEST(CoreGraph, HandlerInstallChargedToCpu) {
  harness::Lan net;
  net.AddPlexus(1, "a", 1);
  auto& b = net.AddPlexus(2, "b", 2);
  auto rx = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  const auto before = b.host().cpu().busy_total();
  b.Run([&] {
    (void)rx->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {}, opts);
  });
  net.sim.RunFor(sim::Duration::Millis(10));
  EXPECT_GE((b.host().cpu().busy_total() - before).ns(),
            b.host().costs().handler_install.ns());
}

}  // namespace
}  // namespace core
