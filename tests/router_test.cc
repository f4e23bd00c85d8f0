// Multi-hop topology: a Plexus host with two NICs is not modeled (one NIC
// per host), so the router here bridges two hosts on ONE segment across
// subnets using IP forwarding — exercising gateway routes, TTL decrement,
// ICMP time-exceeded, and transport traffic across the forwarding path.
//
// Topology (single wire, two logical subnets):
//   client 10.0.1.10/24  --\
//                           router 10.0.1.1 + alias route (forwarding on)
//   server 10.0.2.10/24  --/
#include <gtest/gtest.h>

#include <memory>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "sim/simulator.h"

namespace core {
namespace {

struct RoutedNet {
  RoutedNet()
      : segment(sim),
        client(sim, "client", sim::CostModel::Default1996(),
               drivers::DeviceProfile::Ethernet10(),
               {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 1, 10), 24}),
        router(sim, "router", sim::CostModel::Default1996(),
               drivers::DeviceProfile::Ethernet10(),
               {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 1, 1), 24}),
        server(sim, "server", sim::CostModel::Default1996(),
               drivers::DeviceProfile::Ethernet10(),
               {net::MacAddress::FromId(3), net::Ipv4Address(10, 0, 2, 10), 24}) {
    client.AttachTo(segment);
    router.AttachTo(segment);
    server.AttachTo(segment);

    // Client: 10.0.1/24 on-link (its connected route), everything else via
    // the router.
    client.ip_layer().routes().AddDefault(net::Ipv4Address(10, 0, 1, 1));

    // Router: forwards; both subnets are reachable on its single wire, so
    // the server's subnet is on-link too.
    router.ip_layer().set_forwarding(true);
    router.ip_layer().routes().Add(net::Ipv4Address(10, 0, 2, 0), 24);
    // The router answers ARP for 10.0.2.x queries from the 10.0.1 side? No:
    // hosts only ARP their own subnet; the router ARPs the server directly.
    router.arp().AddStatic(net::Ipv4Address(10, 0, 2, 10), net::MacAddress::FromId(3));

    // Server: 10.0.2/24 on-link, return path via the router.
    server.ip_layer().routes().AddDefault(net::Ipv4Address(10, 0, 2, 1));
    // The router's address on the server's subnet (alias) — static mapping,
    // since the router only claims 10.0.1.1 for ARP.
    server.arp().AddStatic(net::Ipv4Address(10, 0, 2, 1), net::MacAddress::FromId(2));
  }

  sim::Simulator sim;
  drivers::EthernetSegment segment;
  PlexusHost client, router, server;
};

TEST(Router, UdpAcrossSubnets) {
  RoutedNet net;
  auto tx = net.client.udp().CreateEndpoint(5000).value();
  auto rx = net.server.udp().CreateEndpoint(7).value();
  std::string got;
  proto::UdpDatagram info_seen;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        got = p.ToString();
        info_seen = info;
      },
      opts);
  net.client.Run([&] {
    tx->Send(net::Mbuf::FromString("across subnets"), net::Ipv4Address(10, 0, 2, 10), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(got, "across subnets");
  EXPECT_EQ(info_seen.src_ip, net::Ipv4Address(10, 0, 1, 10));
  EXPECT_EQ(net.router.ip_layer().stats().forwarded, 1u);
}

TEST(Router, RoundTripThroughRouter) {
  RoutedNet net;
  auto tx = net.client.udp().CreateEndpoint(5000).value();
  auto echo = net.server.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  echo->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        echo->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);
  std::string reply;
  tx->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram&) { reply = p.ToString(); }, opts);
  net.client.Run([&] {
    tx->Send(net::Mbuf::FromString("ping"), net::Ipv4Address(10, 0, 2, 10), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(reply, "ping");
  EXPECT_EQ(net.router.ip_layer().stats().forwarded, 2u);  // both directions
}

TEST(Router, TtlOneExpiresAtRouter) {
  RoutedNet net;
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  auto rx = net.server.udp().CreateEndpoint(7).value();
  rx->InstallReceiveHandler([&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; },
                            opts);
  // Send raw IP with TTL 1 via the IP manager (trusted path).
  net.client.Run([&] {
    net.client.ip_layer().Output(net::Mbuf::FromString("doomed"), net::Ipv4Address::Any(),
                                 net::Ipv4Address(10, 0, 2, 10), net::ipproto::kUdp,
                                 /*ttl=*/1);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.router.ip_layer().stats().ttl_exceeded, 1u);
  // The router reported it via ICMP time-exceeded toward the client.
  EXPECT_GE(net.router.icmp().stats().errors_sent, 1u);
  EXPECT_GE(net.client.icmp().stats().errors_received, 1u);
}

TEST(Router, TcpConnectionAcrossSubnets) {
  RoutedNet net;
  std::string got;
  net.server.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    ep->SetOnData([&, ep](std::span<const std::byte> d) {
      got.append(reinterpret_cast<const char*>(d.data()), d.size());
      ep->WriteString("routed-reply");
      ep->CloseStream();
    });
  });
  std::string reply;
  std::shared_ptr<PlexusTcpEndpoint> conn;
  net.client.Run([&] {
    conn = net.client.tcp().Connect(net::Ipv4Address(10, 0, 2, 10), 80);
    conn->SetOnData([&](std::span<const std::byte> d) {
      reply.append(reinterpret_cast<const char*>(d.data()), d.size());
    });
    conn->SetOnEstablished([&] { conn->WriteString("routed-request"); });
  });
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(got, "routed-request");
  EXPECT_EQ(reply, "routed-reply");
  EXPECT_GT(net.router.ip_layer().stats().forwarded, 4u);
}

TEST(Router, ForwardingDisabledDropsTransit) {
  RoutedNet net;
  net.router.ip_layer().set_forwarding(false);
  auto tx = net.client.udp().CreateEndpoint(5000).value();
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  auto rx = net.server.udp().CreateEndpoint(7).value();
  rx->InstallReceiveHandler([&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; },
                            opts);
  net.client.Run([&] {
    tx->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 2, 10), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.router.ip_layer().stats().forwarded, 0u);
}

}  // namespace
}  // namespace core
