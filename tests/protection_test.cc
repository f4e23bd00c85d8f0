// Tests for the newly added protection/observability features: the
// verify-source anti-spoofing strategy (Section 3.1's "useful for debugging
// protocols" alternative), ICMP port-unreachable generation, and protocol-
// graph introspection.
#include <gtest/gtest.h>

#include <string>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net/checksum.h"
#include "net_harness.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "proto/transport_checksum.h"

namespace core {
namespace {

net::MbufPtr BuildUdpPacket(std::uint16_t src_port, std::uint16_t dst_port,
                            net::Ipv4Address src_ip, net::Ipv4Address dst_ip,
                            std::string_view payload) {
  net::UdpHeader hdr;
  hdr.src_port = src_port;
  hdr.dst_port = dst_port;
  hdr.length = static_cast<std::uint16_t>(8 + payload.size());
  hdr.checksum = 0;
  auto m = net::Mbuf::Allocate(8 + payload.size());
  net::StorePacket(*m, hdr);
  m->CopyIn(8, {reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
  hdr.checksum = proto::TransportChecksum(src_ip, dst_ip, net::ipproto::kUdp, *m);
  net::StorePacket(*m, hdr);
  return m;
}

TEST(Protection, SendVerifiedAcceptsHonestPacket) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a"), &b = net.AddPlexus(2, "b");
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  std::string got;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram&) { got = p.ToString(); }, opts);

  bool accepted = false;
  a.Run([&] {
    auto pkt = BuildUdpPacket(5000, 7, net::Ipv4Address(10, 0, 0, 1),
                              net::Ipv4Address(10, 0, 0, 2), "honest");
    accepted = tx->SendVerified(std::move(pkt), net::Ipv4Address(10, 0, 0, 2));
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(accepted);
  EXPECT_EQ(got, "honest");
  EXPECT_EQ(a.udp().stats().spoof_rejections, 0u);
}

TEST(Protection, SendVerifiedRejectsSpoofedSourcePort) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a"), &b = net.AddPlexus(2, "b");
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto victim_port_owner = a.udp().CreateEndpoint(6000).value();  // someone else's port
  auto rx = b.udp().CreateEndpoint(7).value();
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);

  bool accepted = true;
  a.Run([&] {
    // The application claims to be port 6000 while holding endpoint 5000.
    auto pkt = BuildUdpPacket(6000, 7, net::Ipv4Address(10, 0, 0, 1),
                              net::Ipv4Address(10, 0, 0, 2), "spoof!");
    accepted = tx->SendVerified(std::move(pkt), net::Ipv4Address(10, 0, 0, 2));
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_FALSE(accepted);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.udp().stats().spoof_rejections, 1u);
}

TEST(Protection, UnclaimedPortGeneratesIcmpUnreachable) {
  harness::Lan net;
  auto &a = net.AddPlexus(1, "a"), &b = net.AddPlexus(2, "b");
  auto tx = a.udp().CreateEndpoint(5000).value();
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("anyone home?"), net::Ipv4Address(10, 0, 0, 2), 9999);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(b.udp().stats().unreachable_sent, 1u);
  EXPECT_GE(b.icmp().stats().errors_sent, 1u);
  EXPECT_GE(a.icmp().stats().errors_received, 1u);
}

TEST(Protection, BaselineAlsoAnswersUnreachable) {
  harness::Lan net;
  auto &a = net.AddOs(1, "a"), &b = net.AddOs(2, "b");
  os::UdpSocket tx(a, 5000);
  tx.SendTo("hello?", net::Ipv4Address(10, 0, 0, 2), 9999);
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_GE(b.icmp().stats().errors_sent, 1u);
  EXPECT_GE(a.icmp().stats().errors_received, 1u);
}

TEST(Protection, DescribeGraphShowsInstalledHandlers) {
  harness::Lan net;
  net.AddPlexus(1, "a");
  auto& b = net.AddPlexus(2, "b");
  auto ep = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "my-echo-service";
  (void)ep->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {}, opts);

  const std::string graph = b.DescribeGraph();
  EXPECT_NE(graph.find("Ethernet.PacketRecv"), std::string::npos);
  EXPECT_NE(graph.find("arp-input"), std::string::npos);
  EXPECT_NE(graph.find("ip-input"), std::string::npos);
  EXPECT_NE(graph.find("udp-input"), std::string::npos);
  EXPECT_NE(graph.find("tcp-standard"), std::string::npos);
  EXPECT_NE(graph.find("my-echo-service"), std::string::npos);

  // After the endpoint goes away, its handler disappears from the graph.
  ep.reset();
  EXPECT_EQ(b.DescribeGraph().find("my-echo-service"), std::string::npos);
}

}  // namespace
}  // namespace core
