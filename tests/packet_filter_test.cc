// Tests for the declarative packet-filter predicates and their use as
// manager-inspected guards.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/packet_filter.h"
#include "core/plexus.h"
#include "drivers/medium.h"
#include "net/headers.h"
#include "net_harness.h"

namespace core::filter {
namespace {

// Builds an Ethernet+IPv4+UDP frame image.
std::vector<std::byte> Frame(std::uint16_t ethertype, std::uint8_t ip_proto,
                             net::Ipv4Address src, net::Ipv4Address dst,
                             std::uint16_t dst_port) {
  std::vector<std::byte> f(14 + 20 + 8 + 10);
  net::EthernetHeader eth;
  eth.type = ethertype;
  std::memcpy(f.data(), &eth, sizeof(eth));
  net::Ipv4Header ip;
  ip.protocol = ip_proto;
  ip.src = src;
  ip.dst = dst;
  std::memcpy(f.data() + 14, &ip, sizeof(ip));
  net::UdpHeader udp;
  udp.src_port = 1234;
  udp.dst_port = dst_port;
  std::memcpy(f.data() + 34, &udp, sizeof(udp));
  return f;
}

TEST(PacketFilter, EtherTypeMatch) {
  auto f = Frame(net::ethertype::kIpv4, 17, {10, 0, 0, 1}, {10, 0, 0, 2}, 7);
  EXPECT_TRUE(Predicate::EtherType(net::ethertype::kIpv4).Eval(f));
  EXPECT_FALSE(Predicate::EtherType(net::ethertype::kArp).Eval(f));
}

TEST(PacketFilter, IpProtocolAndAddressMatch) {
  auto f = Frame(net::ethertype::kIpv4, net::ipproto::kUdp, {10, 0, 0, 1}, {10, 0, 0, 2}, 7);
  EXPECT_TRUE(Predicate::IpProtocol(net::ipproto::kUdp).Eval(f));
  EXPECT_FALSE(Predicate::IpProtocol(net::ipproto::kTcp).Eval(f));
  EXPECT_TRUE(Predicate::IpSource(net::Ipv4Address(10, 0, 0, 1)).Eval(f));
  EXPECT_FALSE(Predicate::IpSource(net::Ipv4Address(10, 0, 0, 9)).Eval(f));
  EXPECT_TRUE(Predicate::IpDestination(net::Ipv4Address(10, 0, 0, 2)).Eval(f));
}

TEST(PacketFilter, UdpPortMatch) {
  auto f = Frame(net::ethertype::kIpv4, net::ipproto::kUdp, {10, 0, 0, 1}, {10, 0, 0, 2}, 6000);
  EXPECT_TRUE(Predicate::UdpDstPort(6000).Eval(f));
  EXPECT_FALSE(Predicate::UdpDstPort(6001).Eval(f));
  // A TCP filter must not match a UDP frame even with the same port bytes.
  EXPECT_FALSE(Predicate::TcpDstPort(6000).Eval(f));
}

TEST(PacketFilter, BooleanComposition) {
  auto f = Frame(net::ethertype::kIpv4, net::ipproto::kUdp, {10, 0, 0, 1}, {10, 0, 0, 2}, 7);
  auto p = Predicate::UdpDstPort(7) && !Predicate::IpSource(net::Ipv4Address(10, 0, 0, 9));
  EXPECT_TRUE(p.Eval(f));
  auto q = Predicate::UdpDstPort(8) || Predicate::UdpDstPort(7);
  EXPECT_TRUE(q.Eval(f));
  auto r = Predicate::UdpDstPort(8) || Predicate::UdpDstPort(9);
  EXPECT_FALSE(r.Eval(f));
}

TEST(PacketFilter, MaskedMatch) {
  auto f = Frame(net::ethertype::kIpv4, net::ipproto::kUdp, {10, 0, 5, 1}, {10, 0, 0, 2}, 7);
  // Match the 10.0/16 source prefix.
  auto p = Predicate::U32Masked(14 + 12, 0xffff0000, 0x0a000000);
  EXPECT_TRUE(p.Eval(f));
  auto q = Predicate::U32Masked(14 + 12, 0xffff0000, 0x0a010000);
  EXPECT_FALSE(q.Eval(f));
}

TEST(PacketFilter, ShortPacketFailsClosed) {
  std::vector<std::byte> runt(10);
  EXPECT_FALSE(Predicate::UdpDstPort(7).Eval(runt));
  EXPECT_FALSE(Predicate::EtherType(0x0800).Eval(runt));
}

TEST(PacketFilter, OpCountAndToString) {
  auto p = Predicate::UdpDstPort(7);
  EXPECT_GE(p.OpCount(), 3u);  // ethertype && proto && port
  EXPECT_NE(p.ToString().find("&&"), std::string::npos);
  EXPECT_EQ(Predicate::True().OpCount(), 1u);
}

// --- introspection for guard compilation -------------------------------------

TEST(PacketFilter, ExactMatchesCollectsConjunctionLeaves) {
  const auto p = Predicate::UdpDstPort(6000);
  const auto matches = p.ExactMatches();
  // ethertype==0x0800 && protocol==17 && dst_port==6000: all three are
  // necessary equality constraints.
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(p.ExactMatchKey(kEtherTypeField), net::ethertype::kIpv4);
  EXPECT_EQ(p.ExactMatchKey(kIpProtocolField), net::ipproto::kUdp);
  EXPECT_EQ(p.ExactMatchKey(kUdpDstPortField), 6000u);
}

TEST(PacketFilter, ExactMatchKeyAbsentWhenFieldUnconstrained) {
  EXPECT_EQ(Predicate::EtherType(net::ethertype::kArp).ExactMatchKey(kUdpDstPortField),
            std::nullopt);
  EXPECT_EQ(Predicate::True().ExactMatchKey(kEtherTypeField), std::nullopt);
}

TEST(PacketFilter, OrAndNotSubtreesContributeNoConstraints) {
  // An OR'd port constraint is not *necessary*, so it must not be offered
  // as a discriminator — but it must not poison the conjoined ethertype
  // constraint either.
  const auto p = Predicate::EtherType(net::ethertype::kIpv4) &&
                 (Predicate::UdpDstPort(7) || Predicate::UdpDstPort(8));
  EXPECT_EQ(p.ExactMatchKey(kEtherTypeField), net::ethertype::kIpv4);
  EXPECT_EQ(p.ExactMatchKey(kUdpDstPortField), std::nullopt);

  const auto q = !Predicate::UdpDstPort(7);
  EXPECT_EQ(q.ExactMatchKey(kUdpDstPortField), std::nullopt);
}

TEST(PacketFilter, ExactMatchKeyDistinguishesFieldsByMask) {
  // A masked prefix compare is a different FieldRef from the exact 32-bit
  // field at the same offset; neither must be confused for the other.
  const auto p = Predicate::U32Masked(14 + 12, 0xffff0000, 0x0a000000);
  const FieldRef exact_src{14 + 12, 4, 0xffffffff};
  const FieldRef masked_src{14 + 12, 4, 0xffff0000};
  EXPECT_EQ(p.ExactMatchKey(exact_src), std::nullopt);
  EXPECT_EQ(p.ExactMatchKey(masked_src), 0x0a000000u);
}

TEST(PacketFilter, EvalOnMbufChainAcrossSegments) {
  auto bytes = Frame(net::ethertype::kIpv4, net::ipproto::kUdp, {10, 0, 0, 1}, {10, 0, 0, 2}, 7);
  net::MbufPtr m = net::Mbuf::FromBytes({bytes.data(), 13});  // split inside eth header
  m->AppendChain(net::Mbuf::FromBytes({bytes.data() + 13, bytes.size() - 13}, 0));
  EXPECT_TRUE(Predicate::UdpDstPort(7).Eval(*m));
  EXPECT_FALSE(Predicate::UdpDstPort(8).Eval(*m));
}

TEST(PacketFilter, ManagerAcceptsSpecificFilterRejectsMatchAll) {
  harness::Lan lan;
  auto& host = lan.AddPlexus(1, "h");

  spin::HandlerOptions opts;
  opts.ephemeral = true;
  // Specific filter: accepted.
  auto ok = host.ethernet().InstallFilteredHandler(
      Predicate::EtherType(0x88B5), [](const net::Mbuf&, const net::EthernetHeader&) {}, opts);
  EXPECT_TRUE(ok.ok());
  // Match-everything filter: refused (would snoop all traffic).
  auto denied = host.ethernet().InstallFilteredHandler(
      Predicate::True(), [](const net::Mbuf&, const net::EthernetHeader&) {}, opts);
  EXPECT_FALSE(denied.ok());
}

TEST(PacketFilter, FilteredHandlerReceivesOnlyMatchingFrames) {
  harness::Lan lan;
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  // A declarative observer for UDP port 7 traffic on b (e.g. an in-kernel
  // traffic monitor extension).
  int matched = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  auto r = b.ethernet().InstallFilteredHandler(
      Predicate::UdpDstPort(7),
      [&](const net::Mbuf&, const net::EthernetHeader&) { ++matched; }, opts);
  ASSERT_TRUE(r.ok());

  auto tx = a.udp().CreateEndpoint(5000).value();
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("to 7"), net::Ipv4Address(10, 0, 0, 2), 7);
    tx->Send(net::Mbuf::FromString("to 8"), net::Ipv4Address(10, 0, 0, 2), 8);
    tx->Send(net::Mbuf::FromString("to 7 again"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  lan.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(matched, 2);
}

}  // namespace
}  // namespace core::filter
