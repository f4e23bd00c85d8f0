// Unit tests for UDP, ARP, ICMP, and active messages, using small loopback
// harnesses around the layer objects.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <vector>

#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "drivers/nic.h"
#include "net/view.h"
#include "proto/active_message.h"
#include "proto/arp.h"
#include "proto/eth.h"
#include "proto/icmp.h"
#include "proto/transport_checksum.h"
#include "proto/ip.h"
#include "proto/udp.h"
#include "sim/cost_model.h"
#include "sim/host.h"

namespace proto {
namespace {

// --- UDP ---------------------------------------------------------------------

struct UdpFixture {
  UdpFixture()
      : host(sim, "h", sim::CostModel::Default1996()),
        ip(host, {net::Ipv4Address(10, 0, 0, 1), 24, 1500}),
        udp(host, ip) {
    ip.SetTransmit([this](net::MbufPtr p, net::Ipv4Address, int) {
      sent.push_back(p->Linearize());
    });
  }

  void Run(std::function<void()> fn) {
    host.Submit(sim::Priority::kKernel, std::move(fn));
    sim.RunFor(sim::Duration::Seconds(1));
  }

  // Extracts the UDP packet (strips the IP header) from a captured frame.
  net::MbufPtr UdpPacket(const std::vector<std::byte>& ip_packet) {
    auto m = net::Mbuf::FromBytes(ip_packet);
    m->TrimFront(20);
    return m;
  }

  sim::Simulator sim;
  sim::Host host;
  Ipv4Layer ip;
  UdpLayer udp;
  std::vector<std::vector<std::byte>> sent;
};

TEST(Udp, OutputBuildsHeaderWithChecksum) {
  UdpFixture f;
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("payload"), net::Ipv4Address::Any(), 1111,
                 net::Ipv4Address(10, 0, 0, 2), 2222, /*checksum=*/true);
  });
  ASSERT_EQ(f.sent.size(), 1u);
  auto pkt = f.UdpPacket(f.sent[0]);
  auto hdr = net::ViewPacket<net::UdpHeader>(*pkt);
  EXPECT_EQ(hdr.src_port.value(), 1111);
  EXPECT_EQ(hdr.dst_port.value(), 2222);
  EXPECT_EQ(hdr.length.value(), 8 + 7);
  EXPECT_NE(hdr.checksum.value(), 0);
  // Verifying over the pseudo-header yields 0.
  EXPECT_EQ(TransportChecksum(net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2),
                              net::ipproto::kUdp, *pkt),
            0);
}

TEST(Udp, ChecksumOffSendsZeroField) {
  UdpFixture f;
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(), 1,
                 net::Ipv4Address(10, 0, 0, 2), 2, /*checksum=*/false);
  });
  auto pkt = f.UdpPacket(f.sent[0]);
  EXPECT_EQ(net::ViewPacket<net::UdpHeader>(*pkt).checksum.value(), 0);
}

TEST(Udp, InputDemuxesToBoundPort) {
  UdpFixture f;
  std::string got;
  ASSERT_TRUE(f.udp.Bind(7, [&](net::MbufPtr p, const UdpDatagram& info) {
    got = p->ToString();
    EXPECT_EQ(info.src_port, 9);
  }));
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("to-seven"), net::Ipv4Address::Any(), 9,
                 net::Ipv4Address(10, 0, 0, 2), 7, true);
  });
  auto pkt = f.UdpPacket(f.sent[0]);
  f.Run([&] {
    f.udp.Input(std::move(pkt), net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2));
  });
  EXPECT_EQ(got, "to-seven");
  EXPECT_EQ(f.udp.stats().rx_datagrams, 1u);
}

TEST(Udp, UnboundPortCounted) {
  UdpFixture f;
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(), 1,
                 net::Ipv4Address(10, 0, 0, 2), 9999, true);
  });
  auto pkt = f.UdpPacket(f.sent[0]);
  f.Run([&] {
    f.udp.Input(std::move(pkt), net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2));
  });
  EXPECT_EQ(f.udp.stats().rx_no_port, 1u);
}

TEST(Udp, CorruptedChecksumRejected) {
  UdpFixture f;
  int got = 0;
  ASSERT_TRUE(f.udp.Bind(7, [&](net::MbufPtr, const UdpDatagram&) { ++got; }));
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("abcdef"), net::Ipv4Address::Any(), 1,
                 net::Ipv4Address(10, 0, 0, 2), 7, true);
  });
  auto bytes = f.sent[0];
  bytes[20 + 8] ^= std::byte{0x01};  // flip a payload bit
  f.Run([&] {
    auto pkt = net::Mbuf::FromBytes(bytes);
    pkt->TrimFront(20);
    f.udp.Input(std::move(pkt), net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2));
  });
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.udp.stats().rx_bad_checksum, 1u);
}

TEST(Udp, CorruptedPayloadAcceptedWhenChecksumOff) {
  // The flip side of the AV optimization: without the checksum, corruption
  // is delivered — the application explicitly accepted that trade.
  UdpFixture f;
  int got = 0;
  ASSERT_TRUE(f.udp.Bind(7, [&](net::MbufPtr, const UdpDatagram&) { ++got; }));
  f.Run([&] {
    f.udp.Output(net::Mbuf::FromString("abcdef"), net::Ipv4Address::Any(), 1,
                 net::Ipv4Address(10, 0, 0, 2), 7, false);
  });
  auto bytes = f.sent[0];
  bytes[20 + 8] ^= std::byte{0x01};
  f.Run([&] {
    auto pkt = net::Mbuf::FromBytes(bytes);
    pkt->TrimFront(20);
    f.udp.Input(std::move(pkt), net::Ipv4Address(10, 0, 0, 1), net::Ipv4Address(10, 0, 0, 2));
  });
  EXPECT_EQ(got, 1);
}

TEST(Udp, TruncatedHeaderRejected) {
  UdpFixture f;
  f.Run([&] {
    f.udp.Input(net::Mbuf::Allocate(4), net::Ipv4Address(10, 0, 0, 1),
                net::Ipv4Address(10, 0, 0, 2));
  });
  EXPECT_EQ(f.udp.stats().rx_bad_header, 1u);
}

TEST(Udp, BindRejectsDuplicatePort) {
  UdpFixture f;
  EXPECT_TRUE(f.udp.Bind(7, [](net::MbufPtr, const UdpDatagram&) {}));
  EXPECT_FALSE(f.udp.Bind(7, [](net::MbufPtr, const UdpDatagram&) {}));
  f.udp.Unbind(7);
  EXPECT_TRUE(f.udp.Bind(7, [](net::MbufPtr, const UdpDatagram&) {}));
}

// --- ARP / ICMP / AM over a real link -------------------------------------------

struct LinkFixture {
  LinkFixture()
      : link(sim),
        ha(sim, "a", sim::CostModel::Default1996(), 1),
        hb(sim, "b", sim::CostModel::Default1996(), 2),
        na(ha, drivers::DeviceProfile::Ethernet10(), net::MacAddress::FromId(1)),
        nb(hb, drivers::DeviceProfile::Ethernet10(), net::MacAddress::FromId(2)),
        eth_a(ha, na),
        eth_b(hb, nb),
        arp_a(ha, eth_a, net::Ipv4Address(10, 0, 0, 1)),
        arp_b(hb, eth_b, net::Ipv4Address(10, 0, 0, 2)) {
    na.AttachMedium(&link);
    nb.AttachMedium(&link);
    // Minimal demux: route ARP frames into the ARP services.
    eth_a.SetUpcall([this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
      if (hdr.type.value() == net::ethertype::kArp) {
        frame->TrimFront(sizeof(net::EthernetHeader));
        arp_a.Input(std::move(frame));
      }
    });
    eth_b.SetUpcall([this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
      if (hdr.type.value() == net::ethertype::kArp) {
        frame->TrimFront(sizeof(net::EthernetHeader));
        arp_b.Input(std::move(frame));
      }
    });
  }

  sim::Simulator sim;
  drivers::PointToPointLink link;
  sim::Host ha, hb;
  drivers::Nic na, nb;
  proto::EthLayer eth_a, eth_b;
  ArpService arp_a, arp_b;
};

TEST(Arp, ResolveCachesAndAnswersInstantlyNextTime) {
  LinkFixture f;
  std::optional<net::MacAddress> first, second;
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.arp_a.Resolve(net::Ipv4Address(10, 0, 0, 2), [&](auto mac) { first = mac; });
  });
  f.sim.RunFor(sim::Duration::Seconds(1));
  ASSERT_TRUE(first.has_value());
  const auto requests_before = f.arp_a.stats().requests_sent;
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.arp_a.Resolve(net::Ipv4Address(10, 0, 0, 2), [&](auto mac) { second = mac; });
  });
  f.sim.RunFor(sim::Duration::Seconds(1));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(f.arp_a.stats().requests_sent, requests_before);  // cache hit
}

TEST(Arp, EntryExpiresAfterTtl) {
  LinkFixture f;
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.arp_a.Resolve(net::Ipv4Address(10, 0, 0, 2), [](auto) {});
  });
  f.sim.RunFor(sim::Duration::Seconds(1));
  ASSERT_TRUE(f.arp_a.Lookup(net::Ipv4Address(10, 0, 0, 2)).has_value());
  f.sim.RunFor(sim::Duration::Seconds(700));  // past the 600s TTL
  EXPECT_FALSE(f.arp_a.Lookup(net::Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST(Arp, RequesterLearnsFromIncomingRequest) {
  // When B asks about A, A learns B's mapping for free.
  LinkFixture f;
  f.hb.Submit(sim::Priority::kKernel, [&] {
    f.arp_b.Resolve(net::Ipv4Address(10, 0, 0, 1), [](auto) {});
  });
  f.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(f.arp_a.Lookup(net::Ipv4Address(10, 0, 0, 2)).has_value());
}

TEST(Arp, ConcurrentResolvesShareOneRequest) {
  LinkFixture f;
  int answered = 0;
  f.ha.Submit(sim::Priority::kKernel, [&] {
    for (int i = 0; i < 5; ++i) {
      f.arp_a.Resolve(net::Ipv4Address(10, 0, 0, 2), [&](auto mac) {
        if (mac) ++answered;
      });
    }
  });
  f.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(answered, 5);
  EXPECT_EQ(f.arp_a.stats().requests_sent, 1u);
}

TEST(Arp, StaticEntriesNeverExpire) {
  LinkFixture f;
  f.arp_a.AddStatic(net::Ipv4Address(10, 0, 0, 99), net::MacAddress::FromId(99));
  f.sim.RunFor(sim::Duration::Seconds(10000));
  EXPECT_TRUE(f.arp_a.Lookup(net::Ipv4Address(10, 0, 0, 99)).has_value());
}

TEST(ActiveMessages, UnknownHandlerCounted) {
  LinkFixture f;
  ActiveMessageEndpoint am_b(f.hb, f.eth_b);
  // Wire AM into b's demux.
  f.eth_b.SetUpcall([&](net::MbufPtr frame, const net::EthernetHeader& hdr) {
    if (hdr.type.value() == net::ethertype::kActiveMessage) am_b.Input(*frame);
  });
  ActiveMessageEndpoint am_a(f.ha, f.eth_a);
  f.ha.Submit(sim::Priority::kKernel,
              [&] { am_a.Send(net::MacAddress::FromId(2), /*handler_id=*/99, 0, 0); });
  f.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(am_b.stats().unknown_handler, 1u);
  EXPECT_EQ(am_b.stats().delivered, 0u);
}

TEST(ActiveMessages, PayloadDelivered) {
  LinkFixture f;
  ActiveMessageEndpoint am_b(f.hb, f.eth_b);
  f.eth_b.SetUpcall([&](net::MbufPtr frame, const net::EthernetHeader& hdr) {
    if (hdr.type.value() == net::ethertype::kActiveMessage) am_b.Input(*frame);
  });
  std::vector<std::byte> got;
  std::uint32_t a0 = 0;
  am_b.RegisterHandler(5, [&](net::MacAddress, std::uint32_t arg0, std::uint32_t,
                              std::span<const std::byte> payload) {
    a0 = arg0;
    got.assign(payload.begin(), payload.end());
  });
  ActiveMessageEndpoint am_a(f.ha, f.eth_a);
  const std::byte body[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
  f.ha.Submit(sim::Priority::kKernel,
              [&] { am_a.Send(net::MacAddress::FromId(2), 5, 1234, 0, body); });
  f.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(a0, 1234u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], std::byte{2});
}

}  // namespace
}  // namespace proto
