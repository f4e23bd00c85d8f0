// Unit tests for the IPv4 layer: routing, output/fragmentation, input
// validation, reassembly (ordering, overlap, timeout), TTL and forwarding.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/checksum.h"
#include "net/view.h"
#include "proto/ip.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/random.h"

namespace proto {
namespace {

TEST(RoutingTable, LongestPrefixMatchWins) {
  RoutingTable rt;
  rt.AddDefault(net::Ipv4Address(10, 0, 0, 254));
  rt.Add(net::Ipv4Address(10, 0, 0, 0), 8, net::Ipv4Address(10, 0, 0, 1));
  rt.Add(net::Ipv4Address(10, 1, 0, 0), 16, net::Ipv4Address(10, 0, 0, 2));
  rt.Add(net::Ipv4Address(10, 1, 2, 0), 24);  // on-link

  EXPECT_EQ(rt.Lookup(net::Ipv4Address(10, 1, 2, 3))->prefix_len, 24);
  EXPECT_EQ(rt.Lookup(net::Ipv4Address(10, 1, 9, 9))->next_hop, net::Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(rt.Lookup(net::Ipv4Address(10, 9, 9, 9))->next_hop, net::Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(rt.Lookup(net::Ipv4Address(192, 168, 1, 1))->next_hop,
            net::Ipv4Address(10, 0, 0, 254));
}

TEST(RoutingTable, EmptyTableHasNoRoute) {
  RoutingTable rt;
  EXPECT_FALSE(rt.Lookup(net::Ipv4Address(1, 2, 3, 4)).has_value());
}

// A loopback harness: one Ipv4Layer whose transmit is captured; packets can
// be re-injected into a second layer's Input.
struct IpFixture {
  IpFixture()
      : host(sim, "h", sim::CostModel::Default1996()),
        tx_layer(host, {net::Ipv4Address(10, 0, 0, 1), 24, 1500}),
        rx_layer(host, {net::Ipv4Address(10, 0, 0, 2), 24, 1500}) {
    tx_layer.SetTransmit([this](net::MbufPtr p, net::Ipv4Address next_hop, int) {
      sent.push_back(p->Linearize());
      next_hops.push_back(next_hop);
    });
    rx_layer.SetDeliver([this](net::MbufPtr p, const net::Ipv4Header& hdr) {
      delivered.push_back(p->Linearize());
      delivered_hdrs.push_back(hdr);
    });
  }

  // Runs fn inside a CPU task (protocol code requires task context).
  // Bounded horizon so pending long timers (reassembly) stay pending.
  void Run(std::function<void()> fn) {
    host.Submit(sim::Priority::kKernel, std::move(fn));
    sim.RunFor(sim::Duration::Seconds(1));
  }

  // Feeds every captured tx packet into the receive layer.
  void DeliverAll() {
    auto batch = std::move(sent);
    sent.clear();
    for (auto& bytes : batch) {
      host.Submit(sim::Priority::kKernel,
                  [this, b = std::move(bytes)] { rx_layer.Input(net::Mbuf::FromBytes(b)); });
    }
    sim.RunFor(sim::Duration::Seconds(1));
  }

  sim::Simulator sim;
  sim::Host host;
  Ipv4Layer tx_layer;
  Ipv4Layer rx_layer;
  std::vector<std::vector<std::byte>> sent;
  std::vector<net::Ipv4Address> next_hops;
  std::vector<std::vector<std::byte>> delivered;
  std::vector<net::Ipv4Header> delivered_hdrs;
};

std::vector<std::byte> Payload(std::size_t n, std::uint8_t seed = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>((i * 3 + seed) & 0xff);
  return out;
}

TEST(Ipv4, OutputBuildsValidHeader) {
  IpFixture f;
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("data"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  ASSERT_EQ(f.sent.size(), 1u);
  auto hdr = net::View<net::Ipv4Header>(f.sent[0]);
  EXPECT_EQ(hdr.version(), 4);
  EXPECT_EQ(hdr.src, net::Ipv4Address(10, 0, 0, 1));  // filled from config
  EXPECT_EQ(hdr.dst, net::Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(hdr.protocol, net::ipproto::kUdp);
  EXPECT_EQ(hdr.total_length.value(), 24);
  EXPECT_EQ(net::Checksum({f.sent[0].data(), 20}), 0);  // header sums to zero
  EXPECT_EQ(f.next_hops[0], net::Ipv4Address(10, 0, 0, 2));  // on-link
}

TEST(Ipv4, OutputUsesGatewayForOffLinkDestinations) {
  IpFixture f;
  f.tx_layer.routes().AddDefault(net::Ipv4Address(10, 0, 0, 254));
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(192, 168, 7, 7), net::ipproto::kUdp);
  });
  ASSERT_EQ(f.next_hops.size(), 1u);
  EXPECT_EQ(f.next_hops[0], net::Ipv4Address(10, 0, 0, 254));
}

TEST(Ipv4, NoRouteCountsAndDrops) {
  IpFixture f;
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(192, 168, 7, 7), net::ipproto::kUdp);
  });
  EXPECT_TRUE(f.sent.empty());
  EXPECT_EQ(f.tx_layer.stats().no_route, 1u);
}

TEST(Ipv4, RoundTripDelivery) {
  IpFixture f;
  auto data = Payload(100);
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromBytes(data), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  f.DeliverAll();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0], data);
  EXPECT_EQ(f.delivered_hdrs[0].src, net::Ipv4Address(10, 0, 0, 1));
}

TEST(Ipv4, FragmentsLargePayloadAndReassembles) {
  IpFixture f;
  auto data = Payload(4000);
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromBytes(data), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  EXPECT_EQ(f.sent.size(), 3u);  // 1480 + 1480 + 1040
  EXPECT_EQ(f.tx_layer.stats().tx_fragments, 3u);
  // Fragment offsets are multiples of 8; all but the last have MF set.
  for (std::size_t i = 0; i < f.sent.size(); ++i) {
    auto hdr = net::View<net::Ipv4Header>(f.sent[i]);
    EXPECT_EQ(hdr.fragment_offset_bytes() % 8, 0u);
    EXPECT_EQ(hdr.more_fragments(), i + 1 < f.sent.size());
  }
  f.DeliverAll();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0], data);
  EXPECT_EQ(f.rx_layer.stats().reassembled, 1u);
}

TEST(Ipv4, ReassemblyHandlesArbitraryFragmentOrder) {
  // Property-style: deliver fragments in random permutations; the payload
  // must always reassemble exactly.
  for (int seed = 0; seed < 8; ++seed) {
    IpFixture f;
    auto data = Payload(6000, static_cast<std::uint8_t>(seed));
    f.Run([&] {
      f.tx_layer.Output(net::Mbuf::FromBytes(data), net::Ipv4Address::Any(),
                        net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
    });
    ASSERT_GE(f.sent.size(), 4u);
    // Shuffle.
    sim::Random rng(static_cast<std::uint64_t>(seed) + 1);
    for (std::size_t i = f.sent.size(); i > 1; --i) {
      std::swap(f.sent[i - 1], f.sent[rng.UniformU64(i)]);
    }
    f.DeliverAll();
    ASSERT_EQ(f.delivered.size(), 1u) << "seed " << seed;
    EXPECT_EQ(f.delivered[0], data) << "seed " << seed;
  }
}

TEST(Ipv4, DuplicateFragmentsNeverCorrupt) {
  // IP provides no duplicate suppression (that is the transport's job): a
  // fully duplicated fragment set may reassemble twice, but every delivered
  // datagram must be byte-exact.
  IpFixture f;
  auto data = Payload(3000);
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromBytes(data), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  auto copy = f.sent;  // duplicate every fragment
  f.sent.insert(f.sent.end(), copy.begin(), copy.end());
  f.DeliverAll();
  ASSERT_GE(f.delivered.size(), 1u);
  for (const auto& d : f.delivered) EXPECT_EQ(d, data);
}

TEST(Ipv4, IncompleteReassemblyTimesOut) {
  IpFixture f;
  auto data = Payload(4000);
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromBytes(data), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  f.sent.pop_back();  // lose the last fragment
  f.DeliverAll();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.rx_layer.pending_reassemblies(), 1u);
  f.sim.RunFor(sim::Duration::Seconds(60));
  EXPECT_EQ(f.rx_layer.pending_reassemblies(), 0u);
  EXPECT_EQ(f.rx_layer.stats().reassembly_timeouts, 1u);
}

TEST(Ipv4, CorruptedChecksumRejected) {
  IpFixture f;
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  f.sent[0][8] ^= std::byte{0xff};  // flip the TTL without fixing the sum
  f.DeliverAll();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.rx_layer.stats().rx_bad_checksum, 1u);
}

TEST(Ipv4, TruncatedPacketRejected) {
  IpFixture f;
  f.Run([&] { f.rx_layer.Input(net::Mbuf::Allocate(10)); });
  EXPECT_EQ(f.rx_layer.stats().rx_bad_header, 1u);
}

TEST(Ipv4, NotForUsIsIgnoredUnlessForwarding) {
  IpFixture f;
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 99), net::ipproto::kUdp);
  });
  // rx_layer (10.0.0.2) receives a packet for 10.0.0.99.
  f.DeliverAll();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.rx_layer.stats().forwarded, 0u);
}

TEST(Ipv4, ForwardingDecrementsTtlAndPatchesChecksum) {
  IpFixture f;
  f.rx_layer.set_forwarding(true);
  std::vector<std::vector<std::byte>> forwarded;
  f.rx_layer.SetTransmit([&](net::MbufPtr p, net::Ipv4Address, int) {
    forwarded.push_back(p->Linearize());
  });
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 99), net::ipproto::kUdp, /*ttl=*/7);
  });
  f.DeliverAll();
  ASSERT_EQ(forwarded.size(), 1u);
  auto hdr = net::View<net::Ipv4Header>(forwarded[0]);
  EXPECT_EQ(hdr.ttl, 6);
  // The incrementally updated checksum must still validate.
  EXPECT_EQ(net::Checksum({forwarded[0].data(), 20}), 0);
  EXPECT_EQ(f.rx_layer.stats().forwarded, 1u);
}

TEST(Ipv4, ForwardingTtlExpiryTriggersIcmpNotify) {
  IpFixture f;
  f.rx_layer.set_forwarding(true);
  f.rx_layer.SetTransmit([](net::MbufPtr, net::Ipv4Address, int) {});
  int notified = 0;
  std::uint8_t icmp_type = 0;
  f.rx_layer.SetIcmpNotify([&](const net::Ipv4Header&, std::uint8_t type, std::uint8_t) {
    ++notified;
    icmp_type = type;
  });
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("x"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 99), net::ipproto::kUdp, /*ttl=*/1);
  });
  f.DeliverAll();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(icmp_type, net::icmptype::kTimeExceeded);
  EXPECT_EQ(f.rx_layer.stats().ttl_exceeded, 1u);
}

TEST(Ipv4, LinkPaddingTrimmedBeforeDelivery) {
  IpFixture f;
  f.Run([&] {
    f.tx_layer.Output(net::Mbuf::FromString("tiny"), net::Ipv4Address::Any(),
                      net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  // Simulate Ethernet min-frame padding appended below IP.
  auto padded = f.sent[0];
  padded.resize(60);
  f.sent[0] = padded;
  f.DeliverAll();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].size(), 4u);  // "tiny", padding gone
}

}  // namespace
}  // namespace proto
