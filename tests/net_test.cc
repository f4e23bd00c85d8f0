// Unit tests for byte order, checksum, addresses, headers, and View.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "net/address.h"
#include "net/byte_order.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/view.h"

namespace net {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(ByteOrder, BigEndian16RoundTrip) {
  BigEndian16 v(0x1234);
  EXPECT_EQ(v.value(), 0x1234);
  std::uint8_t raw[2];
  std::memcpy(raw, &v, 2);
  EXPECT_EQ(raw[0], 0x12);
  EXPECT_EQ(raw[1], 0x34);
}

TEST(ByteOrder, BigEndian32RoundTrip) {
  BigEndian32 v(0xdeadbeef);
  EXPECT_EQ(v.value(), 0xdeadbeefu);
  std::uint8_t raw[4];
  std::memcpy(raw, &v, 4);
  EXPECT_EQ(raw[0], 0xde);
  EXPECT_EQ(raw[1], 0xad);
  EXPECT_EQ(raw[2], 0xbe);
  EXPECT_EQ(raw[3], 0xef);
}

TEST(Checksum, Rfc1071ReferenceVector) {
  // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
  auto data = Bytes({0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7});
  EXPECT_EQ(Checksum(data), 0x220d);
}

TEST(Checksum, ZeroBufferChecksumIsAllOnes) {
  auto data = Bytes({0, 0, 0, 0});
  EXPECT_EQ(Checksum(data), 0xffff);
}

TEST(Checksum, VerifyingIncludingChecksumFieldYieldsZero) {
  // Insert the checksum into the data; re-sum must give 0.
  auto data = Bytes({0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00,
                     0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02});
  std::uint16_t sum = Checksum(data);
  data[10] = static_cast<std::byte>(sum >> 8);
  data[11] = static_cast<std::byte>(sum & 0xff);
  InternetChecksum c;
  c.Add(data);
  EXPECT_EQ(c.Finish(), 0);
}

TEST(Checksum, IncrementalMatchesOneShot) {
  auto data = Bytes({1, 2, 3, 4, 5, 6, 7, 8, 9});
  InternetChecksum inc;
  inc.Add({data.data(), 3});   // odd split mid-stream
  inc.Add({data.data() + 3, 4});
  inc.Add({data.data() + 7, 2});
  EXPECT_EQ(inc.Finish(), Checksum(data));
}

TEST(Checksum, OddLengthTail) {
  auto data = Bytes({0xab});
  EXPECT_EQ(Checksum(data), static_cast<std::uint16_t>(~0xab00 & 0xffff));
}

TEST(Checksum, AdjustMatchesRecompute) {
  auto data = Bytes({0x11, 0x22, 0x33, 0x44, 0x55, 0x66});
  std::uint16_t old_sum = Checksum(data);
  // Change the 16-bit field at offset 2 from 0x3344 to 0x9abc.
  std::uint16_t adjusted = ChecksumAdjust(old_sum, 0x3344, 0x9abc);
  data[2] = static_cast<std::byte>(0x9a);
  data[3] = static_cast<std::byte>(0xbc);
  EXPECT_EQ(adjusted, Checksum(data));
}

class ChecksumPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChecksumPropertyTest, SplitInvariance) {
  // Property: checksum of a buffer equals checksum of any 3-way split fed
  // incrementally.
  const int seed = GetParam();
  std::vector<std::byte> data(static_cast<std::size_t>(17 + seed * 13));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 31 + seed * 7) & 0xff);
  }
  const std::size_t a = data.size() / 3, b = 2 * data.size() / 3;
  InternetChecksum inc;
  inc.Add({data.data(), a});
  inc.Add({data.data() + a, b - a});
  inc.Add({data.data() + b, data.size() - b});
  EXPECT_EQ(inc.Finish(), Checksum(data));
}

INSTANTIATE_TEST_SUITE_P(Splits, ChecksumPropertyTest, ::testing::Range(0, 24));

// The RFC 1071 definition, one big-endian byte pair at a time: the oracle
// the wide kernel must match bit for bit.
std::uint16_t BytePairChecksum(std::span<const std::byte> bytes) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    sum += (std::to_integer<std::uint64_t>(bytes[i]) << 8) |
           std::to_integer<std::uint64_t>(bytes[i + 1]);
  }
  if (i < bytes.size()) sum += std::to_integer<std::uint64_t>(bytes[i]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

// Feeds `bytes` to the kernel in runs cut at up to four random points.
std::uint16_t KernelChecksum(std::span<const std::byte> bytes, std::mt19937_64& rng) {
  std::vector<std::size_t> cuts(rng() % 5);
  for (auto& c : cuts) c = bytes.size() == 0 ? 0 : rng() % (bytes.size() + 1);
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(bytes.size());
  InternetChecksum sum;
  std::size_t at = 0;
  for (std::size_t c : cuts) {
    sum.Add(bytes.subspan(at, c - at));
    at = c;
  }
  return sum.Finish();
}

TEST(Checksum, KernelMatchesBytePairOracle) {
  // Every length up to a jumbo ATM frame, at every start offset mod 8, cut
  // into runs at random (odd and even) points — plus all-0x00 and all-0xff
  // buffers, the two 1s-complement zeros.
  constexpr std::size_t kMaxLen = 9200;
  std::mt19937_64 rng(1071);
  std::vector<std::byte> random(kMaxLen + 8);
  for (auto& b : random) b = static_cast<std::byte>(rng());
  const std::vector<std::byte> zeros(kMaxLen + 8, std::byte{0x00});
  const std::vector<std::byte> ones(kMaxLen + 8, std::byte{0xff});
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::span<const std::byte> s(random.data() + off, len);
      ASSERT_EQ(KernelChecksum(s, rng), BytePairChecksum(s)) << "len " << len << " off " << off;
    }
    for (const auto* fill : {&zeros, &ones}) {
      const std::span<const std::byte> s(fill->data() + len % 8, len);
      ASSERT_EQ(KernelChecksum(s, rng), BytePairChecksum(s))
          << "len " << len << " fill " << std::to_integer<int>((*fill)[0]);
    }
  }
}

TEST(MacAddress, ParseAndPrint) {
  auto m = MacAddress::Parse("02:00:00:00:00:2a");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ToString(), "02:00:00:00:00:2a");
  EXPECT_EQ(*m, MacAddress::FromId(42));
}

TEST(MacAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(MacAddress::Parse("").has_value());
  EXPECT_FALSE(MacAddress::Parse("02:00:00:00:00").has_value());
  EXPECT_FALSE(MacAddress::Parse("02:00:00:00:00:2a:ff").has_value());
  EXPECT_FALSE(MacAddress::Parse("zz:00:00:00:00:2a").has_value());
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::Broadcast().IsBroadcast());
  EXPECT_TRUE(MacAddress::Broadcast().IsMulticast());
  EXPECT_FALSE(MacAddress::FromId(1).IsBroadcast());
  EXPECT_FALSE(MacAddress::FromId(1).IsMulticast());
}

TEST(Ipv4Address, ParseAndPrint) {
  auto a = Ipv4Address::Parse("10.1.2.3");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->ToString(), "10.1.2.3");
  EXPECT_EQ(a->value(), 0x0a010203u);
  EXPECT_EQ(*a, Ipv4Address(10, 1, 2, 3));
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2.256").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("10.1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::Parse("a.b.c.d").has_value());
}

TEST(Ipv4Address, SubnetMembership) {
  Ipv4Address net(10, 0, 0, 0);
  EXPECT_TRUE(Ipv4Address(10, 0, 0, 5).InSubnet(net, 8));
  EXPECT_FALSE(Ipv4Address(11, 0, 0, 5).InSubnet(net, 8));
  EXPECT_TRUE(Ipv4Address(192, 168, 1, 7).InSubnet(Ipv4Address(192, 168, 1, 0), 24));
  EXPECT_FALSE(Ipv4Address(192, 168, 2, 7).InSubnet(Ipv4Address(192, 168, 1, 0), 24));
  EXPECT_TRUE(Ipv4Address(1, 2, 3, 4).InSubnet(net, 0));  // default route
}

TEST(Headers, SizesMatchWireFormats) {
  EXPECT_EQ(sizeof(EthernetHeader), 14u);
  EXPECT_EQ(sizeof(ArpPacket), 28u);
  EXPECT_EQ(sizeof(Ipv4Header), 20u);
  EXPECT_EQ(sizeof(IcmpHeader), 8u);
  EXPECT_EQ(sizeof(UdpHeader), 8u);
  EXPECT_EQ(sizeof(TcpHeader), 20u);
  EXPECT_EQ(sizeof(ActiveMessageHeader), 12u);
}

TEST(Headers, Ipv4FieldHelpers) {
  Ipv4Header h;
  EXPECT_EQ(h.version(), 4);
  EXPECT_EQ(h.header_length(), 20u);
  h.set_fragment(1480, true);
  EXPECT_TRUE(h.more_fragments());
  EXPECT_EQ(h.fragment_offset_bytes(), 1480u);
  h.set_fragment(2960, false);
  EXPECT_FALSE(h.more_fragments());
  EXPECT_EQ(h.fragment_offset_bytes(), 2960u);
}

TEST(Headers, TcpHeaderLength) {
  TcpHeader h;
  EXPECT_EQ(h.header_length(), 20u);
  h.set_header_length(24);
  EXPECT_EQ(h.header_length(), 24u);
}

TEST(View, ReadsHeaderFromBytes) {
  // Build an Ethernet header by hand and view it.
  std::vector<std::byte> frame(20);
  MacAddress dst = MacAddress::Broadcast();
  MacAddress src = MacAddress::FromId(7);
  std::memcpy(frame.data(), dst.bytes().data(), 6);
  std::memcpy(frame.data() + 6, src.bytes().data(), 6);
  frame[12] = static_cast<std::byte>(0x08);
  frame[13] = static_cast<std::byte>(0x00);

  auto h = View<EthernetHeader>(frame);
  EXPECT_EQ(h.dst, dst);
  EXPECT_EQ(h.src, src);
  EXPECT_EQ(h.type.value(), ethertype::kIpv4);
}

TEST(View, ThrowsOnShortBuffer) {
  std::vector<std::byte> small(10);
  EXPECT_THROW(View<EthernetHeader>(small), ViewError);
  EXPECT_THROW(View<Ipv4Header>(small), ViewError);
}

TEST(View, OffsetBeyondEndThrows) {
  std::vector<std::byte> buf(20);
  EXPECT_THROW(View<EthernetHeader>(buf, 8), ViewError);
  EXPECT_NO_THROW(View<EthernetHeader>(buf, 6));
}

TEST(View, StoreThenViewRoundTrips) {
  std::vector<std::byte> buf(sizeof(Ipv4Header));
  Ipv4Header h;
  h.total_length = 1234;
  h.ttl = 17;
  h.protocol = ipproto::kUdp;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  Store(buf, h);
  auto back = View<Ipv4Header>(buf);
  EXPECT_EQ(back.total_length.value(), 1234);
  EXPECT_EQ(back.ttl, 17);
  EXPECT_EQ(back.protocol, ipproto::kUdp);
  EXPECT_EQ(back.src, h.src);
  EXPECT_EQ(back.dst, h.dst);
}

TEST(View, PacketViewAcrossSegments) {
  // Force a header to straddle two mbuf segments; ViewPacket must still
  // read it correctly.
  std::vector<std::byte> part1(10), part2(10);
  Ipv4Header h;
  h.ttl = 99;
  h.src = Ipv4Address(1, 2, 3, 4);
  h.dst = Ipv4Address(5, 6, 7, 8);
  std::byte flat[20];
  std::memcpy(flat, &h, 20);
  std::memcpy(part1.data(), flat, 10);
  std::memcpy(part2.data(), flat + 10, 10);

  MbufPtr m = Mbuf::FromBytes(part1);
  m->AppendChain(Mbuf::FromBytes(part2, 0));
  ASSERT_EQ(m->PacketLength(), 20u);

  auto back = ViewPacket<Ipv4Header>(*m);
  EXPECT_EQ(back.ttl, 99);
  EXPECT_EQ(back.src, h.src);
  EXPECT_EQ(back.dst, h.dst);
}

TEST(View, PacketViewTooShortThrows) {
  MbufPtr m = Mbuf::FromString("hi");
  EXPECT_THROW(ViewPacket<Ipv4Header>(*m), ViewError);
}

}  // namespace
}  // namespace net
