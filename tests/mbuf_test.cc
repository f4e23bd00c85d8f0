// Unit + property tests for the mbuf chain implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "drivers/device_profile.h"
#include "drivers/nic.h"
#include "net/mbuf.h"
#include "net/mbuf_pool.h"
#include "proto/tcp.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/slab.h"

namespace net {
namespace {

std::vector<std::byte> Pattern(std::size_t n, std::uint8_t seed = 0) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>((i + seed) & 0xff);
  return out;
}

TEST(Mbuf, AllocateSingleSegment) {
  MbufPtr m = Mbuf::Allocate(100);
  EXPECT_EQ(m->PacketLength(), 100u);
  EXPECT_EQ(m->SegmentCount(), 1u);
  EXPECT_GE(m->headroom(), Mbuf::kDefaultHeadroom);
  EXPECT_TRUE(m->CheckInvariants());
}

TEST(Mbuf, AllocateMultiSegment) {
  MbufPtr m = Mbuf::Allocate(Mbuf::kClusterSize * 2 + 500);
  EXPECT_EQ(m->PacketLength(), Mbuf::kClusterSize * 2 + 500);
  EXPECT_EQ(m->SegmentCount(), 3u);
  EXPECT_TRUE(m->CheckInvariants());
}

TEST(Mbuf, AllocateZeroLength) {
  MbufPtr m = Mbuf::Allocate(0);
  EXPECT_EQ(m->PacketLength(), 0u);
  EXPECT_TRUE(m->CheckInvariants());
}

TEST(Mbuf, FromStringRoundTrip) {
  MbufPtr m = Mbuf::FromString("hello plexus");
  EXPECT_EQ(m->ToString(), "hello plexus");
}

TEST(Mbuf, CopyInCopyOutRoundTrip) {
  auto data = Pattern(5000);
  MbufPtr m = Mbuf::FromBytes(data);
  std::vector<std::byte> out(5000);
  m->CopyOut(0, out);
  EXPECT_EQ(out, data);
  // Partial window.
  std::vector<std::byte> window(100);
  m->CopyOut(2000, window);
  EXPECT_TRUE(std::memcmp(window.data(), data.data() + 2000, 100) == 0);
}

TEST(Mbuf, CopyOutBeyondEndThrows) {
  MbufPtr m = Mbuf::Allocate(10);
  std::vector<std::byte> out(11);
  EXPECT_THROW(m->CopyOut(0, out), MbufError);
  std::vector<std::byte> out2(5);
  EXPECT_THROW(m->CopyOut(6, out2), MbufError);
}

TEST(Mbuf, PrependUsesHeadroom) {
  MbufPtr m = Mbuf::FromString("payload");
  auto hdr = m->Prepend(14);
  EXPECT_EQ(hdr.size(), 14u);
  std::memset(hdr.data(), 0xee, hdr.size());
  EXPECT_EQ(m->PacketLength(), 7u + 14u);
  auto flat = m->Linearize();
  EXPECT_EQ(static_cast<std::uint8_t>(flat[0]), 0xee);
  EXPECT_EQ(static_cast<char>(flat[14]), 'p');
}

TEST(Mbuf, PrependBeyondSpaceThrows) {
  MbufPtr m = Mbuf::Allocate(Mbuf::kClusterSize, /*headroom=*/8);
  EXPECT_THROW(m->Prepend(64), MbufError);
}

TEST(Mbuf, PrependShiftsWhenTailroomAvailable) {
  // headroom 4, but short payload leaves tailroom; Prepend(16) must shift.
  MbufPtr m = Mbuf::Allocate(10, /*headroom=*/4);
  auto data = Pattern(10);
  m->CopyIn(0, data);
  // Storage capacity is headroom + payload = 14 only; shifting can't help.
  EXPECT_THROW(m->Prepend(16), MbufError);

  // Allocate bigger storage via FromBytes with default headroom, consume
  // headroom, then rely on shift.
  MbufPtr big = Mbuf::FromBytes(data, /*headroom=*/16);
  big->Prepend(10);
  big->TrimFront(10);  // offset now 6 again? regardless, invariants hold
  EXPECT_TRUE(big->CheckInvariants());
}

TEST(Mbuf, TrimFrontWithinSegment) {
  MbufPtr m = Mbuf::FromBytes(Pattern(100));
  m->TrimFront(30);
  EXPECT_EQ(m->PacketLength(), 70u);
  auto flat = m->Linearize();
  EXPECT_EQ(static_cast<std::uint8_t>(flat[0]), 30);
}

TEST(Mbuf, TrimFrontAcrossSegments) {
  MbufPtr m = Mbuf::FromBytes(Pattern(Mbuf::kClusterSize + 100));
  m->TrimFront(Mbuf::kClusterSize + 50);
  EXPECT_EQ(m->PacketLength(), 50u);
  auto flat = m->Linearize();
  EXPECT_EQ(static_cast<std::uint8_t>(flat[0]),
            static_cast<std::uint8_t>((Mbuf::kClusterSize + 50) & 0xff));
  EXPECT_TRUE(m->CheckInvariants());
}

TEST(Mbuf, TrimFrontEntirePacket) {
  MbufPtr m = Mbuf::FromBytes(Pattern(100));
  m->TrimFront(100);
  EXPECT_EQ(m->PacketLength(), 0u);
  EXPECT_THROW(m->TrimFront(1), MbufError);
}

TEST(Mbuf, TrimBack) {
  MbufPtr m = Mbuf::FromBytes(Pattern(Mbuf::kClusterSize + 100));
  m->TrimBack(150);
  EXPECT_EQ(m->PacketLength(), Mbuf::kClusterSize - 50);
  auto flat = m->Linearize();
  EXPECT_EQ(static_cast<std::uint8_t>(flat.back()),
            static_cast<std::uint8_t>((Mbuf::kClusterSize - 51) & 0xff));
  EXPECT_TRUE(m->CheckInvariants());
}

TEST(Mbuf, TrimBackBeyondLengthThrows) {
  MbufPtr m = Mbuf::Allocate(10);
  EXPECT_THROW(m->TrimBack(11), MbufError);
}

TEST(Mbuf, PullupMakesBytesContiguous) {
  auto data = Pattern(60);
  MbufPtr m = Mbuf::FromBytes({data.data(), 20});
  m->AppendChain(Mbuf::FromBytes({data.data() + 20, 20}, 0));
  m->AppendChain(Mbuf::FromBytes({data.data() + 40, 20}, 0));
  ASSERT_EQ(m->SegmentCount(), 3u);

  m->Pullup(50);
  EXPECT_GE(m->segment_length(), 50u);
  EXPECT_EQ(m->PacketLength(), 60u);
  EXPECT_EQ(m->Linearize(), data);
}

TEST(Mbuf, PullupBeyondPacketThrows) {
  MbufPtr m = Mbuf::FromBytes(Pattern(10));
  EXPECT_THROW(m->Pullup(11), MbufError);
}

TEST(Mbuf, SplitMidSegment) {
  auto data = Pattern(100);
  MbufPtr m = Mbuf::FromBytes(data);
  MbufPtr tail = m->Split(40);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(m->PacketLength(), 40u);
  EXPECT_EQ(tail->PacketLength(), 60u);
  auto head_flat = m->Linearize();
  auto tail_flat = tail->Linearize();
  EXPECT_TRUE(std::memcmp(head_flat.data(), data.data(), 40) == 0);
  EXPECT_TRUE(std::memcmp(tail_flat.data(), data.data() + 40, 60) == 0);
}

TEST(Mbuf, SplitAtEndReturnsNull) {
  MbufPtr m = Mbuf::FromBytes(Pattern(10));
  EXPECT_EQ(m->Split(10), nullptr);
  EXPECT_THROW(m->Split(11), MbufError);
}

TEST(Mbuf, SplitAcrossChain) {
  auto data = Pattern(Mbuf::kClusterSize + 500);
  MbufPtr m = Mbuf::FromBytes(data);
  MbufPtr tail = m->Split(Mbuf::kClusterSize + 100);
  EXPECT_EQ(m->PacketLength(), Mbuf::kClusterSize + 100);
  EXPECT_EQ(tail->PacketLength(), 400u);
  std::vector<std::byte> joined = m->Linearize();
  auto t = tail->Linearize();
  joined.insert(joined.end(), t.begin(), t.end());
  EXPECT_EQ(joined, data);
}

TEST(Mbuf, ShareCloneSharesStorage) {
  MbufPtr m = Mbuf::FromString("shared data");
  MbufPtr c = m->ShareClone();
  EXPECT_TRUE(m->storage_shared());
  EXPECT_TRUE(c->storage_shared());
  EXPECT_EQ(c->ToString(), "shared data");
}

TEST(Mbuf, MutatingSharedCloneCopiesOnWrite) {
  MbufPtr m = Mbuf::FromString("original!!");
  MbufPtr c = m->ShareClone();
  // Writing through the clone must not affect the original (explicit COW).
  c->CopyIn(0, {reinterpret_cast<const std::byte*>("MODIFIED!!"), 10});
  EXPECT_EQ(c->ToString(), "MODIFIED!!");
  EXPECT_EQ(m->ToString(), "original!!");
  EXPECT_FALSE(m->storage_shared());
}

TEST(Mbuf, MutableDataTriggersCow) {
  MbufPtr m = Mbuf::FromString("abc");
  MbufPtr c = m->ShareClone();
  auto span = c->mutable_data();
  span[0] = static_cast<std::byte>('X');
  EXPECT_EQ(c->ToString(), "Xbc");
  EXPECT_EQ(m->ToString(), "abc");
}

TEST(Mbuf, DeepCopyIndependent) {
  MbufPtr m = Mbuf::FromString("dddd");
  MbufPtr d = m->DeepCopy();
  EXPECT_FALSE(d->storage_shared());
  d->CopyIn(0, {reinterpret_cast<const std::byte*>("XXXX"), 4});
  EXPECT_EQ(m->ToString(), "dddd");
}

TEST(Mbuf, PacketHeaderCopiedByClones) {
  MbufPtr m = Mbuf::FromString("x");
  m->pkthdr().rcvif = 3;
  m->pkthdr().flags = 0x5;
  EXPECT_EQ(m->ShareClone()->pkthdr().rcvif, 3);
  EXPECT_EQ(m->DeepCopy()->pkthdr().flags, 0x5u);
}

TEST(Mbuf, AppendChainLinksPackets) {
  MbufPtr a = Mbuf::FromString("front");
  a->AppendChain(Mbuf::FromString("back", 0));
  EXPECT_EQ(a->PacketLength(), 9u);
  EXPECT_EQ(a->ToString(), "frontback");
}

// Property test: a random sequence of operations never breaks invariants and
// a shadow std::vector model always agrees with the mbuf contents.
class MbufModelTest : public ::testing::TestWithParam<int> {};

TEST_P(MbufModelTest, AgreesWithShadowModel) {
  sim::Random rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  auto initial = Pattern(200, static_cast<std::uint8_t>(GetParam()));
  MbufPtr m = Mbuf::FromBytes(initial);
  std::vector<std::byte> model = initial;

  for (int step = 0; step < 60; ++step) {
    switch (rng.UniformU64(6)) {
      case 0: {  // TrimFront
        if (model.empty()) break;
        std::size_t n = rng.UniformU64(model.size()) + 1;
        m->TrimFront(n);
        model.erase(model.begin(), model.begin() + static_cast<std::ptrdiff_t>(n));
        break;
      }
      case 1: {  // TrimBack
        if (model.empty()) break;
        std::size_t n = rng.UniformU64(model.size()) + 1;
        m->TrimBack(n);
        model.resize(model.size() - n);
        break;
      }
      case 2: {  // Append
        std::size_t n = rng.UniformU64(300) + 1;
        auto extra = Pattern(n, static_cast<std::uint8_t>(step));
        m->AppendChain(Mbuf::FromBytes(extra, 0));
        model.insert(model.end(), extra.begin(), extra.end());
        break;
      }
      case 3: {  // CopyIn window
        if (model.size() < 2) break;
        std::size_t off = rng.UniformU64(model.size() - 1);
        std::size_t n = rng.UniformU64(model.size() - off) + 0;
        if (n == 0) break;
        auto patch = Pattern(n, static_cast<std::uint8_t>(0x80 + step));
        m->CopyIn(off, patch);
        std::copy(patch.begin(), patch.end(), model.begin() + static_cast<std::ptrdiff_t>(off));
        break;
      }
      case 4: {  // Pullup a prefix
        if (model.empty()) break;
        std::size_t n = std::min<std::size_t>(rng.UniformU64(model.size()) + 1, 1500);
        m->Pullup(n);
        break;
      }
      case 5: {  // Split then re-append (exercise split heavily)
        if (model.size() < 2) break;
        std::size_t at = rng.UniformU64(model.size() - 1) + 1;
        MbufPtr tail = m->Split(at);
        if (tail) m->AppendChain(std::move(tail));
        break;
      }
    }
    ASSERT_TRUE(m->CheckInvariants()) << "step " << step;
    ASSERT_EQ(m->PacketLength(), model.size()) << "step " << step;
    ASSERT_EQ(m->Linearize(), model) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomOps, MbufModelTest, ::testing::Range(0, 16));

// --- Stale bytes: the allocations that skip the zero-fill ----------------------
//
// FromBytes, the pool's TryFromBytes/TryCopy (the NIC rx refill) and TCP
// segment emission write every payload byte instead of zero-filling it
// first. Each test frees a poisoned block of the size class its allocation
// will use — slab LIFO reuse hands that very block back — and checks that
// no stale byte survives in the headroom or the live bytes. A missed write
// would otherwise leak an earlier packet's bytes onto the wire.

constexpr std::byte kPoison{0xee};

// Data that never contains kPoison.
std::vector<std::byte> CleanPattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(i % 0xe0);
  return out;
}

// Allocates a `len`-byte packet with default headroom, poisons its headroom
// and payload, and frees it. Returns where its payload began: the next
// allocation of the same shape starts there when the slabs are on.
const std::byte* FreePoisonedBlock(std::size_t len) {
  MbufPtr m = Mbuf::Allocate(len);
  const std::byte* payload = m->data().data();
  m->Prepend(m->headroom());
  for (Mbuf* s = m.get(); s != nullptr; s = s->next()) {
    const auto d = s->mutable_data();
    std::fill(d.begin(), d.end(), kPoison);
  }
  return payload;
}

void ExpectFreshBytes(const Mbuf& m, std::span<const std::byte> expected,
                      const std::byte* reused) {
  // The headroom sits just before the live bytes in the same storage block.
  const std::span<const std::byte> headroom(m.data().data() - m.headroom(), m.headroom());
  EXPECT_TRUE(std::all_of(headroom.begin(), headroom.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
  // The live bytes end with `expected` (a TCP segment leads with its header).
  const auto live = m.Linearize();
  ASSERT_GE(live.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), live.end() - expected.size()));
  // Not vacuous: the poisoned block really came back.
  if (sim::SlabConfig::enabled()) {
    EXPECT_EQ(m.data().data(), reused);
  }
}

TEST(StaleBytes, FromBytesOverwritesAReusedBlock) {
  for (const std::size_t len : {std::size_t{700}, std::size_t{9000}}) {
    SCOPED_TRACE("len " + std::to_string(len));
    const auto data = CleanPattern(len);
    const std::byte* reused = FreePoisonedBlock(len);
    MbufPtr m = Mbuf::FromBytes(data);
    // A multi-cluster chain reuses its blocks in LIFO order, so only the
    // single-segment case pins which block the head gets.
    ExpectFreshBytes(*m, data, m->next() == nullptr ? reused : m->data().data());
  }
}

TEST(StaleBytes, PoolCopiesOverwriteAReusedBlock) {
  MbufPool pool(64);
  const auto data = CleanPattern(1500);
  const std::byte* reused = FreePoisonedBlock(data.size());
  MbufPtr from = pool.TryFromBytes(data);
  ASSERT_NE(from, nullptr);
  ExpectFreshBytes(*from, data, reused);

  reused = FreePoisonedBlock(data.size());
  MbufPtr copy = pool.TryCopy(*from);
  ASSERT_NE(copy, nullptr);
  ExpectFreshBytes(*copy, data, reused);
}

TEST(StaleBytes, NicRxRefillOverwritesAReusedBlock) {
  sim::Simulator sim;
  sim::Host host(sim, "rx", sim::CostModel::Default1996(), 1);
  MbufPool pool(64);
  host.set_mbuf_pool(&pool);
  {
    drivers::Nic nic(host, drivers::DeviceProfile::Ethernet10(), MacAddress::FromId(2));
    MbufPtr delivered;
    nic.SetReceiveCallback([&](MbufPtr m) { delivered = std::move(m); });
    const auto frame = CleanPattern(1000);
    MbufPtr wire = Mbuf::FromBytes(frame);
    const std::byte* reused = FreePoisonedBlock(frame.size());
    nic.DeliverFromWire(std::move(wire), /*check_address=*/false);
    sim.RunFor(sim::Duration::Millis(10));
    ASSERT_NE(delivered, nullptr);
    ExpectFreshBytes(*delivered, frame, reused);
  }
  host.set_mbuf_pool(nullptr);
}

TEST(StaleBytes, TcpDataSegmentOverwritesAReusedBlock) {
  sim::Simulator sim;
  sim::Host host(sim, "tx", sim::CostModel::Default1996(), 1);
  MbufPtr emitted;
  proto::TcpConnection::Callbacks cbs;
  cbs.send_segment = [&](MbufPtr m, Ipv4Address, Ipv4Address) { emitted = std::move(m); };
  proto::TcpConnection conn(host, proto::TcpConfig{},
                            {Ipv4Address(10, 0, 0, 1), 1000, Ipv4Address(10, 0, 0, 2), 80},
                            std::move(cbs));
  const auto payload = CleanPattern(1000);
  const std::byte* reused = nullptr;
  host.Submit(sim::Priority::kKernel, [&] {
    conn.Listen();
    conn.CompleteFromSynCookie(/*iss=*/5000, /*irs=*/9000, /*snd_wnd=*/65535, /*peer_mss=*/0);
    reused = FreePoisonedBlock(sizeof(TcpHeader) + payload.size());
    EXPECT_EQ(conn.Send(payload), payload.size());
  });
  sim.RunFor(sim::Duration::Millis(1));
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->PacketLength(), sizeof(TcpHeader) + payload.size());
  ExpectFreshBytes(*emitted, payload, reused);
}

}  // namespace
}  // namespace net
