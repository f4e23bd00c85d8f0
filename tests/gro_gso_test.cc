// GRO coalescing boundaries and GSO split correctness (tier 1).
//
// GroEngine is exercised standalone with hand-built segments: the coalesce
// boundary table (flag changes, options, seq gaps, window updates, the
// max-merge cap), checksum validity of merged chains, and trace-id
// propagation through a merge. A chain flushes only at one of these
// boundaries or at FlushAll (burst end). GSO is exercised
// over a two-connection software pipe: an oversized send must reach the
// wire as the same MSS-sized frames the per-packet path emits — same
// boundaries, PSH placement, and per-frame checksums — while the jumbo
// counter advances only when batching is on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "batch_mode.h"
#include "net_harness.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/view.h"
#include "proto/gro.h"
#include "proto/tcp.h"
#include "proto/transport_checksum.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace proto {
namespace {

const net::Ipv4Address kSrc(10, 0, 0, 1);
const net::Ipv4Address kDst(10, 0, 0, 2);

// A TCP segment as TcpDemux would see it: header + payload, checksum valid.
net::MbufPtr MakeSeg(std::uint32_t seq, std::string_view payload,
                     std::uint8_t flags = net::tcpflag::kAck,
                     std::uint32_t ack = 500, std::uint16_t window = 4096,
                     std::size_t header_len = sizeof(net::TcpHeader),
                     std::uint16_t src_port = 1000, std::uint16_t dst_port = 80) {
  auto m = net::Mbuf::Allocate(header_len + payload.size());
  net::TcpHeader hdr;
  hdr.src_port = src_port;
  hdr.dst_port = dst_port;
  hdr.seq = seq;
  hdr.ack = ack;
  hdr.set_header_length(header_len);
  hdr.flags = flags;
  hdr.window = window;
  hdr.checksum = 0;
  net::StorePacket(*m, hdr);
  if (!payload.empty()) {
    m->CopyIn(header_len, {reinterpret_cast<const std::byte*>(payload.data()),
                           payload.size()});
  }
  hdr.checksum = TransportChecksum(kSrc, kDst, net::ipproto::kTcp, *m);
  net::StorePacket(*m, hdr);
  return m;
}

bool ChecksumValid(const net::Mbuf& seg) {
  auto hdr = net::ViewPacket<net::TcpHeader>(seg);
  const std::uint16_t stored = hdr.checksum.value();
  auto copy = seg.Linearize();
  auto m = net::Mbuf::FromBytes(copy);
  hdr.checksum = 0;
  net::StorePacket(*m, hdr);
  return TransportChecksum(kSrc, kDst, net::ipproto::kTcp, *m) == stored;
}

struct Delivered {
  net::MbufPtr seg;
  net::Ipv4Address src, dst;
};

struct GroFixture {
  GroFixture() : GroFixture(GroEngine::Config{}) {}
  explicit GroFixture(GroEngine::Config cfg)
      : host(sim, "h", sim::CostModel::Default1996(), 1),
        gro(host,
            [this](net::MbufPtr m, net::Ipv4Address s, net::Ipv4Address d) {
              out.push_back({std::move(m), s, d});
            },
            cfg) {}

  std::string PayloadOf(std::size_t i) const {
    auto hdr = net::ViewPacket<net::TcpHeader>(*out[i].seg);
    auto bytes = out[i].seg->Linearize();
    return std::string(reinterpret_cast<const char*>(bytes.data()) + hdr.header_length(),
                       bytes.size() - hdr.header_length());
  }

  sim::Simulator sim;
  sim::Host host;
  std::vector<Delivered> out;
  GroEngine gro;
};

TEST(Gro, MergesConsecutiveInOrderPureDataSegments) {
  GroFixture f;
  f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
  f.gro.Push(MakeSeg(104, "bbbb"), kSrc, kDst);
  f.gro.Push(MakeSeg(108, "cc"), kSrc, kDst);
  EXPECT_TRUE(f.gro.holding());
  EXPECT_TRUE(f.out.empty());
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  auto hdr = net::ViewPacket<net::TcpHeader>(*f.out[0].seg);
  EXPECT_EQ(hdr.seq.value(), 100u);
  EXPECT_EQ(f.PayloadOf(0), "aaaabbbbcc");
  EXPECT_TRUE(ChecksumValid(*f.out[0].seg));
  EXPECT_EQ(f.gro.stats().pushed, 3u);
  EXPECT_EQ(f.gro.stats().merged, 2u);
  EXPECT_EQ(f.gro.stats().flushes, 1u);
  EXPECT_EQ(f.gro.stats().passthrough, 0u);
}

// The boundary table: each row is a second segment that must NOT fold into
// a held chain started by seg(100, "aaaa"). Rows marked passthrough bypass
// coalescing entirely (the held chain flushes first, order preserved);
// the others start a fresh chain.
struct BoundaryCase {
  const char* name;
  net::MbufPtr (*make)();
  bool passthrough;  // vs. starts a new chain
};

TEST(Gro, BoundaryTable) {
  const BoundaryCase kCases[] = {
      {"psh_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kPsh); },
       true},
      {"fin_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kFin); },
       true},
      {"rst_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kRst); }, true},
      {"urg_flag", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck | net::tcpflag::kUrg); },
       true},
      {"bare_ack", [] { return MakeSeg(104, ""); }, true},
      {"options", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 4096,
                                      sizeof(net::TcpHeader) + 4); },
       true},
      {"seq_gap", [] { return MakeSeg(200, "bbbb"); }, false},
      {"seq_overlap", [] { return MakeSeg(102, "bbbb"); }, false},
      {"ack_advance", [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 501); }, false},
      {"window_update",
       [] { return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 2048); }, false},
      {"other_flow",
       [] {
         return MakeSeg(104, "bbbb", net::tcpflag::kAck, 500, 4096,
                        sizeof(net::TcpHeader), 1001);
       },
       false},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    GroFixture f;
    f.gro.Push(MakeSeg(100, "aaaa"), kSrc, kDst);
    f.gro.Push(c.make(), kSrc, kDst);
    // The held chain flushed un-merged; the boundary segment either went
    // straight through (2 deliveries) or is now the held chain (1).
    ASSERT_GE(f.out.size(), 1u);
    EXPECT_EQ(f.PayloadOf(0), "aaaa");
    EXPECT_EQ(f.gro.stats().merged, 0u);
    if (c.passthrough) {
      ASSERT_EQ(f.out.size(), 2u);
      EXPECT_EQ(f.gro.stats().passthrough, 1u);
      EXPECT_FALSE(f.gro.holding());
    } else {
      EXPECT_EQ(f.out.size(), 1u);
      EXPECT_TRUE(f.gro.holding());
    }
  }
}

TEST(Gro, MaxMergeCapStartsANewChain) {
  GroEngine::Config cfg;
  cfg.max_merge = 2;
  GroFixture f(cfg);
  f.gro.Push(MakeSeg(100, "aa"), kSrc, kDst);
  f.gro.Push(MakeSeg(102, "bb"), kSrc, kDst);  // merged: chain is at cap
  f.gro.Push(MakeSeg(104, "cc"), kSrc, kDst);  // cap: flush + new chain
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.PayloadOf(0), "aabb");
  EXPECT_TRUE(f.gro.holding());
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 2u);
  EXPECT_EQ(f.PayloadOf(1), "cc");
}

TEST(Gro, MergeKeepsTheHeadSegmentsTraceId) {
  GroFixture f;
  auto first = MakeSeg(100, "aaaa");
  first->pkthdr().trace_id = 77;
  auto second = MakeSeg(104, "bbbb");
  second->pkthdr().trace_id = 78;
  f.gro.Push(std::move(first), kSrc, kDst);
  f.gro.Push(std::move(second), kSrc, kDst);
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0].seg->pkthdr().trace_id, 77u);
}

TEST(Gro, SingleSegmentFlushIsUntouched) {
  GroFixture f;
  auto seg = MakeSeg(100, "aaaa");
  const auto before = seg->Linearize();
  f.gro.Push(std::move(seg), kSrc, kDst);
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.out[0].seg->Linearize(), before);  // checksum not rewritten
}

// The merged checksum is derived from the constituents' own checksum
// fields, never by re-scanning the chain. Odd-length payloads put later
// constituents at odd offsets, where their sums enter byte-swapped.
TEST(Gro, DerivedChecksumMatchesAFullRescanWithOddLengths) {
  GroFixture f;
  f.gro.Push(MakeSeg(100, "aaa"), kSrc, kDst);
  f.gro.Push(MakeSeg(103, "bbbbb"), kSrc, kDst);
  f.gro.Push(MakeSeg(108, "c"), kSrc, kDst);
  f.gro.Push(MakeSeg(109, "\xff\x01\xfe"), kSrc, kDst);
  f.gro.FlushAll();
  ASSERT_EQ(f.out.size(), 1u);
  EXPECT_EQ(f.gro.stats().merged, 3u);
  EXPECT_EQ(f.PayloadOf(0), "aaabbbbbc\xff\x01\xfe");
  EXPECT_TRUE(ChecksumValid(*f.out[0].seg));  // the rescan's field, bit for bit
}

// A constituent whose bytes disagree with its own checksum must poison the
// merged segment, not be laundered into a valid one — wherever it sits in
// the chain and whatever its offset parity.
TEST(Gro, CorruptedConstituentFailsVerificationAfterMerge) {
  for (std::size_t bad = 0; bad < 3; ++bad) {
    SCOPED_TRACE("corrupted constituent " + std::to_string(bad));
    GroFixture f;
    const std::pair<std::uint32_t, std::string_view> segs[] = {
        {100, "aaa"}, {103, "bbbbb"}, {108, "cccc"}};
    for (std::size_t i = 0; i < 3; ++i) {
      auto seg = MakeSeg(segs[i].first, segs[i].second);
      if (i == bad) {
        const std::byte flipped{0x5a};
        seg->CopyIn(sizeof(net::TcpHeader) + 1, {&flipped, 1});
      }
      f.gro.Push(std::move(seg), kSrc, kDst);
    }
    f.gro.FlushAll();
    ASSERT_EQ(f.out.size(), 1u);
    EXPECT_EQ(f.gro.stats().merged, 2u);
    EXPECT_NE(TransportChecksum(kSrc, kDst, net::ipproto::kTcp, *f.out[0].seg), 0);
  }
}

// --- GSO: split at the emission edge -------------------------------------------

// One client-emitted wire frame, as the pipe's tap recorded it.
struct Frame {
  net::TcpHeader hdr;
  std::size_t payload_len;
  bool checksum_ok;
};

// Connects over a harness pipe whose tap records every client frame, then
// sends `data` from the client. Returns the client's data frames (payload >
// 0) in emission order.
std::vector<Frame> Transfer(harness::TcpPipe& pipe, TcpConfig cfg, const std::string& data) {
  std::vector<Frame> frames;
  pipe.tap = [&frames](harness::TcpPipe::Segment& s) {
    if (!s.from_client) return true;
    auto copy = net::Mbuf::FromBytes(s.packet.Linearize());
    net::TcpHeader zeroed = s.hdr;
    zeroed.checksum = 0;
    net::StorePacket(*copy, zeroed);
    const bool ok =
        TransportChecksum(s.src, s.dst, net::ipproto::kTcp, *copy) == s.hdr.checksum.value();
    if (s.payload_len > 0) frames.push_back({s.hdr, s.payload_len, ok});
    return true;
  };
  pipe.Create(cfg, cfg);
  pipe.Handshake(sim::Duration::Seconds(2));
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(10));
  pipe.tap = nullptr;
  return frames;
}

TcpConfig SmallMssConfig() {
  TcpConfig cfg;
  cfg.mss = 100;
  cfg.gso_segments = 4;
  cfg.initial_cwnd_segments = 8;  // let the first write leave as one jumbo
  return cfg;
}

TEST(Gso, SplitFramesAreWireIdenticalToThePerPacketPath) {
  const std::string data(350, 'x');

  ScopedBatchMode off(false);
  harness::TcpPipe baseline;
  const auto a = Transfer(baseline, SmallMssConfig(), data);
  ASSERT_EQ(baseline.server_rx.size(), data.size());
  EXPECT_EQ(baseline.client->stats().gso_jumbos, 0u);

  ScopedBatchMode on(true);
  harness::TcpPipe gso;
  const auto b = Transfer(gso, SmallMssConfig(), data);
  ASSERT_EQ(gso.ServerReceivedString(), data);
  EXPECT_GE(gso.client->stats().gso_jumbos, 1u);

  // Same wire frames: boundaries, seq, flags (PSH only where the send
  // buffer ends), windows, and a valid checksum in every header.
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].hdr.seq.value(), b[i].hdr.seq.value());
    EXPECT_EQ(a[i].payload_len, b[i].payload_len);
    EXPECT_EQ(a[i].hdr.flags, b[i].hdr.flags);
    EXPECT_LE(b[i].payload_len, 100u);  // never larger than the MSS
    EXPECT_TRUE(b[i].checksum_ok);
  }
  // The split got the same bytes there in fewer emission passes: the jumbo
  // counter advanced and the total wire segment count did not.
  EXPECT_EQ(gso.client->stats().segments_sent, baseline.client->stats().segments_sent);
}

TEST(Gso, PshLandsOnlyOnTheFrameEndingAtTheBufferEdge) {
  ScopedBatchMode on(true);
  harness::TcpPipe pipe;
  const auto frames = Transfer(pipe, SmallMssConfig(), std::string(350, 'y'));
  ASSERT_GE(frames.size(), 2u);
  std::size_t psh_count = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].hdr.flags & net::tcpflag::kPsh) {
      ++psh_count;
      EXPECT_EQ(i, frames.size() - 1);  // only the final frame pushes
    }
  }
  EXPECT_EQ(psh_count, 1u);
}

TEST(Gso, DisabledByGsoSegmentsOne) {
  ScopedBatchMode on(true);
  TcpConfig cfg = SmallMssConfig();
  cfg.gso_segments = 1;
  harness::TcpPipe pipe;
  Transfer(pipe, cfg, std::string(350, 'z'));
  EXPECT_EQ(pipe.server_rx.size(), 350u);
  EXPECT_EQ(pipe.client->stats().gso_jumbos, 0u);
}

}  // namespace
}  // namespace proto
