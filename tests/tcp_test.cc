// TCP state-machine tests over a controllable software pipe: deterministic
// loss, duplication, and reordering without the full device stack.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "net/headers.h"
#include "net/view.h"
#include "proto/tcp.h"
#include "proto/tcp_seq.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"
#include "net_harness.h"

namespace proto {
namespace {

using State = TcpConnection::State;

TEST(TcpSeq, WrapSafeComparisons) {
  EXPECT_TRUE(SeqLt(1, 2));
  EXPECT_TRUE(SeqLt(0xfffffff0u, 5));  // wraps
  EXPECT_FALSE(SeqLt(5, 0xfffffff0u));
  EXPECT_TRUE(SeqLe(7, 7));
  EXPECT_TRUE(SeqGt(5, 0xfffffff0u));
  EXPECT_TRUE(SeqGe(5, 5));
  EXPECT_EQ(SeqDiff(0xfffffffeu, 2), 4u);
}

using harness::TcpPipe;

TEST(Tcp, ThreeWayHandshake) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  EXPECT_EQ(pipe.client->state(), State::kEstablished);
  EXPECT_EQ(pipe.server->state(), State::kEstablished);
  // SYN + SYN|ACK + ACK = 3 segments minimum.
  EXPECT_GE(pipe.client->stats().segments_sent, 2u);
  EXPECT_GE(pipe.server->stats().segments_sent, 1u);
}

TEST(Tcp, DataBothDirections) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.ClientSend("hello from client");
  pipe.server_host.Submit(sim::Priority::kKernel,
                           [&] { pipe.server->SendString("hi from server"); });
  pipe.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(pipe.ServerReceivedString(), "hello from client");
  EXPECT_EQ(pipe.ClientReceivedString(), "hi from server");
}

TEST(Tcp, GracefulCloseBothSides) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.ClientSend("bye");
  pipe.client_host.Submit(sim::Priority::kKernel, [&] { pipe.client->Close(); });
  pipe.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(pipe.server_saw_close);
  EXPECT_EQ(pipe.server->state(), State::kCloseWait);
  EXPECT_EQ(pipe.ServerReceivedString(), "bye");

  pipe.server_host.Submit(sim::Priority::kKernel, [&] { pipe.server->Close(); });
  pipe.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(pipe.client_saw_close);
  EXPECT_EQ(pipe.server->state(), State::kClosed);
  EXPECT_EQ(pipe.client->state(), State::kTimeWait);

  // 2MSL expiry.
  pipe.sim.RunFor(sim::Duration::Seconds(40));
  EXPECT_EQ(pipe.client->state(), State::kClosed);
}

TEST(Tcp, BulkTransferDeliversExactByteStream) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  std::vector<std::byte> data(200 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  }
  // Feed in chunks as the send buffer drains.
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    pipe.client_host.Submit(sim::Priority::kKernel, [&] {
      while (offset < data.size()) {
        const std::size_t n = pipe.client->Send(
            std::span<const std::byte>(data).subspan(offset, std::min<std::size_t>(
                                                                 8192, data.size() - offset)));
        offset += n;
        if (n == 0) break;
      }
      if (offset < data.size()) pipe.sim.Schedule(sim::Duration::Millis(20), feed);
    });
  };
  feed();
  pipe.sim.RunFor(sim::Duration::Seconds(60));
  ASSERT_EQ(pipe.server_rx.size(), data.size());
  EXPECT_EQ(pipe.server_rx, data);
  EXPECT_EQ(pipe.server->stats().bad_checksums, 0u);
}

TEST(Tcp, RecoversFromPeriodicLoss) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  // Drop every 10th data-bearing segment from the client.
  pipe.tap = [](TcpPipe::Segment& info) {
    if (!info.from_client || info.payload_len == 0) return true;
    return info.index % 10 != 7;
  };
  std::vector<std::byte> data(60 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xff);
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    pipe.client_host.Submit(sim::Priority::kKernel, [&] {
      offset += pipe.client->Send(std::span<const std::byte>(data).subspan(offset));
      if (offset < data.size()) pipe.sim.Schedule(sim::Duration::Millis(50), feed);
    });
  };
  feed();
  pipe.sim.RunFor(sim::Duration::Seconds(120));
  ASSERT_EQ(pipe.server_rx.size(), data.size());
  EXPECT_EQ(pipe.server_rx, data);
  EXPECT_GT(pipe.client->stats().retransmissions, 0u);
}

TEST(Tcp, FastRetransmitOnTripleDupAck) {
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.initial_cwnd_segments = 8;  // enough flight for 3 dupacks
  cfg.delayed_ack_enabled = false;
  pipe.Create(cfg, cfg);
  ASSERT_TRUE(pipe.Handshake());
  // Drop exactly one data segment (the 2nd data-bearing one).
  int data_count = 0;
  pipe.tap = [&data_count](TcpPipe::Segment& info) {
    if (!info.from_client || info.payload_len == 0) return true;
    return ++data_count != 2;
  };
  std::vector<std::byte> data(12 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xff);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(10));
  ASSERT_EQ(pipe.server_rx.size(), data.size());
  EXPECT_EQ(pipe.server_rx, data);
  EXPECT_GE(pipe.client->stats().fast_retransmits, 1u);
  EXPECT_GT(pipe.client->stats().dup_acks_received, 2u);
}

TEST(Tcp, SynLossRecoveredByRetransmission) {
  TcpPipe pipe;
  pipe.Create();
  int syn_count = 0;
  pipe.tap = [&syn_count](TcpPipe::Segment& info) {
    if (info.from_client && (info.hdr.flags & net::tcpflag::kSyn)) {
      return ++syn_count > 1;  // drop the first SYN
    }
    return true;
  };
  ASSERT_TRUE(pipe.Handshake());
  EXPECT_EQ(pipe.client->state(), State::kEstablished);
  EXPECT_GT(pipe.client->stats().timeouts, 0u);
}

TEST(Tcp, ConnectionRefusedByClosedPeer) {
  TcpPipe pipe;
  pipe.Create();
  // Server never listens: stays CLOSED and answers the SYN with RST.
  pipe.client_host.Submit(sim::Priority::kKernel, [&] { pipe.client->Connect(); });
  pipe.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_TRUE(pipe.client_reset);
  EXPECT_EQ(pipe.client->state(), State::kClosed);
}

TEST(Tcp, MssNegotiationUsesMinimum) {
  TcpPipe pipe;
  TcpConfig small;
  small.mss = 536;
  pipe.Create(TcpConfig{}, small);  // client 1460, server 536
  ASSERT_TRUE(pipe.Handshake());
  EXPECT_EQ(pipe.client->effective_mss(), 536u);
  // Client segments must respect the peer's MSS.
  std::size_t max_payload = 0;
  pipe.tap = [&max_payload](TcpPipe::Segment& info) {
    if (info.from_client) max_payload = std::max(max_payload, info.payload_len);
    return true;
  };
  std::vector<std::byte> data(8000);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_LE(max_payload, 536u);
  EXPECT_EQ(pipe.server_rx.size(), 8000u);
}

TEST(Tcp, ZeroWindowPersistProbes) {
  TcpPipe pipe;
  TcpConfig server_cfg;
  server_cfg.recv_window = 4096;
  pipe.Create(TcpConfig{}, server_cfg);
  ASSERT_TRUE(pipe.Handshake());
  pipe.server->SetAutoConsume(false);  // receiver app stops reading

  std::vector<std::byte> data(32 * 1024);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(10));
  // Window must have closed: less than everything delivered, probes sent.
  EXPECT_LT(pipe.server_rx.size(), data.size());
  EXPECT_GT(pipe.client->stats().persist_probes, 0u);

  // Reader resumes: consume everything as it arrives.
  pipe.server_host.Submit(sim::Priority::kKernel, [&] {
    pipe.server->SetAutoConsume(true);
    pipe.server->Consume(1 << 30);
  });
  pipe.sim.RunFor(sim::Duration::Seconds(60));
  EXPECT_EQ(pipe.server_rx.size(), data.size());
}

TEST(Tcp, ReorderedSegmentsDeliveredInOrder) {
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.initial_cwnd_segments = 4;
  cfg.delayed_ack_enabled = false;
  pipe.Create(cfg, cfg);
  ASSERT_TRUE(pipe.Handshake());
  // Delay the 1st data segment so it arrives after the 2nd.
  int data_count = 0;
  pipe.tap = [&](TcpPipe::Segment& info) {
    if (info.from_client && info.payload_len > 0 && ++data_count == 1) {
      info.delay += sim::Duration::Millis(30);
    }
    return true;
  };
  std::vector<std::byte> data(4000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xff);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(10));
  ASSERT_EQ(pipe.server_rx.size(), data.size());
  EXPECT_EQ(pipe.server_rx, data);
  EXPECT_GT(pipe.server->stats().out_of_order_segments, 0u);
}

TEST(Tcp, DuplicatedSegmentsDeliveredOnce) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  // The wire delivers every client data segment twice, the copy 1 ms after
  // the original: the server takes in both and delivers the stream once.
  std::uint64_t client_segments = 0, duplicates = 0;
  pipe.tap = [&](TcpPipe::Segment& s) {
    if (!s.from_client) return true;
    ++client_segments;
    if (s.payload_len > 0) {
      ++duplicates;
      pipe.Inject(s.delay + sim::Duration::Millis(1), s.packet.ShareClone());
    }
    return true;
  };
  const std::uint64_t received_before = pipe.server->stats().segments_received;
  std::vector<std::byte> data(3000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xff);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(3));
  ASSERT_GT(duplicates, 0u);
  EXPECT_EQ(pipe.server->stats().segments_received - received_before,
            client_segments + duplicates);
  ASSERT_EQ(pipe.server_rx.size(), data.size());
  EXPECT_EQ(pipe.server_rx, data);
}

TEST(Tcp, SimultaneousClose) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.client_host.Submit(sim::Priority::kKernel, [&] { pipe.client->Close(); });
  pipe.server_host.Submit(sim::Priority::kKernel, [&] { pipe.server->Close(); });
  pipe.sim.RunFor(sim::Duration::Seconds(80));
  EXPECT_EQ(pipe.client->state(), State::kClosed);
  EXPECT_EQ(pipe.server->state(), State::kClosed);
}

TEST(Tcp, RttEstimationAdjustsRto) {
  TcpPipe pipe({.delay = sim::Duration::Millis(40)});  // 80ms RTT
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.ClientSend("measure me");
  pipe.sim.RunFor(sim::Duration::Seconds(2));
  // RTO should have adapted to roughly RTT + 4*var, well below the 1s
  // initial value but >= the 200ms floor.
  EXPECT_LT(pipe.client->current_rto(), sim::Duration::Millis(1000));
  EXPECT_GE(pipe.client->current_rto(), sim::Duration::Millis(200));
}

TEST(Tcp, CongestionWindowGrowsDuringSlowStart) {
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.initial_cwnd_segments = 1;
  pipe.Create(cfg, TcpConfig{});
  ASSERT_TRUE(pipe.Handshake());
  const auto initial_cwnd = pipe.client->cwnd();
  std::vector<std::byte> data(64 * 1024);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_GT(pipe.client->cwnd(), initial_cwnd);
  EXPECT_EQ(pipe.server_rx.size(), data.size());
}

TEST(Tcp, TimeoutCollapsesCongestionWindow) {
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.initial_cwnd_segments = 8;
  pipe.Create(cfg, TcpConfig{});
  ASSERT_TRUE(pipe.Handshake());
  // Black-hole everything from the client after the handshake for a while.
  bool blackhole = true;
  pipe.tap = [&blackhole](TcpPipe::Segment& info) {
    return !(info.from_client && blackhole);
  };
  std::vector<std::byte> data(20 * 1024);
  pipe.ClientSend(data);
  pipe.sim.RunFor(sim::Duration::Seconds(3));
  EXPECT_GT(pipe.client->stats().timeouts, 0u);
  EXPECT_LE(pipe.client->cwnd(), 2 * pipe.client->effective_mss());
  // Heal the path; everything still arrives.
  blackhole = false;
  pipe.sim.RunFor(sim::Duration::Seconds(120));
  EXPECT_EQ(pipe.server_rx.size(), data.size());
}

TEST(Tcp, SendAfterCloseRejected) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.client_host.Submit(sim::Priority::kKernel, [&] {
    pipe.client->Close();
    EXPECT_EQ(pipe.client->SendString("too late"), 0u);
  });
  pipe.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(pipe.ServerReceivedString().empty());
}

TEST(Tcp, AbortSendsRstToPeer) {
  TcpPipe pipe;
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake());
  pipe.client_host.Submit(sim::Priority::kKernel, [&] { pipe.client->Abort(); });
  pipe.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_TRUE(pipe.server_reset);
  EXPECT_EQ(pipe.server->state(), State::kClosed);
  EXPECT_EQ(pipe.client->state(), State::kClosed);
}

TEST(Tcp, SendBufferBoundsAcceptedBytes) {
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.send_buffer = 8 * 1024;
  pipe.Create(cfg, TcpConfig{});
  ASSERT_TRUE(pipe.Handshake());
  pipe.client_host.Submit(sim::Priority::kKernel, [&] {
    std::vector<std::byte> big(32 * 1024);
    const std::size_t accepted = pipe.client->Send(big);
    EXPECT_LE(accepted, 8 * 1024u);
    EXPECT_GT(accepted, 0u);
  });
  pipe.sim.RunFor(sim::Duration::Seconds(1));
}

// Property-style sweep: random loss rates still deliver the exact stream.
class TcpLossSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TcpLossSweepTest, ExactDeliveryUnderRandomLoss) {
  const int seed = GetParam();
  TcpPipe pipe;
  TcpConfig cfg;
  cfg.delayed_ack_enabled = true;
  pipe.Create(cfg, cfg);
  ASSERT_TRUE(pipe.Handshake());

  sim::Random rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  const double loss = 0.02 + 0.02 * (seed % 5);  // 2%..10%
  pipe.tap = [&rng, loss](TcpPipe::Segment&) {
    return !rng.Bernoulli(loss);
  };

  std::vector<std::byte> data(40 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 13 + seed) & 0xff);
  }
  std::size_t offset = 0;
  std::function<void()> feed = [&] {
    pipe.client_host.Submit(sim::Priority::kKernel, [&] {
      offset += pipe.client->Send(std::span<const std::byte>(data).subspan(offset));
      if (offset < data.size()) pipe.sim.Schedule(sim::Duration::Millis(100), feed);
    });
  };
  feed();
  pipe.sim.RunFor(sim::Duration::Seconds(300));
  ASSERT_EQ(pipe.server_rx.size(), data.size()) << "loss=" << loss;
  EXPECT_EQ(pipe.server_rx, data);
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweepTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace proto
