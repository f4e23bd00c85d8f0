// TCP edge cases beyond tcp_test.cc: demux-level behavior, option parsing,
// checksum corruption, TIME_WAIT FIN retransmission, half-close data flow,
// and listener refusal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/view.h"
#include "net_harness.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"
#include "proto/transport_checksum.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace proto {
namespace {

using State = TcpConnection::State;

const net::Ipv4Address kClientIp(10, 0, 0, 1);
const net::Ipv4Address kServerIp(10, 0, 0, 2);

using harness::TcpPipe;

// The pipes' seeds: demux tests run client/server, connection-level edges
// run hosts a/b.
const TcpPipe::Config kDemuxSeeds{.client_seed = 1, .server_seed = 2};
const TcpPipe::Config kDirect{.client_name = "a", .server_name = "b", .client_seed = 1,
                              .server_seed = 2};

TEST(TcpDemuxTest, ListenerAcceptsAndTransfers) {
  TcpPipe p(kDemuxSeeds);
  p.CreateClient();
  p.demux.Listen(80, [&](const TcpEndpoints& ep) { return p.Accept(ep); });
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  ASSERT_TRUE(p.client_established);
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->SendString("via demux"); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(p.ServerReceivedString(), "via demux");
  EXPECT_EQ(p.demux.connection_count(), 1u);
}

TEST(TcpDemuxTest, SynToUnboundPortGetsRst) {
  TcpPipe p(kDemuxSeeds);
  p.CreateClient();
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(p.rst_sent);
  EXPECT_TRUE(p.client_reset);
  EXPECT_EQ(p.client->state(), State::kClosed);
}

TEST(TcpDemuxTest, ListenerRefusalFallsThroughToRst) {
  TcpPipe p(kDemuxSeeds);
  p.CreateClient();
  p.demux.Listen(80, [](const TcpEndpoints&) -> TcpConnection* { return nullptr; });
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(p.client_reset);
}

TEST(TcpDemuxTest, StopListeningPreventsNewConnections) {
  TcpPipe p(kDemuxSeeds);
  p.CreateClient();
  p.demux.Listen(80, [](const TcpEndpoints&) -> TcpConnection* { return nullptr; });
  p.demux.StopListening(80);
  EXPECT_FALSE(p.demux.IsListening(80));
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_TRUE(p.client_reset);
}

TEST(TcpDemuxTest, CorruptSegmentDroppedByChecksum) {
  TcpPipe p(kDemuxSeeds);
  p.CreateClient();
  p.demux.Listen(80, [&](const TcpEndpoints& ep) { return p.Accept(ep); });
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(2));
  ASSERT_TRUE(p.client_established);

  // Deliver a hand-corrupted segment directly.
  net::TcpHeader hdr;
  hdr.src_port = 1000;
  hdr.dst_port = 80;
  hdr.seq = 12345;
  hdr.flags = net::tcpflag::kAck;
  hdr.checksum = 0xdead;  // wrong on purpose
  auto m = net::Mbuf::Allocate(sizeof(hdr) + 4);
  net::StorePacket(*m, hdr);
  p.Inject(sim::Duration::Zero(), std::move(m));
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(p.accepted[0]->stats().bad_checksums, 1u);
  EXPECT_TRUE(p.server_rx.empty());
}

TEST(TcpEdge, TimeWaitReacksRetransmittedFin) {
  TcpPipe p(kDirect);
  p.Create();
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  // The wire loses the client's first ACK of the server's FIN, so the
  // server's retransmission timer resends the FIN. The client, already in
  // TIME_WAIT, must re-ACK it and restart 2MSL from the re-ACK.
  int server_fins = 0;
  std::vector<sim::TimePoint> fin_acks;  // client segments sent after a server FIN
  p.tap = [&](TcpPipe::Segment& s) {
    if (!s.from_client) {
      if ((s.hdr.flags & net::tcpflag::kFin) != 0) ++server_fins;
      return true;
    }
    if (server_fins == 0) return true;
    fin_acks.push_back(p.sim.Now());
    return fin_acks.size() > 1;  // lose the first ACK of the FIN
  };
  // Full close: a initiates.
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Close(); });
  p.sim.RunFor(sim::Duration::Seconds(1));
  const auto sent_before_fin = p.client->stats().segments_sent;
  p.server_host.Submit(sim::Priority::kKernel, [&] { p.server->Close(); });
  p.sim.RunFor(sim::Duration::Seconds(5));
  ASSERT_EQ(p.client->state(), State::kTimeWait);
  EXPECT_EQ(server_fins, 2);
  ASSERT_EQ(fin_acks.size(), 2u);  // the lost ACK and exactly one re-ACK
  EXPECT_EQ(p.client->stats().segments_sent, sent_before_fin + 2);
  EXPECT_EQ(p.server->state(), State::kClosed);

  const sim::Duration two_msl = TcpConfig{}.msl * 2;
  const sim::Duration just_after = sim::Duration::Millis(10);
  p.sim.RunUntil(fin_acks[0] + two_msl + just_after);
  EXPECT_EQ(p.client->state(), State::kTimeWait);  // restarted at the re-ACK
  p.sim.RunUntil(fin_acks[1] + two_msl + just_after);
  EXPECT_EQ(p.client->state(), State::kClosed);
}

TEST(TcpEdge, HalfCloseAllowsDataFromPeer) {
  TcpPipe p(kDirect);
  p.Create();
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  // a closes, then b sends — a must still deliver.
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Close(); });
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(p.client->state(), State::kFinWait2);
  EXPECT_EQ(p.server->state(), State::kCloseWait);
  const auto before = p.client->stats().bytes_received;
  p.server_host.Submit(sim::Priority::kKernel, [&] { p.server->SendString("late data"); });
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(p.client->stats().bytes_received, before + 9);
}

TEST(TcpEdge, MssOptionWithLeadingNopsParsed) {
  // Build a SYN with NOP,NOP,MSS options and feed it to a listener.
  sim::Simulator sim;
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  TcpEndpoints ep{kServerIp, 80, kClientIp, 1000};
  std::vector<std::vector<std::byte>> sent;
  TcpConnection::Callbacks cbs;
  cbs.send_segment = [&](net::MbufPtr seg, net::Ipv4Address, net::Ipv4Address) {
    sent.push_back(seg->Linearize());
  };
  TcpConnection server(host, TcpConfig{}, ep, std::move(cbs));
  host.Submit(sim::Priority::kKernel, [&] { server.Listen(); });
  sim.RunFor(sim::Duration::Millis(10));

  host.Submit(sim::Priority::kKernel, [&] {
    const std::size_t hdr_len = 20 + 8;  // NOP NOP MSS(4) PAD(0) -> 8 bytes
    auto m = net::Mbuf::Allocate(hdr_len);
    net::TcpHeader hdr;
    hdr.src_port = 1000;
    hdr.dst_port = 80;
    hdr.seq = 7777;
    hdr.flags = net::tcpflag::kSyn;
    hdr.set_header_length(hdr_len);
    hdr.window = 4096;
    net::StorePacket(*m, hdr);
    const std::byte opts[8] = {std::byte{1}, std::byte{1},               // NOP NOP
                               std::byte{2}, std::byte{4},               // MSS len 4
                               std::byte{0x02}, std::byte{0x00},         // 512
                               std::byte{0}, std::byte{0}};              // END
    m->CopyIn(20, opts);
    hdr.checksum = TransportChecksum(kClientIp, kServerIp, net::ipproto::kTcp, *m);
    net::StorePacket(*m, hdr);
    server.Input(std::move(m), kClientIp, kServerIp);
  });
  sim.RunFor(sim::Duration::Millis(10));
  EXPECT_EQ(server.state(), State::kSynReceived);
  EXPECT_EQ(server.effective_mss(), 512u);
}

// A SYN from the client whose option block is `options` (a multiple of
// four bytes).
net::MbufPtr SynWithOptions(const std::vector<std::uint8_t>& options) {
  const std::size_t hdr_len = sizeof(net::TcpHeader) + options.size();
  auto m = net::Mbuf::Allocate(hdr_len);
  net::TcpHeader hdr;
  hdr.src_port = 1000;
  hdr.dst_port = 80;
  hdr.seq = 7777;
  hdr.flags = net::tcpflag::kSyn;
  hdr.set_header_length(hdr_len);
  hdr.window = 4096;
  net::StorePacket(*m, hdr);
  std::vector<std::byte> bytes;
  for (std::uint8_t b : options) bytes.push_back(std::byte{b});
  m->CopyIn(sizeof(hdr), bytes);
  hdr.checksum = TransportChecksum(kClientIp, kServerIp, net::ipproto::kTcp, *m);
  net::StorePacket(*m, hdr);
  return m;
}

TEST(TcpEdge, MssOptionReaderToleratesMalformedOptionBlocks) {
  // One reader serves both consumers: a listening connection's SYN
  // processing (effective MSS, 1460 unless the peer offers less) and the
  // demux's SYN cookie (the index of the largest cookie-table MSS not above
  // the offer: 0 = 536, 1 = 1220, 2 = 1460).
  struct Case {
    const char* what;
    std::vector<std::uint8_t> options;
    std::size_t mss;  // what the reader finds; 0 = no usable option
    std::uint32_t cookie_mss_index;
  };
  const Case cases[] = {
      {"EOL before MSS", {0, 1, 1, 1, 2, 4, 0x04, 0xc4}, 0, 0},
      {"option length 0", {2, 0, 2, 4, 0x04, 0xc4, 0, 0}, 0, 0},
      {"option length 1", {2, 1, 2, 4, 0x04, 0xc4, 0, 0}, 0, 0},
      {"length overruns the header", {8, 10, 1, 1, 2, 4, 0x04, 0xc4}, 0, 0},
      {"MSS of length 3 is skipped", {2, 3, 0x05, 2, 4, 0x05, 0x14, 0}, 1300, 1},
      {"MSS of length 5 is skipped", {2, 5, 0x05, 0xb4, 0, 2, 4, 0x02, 0x00, 0, 0, 0}, 512, 0},
      {"MSS as the last option", {1, 1, 1, 1, 2, 4, 0x04, 0xc4}, 1220, 1},
      {"MSS cut off by the header end", {1, 1, 2, 4}, 0, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto syn = SynWithOptions(c.options);
    EXPECT_EQ(ParseMssOption(*syn, net::ViewPacket<net::TcpHeader>(*syn)), c.mss);

    sim::Simulator sim;
    sim::Host host(sim, "h", sim::CostModel::Default1996());
    TcpConnection server(host, TcpConfig{}, TcpEndpoints{kServerIp, 80, kClientIp, 1000}, {});
    TcpDemux demux;
    demux.AttachHost(&host);
    std::optional<Seq> cookie;
    demux.SetSynAckSender([&](const TcpEndpoints&, Seq iss, Seq) { cookie = iss; });
    demux.Listen(
        80, [](const TcpEndpoints&) -> TcpConnection* { return nullptr; },
        ListenOptions{0, SynCookies::kAlways});
    host.Submit(sim::Priority::kKernel, [&] {
      server.Listen();
      server.Input(SynWithOptions(c.options), kClientIp, kServerIp);
      demux.Input(SynWithOptions(c.options), kClientIp, kServerIp);
    });
    sim.RunFor(sim::Duration::Millis(10));
    EXPECT_EQ(server.state(), State::kSynReceived);
    EXPECT_EQ(server.effective_mss(), c.mss > 0 ? std::min<std::size_t>(c.mss, 1460) : 1460);
    ASSERT_TRUE(cookie.has_value());
    EXPECT_EQ((*cookie >> 24) & 7u, c.cookie_mss_index);
  }
}

TEST(TcpEdge, DelayedAckCoalescesSegments) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.delayed_ack_enabled = true;
  cfg.initial_cwnd_segments = 4;
  p.Create(cfg, cfg);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  const auto server_sent_before = p.server->stats().segments_sent;
  // Two quick segments from a: b should send ONE ack (every 2nd segment).
  p.client_host.Submit(sim::Priority::kKernel, [&] {
    std::vector<std::byte> seg1(1460), seg2(1460);
    p.client->Send(seg1);
    p.client->Send(seg2);
  });
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(p.server->stats().segments_sent - server_sent_before, 1u);
}

TEST(TcpEdge, NoDelayedAckSendsPerSegment) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.delayed_ack_enabled = false;
  cfg.initial_cwnd_segments = 4;
  p.Create(cfg, cfg);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  const auto server_sent_before = p.server->stats().segments_sent;
  p.client_host.Submit(sim::Priority::kKernel, [&] {
    std::vector<std::byte> seg1(1460), seg2(1460);
    p.client->Send(seg1);
    p.client->Send(seg2);
  });
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(p.server->stats().segments_sent - server_sent_before, 2u);
}

TEST(TcpEdge, ConnectTimesOutAgainstBlackHole) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.rto_max = sim::Duration::Seconds(2);  // keep the test fast
  p.Create(cfg, cfg);
  p.tap = [](TcpPipe::Segment&) { return false; };
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Connect(); });
  p.sim.RunFor(sim::Duration::Seconds(120));
  EXPECT_EQ(p.client->state(), State::kClosed);
  EXPECT_GT(p.client->stats().timeouts, 5u);
}

// --- backoff bounds (chaos hardening) ---------------------------------------

// The SYN retransmission interval doubles but never exceeds rto_max, and the
// spiral ends in a clean ETIMEDOUT.
TEST(TcpBackoff, SynRetransmitIntervalCapsAtRtoMax) {
  sim::Simulator sim;
  sim::Host host(sim, "c", sim::CostModel::Default1996(), 1);
  TcpConfig cfg;
  cfg.rto_initial = sim::Duration::Millis(500);
  cfg.rto_max = sim::Duration::Seconds(2);
  TcpEndpoints ep{kClientIp, 1000, kServerIp, 80};
  TcpConnection::Callbacks cbs;
  std::vector<sim::TimePoint> syn_times;
  cbs.send_segment = [&](net::MbufPtr, net::Ipv4Address, net::Ipv4Address) {
    syn_times.push_back(sim.Now());  // every segment here is a SYN into the void
  };
  bool timed_out = false;
  cbs.on_error = [&](TcpError e) { timed_out = (e == TcpError::kTimedOut); };
  TcpConnection conn(host, cfg, ep, std::move(cbs));
  host.Submit(sim::Priority::kKernel, [&] { conn.Connect(); });
  sim.Run();

  ASSERT_GE(syn_times.size(), 6u);
  int at_cap = 0;
  for (std::size_t i = 1; i < syn_times.size(); ++i) {
    const sim::Duration gap = syn_times[i] - syn_times[i - 1];
    EXPECT_LE(gap.ns(), cfg.rto_max.ns()) << "retransmit gap " << i << " exceeds rto_max";
    if (gap.ns() == cfg.rto_max.ns()) ++at_cap;
  }
  EXPECT_GE(at_cap, 3) << "backoff never reached (and held) the cap";
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(conn.state(), State::kClosed);
}

// Zero-window persist probing backs off exponentially but the probe
// interval saturates at persist_max.
TEST(TcpBackoff, PersistIntervalCapsAtPersistMax) {
  TcpPipe p(kDirect);
  TcpConfig ca;
  ca.persist_interval = sim::Duration::Millis(200);
  ca.persist_max = sim::Duration::Seconds(1);
  ca.max_persist_probes = 40;  // plenty of room to observe saturation
  TcpConfig cb;
  cb.recv_window = 2048;
  p.Create(ca, cb);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  p.server_host.Submit(sim::Priority::kKernel, [&] { p.server->SetAutoConsume(false); });

  std::vector<std::byte> data(16 * 1024, std::byte{0x42});
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(data); });
  p.sim.RunFor(sim::Duration::Seconds(15));

  EXPECT_GT(p.client->stats().persist_probes, 4u);
  EXPECT_GT(p.client->persist_backoff(), 3);
  // However many probes went unanswered-by-progress, the next interval is
  // clamped to the configured ceiling.
  EXPECT_EQ(p.client->current_persist_interval().ns(), ca.persist_max.ns());

  // Reader wakes up: the window reopens and the transfer completes.
  p.server_host.Submit(sim::Priority::kKernel, [&] {
    p.server->SetAutoConsume(true);
    p.server->Consume(1 << 30);
  });
  p.sim.RunFor(sim::Duration::Seconds(30));
  EXPECT_EQ(p.server->stats().bytes_received, data.size());
  EXPECT_EQ(p.client->state(), State::kEstablished);
}

// A 10-second blackout is shorter than the retransmission abort threshold:
// the flow stalls, backs off, and completes once the link returns — no
// reset, no timeout surfaced to the application.
TEST(TcpBackoff, FlowSurvivesTenSecondBlackout) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.rto_initial = sim::Duration::Millis(500);
  p.Create(cfg, cfg);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));

  std::vector<std::byte> data(24 * 1024, std::byte{0x7e});
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(data); });
  p.sim.RunFor(sim::Duration::Millis(50));  // transfer under way
  ASSERT_GT(p.server->stats().bytes_received, 0u);
  ASSERT_LT(p.server->stats().bytes_received, data.size());

  p.tap = [](TcpPipe::Segment&) { return false; };
  p.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(p.client->state(), State::kEstablished);  // still inside the abort budget
  const auto timeouts_during = p.client->stats().timeouts;
  EXPECT_GT(timeouts_during, 1u);  // it really was retransmitting

  p.tap = nullptr;
  p.sim.RunFor(sim::Duration::Seconds(60));
  EXPECT_EQ(p.server->stats().bytes_received, data.size());
  EXPECT_EQ(p.client->state(), State::kEstablished);
}

// --- per-flow telemetry ----------------------------------------------------------

// TcpInfo is a faithful snapshot of loss recovery: a blackout mid-transfer
// must show up as timeouts, retransmits, live backoff, and a collapsed
// cwnd; reconnecting the link must drain the backoff again.
TEST(TcpTelemetry, InfoReflectsLossRecovery) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.rto_initial = sim::Duration::Millis(500);
  p.Create(cfg, cfg);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));

  TcpInfo info = p.client->info();
  EXPECT_EQ(info.state, State::kEstablished);
  EXPECT_EQ(info.timeouts, 0u);
  EXPECT_EQ(info.retransmits, 0u);
  EXPECT_EQ(info.rexmt_backoff, 0);
  EXPECT_GE(info.cwnd, info.mss);  // slow start opened at >= 1 MSS

  std::vector<std::byte> data(24 * 1024, std::byte{0x7e});
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(data); });
  p.sim.RunFor(sim::Duration::Millis(50));
  info = p.client->info();
  EXPECT_GT(info.bytes_sent, 0u);   // transfer under way
  EXPECT_GT(info.in_flight, 0u);    // data outstanding, rexmt armed
  EXPECT_GT(info.rto_ns, 0);

  // Blackout before the first ACK returns: every RTO fires into the void.
  p.tap = [](TcpPipe::Segment&) { return false; };
  p.sim.RunFor(sim::Duration::Seconds(10));
  info = p.client->info();
  EXPECT_EQ(info.state, State::kEstablished);
  EXPECT_GT(info.timeouts, 1u);       // RTOs really fired
  EXPECT_GT(info.retransmits, 1u);    // and retransmitted into the void
  EXPECT_GT(info.rexmt_backoff, 1);   // exponential backoff is live
  EXPECT_EQ(info.cwnd, info.mss);     // RTO collapsed the window
  EXPECT_GT(info.in_flight, 0u);      // unacknowledged bytes outstanding
  EXPECT_FALSE(info.srtt_valid);      // no ACK ever timed the path (Karn)

  p.tap = nullptr;
  p.sim.RunFor(sim::Duration::Seconds(60));
  info = p.client->info();
  EXPECT_EQ(info.rexmt_backoff, 0);  // recovery cleared the backoff
  EXPECT_EQ(info.in_flight, 0u);
  EXPECT_TRUE(info.srtt_valid);      // post-recovery ACKs timed the path
  EXPECT_GT(info.srtt_ns, 0);
  EXPECT_GT(info.rto_ns, info.srtt_ns);
  EXPECT_EQ(info.bytes_delivered, 0u);  // a sent; nothing flowed back
  EXPECT_EQ(p.server->info().bytes_delivered, data.size());

  // The JSON snapshot mirrors the struct, fields in declaration order.
  const std::string json = info.ToJson();
  EXPECT_NE(json.find("\"state\":\"ESTABLISHED\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"timeouts\":" + std::to_string(info.timeouts)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cwnd\":" + std::to_string(info.cwnd)),
            std::string::npos)
      << json;
}

// The sampler's ring holds the story of a collapse: ACK-clocked samples
// while the transfer runs, a forced sample at the RTO collapse (so the
// cwnd floor is never smoothed away), all on the virtual clock, bounded.
TEST(TcpTelemetry, SamplerRecordsCwndCollapseInBoundedRing) {
  TcpPipe p(kDirect);
  TcpConfig cfg;
  cfg.rto_initial = sim::Duration::Millis(500);
  p.Create(cfg, cfg);
  ASSERT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
  // Pure state mutation on the connection — no Submit, no scheduled event.
  p.client->EnableSampling(sim::Duration::Millis(10), /*capacity=*/64);

  std::vector<std::byte> data(24 * 1024, std::byte{0x7e});
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(data); });
  p.sim.RunFor(sim::Duration::Millis(50));
  p.tap = [](TcpPipe::Segment&) { return false; };
  p.sim.RunFor(sim::Duration::Seconds(10));
  p.tap = nullptr;
  p.sim.RunFor(sim::Duration::Seconds(60));

  const auto samples = p.client->Samples();
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 64u);  // the ring is bounded
  // Oldest-first and strictly ordered on the virtual clock.
  std::uint32_t min_cwnd = samples.front().cwnd;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(samples[i].at, samples[i - 1].at);
    }
    min_cwnd = std::min(min_cwnd, samples[i].cwnd);
  }
  // The forced samples at the RTO collapses captured the 1-MSS floor.
  EXPECT_EQ(min_cwnd, p.client->info().mss);

  const std::string json = p.client->SamplesJson();
  EXPECT_EQ(json.rfind("{\"samples\":[[", 0), 0u) << json;
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos) << json;

  // Shrink to a 2-deep ring with no interval gate: a short follow-on
  // transfer overflows it, and the evictions are accounted, not silent.
  p.client->EnableSampling(sim::Duration::Zero(), /*capacity=*/2);
  std::vector<std::byte> more(8 * 1024, std::byte{0x55});
  p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(more); });
  p.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(p.client->Samples().size(), 2u);
  EXPECT_GT(p.client->samples_dropped(), 0u);
  EXPECT_NE(p.client->SamplesJson().find(
                "\"dropped\":" + std::to_string(p.client->samples_dropped())),
            std::string::npos)
      << p.client->SamplesJson();
}

// Sampling is pure observation on the ACK clock: it schedules nothing, so
// the simulator's timer metrics are byte-identical with it on or off.
TEST(TcpTelemetry, SamplerDoesNotPerturbVirtualTime) {
  auto run = [](bool sample) {
    TcpPipe p(kDirect);
    p.Create();
    EXPECT_TRUE(p.Handshake(sim::Duration::Seconds(3)));
    if (sample) p.client->EnableSampling(sim::Duration::Millis(5), 64);
    std::vector<std::byte> data(16 * 1024, std::byte{0x42});
    p.client_host.Submit(sim::Priority::kKernel, [&] { p.client->Send(data); });
    p.sim.RunFor(sim::Duration::Seconds(30));
    EXPECT_EQ(p.server->stats().bytes_received, data.size());
    return p.sim.metrics().ToJson();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace proto
