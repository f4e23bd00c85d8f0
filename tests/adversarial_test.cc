// Hostile-traffic hardening (tier 1): the stack under deliberate attack.
//
// Four families, matching DESIGN.md section 17:
//   * SYN floods — bounded backlogs shed, SYN cookies keep legitimate
//     handshakes landing with zero per-SYN state.
//   * Blind in-window injection (RFC 5961) — spoofed RST/SYN/far-ACK
//     segments elicit rate-limited challenge ACKs instead of teardown,
//     while genuine exact-sequence resets still work.
//   * Parser hardening — truncations, length lies, fragment forgeries and
//     option garbage die at the layer that can prove them impossible,
//     counted per layer; reflection responders (RST, ICMP errors) and
//     resolution state (ARP pending, IP reassembly, accept keep-alives)
//     are bounded.
//   * Structure-aware fuzzing — a seeded mutator corpus sprays the NIC
//     while a legitimate transfer runs; bytes survive exactly, nothing
//     quarantines, every pooled buffer returns. The 1000-seed sweep lives
//     in fuzz_property_test.cc (label: slow); this file runs a modest
//     corpus plus the batched/per-packet accounting identity.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adversarial_util.h"
#include "batch_mode.h"
#include "net/view.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"

namespace {

using adversarial::AddServerAndClient;
using adversarial::ArpReplyFrame;
using adversarial::Counter;
using adversarial::IcmpEchoBytes;
using adversarial::InjectAt;
using adversarial::kClientIp;
using adversarial::kClientMac;
using adversarial::kServerIp;
using adversarial::kServerMac;
using adversarial::TcpSegmentBytes;
using adversarial::UdpDatagramBytes;
using adversarial::WrapIp;

const net::MacAddress kAttackerMac = net::MacAddress::FromId(0x66);

net::Ipv4Address SpoofedIp(int i) {
  return net::Ipv4Address(203, 0, 113, static_cast<std::uint8_t>(1 + i % 250));
}

// ---------------------------------------------------------------------------
// SYN floods against the full Plexus stack.
// ---------------------------------------------------------------------------

TEST(Adversarial, SynFloodWithoutCookiesBoundsEmbryonicState) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  proto::ListenOptions opts;
  opts.syn_backlog = 16;
  opts.cookies = proto::SynCookies::kNever;
  ASSERT_TRUE(server.tcp().Listen(
      80, [](std::shared_ptr<core::PlexusTcpEndpoint>) {}, opts));

  for (int i = 0; i < 100; ++i) {
    auto seg = TcpSegmentBytes(static_cast<std::uint16_t>(1024 + i), 80,
                               static_cast<std::uint32_t>(1000 + i), 0,
                               net::tcpflag::kSyn, 8192, SpoofedIp(i),
                               kServerIp);
    InjectAt(p.sim, server,
             sim::Duration::Millis(1) + sim::Duration::Micros(100) * i,
             WrapIp(kServerMac, kAttackerMac, SpoofedIp(i),
                    kServerIp, net::ipproto::kTcp, seg));
  }
  p.sim.RunFor(sim::Duration::Millis(200));

  // The backlog held exactly its bound; everything past it was shed with no
  // state bought.
  EXPECT_EQ(server.tcp().demux().embryonic_count(80), 16);
  EXPECT_EQ(server.tcp().demux().connection_count(), 16u);
  EXPECT_EQ(Counter(server, "tcp.listen_overflows"), 84u);
  EXPECT_EQ(Counter(server, "tcp.syn_cookies_sent"), 0u);

  // The embryonic TCBs exhaust their SYN|ACK retransmissions and die: the
  // flood leaves zero residue.
  p.sim.RunFor(sim::Duration::Seconds(60));
  EXPECT_EQ(server.tcp().demux().embryonic_count(80), 0);
  EXPECT_EQ(server.tcp().demux().connection_count(), 0u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
}

TEST(Adversarial, SynFloodWithCookiesKeepsLegitimateGoodput) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  std::vector<std::byte> payload(20 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 37 + 11) & 0xff);
  }

  std::vector<std::byte> received;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  proto::ListenOptions opts;
  opts.syn_backlog = 16;
  opts.cookies = proto::SynCookies::kAuto;
  ASSERT_TRUE(server.tcp().Listen(
      80,
      [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        core::PlexusTcpEndpoint* raw = ep.get();
        raw->SetOnData([&received](std::span<const std::byte> d) {
          received.insert(received.end(), d.begin(), d.end());
        });
        raw->SetOnClose([raw] { raw->CloseStream(); });
        keep.push_back(std::move(ep));
      },
      opts));

  // 300 spoofed SYNs over 150 ms: the first 16 fill the backlog, everything
  // after is answered statelessly.
  for (int i = 0; i < 300; ++i) {
    auto seg = TcpSegmentBytes(static_cast<std::uint16_t>(2000 + i), 80,
                               static_cast<std::uint32_t>(5000 + i), 0,
                               net::tcpflag::kSyn, 8192, SpoofedIp(i),
                               kServerIp);
    InjectAt(p.sim, server,
             sim::Duration::Millis(1) + sim::Duration::Micros(500) * i,
             WrapIp(kServerMac, kAttackerMac, SpoofedIp(i),
                    kServerIp, net::ipproto::kTcp, seg));
  }

  // A legitimate client connects mid-flood and pushes 20 KiB.
  std::shared_ptr<core::PlexusTcpEndpoint> cep;
  bool client_closed = false;
  p.sim.Schedule(sim::Duration::Millis(50), [&] {
    client.Run([&] {
      cep = client.tcp().Connect(kServerIp, 80);
      cep->SetOnClose([&] { client_closed = true; });
      cep->SetOnEstablished([&] {
        cep->Write(payload);
        cep->CloseStream();
      });
    });
  });

  for (int rounds = 0; rounds < 20 && !client_closed; ++rounds) {
    p.sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_TRUE(client_closed);
  EXPECT_EQ(received, payload);

  // Cookies engaged under pressure — the flood got stateless answers and
  // the legitimate handshake completed through one.
  EXPECT_GE(Counter(server, "tcp.syn_cookies_sent"), 280u);
  EXPECT_GE(Counter(server, "tcp.syn_cookies_accepted"), 1u);
  EXPECT_LE(server.tcp().demux().embryonic_count(80), 16);
  // With cookies on, pressure never sheds silently.
  EXPECT_EQ(Counter(server, "tcp.listen_overflows"), 0u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
  EXPECT_EQ(client.dispatcher().stats().quarantines, 0u);
}

TEST(Adversarial, CookieHandshakeDeliversExactBytesBothWays) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  std::vector<std::byte> c2s(8 * 1024), s2c(2 * 1024);
  for (std::size_t i = 0; i < c2s.size(); ++i) {
    c2s[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  }
  for (std::size_t i = 0; i < s2c.size(); ++i) {
    s2c[i] = static_cast<std::byte>((i * 11 + 5) & 0xff);
  }

  std::vector<std::byte> server_rx, client_rx;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  proto::ListenOptions opts;
  opts.syn_backlog = 4;
  opts.cookies = proto::SynCookies::kAlways;
  ASSERT_TRUE(server.tcp().Listen(
      80,
      [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        core::PlexusTcpEndpoint* raw = ep.get();
        raw->SetOnData([&server_rx](std::span<const std::byte> d) {
          server_rx.insert(server_rx.end(), d.begin(), d.end());
        });
        raw->SetOnClose([raw] { raw->CloseStream(); });
        raw->Write(s2c);
        keep.push_back(std::move(ep));
      },
      opts));

  std::shared_ptr<core::PlexusTcpEndpoint> cep;
  bool client_closed = false;
  p.sim.Schedule(sim::Duration::Millis(1), [&] {
    client.Run([&] {
      cep = client.tcp().Connect(kServerIp, 80);
      cep->SetOnData([&client_rx](std::span<const std::byte> d) {
        client_rx.insert(client_rx.end(), d.begin(), d.end());
      });
      cep->SetOnClose([&] { client_closed = true; });
      cep->SetOnEstablished([&] {
        cep->Write(c2s);
        cep->CloseStream();
      });
    });
  });

  for (int rounds = 0; rounds < 20 && !client_closed; ++rounds) {
    p.sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_TRUE(client_closed);
  EXPECT_EQ(server_rx, c2s);
  EXPECT_EQ(client_rx, s2c);

  // The whole handshake was stateless: never any embryonic TCB, and the
  // cookie round-tripped exactly once.
  EXPECT_EQ(server.tcp().demux().embryonic_count(80), 0);
  EXPECT_GE(Counter(server, "tcp.syn_cookies_sent"), 1u);
  EXPECT_GE(Counter(server, "tcp.syn_cookies_accepted"), 1u);
  EXPECT_EQ(Counter(server, "tcp.syn_cookies_rejected"), 0u);
  EXPECT_EQ(Counter(server, "tcp.challenge_acks"), 0u);
}

// ---------------------------------------------------------------------------
// RFC 5961 blind injection, on a direct connection pipe. The pipe sniffs
// every real segment's header, so the "attacker" can craft informed-ish
// blind segments (right 4-tuple, wrong exact sequence) with valid checksums.
// ---------------------------------------------------------------------------

// The pipe puts the client at 10.0.0.2:1000 and the server at 10.0.0.1:80,
// 2 ms apart.
const harness::TcpPipe::Config kBlindPipe{.client_name = "chost",
                                          .server_name = "shost",
                                          .client_seed = 7,
                                          .server_seed = 8,
                                          .client_ip = kClientIp,
                                          .server_ip = kServerIp,
                                          .delay = sim::Duration::Millis(2)};

// Sequence bookkeeping for informed-ish blind injection: the server's
// rcv_nxt and snd_una, from the sniffed ISSes and the bytes delivered.
std::uint32_t ServerRcvNxt(const harness::TcpPipe& pipe) {
  return pipe.client_iss + 1 + static_cast<std::uint32_t>(pipe.server_rx.size());
}
std::uint32_t ServerSndUna(const harness::TcpPipe& pipe) { return pipe.server_iss + 1; }

// Delivers a forged segment (client -> server 4-tuple, valid checksum)
// straight into the server connection at `at` from now.
void InjectToServerAt(harness::TcpPipe& pipe, sim::Duration at, std::uint8_t flags,
                      std::uint32_t seq, std::uint32_t ack) {
  auto seg = TcpSegmentBytes(harness::TcpPipe::kClientPort, harness::TcpPipe::kServerPort, seq,
                             ack, flags, 8192, kClientIp, kServerIp);
  pipe.Inject(at, net::Mbuf::FromBytes(std::as_bytes(std::span<const std::uint8_t>(seg))));
}

TEST(Adversarial, BlindRstElicitsChallengeAckNotTeardown) {
  harness::TcpPipe pipe(kBlindPipe);
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake(sim::Duration::Millis(200), sim::Duration::Millis(1)));
  pipe.ClientSend("hello server");
  pipe.sim.RunFor(sim::Duration::Millis(100));
  ASSERT_EQ(pipe.ServerReceivedString(), "hello server");

  // In-window but not exactly rcv_nxt: a blind attacker's best shot. The
  // pre-RFC 5961 stack tears down here.
  InjectToServerAt(pipe, sim::Duration::Millis(1), net::tcpflag::kRst,
                        ServerRcvNxt(pipe) + 9, 0);
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.server->state(), proto::TcpConnection::State::kEstablished);
  EXPECT_FALSE(pipe.server_reset);
  EXPECT_GE(Counter(pipe.server_host, "tcp.challenge_acks"), 1u);

  // The connection still carries data after the attack...
  pipe.ClientSend(" again");
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.ServerReceivedString(), "hello server again");

  // ...and a genuine exact-sequence RST (what the real peer sends after
  // answering a challenge ACK) still tears down.
  InjectToServerAt(pipe, sim::Duration::Millis(1), net::tcpflag::kRst,
                        ServerRcvNxt(pipe), 0);
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.server->state(), proto::TcpConnection::State::kClosed);
  EXPECT_TRUE(pipe.server_reset);
}

TEST(Adversarial, BlindSynElicitsChallengeAckNotTeardown) {
  harness::TcpPipe pipe(kBlindPipe);
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake(sim::Duration::Millis(200), sim::Duration::Millis(1)));
  pipe.ClientSend("payload");
  pipe.sim.RunFor(sim::Duration::Millis(100));

  // A blind in-window SYN used to RST the connection (pre-RFC 5961).
  InjectToServerAt(pipe, sim::Duration::Millis(1), net::tcpflag::kSyn,
                        ServerRcvNxt(pipe) + 40, 0);
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.server->state(), proto::TcpConnection::State::kEstablished);
  EXPECT_FALSE(pipe.server_reset);
  EXPECT_GE(Counter(pipe.server_host, "tcp.challenge_acks"), 1u);

  pipe.ClientSend(" flows");
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.ServerReceivedString(), "payload flows");
}

TEST(Adversarial, AckFarBehindWindowElicitsChallengeAck) {
  harness::TcpPipe pipe(kBlindPipe);
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake(sim::Duration::Millis(200), sim::Duration::Millis(1)));
  pipe.ClientSend("data");
  pipe.sim.RunFor(sim::Duration::Millis(100));

  // Exact in-sequence segment whose ACK is 3 MiB behind snd_una — far
  // outside the kMaxAckBehind tolerance, a blind-guess signature.
  InjectToServerAt(pipe, sim::Duration::Millis(1), net::tcpflag::kAck,
                        ServerRcvNxt(pipe),
                        ServerSndUna(pipe) - (3u << 20));
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.server->state(), proto::TcpConnection::State::kEstablished);
  EXPECT_GE(Counter(pipe.server_host, "tcp.challenge_acks"), 1u);

  pipe.ClientSend(" lives");
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.ServerReceivedString(), "data lives");
}

TEST(Adversarial, ChallengeAcksAreRateLimited) {
  harness::TcpPipe pipe(kBlindPipe);
  pipe.Create();
  ASSERT_TRUE(pipe.Handshake(sim::Duration::Millis(200), sim::Duration::Millis(1)));
  pipe.ClientSend("x");
  pipe.sim.RunFor(sim::Duration::Millis(100));

  // 50 blind RSTs in 10 ms: the bucket (4-deep, 10/s) answers the first
  // burst and swallows the rest — the challenge responder cannot be farmed
  // into an amplifier.
  for (int i = 0; i < 50; ++i) {
    InjectToServerAt(pipe, sim::Duration::Micros(200) * i, net::tcpflag::kRst,
                          ServerRcvNxt(pipe) + 3, 0);
  }
  pipe.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(pipe.server->state(), proto::TcpConnection::State::kEstablished);
  const std::uint64_t sent = Counter(pipe.server_host, "tcp.challenge_acks");
  const std::uint64_t limited =
      Counter(pipe.server_host, "tcp.challenge_acks_ratelimited");
  EXPECT_GE(sent, 1u);
  EXPECT_LE(sent, 6u);
  EXPECT_GE(limited, 44u);
  EXPECT_EQ(sent + limited, 50u);
}

// ---------------------------------------------------------------------------
// Parser hardening: structural lies die at the right layer, counted.
// ---------------------------------------------------------------------------

TEST(Adversarial, MalformedHeadersCountedPerLayer) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  const net::Ipv4Address aip(203, 0, 113, 7);
  sim::Duration at = sim::Duration::Millis(1);
  const sim::Duration step = sim::Duration::Millis(1);

  // Ethernet runt: 10 bytes cannot hold a 14-byte header.
  InjectAt(p.sim, server, at, std::vector<std::uint8_t>(10, 0xaa));
  at = at + step;
  // ARP with an impossible opcode.
  InjectAt(p.sim, server, at,
           ArpReplyFrame(kServerMac, kAttackerMac, aip,
                         kServerMac, kServerIp, /*op=*/9));
  at = at + step;
  // IP header claiming version 5.
  InjectAt(p.sim, server, at,
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kUdp, UdpDatagramBytes(7777, 9999, 8),
                  /*ip_id=*/1, /*frag_raw=*/0, /*version_ihl=*/0x55));
  at = at + step;
  // Fragment whose offset+length runs past the 64 KiB datagram limit.
  InjectAt(p.sim, server, at,
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kUdp, UdpDatagramBytes(7777, 9999, 56),
                  /*ip_id=*/2, /*frag_raw=*/0x1fff));
  at = at + step;
  // ICMP message truncated below its own header.
  InjectAt(p.sim, server, at,
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kIcmp, std::vector<std::uint8_t>{1, 2, 3, 4}));
  at = at + step;
  // UDP length field claiming more bytes than arrived.
  InjectAt(p.sim, server, at,
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kUdp,
                  UdpDatagramBytes(7777, 9999, 8, /*claimed_len=*/100)));
  at = at + step;
  // TCP data offset stretched past the segment's actual bytes.
  auto tcp_lie = TcpSegmentBytes(4444, 80, 1, 0, net::tcpflag::kAck, 4096, aip,
                                 kServerIp);
  tcp_lie[12] = 0xf0;  // claims a 60-byte header in a 20-byte segment
  InjectAt(p.sim, server, at,
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kTcp, tcp_lie));

  p.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_GE(Counter(server, "proto.eth.malformed_drops"), 1u);
  EXPECT_GE(Counter(server, "proto.arp.malformed_drops"), 1u);
  EXPECT_GE(Counter(server, "proto.ip.malformed_drops"), 2u);  // version + frag
  EXPECT_GE(Counter(server, "proto.icmp.malformed_drops"), 1u);
  EXPECT_GE(Counter(server, "proto.udp.malformed_drops"), 1u);
  // Under the batched path the data-offset lie can die at the GRO edge
  // instead of the demux; the sum is mode-invariant.
  EXPECT_GE(Counter(server, "proto.tcp.malformed_drops") +
                Counter(server, "proto.gro.malformed_drops"),
            1u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
}

TEST(Adversarial, FragmentFloodCountBounded) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  // 200 forged first-fragments, each a distinct (src, id) reassembly key
  // that will never complete.
  for (int i = 0; i < 200; ++i) {
    InjectAt(p.sim, server,
             sim::Duration::Millis(1) + sim::Duration::Micros(50) * i,
             WrapIp(kServerMac, kAttackerMac, SpoofedIp(i),
                    kServerIp, net::ipproto::kUdp,
                    UdpDatagramBytes(7777, 9999, 56),
                    static_cast<std::uint16_t>(100 + i), /*frag_raw=*/0x2000));
  }
  p.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_LE(server.ip_layer().pending_reassemblies(), 64u);
  EXPECT_GE(Counter(server, "ip.reasm_overflow_drops"), 136u);

  // The TTL timer drains every parked buffer: the flood holds memory for at
  // most one reassembly timeout.
  p.sim.RunFor(sim::Duration::Seconds(35));
  EXPECT_EQ(server.ip_layer().pending_reassemblies(), 0u);
  EXPECT_EQ(server.ip_layer().reassembly_bytes_held(), 0u);
  EXPECT_GE(Counter(server, "ip.reassembly_timeouts"), 64u);
}

TEST(Adversarial, FragmentFloodBytesBounded) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  // 8 reassembly keys x 60 non-overlapping 1 KiB fragments = 480 KiB
  // offered against a 256 KiB budget. All carry more-fragments, so none
  // completes.
  int n = 0;
  for (int key = 0; key < 8; ++key) {
    for (int j = 0; j < 60; ++j, ++n) {
      const std::uint16_t frag_raw = static_cast<std::uint16_t>(
          0x2000 | ((j * 1024) / 8));
      auto l4 = std::vector<std::uint8_t>(1024, static_cast<std::uint8_t>(j));
      InjectAt(p.sim, server,
               sim::Duration::Millis(1) + sim::Duration::Micros(20) * n,
               WrapIp(kServerMac, kAttackerMac, SpoofedIp(key),
                      kServerIp, net::ipproto::kUdp, l4,
                      static_cast<std::uint16_t>(500 + key), frag_raw));
    }
  }
  p.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_LE(server.ip_layer().reassembly_bytes_held(), 256u * 1024u);
  EXPECT_GE(Counter(server, "ip.reasm_overflow_drops"), 1u);

  p.sim.RunFor(sim::Duration::Seconds(35));
  EXPECT_EQ(server.ip_layer().pending_reassemblies(), 0u);
  EXPECT_EQ(server.ip_layer().reassembly_bytes_held(), 0u);
}

TEST(Adversarial, OverlappingFragmentsDropWholeBuffer) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  const net::Ipv4Address aip(203, 0, 113, 7);
  // Key 42: offset 0 then an overlapping offset 32 — RFC 5722 says the
  // whole buffer dies.
  InjectAt(p.sim, server, sim::Duration::Millis(1),
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kUdp, std::vector<std::uint8_t>(64, 0x11),
                  /*ip_id=*/42, /*frag_raw=*/0x2000));
  InjectAt(p.sim, server, sim::Duration::Millis(2),
           WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                  net::ipproto::kUdp, std::vector<std::uint8_t>(64, 0x22),
                  /*ip_id=*/42, /*frag_raw=*/0x2000 | (32 / 8)));
  // Key 43: an exact duplicate is a retransmission, not an attack.
  for (int i = 0; i < 2; ++i) {
    InjectAt(p.sim, server, sim::Duration::Millis(3) + sim::Duration::Millis(i),
             WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                    net::ipproto::kUdp, std::vector<std::uint8_t>(64, 0x33),
                    /*ip_id=*/43, /*frag_raw=*/0x2000));
  }
  p.sim.RunFor(sim::Duration::Millis(100));
  // 42 died (overlap), 43 survives (exact dup replaced in place).
  EXPECT_EQ(server.ip_layer().pending_reassemblies(), 1u);
  EXPECT_GE(Counter(server, "proto.ip.malformed_drops"), 1u);
  p.sim.RunFor(sim::Duration::Seconds(35));
  EXPECT_EQ(server.ip_layer().pending_reassemblies(), 0u);
}

TEST(Adversarial, OrphanRstResponderIsRateLimited) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  const net::Ipv4Address aip(203, 0, 113, 9);
  // 200 spoofed orphan segments in 10 ms, each demanding a RST reflection.
  for (int i = 0; i < 200; ++i) {
    auto seg = TcpSegmentBytes(4444, 7000, static_cast<std::uint32_t>(i), 99,
                               net::tcpflag::kAck, 4096, aip, kServerIp);
    InjectAt(p.sim, server,
             sim::Duration::Millis(1) + sim::Duration::Micros(50) * i,
             WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                    net::ipproto::kTcp, seg));
  }
  p.sim.RunFor(sim::Duration::Seconds(1));
  // The bucket (64-deep, 256/s) answered the head of the burst and counted
  // the rest; the RSTs it did emit died at no-route (spoofed source).
  EXPECT_GE(Counter(server, "tcp.rst_ratelimited"), 100u);
  EXPECT_LE(Counter(server, "tcp.rst_ratelimited"), 136u);
  EXPECT_GE(Counter(server, "ip.no_route"), 1u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
}

TEST(Adversarial, IcmpErrorsAreRateLimited) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  const net::Ipv4Address aip(203, 0, 113, 11);
  // 200 datagrams to a dead port in 10 ms: each wants a port-unreachable.
  for (int i = 0; i < 200; ++i) {
    InjectAt(p.sim, server,
             sim::Duration::Millis(1) + sim::Duration::Micros(50) * i,
             WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                    net::ipproto::kUdp, UdpDatagramBytes(4444, 9999, 24)));
  }
  p.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_GE(Counter(server, "icmp.ratelimited"), 100u);
  EXPECT_EQ(server.icmp().stats().ratelimited,
            Counter(server, "icmp.ratelimited"));
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
}

TEST(Adversarial, ArpResolutionFloodIsBounded) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  int failed_now = 0;
  server.Run([&] {
    for (int i = 0; i < 600; ++i) {
      const net::Ipv4Address target(172, 16, static_cast<std::uint8_t>(i / 250),
                                    static_cast<std::uint8_t>(1 + i % 250));
      server.arp().Resolve(target, [&failed_now](std::optional<net::MacAddress> mac) {
        if (!mac) ++failed_now;
      });
    }
  });
  p.sim.RunFor(sim::Duration::Millis(10));
  // The pending table capped at 512: the overflow failed immediately
  // instead of buying timers and waiter lists.
  EXPECT_GE(Counter(server, "arp.pending_overflow"), 88u);
  EXPECT_GE(failed_now, 88);
  // Every resolution (parked or shed) eventually fails — nothing leaks.
  p.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(failed_now, 600);
  EXPECT_EQ(server.arp().stats().resolution_failures, 600u);
}

TEST(Adversarial, AcceptedKeepAliveSweepBoundsConnectionChurn) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  int verified = 0;
  std::size_t server_got = 0;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  ASSERT_TRUE(server.tcp().Listen(
      80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        core::PlexusTcpEndpoint* raw = ep.get();
        raw->SetOnData([&server_got](std::span<const std::byte> d) { server_got += d.size(); });
        raw->SetOnClose([&verified, raw] {
          ++verified;
          raw->CloseStream();
        });
        keep.push_back(std::move(ep));
      }));

  constexpr int kConns = 200;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> conns(kConns);
  int closed = 0;
  std::vector<std::byte> blob(128, std::byte{0x5a});
  for (int i = 0; i < kConns; ++i) {
    p.sim.Schedule(sim::Duration::Millis(10) * i, [&, i] {
      client.Run([&, i] {
        auto& ep = conns[static_cast<std::size_t>(i)];
        ep = client.tcp().Connect(kServerIp, 80);
        ep->SetOnClose([&] { ++closed; });
        ep->SetOnEstablished([&, i] {
          auto& cc = conns[static_cast<std::size_t>(i)];
          cc->Write(blob);
          cc->CloseStream();
        });
      });
    });
  }
  for (int rounds = 0; rounds < 60 && closed < kConns; ++rounds) {
    p.sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_EQ(closed, kConns);
  EXPECT_EQ(verified, kConns);
  EXPECT_EQ(server_got, blob.size() * kConns);
  // The amortized sweep reaped closed keep-alives as churn crossed each
  // watermark — without it this sits at kConns.
  EXPECT_LE(server.tcp().accepted_keepalive_count(), 150u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
}

// ---------------------------------------------------------------------------
// Structure-aware fuzzing: modest tier-1 corpus + mode-identity accounting.
// The 1000-seed sweep is fuzz_property_test.cc (label: slow).
// ---------------------------------------------------------------------------

TEST(Adversarial, FuzzCorpusModestSeedsHoldInvariants) {
  std::uint64_t malformed_total = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const adversarial::FuzzOutcome out = adversarial::RunFuzzScenario(seed, 30);
    EXPECT_TRUE(out.transfer_exact) << "seed " << seed;
    EXPECT_EQ(out.quarantines, 0u) << "seed " << seed;
    EXPECT_TRUE(out.pools_drained) << "seed " << seed;
    malformed_total += out.malformed_total;
  }
  // The mutator actually reached the validators.
  EXPECT_GT(malformed_total, 0u);
}

// Counts tcp+gro malformed drops for a burst of 40 TCP runts in one mode.
std::uint64_t RuntAccounting(bool batch_on) {
  ScopedBatchMode mode(batch_on);
  std::uint64_t sum = 0;
  {
    harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
    const net::Ipv4Address aip(203, 0, 113, 7);
    // 12 bytes of "TCP" — dies at the structural check whichever edge
    // (GRO under batching, demux per-packet) sees it first.
    std::vector<std::uint8_t> runt(12);
    for (std::size_t i = 0; i < runt.size(); ++i) {
      runt[i] = static_cast<std::uint8_t>(i + 1);
    }
    for (int i = 0; i < 40; ++i) {
      InjectAt(p.sim, server, sim::Duration::Millis(1),
               WrapIp(kServerMac, kAttackerMac, aip, kServerIp,
                      net::ipproto::kTcp, runt,
                      static_cast<std::uint16_t>(1 + i)));
    }
    p.sim.RunFor(sim::Duration::Seconds(1));
    sum = Counter(server, "proto.tcp.malformed_drops") +
          Counter(server, "proto.gro.malformed_drops");
  }
  return sum;
}

TEST(Adversarial, MalformedAccountingIdenticalAcrossBatchModes) {
  // Runts die at the manager's demux guard — the one choke point both rx
  // modes share — so attribution lands on proto.tcp in both; the tcp+gro
  // sum is asserted so the property survives either attribution choice:
  // nothing double-counted, nothing silently swallowed.
  const std::uint64_t batched = RuntAccounting(true);
  const std::uint64_t per_packet = RuntAccounting(false);
  EXPECT_EQ(batched, 40u);
  EXPECT_EQ(per_packet, 40u);
}

}  // namespace
