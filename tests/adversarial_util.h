// Shared forging kit for the hostile-traffic suites (adversarial_test,
// fuzz_property_test, bench_adversarial).
//
// Frames are built as raw byte vectors with the wire offsets written out
// longhand — an attacker does not use the victim's header abstractions, and
// several tests need frames the abstractions cannot express (length lies,
// truncations, garbage options). Checksums are sealed with the stack's own
// TransportChecksum so crafted-but-valid frames survive verification and
// reach the state machines they target.
#ifndef PLEXUS_TESTS_ADVERSARIAL_UTIL_H_
#define PLEXUS_TESTS_ADVERSARIAL_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/plexus.h"
#include "drivers/medium.h"
#include "net/address.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net_harness.h"
#include "packet_mutator.h"
#include "proto/transport_checksum.h"
#include "sim/simulator.h"
#include "sim/slab.h"

namespace adversarial {

inline constexpr std::size_t kEthLen = sizeof(net::EthernetHeader);  // 14
inline constexpr std::size_t kIpLen = sizeof(net::Ipv4Header);       // 20

// A TCP segment (header + optional payload) with a valid transport checksum
// for the given IP pair. The checksum is computed by the stack's own
// pseudo-header routine so crafted segments are indistinguishable from real
// ones at the verification line.
inline std::vector<std::uint8_t> TcpSegmentBytes(
    std::uint16_t src_port, std::uint16_t dst_port, std::uint32_t seq,
    std::uint32_t ack, std::uint8_t flags, std::uint16_t window,
    net::Ipv4Address src_ip, net::Ipv4Address dst_ip,
    std::span<const std::uint8_t> payload = {}) {
  std::vector<std::uint8_t> seg(sizeof(net::TcpHeader) + payload.size());
  net::TcpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.seq = seq;
  h.ack = ack;
  h.flags = flags;
  h.window = window;
  std::memcpy(seg.data(), &h, sizeof(h));
  if (!payload.empty()) {
    std::memcpy(seg.data() + sizeof(h), payload.data(), payload.size());
  }
  auto m = net::Mbuf::FromBytes(std::as_bytes(std::span<const std::uint8_t>(seg)));
  const std::uint16_t cks =
      proto::TransportChecksum(src_ip, dst_ip, net::ipproto::kTcp, *m);
  seg[16] = static_cast<std::uint8_t>(cks >> 8);
  seg[17] = static_cast<std::uint8_t>(cks & 0xff);
  return seg;
}

// A UDP datagram. checksum 0 = "not computed", which the receiver accepts
// (the paper's integrity-optional option) — convenient for spoofed floods.
// `claimed_len` lets a test lie about the length field.
inline std::vector<std::uint8_t> UdpDatagramBytes(std::uint16_t src_port,
                                                  std::uint16_t dst_port,
                                                  std::size_t payload_len,
                                                  int claimed_len = -1) {
  std::vector<std::uint8_t> d(sizeof(net::UdpHeader) + payload_len);
  net::UdpHeader h;
  h.src_port = src_port;
  h.dst_port = dst_port;
  h.length = static_cast<std::uint16_t>(
      claimed_len >= 0 ? claimed_len : sizeof(net::UdpHeader) + payload_len);
  std::memcpy(d.data(), &h, sizeof(h));
  for (std::size_t i = 0; i < payload_len; ++i) {
    d[sizeof(h) + i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  return d;
}

// An ICMP echo request with a valid message checksum.
inline std::vector<std::uint8_t> IcmpEchoBytes(std::size_t payload_len) {
  std::vector<std::uint8_t> m(sizeof(net::IcmpHeader) + payload_len);
  m[0] = net::icmptype::kEchoRequest;
  for (std::size_t i = 0; i < payload_len; ++i) {
    m[sizeof(net::IcmpHeader) + i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::uint16_t cks = net::Checksum(std::as_bytes(std::span(m)));
  m[2] = static_cast<std::uint8_t>(cks >> 8);
  m[3] = static_cast<std::uint8_t>(cks & 0xff);
  return m;
}

// Wraps an L4 payload in Ethernet + IPv4 with a valid IP header checksum.
// `frag_raw` is the raw flags_fragment field (0x2000 = more-fragments bit,
// low 13 bits = offset in 8-byte units); `version_ihl` can lie for the
// structural-validation tests.
inline std::vector<std::uint8_t> WrapIp(net::MacAddress dst_mac,
                                        net::MacAddress src_mac,
                                        net::Ipv4Address src_ip,
                                        net::Ipv4Address dst_ip,
                                        std::uint8_t protocol,
                                        std::span<const std::uint8_t> l4,
                                        std::uint16_t ip_id = 1,
                                        std::uint16_t frag_raw = 0,
                                        std::uint8_t version_ihl = 0x45) {
  std::vector<std::uint8_t> f(kEthLen + kIpLen + l4.size());
  net::EthernetHeader eth;
  eth.dst = dst_mac;
  eth.src = src_mac;
  eth.type = net::ethertype::kIpv4;
  std::memcpy(f.data(), &eth, kEthLen);
  net::Ipv4Header ip;
  ip.version_ihl = version_ihl;
  ip.total_length = static_cast<std::uint16_t>(kIpLen + l4.size());
  ip.id = ip_id;
  ip.flags_fragment = frag_raw;
  ip.protocol = protocol;
  ip.src = src_ip;
  ip.dst = dst_ip;
  std::memcpy(f.data() + kEthLen, &ip, kIpLen);
  const std::uint16_t cks = net::Checksum(std::as_bytes(std::span(f).subspan(kEthLen, kIpLen)));
  f[kEthLen + 10] = static_cast<std::uint8_t>(cks >> 8);
  f[kEthLen + 11] = static_cast<std::uint8_t>(cks & 0xff);
  if (!l4.empty()) {
    std::memcpy(f.data() + kEthLen + kIpLen, l4.data(), l4.size());
  }
  return f;
}

// A (bogus) ARP reply frame.
inline std::vector<std::uint8_t> ArpReplyFrame(net::MacAddress dst_mac,
                                               net::MacAddress sender_mac,
                                               net::Ipv4Address sender_ip,
                                               net::MacAddress target_mac,
                                               net::Ipv4Address target_ip,
                                               std::uint16_t op = net::arpop::kReply) {
  std::vector<std::uint8_t> f(kEthLen + sizeof(net::ArpPacket));
  net::EthernetHeader eth;
  eth.dst = dst_mac;
  eth.src = sender_mac;
  eth.type = net::ethertype::kArp;
  std::memcpy(f.data(), &eth, kEthLen);
  net::ArpPacket arp;
  arp.htype = 1;
  arp.ptype = net::ethertype::kIpv4;
  arp.op = op;
  arp.sender_mac = sender_mac;
  arp.sender_ip = sender_ip;
  arp.target_mac = target_mac;
  arp.target_ip = target_ip;
  std::memcpy(f.data() + kEthLen, &arp, sizeof(arp));
  return f;
}

// Delivers a forged frame straight into the victim's NIC at virtual time
// `at` (relative to now). check_address=false: the wire tap sees whatever
// the attacker put on the segment, MAC filtering notwithstanding.
inline void InjectAt(sim::Simulator& sim, core::PlexusHost& victim,
                     sim::Duration at, std::vector<std::uint8_t> frame) {
  sim.Schedule(at, [&victim, f = std::move(frame)] {
    victim.nic().DeliverFromWire(
        net::Mbuf::FromBytes(std::as_bytes(std::span<const std::uint8_t>(f))),
        /*check_address=*/false);
  });
}

// Hostile frame templates aimed at one victim, all structurally valid before
// mutation and all on NON-live 4-tuples (attacker 203.0.113.7), so no
// mutation can collide with a legitimate flow's connection state.
inline std::vector<std::vector<std::uint8_t>> HostileTemplates(
    net::MacAddress victim_mac, net::Ipv4Address victim_ip) {
  const net::MacAddress amac = net::MacAddress::FromId(0x66);
  const net::Ipv4Address aip(203, 0, 113, 7);
  std::vector<std::vector<std::uint8_t>> t;
  // A SYN at the listening port (exercises backlog/cookie paths).
  t.push_back(WrapIp(victim_mac, amac, aip, victim_ip, net::ipproto::kTcp,
                     TcpSegmentBytes(5555, 80, 0x1111, 0, net::tcpflag::kSyn,
                                     4096, aip, victim_ip)));
  // An orphan data segment (exercises the RST responder + cookie validator).
  std::vector<std::uint8_t> payload(32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 3 + 9);
  }
  t.push_back(WrapIp(victim_mac, amac, aip, victim_ip, net::ipproto::kTcp,
                     TcpSegmentBytes(6666, 80, 0x2222, 0x3333,
                                     net::tcpflag::kAck | net::tcpflag::kPsh,
                                     4096, aip, victim_ip, payload)));
  // A UDP datagram to an unclaimed port (exercises the ICMP error path).
  t.push_back(WrapIp(victim_mac, amac, aip, victim_ip, net::ipproto::kUdp,
                     UdpDatagramBytes(7777, 9999, 40)));
  // An ICMP echo request.
  t.push_back(WrapIp(victim_mac, amac, aip, victim_ip, net::ipproto::kIcmp,
                     IcmpEchoBytes(16)));
  // A first fragment that never completes (exercises reassembly bounds).
  t.push_back(WrapIp(victim_mac, amac, aip, victim_ip, net::ipproto::kUdp,
                     UdpDatagramBytes(7777, 9999, 56), /*ip_id=*/77,
                     /*frag_raw=*/0x2000));
  // A gratuitous ARP reply for an address nobody asked about.
  t.push_back(ArpReplyFrame(victim_mac, amac, aip, victim_mac, victim_ip));
  return t;
}

// The hostile-traffic network: the victim server at 10.0.0.1 and a
// legitimate client at 10.0.0.2 on one segment, ARP warmed, with the
// server's retransmission ceiling lowered so embryonic TCBs from SYN floods
// die within tens of virtual seconds instead of minutes.
inline constexpr net::Ipv4Address kServerIp = harness::Lan::Ip(1);
inline constexpr net::Ipv4Address kClientIp = harness::Lan::Ip(2);
inline constexpr net::MacAddress kServerMac = harness::Lan::Mac(1);
inline constexpr net::MacAddress kClientMac = harness::Lan::Mac(2);

inline std::pair<core::PlexusHost&, core::PlexusHost&> AddServerAndClient(harness::Lan& lan) {
  core::PlexusHost& server = lan.AddPlexus(1, "server");
  core::PlexusHost& client = lan.AddPlexus(2, "client");
  lan.WarmArp();
  proto::TcpConfig cfg = server.tcp().config();
  cfg.rto_max = sim::Duration::Seconds(2);
  server.tcp().set_config(cfg);
  return {server, client};
}

inline std::uint64_t Counter(sim::Host& h, const char* name) {
  return h.metrics().counter(name).value();
}
inline std::uint64_t Counter(proto::HostStack& h, const char* name) {
  return Counter(h.host(), name);
}

// One seeded fuzz scenario: a legitimate 4 KiB transfer on port 80 while
// `frames` structure-aware mutated hostile frames spray the server's NIC.
// Returns the invariants the property harness asserts: the transfer's bytes
// survived exactly, nothing was quarantined, and every pooled buffer came
// back once the engine quiesced. Templates live on non-live 4-tuples, so a
// corrupted transfer means hardening failed, not test aliasing.
struct FuzzOutcome {
  bool transfer_exact = false;
  bool pools_drained = false;
  std::uint64_t quarantines = 0;
  std::uint64_t malformed_total = 0;
};

inline FuzzOutcome RunFuzzScenario(std::uint64_t seed, int frames) {
  harness::Lan p;
  auto [server, client] = AddServerAndClient(p);
  std::vector<std::byte> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((seed + i * 31) & 0xff);
  }

  std::vector<std::byte> received;
  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
  proto::ListenOptions opts;
  opts.syn_backlog = 32;
  server.tcp().Listen(
      80,
      [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
        core::PlexusTcpEndpoint* raw = ep.get();
        raw->SetOnData([&received](std::span<const std::byte> d) {
          received.insert(received.end(), d.begin(), d.end());
        });
        raw->SetOnClose([raw] { raw->CloseStream(); });
        keep.push_back(std::move(ep));
      },
      opts);

  std::shared_ptr<core::PlexusTcpEndpoint> cep;
  p.sim.Schedule(sim::Duration::Millis(1), [&] {
    client.Run([&] {
      cep = client.tcp().Connect(kServerIp, 80);
      cep->SetOnEstablished([&] {
        cep->Write(payload);
        cep->CloseStream();
      });
    });
  });

  PacketMutator mut(seed);
  const auto templates = HostileTemplates(kServerMac, kServerIp);
  for (int i = 0; i < frames; ++i) {
    std::vector<std::uint8_t> f =
        templates[static_cast<std::size_t>(i) % templates.size()];
    mut.Mutate(f);
    InjectAt(p.sim, server,
             sim::Duration::Millis(2) + sim::Duration::Micros(150) * i,
             std::move(f));
  }

  // 40 virtual seconds: the transfer completes in the first, embryonic TCBs
  // from mutated SYNs exhaust their backoff (~25 s at rto_max 2 s), parked
  // fragments hit the 30 s reassembly timeout, and the wire drains.
  p.sim.RunFor(sim::Duration::Seconds(40));

  FuzzOutcome out;
  out.transfer_exact = received == payload;
  out.quarantines = server.dispatcher().stats().quarantines +
                    client.dispatcher().stats().quarantines;
  for (const char* c :
       {"proto.eth.malformed_drops", "proto.arp.malformed_drops",
        "proto.ip.malformed_drops", "proto.icmp.malformed_drops",
        "proto.udp.malformed_drops", "proto.tcp.malformed_drops",
        "proto.gro.malformed_drops"}) {
    out.malformed_total += Counter(server, c);
  }
  out.pools_drained = server.mbuf_pool().in_use() == 0 &&
                      client.mbuf_pool().in_use() == 0 &&
                      sim::SlabRegistry::InUse("mbuf") == 0;
  return out;
}

}  // namespace adversarial

#endif  // PLEXUS_TESTS_ADVERSARIAL_UTIL_H_
