// ICMP: echo request/reply (ping), destination-unreachable and
// time-exceeded generation, with a callback hook for echo clients.
#ifndef PLEXUS_PROTO_ICMP_H_
#define PLEXUS_PROTO_ICMP_H_

#include <cstdint>
#include <functional>

#include "net/address.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "proto/ratelimit.h"
#include "sim/host.h"

namespace proto {

class Ipv4Layer;

class IcmpLayer {
 public:
  // Fired on receipt of an echo reply addressed to us.
  using EchoReplyCallback =
      std::function<void(net::Ipv4Address from, std::uint16_t id, std::uint16_t seq)>;

  IcmpLayer(sim::Host& host, Ipv4Layer& ip);

  void SetEchoReplyCallback(EchoReplyCallback cb) { on_echo_reply_ = std::move(cb); }

  // Sends an echo request with `payload_len` bytes of pattern data.
  void SendEchoRequest(net::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                       std::size_t payload_len = 0);

  // Sends an ICMP error about a received packet's header.
  void SendError(const net::Ipv4Header& offending, std::uint8_t type, std::uint8_t code);
  // Answers a UDP datagram from `src` to `dst` that no socket claimed with
  // port unreachable, like any BSD-derived kernel. Broadcast and multicast
  // datagrams are owed no error: for them it sends nothing and returns
  // false.
  bool SendPortUnreachable(net::Ipv4Address src, net::Ipv4Address dst);

  // ICMP payload from IP (IP header stripped).
  void Input(net::MbufPtr packet, net::Ipv4Address src_ip);

  struct Stats {
    std::uint64_t echo_requests_sent = 0;
    std::uint64_t echo_replies_sent = 0;
    std::uint64_t echo_replies_received = 0;
    std::uint64_t errors_sent = 0;
    std::uint64_t errors_received = 0;
    std::uint64_t rx_bad = 0;
    std::uint64_t ratelimited = 0;  // errors suppressed by the token bucket
  };
  const Stats& stats() const { return stats_; }

 private:
  void Send(net::MbufPtr packet, net::Ipv4Address dst);

  sim::Host& host_;
  Ipv4Layer& ip_;
  EchoReplyCallback on_echo_reply_;
  Stats stats_;
  // Error emission is bounded so a spoofed-source datagram flood cannot use
  // this host as a reflection amplifier (nor drain its egress pool). Echo
  // replies are deliberately not limited — answering pings is workload.
  TokenBucket error_bucket_{64, 256};
  // Lazily resolved: only hostile runs grow these instruments (keeps
  // fault-free metrics snapshots byte-identical).
  sim::Counter* ratelimited_ = nullptr;  // icmp.ratelimited
  sim::Counter* malformed_ = nullptr;    // proto.icmp.malformed_drops
};

}  // namespace proto

#endif  // PLEXUS_PROTO_ICMP_H_
