// UDP: datagram framing, optional checksum, and a port-demux table.
//
// The checksum is optional per datagram — the paper's Section 1.1 motivating
// example is "an implementation of UDP for which the checksum has been
// disabled" for applications where data integrity is optional (audio/video).
// Under Plexus that choice is made per application extension; under the
// baseline it is a socket option.
#ifndef PLEXUS_PROTO_UDP_H_
#define PLEXUS_PROTO_UDP_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "net/address.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "sim/host.h"

namespace proto {

class Ipv4Layer;

struct UdpDatagram {
  net::Ipv4Address src_ip;
  std::uint16_t src_port = 0;
  net::Ipv4Address dst_ip;
  std::uint16_t dst_port = 0;
};

class UdpLayer {
 public:
  // Receives the payload (UDP header stripped) and addressing info.
  using Receiver = std::function<void(net::MbufPtr payload, const UdpDatagram& info)>;

  UdpLayer(sim::Host& host, Ipv4Layer& ip);

  // Sends a datagram. `checksum` controls whether the UDP checksum is
  // computed (and its per-byte CPU cost paid).
  void Output(net::MbufPtr payload, net::Ipv4Address src_ip, std::uint16_t src_port,
              net::Ipv4Address dst_ip, std::uint16_t dst_port, bool checksum = true);

  // Full UDP packet (header + payload) from IP. Validates, strips, demuxes
  // to the bound receiver (if any) or the catch-all.
  void Input(net::MbufPtr packet, net::Ipv4Address src_ip, net::Ipv4Address dst_ip);

  // Port demux used by the monolithic wiring. Returns false if in use.
  bool Bind(std::uint16_t port, Receiver receiver);
  void Unbind(std::uint16_t port);

  // Receiver for packets with no bound port (Plexus wiring installs the
  // graph's own demux here; also useful for port-unreachable generation).
  void SetDefaultReceiver(Receiver r) { default_receiver_ = std::move(r); }

  struct Stats {
    std::uint64_t tx_datagrams = 0;
    std::uint64_t rx_datagrams = 0;
    std::uint64_t rx_bad_checksum = 0;
    std::uint64_t rx_bad_header = 0;
    std::uint64_t rx_no_port = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void CountMalformed();

  sim::Host& host_;
  Ipv4Layer& ip_;
  std::unordered_map<std::uint16_t, Receiver> receivers_;
  Receiver default_receiver_;
  Stats stats_;
  // Lazily resolved: only runs that see truncated/lying headers grow the
  // instrument (keeps fault-free metrics snapshots byte-identical).
  sim::Counter* malformed_ = nullptr;  // proto.udp.malformed_drops
};

}  // namespace proto

#endif  // PLEXUS_PROTO_UDP_H_
