// IPv4: output with routing + fragmentation, input with validation,
// reassembly, local delivery, and optional forwarding (the substrate for
// the paper's in-kernel packet forwarding protocol, Section 5).
#ifndef PLEXUS_PROTO_IP_H_
#define PLEXUS_PROTO_IP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/address.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace proto {

// Longest-prefix-match routing table. next_hop == Any() means the
// destination is on-link (deliver to its own MAC). Each route names the
// outgoing interface (if_index 0 is the primary NIC).
class RoutingTable {
 public:
  struct Route {
    net::Ipv4Address network;
    int prefix_len = 0;
    net::Ipv4Address next_hop;  // Any() = on-link
    int if_index = 0;
  };

  void Add(net::Ipv4Address network, int prefix_len,
           net::Ipv4Address next_hop = net::Ipv4Address::Any(), int if_index = 0) {
    routes_.push_back(Route{network, prefix_len, next_hop, if_index});
  }
  void AddDefault(net::Ipv4Address gateway, int if_index = 0) {
    Add(net::Ipv4Address::Any(), 0, gateway, if_index);
  }

  std::optional<Route> Lookup(net::Ipv4Address dst) const {
    const Route* best = nullptr;
    for (const Route& r : routes_) {
      if (dst.InSubnet(r.network, r.prefix_len)) {
        if (best == nullptr || r.prefix_len > best->prefix_len) best = &r;
      }
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }

  std::size_t size() const { return routes_.size(); }

 private:
  std::vector<Route> routes_;
};

class Ipv4Layer {
 public:
  struct Config {
    net::Ipv4Address address;  // interface 0 (the primary NIC)
    int prefix_len = 24;
    std::size_t mtu = 1500;
    sim::Duration reassembly_timeout = sim::Duration::Seconds(30);
    bool forwarding_enabled = false;
    // Fragment-flood containment: hard caps on concurrent reassemblies and
    // on the total bytes parked across all of them. A spoofed-source
    // fragment flood otherwise buys 64 KiB of buffer per forged (src, id)
    // pair for the price of one runt fragment, held for the whole
    // reassembly_timeout.
    std::size_t max_reassemblies = 64;
    std::size_t max_reassembly_bytes = 256 * 1024;
  };

  // An additional attachment (multi-homed hosts / routers).
  struct Interface {
    net::Ipv4Address address;
    int prefix_len = 24;
    std::size_t mtu = 1500;
  };

  // Hands a finished IP packet (header included), the resolved next-hop IP,
  // and the outgoing interface to the link-layer glue (ARP + framing).
  using Transmit =
      std::function<void(net::MbufPtr packet, net::Ipv4Address next_hop, int if_index)>;
  // Delivers a reassembled L4 payload (IP header stripped) plus the header.
  using Deliver = std::function<void(net::MbufPtr payload, const net::Ipv4Header& hdr)>;
  // Invoked for packets we should forward but whose TTL expired, or for
  // unreachable destinations (used by ICMP glue).
  using IcmpNotify = std::function<void(const net::Ipv4Header& hdr, std::uint8_t icmp_type,
                                        std::uint8_t code)>;

  Ipv4Layer(sim::Host& host, Config config)
      : host_(host),
        config_(config),
        tx_packets_(host.metrics().counter("ip.tx_packets")),
        tx_fragments_(host.metrics().counter("ip.tx_fragments")),
        rx_packets_(host.metrics().counter("ip.rx_packets")),
        rx_bad_checksum_(host.metrics().counter("ip.rx_bad_checksum")),
        rx_bad_header_(host.metrics().counter("ip.rx_bad_header")),
        rx_fragments_(host.metrics().counter("ip.rx_fragments")),
        reassembled_(host.metrics().counter("ip.reassembled")),
        reassembly_timeouts_(host.metrics().counter("ip.reassembly_timeouts")),
        forwarded_(host.metrics().counter("ip.forwarded")),
        ttl_exceeded_(host.metrics().counter("ip.ttl_exceeded")),
        no_route_(host.metrics().counter("ip.no_route")) {
    AddConnectedRoute(0, config.address, config.prefix_len);
  }
  // Cancels outstanding reassembly timers: the layer can die (host crash)
  // with fragments still buffered.
  ~Ipv4Layer() {
    for (auto& [key, buf] : reassembly_) host_.simulator().Cancel(buf.timer);
  }
  Ipv4Layer(const Ipv4Layer&) = delete;
  Ipv4Layer& operator=(const Ipv4Layer&) = delete;

  const Config& config() const { return config_; }
  net::Ipv4Address address() const { return config_.address; }
  RoutingTable& routes() { return routes_; }
  void set_forwarding(bool on) { config_.forwarding_enabled = on; }

  // Registers interface `if_index` (> 0); interface 0 comes from Config.
  // Like the primary, it brings its connected route.
  void AddInterface(int if_index, Interface iface) {
    extra_ifaces_[if_index] = iface;
    AddConnectedRoute(if_index, iface.address, iface.prefix_len);
  }

  // Address/prefix/mtu of an interface (0 = primary).
  Interface InterfaceInfo(int if_index) const {
    if (if_index == 0) return Interface{config_.address, config_.prefix_len, config_.mtu};
    auto it = extra_ifaces_.find(if_index);
    return it != extra_ifaces_.end() ? it->second : Interface{};
  }

  // The source address the routing decision would assign for packets to
  // `dst` (the outgoing interface's address; the primary address if there
  // is no route — Output will drop such packets anyway).
  net::Ipv4Address SourceForDestination(net::Ipv4Address dst) const {
    auto route = routes_.Lookup(dst);
    if (!route) return config_.address;
    return InterfaceInfo(route->if_index).address;
  }

  // True if `a` is any of this host's addresses.
  bool IsLocalAddress(net::Ipv4Address a) const {
    if (a == config_.address) return true;
    for (const auto& [_, iface] : extra_ifaces_) {
      if (iface.address == a) return true;
    }
    return false;
  }

  void SetTransmit(Transmit t) { transmit_ = std::move(t); }
  void SetDeliver(Deliver d) { deliver_ = std::move(d); }
  void SetIcmpNotify(IcmpNotify n) { icmp_notify_ = std::move(n); }

  // Builds header(s), fragments if needed, routes, and transmits.
  // src == Any() uses the configured interface address.
  void Output(net::MbufPtr payload, net::Ipv4Address src, net::Ipv4Address dst,
              std::uint8_t protocol, std::uint8_t ttl = 64);

  // Full IP packet from the link layer.
  void Input(net::MbufPtr packet);

  struct Stats {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_fragments = 0;
    std::uint64_t rx_packets = 0;
    std::uint64_t rx_bad_checksum = 0;
    std::uint64_t rx_bad_header = 0;
    std::uint64_t rx_fragments = 0;
    std::uint64_t reassembled = 0;
    std::uint64_t reassembly_timeouts = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t ttl_exceeded = 0;
    std::uint64_t no_route = 0;
  };
  // Snapshot of the registry-backed "ip.*" counters in host.metrics().
  Stats stats() const {
    return Stats{tx_packets_.value(),    tx_fragments_.value(),
                 rx_packets_.value(),    rx_bad_checksum_.value(),
                 rx_bad_header_.value(), rx_fragments_.value(),
                 reassembled_.value(),   reassembly_timeouts_.value(),
                 forwarded_.value(),     ttl_exceeded_.value(),
                 no_route_.value()};
  }

  // Exposed for tests.
  std::size_t pending_reassemblies() const { return reassembly_.size(); }
  std::size_t reassembly_bytes_held() const { return reasm_bytes_; }

 private:
  // An address brings its connected route: its network, on-link, out of
  // its own interface (BSD's in_ifinit).
  void AddConnectedRoute(int if_index, net::Ipv4Address address, int prefix_len) {
    routes_.Add(address.Network(prefix_len), prefix_len, net::Ipv4Address::Any(), if_index);
  }

  struct ReasmKey {
    std::uint32_t src, dst;
    std::uint16_t id;
    std::uint8_t proto;
    auto operator<=>(const ReasmKey&) const = default;
  };
  struct ReasmBuf {
    std::map<std::size_t, std::vector<std::byte>> parts;  // offset -> bytes
    std::optional<std::size_t> total_len;                 // known once last frag seen
    net::Ipv4Header first_hdr;
    bool have_first = false;
    sim::EventId timer = sim::kInvalidEventId;
    // Mbuf::FromBytes builds the reassembled packet with a fresh pkthdr;
    // the first arriving fragment's trace id is stashed here and restored
    // so a traced packet survives fragmentation end to end.
    std::uint64_t trace_id = 0;
  };

  void RouteAndTransmit(net::MbufPtr packet, net::Ipv4Address dst);
  void HandleFragment(net::MbufPtr packet, const net::Ipv4Header& hdr);
  void ForwardPacket(net::MbufPtr packet, net::Ipv4Header hdr);
  void CountMalformed();
  // Drops one reassembly buffer, returning its bytes to the budget.
  void ReleaseReassembly(std::map<ReasmKey, ReasmBuf>::iterator it, bool cancel_timer);

  sim::Host& host_;
  Config config_;
  std::map<int, Interface> extra_ifaces_;
  RoutingTable routes_;
  Transmit transmit_;
  Deliver deliver_;
  IcmpNotify icmp_notify_;
  std::map<ReasmKey, ReasmBuf> reassembly_;
  std::size_t reasm_bytes_ = 0;  // total payload bytes parked across buffers
  std::uint16_t next_id_ = 1;
  sim::Counter& tx_packets_;
  sim::Counter& tx_fragments_;
  sim::Counter& rx_packets_;
  sim::Counter& rx_bad_checksum_;
  sim::Counter& rx_bad_header_;
  sim::Counter& rx_fragments_;
  sim::Counter& reassembled_;
  sim::Counter& reassembly_timeouts_;
  sim::Counter& forwarded_;
  sim::Counter& ttl_exceeded_;
  sim::Counter& no_route_;
  // Lazily resolved: only hostile runs grow these instruments (keeps
  // fault-free metrics snapshots byte-identical).
  sim::Counter* malformed_ = nullptr;       // proto.ip.malformed_drops
  sim::Counter* reasm_overflow_ = nullptr;  // ip.reasm_overflow_drops
};

}  // namespace proto

#endif  // PLEXUS_PROTO_IP_H_
