// HostStack: the lower half every simulated workstation runs.
//
// The paper's comparison is controlled: Plexus and DIGITAL UNIX run the
// same drivers and protocol modules and differ only in how packets are
// demultiplexed and how data crosses into the application. This chassis is
// everything the two build identically — the machine, its bounded mbuf
// pool, the interfaces (NIC + Ethernet framing + ARP), IPv4, ICMP and UDP —
// wired the same way for both: IP transmits through ARP onto the outgoing
// interface, and IP's error notifications become ICMP errors.
// core::PlexusHost and os::SocketHost derive from it and add only where
// received frames and IP payloads go, and the application boundary.
#ifndef PLEXUS_PROTO_HOST_STACK_H_
#define PLEXUS_PROTO_HOST_STACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "drivers/nic.h"
#include "net/mbuf.h"
#include "net/mbuf_pool.h"
#include "proto/arp.h"
#include "proto/eth.h"
#include "proto/icmp.h"
#include "proto/ip.h"
#include "proto/udp.h"
#include "sim/host.h"

namespace proto {

class HostStack {
 public:
  struct NetConfig {
    net::MacAddress mac;
    net::Ipv4Address ip;
    int prefix_len = 24;
  };

  HostStack(sim::Simulator& s, std::string name, sim::CostModel costs,
            drivers::DeviceProfile profile, NetConfig net_config, std::uint64_t seed);

  void AttachTo(drivers::Medium& medium) { AttachNicTo(0, medium); }

  // Adds a secondary NIC ("Each workstation was equipped with ... a
  // 10Mb/sec Ethernet, a ... Fore TCA-100 ATM interface ... and an
  // experimental 45Mb/sec Digital T3 network adapter"). Returns the
  // interface index for use in routes; attach it with AttachNicTo.
  int AddNic(drivers::DeviceProfile profile, NetConfig net_config);
  void AttachNicTo(int if_index, drivers::Medium& medium) {
    nic(if_index).AttachMedium(&medium);
  }

  // Resolves the next hop on the given interface and transmits an IP packet
  // (the link-layer glue under the IP layer).
  void TransmitIp(net::MbufPtr packet, net::Ipv4Address next_hop, int if_index);

  sim::Host& host() { return host_; }
  sim::Simulator& simulator() { return host_.simulator(); }
  drivers::Nic& nic(int if_index = 0) { return *iface(if_index).nic; }
  EthLayer& eth_layer(int if_index = 0) { return *iface(if_index).eth; }
  ArpService& arp(int if_index = 0) { return *iface(if_index).arp; }
  std::size_t interface_count() const { return ifaces_.size(); }
  Ipv4Layer& ip_layer() { return *ip_layer_; }
  IcmpLayer& icmp() { return *icmp_; }
  UdpLayer& udp_layer() { return *udp_layer_; }
  net::Ipv4Address ip_address() const { return net_config_.ip; }
  net::MacAddress mac() const { return net_config_.mac; }

  // The bounded buffer pool every pooled allocation on this host draws
  // from — the same bound on both systems. Replacing the capacity swaps in
  // a fresh pool; buffers still outstanding stay valid and retire against
  // the old books.
  net::MbufPool& mbuf_pool() { return *mbuf_pool_; }
  void SetMbufPoolCapacity(std::size_t segments);

 protected:
  // Where every interface's received frames go and how its rx bursts are
  // bracketed: the one point where the two systems' demux attaches. Applies
  // to every interface now, to those AddNic adds, and after a restart. An
  // interface's NIC forms bursts only because these hooks are set.
  void SetFrameHandlers(EthLayer::Upcall upcall, drivers::Nic::BurstHook burst_begin,
                        drivers::Nic::BurstHook burst_end);
  // Interface index of a received frame's NIC (0 if unknown).
  int IfIndexForRcvif(int rcvif) const;

  // Power cut, lower half: ETH/ARP/IP/ICMP/UDP state dies, the NICs power
  // off and their rings drain back to the pool. The NICs, the pool and the
  // routing configuration survive. Call after the layers above are gone.
  void CrashLowerHalf();
  // Cold restart, lower half: NICs power on (`new_mac` on the primary, to
  // model a swapped adapter) and every layer comes back fresh and rewired,
  // with the saved routes and forwarding flag. Call before rebuilding the
  // layers above.
  void RestartLowerHalf(std::optional<net::MacAddress> new_mac);

  sim::Host host_;

 private:
  // One attachment point. The NIC survives a crash (it is hardware);
  // eth/arp are protocol state and die.
  struct Iface {
    std::unique_ptr<drivers::Nic> nic;
    std::unique_ptr<EthLayer> eth;
    std::unique_ptr<ArpService> arp;
    NetConfig cfg;  // remembered for cold restart
  };

  Iface& iface(int if_index) { return ifaces_[static_cast<std::size_t>(if_index)]; }
  void AddIface(drivers::DeviceProfile profile, NetConfig cfg);
  void BuildLinkLayer(Iface& target);
  void BuildNetworkLayers();
  void WireMbufPool();

  std::unique_ptr<net::MbufPool> mbuf_pool_;
  NetConfig net_config_;
  std::vector<Iface> ifaces_;  // [0] is the primary interface
  std::unique_ptr<Ipv4Layer> ip_layer_;
  std::unique_ptr<IcmpLayer> icmp_;
  std::unique_ptr<UdpLayer> udp_layer_;
  EthLayer::Upcall upcall_;
  drivers::Nic::BurstHook burst_begin_;
  drivers::Nic::BurstHook burst_end_;
  RoutingTable saved_routes_;  // routing config survives a reboot
  bool saved_forwarding_ = false;
};

}  // namespace proto

#endif  // PLEXUS_PROTO_HOST_STACK_H_
