#include "proto/host_stack.h"

#include <utility>

namespace proto {

HostStack::HostStack(sim::Simulator& s, std::string name, sim::CostModel costs,
                     drivers::DeviceProfile profile, NetConfig net_config, std::uint64_t seed)
    : host_(s, std::move(name), costs, seed),
      mbuf_pool_(std::make_unique<net::MbufPool>(net::MbufPool::DefaultCapacity())),
      net_config_(net_config) {
  AddIface(std::move(profile), net_config);
  BuildNetworkLayers();
  WireMbufPool();
}

void HostStack::AddIface(drivers::DeviceProfile profile, NetConfig cfg) {
  Iface added;
  added.nic = std::make_unique<drivers::Nic>(host_, std::move(profile), cfg.mac);
  added.cfg = cfg;
  ifaces_.push_back(std::move(added));
  BuildLinkLayer(ifaces_.back());
}

// Framing (whose constructor hooks the NIC's receive callback) and ARP on
// top of an interface's NIC, attached to the frame handlers.
void HostStack::BuildLinkLayer(Iface& target) {
  target.eth = std::make_unique<EthLayer>(host_, *target.nic);
  target.arp = std::make_unique<ArpService>(host_, *target.eth, target.cfg.ip);
  target.eth->SetUpcall(upcall_);
  target.nic->SetBurstHooks(burst_begin_, burst_end_);
}

// IP (secondary interfaces registered), ICMP and UDP, plus the glue both
// systems share: transmit through ARP, IP errors out through ICMP.
void HostStack::BuildNetworkLayers() {
  const Iface& primary = ifaces_[0];
  ip_layer_ = std::make_unique<Ipv4Layer>(
      host_, Ipv4Layer::Config{primary.cfg.ip, primary.cfg.prefix_len,
                               primary.nic->profile().mtu});
  for (std::size_t i = 1; i < ifaces_.size(); ++i) {
    ip_layer_->AddInterface(static_cast<int>(i),
                            Ipv4Layer::Interface{ifaces_[i].cfg.ip, ifaces_[i].cfg.prefix_len,
                                                 ifaces_[i].nic->profile().mtu});
  }
  icmp_ = std::make_unique<IcmpLayer>(host_, *ip_layer_);
  udp_layer_ = std::make_unique<UdpLayer>(host_, *ip_layer_);
  ip_layer_->SetTransmit([this](net::MbufPtr packet, net::Ipv4Address next_hop, int if_index) {
    TransmitIp(std::move(packet), next_hop, if_index);
  });
  ip_layer_->SetIcmpNotify([this](const net::Ipv4Header& hdr, std::uint8_t type,
                                  std::uint8_t code) { icmp_->SendError(hdr, type, code); });
}

int HostStack::AddNic(drivers::DeviceProfile profile, NetConfig cfg) {
  const std::size_t mtu = profile.mtu;
  AddIface(std::move(profile), cfg);
  const int if_index = static_cast<int>(ifaces_.size()) - 1;
  ip_layer_->AddInterface(if_index, Ipv4Layer::Interface{cfg.ip, cfg.prefix_len, mtu});
  return if_index;
}

int HostStack::IfIndexForRcvif(int rcvif) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (ifaces_[i].nic->index() == rcvif) return static_cast<int>(i);
  }
  return 0;
}

void HostStack::SetFrameHandlers(EthLayer::Upcall upcall, drivers::Nic::BurstHook burst_begin,
                                 drivers::Nic::BurstHook burst_end) {
  upcall_ = std::move(upcall);
  burst_begin_ = std::move(burst_begin);
  burst_end_ = std::move(burst_end);
  for (Iface& each : ifaces_) {
    each.eth->SetUpcall(upcall_);
    each.nic->SetBurstHooks(burst_begin_, burst_end_);
  }
}

void HostStack::TransmitIp(net::MbufPtr packet, net::Ipv4Address next_hop, int if_index) {
  if (if_index < 0 || if_index >= static_cast<int>(ifaces_.size())) return;
  Iface& out = iface(if_index);
  // The move-only callback parks the packet itself while resolution is
  // pending; on the (dominant) cache-hit path it is invoked synchronously
  // and the buffer flows straight to the wire — no shared_ptr, no clone.
  out.arp->Resolve(next_hop,
                   [&out, pkt = std::move(packet)](std::optional<net::MacAddress> mac) mutable {
                     if (!mac) return;  // unresolvable; drop
                     out.eth->Output(std::move(pkt), *mac, net::ethertype::kIpv4);
                   });
}

void HostStack::WireMbufPool() {
  host_.set_mbuf_pool(mbuf_pool_.get());
  auto& exhausted = host_.metrics().counter("mbuf.pool_exhausted");
  mbuf_pool_->SetOccupancyGauges(host_.metrics().gauge("mbuf.pool_in_use").slot(),
                                 host_.metrics().gauge("mbuf.pool_peak").slot());
  mbuf_pool_->SetExhaustionHook([&exhausted] { exhausted.Inc(); });
}

void HostStack::SetMbufPoolCapacity(std::size_t segments) {
  // Buffers from the old pool stay valid and retire against its (now
  // hook-less) books.
  mbuf_pool_ = std::make_unique<net::MbufPool>(segments);
  WireMbufPool();
}

void HostStack::CrashLowerHalf() {
  // Routing is configuration, not volatile protocol state: remember it so
  // the reboot comes back with the same view of the topology.
  saved_routes_ = ip_layer_->routes();
  saved_forwarding_ = ip_layer_->config().forwarding_enabled;
  udp_layer_.reset();
  icmp_.reset();
  ip_layer_.reset();  // dtor cancels reassembly timers
  for (Iface& each : ifaces_) {
    each.arp.reset();  // dtor cancels request timers
    each.nic->SetReceiveCallback(nullptr);
    each.nic->Reset();  // ring buffers return to the pool
    each.nic->set_powered(false);
    each.eth.reset();
  }
}

void HostStack::RestartLowerHalf(std::optional<net::MacAddress> new_mac) {
  if (new_mac) {
    // The machine came back with a swapped adapter: peers holding the old
    // MAC in their ARP caches reach nobody until the entry expires.
    ifaces_[0].cfg.mac = *new_mac;
    net_config_.mac = *new_mac;
  }
  for (Iface& each : ifaces_) {
    each.nic->set_mac(each.cfg.mac);
    each.nic->set_powered(true);
    BuildLinkLayer(each);
  }
  BuildNetworkLayers();
  ip_layer_->routes() = saved_routes_;
  ip_layer_->set_forwarding(saved_forwarding_);
}

}  // namespace proto
