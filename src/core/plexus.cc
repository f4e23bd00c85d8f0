#include "core/plexus.h"

#include <cassert>

#include <utility>

#include "net/view.h"
#include "proto/transport_checksum.h"
#include "sim/profiler.h"
#include "sim/tracer.h"

namespace core {

namespace {

// Default containment for application-installed handlers: fence exceptions
// at the dispatch boundary and quarantine after kDefaultMaxStrikes. A
// caller-provided max_strikes (or a negative "never quarantine") wins.
void ApplyAppFaultPolicy(spin::HandlerOptions& opts) {
  opts.fault.isolate = true;
  if (opts.fault.max_strikes == 0) opts.fault.max_strikes = kDefaultMaxStrikes;
}

}  // namespace

// --- GraphEdge -----------------------------------------------------------------

template <typename Hdr>
void GraphEdge<Hdr>::Push(net::MbufPtr packet, const Hdr& hdr) {
  if (!plexus_.batch_active()) {
    // The hop's GraphFn is move-only, so the buffer rides in the capture as
    // a plain MbufPtr — no shared_ptr control-block allocation per packet.
    plexus_.GraphHop([this, ref = std::move(packet), hdr] { event_.Raise(*ref, hdr); },
                     sheddable_);
    return;
  }
  if (pending_.empty()) {
    plexus_.AddBatchFlush([this](bool deliver) { Flush(deliver); },
                          [this] { return pending_.size(); });
  }
  pending_.emplace_back(std::move(packet), hdr);
}

template <typename Hdr>
void GraphEdge<Hdr>::Flush(bool deliver) {
  auto burst = std::move(pending_);
  pending_.clear();
  // Shed: the parked packets die here, before any graph work — the batch
  // analogue of refusing a packet's per-packet hop at Admit().
  if (!deliver) return;
  event_.RaiseBatch(burst, [](std::pair<net::MbufPtr, Hdr>& p) {
    return std::forward_as_tuple(*p.first, p.second);
  });
  if (after_burst_) after_burst_();
}

// --- EthernetManager ---------------------------------------------------------

// The edge from the driver is the only sheddable hop in the graph (nothing
// has been invested in the frame yet beyond driver receive work).
EthernetManager::EthernetManager(PlexusHost& plexus, proto::EthLayer& eth)
    : eth_(eth),
      packet_recv_("Ethernet.PacketRecv", &plexus.dispatcher()),
      edge_(plexus, packet_recv_, /*sheddable=*/true) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Guard compilation: Ethernet.PacketRecv demultiplexes on the EtherType.
  // The header is already parsed by the time the event is raised, so the
  // extractor is a field load, charged once per raise as a demux_lookup.
  packet_recv_.SetDemuxKey("eth.type",
                           [](const net::Mbuf&, const net::EthernetHeader& hdr) {
                             return std::optional<std::uint64_t>(hdr.type.value());
                           });
}

spin::Result<spin::HandlerId> EthernetManager::InstallTypeHandler(
    std::uint16_t ethertype,
    std::function<void(const net::Mbuf&, const net::EthernetHeader&)> handler,
    spin::HandlerOptions opts) {
  // The manager builds the guard itself as a declarative predicate: the
  // handler can only see frames of its own EtherType — it cannot snoop on
  // other traffic — and the predicate's exact-match discriminator lets the
  // event index the handler instead of evaluating a guard per raise.
  const filter::Predicate predicate = filter::Predicate::EtherType(ethertype);
  const auto key = predicate.ExactMatchKey(filter::kEtherTypeField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  return packet_recv_.InstallKeyed(std::move(handler), *key, nullptr, std::move(opts));
}

spin::Result<spin::HandlerId> EthernetManager::InstallFilteredHandler(
    const filter::Predicate& predicate,
    std::function<void(const net::Mbuf&, const net::EthernetHeader&)> handler,
    spin::HandlerOptions opts) {
  // Inspection: an unconstrained filter would see every frame on the wire —
  // exactly the snooping the manager exists to prevent.
  if (predicate.OpCount() <= 1 && predicate.Eval(net::Mbuf::Allocate(64)->data()) &&
      predicate.Eval(net::Mbuf::Allocate(1500)->data())) {
    return spin::Errorf("InstallFilteredHandler: predicate '" + predicate.ToString() +
                        "' matches arbitrary traffic; raw access requires the kernel domain");
  }
  auto guard = [predicate](const net::Mbuf& frame, const net::EthernetHeader&) {
    return predicate.Eval(frame);
  };
  if (opts.name.empty()) opts.name = "filter:" + predicate.ToString();
  ApplyAppFaultPolicy(opts);
  // A filter that pins the EtherType goes behind the demux index; the full
  // predicate stays on as the verify guard for the remaining constraints.
  // Filters without a necessary EtherType constraint fall back to the
  // residual linear path.
  if (const auto key = predicate.ExactMatchKey(filter::kEtherTypeField)) {
    return packet_recv_.InstallKeyed(std::move(handler), *key, std::move(guard),
                                     std::move(opts));
  }
  return packet_recv_.Install(std::move(handler), std::move(guard), std::move(opts));
}

bool EthernetManager::Uninstall(spin::HandlerId id) { return packet_recv_.Uninstall(id); }

void EthernetManager::Output(net::MbufPtr payload, net::MacAddress dst,
                             std::uint16_t ethertype) {
  // EthLayer::Output always writes this NIC's MAC as the source — spoof
  // prevention by overwriting the source field.
  eth_.Output(std::move(payload), dst, ethertype);
}

// --- IpManager ---------------------------------------------------------------

IpManager::IpManager(PlexusHost& plexus, proto::Ipv4Layer& ip)
    : plexus_(plexus),
      ip_(ip),
      packet_recv_("Ip.PacketRecv", &plexus.dispatcher()),
      edge_(plexus, packet_recv_, /*sheddable=*/false) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Ip.PacketRecv demultiplexes on the IP protocol number.
  packet_recv_.SetDemuxKey("ip.protocol", [](const net::Mbuf&, const net::Ipv4Header& hdr) {
    return std::optional<std::uint64_t>(hdr.protocol);
  });
}

void IpManager::Output(net::MbufPtr payload, net::Ipv4Address dst, std::uint8_t protocol,
                       net::Ipv4Address src_override) {
  ip_.Output(std::move(payload), src_override, dst, protocol);
}

spin::Result<spin::HandlerId> IpManager::InstallProtocolHandler(
    std::uint8_t protocol,
    std::function<void(const net::Mbuf&, const net::Ipv4Header&)> handler,
    spin::HandlerOptions opts) {
  if (protocol == net::ipproto::kIcmp || protocol == net::ipproto::kTcp ||
      protocol == net::ipproto::kUdp) {
    return spin::Errorf("InstallProtocolHandler: protocol " + std::to_string(protocol) +
                        " is owned by a kernel manager");
  }
  // Declarative guard: the IpProtocol predicate's discriminator indexes the
  // handler — the handler sees only its own protocol's packets, and the
  // raise path never evaluates a guard for it.
  const filter::Predicate predicate = filter::Predicate::IpProtocol(protocol);
  const auto key = predicate.ExactMatchKey(filter::kIpProtocolField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  return packet_recv_.InstallKeyed(std::move(handler), *key, nullptr, std::move(opts));
}

bool IpManager::Uninstall(spin::HandlerId id) { return packet_recv_.Uninstall(id); }

void IpManager::Reinject(net::MbufPtr packet, net::Ipv4Address dst) {
  auto route = ip_.routes().Lookup(dst);
  if (!route) return;
  const net::Ipv4Address next_hop = route->next_hop.IsAny() ? dst : route->next_hop;
  plexus_.TransmitIp(std::move(packet), next_hop, route->if_index);
}

// --- UdpEndpoint / UdpManager --------------------------------------------------

UdpEndpoint::~UdpEndpoint() {
  for (auto id : installed_) plexus_.udp().packet_recv().Uninstall(id);
  plexus_.udp().ReleasePort(port_);
}

void UdpEndpoint::Send(net::MbufPtr payload, net::Ipv4Address dst_ip, std::uint16_t dst_port) {
  // Anti-spoofing: the source address and port are the endpoint's own; the
  // application has no way to supply different ones.
  plexus_.udp().layer().Output(std::move(payload), net::Ipv4Address::Any(), port_, dst_ip,
                               dst_port, checksum_);
}

bool UdpEndpoint::SendVerified(net::MbufPtr udp_packet, net::Ipv4Address dst_ip) {
  net::UdpHeader hdr;
  try {
    hdr = net::ViewPacket<net::UdpHeader>(*udp_packet);
  } catch (const net::ViewError&) {
    return false;
  }
  if (hdr.src_port.value() != port_) {
    // The debugging strategy caught a spoofed source field.
    ++plexus_.udp().stats_.spoof_rejections;
    return false;
  }
  plexus_.ip().Output(std::move(udp_packet), dst_ip, net::ipproto::kUdp);
  return true;
}

spin::Result<spin::HandlerId> UdpEndpoint::InstallReceiveHandler(
    std::function<void(const net::Mbuf&, const proto::UdpDatagram&)> handler,
    spin::HandlerOptions opts) {
  // Anti-snooping: the manager supplies the guard as a declarative
  // dst-port predicate; only datagrams addressed to this endpoint's port
  // reach the handler, and the port value indexes it in the demux hash —
  // a thousand endpoints cost the same per raise as one.
  const filter::Predicate predicate = filter::Predicate::UdpDstPort(port_);
  const auto key = predicate.ExactMatchKey(filter::kUdpDstPortField);
  assert(key.has_value());
  ApplyAppFaultPolicy(opts);
  // On quarantine the endpoint drops its claim on the (already
  // auto-uninstalled) handler before the application learns about it.
  opts.fault.on_quarantined = [this, user = std::move(opts.fault.on_quarantined)](
                                  spin::HandlerId id, const spin::HandlerStats& st) {
    std::erase(installed_, id);
    if (user) user(id, st);
  };
  auto r = plexus_.udp().packet_recv().InstallKeyed(std::move(handler), *key, nullptr,
                                                    std::move(opts));
  if (r.ok()) installed_.push_back(r.value());
  return r;
}

bool UdpEndpoint::UninstallReceiveHandler(spin::HandlerId id) {
  std::erase(installed_, id);
  return plexus_.udp().packet_recv().Uninstall(id);
}

UdpManager::UdpManager(PlexusHost& plexus, proto::UdpLayer& udp)
    : plexus_(plexus), udp_(udp), packet_recv_("Udp.PacketRecv", &plexus.dispatcher()) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Udp.PacketRecv demultiplexes on the destination port (already parsed).
  packet_recv_.SetDemuxKey("udp.dst_port",
                           [](const net::Mbuf&, const proto::UdpDatagram& info) {
                             return std::optional<std::uint64_t>(info.dst_port);
                           });
  udp_.SetDefaultReceiver([this](net::MbufPtr payload, const proto::UdpDatagram& info) {
    plexus_.GraphHop([this, ref = std::move(payload), info] {
      // Nobody claimed the datagram: answer with ICMP port unreachable.
      if (packet_recv_.Raise(*ref, info) == 0 &&
          plexus_.icmp().SendPortUnreachable(info.src_ip, info.dst_ip)) {
        ++stats_.unreachable_sent;
      }
    });
  });
}

spin::Result<std::shared_ptr<UdpEndpoint>> UdpManager::CreateEndpoint(std::uint16_t local_port) {
  if (!ports_in_use_.insert(local_port).second) {
    return spin::Errorf("UDP port " + std::to_string(local_port) + " already claimed");
  }
  return std::shared_ptr<UdpEndpoint>(new UdpEndpoint(plexus_, local_port));
}

// --- PlexusTcpEndpoint / TcpManager --------------------------------------------

PlexusTcpEndpoint::PlexusTcpEndpoint(PlexusHost& plexus, proto::TcpEndpoints ep)
    : TcpStream(plexus, plexus.tcp().demux(), plexus.tcp().config(), ep) {}

TcpManager::TcpManager(PlexusHost& plexus, proto::TcpConfig config)
    : plexus_(plexus),
      config_(config),
      packet_recv_("Tcp.PacketRecv", &plexus.dispatcher()),
      // Burst end is a GRO flush boundary: nothing may stay parked once the
      // burst's segments have all been dispatched.
      edge_(plexus, packet_recv_, /*sheddable=*/false, [this] { gro_->FlushAll(); }) {
  packet_recv_.set_requires_ephemeral(plexus.requires_ephemeral());
  // Tcp.PacketRecv demultiplexes on the segment's destination port, parsed
  // from the packet once per raise. A truncated segment yields nullopt:
  // only residual handlers are considered, matching the fail-closed guards.
  packet_recv_.SetDemuxKey(
      "tcp.dst_port",
      [](const net::Mbuf& segment, const net::Ipv4Header&) -> std::optional<std::uint64_t> {
        try {
          return net::ViewPacket<net::TcpHeader>(segment).dst_port.value();
        } catch (const net::ViewError&) {
          return std::nullopt;
        }
      });

  // The standard TCP implementation: handles every TCP segment except those
  // claimed by a special implementation ("the first uses a guard which
  // processes all TCP packets but those destined for the second").
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "tcp-standard";
  auto standard_guard = [this](const net::Mbuf& segment, const net::Ipv4Header&) {
    try {
      auto hdr = net::ViewPacket<net::TcpHeader>(segment);
      return !IsSpecialPort(hdr.dst_port.value());
    } catch (const net::ViewError&) {
      // A segment too short to hold a TCP header. The guard is the one
      // choke point both rx modes share (per-packet and batched/GRO), so
      // the malformed drop is attributed here, identically in both.
      if (tcp_malformed_ == nullptr) {
        tcp_malformed_ = &plexus_.host().metrics().counter("proto.tcp.malformed_drops");
      }
      tcp_malformed_->Inc();
      return false;
    }
  };
  // GRO sits between the standard implementation's dispatch and the demux:
  // inside a batch scope, in-order pure-data segments of one flow coalesce
  // into a single chain and the demux pays one tcp_input for the run. The
  // sink is the exact call the non-coalesced path makes.
  gro_ = std::make_unique<proto::GroEngine>(
      plexus.host(),
      [this](net::MbufPtr merged, net::Ipv4Address src, net::Ipv4Address dst) {
        demux_.Input(std::move(merged), src, dst);
      });
  auto standard_handler = [this](const net::Mbuf& segment, const net::Ipv4Header& ip_hdr) {
    if (plexus_.batch_active()) {
      gro_->Push(segment.ShareClone(), ip_hdr.src, ip_hdr.dst);
      return;
    }
    demux_.Input(segment.ShareClone(), ip_hdr.src, ip_hdr.dst);
  };
  auto r = packet_recv_.Install(standard_handler, standard_guard, opts);
  assert(r.ok());
  (void)r;

  // RSTs for segments addressed to no connection/listener.
  demux_.SetRstSender([this](const net::TcpHeader& hdr, net::Ipv4Address src,
                             net::Ipv4Address dst, std::size_t payload_len) {
    if (auto rst = proto::MakeRst(plexus_.host().mbuf_pool(), hdr, src, dst, payload_len)) {
      plexus_.ip().Output(std::move(rst), src, net::ipproto::kTcp, dst);
    }
  });

  // Hostile-traffic hardening hooks: a clock/rng/metrics home for the
  // demux's SYN cookies and RST rate limiting, and the stateless SYN|ACK
  // emitter (no TCB exists to emit through, so the manager builds the
  // segment itself — header plus our MSS option, costed like any other
  // control segment).
  demux_.AttachHost(&plexus.host());
  demux_.SetSynAckSender([this](const proto::TcpEndpoints& ep, proto::Seq iss,
                                proto::Seq ack) {
    net::TcpHeader hdr;
    hdr.src_port = ep.local_port;
    hdr.dst_port = ep.remote_port;
    hdr.seq = iss;
    hdr.ack = ack;
    hdr.set_header_length(sizeof(hdr) + proto::kMssOptionLen);
    hdr.flags = net::tcpflag::kSyn | net::tcpflag::kAck;
    hdr.window = static_cast<std::uint16_t>(std::min<std::size_t>(config_.recv_window, 65535));
    hdr.checksum = 0;
    auto m = net::PoolAllocate(plexus_.host().mbuf_pool(), sizeof(hdr) + proto::kMssOptionLen);
    if (m == nullptr) return;  // pool dry: the peer retransmits its SYN
    net::StorePacket(*m, hdr);
    proto::WriteMssOption(*m, config_.mss);
    plexus_.host().Charge(plexus_.host().costs().tcp_output);
    plexus_.host().Charge(plexus_.host().costs().checksum_per_byte *
                          static_cast<std::int64_t>(m->PacketLength()));
    hdr.checksum = proto::TransportChecksum(ep.local_ip, ep.remote_ip, net::ipproto::kTcp, *m);
    net::StorePacket(*m, hdr);
    plexus_.ip().Output(std::move(m), ep.remote_ip, net::ipproto::kTcp, ep.local_ip);
  });
}

bool TcpManager::IsSpecialPort(std::uint16_t port) const {
  for (const auto& [_, ports] : special_ports_) {
    if (ports->contains(port)) return true;
  }
  return false;
}

spin::Result<spin::HandlerId> TcpManager::InstallSpecialImplementation(
    std::set<std::uint16_t> ports,
    std::function<void(const net::Mbuf&, const net::Ipv4Header&)> handler,
    spin::HandlerOptions opts) {
  auto shared_ports = std::make_shared<std::set<std::uint16_t>>(std::move(ports));
  // Indexed on every claimed port; the membership check stays on as the
  // verify guard so a mid-raise port release takes effect immediately (key
  // removal from the index is deferred to the post-raise sweep).
  std::vector<std::uint64_t> keys(shared_ports->begin(), shared_ports->end());
  auto verify = [shared_ports](const net::Mbuf& segment, const net::Ipv4Header&) {
    try {
      auto hdr = net::ViewPacket<net::TcpHeader>(segment);
      return shared_ports->contains(static_cast<std::uint16_t>(hdr.dst_port.value()));
    } catch (const net::ViewError&) {
      return false;
    }
  };
  ApplyAppFaultPolicy(opts);
  // Quarantine releases the special implementation's claimed ports, so the
  // standard TCP implementation's guard admits them again.
  opts.fault.on_quarantined = [this, user = std::move(opts.fault.on_quarantined)](
                                  spin::HandlerId id, const spin::HandlerStats& st) {
    special_ports_.erase(id);
    if (user) user(id, st);
  };
  auto r = packet_recv_.InstallKeyed(std::move(handler), std::move(keys), std::move(verify),
                                     std::move(opts));
  if (r.ok()) special_ports_[r.value()] = std::move(shared_ports);
  return r;
}

void TcpManager::AddSpecialPort(spin::HandlerId id, std::uint16_t port) {
  auto it = special_ports_.find(id);
  if (it == special_ports_.end()) return;
  it->second->insert(port);
  packet_recv_.AddHandlerKey(id, port);
}

void TcpManager::RemoveSpecialPort(spin::HandlerId id, std::uint16_t port) {
  auto it = special_ports_.find(id);
  if (it == special_ports_.end()) return;
  it->second->erase(port);
  packet_recv_.RemoveHandlerKey(id, port);
}

bool TcpManager::UninstallSpecialImplementation(spin::HandlerId id) {
  special_ports_.erase(id);
  return packet_recv_.Uninstall(id);
}

TcpManager::~TcpManager() {
  for (auto& weak : wired_) {
    if (auto ep = weak.lock()) {
      if (ep->attached()) ep->Detach();
    }
  }
}

void TcpManager::WireConnection(const std::shared_ptr<PlexusTcpEndpoint>& ep) {
  ep->Register();
  wired_.push_back(ep);
}

std::shared_ptr<PlexusTcpEndpoint> TcpManager::Connect(net::Ipv4Address remote_ip,
                                                       std::uint16_t remote_port,
                                                       std::uint16_t local_port) {
  if (local_port == 0) local_port = next_ephemeral_port_++;
  proto::TcpEndpoints ep{plexus_.ip_address(), local_port, remote_ip, remote_port};
  auto endpoint = std::shared_ptr<PlexusTcpEndpoint>(new PlexusTcpEndpoint(plexus_, ep));
  WireConnection(endpoint);
  endpoint->connection().Connect();
  return endpoint;
}

bool TcpManager::Listen(std::uint16_t port, Acceptor acceptor, proto::ListenOptions opts) {
  acceptors_[port] = std::move(acceptor);
  auto factory = [this, port](const proto::TcpEndpoints& ep) -> proto::TcpConnection* {
    // Sweep before creating the new endpoint: it sits in kClosed until
    // Listen() below, so a sweep after the push would reap its keep-alive.
    SweepAccepted();
    auto endpoint = std::shared_ptr<PlexusTcpEndpoint>(new PlexusTcpEndpoint(plexus_, ep));
    accepted_.push_back(endpoint);
    endpoint->SetOnEstablished([this, port, weak = std::weak_ptr(endpoint)] {
      auto ep_ptr = weak.lock();
      if (ep_ptr == nullptr) return;
      auto it = acceptors_.find(port);
      if (it != acceptors_.end() && it->second) {
        it->second(ep_ptr);
        return;
      }
      // The listener went away while this handshake was in flight, so no
      // application will ever claim the endpoint. Real stacks reset the
      // unclaimed accept queue when the listening socket closes; parking
      // the connection here instead would strand it in CLOSE_WAIT and
      // wedge the peer in FIN_WAIT_2 forever once its FIN is ACKed.
      if (accept_overflows_ == nullptr) {
        accept_overflows_ = &plexus_.host().metrics().counter("tcp.accept_overflows");
      }
      accept_overflows_->Inc();
      ep_ptr->connection().Abort();
    });
    WireConnection(endpoint);
    endpoint->connection().Listen();
    return &endpoint->connection();
  };
  return demux_.Listen(port, std::move(factory), opts);
}

void TcpManager::SweepAccepted() {
  // Trigger only when the list has doubled since the last sweep, so a
  // churning server pays O(size) once per size-doubling (amortized O(1)
  // per accept) and a small steady server never pays at all. Wall-clock
  // only: no charges, no metrics, no virtual-time effect.
  if (accepted_.size() < 64 || accepted_.size() < 2 * accepted_sweep_mark_) return;
  std::erase_if(accepted_, [](const std::shared_ptr<PlexusTcpEndpoint>& ep) {
    return ep->connection().state() == proto::TcpConnection::State::kClosed;
  });
  accepted_sweep_mark_ = std::max<std::size_t>(32, accepted_.size());
}

void TcpManager::StopListening(std::uint16_t port) {
  acceptors_.erase(port);
  demux_.StopListening(port);
}

std::vector<std::shared_ptr<PlexusTcpEndpoint>> TcpManager::LiveEndpoints() const {
  std::vector<std::shared_ptr<PlexusTcpEndpoint>> out;
  for (const auto& weak : wired_) {
    if (auto ep = weak.lock()) {
      if (ep->attached()) out.push_back(std::move(ep));
    }
  }
  return out;
}

// --- PlexusHost ----------------------------------------------------------------

PlexusHost::PlexusHost(sim::Simulator& s, std::string name, sim::CostModel costs,
                       drivers::DeviceProfile profile, NetConfig net_config, HandlerMode mode,
                       std::uint64_t seed)
    : HostStack(s, std::move(name), costs, std::move(profile), net_config, seed),
      deferred_(host_),
      dispatcher_(&host_),
      linker_(&host_),
      mode_(mode) {
  // Frames from every NIC feed the one Ethernet.PacketRecv event (the
  // receive interface travels in the packet header), and every NIC's rx
  // bursts open this host's batch scope, so a burst from any NIC coalesces
  // its graph hops.
  SetFrameHandlers(
      [this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
        eth_mgr_->edge_.Push(std::move(frame), hdr);
      },
      [this] { OpenBatchScope(); }, [this] { CloseBatchScope(/*sheddable=*/true); });
  BuildGraph();

  // Protection domains. The kernel domain exports everything; applications
  // are linked against a domain that only lets them create endpoints and
  // register active-message handlers — they can neither reach the raw
  // Ethernet/IP output paths nor install unguarded receive handlers.
  kernel_domain_ = spin::Domain::Create(host_.name() + ".kernel");
  app_domain_ = spin::Domain::Create(host_.name() + ".app");
  ExportDomainSymbols();
}

void PlexusHost::BuildGraph() {
  am_ = std::make_unique<proto::ActiveMessageEndpoint>(host_, eth_layer(0));
  eth_mgr_ = std::make_unique<EthernetManager>(*this, eth_layer(0));
  ip_mgr_ = std::make_unique<IpManager>(*this, ip_layer());
  udp_mgr_ = std::make_unique<UdpManager>(*this, udp_layer());
  tcp_mgr_ = std::make_unique<TcpManager>(*this, proto::TcpConfig{});
  WireGraph();
}

// Export (or re-export after a restart: Domain::Export overwrites) the
// kernel/app interfaces under their stable names.
void PlexusHost::ExportDomainSymbols() {
  kernel_domain_->Export("EthernetManager", eth_mgr_.get());
  kernel_domain_->Export("IpManager", ip_mgr_.get());
  kernel_domain_->Export("UdpManager", udp_mgr_.get());
  kernel_domain_->Export("TcpManager", tcp_mgr_.get());
  kernel_domain_->Export("ActiveMessages", am_.get());
  kernel_domain_->Export("Mbuf.Allocate", true);

  app_domain_->Export("UdpManager", udp_mgr_.get());
  app_domain_->Export("TcpManager", tcp_mgr_.get());
  app_domain_->Export("Mbuf.Allocate", true);
}

std::string PlexusHost::DescribeGraph() const {
  std::string out;
  auto section = [&out](const std::string& event, const std::vector<spin::HandlerInfo>& infos) {
    std::size_t live = 0;
    for (const auto& h : infos) live += h.alive ? 1 : 0;
    out += event + " (" + std::to_string(live) + " handlers)\n";
    for (const auto& h : infos) {
      out += "  - " + h.name + " inv=" + std::to_string(h.stats.invocations) +
             " term=" + std::to_string(h.stats.terminations) +
             " faults=" + std::to_string(h.stats.faults);
      if (h.stats.quarantined) out += " [quarantined]";
      out += "\n";
    }
  };
  section("Ethernet.PacketRecv", eth_mgr_->packet_recv_.Describe());
  section("Ip.PacketRecv", ip_mgr_->packet_recv_.Describe());
  section("Udp.PacketRecv", udp_mgr_->packet_recv_.Describe());
  section("Tcp.PacketRecv", tcp_mgr_->packet_recv_.Describe());
  // Everything the host's modules counted (spin.*, ip.*, nicN.*, ...)
  // alongside the per-handler rows above.
  out += "metrics: " + host_.metrics().ToJson() + "\n";
  return out;
}

namespace {

std::string FlightJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // control chars never appear in our names; stay valid JSON
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string PlexusHost::SnapshotTelemetry(std::size_t tracer_tail) {
  sim::Simulator& sim = host_.simulator();
  std::string out = "{\"schema\":\"plexus-flight-v1\"";
  out += ",\"host\":\"" + FlightJsonEscape(host_.name()) + "\"";
  out += ",\"now_ns\":" + std::to_string(host_.Now().ns());
  out += std::string(",\"crashed\":") + (crashed_ ? "true" : "false");
  out += std::string(",\"mode\":\"") +
         (mode_ == HandlerMode::kInterrupt ? "interrupt" : "thread") + "\"";

  // Both registries whole: everything the host's modules and the engine
  // itself counted, percentiles included.
  out += ",\"metrics\":" + host_.metrics().ToJson();
  out += ",\"sim_metrics\":" + sim.metrics().ToJson();

  const net::MbufPool& pool = mbuf_pool();
  out += ",\"mbuf_pool\":{\"capacity\":" + std::to_string(pool.capacity()) +
         ",\"in_use\":" + std::to_string(pool.in_use()) +
         ",\"peak\":" + std::to_string(pool.peak_in_use()) +
         ",\"total_allocated\":" + std::to_string(pool.total_allocated()) +
         ",\"exhaustions\":" + std::to_string(pool.exhaustions()) + "}";

  out += ",\"nics\":[";
  for (std::size_t i = 0; i < interface_count(); ++i) {
    const drivers::Nic& n = nic(static_cast<int>(i));
    const drivers::Nic::Stats s = n.stats();
    out += i == 0 ? "{" : ",{";
    out += "\"prefix\":\"" + FlightJsonEscape(n.metrics_prefix()) + "\"";
    out += ",\"rx_ring_depth\":" + std::to_string(n.profile().rx_ring_depth);
    out += ",\"rx_ring_occupancy\":" + std::to_string(n.rx_ring_size());
    out += std::string(",\"polling\":") + (n.polling() ? "true" : "false");
    out += std::string(",\"carrier\":") + (n.carrier() ? "true" : "false");
    out += std::string(",\"powered\":") + (n.powered() ? "true" : "false");
    out += ",\"rx_frames\":" + std::to_string(s.rx_frames);
    out += ",\"rx_dropped\":" + std::to_string(s.rx_dropped);
    out += ",\"tx_frames\":" + std::to_string(s.tx_frames);
    out += "}";
  }
  out += "]";

  out += ",\"deferred\":{\"depth\":" + std::to_string(deferred_.depth()) +
         ",\"peak\":" + std::to_string(deferred_.peak_depth()) +
         std::string(",\"shedding\":") + (deferred_.shedding() ? "true" : "false") + "}";

  const spin::Dispatcher::Stats d = dispatcher_.stats();
  out += ",\"dispatcher\":{\"raises\":" + std::to_string(d.raises) +
         ",\"handler_invocations\":" + std::to_string(d.handler_invocations) +
         ",\"guard_evals\":" + std::to_string(d.guard_evals) +
         ",\"guard_rejections\":" + std::to_string(d.guard_rejections) +
         ",\"demux_lookups\":" + std::to_string(d.demux_lookups) +
         ",\"terminations\":" + std::to_string(d.terminations) +
         ",\"faults\":" + std::to_string(d.faults) +
         ",\"quarantines\":" + std::to_string(d.quarantines) + "}";

  // Quarantined tombstones across the graph's four dispatch points.
  out += ",\"quarantined\":[";
  {
    bool first = true;
    const std::pair<const char*, std::vector<spin::HandlerInfo>> events[] = {
        {"Ethernet.PacketRecv", eth_mgr_->packet_recv_.Describe()},
        {"Ip.PacketRecv", ip_mgr_->packet_recv_.Describe()},
        {"Udp.PacketRecv", udp_mgr_->packet_recv_.Describe()},
        {"Tcp.PacketRecv", tcp_mgr_->packet_recv_.Describe()},
    };
    for (const auto& [event, infos] : events) {
      for (const spin::HandlerInfo& h : infos) {
        if (!h.stats.quarantined) continue;
        out += first ? "{" : ",{";
        out += std::string("\"event\":\"") + event + "\"";
        out += ",\"handler\":\"" + FlightJsonEscape(h.name) + "\"";
        out += ",\"terminations\":" + std::to_string(h.stats.terminations);
        out += ",\"faults\":" + std::to_string(h.stats.faults) + "}";
        first = false;
      }
    }
  }
  out += "]";

  // Per-flow TCP_INFO table (crashed hosts have no live flows).
  out += ",\"flows\":[";
  if (tcp_mgr_ != nullptr) {
    bool first = true;
    for (const auto& ep : tcp_mgr_->LiveEndpoints()) {
      const proto::TcpConnection& c = ep->connection();
      const proto::TcpEndpoints& e = c.endpoints();
      out += first ? "{" : ",{";
      out += "\"local\":\"" + e.local_ip.ToString() + ":" +
             std::to_string(e.local_port) + "\"";
      out += ",\"remote\":\"" + e.remote_ip.ToString() + ":" +
             std::to_string(e.remote_port) + "\"";
      out += ",\"info\":" + c.info().ToJson();
      out += ",\"telemetry\":" + c.SamplesJson() + "}";
      first = false;
    }
  }
  out += "]";

  // Tracer tail: the last `tracer_tail` completed records, plus how many
  // fell off the ring before them.
  const sim::Tracer& tr = sim.tracer();
  out += std::string(",\"tracer\":{\"enabled\":") + (tr.enabled() ? "true" : "false");
  out += ",\"recorded\":" + std::to_string(tr.size());
  out += ",\"dropped\":" + std::to_string(tr.dropped());
  out += ",\"tail\":[";
  {
    const std::vector<sim::Tracer::Record> recs = tr.Records();
    const std::size_t start = recs.size() > tracer_tail ? recs.size() - tracer_tail : 0;
    for (std::size_t i = start; i < recs.size(); ++i) {
      const sim::Tracer::Record& r = recs[i];
      out += i == start ? "{" : ",{";
      out += "\"t_ns\":" + std::to_string(r.task_start.ns() + r.begin_offset.ns());
      out += ",\"track\":\"" + FlightJsonEscape(tr.track_name(r.track)) + "\"";
      out += ",\"name\":\"" + FlightJsonEscape(r.name) + "\"";
      out += ",\"category\":\"" + FlightJsonEscape(r.category) + "\"";
      out += ",\"self_ns\":" + std::to_string(r.self.ns()) + "}";
    }
  }
  out += "]}}";
  return out;
}

void PlexusHost::GraphHop(GraphFn raise, bool sheddable) {
  // An open batch scope coalesces: the raise is parked and later runs
  // inside the scope's single hop task (thread mode) or its inline close
  // (interrupt mode), alongside every other hop of the burst.
  if (batch_active_) {
    batch_fns_.push_back(std::move(raise));
    return;
  }
  if (mode_ == HandlerMode::kInterrupt) {
    raise();
    return;
  }
  // Thread mode: "each event raise creating a new thread". The backlog of
  // spawned-but-not-run threads is bounded; past the watermark the newest
  // driver-edge work is shed before any CPU is spent on it.
  if (!deferred_.Admit(1, sheddable)) return;
  host_.Charge(host_.costs().thread_spawn);
  host_.Submit(sim::Priority::kThread, [this, raise = std::move(raise)] {
    PLEXUS_PROFILE_SCOPE(kDeferredHop);
    deferred_.OnStart();
    host_.Charge(host_.costs().thread_handoff);
    raise();
  });
}

void PlexusHost::AddBatchFlush(std::function<void(bool)> flush,
                               std::function<std::size_t()> count) {
  assert(batch_active_ && "AddBatchFlush outside a batch scope");
  batch_flushes_.push_back(BatchFlushEntry{std::move(flush), std::move(count)});
}

void PlexusHost::OpenBatchScope() { batch_active_ = true; }

// Closes the scope and moves its parked work into one coalesced hop. Each
// coalesced hop re-opens a scope while it runs, so a burst travels the
// graph layer by layer — exactly the interleave order of the per-packet
// thread-mode path (FIFO hop tasks), with one hop per layer instead of one
// per packet per layer. The chain ends at the first scope that parks
// nothing.
void PlexusHost::CloseBatchScope(bool sheddable) {
  batch_active_ = false;
  auto fns = std::move(batch_fns_);
  auto flushes = std::move(batch_flushes_);
  batch_fns_.clear();
  batch_flushes_.clear();
  std::size_t frames = fns.size();
  for (const BatchFlushEntry& f : flushes) frames += f.count();
  if (frames == 0) return;
  if (mode_ == HandlerMode::kInterrupt) {
    // Interrupt mode runs hops inline and never sheds; the batch win here
    // is the amortized dispatch + single probe + GRO, not the thread hop.
    batch_active_ = true;
    for (GraphFn& fn : fns) fn();
    for (BatchFlushEntry& f : flushes) f.flush(true);
    CloseBatchScope(/*sheddable=*/false);
    return;
  }
  if (!deferred_.Admit(frames, sheddable)) {
    for (BatchFlushEntry& f : flushes) f.flush(false);
    return;
  }
  // One admission, one spawn-equivalent for the group; the hop task pays
  // the per-frame residual. (This also folds away the per-frame hop the
  // overload sweep used to double-charge on top of a quota-bounded poll
  // pass.)
  host_.Charge(host_.costs().batch_hop);
  struct Payload {
    std::vector<GraphFn> fns;
    std::vector<BatchFlushEntry> flushes;
    std::size_t frames;
  };
  auto payload = std::make_unique<Payload>(
      Payload{std::move(fns), std::move(flushes), frames});
  host_.Submit(sim::Priority::kThread, [this, p = std::move(payload)] {
    PLEXUS_PROFILE_SCOPE(kDeferredHop);
    deferred_.OnStart();
    host_.Charge(sim::Duration::Nanos(host_.costs().batch_frame.ns() *
                                      static_cast<std::int64_t>(p->frames)));
    batch_active_ = true;
    for (GraphFn& fn : p->fns) fn();
    for (BatchFlushEntry& f : p->flushes) f.flush(true);
    CloseBatchScope(/*sheddable=*/false);
  });
}

void PlexusHost::WireGraph() {
  // --- Ethernet level: ARP, IP, active messages -----------------------------
  // Kernel handlers dispatch on one EtherType each: installed behind the
  // demux index (keyed, no residual guard), so the device interrupt path
  // pays one demux lookup regardless of how many protocols are wired in.
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "arp-input";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) {
          auto payload = frame.ShareClone();
          payload->TrimFront(sizeof(net::EthernetHeader));
          // Route the ARP packet to the service owning the receive interface.
          arp(IfIndexForRcvif(frame.pkthdr().rcvif)).Input(std::move(payload));
        },
        net::ethertype::kArp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "ip-input";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) {
          auto packet = frame.ShareClone();
          packet->TrimFront(sizeof(net::EthernetHeader));
          ip_layer().Input(std::move(packet));
        },
        net::ethertype::kIpv4, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "active-messages";
    auto r = eth_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& frame, const net::EthernetHeader&) { am_->Input(frame); },
        net::ethertype::kActiveMessage, nullptr, opts);
    assert(r.ok());
    (void)r;
  }

  // --- IP glue ---------------------------------------------------------------
  ip_layer().SetDeliver([this](net::MbufPtr payload, const net::Ipv4Header& hdr) {
    ip_mgr_->edge_.Push(std::move(payload), hdr);
  });

  // --- IP level: ICMP, UDP, TCP ----------------------------------------------
  // Same scheme one layer up: each kernel transport claims its protocol
  // number in Ip.PacketRecv's demux index.
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "icmp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          icmp().Input(payload.ShareClone(), hdr.src);
        },
        net::ipproto::kIcmp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "udp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          udp_layer().Input(payload.ShareClone(), hdr.src, hdr.dst);
        },
        net::ipproto::kUdp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
  {
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    opts.name = "tcp-input";
    auto r = ip_mgr_->packet_recv().InstallKeyed(
        [this](const net::Mbuf& payload, const net::Ipv4Header& hdr) {
          tcp_mgr_->edge_.Push(payload.ShareClone(), hdr);
        },
        net::ipproto::kTcp, nullptr, opts);
    assert(r.ok());
    (void)r;
  }
}

// --- crash / cold restart ------------------------------------------------------

void PlexusHost::Crash() {
  if (crashed_) return;
  assert(!host_.in_task() && "Crash() models an external power cut, not a syscall");
  crashed_ = true;
  if (crashes_ == nullptr) crashes_ = &host_.metrics().counter("host.crashes");
  crashes_->Inc();
  host_.TraceInstant("host.crash", "chaos");

  // Teardown runs top-down in dependency order. The TCP manager first: its
  // destructor detaches every endpoint (connections Vanish — all timers
  // cancelled, no segments, no callbacks) while application-held
  // shared_ptrs keep the endpoint objects alive harmlessly.
  tcp_mgr_.reset();
  udp_mgr_.reset();
  ip_mgr_.reset();
  eth_mgr_.reset();
  am_.reset();
  CrashLowerHalf();
  // Queued work dies with the machine: dropping pending CPU tasks releases
  // any buffer references they captured, so the pool drains to zero — the
  // leak invariant the chaos harness checks.
  host_.cpu().Reset();
  deferred_.Reset();
  // Any open batch scope died with the task that opened it; the managers'
  // parked bursts were freed when the managers were torn down above.
  batch_active_ = false;
  batch_fns_.clear();
  batch_flushes_.clear();
}

void PlexusHost::Restart(std::optional<net::MacAddress> new_mac) {
  if (!crashed_) return;
  assert(!host_.in_task() && "Restart() happens from outside the simulated machine");
  crashed_ = false;
  if (restarts_ == nullptr) restarts_ = &host_.metrics().counter("host.restarts");
  restarts_->Inc();
  host_.TraceInstant("host.restart", "chaos");

  RestartLowerHalf(new_mac);
  // A fresh graph. A reborn TcpManager has an empty demux: stale segments
  // from old peers hit no connection and draw RSTs — exactly how they
  // learn about the restart.
  BuildGraph();
  ExportDomainSymbols();
}

}  // namespace core
