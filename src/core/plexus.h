// Plexus: the extensible protocol graph (the paper's core contribution).
//
// The graph is a decision tree of events and guards (Figure 1):
//
//        [ app handlers ]   [ app handlers ]     (installed via managers)
//              | guard:port      | guard:port
//          Udp.PacketRecv    Tcp.PacketRecv
//              | guard:proto=17  | guard:proto=6
//              +------ Ip.PacketRecv ------+--- Icmp (guard:proto=1)
//                          | guard:type=0x0800
//        Arp (guard:0x806) + Ethernet.PacketRecv + ActiveMsg (guard:0x88B5)
//                          |
//                     [ device ]
//
// Packets received from the network are pushed *up* by raising each layer's
// PacketRecv event; guards demultiplex. Each event's manager configures a
// demux key (EtherType, IP protocol, destination port) and installs
// handlers behind declarative filter::Predicate discriminators, so the
// dispatcher indexes them: one field read + hash probe per raise instead of
// one guard evaluation per installed handler (guard compilation). Packets sent by applications are
// pushed *down* through per-endpoint send paths owned by protocol managers,
// which prevent spoofing by fixing the source fields, and prevent snooping
// by installing only port-restricted guards on behalf of applications.
//
// Two execution modes reproduce Section 4.1's bars:
//   kInterrupt — handlers run inside the device interrupt (EPHEMERAL
//                required; lowest latency).
//   kThread    — "each event raise creating a new thread": every hop up the
//                graph costs a thread spawn + dispatch.
#ifndef PLEXUS_CORE_PLEXUS_H_
#define PLEXUS_CORE_PLEXUS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/packet_filter.h"
#include "drivers/medium.h"
#include "drivers/nic.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/mbuf_pool.h"
#include "proto/active_message.h"
#include "proto/arp.h"
#include "proto/eth.h"
#include "proto/gro.h"
#include "proto/host_stack.h"
#include "proto/http.h"
#include "proto/icmp.h"
#include "proto/ip.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"
#include "proto/tcp_stream.h"
#include "proto/udp.h"
#include "sim/host.h"
#include "spin/deferred.h"
#include "spin/dispatcher.h"
#include "spin/domain.h"
#include "spin/event.h"
#include "spin/linker.h"

namespace core {

enum class HandlerMode {
  kInterrupt,  // application handlers run at interrupt level (EPHEMERAL)
  kThread,     // each event raise spawns a handler thread
};

// Graph events. Handlers see the packet read-only plus parsed metadata.
using EthernetRecvEvent = spin::Event<const net::Mbuf&, const net::EthernetHeader&>;
using IpRecvEvent = spin::Event<const net::Mbuf&, const net::Ipv4Header&>;
using UdpRecvEvent = spin::Event<const net::Mbuf&, const proto::UdpDatagram&>;
using TcpRecvEvent = spin::Event<const net::Mbuf&, const net::Ipv4Header&>;

class PlexusHost;

// One edge up the protocol graph: a layer handing a packet to the next
// layer's PacketRecv event. Outside a batch scope each packet takes its own
// GraphHop and Raise. Inside one the edge parks the packet and registers
// one flush for the scope, so the burst rides one coalesced hop and one
// RaiseBatch; `after_burst` runs once the whole burst has been dispatched.
template <typename Hdr>
class GraphEdge {
 public:
  using RecvEvent = spin::Event<const net::Mbuf&, const Hdr&>;

  GraphEdge(PlexusHost& plexus, RecvEvent& event, bool sheddable,
            std::function<void()> after_burst = nullptr)
      : plexus_(plexus),
        event_(event),
        sheddable_(sheddable),
        after_burst_(std::move(after_burst)) {}
  // Parked hops and flushes hold `this`.
  GraphEdge(const GraphEdge&) = delete;
  GraphEdge& operator=(const GraphEdge&) = delete;

  void Push(net::MbufPtr packet, const Hdr& hdr);

 private:
  // flush(false): the deferred queue shed the burst.
  void Flush(bool deliver);

  PlexusHost& plexus_;
  RecvEvent& event_;
  const bool sheddable_;
  std::function<void()> after_burst_;
  std::vector<std::pair<net::MbufPtr, Hdr>> pending_;
};

// ---------------------------------------------------------------------------
// Protocol managers. "Access to these events is controlled by a
// protocol-specific manager, which ensures that applications neither spoof
// nor snoop packets ... It installs event handlers and guards on the behalf
// of untrusted applications." (Section 3.1)
//
// Fault containment: every manager assigns a default FaultPolicy to the
// handlers it installs on behalf of applications — exceptions are fenced at
// the dispatch boundary, and kDefaultMaxStrikes terminations/faults
// quarantine the handler (Section 3.3's "asynchronously terminate an
// over-budget handler", extended with strike-based removal). A caller may
// pre-set fault.max_strikes (negative = never quarantine); its
// on_quarantined callback is preserved, wrapped so the manager can release
// guards and ports first.
// ---------------------------------------------------------------------------

// Strikes a manager allows an application handler before quarantining it.
inline constexpr int kDefaultMaxStrikes = 3;

// Ethernet manager: bottom of the graph. Owns Ethernet.PacketRecv and the
// right to transmit raw frames. Applications may install EtherType-guarded
// handlers (e.g. active messages); in interrupt mode the handler must be
// EPHEMERAL or it is rejected.
class EthernetManager {
 public:
  EthernetManager(PlexusHost& plexus, proto::EthLayer& eth);

  // Installs an application handler for one EtherType. The manager builds
  // the guard itself — the application cannot see frames of other types
  // (anti-snooping). A time limit may be assigned for interrupt-mode
  // handlers.
  spin::Result<spin::HandlerId> InstallTypeHandler(
      std::uint16_t ethertype,
      std::function<void(const net::Mbuf& frame, const net::EthernetHeader&)> handler,
      spin::HandlerOptions opts = {});

  // Installs a handler behind a *declarative* packet filter (the [MRA87]
  // model): the manager can inspect the predicate before accepting it, and
  // rejects filters that could snoop (an empty predicate, which matches
  // nothing, is allowed; a bare `True()` that matches everything requires
  // the kernel domain and is refused here).
  spin::Result<spin::HandlerId> InstallFilteredHandler(
      const filter::Predicate& predicate,
      std::function<void(const net::Mbuf& frame, const net::EthernetHeader&)> handler,
      spin::HandlerOptions opts = {});

  bool Uninstall(spin::HandlerId id);

  // Sends a frame with the given type; the source MAC is overwritten with
  // this host's address (anti-spoofing: "or more simply overwrite the
  // source field").
  void Output(net::MbufPtr payload, net::MacAddress dst, std::uint16_t ethertype);

  EthernetRecvEvent& packet_recv() { return packet_recv_; }

 private:
  friend class PlexusHost;

  proto::EthLayer& eth_;
  EthernetRecvEvent packet_recv_;
  GraphEdge<net::EthernetHeader> edge_;  // driver -> packet_recv_
};

// IP manager: validates/reassembles via the shared Ipv4Layer, then raises
// Ip.PacketRecv. Owns the IP output right.
class IpManager {
 public:
  IpManager(PlexusHost& plexus, proto::Ipv4Layer& ip);

  IpRecvEvent& packet_recv() { return packet_recv_; }

  // Installs an application handler for one IP protocol number (an
  // application-specific transport, Section 3.1). The manager builds the
  // guard — the handler sees only its own protocol's packets — and refuses
  // the kernel-owned protocols (ICMP/TCP/UDP).
  spin::Result<spin::HandlerId> InstallProtocolHandler(
      std::uint8_t protocol,
      std::function<void(const net::Mbuf& payload, const net::Ipv4Header&)> handler,
      spin::HandlerOptions opts = {});
  bool Uninstall(spin::HandlerId id);

  // Privileged output (held by transport managers and trusted extensions).
  // src is overwritten with the host address unless the caller holds the
  // raw-send right (spoof prevention).
  void Output(net::MbufPtr payload, net::Ipv4Address dst, std::uint8_t protocol,
              net::Ipv4Address src_override = net::Ipv4Address::Any());

  // Re-injects an already-formed IP packet toward a new destination (used
  // by the in-kernel forwarder, Section 5).
  void Reinject(net::MbufPtr packet, net::Ipv4Address next_hop_dst);

  proto::Ipv4Layer& layer() { return ip_; }

 private:
  friend class PlexusHost;

  PlexusHost& plexus_;
  proto::Ipv4Layer& ip_;
  IpRecvEvent packet_recv_;
  GraphEdge<net::Ipv4Header> edge_;  // IP input -> packet_recv_
};

// A UDP communication right: created by the UDP manager for one local port.
// Sending through it cannot spoof (source ip/port are the endpoint's), and
// its receive handlers only ever see packets for this port (the manager
// supplies the guard).
class UdpEndpoint {
 public:
  ~UdpEndpoint();
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  std::uint16_t local_port() const { return port_; }

  // Application-specific choice from the paper's motivation: UDP with the
  // checksum disabled for integrity-optional data.
  void set_checksum_enabled(bool v) { checksum_ = v; }
  bool checksum_enabled() const { return checksum_; }

  // Sends a datagram from this endpoint. Must run inside a CPU task.
  // This is the paper's fast anti-spoofing strategy: the source fields are
  // simply overwritten with the endpoint's own.
  void Send(net::MbufPtr payload, net::Ipv4Address dst_ip, std::uint16_t dst_port);

  // The paper's alternative strategy, "useful for debugging protocols":
  // the application builds the entire UDP packet (header included) and the
  // endpoint VERIFIES that the source field matches before sending.
  // Returns false (and counts a spoof rejection) on mismatch.
  bool SendVerified(net::MbufPtr udp_packet, net::Ipv4Address dst_ip);

  // Installs a receive handler; the manager-made guard restricts it to this
  // endpoint's port. Returns the handler id (for uninstall).
  spin::Result<spin::HandlerId> InstallReceiveHandler(
      std::function<void(const net::Mbuf& payload, const proto::UdpDatagram&)> handler,
      spin::HandlerOptions opts = {});
  bool UninstallReceiveHandler(spin::HandlerId id);

 private:
  friend class UdpManager;
  UdpEndpoint(PlexusHost& plexus, std::uint16_t port) : plexus_(plexus), port_(port) {}

  PlexusHost& plexus_;
  std::uint16_t port_;
  bool checksum_ = true;
  std::vector<spin::HandlerId> installed_;
};

class UdpManager {
 public:
  UdpManager(PlexusHost& plexus, proto::UdpLayer& udp);

  // Claims a local port; fails if already claimed (openness: any
  // application, regardless of privilege, may create endpoints).
  spin::Result<std::shared_ptr<UdpEndpoint>> CreateEndpoint(std::uint16_t local_port);

  UdpRecvEvent& packet_recv() { return packet_recv_; }
  proto::UdpLayer& layer() { return udp_; }

  struct Stats {
    std::uint64_t spoof_rejections = 0;   // SendVerified source mismatches
    std::uint64_t unreachable_sent = 0;   // ICMP port-unreachable generated
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class PlexusHost;
  friend class UdpEndpoint;

  void ReleasePort(std::uint16_t port) { ports_in_use_.erase(port); }

  PlexusHost& plexus_;
  proto::UdpLayer& udp_;
  UdpRecvEvent packet_recv_;
  std::set<std::uint16_t> ports_in_use_;
  Stats stats_;
};

// A TCP connection exposed as a ByteStream (so HTTP and the examples run
// unchanged on Plexus and the baseline). Both boundary crossings run
// inline: a Plexus application is a kernel extension, so its calls enter
// the stack with no trap or copyin, and received bytes reach it with no
// wakeup or copyout.
class PlexusTcpEndpoint : public proto::TcpStream {
 public:
  // True until the host it lives on crashes out from under it.
  bool attached() const { return registered(); }

 private:
  friend class TcpManager;
  PlexusTcpEndpoint(PlexusHost& plexus, proto::TcpEndpoints ep);

  void ToKernel(std::span<const std::byte> bytes, Crossing work) override { work(bytes); }
  void ToApp(std::span<const std::byte> bytes, Crossing work) override { work(bytes); }
};

class TcpManager {
 public:
  using Acceptor = std::function<void(std::shared_ptr<PlexusTcpEndpoint>)>;

  TcpManager(PlexusHost& plexus, proto::TcpConfig config);
  // Detaches every endpoint it ever wired (power-fail semantics): their
  // connections vanish without emitting a segment or a callback, and
  // application-held shared_ptrs outlive the manager safely.
  ~TcpManager();

  // Active open.
  std::shared_ptr<PlexusTcpEndpoint> Connect(net::Ipv4Address remote_ip,
                                             std::uint16_t remote_port,
                                             std::uint16_t local_port = 0);
  // Passive open. ListenOptions bounds the SYN backlog and selects the
  // SYN-cookie policy; the default (backlog 0) is the legacy unbounded
  // listener, byte-identical to the pre-hardening stack.
  bool Listen(std::uint16_t port, Acceptor acceptor, proto::ListenOptions opts = {});
  void StopListening(std::uint16_t port);

  // Multiple implementations of one protocol (Section 3.1): installs an
  // alternate TCP implementation for a set of ports. The standard
  // implementation's guard excludes these ports; the special handler's
  // guard admits only them.
  spin::Result<spin::HandlerId> InstallSpecialImplementation(
      std::set<std::uint16_t> ports,
      std::function<void(const net::Mbuf& segment, const net::Ipv4Header&)> handler,
      spin::HandlerOptions opts = {});
  bool UninstallSpecialImplementation(spin::HandlerId id);
  // Grows/shrinks the port set claimed by a special implementation at
  // runtime (the in-kernel forwarder allocates NAT ports on demand).
  void AddSpecialPort(spin::HandlerId id, std::uint16_t port);
  void RemoveSpecialPort(spin::HandlerId id, std::uint16_t port);

  TcpRecvEvent& packet_recv() { return packet_recv_; }
  proto::TcpDemux& demux() { return demux_; }
  const proto::TcpConfig& config() const { return config_; }
  void set_config(const proto::TcpConfig& c) { config_ = c; }

  // The receive coalescer at the demux edge. Active only inside a batch
  // scope, which only a NIC rx burst opens; the TCP edge flushes it at the
  // end of every burst.
  proto::GroEngine& gro() { return *gro_; }

  // Every wired endpoint still attached (not crashed away, not expired):
  // the per-flow table the flight recorder snapshots.
  std::vector<std::shared_ptr<PlexusTcpEndpoint>> LiveEndpoints() const;

  // Accepted-endpoint keep-alives currently parked (tests: the sweep must
  // bound this against connection churn).
  std::size_t accepted_keepalive_count() const { return accepted_.size(); }

 private:
  friend class PlexusHost;
  friend class PlexusTcpEndpoint;

  void WireConnection(const std::shared_ptr<PlexusTcpEndpoint>& ep);
  bool IsSpecialPort(std::uint16_t port) const;
  // Amortized reap of closed connections from accepted_ (a server that
  // churns short connections must not grow the keep-alive list forever).
  void SweepAccepted();

  PlexusHost& plexus_;
  proto::TcpConfig config_;
  proto::TcpDemux demux_;
  TcpRecvEvent packet_recv_;
  GraphEdge<net::Ipv4Header> edge_;  // Ip.PacketRecv -> packet_recv_
  std::unique_ptr<proto::GroEngine> gro_;
  std::map<std::uint16_t, Acceptor> acceptors_;
  std::vector<std::shared_ptr<PlexusTcpEndpoint>> accepted_;  // keep-alive
  std::vector<std::weak_ptr<PlexusTcpEndpoint>> wired_;  // for crash teardown
  std::map<spin::HandlerId, std::shared_ptr<std::set<std::uint16_t>>> special_ports_;
  std::uint16_t next_ephemeral_port_ = 32768;
  // accepted_ sweep watermark: next sweep when size reaches 2x survivors.
  std::size_t accepted_sweep_mark_ = 32;
  // Lazily resolved: only runs that overflow the accept path grow it.
  sim::Counter* accept_overflows_ = nullptr;  // tcp.accept_overflows
  sim::Counter* tcp_malformed_ = nullptr;     // proto.tcp.malformed_drops
};

// ---------------------------------------------------------------------------
// PlexusHost: a workstation running SPIN + Plexus — the protocol graph on
// top of the shared proto::HostStack chassis.
// ---------------------------------------------------------------------------

class PlexusHost : public proto::HostStack {
 public:
  PlexusHost(sim::Simulator& s, std::string name, sim::CostModel costs,
             drivers::DeviceProfile profile, NetConfig net_config,
             HandlerMode mode = HandlerMode::kInterrupt, std::uint64_t seed = 1);

  // --- subsystem access ---
  spin::Dispatcher& dispatcher() { return dispatcher_; }
  spin::DynamicLinker& linker() { return linker_; }
  proto::ActiveMessageEndpoint& active_messages() { return *am_; }

  EthernetManager& ethernet() { return *eth_mgr_; }
  IpManager& ip() { return *ip_mgr_; }
  UdpManager& udp() { return *udp_mgr_; }
  TcpManager& tcp() { return *tcp_mgr_; }

  // Logical protection domains (Section 2): the kernel domain exports every
  // interface; the application domain only the endpoint-creation interfaces.
  const spin::DomainPtr& kernel_domain() { return kernel_domain_; }
  const spin::DomainPtr& app_domain() { return app_domain_; }

  HandlerMode mode() const { return mode_; }

  // Runs `fn` as application/kernel work on this host's CPU.
  void Run(sim::Host::TaskFn fn) { host_.Submit(sim::Priority::kKernel, std::move(fn)); }

  // One hop up the protocol graph: inline in interrupt mode, a fresh
  // handler thread in thread mode. `sheddable` marks the driver-edge hop:
  // thread-mode overload may refuse it (see spin::DeferredQueue) instead of
  // growing the spawned-thread backlog without bound. Interior hops —
  // packets the graph already invested work in — are never shed.
  // GraphFn is move-only with inline capture: the raise closure carries the
  // packet as a plain MbufPtr, so a hop costs no allocation at all.
  using GraphFn = sim::SmallFn<void(), 48>;
  void GraphHop(GraphFn raise, bool sheddable = false);

  // --- batched packet path ---------------------------------------------------
  //
  // While an rx burst is being delivered (and again while each coalesced
  // hop task runs), a batch scope is active: GraphHop parks its raise
  // instead of spawning a thread, and the graph edges (eth, ip, tcp) park
  // per-packet work and register ONE flush for the scope. Closing the scope admits the whole group as a single
  // deferred-queue unit (CostModel::batch_hop once + batch_frame per
  // carried packet, instead of thread_spawn + thread_handoff per packet)
  // and runs it in one thread-priority task — under a fresh scope, so the
  // burst travels the graph one coalesced hop per layer, preserving the
  // per-packet path's layer-by-layer interleave order. Only a NIC rx burst
  // opens a scope, so with PLEXUS_BATCH off none ever opens and every hop
  // takes the per-packet path.
  bool batch_active() const { return batch_active_; }
  // Registers a flush for the current scope (call once, on the first
  // parked packet). `flush(true)` delivers the parked packets, `flush(false)`
  // drops them (the queue shed the burst); `count()` is sampled at scope
  // close for the admission charge.
  void AddBatchFlush(std::function<void(bool deliver)> flush,
                     std::function<std::size_t()> count);

  spin::DeferredQueue& deferred_queue() { return deferred_; }

  // Whether graph events demand EPHEMERAL handlers (interrupt mode).
  bool requires_ephemeral() const { return mode_ == HandlerMode::kInterrupt; }

  // A human-readable snapshot of the protocol graph: each event and the
  // handlers installed on it (incremental-adaptation observability).
  std::string DescribeGraph() const;

  // Flight recorder: one deterministic JSON document (schema
  // "plexus-flight-v1") merging host + sim metrics, pool/ring/deferred
  // occupancy, dispatcher totals, quarantined handlers, a per-flow TCP_INFO
  // table with any armed samplers, and the tracer tail. Cheap enough to
  // dump from a failing test's teardown.
  std::string SnapshotTelemetry(std::size_t tracer_tail = 32);

  // --- chaos: host power failure + cold restart ---
  //
  // Crash() models a power cut: ALL protocol state is lost — TCP
  // connections/timers, ARP caches, IP reassembly, graph handlers, the
  // deferred-thread backlog, queued CPU work. The NICs power off (frames
  // arriving on the wire vanish). The sim::Host, its metrics, the
  // dispatcher, linker, domains, and the mbuf pool survive — the pool is
  // drained back to empty by the teardown, which is exactly the zero-leak
  // invariant the chaos harness asserts. The graph goes first, then the
  // chassis's lower half, then the queued CPU work and deferred threads.
  void Crash();
  // Reboots with a fresh protocol graph. Nothing of the old transport state
  // remains: peers discover the restart the hard way (retransmit, time out,
  // or get RSTs from the reborn demux). Routing config is restored; pass a
  // MAC to model a swapped adapter (peers' stale ARP entries must expire).
  void Restart(std::optional<net::MacAddress> new_mac = std::nullopt);
  bool crashed() const { return crashed_; }

 private:
  struct BatchFlushEntry {
    std::function<void(bool deliver)> flush;
    std::function<std::size_t()> count;
  };

  // The graph above the chassis: active messages, the four managers, and
  // the kernel handlers wiring them together.
  void BuildGraph();
  void WireGraph();
  void OpenBatchScope();
  void CloseBatchScope(bool sheddable);
  void ExportDomainSymbols();

  spin::DeferredQueue deferred_;
  spin::Dispatcher dispatcher_;
  spin::DynamicLinker linker_;
  HandlerMode mode_;
  std::unique_ptr<proto::ActiveMessageEndpoint> am_;

  std::unique_ptr<EthernetManager> eth_mgr_;
  std::unique_ptr<IpManager> ip_mgr_;
  std::unique_ptr<UdpManager> udp_mgr_;
  std::unique_ptr<TcpManager> tcp_mgr_;

  spin::DomainPtr kernel_domain_;
  spin::DomainPtr app_domain_;

  // Open batch scope: per-frame hops parked here until the scope closes.
  // Never survives the task that opened it (scopes close synchronously),
  // but Crash() clears it anyway — defense against a dying task.
  bool batch_active_ = false;
  std::vector<GraphFn> batch_fns_;
  std::vector<BatchFlushEntry> batch_flushes_;

  bool crashed_ = false;
  // Lazily resolved: hosts that never crash add no instruments (keeps
  // fault-free metrics snapshots byte-identical).
  sim::Counter* crashes_ = nullptr;
  sim::Counter* restarts_ = nullptr;
};

}  // namespace core

#endif  // PLEXUS_CORE_PLEXUS_H_
