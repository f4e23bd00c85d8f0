// The network harness every test and bench builds its scenarios on: the
// two shapes nearly all of them need, built one way.
//
//  * Lan: a simulator, one medium, and the hosts on it. The medium is the
//    testbed's (Ethernet is a shared segment; ATM, through the ForeRunner
//    switch, and back-to-back T3 are point-to-point links). Host `id` is a
//    Plexus or DIGITAL UNIX host with MAC FromId(id) and address
//    10.0.0.id/24, attached in the order it was added; attach order is
//    the medium's tap order. An interface brings its connected route, so
//    every host reaches every other at once.
//  * TcpPipe: two bare sim::Hosts and one TCP connection between them —
//    connection to connection, or a client against a TcpDemux-fronted
//    server — joined by a wire that passes every segment through one tap
//    (observe, record, delay or drop it) and delivers it a fixed delay
//    later on the peer's CPU.
//
// Tests include this header directly; benches include it as
// "tests/net_harness.h".
#ifndef PLEXUS_TESTS_NET_HARNESS_H_
#define PLEXUS_TESTS_NET_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net/address.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/view.h"
#include "os/socket_host.h"
#include "proto/tcp.h"
#include "proto/tcp_demux.h"
#include "sim/cost_model.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace harness {

class Lan {
 public:
  explicit Lan(drivers::DeviceProfile profile = drivers::DeviceProfile::Ethernet10(),
               std::uint64_t fault_seed = 0x5eed)
      : profile_(std::move(profile)) {
    if (profile_.name.rfind("ethernet", 0) == 0) {
      medium_ = std::make_unique<drivers::EthernetSegment>(sim, fault_seed);
    } else {
      medium_ = std::make_unique<drivers::PointToPointLink>(sim, fault_seed);
    }
  }
  // Hosts go first, newest first, as members declared after the medium do.
  ~Lan() {
    while (!hosts_.empty()) hosts_.pop_back();
  }
  Lan(const Lan&) = delete;
  Lan& operator=(const Lan&) = delete;

  static constexpr net::Ipv4Address Ip(int id) {
    return net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(id));
  }
  static constexpr net::MacAddress Mac(int id) {
    return net::MacAddress::FromId(static_cast<std::uint32_t>(id));
  }

  core::PlexusHost& AddPlexus(int id, std::string name, std::uint64_t seed = 1,
                              core::HandlerMode mode = core::HandlerMode::kInterrupt,
                              const sim::CostModel& costs = sim::CostModel::Default1996()) {
    return Attach(std::make_shared<core::PlexusHost>(sim, std::move(name), costs, profile_,
                                                     NetConfig(id), mode, seed));
  }
  os::SocketHost& AddOs(int id, std::string name, std::uint64_t seed = 1,
                        const sim::CostModel& costs = sim::CostModel::Default1996()) {
    return Attach(std::make_shared<os::SocketHost>(sim, std::move(name), costs, profile_,
                                                   NetConfig(id), seed));
  }

  // A static ARP entry on every host for every other: traffic starts
  // without a resolution exchange, and fault-injected media cannot make
  // set-up flaky.
  void WarmArp() {
    for (const auto& host : hosts_) {
      for (const auto& peer : hosts_) {
        if (peer != host) host->arp().AddStatic(peer->ip_address(), peer->mac());
      }
    }
  }

  drivers::Medium& medium() { return *medium_; }

  sim::Simulator sim;

 private:
  static proto::HostStack::NetConfig NetConfig(int id) { return {Mac(id), Ip(id), 24}; }

  template <typename H>
  H& Attach(std::shared_ptr<H> host) {
    host->AttachTo(*medium_);
    hosts_.push_back(host);
    return *host;
  }

  drivers::DeviceProfile profile_;
  std::unique_ptr<drivers::Medium> medium_;
  std::vector<std::shared_ptr<proto::HostStack>> hosts_;
};

class TcpPipe {
 public:
  static constexpr std::uint16_t kClientPort = 1000;
  static constexpr std::uint16_t kServerPort = 80;

  struct Config {
    std::string client_name = "client";
    std::string server_name = "server";
    std::uint64_t client_seed = 11;
    std::uint64_t server_seed = 22;
    net::Ipv4Address client_ip = net::Ipv4Address(10, 0, 0, 1);
    net::Ipv4Address server_ip = net::Ipv4Address(10, 0, 0, 2);
    sim::Duration delay = sim::Duration::Millis(5);
  };

  // One segment as the tap sees it, before the wire carries it.
  struct Segment {
    const net::Mbuf& packet;
    net::TcpHeader hdr;
    std::size_t payload_len;
    bool from_client;
    int index;  // per-direction emission counter
    net::Ipv4Address src, dst;
    sim::Duration delay;  // the tap may lengthen it
  };
  // Returns false to drop the segment.
  using Tap = std::function<bool(Segment&)>;

  TcpPipe() : TcpPipe(Config{}) {}
  explicit TcpPipe(Config c)
      : config(std::move(c)),
        client_host(sim, config.client_name, sim::CostModel::Default1996(), config.client_seed),
        server_host(sim, config.server_name, sim::CostModel::Default1996(), config.server_seed) {}

  // Both ends as plain connections; the server listens in Handshake.
  void Create(proto::TcpConfig client_cfg = {}, proto::TcpConfig server_cfg = {}) {
    CreateClient(client_cfg);
    server = std::make_unique<proto::TcpConnection>(
        server_host, server_cfg,
        proto::TcpEndpoints{config.server_ip, kServerPort, config.client_ip, kClientPort},
        Callbacks(/*is_client=*/false));
  }

  // Only the client: the server side is `demux`, whose listeners hand out
  // Accept()ed connections and whose strays draw a RST back to the client.
  void CreateClient(proto::TcpConfig cfg = {}) {
    client = std::make_unique<proto::TcpConnection>(
        client_host, cfg,
        proto::TcpEndpoints{config.client_ip, kClientPort, config.server_ip, kServerPort},
        Callbacks(/*is_client=*/true));
    demux.SetRstSender([this](const net::TcpHeader& hdr, net::Ipv4Address src,
                              net::Ipv4Address dst, std::size_t payload_len) {
      Carry(proto::MakeRst(nullptr, hdr, src, dst, payload_len), dst, src,
            /*from_client=*/false);
      rst_sent = true;
    });
  }

  // A listening server connection for `ep`, registered with the demux: what
  // a demux listener's factory returns.
  proto::TcpConnection* Accept(const proto::TcpEndpoints& ep) {
    accepted.push_back(std::make_unique<proto::TcpConnection>(server_host, proto::TcpConfig{}, ep,
                                                              Callbacks(/*is_client=*/false)));
    accepted.back()->Listen();
    demux.Register(accepted.back().get());
    return accepted.back().get();
  }

  // The server listens, the client connects `lead` later, and the pipe runs
  // for `settle`. True when both ends are established.
  bool Handshake(sim::Duration settle = sim::Duration::Seconds(5),
                 sim::Duration lead = sim::Duration::Zero()) {
    server_host.Submit(sim::Priority::kKernel, [this] { server->Listen(); });
    sim.RunFor(lead);
    client_host.Submit(sim::Priority::kKernel, [this] { client->Connect(); });
    sim.RunFor(settle);
    return client->state() == proto::TcpConnection::State::kEstablished &&
           server->state() == proto::TcpConnection::State::kEstablished;
  }

  void ClientSend(std::string_view s) { ClientSend(std::as_bytes(std::span(s))); }
  void ClientSend(std::span<const std::byte> data) {
    client_host.Submit(sim::Priority::kKernel,
                       [this, d = std::vector<std::byte>(data.begin(), data.end())] {
                         client->Send(d);
                       });
  }

  // Delivers a forged segment to the server side `at` from now, as if from
  // the client, past the tap.
  void Inject(sim::Duration at, net::MbufPtr segment) {
    sim.Schedule(at, [this, seg = std::move(segment)]() mutable {
      Arrive(std::move(seg), config.client_ip, config.server_ip, /*from_client=*/true);
    });
  }

  std::string ServerReceivedString() const { return AsString(server_rx); }
  std::string ClientReceivedString() const { return AsString(client_rx); }

  Config config;
  sim::Simulator sim;
  sim::Host client_host;
  sim::Host server_host;
  std::unique_ptr<proto::TcpConnection> client;
  std::unique_ptr<proto::TcpConnection> server;
  proto::TcpDemux demux;
  std::vector<std::unique_ptr<proto::TcpConnection>> accepted;
  Tap tap;

  std::vector<std::byte> client_rx, server_rx;
  bool client_established = false;
  bool client_saw_close = false, server_saw_close = false;
  bool client_reset = false, server_reset = false;
  bool rst_sent = false;
  // Each side's initial sequence number, sniffed from the SYNs it sent.
  std::uint32_t client_iss = 0, server_iss = 0;

 private:
  proto::TcpConnection::Callbacks Callbacks(bool is_client) {
    proto::TcpConnection::Callbacks cbs;
    cbs.send_segment = [this, is_client](net::MbufPtr seg, net::Ipv4Address src,
                                         net::Ipv4Address dst) {
      Carry(std::move(seg), src, dst, is_client);
    };
    if (is_client) cbs.on_established = [this] { client_established = true; };
    cbs.on_data = [&rx = is_client ? client_rx : server_rx](std::span<const std::byte> d) {
      rx.insert(rx.end(), d.begin(), d.end());
    };
    cbs.on_remote_close = [&flag = is_client ? client_saw_close : server_saw_close] {
      flag = true;
    };
    cbs.on_reset = [&flag = is_client ? client_reset : server_reset](const std::string&) {
      flag = true;
    };
    return cbs;
  }

  // The wire: the tap sees the segment, then the peer receives it after the
  // (possibly lengthened) delay.
  void Carry(net::MbufPtr seg, net::Ipv4Address src, net::Ipv4Address dst, bool from_client) {
    const auto hdr = net::ViewPacket<net::TcpHeader>(*seg);
    if ((hdr.flags & net::tcpflag::kSyn) != 0) {
      (from_client ? client_iss : server_iss) = hdr.seq.value();
    }
    Segment s{*seg,        hdr, seg->PacketLength() - hdr.header_length(),
              from_client, from_client ? client_segments_++ : server_segments_++,
              src,         dst, config.delay};
    if (tap && !tap(s)) return;
    sim.Schedule(s.delay, [this, seg = std::move(seg), src, dst, from_client]() mutable {
      Arrive(std::move(seg), src, dst, from_client);
    });
  }

  // Hands a segment to the receiving side's TCP, on that side's CPU.
  void Arrive(net::MbufPtr seg, net::Ipv4Address src, net::Ipv4Address dst, bool from_client) {
    sim::Host& receiver = from_client ? server_host : client_host;
    receiver.Submit(sim::Priority::kKernel,
                    [this, seg = std::move(seg), src, dst, from_client]() mutable {
                      if (!from_client) {
                        client->Input(std::move(seg), src, dst);
                      } else if (server) {
                        server->Input(std::move(seg), src, dst);
                      } else {
                        demux.Input(std::move(seg), src, dst);
                      }
                    });
  }

  static std::string AsString(const std::vector<std::byte>& bytes) {
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  int client_segments_ = 0;
  int server_segments_ = 0;
};

}  // namespace harness

#endif  // PLEXUS_TESTS_NET_HARNESS_H_
