// Active messages over raw Ethernet (paper Section 3.3, [vECGS92]).
//
// "We have extended the protocol graph ... to support active messages over
// Ethernet. To minimize latency, the active message handlers execute in the
// network interrupt handler." A message names a handler in the receiver's
// table; the handler does "little more than reference memory and reply with
// an acknowledgement", so it satisfies the EPHEMERAL contract and runs at
// interrupt level.
//
// This module provides the message format and the handler-table endpoint;
// the Plexus wiring installs the guard (discriminating on the Ethernet type
// field, exactly as in the paper's Figure 2) and the ephemeral handler.
#ifndef PLEXUS_PROTO_ACTIVE_MESSAGE_H_
#define PLEXUS_PROTO_ACTIVE_MESSAGE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

#include "net/headers.h"
#include "net/mbuf.h"
#include "net/mbuf_pool.h"
#include "net/view.h"
#include "proto/eth.h"
#include "sim/host.h"

namespace proto {

class ActiveMessageEndpoint {
 public:
  // Handler invoked at interrupt level. Must honor the EPHEMERAL contract:
  // no blocking, tolerate termination. Arguments: sender MAC, arg words,
  // payload.
  using Handler = std::function<void(net::MacAddress from, std::uint32_t arg0,
                                     std::uint32_t arg1, std::span<const std::byte> payload)>;

  explicit ActiveMessageEndpoint(sim::Host& host, EthLayer& eth) : host_(host), eth_(eth) {}

  void RegisterHandler(std::uint16_t id, Handler h) { handlers_[id] = std::move(h); }

  // Sends an active message. Must run inside a CPU task.
  void Send(net::MacAddress dst, std::uint16_t handler_id, std::uint32_t arg0,
            std::uint32_t arg1, std::span<const std::byte> payload = {}) {
    net::ActiveMessageHeader hdr;
    hdr.handler_id = handler_id;
    hdr.length = static_cast<std::uint16_t>(payload.size());
    hdr.arg0 = arg0;
    hdr.arg1 = arg1;
    auto m = net::PoolAllocate(host_.mbuf_pool(), sizeof(hdr) + payload.size());
    if (m == nullptr) return;  // pool dry: active messages are unreliable
    net::StorePacket(*m, hdr);
    if (!payload.empty()) m->CopyIn(sizeof(hdr), payload);
    ++stats_.sent;
    eth_.Output(std::move(m), dst, net::ethertype::kActiveMessage);
  }

  // Processes a received frame (full Ethernet frame). Called from the
  // interrupt-level graph handler.
  void Input(const net::Mbuf& frame) {
    net::EthernetHeader eth_hdr;
    net::ActiveMessageHeader hdr;
    try {
      eth_hdr = net::ViewPacket<net::EthernetHeader>(frame);
      hdr = net::ViewPacket<net::ActiveMessageHeader>(frame, sizeof(net::EthernetHeader));
    } catch (const net::ViewError&) {
      ++stats_.malformed;
      return;
    }
    auto it = handlers_.find(hdr.handler_id.value());
    if (it == handlers_.end()) {
      ++stats_.unknown_handler;
      return;
    }
    const std::size_t off = sizeof(net::EthernetHeader) + sizeof(net::ActiveMessageHeader);
    std::vector<std::byte> payload(hdr.length.value());
    if (!payload.empty()) {
      if (off + payload.size() > frame.PacketLength()) {
        ++stats_.malformed;
        return;
      }
      frame.CopyOut(off, payload);
    }
    ++stats_.delivered;
    it->second(eth_hdr.src, hdr.arg0.value(), hdr.arg1.value(), payload);
  }

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t unknown_handler = 0;
    std::uint64_t malformed = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  sim::Host& host_;
  EthLayer& eth_;
  std::unordered_map<std::uint16_t, Handler> handlers_;
  Stats stats_;
};

}  // namespace proto

#endif  // PLEXUS_PROTO_ACTIVE_MESSAGE_H_
