// Ethernet layer: framing and the bottom edge of both protocol stacks.
//
// EthLayer deliberately does *not* demultiplex by EtherType: under Plexus,
// demux is performed by guards installed on the Ethernet.PacketRecv event
// (Figure 1 of the paper); under the monolithic baseline it is a switch in
// the kernel. The layer provides the shared mechanics: header construction,
// minimum-frame padding, cost accounting, and the upcall hook.
#ifndef PLEXUS_PROTO_ETH_H_
#define PLEXUS_PROTO_ETH_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "drivers/nic.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "net/mbuf_pool.h"
#include "net/view.h"
#include "sim/host.h"

namespace proto {

class EthLayer {
 public:
  // Invoked (inside the receive task) with the full frame; the header has
  // already been parsed for convenience but not stripped. A frame of an rx
  // burst arrives here exactly like a lone one; the NIC's burst hooks
  // (drivers::Nic::SetBurstHooks) bracket the burst.
  using Upcall = std::function<void(net::MbufPtr frame, const net::EthernetHeader& hdr)>;

  EthLayer(sim::Host& host, drivers::Nic& nic) : host_(host), nic_(nic) {
    nic_.SetReceiveCallback([this](net::MbufPtr frame) { Input(std::move(frame)); });
  }

  net::MacAddress mac() const { return nic_.mac(); }
  drivers::Nic& nic() { return nic_; }
  std::size_t mtu() const { return nic_.profile().mtu; }

  void SetUpcall(Upcall up) { upcall_ = std::move(up); }

  // Frames `payload` and transmits. Must run inside a CPU task.
  void Output(net::MbufPtr payload, net::MacAddress dst, std::uint16_t ethertype) {
    sim::TraceSpan span(host_, "eth.output", "eth", payload->pkthdr().trace_id);
    host_.Charge(host_.costs().eth_output);
    net::EthernetHeader hdr;
    hdr.dst = dst;
    hdr.src = nic_.mac();
    hdr.type = ethertype;
    auto room = payload->Prepend(sizeof(hdr));
    net::Store(room, hdr);
    // Pad runt frames (the medium also enforces min wire size; padding here
    // keeps receive-side lengths faithful).
    const std::size_t min = nic_.profile().min_frame;
    if (min > 0 && payload->PacketLength() < min) {
      auto pad = net::PoolAllocate(host_.mbuf_pool(), min - payload->PacketLength(), 0);
      if (pad == nullptr) return;  // pool dry: drop the frame at the driver edge
      payload->AppendChain(std::move(pad));
    }
    nic_.Transmit(std::move(payload));
  }

 private:
  void Input(net::MbufPtr frame) {
    sim::TraceSpan span(host_, "eth.input", "eth", frame->pkthdr().trace_id);
    host_.Charge(host_.costs().eth_input);
    net::EthernetHeader hdr;
    try {
      hdr = net::ViewPacket<net::EthernetHeader>(*frame);
    } catch (const net::ViewError&) {
      // Runt frame: drop, counted. Lazily resolved so fault-free runs keep
      // byte-identical metrics snapshots.
      if (malformed_ == nullptr) {
        malformed_ = &host_.metrics().counter("proto.eth.malformed_drops");
      }
      malformed_->Inc();
      return;
    }
    if (upcall_) upcall_(std::move(frame), hdr);
  }

  sim::Host& host_;
  drivers::Nic& nic_;
  Upcall upcall_;
  sim::Counter* malformed_ = nullptr;
};

}  // namespace proto

#endif  // PLEXUS_PROTO_ETH_H_
