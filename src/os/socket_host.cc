#include "os/socket_host.h"

#include <utility>

namespace os {

SocketHost::SocketHost(sim::Simulator& s, std::string name, sim::CostModel costs,
                       drivers::DeviceProfile profile, NetConfig net_config, std::uint64_t seed)
    : HostStack(s, std::move(name), costs, std::move(profile), net_config, seed) {
  // Demultiplexing is hard-wired kernel code: a switch statement per layer,
  // not a guard chain.
  //
  // Under the batched packet path the shared driver delivers NAPI-style rx
  // bursts to this kernel too (one interrupt, many frames; the NIC counts
  // them) — a monolithic kernel amortizes interrupts the same way, so the
  // comparison stays controlled at the driver edge. Everything above it
  // (hard-wired demux, wakeup, context switch, copyout) remains strictly
  // per-packet, so the burst hooks are no-ops: they only let bursts form.
  SetFrameHandlers(
      [this](net::MbufPtr frame, const net::EthernetHeader& hdr) {
        const int if_index = IfIndexForRcvif(frame->pkthdr().rcvif);
        frame->TrimFront(sizeof(net::EthernetHeader));
        switch (hdr.type.value()) {
          case net::ethertype::kArp:
            arp(if_index).Input(std::move(frame));
            break;
          case net::ethertype::kIpv4:
            ip_layer().Input(std::move(frame));
            break;
          default:
            break;  // monolithic kernel: unknown types are silently dropped
        }
      },
      [] {}, [] {});

  ip_layer().SetDeliver([this](net::MbufPtr payload, const net::Ipv4Header& hdr) {
    switch (hdr.protocol) {
      case net::ipproto::kIcmp:
        icmp().Input(std::move(payload), hdr.src);
        break;
      case net::ipproto::kUdp:
        udp_layer().Input(std::move(payload), hdr.src, hdr.dst);
        break;
      case net::ipproto::kTcp:
        tcp_demux_.Input(std::move(payload), hdr.src, hdr.dst);
        break;
      default:
        break;
    }
  });
  udp_layer().SetDefaultReceiver([this](net::MbufPtr, const proto::UdpDatagram& info) {
    icmp().SendPortUnreachable(info.src_ip, info.dst_ip);
  });
  tcp_demux_.SetRstSender([this](const net::TcpHeader& hdr, net::Ipv4Address src,
                                 net::Ipv4Address dst, std::size_t payload_len) {
    if (auto rst = proto::MakeRst(host_.mbuf_pool(), hdr, src, dst, payload_len)) {
      ip_layer().Output(std::move(rst), dst, src, net::ipproto::kTcp);
    }
  });
}

void SocketHost::Syscall(std::size_t copy_bytes, std::function<void()> kernel_work) {
  host_.Submit(sim::Priority::kKernel,
               [this, copy_bytes, kernel_work = std::move(kernel_work)] {
                 const auto& cm = host_.costs();
                 syscalls_.Inc();
                 {
                   sim::TraceSpan trap(host_, "syscall.entry", "trap");
                   host_.Charge(cm.syscall_entry);
                 }
                 if (copy_bytes > 0) {
                   sim::TraceSpan copy(host_, "copyin", "copy");
                   copyin_bytes_.Inc(copy_bytes);
                   host_.Charge(cm.copy_fixed +
                                cm.copy_per_byte * static_cast<std::int64_t>(copy_bytes));
                 }
                 {
                   sim::TraceSpan sock(host_, "socket.send", "socket");
                   host_.Charge(cm.socket_layer);
                 }
                 kernel_work();
                 {
                   sim::TraceSpan trap(host_, "syscall.exit", "trap");
                   host_.Charge(cm.syscall_exit);
                 }
               });
}

void SocketHost::DeliverToUser(std::size_t bytes, std::function<void()> app_callback) {
  const auto& cm = host_.costs();
  // Socket-buffer enqueue + PCB demux, charged to the receiving (kernel)
  // task that is currently executing.
  if (host_.in_task()) {
    sim::TraceSpan demux(host_, "socket.demux", "socket");
    host_.Charge(cm.socket_demux);
  }
  sched_wakeups_.Inc();
  // The blocked process becomes runnable after the scheduler wakeup latency,
  // then pays a context switch, the copyout, and the trap return.
  host_.simulator().Schedule(cm.sched_wakeup, [this, bytes,
                                               app_callback = std::move(app_callback)] {
    host_.Submit(sim::Priority::kThread, [this, bytes, app_callback = std::move(app_callback)] {
      const auto& costs = host_.costs();
      context_switches_.Inc();
      {
        sim::TraceSpan cs(host_, "ctx.switch", "sched");
        host_.Charge(costs.context_switch);
      }
      {
        sim::TraceSpan copy(host_, "copyout", "copy");
        copyout_bytes_.Inc(bytes);
        host_.Charge(costs.copy_fixed + costs.copy_per_byte * static_cast<std::int64_t>(bytes));
      }
      {
        sim::TraceSpan trap(host_, "syscall.exit", "trap");
        host_.Charge(costs.syscall_exit);
      }
      app_callback();
    });
  });
}

}  // namespace os
