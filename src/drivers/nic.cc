#include "drivers/nic.h"

#include <algorithm>
#include <cassert>

#include "net/headers.h"
#include "net/mbuf_pool.h"
#include "net/view.h"
#include "sim/batch.h"

namespace drivers {

Nic::Nic(sim::Host& host, DeviceProfile profile, net::MacAddress mac)
    : host_(host),
      profile_(std::move(profile)),
      mac_(mac),
      metrics_prefix_(host.metrics().UniqueName("nic") + "."),
      tx_frames_(host.metrics().counter(metrics_prefix_ + "tx_frames")),
      tx_bytes_(host.metrics().counter(metrics_prefix_ + "tx_bytes")),
      rx_frames_(host.metrics().counter(metrics_prefix_ + "rx_frames")),
      rx_bytes_(host.metrics().counter(metrics_prefix_ + "rx_bytes")),
      rx_filtered_(host.metrics().counter(metrics_prefix_ + "rx_filtered")),
      rx_dropped_(host.metrics().counter(metrics_prefix_ + "rx_dropped")),
      rx_ring_drops_(host.metrics().counter(metrics_prefix_ + "rx_ring_drops")),
      rx_pool_drops_(host.metrics().counter(metrics_prefix_ + "rx_pool_drops")),
      poll_entries_(host.metrics().counter(metrics_prefix_ + "poll_entries")),
      poll_exits_(host.metrics().counter(metrics_prefix_ + "poll_exits")),
      rx_ring_gauge_(host.metrics().gauge(metrics_prefix_ + "rx_ring")),
      index_(next_index_++) {}

void Nic::ResetStats() {
  tx_frames_.Reset();
  tx_bytes_.Reset();
  rx_frames_.Reset();
  rx_bytes_.Reset();
  rx_filtered_.Reset();
  rx_dropped_.Reset();
  rx_ring_drops_.Reset();
  rx_pool_drops_.Reset();
  poll_entries_.Reset();
  poll_exits_.Reset();
}

void Nic::OnCarrierChange(bool up) {
  if (carrier_ == up) return;
  carrier_ = up;
  if (carrier_gauge_ == nullptr) {
    carrier_downs_ = &host_.metrics().counter(metrics_prefix_ + "carrier_downs");
    carrier_gauge_ = &host_.metrics().gauge(metrics_prefix_ + "carrier");
  }
  carrier_gauge_->Set(up ? 1 : 0);
  if (!up) carrier_downs_->Inc();
  host_.TraceInstant(up ? "nic.carrier.up" : "nic.carrier.down", "driver");
}

void Nic::SetStalled(bool stalled) {
  if (stalled_ == stalled) return;
  stalled_ = stalled;
  if (stalls_ == nullptr) {
    stalls_ = &host_.metrics().counter(metrics_prefix_ + "stalls");
  }
  host_.TraceInstant(stalled ? "nic.stall" : "nic.resume", "driver");
  if (stalled) {
    stalls_->Inc();
    return;
  }
  // Resume: drain whatever accumulated. In polled mode the poll task owns
  // the ring; re-kick it (the stalled one returned without rescheduling).
  // In interrupt mode raise one latched interrupt per queued frame.
  if (polling_) {
    host_.Submit(sim::Priority::kThread, [this] { PollTask(); });
  } else {
    for (std::size_t i = rx_ring_.size(); i > 0; --i) {
      host_.Submit(sim::Priority::kInterrupt, [this] { RxInterrupt(); });
    }
  }
}

void Nic::Reset() {
  rx_ring_.clear();  // buffers return to the pool as their MbufPtrs die
  rx_ring_gauge_.Set(0);
  polling_ = false;
  stalled_ = false;
  window_start_ = sim::TimePoint();
  window_work_ = sim::Duration::Zero();
}

void Nic::Transmit(net::MbufPtr frame) {
  assert(medium_ != nullptr && "NIC not attached to a medium");
  assert(host_.in_task() && "Transmit must run inside a CPU task");
  // A frame that reaches the wire untagged can never be followed; tag here
  // so even packets originated below IP (ARP, raw ethernet) are traceable.
  if (host_.tracing() && frame->pkthdr().trace_id == 0) {
    frame->pkthdr().trace_id = host_.tracer().NextTraceId();
  }
  sim::TraceSpan span(host_, "nic.tx", "driver", frame->pkthdr().trace_id);
  const std::size_t len = frame->PacketLength();
  host_.Charge(profile_.TxCpuCost(len));
  tx_frames_.Inc();
  tx_bytes_.Inc(len);
  // The frame reaches the wire when the CPU finishes issuing the I/O.
  auto shared = std::shared_ptr<net::Mbuf>(frame.release());
  host_.AfterTask([this, shared]() mutable {
    medium_->Transmit(this, net::MbufPtr(shared->ShareClone()));
  });
}

void Nic::DeliverFromWire(net::MbufPtr frame, bool check_address) {
  // Powered off (host crashed): frames die at the wire, free. No counter —
  // the host that would own the count is dead.
  if (!powered_) return;
  if (check_address && !promiscuous_) {
    // Filter on the destination MAC in the Ethernet header.
    try {
      auto hdr = net::ViewPacket<net::EthernetHeader>(*frame);
      if (hdr.dst != mac_ && !hdr.dst.IsBroadcast() && !hdr.dst.IsMulticast()) {
        rx_filtered_.Inc();
        return;
      }
    } catch (const net::ViewError&) {
      rx_filtered_.Inc();  // runt frame
      return;
    }
  }
  // Finite descriptor ring: frames arriving while it is full die on the
  // wire. A free drop — no buffer is consumed and no CPU ever runs for the
  // frame — which is what keeps saturation survivable.
  if (profile_.rx_ring_depth > 0 && rx_ring_.size() >= profile_.rx_ring_depth) {
    rx_ring_drops_.Inc();
    rx_dropped_.Inc();
    host_.TraceInstant("nic.rx.ring_drop", "drop", frame->pkthdr().trace_id);
    return;
  }
  // Refill the descriptor from the host's bounded mbuf pool: an exhausted
  // pool is the same wire drop, not an unbounded heap allocation.
  net::MbufPtr buf;
  if (net::MbufPool* pool = host_.mbuf_pool(); pool != nullptr) {
    buf = pool->TryCopy(*frame);
    if (buf == nullptr) {
      rx_pool_drops_.Inc();
      rx_dropped_.Inc();
      host_.TraceInstant("nic.rx.pool_drop", "drop", frame->pkthdr().trace_id);
      return;
    }
  } else {
    buf = std::move(frame);
  }
  const std::size_t len = buf->PacketLength();
  rx_frames_.Inc();
  rx_bytes_.Inc(len);
  buf->pkthdr().rcvif = index_;
  rx_ring_.push_back(std::move(buf));
  rx_ring_gauge_.Set(static_cast<std::int64_t>(rx_ring_.size()));

  // Raise the device interrupt: driver receive work runs at interrupt
  // priority; the callback is the bottom of the protocol graph. In polled
  // mode rx interrupts are masked — the poll task owns the ring. A stalled
  // NIC raises nothing: the ring accumulates until resume (or overflows).
  if (!polling_ && !stalled_) {
    host_.Submit(sim::Priority::kInterrupt, [this] { RxInterrupt(); });
  }
}

void Nic::RxInterrupt() {
  // Masked (the poll loop took over after this interrupt was raised),
  // stalled, or spurious (the poll loop already consumed the frame): a
  // free no-op.
  if (polling_ || stalled_ || rx_ring_.empty()) return;
  if (BurstReady()) {
    // Frames accumulated behind this interrupt (the CPU was busy, or
    // several arrived at one instant): drain them as one burst. A lone
    // frame takes the per-packet path below — byte-identical to the
    // unbatched engine.
    DeliverBurst(/*polled=*/false, kMaxBurst);
  } else {
    DeliverOne(/*polled=*/false);
  }
  NoteRxWork(host_.charged_so_far());
}

void Nic::DeliverOne(bool polled) {
  net::MbufPtr buf = std::move(rx_ring_.front());
  rx_ring_.pop_front();
  rx_ring_gauge_.Set(static_cast<std::int64_t>(rx_ring_.size()));
  const std::size_t len = buf->PacketLength();
  if (host_.tracing() && buf->pkthdr().trace_id == 0) {
    buf->pkthdr().trace_id = host_.tracer().NextTraceId();
  }
  const std::uint64_t tid = buf->pkthdr().trace_id;
  sim::PacketTraceScope packet_scope(host_, tid);
  sim::TraceSpan span(host_, polled ? "nic.rx.poll" : "nic.rx", "driver", tid);
  const auto& cm = host_.costs();
  if (!polled) host_.Charge(cm.interrupt_entry);
  host_.Charge(profile_.RxCpuCost(len));
  if (rx_callback_) rx_callback_(std::move(buf));
  if (!polled) host_.Charge(cm.interrupt_exit);
}

bool Nic::BurstReady() const {
  return burst_begin_ && sim::BatchConfig::enabled() && rx_ring_.size() > 1;
}

void Nic::DeliverBurst(bool polled, std::size_t max_frames) {
  if (rx_bursts_ == nullptr) {
    rx_bursts_ = &host_.metrics().counter(metrics_prefix_ + "rx_bursts");
    rx_burst_frames_ =
        &host_.metrics().counter(metrics_prefix_ + "rx_burst_frames");
  }
  const auto& cm = host_.costs();
  if (!polled) host_.Charge(cm.interrupt_entry);
  sim::TraceSpan span(host_, polled ? "nic.rx.poll_burst" : "nic.rx.burst",
                      "driver");
  // Descriptor handling stays per-frame; only entry/exit are amortized
  // across the burst.
  const std::size_t frames = std::min(max_frames, rx_ring_.size());
  for (std::size_t i = 0; i < frames; ++i) {
    net::Mbuf& buf = *rx_ring_[i];
    if (host_.tracing() && buf.pkthdr().trace_id == 0) {
      buf.pkthdr().trace_id = host_.tracer().NextTraceId();
    }
    host_.Charge(profile_.RxCpuCost(buf.PacketLength()));
  }
  rx_bursts_->Inc();
  rx_burst_frames_->Inc(frames);
  burst_begin_();
  for (std::size_t i = 0; i < frames; ++i) {
    net::MbufPtr buf = std::move(rx_ring_.front());
    rx_ring_.pop_front();
    sim::PacketTraceScope packet_scope(host_, buf->pkthdr().trace_id);
    if (rx_callback_) rx_callback_(std::move(buf));
  }
  burst_end_();
  rx_ring_gauge_.Set(static_cast<std::int64_t>(rx_ring_.size()));
  if (!polled) host_.Charge(cm.interrupt_exit);
}

void Nic::NoteRxWork(sim::Duration d) {
  if (profile_.poll_threshold >= 1.0 || profile_.poll_window.is_zero()) return;
  const sim::TimePoint now = host_.Now();
  if (now - window_start_ >= profile_.poll_window) {
    window_start_ = now;
    window_work_ = sim::Duration::Zero();
  }
  window_work_ += d;
  if (!polling_ &&
      static_cast<double>(window_work_.ns()) >
          profile_.poll_threshold * static_cast<double>(profile_.poll_window.ns())) {
    EnterPollMode();
  }
}

void Nic::EnterPollMode() {
  // Runs inside the tripping rx interrupt: mask rx interrupts (one CSR
  // write) and hand the ring to a task-priority poll loop, which competes
  // fairly — FIFO — with protocol threads and applications. That fairness
  // is the livelock fix.
  polling_ = true;
  poll_entries_.Inc();
  host_.Charge(host_.costs().intr_mask);
  host_.TraceInstant("nic.poll.enter", "driver");
  host_.Submit(sim::Priority::kThread, [this] { PollTask(); });
}

void Nic::PollTask() {
  if (!polling_) return;
  if (stalled_) return;  // wedged: SetStalled(false) re-kicks the loop
  if (rx_ring_.empty()) {
    // Drained: unmask and fall back to interrupts.
    polling_ = false;
    poll_exits_.Inc();
    host_.Charge(host_.costs().intr_mask);
    host_.TraceInstant("nic.poll.exit", "driver");
    return;
  }
  sim::TraceSpan span(host_, "nic.poll", "driver");
  host_.Charge(host_.costs().poll_entry);
  const std::size_t quota = profile_.poll_quota > 0 ? profile_.poll_quota : 1;
  if (BurstReady()) {
    // One quota-bounded burst per poll pass: the pass's frames travel the
    // graph as a single deferred-queue hop instead of one hop each.
    DeliverBurst(/*polled=*/true, quota);
  } else {
    for (std::size_t i = 0; i < quota && !rx_ring_.empty(); ++i) {
      DeliverOne(/*polled=*/true);
    }
  }
  // Yield between passes even when more frames wait — the quota is what
  // bounds how long the poll loop can starve other threads.
  host_.Submit(sim::Priority::kThread, [this] { PollTask(); });
}

}  // namespace drivers
