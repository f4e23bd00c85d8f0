// Bounded deferred-delivery queue: driver -> thread-mode protocol graph.
//
// In thread mode every event raise spawns a handler thread; under overload
// the driver can create those threads far faster than the CPU retires them,
// and the backlog of spawned-but-not-run threads is exactly the unbounded
// queue receive livelock hides in. DeferredQueue bounds it: the driver-edge
// hop asks Admit() before spawning, and past the high watermark NEW
// sheddable work is refused (shed newest-first — the frames already in
// flight, which may be partial reassemblies or mid-stream TCP segments, are
// the ones worth finishing). Hysteresis: once shedding starts it continues
// until the backlog drains to the low watermark, so the queue does not
// flap at the boundary.
//
// Only the entry hop (driver -> Ethernet.PacketRecv) is sheddable. Interior
// hops (IP->UDP, IP->TCP) carry packets the graph has already invested work
// in; they are always admitted and merely counted.
#ifndef PLEXUS_SPIN_DEFERRED_H_
#define PLEXUS_SPIN_DEFERRED_H_

#include <cstddef>
#include <cstdint>

#include "sim/host.h"
#include "sim/metrics.h"

namespace spin {

class DeferredQueue {
 public:
  struct Config {
    std::size_t high_watermark = 1024;  // start shedding at this depth
    std::size_t low_watermark = 896;    // stop shedding at or below this
  };

  explicit DeferredQueue(sim::Host& host) : DeferredQueue(host, Config()) {}
  DeferredQueue(sim::Host& host, Config config)
      : host_(host),
        config_(config),
        depth_(host.metrics().gauge("spin.deferred_depth")),
        admitted_(host.metrics().counter("spin.deferred_admitted")),
        shed_(host.metrics().counter("spin.deferred_shed")) {}
  DeferredQueue(const DeferredQueue&) = delete;
  DeferredQueue& operator=(const DeferredQueue&) = delete;

  const Config& config() const { return config_; }
  void set_config(Config c) { config_ = c; }

  std::size_t depth() const { return static_cast<std::size_t>(depth_.value()); }
  std::size_t peak_depth() const { return peak_; }
  bool shedding() const { return shedding_; }

  // Called by the graph-hop path before spawning a handler thread; a
  // coalesced burst hop carries `frames` packets in one thread. Returns
  // false when the work should be dropped instead (sheddable work while the
  // queue is past its watermark). Admission is all-or-nothing (the hop is
  // one unit of queued work — depth grows by one) but the admit/shed books
  // stay per-frame, so overload counters mean the same thing in batched
  // and per-packet modes.
  bool Admit(std::size_t frames, bool sheddable) {
    const std::size_t d = depth();
    if (shedding_ && d <= config_.low_watermark) shedding_ = false;
    if (!shedding_ && d >= config_.high_watermark) shedding_ = true;
    if (shedding_ && sheddable) {
      shed_.Inc(frames);
      host_.TraceInstant("spin.deferred_shed", "drop");
      return false;
    }
    admitted_.Inc(frames);
    depth_.Add(1);
    if (d + 1 > peak_) peak_ = d + 1;
    return true;
  }

  // Called at the top of the admitted handler thread, before any work.
  void OnStart() { depth_.Add(-1); }

  // Host crash: the spawned-but-not-run threads died with the CPU queues;
  // zero the depth so the reborn graph starts unshed. Peak and the
  // cumulative counters survive (history, not state).
  void Reset() {
    depth_.Set(0);
    shedding_ = false;
  }

 private:
  sim::Host& host_;
  Config config_;
  sim::Gauge& depth_;
  sim::Counter& admitted_;
  sim::Counter& shed_;
  std::size_t peak_ = 0;
  bool shedding_ = false;
};

}  // namespace spin

#endif  // PLEXUS_SPIN_DEFERRED_H_
