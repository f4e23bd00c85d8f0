// The simulated network interface controller.
//
// A Nic belongs to a Host and is attached to a Medium. Its behavior is
// parameterized by a DeviceProfile (PIO vs DMA, bandwidth, framing).
//
// Transmit path: protocol code — already running inside a CPU task on the
// host — calls Transmit. The NIC charges the driver's CPU cost to the
// current task and hands the frame to the medium at the task's completion
// instant (i.e. once the CPU has actually issued the I/O).
//
// Receive path: the medium delivers a frame at a simulated instant; the NIC
// refills a receive buffer from the host's bounded mbuf pool, enqueues it on
// a finite rx descriptor ring, and raises a device interrupt — an
// interrupt-priority task that charges interrupt + driver receive costs and
// invokes the receive callback, "the bottom of the Plexus protocol graph"
// (paper Section 3.3). A full ring or an exhausted pool drops the frame at
// the wire, consuming no CPU. When several frames wait and the owner has set
// burst hooks, one interrupt drains them as a burst: the hooks bracket the
// same per-frame callback.
//
// Livelock avoidance: the architecture above is exactly the one that
// collapses under receive livelock — at saturation the CPU spends all its
// time in rx interrupts and no task-level work (the rest of the protocol
// graph in thread mode, applications) ever runs. When interrupt-level rx
// work exceeds DeviceProfile::poll_threshold of CPU time over a sliding
// window, the driver masks rx interrupts and drains the ring from a
// task-priority polling loop under a per-pass quota, re-enabling interrupts
// once the ring is empty. Mode transitions are counted and traced.
#ifndef PLEXUS_DRIVERS_NIC_H_
#define PLEXUS_DRIVERS_NIC_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net/address.h"
#include "net/mbuf.h"
#include "sim/host.h"

namespace drivers {

class Nic {
 public:
  struct Stats {
    std::uint64_t tx_frames = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_frames = 0;  // accepted into the rx ring
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_filtered = 0;   // not addressed to us
    std::uint64_t rx_dropped = 0;    // ring-full + pool-exhausted drops
    std::uint64_t rx_ring_drops = 0;
    std::uint64_t rx_pool_drops = 0;
    std::uint64_t poll_entries = 0;  // interrupt -> polled transitions
    std::uint64_t poll_exits = 0;    // polled -> interrupt transitions
  };

  // The receive callback runs inside the interrupt-priority CPU task (or
  // the task-priority polling loop when the driver is in polled mode). It
  // is the one receive path: a frame in a burst arrives through it exactly
  // as a lone frame does.
  using ReceiveCallback = std::function<void(net::MbufPtr)>;
  // Brackets an rx burst (the NAPI shape): one rx service pass that finds
  // several frames waiting runs begin, then the receive callback once per
  // frame in arrival order, then end. Bursts form only on a NIC whose
  // hooks are set, with batching enabled and more than one frame waiting —
  // a burst of one takes the per-frame path, so lightly loaded runs are
  // byte-identical to the unbatched engine, and a raw NIC without hooks
  // stays per-frame.
  using BurstHook = std::function<void()>;

  Nic(sim::Host& host, DeviceProfile profile, net::MacAddress mac);
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  void AttachMedium(Medium* medium) {
    medium_ = medium;
    medium->Attach(this);
  }

  sim::Host& host() { return host_; }
  const DeviceProfile& profile() const { return profile_; }
  net::MacAddress mac() const { return mac_; }
  // A cold-restarted host may come back with a different adapter.
  void set_mac(net::MacAddress mac) { mac_ = mac; }
  int index() const { return index_; }
  void set_promiscuous(bool v) { promiscuous_ = v; }
  bool polling() const { return polling_; }
  std::size_t rx_ring_size() const { return rx_ring_.size(); }

  void SetReceiveCallback(ReceiveCallback cb) { rx_callback_ = std::move(cb); }
  // Both or neither: no-op hooks form bursts without bracketing anything.
  void SetBurstHooks(BurstHook begin, BurstHook end) {
    assert(static_cast<bool>(begin) == static_cast<bool>(end));
    burst_begin_ = std::move(begin);
    burst_end_ = std::move(end);
  }

  // Medium notification on a carrier edge: counted, traced, and mirrored in
  // a gauge so a metrics snapshot shows the link state. Counters are
  // created lazily — a run that never flaps a link keeps its metrics
  // snapshot unchanged.
  void OnCarrierChange(bool up);
  bool carrier() const { return carrier_; }

  // Stall: rx interrupts wedge (frames still land in the ring until it
  // overflows); Resume drains whatever accumulated. Models a wedged
  // interrupt line / driver stall without losing the ring contents.
  void SetStalled(bool stalled);
  bool stalled() const { return stalled_; }

  // Power: a crashed host's NIC is off — frames die at the wire for free,
  // nothing is counted against the (dead) host's pool.
  void set_powered(bool on) { powered_ = on; }
  bool powered() const { return powered_; }

  // Cold reset at restart: drops every frame still in the rx ring (their
  // buffers return to the pool), clears poll/stall state. Cumulative
  // counters survive — the device is the same silicon, only its queues die.
  void Reset();

  // Sends a fully framed packet. Must be called from within a CPU task on
  // this NIC's host (protocol output or an echo path in a driver test).
  void Transmit(net::MbufPtr frame);

  // Called by the medium when a frame arrives at this tap (no task context).
  void DeliverFromWire(net::MbufPtr frame, bool check_address);

  // Snapshot of the registry-backed counters ("<metrics_prefix>tx_frames"
  // etc. in host.metrics()).
  Stats stats() const {
    return Stats{tx_frames_.value(),    tx_bytes_.value(),     rx_frames_.value(),
                 rx_bytes_.value(),     rx_filtered_.value(),  rx_dropped_.value(),
                 rx_ring_drops_.value(), rx_pool_drops_.value(), poll_entries_.value(),
                 poll_exits_.value()};
  }
  void ResetStats();
  // "nic0.", "nic1.", ... — per-host ordinal, deterministic across runs
  // (unlike index(), which is process-global).
  const std::string& metrics_prefix() const { return metrics_prefix_; }

 private:
  // Upper bound on frames per interrupt-path burst; a poll pass is bounded
  // by the device's poll quota instead.
  static constexpr std::size_t kMaxBurst = 64;

  // The interrupt-priority rx service routine: pops one frame off the ring,
  // charges driver costs, runs the callback, and updates the livelock
  // window. A no-op if the ring is empty or interrupts have been masked
  // (latched interrupts for frames the poll loop already consumed).
  void RxInterrupt();
  // Delivers the ring's head frame through the callback. The polled path
  // skips interrupt entry/exit — that is the entire point of the switch.
  void DeliverOne(bool polled);
  // Whether this rx service pass drains a burst instead of one frame: the
  // burst hooks are set, batching is on, and more than one frame waits.
  // The one place the batch gate decides where bursts form.
  bool BurstReady() const;
  // Delivers up to max_frames off the ring as one bracketed burst:
  // interrupt entry/exit are paid once for the whole burst, per-frame work
  // (descriptor pop + driver rx cost) stays per-frame. Every frame's driver
  // cost is charged and its trace id assigned before the first upcall.
  void DeliverBurst(bool polled, std::size_t max_frames);
  // Sliding-window accounting of interrupt-level rx work; trips the
  // interrupt->poll transition past the profile's threshold.
  void NoteRxWork(sim::Duration d);
  void EnterPollMode();
  void PollTask();

  sim::Host& host_;
  DeviceProfile profile_;
  net::MacAddress mac_;
  Medium* medium_ = nullptr;
  ReceiveCallback rx_callback_;
  BurstHook burst_begin_;
  BurstHook burst_end_;
  std::string metrics_prefix_;
  sim::Counter& tx_frames_;
  sim::Counter& tx_bytes_;
  sim::Counter& rx_frames_;
  sim::Counter& rx_bytes_;
  sim::Counter& rx_filtered_;
  sim::Counter& rx_dropped_;
  sim::Counter& rx_ring_drops_;
  sim::Counter& rx_pool_drops_;
  sim::Counter& poll_entries_;
  sim::Counter& poll_exits_;
  sim::Gauge& rx_ring_gauge_;
  // Chaos-path instruments, resolved on first use so runs without
  // structural faults keep a byte-identical metrics snapshot.
  sim::Counter* carrier_downs_ = nullptr;
  sim::Gauge* carrier_gauge_ = nullptr;
  sim::Counter* stalls_ = nullptr;
  // Batch-path instruments, also lazy: an off-mode run keeps its metrics
  // snapshot byte-identical to the pre-batching engine.
  sim::Counter* rx_bursts_ = nullptr;
  sim::Counter* rx_burst_frames_ = nullptr;
  std::deque<net::MbufPtr> rx_ring_;
  bool polling_ = false;
  bool carrier_ = true;
  bool stalled_ = false;
  bool powered_ = true;
  sim::TimePoint window_start_;
  sim::Duration window_work_;
  bool promiscuous_ = false;
  int index_;

  inline static int next_index_ = 0;
};

}  // namespace drivers

#endif  // PLEXUS_DRIVERS_NIC_H_
