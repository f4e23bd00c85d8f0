// Structured event tracing on the virtual clock.
//
// One Tracer per Simulator. Hosts register a track (one row in the exported
// trace) and emit nested spans and instant events through RAII helpers in
// host.h. Two properties drive the design:
//
//  - Virtual time does not advance while task logic runs: every charge
//    inside a task is billed at the task's pickup instant. Span timestamps
//    therefore carry both the pickup instant and the CPU charged by the
//    task *before* the span opened ("offset"). Exporters synthesize
//    strictly nested wall positions as pickup + offset, which mirrors how
//    the CPU would actually have spent the time.
//
//  - Tracing must be free when disabled. The host-side helpers check
//    enabled() (one load + branch) before touching anything else; no
//    strings are built and no records stored on the disabled path.
//
// Completed spans land in a bounded ring buffer (oldest evicted first);
// open spans live on a per-track stack, so eviction never dangles a
// begin/end pair. Every Host::Charge while a span is open accrues to that
// span (self time) and to each enclosing span (total time), and to a
// per-category ledger keyed by the innermost open span's category. The
// categories mix layers (eth, ip, udp, tcp, arp) with mechanisms (driver,
// dispatch, demux, guard, handler, checksum, copy, trap, sched, socket),
// so the ledger is a CPU breakdown by whatever ran last, not a per-layer
// table: a TCP handler's dispatch charge lands under "dispatch", not "tcp".
// Charges with no open span accrue to "(unattributed)", so the category
// ledger always sums exactly to everything charged.
#ifndef PLEXUS_SIM_TRACER_H_
#define PLEXUS_SIM_TRACER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sim {

class Counter;
class MetricsRegistry;

class Tracer {
 public:
  struct Record {
    enum class Kind { kSpan, kInstant };
    Kind kind = Kind::kSpan;
    int track = 0;
    int depth = 0;              // nesting depth at emission (0 = task root)
    TimePoint task_start;       // pickup instant of the enclosing task
    Duration begin_offset;      // CPU charged by the task before the span opened
    Duration total;             // charged while open, children included
    Duration self;              // charged while open, children excluded
    std::uint64_t trace_id = 0; // packet id, 0 = none
    std::string name;
    std::string category;
  };

  // Default ring capacity: enough for every span of the bench scenarios,
  // small enough that an always-on stress test stays bounded.
  explicit Tracer(std::size_t capacity = 1 << 16);

  // Enabled by default only when PLEXUS_TRACE is on in the environment
  // (sim/env_flag.h; how scripts/check.sh runs the tracer-enabled test
  // pass); programs flip it explicitly with SetEnabled.
  bool enabled() const { return enabled_; }
  void SetEnabled(bool on) { enabled_ = on; }

  // One track per host; the returned id keys all subsequent calls.
  int RegisterTrack(std::string name);
  const std::string& track_name(int track) const { return tracks_[track].name; }

  // Monotonic per-simulation packet ids; 0 is reserved for "untraced".
  std::uint64_t NextTraceId() { return next_trace_id_++; }

  void BeginSpan(int track, TimePoint task_start, Duration offset,
                 std::string name, std::string category,
                 std::uint64_t trace_id);
  void EndSpan(int track);
  void RecordInstant(int track, TimePoint task_start, Duration offset,
                     std::string name, std::string category,
                     std::uint64_t trace_id);

  // Called by Host::Charge with the amount actually billed (after budget
  // fences truncate). Attributes to the innermost open span on the track.
  void OnCharge(int track, Duration billed) {
    if (!enabled_) return;
    Attribute(track, billed);
  }

  // Per-category virtual-ns ledger, including "(unattributed)". Sums to
  // total_charged() by construction.
  const std::map<std::string, Duration>& charge_by_category() const {
    return charge_by_category_;
  }
  Duration total_charged() const { return total_charged_; }

  std::size_t size() const { return ring_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }

  // Resizes the ring (clearing recorded spans, not the charge ledger). Used
  // by tests that need to force overflow without emitting 64k spans.
  void SetCapacity(std::size_t capacity);

  // Registry that receives the sim.tracer_dropped counter. The counter is
  // resolved lazily on the first dropped record, so simulations whose rings
  // never wrap keep byte-identical metrics snapshots.
  void SetDropRegistry(MetricsRegistry* registry) { drop_registry_ = registry; }
  // Completed records, oldest first. Children complete before parents, so
  // this is completion order, not begin order; exporters re-sort.
  std::vector<Record> Records() const;

  void Clear();

  // Chrome JSON exporter; loads in chrome://tracing / Perfetto.
  std::string ExportChromeJson() const;

  // {"driver":ns,...} — deterministic (map-ordered) category breakdown.
  std::string ExportChargeBreakdownJson() const;

 private:
  struct OpenFrame {
    TimePoint task_start;
    Duration begin_offset;
    Duration total;
    Duration self;
    std::uint64_t trace_id;
    std::string name;
    std::string category;
  };
  struct Track {
    std::string name;
    std::vector<OpenFrame> open;
  };

  void Attribute(int track, Duration billed);
  void Push(Record r);

  bool enabled_ = false;
  std::size_t capacity_;
  std::vector<Record> ring_;  // circular once full
  std::size_t head_ = 0;      // oldest element when ring_ is full
  std::uint64_t dropped_ = 0;
  MetricsRegistry* drop_registry_ = nullptr;
  Counter* dropped_ctr_ = nullptr;  // resolved on first drop
  std::vector<Track> tracks_;
  std::uint64_t next_trace_id_ = 1;
  std::map<std::string, Duration> charge_by_category_;
  Duration total_charged_;
};

}  // namespace sim

#endif  // PLEXUS_SIM_TRACER_H_
