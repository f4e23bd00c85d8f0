// Deterministic chaos schedules: timed, seeded structural-fault events.
//
// Every existing fault in the simulator is a per-frame coin flip; the
// failures that dominate real deployments are structural — links flapping,
// the network partitioning, whole hosts crashing and coming back empty. A
// ChaosSchedule is an ordered list of such events, either hand-built or
// generated from a seed, installed onto a Simulator so each event fires at
// its instant. The schedule itself is topology-agnostic: events name
// abstract link/host ordinals and the harness that owns the concrete Medium
// and host objects binds them in its handler. That keeps sim free of any
// upward dependency while tests, benches, and the property harness all
// replay identical fault timelines from a seed.
//
// Random schedules are paired and self-healing by construction: every
// "down" event has its matching "up" before the horizon, and windows on the
// same target never overlap — so after the horizon the topology is whole
// again and any residual damage is a bug in the recovery paths, not in the
// schedule.
#ifndef PLEXUS_SIM_CHAOS_H_
#define PLEXUS_SIM_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace sim {

enum class ChaosKind {
  kLinkDown,   // target = link ordinal: carrier drops, frames vanish for free
  kLinkUp,     // target = link ordinal: carrier restored
  kNicStall,   // target = host ordinal: rx interrupts wedge; ring backs up
  kNicResume,  // target = host ordinal: stalled ring drains
  kPartition,  // aux = bitmask of host ordinals in group A (rest are group B)
  kHeal,       // partition removed
  kCrash,      // target = host ordinal: all protocol state lost instantly
  kRestart,    // target = host ordinal: cold boot with a fresh graph
  kFuzzStorm,  // target = host ordinal: mutated hostile frames spray its NIC;
               // aux = the storm's PacketMutator seed (window replays exactly)
  kFuzzCalm,   // target = host ordinal: the storm stops
};

const char* ChaosKindName(ChaosKind k);

struct ChaosEvent {
  TimePoint at;
  ChaosKind kind = ChaosKind::kLinkDown;
  int target = 0;         // link or host ordinal, per kind
  std::uint64_t aux = 0;  // kPartition: group-A host bitmask
};

// Knobs for ChaosSchedule::Random. Weights select the fault family; each
// fault is a [down, up] window with uniform width in [min_outage,
// max_outage], placed so it closes before `horizon`.
struct ChaosConfig {
  Duration start = Duration::Millis(100);  // quiet lead-in
  Duration horizon = Duration::Seconds(20);
  Duration min_outage = Duration::Millis(50);
  Duration max_outage = Duration::Seconds(3);
  int links = 1;
  int hosts = 2;
  int max_faults = 6;  // windows drawn: 1..max_faults
  // Family weights (need not sum to anything; all zero = link flaps only).
  double w_link_flap = 4.0;
  double w_crash = 2.0;
  double w_nic_stall = 1.0;
  double w_partition = 0.0;  // only meaningful with >= 3 hosts
  // Hostile-traffic windows: structure-aware mutated frames sprayed at one
  // host's NIC (the harness binds a PacketMutator seeded from aux), so
  // adversarial input composes with crashes, flaps, and partitions.
  double w_fuzz = 0.0;
};

class ChaosSchedule {
 public:
  ChaosSchedule() = default;

  void Add(TimePoint at, ChaosKind kind, int target, std::uint64_t aux = 0) {
    events_.push_back(ChaosEvent{at, kind, target, aux});
  }

  // Deterministic schedule from a seed: same seed + config => identical
  // event list, independent of anything else in the run.
  static ChaosSchedule Random(std::uint64_t seed, const ChaosConfig& config);

  // Schedules every event on `sim`; the handler binds ordinals to the
  // harness's concrete links and hosts. Events are raw simulator events
  // (no CPU-task context): faults strike from outside the machines.
  using Handler = std::function<void(const ChaosEvent&)>;
  void Install(Simulator& sim, Handler handler) const;

  const std::vector<ChaosEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  // One line per event, for logs and failure reproduction.
  std::string Describe() const;

 private:
  std::vector<ChaosEvent> events_;
};

}  // namespace sim

#endif  // PLEXUS_SIM_CHAOS_H_
