// Runtime gate for the batched packet path (rx bursts, batch Raise, GRO,
// GSO). It is read only where batching starts: the NIC's burst predicate
// (drivers/nic.cc) and TCP's GSO emission (proto/tcp.cc). PLEXUS_BATCH=off|0
// therefore degrades the whole path to per-packet — drivers deliver one
// frame per interrupt/poll step, so no batch scope opens, every frame pays
// its own deferred-queue hop and demux probe, GRO never engages, and TCP
// emits per-MSS segments — and all virtual-time outputs must be
// byte-identical to the pre-batching engine (enforced by the BENCH_scale /
// fig5 / tab1 off-mode gates in scripts/check.sh and by
// batch_equivalence_test).
//
// Same lazy env-resolve pattern as sim::SlabConfig / sim::Profiler.
// Flipping the gate mid-run is only safe at quiescent points: no rx burst
// in flight, no coalesced hop queued, no GRO chain held.
#ifndef PLEXUS_SIM_BATCH_H_
#define PLEXUS_SIM_BATCH_H_

#include "sim/env_flag.h"

namespace sim {

class BatchConfig {
 public:
  static bool enabled() {
    if (state_ == 0) [[unlikely]] ResolveFromEnv();
    return state_ == 2;
  }
  static void SetEnabled(bool on) { state_ = on ? 2 : 1; }

 private:
  static void ResolveFromEnv() { state_ = EnvFlag("PLEXUS_BATCH", true) ? 2 : 1; }
  static inline int state_ = 0;  // 0 unresolved, 1 disabled, 2 enabled
};

}  // namespace sim

#endif  // PLEXUS_SIM_BATCH_H_
