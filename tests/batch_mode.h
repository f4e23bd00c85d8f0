// Pins the batched packet path on or off for one scope and restores the
// prior resolution after, so a suite run under PLEXUS_BATCH=off keeps its
// environment setting for the remaining tests. Flip it only at quiescent
// points: no rx burst in flight, no coalesced hop queued, no GRO chain held.
#ifndef PLEXUS_TESTS_BATCH_MODE_H_
#define PLEXUS_TESTS_BATCH_MODE_H_

#include "sim/batch.h"

struct ScopedBatchMode {
  explicit ScopedBatchMode(bool on) : prev_(sim::BatchConfig::enabled()) {
    sim::BatchConfig::SetEnabled(on);
  }
  ~ScopedBatchMode() { sim::BatchConfig::SetEnabled(prev_); }
  ScopedBatchMode(const ScopedBatchMode&) = delete;
  ScopedBatchMode& operator=(const ScopedBatchMode&) = delete;
  bool prev_;
};

#endif  // PLEXUS_TESTS_BATCH_MODE_H_
