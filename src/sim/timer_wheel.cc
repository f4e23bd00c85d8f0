#include "sim/timer_wheel.h"

#include <bit>
#include <utility>

#include "sim/profiler.h"

namespace sim {

int TimerWheel::FirstSlot(int level) const {
  for (int w = 0; w < kSlotsPerLevel / 64; ++w) {
    if (bitmap_[level][w] != 0) {
      return w * 64 + std::countr_zero(bitmap_[level][w]);
    }
  }
  return -1;
}

bool TimerWheel::PopDueBefore(TimePoint horizon, TimePoint* when,
                              EventFn* fn) {
  if (live_ == 0) return false;
  // Every entry sits at the level its deadline implies relative to the
  // cursor, so levels are strictly time-ordered and the global minimum is
  // in the first occupied slot of the lowest occupied level.
  int level = 0;
  int slot;
  while ((slot = FirstSlot(level)) < 0) ++level;  // live_ > 0: one is occupied
  std::vector<std::uint32_t>& vec = slots_[level][slot];
  std::uint32_t idx = vec[0];
  for (std::size_t i = 1; i < vec.size(); ++i) {
    const Node& a = pool_.at(vec[i]);
    const Node& b = pool_.at(idx);
    if (a.when < b.when || (a.when == b.when && a.seq < b.seq)) idx = vec[i];
  }
  Node& n = pool_.at(idx);
  if (n.when > horizon.ns()) return false;
  cursor_ = n.when;
  *when = TimePoint::FromNanos(n.when);
  *fn = std::move(n.fn);  // leaves n.fn empty: captures travel, not copy
  RemoveFromSlot(idx);
  pool_.Free(idx);
  --live_;
  // The cursor moved only in digits at or below `level`, into this slot:
  // the rest of it now belongs strictly below, and every other entry is
  // still where its deadline implies. A level-0 slot holds one deadline.
  if (level > 0 && !vec.empty()) {
    PLEXUS_PROFILE_SCOPE(kSchedulerCascade);
    scratch_.clear();
    scratch_.swap(vec);
    bitmap_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    for (const std::uint32_t moved : scratch_) Place(moved);
    cascade_moves_ += scratch_.size();
  }
  return true;
}

bool TimerWheel::CheckInvariants() const {
  // Walks the flagged slots only: that they hold live_ nodes in all shows
  // that no unflagged slot holds one.
  std::size_t stored = 0;
  for (int level = 0; level < kLevels; ++level) {
    for (int w = 0; w < kSlotsPerLevel / 64; ++w) {
      for (std::uint64_t bits = bitmap_[level][w]; bits != 0; bits &= bits - 1) {
        const int slot = w * 64 + std::countr_zero(bits);
        const std::vector<std::uint32_t>& vec = slots_[level][slot];
        if (vec.empty()) return false;
        for (std::uint32_t pos = 0; pos < vec.size(); ++pos) {
          const Node& n = pool_.at(vec[pos]);
          if (n.when < cursor_ || LevelFor(n.when) != level ||
              SlotFor(n.when, level) != slot || n.pos != pos ||
              n.level != level || n.slot_byte != slot) {
            return false;
          }
        }
        stored += vec.size();
      }
    }
  }
  return stored == live_;
}

}  // namespace sim
