// Property-test harness for the scheduler: Simulator, which drives the
// hierarchical timing wheel, must be observationally identical to an
// ordered map keyed on (deadline, seq) — the firing order by definition.
//
// Mirrors demux_equivalence_test: a seeded generator produces randomized
// op scripts (schedule / cancel / reschedule / advance / stop from inside a
// callback, plus events that schedule further events from inside their
// callbacks), each script is applied in lockstep to the Simulator and the
// map oracle, and every observable is compared: the full (tag, fire-time)
// log byte for byte, the virtual clock (which must never run backwards),
// pending/processed counts, per-handle IsPending, and the sim.timer_*
// instruments. Any divergence in firing order, tie-breaking, cancellation,
// or stop semantics fails here first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace sim {
namespace {

// splitmix64: deterministic, implementation-independent stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// Delays spanning every wheel level: immediate ties, sub-slot, and horizons
// out to minutes (RTO backoff / 2MSL territory).
Duration DelayFromDraw(std::uint64_t draw) {
  switch (draw % 8) {
    case 0: return Duration::Nanos(0);  // same-instant FIFO ties
    case 1: return Duration::Nanos(static_cast<std::int64_t>(draw / 8 % 256));
    case 2: return Duration::Micros(static_cast<std::int64_t>(draw / 8 % 1000));
    case 3: return Duration::Millis(static_cast<std::int64_t>(draw / 8 % 50));
    case 4: return Duration::Millis(static_cast<std::int64_t>(draw / 8 % 1000));
    case 5: return Duration::Seconds(static_cast<std::int64_t>(draw / 8 % 70));
    case 6: return Duration::Millis(200);  // repeated identical deadline
    default:
      return Duration::Nanos(static_cast<std::int64_t>(draw / 8 % 5'000'000));
  }
}

// The reference scheduler. It mirrors Simulator's contract — deadlines
// clamped to Now(), FIFO ties, Stop(), RunUntil's clock rule — and counts
// what the harness compares with the sim.timer_* instruments.
class MapOracle {
 public:
  TimePoint Now() const { return now_; }
  EventId Schedule(Duration delay, EventFn fn) {
    queue_.emplace(Key{std::max(now_ + delay, now_).ns(), ++last_id_}, std::move(fn));
    ++schedules;
    pending_peak = std::max(pending_peak, queue_.size());
    return last_id_;
  }
  void Cancel(EventId id) {
    const auto it = Find(id);
    if (it == queue_.end()) return;
    queue_.erase(it);
    ++cancels;
  }
  bool IsPending(EventId id) const { return Find(id) != queue_.end(); }
  void Stop() { stopped_ = true; }
  void Run() { Drain(TimePoint::Max()); }
  void RunFor(Duration d) {
    const TimePoint t = now_ + d;
    Drain(t);
    if (!stopped_ && now_ < t) now_ = t;
  }
  std::size_t pending_events() const { return queue_.size(); }
  std::size_t events_processed() const { return fires; }

  std::uint64_t schedules = 0, cancels = 0, fires = 0;
  std::size_t pending_peak = 0;

 private:
  using Key = std::pair<std::int64_t, EventId>;  // (deadline, FIFO id)
  std::map<Key, EventFn>::const_iterator Find(EventId id) const {
    return std::find_if(queue_.begin(), queue_.end(),
                        [id](const auto& e) { return e.first.second == id; });
  }
  void Drain(TimePoint horizon) {
    stopped_ = false;
    while (!stopped_ && !queue_.empty() && queue_.begin()->first.first <= horizon.ns()) {
      auto node = queue_.extract(queue_.begin());
      now_ = TimePoint::FromNanos(node.key().first);
      ++fires;
      node.mapped()();
    }
  }
  std::map<Key, EventFn> queue_;
  TimePoint now_;
  EventId last_id_ = 0;
  bool stopped_ = false;
};

// One scheduler plus everything observable about it.
template <typename Sched>
struct Driver {
  Sched sim;
  std::vector<EventId> handles;
  std::vector<std::pair<int, std::int64_t>> log;  // (tag, fire time ns)

  // The wheel's placement invariant; checked after every script operation
  // and, from inside each callback, after every pop.
  bool WheelSound() const {
    if constexpr (std::is_same_v<Sched, Simulator>) {
      return sim.wheel().CheckInvariants();
    } else {
      return true;
    }
  }

  // `stop`: the callback also calls Stop(), ending the run it fires in.
  void ScheduleTagged(int tag, Duration delay, bool stop = false) {
    handles.push_back(sim.Schedule(delay, [this, tag, stop] {
      EXPECT_TRUE(WheelSound()) << "after popping tag " << tag;
      log.emplace_back(tag, sim.Now().ns());
      if (stop) sim.Stop();
      // Every third event schedules a child from inside its callback, with
      // a tag-derived delay: events-scheduling-events must stay in lockstep.
      if (tag % 3 == 0) {
        const int child = tag + 100000;
        sim.Schedule(Duration::Micros((tag * 7) % 500),
                     [this, child] { log.emplace_back(child, sim.Now().ns()); });
      }
    }));
  }
};

// Compares every observable the oracle and the Simulator share.
void ExpectSame(Driver<MapOracle>& ref, Driver<Simulator>& wheel, std::uint64_t seed) {
  ASSERT_EQ(ref.log, wheel.log) << "firing order diverged, seed " << seed;
  ASSERT_TRUE(std::is_sorted(wheel.log.begin(), wheel.log.end(),
                             [](const auto& a, const auto& b) { return a.second < b.second; }))
      << "fire times ran backwards, seed " << seed;
  ASSERT_EQ(ref.sim.Now(), wheel.sim.Now()) << "seed " << seed;
  ASSERT_EQ(ref.sim.pending_events(), wheel.sim.pending_events()) << "seed " << seed;
  ASSERT_EQ(ref.sim.events_processed(), wheel.sim.events_processed()) << "seed " << seed;
  MetricsRegistry& m = wheel.sim.metrics();
  ASSERT_EQ(ref.sim.schedules, m.counter("sim.timer_schedules").value()) << "seed " << seed;
  ASSERT_EQ(ref.sim.cancels, m.counter("sim.timer_cancels").value()) << "seed " << seed;
  ASSERT_EQ(ref.sim.fires, m.counter("sim.timer_fires").value()) << "seed " << seed;
  ASSERT_EQ(static_cast<std::int64_t>(ref.sim.pending_peak),
            m.gauge("sim.timer_pending_peak").value())
      << "seed " << seed;
}

// Applies one seeded op script to the oracle and the Simulator in lockstep
// and compares every observable; gtest failures mark the first divergence.
void RunScript(std::uint64_t seed, int ops) {
  Driver<MapOracle> ref;
  Driver<Simulator> wheel;
  Rng rng(seed);
  int next_tag = 0;
  TimePoint last_now;

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.Below(11);
    switch (kind) {
      case 0:
      case 1:
      case 2:
      case 3:    // schedule
      case 7: {  // schedule an event that calls Stop() when it fires
        const int tag = next_tag++;
        const Duration d = DelayFromDraw(rng.Next());
        ref.ScheduleTagged(tag, d, kind == 7);
        wheel.ScheduleTagged(tag, d, kind == 7);
        break;
      }
      case 4:
      case 5: {  // cancel a random handle (may already be fired: no-op)
        if (ref.handles.empty()) break;
        const std::size_t i = rng.Below(ref.handles.size());
        ASSERT_EQ(ref.sim.IsPending(ref.handles[i]), wheel.sim.IsPending(wheel.handles[i]))
            << "seed " << seed << " op " << op;
        ref.sim.Cancel(ref.handles[i]);
        wheel.sim.Cancel(wheel.handles[i]);
        break;
      }
      case 6: {  // reschedule: cancel + re-arm under a fresh deadline
        if (ref.handles.empty()) break;
        const std::size_t i = rng.Below(ref.handles.size());
        ref.sim.Cancel(ref.handles[i]);
        wheel.sim.Cancel(wheel.handles[i]);
        const int tag = next_tag++;
        const Duration d = DelayFromDraw(rng.Next());
        ref.ScheduleTagged(tag, d);
        wheel.ScheduleTagged(tag, d);
        break;
      }
      default: {  // advance
        const Duration d = DelayFromDraw(rng.Next());
        ref.sim.RunFor(d);
        wheel.sim.RunFor(d);
        ASSERT_EQ(ref.sim.Now(), wheel.sim.Now()) << "seed " << seed << " op " << op;
        break;
      }
    }
    ASSERT_TRUE(wheel.WheelSound()) << "seed " << seed << " op " << op;
    ASSERT_GE(wheel.sim.Now(), last_now) << "clock ran backwards, seed " << seed << " op " << op;
    last_now = wheel.sim.Now();
    ASSERT_EQ(ref.sim.pending_events(), wheel.sim.pending_events())
        << "seed " << seed << " op " << op;
  }

  // Drain both; each stopping event ends one Run() early.
  for (int i = 0; i <= ops && wheel.sim.pending_events() > 0; ++i) {
    ref.sim.Run();
    wheel.sim.Run();
  }
  ASSERT_EQ(wheel.sim.pending_events(), 0u) << "seed " << seed;
  ASSERT_NO_FATAL_FAILURE(ExpectSame(ref, wheel, seed));

  // Cancel-after-fire safety: every handle is long dead; Cancel must be a
  // no-op on both sides and IsPending must agree (false).
  for (std::size_t i = 0; i < ref.handles.size(); ++i) {
    ASSERT_FALSE(ref.sim.IsPending(ref.handles[i])) << "seed " << seed;
    ASSERT_FALSE(wheel.sim.IsPending(wheel.handles[i])) << "seed " << seed;
    ref.sim.Cancel(ref.handles[i]);
    wheel.sim.Cancel(wheel.handles[i]);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectSame(ref, wheel, seed));
}

TEST(SchedulerEquivalence, RandomizedScriptsAgreeByteForByte) {
  // >= 1000 distinct seeds; short scripts keep the suite fast while the
  // delay distribution still exercises every wheel level and FIFO ties.
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    RunScript(seed, 60);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerEquivalence, DenseTieStorm) {
  // Many events on few distinct instants: tie-breaking is the whole test.
  for (std::uint64_t seed = 2000; seed < 2050; ++seed) {
    Driver<MapOracle> ref;
    Driver<Simulator> wheel;
    Rng rng(seed);
    for (int i = 0; i < 400; ++i) {
      const Duration d = Duration::Micros(static_cast<std::int64_t>(rng.Below(4)));
      ref.ScheduleTagged(i, d);
      wheel.ScheduleTagged(i, d);
      ASSERT_TRUE(wheel.WheelSound()) << "seed " << seed << " schedule " << i;
    }
    ref.sim.Run();
    wheel.sim.Run();
    ASSERT_NO_FATAL_FAILURE(ExpectSame(ref, wheel, seed));
  }
}

// --- direct TimerWheel unit coverage ---------------------------------------

TEST(TimerWheel, FiresInDeadlineThenSeqOrder) {
  TimerWheel w;
  std::vector<int> order;
  w.Schedule(TimePoint::FromNanos(500), 2, [&] { order.push_back(2); });
  w.Schedule(TimePoint::FromNanos(100), 1, [&] { order.push_back(1); });
  w.Schedule(TimePoint::FromNanos(500), 0, [&] { order.push_back(0); });
  TimePoint when;
  sim::EventFn fn;
  while (w.PopDueBefore(TimePoint::Max(), &when, &fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, CancelIsEagerAndIdsDoNotAlias) {
  TimerWheel w;
  const EventId a = w.Schedule(TimePoint::FromNanos(1000), 0, [] {});
  EXPECT_TRUE(w.Contains(a));
  EXPECT_TRUE(w.Cancel(a));
  EXPECT_EQ(w.size(), 0u);       // removed immediately, no dead entry
  EXPECT_FALSE(w.Cancel(a));     // double-cancel is a no-op
  // The node is reused; the stale id must not cancel the new entry.
  const EventId b = w.Schedule(TimePoint::FromNanos(2000), 1, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(w.Contains(a));
  EXPECT_FALSE(w.Cancel(a));
  EXPECT_TRUE(w.Contains(b));
  EXPECT_EQ(w.size(), 1u);
}

TEST(TimerWheel, LongHorizonCascadesDown) {
  // A deadline far beyond level 0 must cascade down and still fire at the
  // exact instant, before a later short timer scheduled afterwards.
  TimerWheel w;
  std::vector<int> order;
  const std::int64_t far = Duration::Seconds(300).ns();  // level >= 4
  w.Schedule(TimePoint::FromNanos(far), 0, [&] { order.push_back(0); });
  w.Schedule(TimePoint::FromNanos(far + 1), 1, [&] { order.push_back(1); });
  TimePoint when;
  sim::EventFn fn;
  ASSERT_TRUE(w.PopDueBefore(TimePoint::Max(), &when, &fn));
  EXPECT_EQ(when.ns(), far);
  fn();
  ASSERT_TRUE(w.PopDueBefore(TimePoint::Max(), &when, &fn));
  EXPECT_EQ(when.ns(), far + 1);
  fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_GT(w.cascade_moves(), 0u);
}

TEST(TimerWheel, LoneEntryPopsWithoutCascading) {
  // A lone entry is the minimum of its slot wherever it sits, so it pops
  // straight from its own level: 0 ns to 300 s ahead, levels 0 through 4.
  TimerWheel w;
  std::uint64_t seq = 0;
  for (std::int64_t ahead = 0; ahead <= Duration::Seconds(300).ns(); ahead = ahead * 3 + 1) {
    const std::int64_t due = w.cursor().ns() + ahead;
    w.Schedule(TimePoint::FromNanos(due), seq++, [] {});
    ASSERT_TRUE(w.CheckInvariants()) << "ahead " << ahead;
    TimePoint when;
    sim::EventFn fn;
    ASSERT_TRUE(w.PopDueBefore(TimePoint::Max(), &when, &fn));
    EXPECT_EQ(when.ns(), due);
    ASSERT_TRUE(w.CheckInvariants()) << "ahead " << ahead;
  }
  EXPECT_GT(seq, 20u);
  EXPECT_EQ(w.cascade_moves(), 0u);
}

TEST(TimerWheel, FirstPopFromASharedSlotRefilesTheRest) {
  // Deadlines 300 s out that differ only in their low 32 bits share one
  // level-4 slot. They pop in (deadline, seq) order, and the first pop
  // re-files exactly the other k-1 below.
  TimerWheel w;
  const std::int64_t base = Duration::Seconds(300).ns();
  const std::vector<std::int64_t> offsets = {900, 5, 70000, 5, 3000000, 0, 900};
  std::vector<std::pair<std::int64_t, std::uint64_t>> expected, popped;
  std::uint64_t fired_seq = 0;
  for (std::uint64_t seq = 0; seq < offsets.size(); ++seq) {
    const std::int64_t due = base + offsets[seq];
    w.Schedule(TimePoint::FromNanos(due), seq, [&fired_seq, seq] { fired_seq = seq; });
    expected.emplace_back(due, seq);
  }
  std::sort(expected.begin(), expected.end());
  TimePoint when;
  sim::EventFn fn;
  while (w.PopDueBefore(TimePoint::Max(), &when, &fn)) {
    if (popped.empty()) {
      EXPECT_EQ(w.cascade_moves(), offsets.size() - 1);
    }
    ASSERT_TRUE(w.CheckInvariants()) << "after pop " << popped.size();
    fn();
    popped.emplace_back(when.ns(), fired_seq);
  }
  EXPECT_EQ(popped, expected);
}

TEST(TimerWheel, HorizonBoundsPop) {
  TimerWheel w;
  w.Schedule(TimePoint::FromNanos(5000), 0, [] {});
  TimePoint when;
  sim::EventFn fn;
  EXPECT_FALSE(w.PopDueBefore(TimePoint::FromNanos(4999), &when, &fn));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(w.PopDueBefore(TimePoint::FromNanos(5000), &when, &fn));
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, InvalidIdsAreSafe) {
  TimerWheel w;
  EXPECT_FALSE(w.Cancel(kInvalidEventId));
  EXPECT_FALSE(w.Contains(kInvalidEventId));
  EXPECT_FALSE(w.Cancel(0xdeadbeefULL << 32 | 7));  // out-of-range pool index
}

}  // namespace
}  // namespace sim
