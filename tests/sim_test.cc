// Unit tests for the discrete-event simulation substrate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/env_flag.h"
#include "sim/host.h"
#include "sim/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/tracer.h"

namespace sim {
namespace {

TEST(Duration, ArithmeticAndConversions) {
  EXPECT_EQ(Duration::Micros(3).ns(), 3000);
  EXPECT_EQ(Duration::Millis(2).ns(), 2'000'000);
  EXPECT_EQ(Duration::Seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ((Duration::Micros(5) + Duration::Micros(7)).us(), 12.0);
  EXPECT_EQ((Duration::Micros(5) * 3).us(), 15.0);
  EXPECT_EQ(Duration::Nanos(15) * 100, Duration::Nanos(1500));
  EXPECT_DOUBLE_EQ(Duration::Micros(10) / Duration::Micros(4), 2.5);
  EXPECT_LT(Duration::Micros(1), Duration::Micros(2));
}

TEST(TimePoint, Arithmetic) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Micros(10);
  EXPECT_EQ((t1 - t0).us(), 10.0);
  EXPECT_GT(t1, t0);
}

TEST(Simulator, RunsEventsInTimestampOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(Duration::Micros(30), [&] { order.push_back(3); });
  s.Schedule(Duration::Micros(10), [&] { order.push_back(1); });
  s.Schedule(Duration::Micros(20), [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), TimePoint() + Duration::Micros(30));
}

TEST(Simulator, SameInstantIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.Schedule(Duration::Micros(5), [&order, i] { order.push_back(i); });
  }
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  EventId id = s.Schedule(Duration::Micros(5), [&] { fired = true; });
  EXPECT_TRUE(s.IsPending(id));
  s.Cancel(id);
  EXPECT_FALSE(s.IsPending(id));
  s.Run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelOfFiredEventIsSafe) {
  Simulator s;
  EventId id = s.Schedule(Duration::Micros(1), [] {});
  s.Run();
  s.Cancel(id);  // must not crash or corrupt
  s.Schedule(Duration::Micros(1), [] {});
  EXPECT_EQ(s.Run(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) s.Schedule(Duration::Micros(10), tick);
  };
  s.Schedule(Duration::Micros(10), tick);
  s.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.Now().us(), 50.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(Duration::Micros(i * 10), [&] { ++count; });
  }
  s.RunUntil(TimePoint() + Duration::Micros(35));
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.Now().us(), 35.0);
  s.Run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulator s;
  s.RunUntil(TimePoint() + Duration::Millis(5));
  EXPECT_EQ(s.Now().ns(), Duration::Millis(5).ns());
}

TEST(Simulator, StopAbortsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.Schedule(Duration::Micros(i), [&] {
      if (++count == 3) s.Stop();
    });
  }
  s.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAfterStopKeepsTheClockBehindQueuedEvents) {
  // A Stop() inside RunUntil leaves due events queued; the clock must stay
  // at the stopping event so the next run fires them in order, not in the
  // past.
  Simulator s;
  std::vector<std::int64_t> fired_at;
  for (int i = 1; i <= 5; ++i) {
    s.Schedule(Duration::Micros(i), [&, i] {
      fired_at.push_back(s.Now().ns());
      if (i == 2) s.Stop();
    });
  }
  s.RunUntil(TimePoint() + Duration::Micros(10));
  EXPECT_EQ(s.Now().ns(), Duration::Micros(2).ns());
  EXPECT_EQ(s.pending_events(), 3u);
  s.Run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{1000, 2000, 3000, 4000, 5000}));
  EXPECT_EQ(s.Now().ns(), Duration::Micros(5).ns());
  // An unstopped RunUntil still advances to its horizon.
  s.RunUntil(TimePoint() + Duration::Micros(10));
  EXPECT_EQ(s.Now().ns(), Duration::Micros(10).ns());
}

TEST(Simulator, ScheduleInPastClampsToNow) {
  Simulator s;
  bool ran = false;
  TimePoint ran_at;
  s.Schedule(Duration::Micros(10), [&] {
    s.ScheduleAt(TimePoint(), [&] {
      ran = true;
      ran_at = s.Now();
    });
  });
  s.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(ran_at.ns(), Duration::Micros(10).ns());  // clamped to Now(), not time 0
  EXPECT_EQ(s.Now().us(), 10.0);
}

TEST(Simulator, WheelCancelsEagerly) {
  Simulator s;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.Schedule(Duration::Micros(10 + i), [&] { ++fired; }));
  }
  for (int i = 0; i < 900; ++i) s.Cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending_events(), 100u);
  EXPECT_EQ(s.metrics().gauge("sim.timer_pending").value(), 100);
  EXPECT_EQ(s.metrics().counter("sim.timer_cancels").value(), 900u);
  s.Run();
  EXPECT_EQ(fired, 100);  // every survivor fires exactly once
}

TEST(Cpu, SerializesTasks) {
  Simulator s;
  Cpu cpu(s);
  std::vector<double> completion_us;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Micros(10));
      ctx.After([&] { completion_us.push_back(s.Now().us()); });
    });
  }
  s.Run();
  ASSERT_EQ(completion_us.size(), 3u);
  EXPECT_EQ(completion_us[0], 10.0);
  EXPECT_EQ(completion_us[1], 20.0);
  EXPECT_EQ(completion_us[2], 30.0);
  EXPECT_EQ(cpu.busy_total().us(), 30.0);
  EXPECT_EQ(cpu.tasks_run(), 3u);
}

TEST(Cpu, InterruptPriorityRunsBeforeQueuedThreadWork) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  // One task running now; while it runs, a thread task and an interrupt
  // arrive. The interrupt must run next despite arriving later.
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(10));
    order.push_back("first");
  });
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(1));
    order.push_back("thread");
  });
  cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Micros(1));
    order.push_back("interrupt");
  });
  s.Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "interrupt");
  EXPECT_EQ(order[2], "thread");
}

TEST(Cpu, ZeroCostTaskCompletesImmediately) {
  Simulator s;
  Cpu cpu(s);
  bool done = false;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) { ctx.After([&] { done = true; }); });
  s.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(s.Now(), TimePoint());
}

TEST(Cpu, InterruptPreemptsRunningThreadTask) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> done;
  // A long thread task starts at t=0.
  cpu.Submit(Priority::kThread, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(10));
    ctx.After([&] { done.emplace_back("thread", s.Now().us()); });
  });
  // An interrupt arrives at t=2ms: it must run immediately, and the thread
  // task's remainder resumes afterwards, completing at 10ms + 1ms.
  s.Schedule(Duration::Millis(2), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(1));
      ctx.After([&] { done.emplace_back("interrupt", s.Now().us()); });
    });
  });
  s.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, "interrupt");
  EXPECT_DOUBLE_EQ(done[0].second, 3000.0);
  EXPECT_EQ(done[1].first, "thread");
  EXPECT_DOUBLE_EQ(done[1].second, 11000.0);  // 10ms work + 1ms preemption
  EXPECT_EQ(cpu.preemptions(), 1u);
  EXPECT_EQ(cpu.busy_total().ms(), 11.0);
}

TEST(Cpu, SamePriorityDoesNotPreempt) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(5));
    ctx.After([&] { order.push_back("first"); });
  });
  s.Schedule(Duration::Millis(1), [&] {
    cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(1));
      ctx.After([&] { order.push_back("second"); });
    });
  });
  s.Run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(cpu.preemptions(), 0u);
}

TEST(Cpu, NestedHigherPrioritySubmitSuspendsFreshTask) {
  // A kernel task that submits an interrupt during its own logic: the
  // interrupt wins the same-instant tie; the kernel work's busy time and
  // completion side effects still happen afterwards.
  Simulator s;
  Cpu cpu(s);
  std::vector<std::pair<std::string, double>> done;
  cpu.Submit(Priority::kKernel, [&](CpuContext& ctx) {
    ctx.Charge(Duration::Millis(4));
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ictx) {
      ictx.Charge(Duration::Millis(1));
      ictx.After([&] { done.emplace_back("interrupt", s.Now().us()); });
    });
    ctx.After([&] { done.emplace_back("kernel", s.Now().us()); });
  });
  s.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, "interrupt");
  EXPECT_DOUBLE_EQ(done[0].second, 1000.0);
  EXPECT_EQ(done[1].first, "kernel");
  EXPECT_DOUBLE_EQ(done[1].second, 5000.0);
  EXPECT_EQ(cpu.busy_total().ms(), 5.0);
}

TEST(Cpu, PreemptedChainRetainsFifoWithinPriority) {
  Simulator s;
  Cpu cpu(s);
  std::vector<std::string> order;
  for (int i = 0; i < 2; ++i) {
    cpu.Submit(Priority::kThread, [&, i](CpuContext& ctx) {
      ctx.Charge(Duration::Millis(3));
      ctx.After([&, i] { order.push_back("t" + std::to_string(i)); });
    });
  }
  s.Schedule(Duration::Millis(1), [&] {
    cpu.Submit(Priority::kInterrupt, [&](CpuContext& ctx) {
      ctx.Charge(Duration::Micros(100));
      ctx.After([&] { order.push_back("irq"); });
    });
  });
  s.Run();
  // irq at 1.1ms; t0 resumes and completes; then t1.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "irq");
  EXPECT_EQ(order[1], "t0");
  EXPECT_EQ(order[2], "t1");
}

// One seeded CPU script. Scheduled events submit tasks into an idle or a
// busy CPU, and a quarter of the scripts power-fail it once mid-run. Tasks
// run at all three priorities, charge zero or non-zero time, register After
// callbacks, and submit further tasks from their logic and from those
// callbacks. Every task's logic instant and every After (in firing order,
// at the completion instant) is folded into an FNV-1a hash together with
// preemptions() and busy_total() at that moment.
class CpuScript {
 public:
  explicit CpuScript(std::uint64_t seed) : rng_(seed), cpu_(sim_) {}

  std::uint64_t Run() {
    for (int i = 0; i < 12; ++i) {
      sim_.Schedule(Duration::Nanos(Draw(40000)), [this] { Submit(0); });
    }
    if (Draw(4) == 0) {
      sim_.Schedule(Duration::Nanos(Draw(40000)), [this] {
        cpu_.Reset();
        Log(3, 0, 0);
      });
    }
    sim_.Run();
    Log(4, cpu_.tasks_run(), cpu_.queued());
    return hash_;
  }

 private:
  std::int64_t Draw(std::uint64_t n) { return static_cast<std::int64_t>(rng_() % n); }

  void Submit(int depth) {
    const std::uint64_t id = next_id_++;
    cpu_.Submit(static_cast<Priority>(Draw(kNumPriorities)), [this, id, depth](CpuContext& ctx) {
      Log(1, id, 0);
      if (Draw(3) != 0) ctx.Charge(Duration::Nanos(Draw(5000)));
      for (std::int64_t k = Draw(3); k > 0; --k) {
        const bool spawn = depth < 3 && Draw(3) == 0;
        ctx.After([this, id, k, depth, spawn] {
          Log(2, id, static_cast<std::uint64_t>(k));
          if (spawn) Submit(depth + 1);
        });
      }
      if (depth < 3 && Draw(3) == 0) Submit(depth + 1);
    });
  }

  void Log(std::uint64_t tag, std::uint64_t a, std::uint64_t b) {
    for (const std::uint64_t v :
         {tag, a, b, static_cast<std::uint64_t>(sim_.Now().ns()),
          static_cast<std::uint64_t>(cpu_.preemptions()),
          static_cast<std::uint64_t>(cpu_.busy_total().ns())}) {
      for (int i = 0; i < 8; ++i) {
        hash_ ^= (v >> (8 * i)) & 0xff;
        hash_ *= 0x100000001b3ULL;
      }
    }
  }

  std::mt19937_64 rng_;
  Simulator sim_;
  Cpu cpu_;
  std::uint64_t next_id_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TEST(Cpu, SeededScriptsPinAfterOrderUnderPreemptionAndReset) {
  // The CPU model's instants, preemptions and busy time are part of virtual
  // time, so a host-side change to sim::Cpu (how it queues tasks or stores
  // After callbacks) must leave this hash exactly as it is. Unlike the tests
  // above, the scripts preempt tasks that hold After callbacks, submit from
  // those callbacks, and reset the CPU mid-run.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    hash = (hash ^ CpuScript(seed).Run()) * 0x100000001b3ULL;
  }
  EXPECT_EQ(hash, 0x675729e0542f11e5ULL);
}

TEST(Cpu, UtilizationHelper) {
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Micros(50), Duration::Micros(100)), 0.5);
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Micros(200), Duration::Micros(100)), 1.0);
  EXPECT_DOUBLE_EQ(Cpu::Utilization(Duration::Zero(), Duration::Zero()), 0.0);
}

TEST(Host, ChargeAccumulatesIntoTask) {
  Simulator s;
  Host h(s, "alpha", CostModel::Default1996());
  double done_at = -1;
  h.Submit(Priority::kKernel, [&] {
    h.Charge(Duration::Micros(7));
    h.Charge(Duration::Micros(3));
    h.AfterTask([&] { done_at = s.Now().us(); });
  });
  s.Run();
  EXPECT_EQ(done_at, 10.0);
  EXPECT_EQ(h.cpu().busy_total().us(), 10.0);
}

TEST(Host, NestedSubmitKeepsContextsSeparate) {
  Simulator s;
  Host h(s, "alpha", CostModel::Default1996());
  double inner_done = -1, outer_done = -1;
  h.Submit(Priority::kKernel, [&] {
    h.Charge(Duration::Micros(5));
    // A task submitted from within a task queues behind it.
    h.Submit(Priority::kKernel, [&] {
      h.Charge(Duration::Micros(2));
      h.AfterTask([&] { inner_done = s.Now().us(); });
    });
    h.AfterTask([&] { outer_done = s.Now().us(); });
  });
  s.Run();
  EXPECT_EQ(outer_done, 5.0);
  EXPECT_EQ(inner_done, 7.0);
}

TEST(Random, DeterministicFromSeed) {
  Random a(42), b(42), c(43);
  bool all_equal = true, any_diff_seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    auto va = a.NextU64();
    if (va != b.NextU64()) all_equal = false;
    if (va != c.NextU64()) any_diff_seed_differs = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_differs);
}

TEST(Random, UniformDoubleInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Random, UniformIntInclusiveBounds) {
  Random r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, BernoulliExtremes) {
  Random r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(Random, ExponentialMeanRoughlyCorrect) {
  Random r(11);
  const Duration mean = Duration::Micros(100);
  std::int64_t total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += r.Exponential(mean).ns();
  const double avg_us = static_cast<double>(total) / n / 1000.0;
  EXPECT_NEAR(avg_us, 100.0, 5.0);
}

TEST(EnvFlag, OneOnOffRuleForEveryBooleanGate) {
  struct Case {
    const char* value;  // nullptr: unset
    bool fallback;
    bool want;
  };
  const Case cases[] = {
      {nullptr, false, false}, {nullptr, true, true}, {"", false, false},
      {"", true, true},        {"0", true, false},    {"off", true, false},
      {"OFF", true, false},    {"oFf", true, false},  {"1", false, true},
      {"on", false, true},     {"yes", false, true},  {"00", false, true},
      {"of", false, true},     {"offs", false, true}, {"0ff", false, true},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ParseEnvFlag(c.value, c.fallback), c.want)
        << (c.value != nullptr ? c.value : "(unset)") << " fallback " << c.fallback;
  }
}

TEST(EnvFlag, TraceOffLeavesTheTracerDisabled) {
  // Saves and restores PLEXUS_TRACE so the check.sh pass that sets it
  // keeps its value for the tests that follow.
  const char* saved = std::getenv("PLEXUS_TRACE");
  const std::string saved_copy = saved ? saved : "";
  for (const char* off : {"off", "OFF", "0", ""}) {
    ::setenv("PLEXUS_TRACE", off, 1);
    EXPECT_FALSE(Tracer().enabled()) << "PLEXUS_TRACE=" << off;
  }
  ::setenv("PLEXUS_TRACE", "1", 1);
  EXPECT_TRUE(Tracer().enabled());
  ::unsetenv("PLEXUS_TRACE");
  EXPECT_FALSE(Tracer().enabled());
  if (saved) {
    ::setenv("PLEXUS_TRACE", saved_copy.c_str(), 1);
  } else {
    ::unsetenv("PLEXUS_TRACE");
  }
}

TEST(CostModel, PresetsDiffer) {
  auto def = CostModel::Default1996();
  auto fast = CostModel::FastDriver1996();
  auto modern = CostModel::ModernHypothetical();
  EXPECT_LT(fast.interrupt_entry, def.interrupt_entry);
  EXPECT_LT(modern.syscall_entry, def.syscall_entry);
  EXPECT_LT(modern.copy_per_byte, def.copy_per_byte);
}

}  // namespace
}  // namespace sim
