// The discrete-event simulation engine.
//
// A Simulator owns a virtual clock and one ordered event queue, a
// hierarchical timing wheel (sim/timer_wheel.h): O(1) Schedule and eager
// O(1) Cancel, built for workloads with thousands of concurrent connection
// timers. Events fire in (deadline, FIFO) order — events scheduled for the
// same instant fire in the order they were scheduled — so runs are
// deterministic. timer_wheel_test checks that order against an ordered-map
// oracle.
//
// Callbacks are sim::EventFn (inline-capture, move-only), so scheduling
// allocates nothing for captures up to 48 bytes.
//
// The simulator owns a MetricsRegistry with the scheduler's own
// instruments (sim.timer_schedules / cancels / fires / pending /
// pending_peak / delay_ns / cascades), separate from the per-host
// registries.
#ifndef PLEXUS_SIM_SIMULATOR_H_
#define PLEXUS_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/time.h"
#include "sim/timer_wheel.h"  // EventId / kInvalidEventId / EventFn live there

namespace sim {

class Tracer;
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;

// The wheel is the only event queue. This enum and DefaultSchedulerImpl()
// exist only so perfbench's engine banner can keep printing "sched=wheel".
enum class SchedulerImpl { kWheel };

class Simulator {
 public:
  static constexpr SchedulerImpl DefaultSchedulerImpl() { return SchedulerImpl::kWheel; }

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const { return now_; }

  // The per-simulation structured trace (see sim/tracer.h). Always present;
  // disabled (and free) unless SetEnabled or PLEXUS_TRACE turns it on.
  Tracer& tracer() { return *tracer_; }
  const Tracer& tracer() const { return *tracer_; }

  // Scheduler-level instruments (sim.timer_*), distinct from host metrics.
  MetricsRegistry& metrics() { return *metrics_; }
  const MetricsRegistry& metrics() const { return *metrics_; }

  // Schedules fn to run after delay (>= 0). Returns an id usable with Cancel.
  // EventFn converts implicitly from any void() callable; captures up to its
  // inline capacity cost no allocation.
  EventId Schedule(Duration delay, EventFn fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  EventId ScheduleAt(TimePoint when, EventFn fn);

  // Cancels a pending event. Safe to call with an already-fired or invalid id.
  void Cancel(EventId id);

  // True if the given id is still pending.
  bool IsPending(EventId id) const { return wheel_.Contains(id); }

  // Runs until the queue drains or Stop() is called. Returns events fired.
  std::size_t Run();

  // Runs events with timestamp <= t; afterwards Now() == max(t, Now()).
  // If Stop() ends the run early, Now() stays at the stopping event: events
  // due before t may still be queued, and the clock must not pass them.
  std::size_t RunUntil(TimePoint t);

  std::size_t RunFor(Duration d) { return RunUntil(now_ + d); }

  // Requests that the run loop return after the current event.
  void Stop() { stopped_ = true; }

  std::size_t events_processed() const { return events_processed_; }
  // Live (scheduled, not yet fired or cancelled) events.
  std::size_t pending_events() const { return wheel_.size(); }
  const TimerWheel& wheel() const { return wheel_; }  // for invariant checks

 private:
  std::size_t Drain(TimePoint horizon);

  TimePoint now_;
  std::uint64_t next_seq_ = 0;  // FIFO tie-break among same-instant events
  std::size_t events_processed_ = 0;
  bool stopped_ = false;
  std::uint64_t reported_cascades_ = 0;  // wheel cascade moves already counted
  std::unique_ptr<MetricsRegistry> metrics_;
  Counter* schedules_ctr_ = nullptr;
  Counter* cancels_ctr_ = nullptr;
  Counter* fires_ctr_ = nullptr;
  Counter* cascades_ctr_ = nullptr;
  Gauge* pending_gauge_ = nullptr;
  Gauge* pending_peak_ = nullptr;
  Histogram* delay_hist_ = nullptr;
  TimerWheel wheel_;
  std::unique_ptr<Tracer> tracer_;
};

}  // namespace sim

#endif  // PLEXUS_SIM_SIMULATOR_H_
