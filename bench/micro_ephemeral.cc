// Section 3.3: interrupt-level (EPHEMERAL) vs thread-level handler latency,
// demonstrated with the active-message workload the paper uses, plus the
// time-limit termination machinery.
#include <cstdio>
#include <stdexcept>

#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "sim/host.h"
#include "spin/dispatcher.h"
#include "spin/event.h"
#include "tests/net_harness.h"

namespace {

// One-way active-message latency with the handler at interrupt level.
double ActiveMessageLatencyUs(core::HandlerMode mode) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddPlexus(1, "a", 1, mode), &b = lan.AddPlexus(2, "b", 1, mode);

  double total = 0;
  int count = 0;
  sim::TimePoint sent_at;
  std::function<void()> send_msg;
  // Ping-pong: handler 1 on b replies; handler 2 on a completes the RTT.
  b.active_messages().RegisterHandler(
      1, [&](net::MacAddress from, std::uint32_t a0, std::uint32_t, std::span<const std::byte>) {
        b.active_messages().Send(from, 2, a0, 0);
      });
  a.active_messages().RegisterHandler(
      2, [&](net::MacAddress, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
        total += (sim.Now() - sent_at).us();
        if (++count < 16) send_msg();
      });
  send_msg = [&] {
    a.Run([&] {
      sent_at = sim.Now();
      a.active_messages().Send(net::MacAddress::FromId(2), 1, 42, 0);
    });
  };
  send_msg();
  sim.RunFor(sim::Duration::Seconds(10));
  return count > 0 ? total / count : -1;
}

}  // namespace

int main() {
  std::printf("Section 3.3: EPHEMERAL interrupt-level handlers vs thread handlers\n");

  const double at_interrupt = ActiveMessageLatencyUs(core::HandlerMode::kInterrupt);
  const double in_thread = ActiveMessageLatencyUs(core::HandlerMode::kThread);
  bench::PrintHeader("active-message round trip (Ethernet)");
  bench::PrintRow("handler at interrupt level (EPHEMERAL)", at_interrupt, "us");
  bench::PrintRow("handler in a spawned thread", in_thread, "us");
  std::printf("  interrupt-level advantage: %.1f us per RTT (paper: \"unnecessarily large\n"
              "  latency\" for threaded handlers)\n",
              in_thread - at_interrupt);

  // Time-limit termination: an over-budget handler is cut off, charged only
  // its budget, and its side effects abandoned.
  bench::PrintHeader("over-budget handler termination");
  spin::Event<int> ev("Bench.Budget");
  int ran = 0, terminated = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.declared_cost = sim::Duration::Micros(500);
  opts.time_limit = sim::Duration::Micros(50);
  opts.on_terminated = [&] { ++terminated; };
  (void)ev.Install([&](int) { ++ran; }, nullptr, opts);
  for (int i = 0; i < 1000; ++i) ev.Raise(i);
  std::printf("  1000 raises of a 500us handler under a 50us budget: ran=%d terminated=%d\n",
              ran, terminated);
  std::printf("  shape: interrupt < thread and budget enforced: %s\n",
              (at_interrupt < in_thread && ran == 0 && terminated == 1000) ? "HOLDS"
                                                                           : "VIOLATED");

  // Fault containment: a storm of misbehaving handlers (one throws, one
  // burns CPU past its measured budget) next to a healthy one. The healthy
  // handler must see every raise, the offenders must be quarantined after
  // their strikes, and the CPU must be billed exactly dispatch + budget for
  // each measured termination — no runaway charging.
  bench::PrintHeader("fault containment under a misbehaving-extension storm");
  sim::Simulator fsim;
  sim::Host fhost(fsim, "bench", sim::CostModel::Default1996());
  spin::Dispatcher fdisp(&fhost);
  spin::Event<int> storm("Bench.FaultStorm", &fdisp);

  int healthy_runs = 0, burner_completed = 0;
  (void)storm.Install([&](int) { ++healthy_runs; });

  spin::HandlerOptions crasher;
  crasher.name = "crasher";
  crasher.fault.isolate = true;
  crasher.fault.max_strikes = 3;
  (void)storm.Install([](int) { throw std::runtime_error("storm bug"); }, nullptr, crasher);

  spin::HandlerOptions burner;
  burner.name = "burner";
  burner.ephemeral = true;
  burner.declared_cost = sim::Duration::Micros(5);
  burner.time_limit = sim::Duration::Micros(50);
  burner.fault.isolate = true;
  burner.fault.max_strikes = 3;
  (void)storm.Install(
      [&](int) {
        fhost.Charge(sim::Duration::Millis(1));  // way past the 50us budget
        ++burner_completed;                      // abandoned by the fence
      },
      nullptr, burner);

  constexpr int kRaises = 1000;
  fhost.Submit(sim::Priority::kKernel, [&] {
    for (int i = 0; i < kRaises; ++i) storm.Raise(i);
  });
  fsim.Run();

  const auto st = fdisp.stats();
  // Billing: every surviving dispatch costs event_dispatch; each of the 3
  // measured terminations additionally bills exactly the 50us budget.
  const auto expected_busy =
      sim::Duration::Nanos(fhost.costs().event_dispatch.ns() * (kRaises + 3 + 3)) +
      sim::Duration::Micros(50 * 3);
  std::printf("  %d raises: healthy=%d crasher faults=%llu burner terminations=%llu "
              "quarantines=%llu\n",
              kRaises, healthy_runs, static_cast<unsigned long long>(st.faults),
              static_cast<unsigned long long>(st.terminations),
              static_cast<unsigned long long>(st.quarantines));
  std::printf("  cpu billed %.1f us (expected %.1f us)\n", fhost.cpu().busy_total().us(),
              expected_busy.us());
  const bool contained = healthy_runs == kRaises && burner_completed == 0 && st.faults == 3 &&
                         st.terminations == 3 && st.quarantines == 2 &&
                         fhost.cpu().busy_total().ns() == expected_busy.ns();
  std::printf("  shape: healthy unaffected, offenders quarantined, billing exact: %s\n",
              contained ? "HOLDS" : "VIOLATED");
  return 0;
}
