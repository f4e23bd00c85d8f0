// Chaos property harness: many seeded fault schedules against a live
// topology, with hard invariants checked after every run.
//
// Per seed: three Plexus hosts on a shared segment, an echo server, and a
// retrying echo client, while a ChaosSchedule flaps the carrier, stalls
// NICs, partitions the segment, and crashes/reboots hosts. Whatever the
// schedule does, afterwards:
//   - the simulator drains (no stuck timers — every protocol timer is
//     bounded and the retry budget is finite),
//   - every host's mbuf pool is back to zero (crash teardown leaks nothing),
//   - no handler was quarantined (faults exercise error paths, not bugs),
//   - the transfer completed byte-exactly or reported a clean failure.
//
// Default 1000 seeds (ISSUE acceptance); PLEXUS_CHAOS_SEEDS overrides for
// quick local runs. Failures print the schedule for exact reproduction.
// On the first failing seed the harness dumps every host's flight recorder
// (PlexusHost::SnapshotTelemetry) to $PLEXUS_FLIGHT_DIR (default ".") so
// the post-mortem starts from the full engine state, not just the schedule.
// PLEXUS_CHAOS_FORCE_FAIL=1 forces a failure to exercise the dump path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/echo.h"
#include "app/retry.h"
#include "batch_mode.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/chaos.h"
#include "sim/simulator.h"
#include "sim/slab.h"

namespace {

using core::HandlerMode;
using core::PlexusHost;

int SeedCount() {
  if (const char* env = std::getenv("PLEXUS_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

// Writes one flight-recorder JSON per host. Returns how many dumps landed.
int DumpFlightRecorders(std::uint64_t seed, const std::vector<PlexusHost*>& hosts) {
  const char* env = std::getenv("PLEXUS_FLIGHT_DIR");
  const std::string dir = (env != nullptr && env[0] != '\0') ? env : ".";
  int dumped = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const std::string path = dir + "/flight_seed" + std::to_string(seed) +
                             "_h" + std::to_string(i) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) continue;
    const std::string snap = hosts[i]->SnapshotTelemetry(/*tracer_tail=*/64);
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "flight recorder dumped: %s\n", path.c_str());
    ++dumped;
  }
  return dumped;
}

struct RunOutcome {
  bool finished = false;
  bool success = false;
  std::size_t bytes_verified = 0;
  int attempts = 0;
  int faults_fired = 0;
  int crashes_fired = 0;
};

// One complete chaos run. Returns the outcome; all invariant failures are
// reported through gtest with the schedule attached.
void RunSeed(std::uint64_t seed, RunOutcome* out) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  drivers::Medium& segment = lan.medium();

  constexpr int kHosts = 3;
  std::vector<PlexusHost*> hosts;
  for (int i = 0; i < kHosts; ++i) {
    hosts.push_back(
        &lan.AddPlexus(i + 1, "h" + std::to_string(i), 1000 + static_cast<std::uint64_t>(i)));
  }

  // Survivable TCP settings: the retransmission death spiral must resolve
  // well inside the run, not after minutes of virtual 64s RTOs.
  proto::TcpConfig tcp_cfg;
  tcp_cfg.rto_max = sim::Duration::Seconds(4);
  for (PlexusHost* h : hosts) h->tcp().set_config(tcp_cfg);

  app::EchoServer server(*hosts[2], 7777);

  // The workload: client on h0 echoes a payload off h2, retrying through
  // whatever the schedule throws at it.
  std::vector<std::byte> payload;
  payload.reserve(16 * 1024);
  for (int i = 0; i < 16 * 1024; ++i) {
    payload.push_back(static_cast<std::byte>((i * 131 + static_cast<int>(seed)) & 0xff));
  }
  app::RetryPolicy policy;
  policy.initial_backoff = sim::Duration::Millis(250);
  policy.max_backoff = sim::Duration::Seconds(4);
  policy.max_attempts = 10;
  policy.attempt_timeout = sim::Duration::Seconds(15);

  std::optional<app::RetryingEchoClient::Result> result;
  app::RetryingEchoClient client(
      hosts[0]->host(),
      [&]() -> std::shared_ptr<proto::ByteStream> {
        // The client machine itself may be down when a retry timer fires.
        if (hosts[0]->crashed()) return nullptr;
        return std::static_pointer_cast<proto::ByteStream>(
            hosts[0]->tcp().Connect(net::Ipv4Address(10, 0, 0, 3), 7777));
      },
      payload, policy, [&](const app::RetryingEchoClient::Result& r) { result = r; });
  client.Start();

  sim::ChaosConfig cfg;
  cfg.hosts = kHosts;
  cfg.links = 1;
  cfg.w_partition = 1.5;  // all four families active
  const auto schedule = sim::ChaosSchedule::Random(seed, cfg);
  SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + schedule.Describe());

  schedule.Install(sim, [&](const sim::ChaosEvent& e) {
    ++out->faults_fired;
    if (e.kind == sim::ChaosKind::kCrash) ++out->crashes_fired;
    auto& host = *hosts[static_cast<std::size_t>(e.target % kHosts)];
    switch (e.kind) {
      case sim::ChaosKind::kLinkDown:
        segment.set_carrier(false);
        break;
      case sim::ChaosKind::kLinkUp:
        segment.set_carrier(true);
        break;
      case sim::ChaosKind::kNicStall:
        host.nic().SetStalled(true);
        break;
      case sim::ChaosKind::kNicResume:
        host.nic().SetStalled(false);
        break;
      case sim::ChaosKind::kPartition:
        segment.SetPartition(e.aux);
        break;
      case sim::ChaosKind::kHeal:
        segment.ClearPartition();
        break;
      case sim::ChaosKind::kCrash:
        host.Crash();
        break;
      case sim::ChaosKind::kRestart:
        host.Restart();
        if (e.target % kHosts == 2) server.Rearm();
        break;
    }
  });

  // Run to full quiescence: every timer is bounded, so this terminates.
  sim.Run();

  // --- invariants ---
  const bool failed_before_invariants = ::testing::Test::HasFailure();
  if (std::getenv("PLEXUS_CHAOS_FORCE_FAIL") != nullptr) {
    ADD_FAILURE() << "forced failure (PLEXUS_CHAOS_FORCE_FAIL) to exercise "
                     "the flight-recorder dump";
  }
  EXPECT_EQ(sim.pending_events(), 0u) << "stuck timers after drain";
  for (int i = 0; i < kHosts; ++i) {
    EXPECT_EQ(hosts[static_cast<std::size_t>(i)]->host().mbuf_pool()->in_use(), 0u)
        << "mbuf leak on h" << i;
    EXPECT_EQ(hosts[static_cast<std::size_t>(i)]->dispatcher().stats().quarantines, 0u)
        << "handler quarantined on h" << i;
  }
  // Engine-wide slab books: after crashes, partitions, and recovery, every
  // pooled mbuf header/segment must be back on its free list — a leak here
  // means some fault path dropped a buffer on the floor.
  EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u) << "slab leak, seed " << seed;
  if (result.has_value() && result->success) {
    EXPECT_EQ(result->bytes_verified, payload.size()) << "success without byte-exact echo";
  }
  // First failing seed: capture the engine state before moving on (or, for
  // the missing-result ASSERT below, before bailing out of the test).
  if (!failed_before_invariants && ::testing::Test::HasFailure()) {
    EXPECT_GT(DumpFlightRecorders(seed, hosts), 0)
        << "invariant failed but no flight recorder could be written";
  }
  ASSERT_TRUE(result.has_value()) << "client never finished (cleanly or otherwise)";
  out->finished = true;
  out->success = result->success;
  out->bytes_verified = result->bytes_verified;
  out->attempts = result->attempts;
}

TEST(ChaosProperty, ThousandSeededSchedulesHoldInvariants) {
  const int seeds = SeedCount();
  int successes = 0;
  long long attempts = 0, faults = 0, crashes = 0;
  for (int s = 1; s <= seeds; ++s) {
    RunOutcome out;
    RunSeed(static_cast<std::uint64_t>(s), &out);
    if (HasFatalFailure()) return;
    if (out.success) ++successes;
    attempts += out.attempts;
    faults += out.faults_fired;
    crashes += out.crashes_fired;
  }
  // Not vacuous: every seed injects at least one fault window (two events),
  // and across the sweep whole hosts really did crash and reboot.
  EXPECT_GE(faults, 2ll * seeds);
  EXPECT_GT(crashes, 0ll);
  // The point is the invariants above, but a recovery layer that never
  // recovers would pass them vacuously: most schedules must end in a
  // byte-exact transfer (every window closes by the horizon, so only
  // budget-exhausting pile-ups may legitimately fail).
  EXPECT_GE(successes * 10, seeds * 7)
      << successes << "/" << seeds << " transfers completed";
  RecordProperty("chaos_successes", successes);
  RecordProperty("chaos_attempts_total", static_cast<int>(attempts));
}

// The same invariants with the batched packet path pinned on (the sweep
// above runs whatever PLEXUS_BATCH resolves to — usually also batched, but
// this pass stays meaningful under the off-mode CI run). The load-bearing
// case is a crash landing while an rx burst is parked in a batch scope or
// a GRO chain is held: RunSeed's slab/pool/quarantine checks prove the
// teardown released every frame the burst was carrying.
TEST(ChaosProperty, BatchedCrashMidBurstDrainsLeakFree) {
  ScopedBatchMode batched(true);
  const int seeds = std::min(SeedCount(), 150);
  int crashes = 0;
  for (int s = 1; s <= seeds; ++s) {
    RunOutcome out;
    RunSeed(static_cast<std::uint64_t>(s), &out);
    if (HasFatalFailure()) break;
    crashes += out.crashes_fired;
  }
  if (HasFatalFailure()) return;
  EXPECT_GT(crashes, 0) << "no crash ever landed: the mid-burst case is untested";
}

}  // namespace
