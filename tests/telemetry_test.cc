// The observability layer itself: the wall-clock engine profiler (probe
// accounting, nesting, exports, and the guarantee that profiling never
// perturbs virtual time), and the host flight recorder (schema, content,
// determinism of PlexusHost::SnapshotTelemetry).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/cost_model.h"
#include "sim/profiler.h"
#include "sim/simulator.h"

namespace {

// Every test sets the profiler state explicitly (the suite also runs under
// PLEXUS_PROFILE=1 in scripts/check.sh, so the environment must not leak
// into expectations) and leaves a clean slate behind.
class ProfilerTest : public ::testing::Test {
 protected:
  void TearDown() override {
    sim::Profiler::SetEnabled(false);
    sim::Profiler::Reset();
  }
};

TEST_F(ProfilerTest, DisabledProbesRecordNothing) {
  sim::Profiler::SetEnabled(false);
  sim::Profiler::Reset();
  {
    PLEXUS_PROFILE_SCOPE(kEventRaise);
    PLEXUS_PROFILE_BYTES(kMbufAllocBytes, 128);
  }
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kEventRaise).calls, 0u);
  EXPECT_EQ(sim::Profiler::bytes(sim::Profiler::kMbufAllocBytes), 0u);
  EXPECT_EQ(sim::Profiler::TotalSelfNs(), 0u);
}

TEST_F(ProfilerTest, NestedScopesSplitSelfFromTotal) {
  sim::Profiler::SetEnabled(true);
  sim::Profiler::Reset();
  {
    PLEXUS_PROFILE_SCOPE(kTimerFire);
    {
      PLEXUS_PROFILE_SCOPE(kEventRaise);
      {
        PLEXUS_PROFILE_SCOPE(kDemuxLookup);
      }
    }
    PLEXUS_PROFILE_BYTES(kMbufCloneBytes, 64);
  }
  const auto& fire = sim::Profiler::stats(sim::Profiler::kTimerFire);
  const auto& raise = sim::Profiler::stats(sim::Profiler::kEventRaise);
  const auto& demux = sim::Profiler::stats(sim::Profiler::kDemuxLookup);
  EXPECT_EQ(fire.calls, 1u);
  EXPECT_EQ(raise.calls, 1u);
  EXPECT_EQ(demux.calls, 1u);
  // Nesting: the outer probe's total covers the inner's; self excludes it.
  EXPECT_GE(fire.total_ns, raise.total_ns);
  EXPECT_GE(raise.total_ns, demux.total_ns);
  EXPECT_LE(fire.self_ns, fire.total_ns);
  EXPECT_LE(raise.self_ns, raise.total_ns);
  EXPECT_EQ(demux.self_ns, demux.total_ns);  // leaf probe
  // Self-time sums across sites without double counting: never more than
  // the outermost probe's total.
  EXPECT_LE(sim::Profiler::TotalSelfNs(), fire.total_ns);
  EXPECT_EQ(sim::Profiler::bytes(sim::Profiler::kMbufCloneBytes), 64u);
}

TEST_F(ProfilerTest, AProbeRecordsIfProfilingWasOnWhenItOpened) {
  // The state when it closes does not matter. A probe that never opened
  // leaves the nesting chain as it found it, so kMbufAlloc opens under none.
  sim::Profiler::SetEnabled(false);
  sim::Profiler::Reset();
  {
    PLEXUS_PROFILE_SCOPE(kTimerFire);
    sim::Profiler::SetEnabled(true);
    {
      PLEXUS_PROFILE_SCOPE(kEventRaise);
      sim::Profiler::SetEnabled(false);
    }
    {
      PLEXUS_PROFILE_SCOPE(kDemuxLookup);
      sim::Profiler::SetEnabled(true);
    }
  }
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kTimerFire).calls, 0u);
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kEventRaise).calls, 1u);
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kDemuxLookup).calls, 0u);
  {
    PLEXUS_PROFILE_SCOPE(kMbufAlloc);
  }
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kMbufAlloc).calls, 1u);
  EXPECT_EQ(sim::Profiler::TotalSelfNs(),
            sim::Profiler::stats(sim::Profiler::kEventRaise).self_ns +
                sim::Profiler::stats(sim::Profiler::kMbufAlloc).self_ns);
}

TEST_F(ProfilerTest, ExportsCarrySchemaAndRankedSites) {
  sim::Profiler::SetEnabled(true);
  sim::Profiler::Reset();
  for (int i = 0; i < 3; ++i) {
    PLEXUS_PROFILE_SCOPE(kMbufAlloc);
    PLEXUS_PROFILE_BYTES(kMbufAllocBytes, 256);
  }
  const std::string json = sim::Profiler::ToJson();
  EXPECT_EQ(json.rfind("{\"schema\":\"plexus-profile-v1\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"mbuf.alloc\":{\"calls\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mbuf.alloc_bytes\":768"), std::string::npos) << json;
  const std::string table = sim::Profiler::RankedTable();
  EXPECT_NE(table.find("mbuf.alloc"), std::string::npos) << table;
  EXPECT_NE(table.find("self"), std::string::npos) << table;

  sim::Profiler::Reset();
  EXPECT_EQ(sim::Profiler::stats(sim::Profiler::kMbufAlloc).calls, 0u);
  EXPECT_EQ(sim::Profiler::bytes(sim::Profiler::kMbufAllocBytes), 0u);
}

// The acceptance property behind PLEXUS_PROFILE=1: the profiler reads the
// host clock and nothing else, so every virtual-time artifact of the
// fig5/tab1 measurement paths is byte-identical with profiling on or off.
TEST_F(ProfilerTest, Fig5AndTab1ArtifactsAreByteIdenticalProfiledOrNot) {
  const auto profile = drivers::DeviceProfile::Ethernet10();
  const auto costs = sim::CostModel::Default1996();
  struct Artifacts {
    double rtt_us;
    double tcp_mbps;
    std::string rtt_metrics;
    std::string tcp_metrics;
  };
  auto run = [&](bool profiled) {
    sim::Profiler::SetEnabled(profiled);
    sim::Profiler::Reset();
    Artifacts out;
    bench::RunObservability rtt_obs;
    out.rtt_us = bench::PlexusUdpRttUs(profile, costs,
                                       core::HandlerMode::kInterrupt,
                                       /*payload=*/8, /*pings=*/4, &rtt_obs);
    bench::RunObservability tcp_obs;
    out.tcp_mbps =
        bench::PlexusTcpThroughputMbps(profile, costs, 64 * 1024, &tcp_obs);
    out.rtt_metrics = rtt_obs.metrics_json;
    out.tcp_metrics = tcp_obs.metrics_json;
    return out;
  };
  const Artifacts off = run(false);
  const Artifacts on = run(true);
  EXPECT_EQ(off.rtt_us, on.rtt_us);
  EXPECT_EQ(off.tcp_mbps, on.tcp_mbps);
  EXPECT_EQ(off.rtt_metrics, on.rtt_metrics);
  EXPECT_EQ(off.tcp_metrics, on.tcp_metrics);
  // And the profiled run actually profiled: the engine's hot sites saw the
  // workload.
  EXPECT_GT(sim::Profiler::stats(sim::Profiler::kEventRaise).calls, 0u);
  EXPECT_GT(sim::Profiler::stats(sim::Profiler::kTimerFire).calls, 0u);
  EXPECT_GT(sim::Profiler::stats(sim::Profiler::kMbufAlloc).calls, 0u);
}

TEST_F(ProfilerTest, SameSeedProfiledRunsExportIdenticalVirtualArtifacts) {
  sim::Profiler::SetEnabled(true);
  const auto profile = drivers::DeviceProfile::Ethernet10();
  const auto costs = sim::CostModel::Default1996();
  auto run = [&] {
    sim::Profiler::Reset();
    bench::RunObservability obs;
    obs.enable_tracing = true;
    bench::PlexusUdpRttUs(profile, costs, core::HandlerMode::kInterrupt,
                          /*payload=*/8, /*pings=*/4, &obs);
    return obs.metrics_json + "\n" + obs.charge_breakdown_json + "\n" +
           obs.chrome_trace_json;
  };
  EXPECT_EQ(run(), run());
}

// The deterministic "records" section of the plexus-bench-v1 envelope: the
// meta block carries wall-clock provenance (varies run to run), everything
// after "records" must not.
TEST(BenchReporter, RecordsSectionIsDeterministic) {
  auto render = [] {
    bench::JsonReporter reporter;
    bench::BenchRecord rec;
    rec.experiment = "exp";
    rec.device = "dev";
    rec.system = "sys";
    rec.metric = "m";
    rec.unit = "us";
    rec.measured = 1.5;
    rec.paper_expected = "2";
    reporter.Add(std::move(rec));
    const std::string json = reporter.ToJson();
    EXPECT_EQ(json.rfind("{\"schema\":\"plexus-bench-v1\",\"meta\":{", 0), 0u)
        << json;
    EXPECT_NE(json.find("\"wall_seconds\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"git_sha\":"), std::string::npos) << json;
    const auto records = json.find("\"records\":");
    EXPECT_NE(records, std::string::npos) << json;
    return json.substr(records);
  };
  EXPECT_EQ(render(), render());
}

// --- flight recorder -------------------------------------------------------------

// Structural well-formedness without a JSON parser: braces and brackets
// balance outside string literals, and strings close.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

// A two-host TCP exchange with tracing and per-flow sampling on, snapshot
// taken mid-flight while the connection is established and in-flight data
// exists. Fresh simulator per call; same seeds every call.
std::string RunAndSnapshot() {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  sim.tracer().SetEnabled(true);
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> accepted;
  b.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    ep->SetOnData([](std::span<const std::byte>) {});
    accepted.push_back(std::move(ep));
  });
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  a.Run([&] {
    conn = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    conn->EnableTelemetry(sim::Duration::Millis(1), /*capacity=*/32);
    conn->SetOnEstablished([&] {
      const std::vector<std::byte> payload(4096);
      conn->Write(payload);
    });
  });
  sim.RunFor(sim::Duration::Seconds(2));
  return a.SnapshotTelemetry(/*tracer_tail=*/16);
}

TEST(FlightRecorder, SnapshotCarriesEverySection) {
  const std::string snap = RunAndSnapshot();
  EXPECT_EQ(snap.rfind("{\"schema\":\"plexus-flight-v1\"", 0), 0u) << snap;
  for (const char* key :
       {"\"host\":\"a\"", "\"now_ns\":", "\"crashed\":", "\"mode\":",
        "\"metrics\":", "\"sim_metrics\":", "\"mbuf_pool\":", "\"nics\":",
        "\"deferred\":", "\"dispatcher\":", "\"quarantined\":", "\"flows\":",
        "\"tracer\":"}) {
    EXPECT_NE(snap.find(key), std::string::npos) << key << " missing:\n" << snap;
  }
  // The live flow appears with its endpoints, TcpInfo, and sampler series.
  EXPECT_NE(snap.find("\"local\":\"10.0.0.1:"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"remote\":\"10.0.0.2:80\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"state\":\"ESTABLISHED\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"samples\":[["), std::string::npos) << snap;
  // The tracer tail is present and the ring was recording.
  EXPECT_NE(snap.find("\"enabled\":true"), std::string::npos) << snap;
  EXPECT_NE(snap.find("\"tail\":[{"), std::string::npos) << snap;
  ExpectBalancedJson(snap);
}

TEST(FlightRecorder, SameSeedSnapshotsAreByteIdentical) {
  EXPECT_EQ(RunAndSnapshot(), RunAndSnapshot());
}

TEST(FlightRecorder, HostNamesAreEscapedIntoValidJson) {
  harness::Lan lan;
  auto& h = lan.AddPlexus(1, "we\"ird\\name");
  const std::string snap = h.SnapshotTelemetry();
  EXPECT_NE(snap.find("\"host\":\"we\\\"ird\\\\name\""), std::string::npos)
      << snap;
  ExpectBalancedJson(snap);
}

}  // namespace
