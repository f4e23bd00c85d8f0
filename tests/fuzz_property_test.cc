// Structure-aware fuzz property harness (label: slow).
//
// Property: for EVERY mutator seed, a hostile frame storm against a live
// stack (1) never corrupts a legitimate transfer's bytes, (2) never
// quarantines a handler, and (3) never strands a pooled buffer once the
// engine quiesces. adversarial_test.cc runs a 16-seed smoke version of the
// same scenario in tier 1; this sweep runs 1000 seeds by default
// (PLEXUS_FUZZ_SEEDS overrides, e.g. =100 for a quick pass) and also drives
// the storm through the chaos engine's kFuzzStorm fault family so hostile
// traffic composes with the same schedule machinery as crashes and flaps.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "adversarial_util.h"
#include "sim/chaos.h"

namespace {

int SeedCount() {
  if (const char* env = std::getenv("PLEXUS_FUZZ_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1000;
}

TEST(FuzzProperty, EverySeedPreservesTransferAndDrainsPools) {
  const int seeds = SeedCount();
  std::uint64_t malformed_total = 0;
  for (int s = 1; s <= seeds; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(s) * 2654435761u + 17;
    const adversarial::FuzzOutcome out = adversarial::RunFuzzScenario(seed, 40);
    ASSERT_TRUE(out.transfer_exact) << "mutator seed " << seed;
    ASSERT_EQ(out.quarantines, 0u) << "mutator seed " << seed;
    ASSERT_TRUE(out.pools_drained) << "mutator seed " << seed;
    malformed_total += out.malformed_total;
  }
  // Across the corpus the mutator must actually be reaching the per-layer
  // validators, or the property is vacuous.
  EXPECT_GT(malformed_total, 0u);
}

// The storm as a chaos fault family: a randomized schedule opens and closes
// kFuzzStorm windows against either host while a legitimate transfer runs.
// Same invariants as above — the schedule machinery adds timing diversity
// (storms overlapping the handshake, the teardown, or nothing at all) that
// fixed injection cadences cannot.
TEST(FuzzProperty, ChaosFuzzStormScheduleHoldsInvariants) {
  for (std::uint64_t schedule_seed = 1; schedule_seed <= 8; ++schedule_seed) {
    harness::Lan p;
    auto [server, client] = adversarial::AddServerAndClient(p);

    std::vector<std::byte> payload(8192);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::byte>((schedule_seed + i * 13) & 0xff);
    }
    std::vector<std::byte> received;
    std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> keep;
    proto::ListenOptions opts;
    opts.syn_backlog = 32;
    ASSERT_TRUE(server.tcp().Listen(
        80,
        [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
          core::PlexusTcpEndpoint* raw = ep.get();
          raw->SetOnData([&received](std::span<const std::byte> d) {
            received.insert(received.end(), d.begin(), d.end());
          });
          raw->SetOnClose([raw] { raw->CloseStream(); });
          keep.push_back(std::move(ep));
        },
        opts));

    std::shared_ptr<core::PlexusTcpEndpoint> cep;
    p.sim.Schedule(sim::Duration::Millis(1), [&] {
      client.Run([&] {
        cep = client.tcp().Connect(adversarial::kServerIp, 80);
        cep->SetOnEstablished([&] {
          cep->Write(payload);
          cep->CloseStream();
        });
      });
    });

    // Fuzz-only schedule: every other family weighted to zero.
    sim::ChaosConfig cfg;
    cfg.hosts = 2;
    cfg.links = 1;
    cfg.horizon = sim::Duration::Seconds(10);
    cfg.max_faults = 4;
    cfg.w_link_flap = 0.0;
    cfg.w_crash = 0.0;
    cfg.w_nic_stall = 0.0;
    cfg.w_partition = 0.0;
    cfg.w_fuzz = 1.0;
    const sim::ChaosSchedule schedule =
        sim::ChaosSchedule::Random(schedule_seed, cfg);

    // Storm state per host ordinal (0 = server, 1 = client). While a storm
    // is open, a pump injects one mutated template every 300 us.
    struct Storm {
      bool active = false;
      int generation = 0;  // invalidates pumps from closed windows
      std::unique_ptr<adversarial::PacketMutator> mutator;
    };
    auto storms = std::make_shared<std::vector<Storm>>(2);
    std::uint64_t injected = 0;

    auto target_of = [&](int ordinal) -> core::PlexusHost& {
      return ordinal == 0 ? server : client;
    };
    auto templates_of = [&](int ordinal) {
      return ordinal == 0
                 ? adversarial::HostileTemplates(adversarial::kServerMac,
                                                 adversarial::kServerIp)
                 : adversarial::HostileTemplates(adversarial::kClientMac,
                                                 adversarial::kClientIp);
    };

    std::function<void(int, int, int)> pump = [&](int ordinal, int generation,
                                                  int tick) {
      Storm& st = (*storms)[static_cast<std::size_t>(ordinal)];
      if (!st.active || st.generation != generation) return;
      auto templates = templates_of(ordinal);
      std::vector<std::uint8_t> f =
          templates[static_cast<std::size_t>(tick) % templates.size()];
      st.mutator->Mutate(f);
      adversarial::InjectAt(p.sim, target_of(ordinal), sim::Duration::Zero(),
                            std::move(f));
      ++injected;
      p.sim.Schedule(sim::Duration::Micros(300),
                     [&pump, ordinal, generation, tick] {
                       pump(ordinal, generation, tick + 1);
                     });
    };

    schedule.Install(p.sim, [&](const sim::ChaosEvent& e) {
      const int ordinal = e.target % 2;
      Storm& st = (*storms)[static_cast<std::size_t>(ordinal)];
      if (e.kind == sim::ChaosKind::kFuzzStorm) {
        st.active = true;
        ++st.generation;
        st.mutator = std::make_unique<adversarial::PacketMutator>(e.aux);
        pump(ordinal, st.generation, 0);
      } else if (e.kind == sim::ChaosKind::kFuzzCalm) {
        st.active = false;
        ++st.generation;
      }
    });

    // Horizon (10 s) + embryonic decay from mutated SYNs (~25 s at the
    // pair's rto_max of 2 s) + the 30 s fragment reassembly timeout.
    p.sim.RunFor(sim::Duration::Seconds(45));

    EXPECT_GT(injected, 0u) << "schedule seed " << schedule_seed
                            << " opened no storm window:\n"
                            << schedule.Describe();
    EXPECT_EQ(received, payload) << "schedule seed " << schedule_seed;
    EXPECT_EQ(server.dispatcher().stats().quarantines, 0u)
        << "schedule seed " << schedule_seed;
    EXPECT_EQ(client.dispatcher().stats().quarantines, 0u)
        << "schedule seed " << schedule_seed;
    EXPECT_EQ(server.mbuf_pool().in_use(), 0u)
        << "schedule seed " << schedule_seed;
    EXPECT_EQ(client.mbuf_pool().in_use(), 0u)
        << "schedule seed " << schedule_seed;
    EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u)
        << "schedule seed " << schedule_seed;
  }
}

}  // namespace
