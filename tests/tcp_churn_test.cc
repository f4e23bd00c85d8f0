// Connection-churn soak (label: slow): ~2000 concurrent TCP connections
// through the Plexus stack under frame loss, reordering, and duplication.
//
// Each connection carries a distinct payload that must arrive at the server
// byte-for-byte exactly once; a slice of connections is aborted mid-transfer
// (RST path), and the port-81 listener is removed and re-added while traffic
// is in flight (TcpDemux listener churn). Throughout, the SPIN dispatchers
// must quarantine nothing: heavy legitimate load is not a fault. The suite
// is also a timer soak — every connection runs RTO/delack timers under loss
// and parks a 2MSL timer at close, so the scheduler carries thousands of
// live timers (asserted via sim.timer_pending_peak).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "batch_mode.h"
#include "core/plexus.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/metrics.h"
#include "sim/slab.h"

namespace {

constexpr int kConns = 2000;

// Distinct, reproducible payload per connection; the 4-byte index prefix
// lets the server identify which connection a byte stream belongs to.
std::vector<std::byte> PayloadFor(int i) {
  const std::size_t len = 64 + static_cast<std::size_t>(i) % 512;
  std::vector<std::byte> p(4 + len);
  p[0] = static_cast<std::byte>(i & 0xff);
  p[1] = static_cast<std::byte>((i >> 8) & 0xff);
  p[2] = static_cast<std::byte>((i >> 16) & 0xff);
  p[3] = static_cast<std::byte>((i >> 24) & 0xff);
  for (std::size_t j = 0; j < len; ++j) {
    p[4 + j] = static_cast<std::byte>((i * 31 + static_cast<int>(j) * 7) & 0xff);
  }
  return p;
}

// Scale-soak post-mortem: when any expectation above failed, dump both
// hosts' flight recorders to $PLEXUS_FLIGHT_DIR (default ".") so the
// failure ships with the full engine state, not just the assertion text.
void DumpFlightIfFailed(const char* tag, core::PlexusHost& server,
                        core::PlexusHost& client) {
  if (!::testing::Test::HasFailure()) return;
  const char* env = std::getenv("PLEXUS_FLIGHT_DIR");
  const std::string dir = (env != nullptr && env[0] != '\0') ? env : ".";
  for (core::PlexusHost* h : {&server, &client}) {
    const std::string path =
        dir + "/flight_" + tag + "_" + h->host().name() + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) continue;
    const std::string snap = h->SnapshotTelemetry(/*tracer_tail=*/64);
    std::fwrite(snap.data(), 1, snap.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::fprintf(stderr, "flight recorder dumped: %s\n", path.c_str());
  }
}

TEST(TcpChurn, ThousandsOfConnectionsUnderFaultsDeliverExactly) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  lan.medium().set_faults(
      {.drop_probability = 0.01, .duplicate_probability = 0.005, .reorder_probability = 0.02});
  auto &server = lan.AddPlexus(1, "server"), &client = lan.AddPlexus(2, "client");
  lan.WarmArp();

  // Server: accumulate each accepted stream; on stream close, verify it is
  // byte-identical to the payload its index prefix announces.
  struct ServerConn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    std::vector<std::byte> received;
  };
  std::vector<std::unique_ptr<ServerConn>> server_conns;
  int verified = 0, mismatched = 0, aborted_seen = 0;
  const auto acceptor = [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    auto sc = std::make_unique<ServerConn>();
    ServerConn* raw = sc.get();
    raw->ep = std::move(ep);
    raw->ep->SetOnData([raw](std::span<const std::byte> data) {
      raw->received.insert(raw->received.end(), data.begin(), data.end());
    });
    raw->ep->SetOnClose([&, raw] {
      if (raw->received.size() >= 4) {
        const int idx = static_cast<int>(std::to_integer<unsigned>(raw->received[0])) |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[1])) << 8 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[2])) << 16 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[3])) << 24;
        if (idx % 97 == 13) {
          // Aborted mid-transfer by design: a truncated stream is expected
          // here; anything it did deliver must still be a prefix.
          const auto full = PayloadFor(idx);
          if (raw->received.size() <= full.size() &&
              std::equal(raw->received.begin(), raw->received.end(), full.begin())) {
            ++aborted_seen;
          } else {
            ++mismatched;
          }
        } else if (raw->received == PayloadFor(idx)) {
          ++verified;
        } else {
          ++mismatched;
        }
      }
      raw->ep->CloseStream();
    });
    server_conns.push_back(std::move(sc));
  };
  ASSERT_TRUE(server.tcp().Listen(80, acceptor));
  ASSERT_TRUE(server.tcp().Listen(81, acceptor));

  // Listener churn while traffic is in flight: port 81 goes away at 60ms
  // and comes back at 160ms. Connections that hit the gap are refused with
  // RST; everything else must be unaffected.
  sim.Schedule(sim::Duration::Millis(60),
               [&] { server.tcp().StopListening(81); });
  sim.Schedule(sim::Duration::Millis(160),
               [&] { ASSERT_TRUE(server.tcp().Listen(81, acceptor)); });

  struct ClientConn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    bool done = false;
  };
  std::vector<ClientConn> conns(kConns);
  int client_closed = 0;

  const sim::Duration gap = sim::Duration::Micros(100);  // 2k conns in 200ms
  for (int i = 0; i < kConns; ++i) {
    sim.Schedule(gap * i, [&, i] {
      client.Run([&, i] {
        ClientConn& c = conns[static_cast<std::size_t>(i)];
        const std::uint16_t port = (i % 10 == 3) ? 81 : 80;
        c.ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), port);
        c.ep->SetOnClose([&, i] {
          ClientConn& cc = conns[static_cast<std::size_t>(i)];
          if (!cc.done) {
            cc.done = true;
            ++client_closed;
          }
        });
        c.ep->SetOnEstablished([&, i] {
          ClientConn& cc = conns[static_cast<std::size_t>(i)];
          const auto payload = PayloadFor(i);
          if (i % 97 == 13) {
            // RST path: write half, then abort mid-transfer.
            cc.ep->Write(std::span(payload).subspan(0, payload.size() / 2));
            cc.ep->connection().Abort();
            if (!cc.done) {
              cc.done = true;
              ++client_closed;
            }
          } else {
            cc.ep->Write(payload);
            cc.ep->CloseStream();  // FIN after the queued bytes drain
          }
        });
      });
    });
  }

  // Drain: every connection must resolve (delivered, refused, or aborted)
  // well within the cap even under loss.
  for (int rounds = 0; rounds < 300 && client_closed < kConns; ++rounds) {
    sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_EQ(client_closed, kConns) << "connections still unresolved";

  const int aborted = (kConns + 96 - 13) / 97;  // i % 97 == 13 slices
  EXPECT_EQ(mismatched, 0);
  EXPECT_LE(aborted_seen, aborted);
  // Everything except the aborted slice and the port-81 gap casualties must
  // verify exactly; the gap is 100ms of a 200ms connect window, so at least
  // half the port-81 connections (1/10 of all) still land.
  EXPECT_GE(verified, kConns - aborted - kConns / 10 / 2 - 16);
  EXPECT_LE(verified, kConns - aborted);

  // Heavy legitimate load must not trip fault containment.
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
  EXPECT_EQ(client.dispatcher().stats().quarantines, 0u);

  // The soak genuinely exercised connection-scale timer populations
  // (TIME_WAIT alone parks one 2MSL timer per cleanly closed connection).
  EXPECT_GE(sim.metrics().gauge("sim.timer_pending_peak").value(), 1500);
  EXPECT_GT(sim.metrics().counter("sim.timer_fires").value(), 0u);

  // Slab books: once the wire and the retransmission machinery quiesce,
  // every pooled mbuf header and segment body the soak allocated must have
  // been returned — 2000 churned connections with zero engine-side leaks.
  sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);

  DumpFlightIfFailed("churn", server, client);
}

TEST(TcpChurn, ConvergesWithConstrainedMbufPools) {
  // Same exactly-once contract, but both hosts run on starved mbuf pools:
  // tx segments queue on the shared half-duplex wire while pooled, so
  // concurrent connections exhaust the pool, EmitSegment drops, and the
  // retransmission machinery must absorb every drop. At the end the books
  // must be balanced — every pooled segment returned.
  constexpr int kSmallConns = 400;
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &server = lan.AddPlexus(1, "server"), &client = lan.AddPlexus(2, "client");
  server.SetMbufPoolCapacity(48);
  client.SetMbufPoolCapacity(48);
  lan.WarmArp();

  struct ServerConn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    std::vector<std::byte> received;
  };
  std::vector<std::unique_ptr<ServerConn>> server_conns;
  int verified = 0, mismatched = 0;
  ASSERT_TRUE(server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    auto sc = std::make_unique<ServerConn>();
    ServerConn* raw = sc.get();
    raw->ep = std::move(ep);
    raw->ep->SetOnData([raw](std::span<const std::byte> data) {
      raw->received.insert(raw->received.end(), data.begin(), data.end());
    });
    raw->ep->SetOnClose([&, raw] {
      if (raw->received.size() >= 4) {
        const int idx = static_cast<int>(std::to_integer<unsigned>(raw->received[0])) |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[1])) << 8 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[2])) << 16 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[3])) << 24;
        if (raw->received == PayloadFor(idx)) {
          ++verified;
        } else {
          ++mismatched;
        }
      }
      raw->ep->CloseStream();
    });
    server_conns.push_back(std::move(sc));
  }));

  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> conns(kSmallConns);
  int client_closed = 0;
  const sim::Duration gap = sim::Duration::Micros(100);
  for (int i = 0; i < kSmallConns; ++i) {
    sim.Schedule(gap * i, [&, i] {
      client.Run([&, i] {
        auto& ep = conns[static_cast<std::size_t>(i)];
        ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
        ep->SetOnClose([&] { ++client_closed; });
        ep->SetOnEstablished([&, i] {
          auto& cc = conns[static_cast<std::size_t>(i)];
          cc->Write(PayloadFor(i));
          cc->CloseStream();
        });
      });
    });
  }

  for (int rounds = 0; rounds < 300 && client_closed < kSmallConns; ++rounds) {
    sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_EQ(client_closed, kSmallConns) << "connections still unresolved";
  EXPECT_EQ(mismatched, 0);
  EXPECT_EQ(verified, kSmallConns);

  // The starved pools actually bit — and recovered without leaking.
  EXPECT_GT(client.host().metrics().counter("mbuf.pool_exhausted").value() +
                server.host().metrics().counter("mbuf.pool_exhausted").value(),
            0u);
  EXPECT_EQ(client.mbuf_pool().in_use(), 0u);
  EXPECT_EQ(server.mbuf_pool().in_use(), 0u);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
  EXPECT_EQ(client.dispatcher().stats().quarantines, 0u);
  // Exhaustion-and-recovery must leave the slab books balanced too.
  EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);

  DumpFlightIfFailed("churn_small_pool", server, client);
}

TEST(TcpChurn, BatchedModePinnedDeliversExactlyAndDrainsLeakFree) {
  // The churn contract with the batched packet path pinned on (independent
  // of what PLEXUS_BATCH resolves to): concurrent faulted connections ride
  // rx bursts, coalesced graph hops, GRO chains, and GSO jumbos — and must
  // still deliver exactly once, quarantine nothing, and hand every mbuf
  // (held GRO chains included) back to the slabs.
  ScopedBatchMode batched(true);
  constexpr int kBatchConns = 300;

  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  lan.medium().set_faults(
      {.drop_probability = 0.01, .duplicate_probability = 0.005, .reorder_probability = 0.02});
  auto &server = lan.AddPlexus(1, "server"), &client = lan.AddPlexus(2, "client");
  lan.WarmArp();

  struct ServerConn {
    std::shared_ptr<core::PlexusTcpEndpoint> ep;
    std::vector<std::byte> received;
  };
  std::vector<std::unique_ptr<ServerConn>> server_conns;
  int verified = 0, mismatched = 0;
  ASSERT_TRUE(server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    auto sc = std::make_unique<ServerConn>();
    ServerConn* raw = sc.get();
    raw->ep = std::move(ep);
    raw->ep->SetOnData([raw](std::span<const std::byte> data) {
      raw->received.insert(raw->received.end(), data.begin(), data.end());
    });
    raw->ep->SetOnClose([&, raw] {
      if (raw->received.size() >= 4) {
        const int idx = static_cast<int>(std::to_integer<unsigned>(raw->received[0])) |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[1])) << 8 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[2])) << 16 |
                        static_cast<int>(std::to_integer<unsigned>(raw->received[3])) << 24;
        if (raw->received == PayloadFor(idx)) {
          ++verified;
        } else {
          ++mismatched;
        }
      }
      raw->ep->CloseStream();
    });
    server_conns.push_back(std::move(sc));
  }));

  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> conns(kBatchConns);
  int client_closed = 0;
  const sim::Duration gap = sim::Duration::Micros(100);
  for (int i = 0; i < kBatchConns; ++i) {
    sim.Schedule(gap * i, [&, i] {
      client.Run([&, i] {
        auto& ep = conns[static_cast<std::size_t>(i)];
        ep = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
        ep->SetOnClose([&] { ++client_closed; });
        ep->SetOnEstablished([&, i] {
          auto& cc = conns[static_cast<std::size_t>(i)];
          cc->Write(PayloadFor(i));
          cc->CloseStream();
        });
      });
    });
  }

  for (int rounds = 0; rounds < 300 && client_closed < kBatchConns; ++rounds) {
    sim.RunFor(sim::Duration::Seconds(1));
  }
  ASSERT_EQ(client_closed, kBatchConns) << "connections still unresolved";
  EXPECT_EQ(mismatched, 0);
  EXPECT_EQ(verified, kBatchConns);
  EXPECT_EQ(server.dispatcher().stats().quarantines, 0u);
  EXPECT_EQ(client.dispatcher().stats().quarantines, 0u);
  // The run really took the batched path.
  EXPECT_GT(server.dispatcher().stats().batch_raises +
                client.dispatcher().stats().batch_raises,
            0u);

  sim.RunFor(sim::Duration::Seconds(40));  // 2MSL drain
  EXPECT_EQ(client.mbuf_pool().in_use(), 0u);
  EXPECT_EQ(server.mbuf_pool().in_use(), 0u);
  EXPECT_EQ(sim::SlabRegistry::InUse("mbuf"), 0u);

  DumpFlightIfFailed("churn_batched", server, client);
}

}  // namespace
