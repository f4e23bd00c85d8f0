// Full-stack stress and property tests: mixed concurrent traffic through
// the Plexus graph under fault injection, across all three device types.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/simulator.h"

namespace core {
namespace {

using drivers::DeviceProfile;

struct FaultCase {
  const char* device;
  double drop;
  double dup;
  int jitter_us;
};

class StressTest : public ::testing::TestWithParam<int> {};

DeviceProfile ProfileFor(int idx) {
  switch (idx % 3) {
    case 0: return DeviceProfile::Ethernet10();
    case 1: return DeviceProfile::ForeAtm155();
    default: return DeviceProfile::DecT3();
  }
}

TEST_P(StressTest, TcpExactDeliveryUnderFaultsWithConcurrentUdp) {
  const int seed = GetParam();
  const DeviceProfile profile = ProfileFor(seed);
  harness::Lan lan(profile, 1000 + seed);
  sim::Simulator& sim = lan.sim;
  drivers::Faults faults;
  faults.drop_probability = 0.01 * (seed % 4);       // 0..3%
  faults.duplicate_probability = 0.01 * (seed % 3);  // 0..2%
  faults.jitter_max = sim::Duration::Micros(100 * (seed % 5));
  lan.medium().set_faults(faults);
  auto &a = lan.AddPlexus(1, "a", 100 + seed), &b = lan.AddPlexus(2, "b", 200 + seed);

  // TCP transfer a -> b.
  std::vector<std::byte> payload(40 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 7 + seed) & 0xff);
  }
  std::vector<std::byte> received;
  b.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    ep->SetOnData([&](std::span<const std::byte> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  std::shared_ptr<PlexusTcpEndpoint> conn;
  a.Run([&] {
    conn = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    conn->SetOnEstablished([&] { conn->Write(payload); });
  });

  // Concurrent UDP chatter on two port pairs (both directions).
  auto ua = a.udp().CreateEndpoint(6000).value();
  auto ub = b.udp().CreateEndpoint(6001).value();
  int a_got = 0, b_got = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  ua->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram& info) {
        EXPECT_EQ(info.dst_port, 6000);  // isolation: only our port
        ++a_got;
      },
      opts);
  ub->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram& info) {
        EXPECT_EQ(info.dst_port, 6001);
        ++b_got;
      },
      opts);
  for (int i = 0; i < 40; ++i) {
    sim.Schedule(sim::Duration::Millis(10 * i), [&] {
      a.Run([&] {
        ua->Send(net::Mbuf::FromString("a->b"), net::Ipv4Address(10, 0, 0, 2), 6001);
      });
      b.Run([&] {
        ub->Send(net::Mbuf::FromString("b->a"), net::Ipv4Address(10, 0, 0, 1), 6000);
      });
    });
  }

  sim.RunFor(sim::Duration::Seconds(300));

  // TCP must deliver the exact byte stream despite drops/dups/jitter.
  ASSERT_EQ(received.size(), payload.size())
      << "device=" << profile.name << " drop=" << faults.drop_probability;
  EXPECT_EQ(received, payload);
  // UDP is best-effort: with drop p and 40 sends, expect most to arrive.
  if (faults.drop_probability == 0.0 && faults.duplicate_probability == 0.0) {
    EXPECT_EQ(a_got, 40);
    EXPECT_EQ(b_got, 40);
  } else {
    EXPECT_GT(a_got, 20);
    EXPECT_GT(b_got, 20);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, StressTest, ::testing::Range(0, 12));

TEST(StressScale, ManyEndpointsManyConnections) {
  // 16 UDP endpoints and 6 TCP connections between two hosts at once; every
  // byte lands at the right consumer.
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  spin::HandlerOptions opts;
  opts.ephemeral = true;

  // UDP: endpoint i on b expects exactly the string "msg-i".
  std::vector<std::shared_ptr<UdpEndpoint>> rx;
  std::map<int, std::vector<std::string>> got;
  for (int i = 0; i < 16; ++i) {
    auto ep = b.udp().CreateEndpoint(static_cast<std::uint16_t>(7000 + i)).value();
    ep->InstallReceiveHandler(
        [&, i](const net::Mbuf& p, const proto::UdpDatagram&) {
          got[i].push_back(p.ToString());
        },
        opts);
    rx.push_back(std::move(ep));
  }
  auto tx = a.udp().CreateEndpoint(5000).value();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 16; ++i) {
      a.Run([&, i] {
        tx->Send(net::Mbuf::FromString("msg-" + std::to_string(i)),
                 net::Ipv4Address(10, 0, 0, 2), static_cast<std::uint16_t>(7000 + i));
      });
    }
  }

  // TCP: connection j carries a distinct repeated byte.
  std::map<std::uint16_t, std::vector<std::byte>> tcp_got;
  b.tcp().Listen(8000, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    const std::uint16_t rport = ep->connection().endpoints().remote_port;
    ep->SetOnData([&, rport](std::span<const std::byte> d) {
      tcp_got[rport].insert(tcp_got[rport].end(), d.begin(), d.end());
    });
  });
  std::vector<std::shared_ptr<PlexusTcpEndpoint>> conns;
  for (int j = 0; j < 6; ++j) {
    a.Run([&, j] {
      auto c = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 8000,
                               static_cast<std::uint16_t>(33000 + j));
      std::vector<std::byte> data(3000, static_cast<std::byte>('A' + j));
      c->SetOnEstablished([c, data] { c->Write(data); });
      conns.push_back(c);
    });
  }

  sim.RunFor(sim::Duration::Seconds(60));

  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(got[i].size(), 3u) << "endpoint " << i;
    for (const auto& m : got[i]) EXPECT_EQ(m, "msg-" + std::to_string(i));
  }
  for (int j = 0; j < 6; ++j) {
    const auto port = static_cast<std::uint16_t>(33000 + j);
    ASSERT_EQ(tcp_got[port].size(), 3000u) << "conn " << j;
    for (auto byte : tcp_got[port]) EXPECT_EQ(byte, static_cast<std::byte>('A' + j));
  }
}

TEST(StressScale, GraphSurvivesRapidInstallUninstallChurn) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  auto tx = a.udp().CreateEndpoint(5000).value();
  int received = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;

  // Churn: every 5ms an endpoint appears, receives, disappears, while a
  // stable endpoint keeps counting.
  auto stable = b.udp().CreateEndpoint(7).value();
  stable->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++received; }, opts);

  std::shared_ptr<UdpEndpoint> churn;
  for (int i = 0; i < 100; ++i) {
    sim.Schedule(sim::Duration::Millis(5 * i), [&, i] {
      if (i % 2 == 0) {
        churn = b.udp().CreateEndpoint(9000).value();
        churn->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {}, opts);
      } else {
        churn.reset();
      }
      a.Run([&] {
        tx->Send(net::Mbuf::FromString("tick"), net::Ipv4Address(10, 0, 0, 2), 7);
      });
    });
  }
  sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(received, 100);
}

}  // namespace
}  // namespace core
