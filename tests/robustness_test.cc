// Robustness: corrupted and mangled frames across the full stack. No
// crashes, checksums catch single-byte flips, TCP still delivers the exact
// byte stream, and the stats account for what was rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "sim/simulator.h"

namespace core {
namespace {

using drivers::DeviceProfile;

TEST(Robustness, ChecksummedUdpRejectsCorruptedDatagrams) {
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/77);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();  // corrupted ARP replies would make set-up flaky
  net.medium().set_faults({.corrupt_probability = 1.0});  // every frame gets one byte flipped
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);
  for (int i = 0; i < 50; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("payload-payload-payload"),
               net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(5));
  // A flip may land in link padding (undetectable, harmless) but any flip
  // in the IP header, UDP header, or payload must be caught.
  const auto& ip_stats = b.ip_layer().stats();
  const auto& udp_stats = b.udp().layer().stats();
  EXPECT_EQ(net.medium().frames_corrupted(), 50u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + ip_stats.rx_bad_checksum +
                ip_stats.rx_bad_header + udp_stats.rx_bad_checksum + udp_stats.rx_bad_header +
                (50 - ip_stats.rx_packets),  // flips in the Ethernet header -> filtered
            50u);
  EXPECT_GT(udp_stats.rx_bad_checksum + ip_stats.rx_bad_checksum, 20u);
}

TEST(Robustness, TcpDeliversExactStreamDespiteCorruption) {
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/123);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  net.medium().set_faults({.corrupt_probability = 0.10});
  std::vector<std::byte> payload(60 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 13) & 0xff);
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
  net.sim.RunFor(sim::Duration::Seconds(300));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_GT(net.medium().frames_corrupted(), 0u);
}

TEST(Robustness, MangledFramesNeverCrashTheStack) {
  // Inject fully random garbage frames straight into the receive path.
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/77);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  sim::Random rng(4242);
  for (int i = 0; i < 300; ++i) {
    const std::size_t len = 1 + rng.UniformU64(120);
    auto frame = net::Mbuf::Allocate(len, 0);
    for (std::size_t j = 0; j < len; ++j) {
      const std::byte v{static_cast<unsigned char>(rng.UniformU64(256))};
      frame->CopyIn(j, {&v, 1});
    }
    // Make some of them look vaguely like IPv4/ARP to reach deeper code.
    if (i % 3 == 0 && len >= 14) {
      const std::byte t[2] = {std::byte{0x08}, std::byte{i % 6 == 0 ? (unsigned char)0x06
                                                                    : (unsigned char)0x00}};
      frame->CopyIn(12, {t, 2});
    }
    auto shared = std::shared_ptr<net::Mbuf>(frame.release());
    net.sim.Schedule(sim::Duration::Micros(100 * i), [&, shared] {
      b.nic().DeliverFromWire(net::MbufPtr(shared->ShareClone()),
                                  /*check_address=*/false);
    });
  }
  EXPECT_NO_THROW(net.sim.RunFor(sim::Duration::Seconds(5)));
  // And the host still works afterwards.
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  int ok = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler([&](const net::Mbuf&, const proto::UdpDatagram&) { ++ok; }, opts);
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("still alive"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(ok, 1);
}

TEST(Robustness, ReorderedFramesSwapDeliveryOrder) {
  // reorder_probability holds a frame on the medium and releases it just
  // after the next frame's arrival: with probability 1.0 the first datagram
  // is held, the second sails past it, and they arrive swapped.
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/77);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  drivers::Faults f;
  f.reorder_probability = 1.0;
  net.medium().set_faults(f);
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  std::vector<std::string> order;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram&) { order.push_back(p.ToString()); },
      opts);
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("first"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("second"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(net.medium().frames_reordered(), 1u);
  EXPECT_EQ(order, (std::vector<std::string>{"second", "first"}));
}

TEST(Robustness, TcpDeliversExactStreamDespiteReordering) {
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/321);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  drivers::Faults f;
  f.reorder_probability = 0.15;
  net.medium().set_faults(f);
  std::vector<std::byte> payload(60 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 31) & 0xff);
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
  net.sim.RunFor(sim::Duration::Seconds(300));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_GT(net.medium().frames_reordered(), 0u);
}

TEST(Robustness, ArpResolvesViaRetransmissionWhenMediumRecovers) {
  // The wire eats everything until t=250ms; the initial ARP request is
  // lost, the 500ms retransmission succeeds.
  // No static ARP entries: resolution must happen over the lossy wire.
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/11);
  auto& a = net.AddPlexus(1, "a", 1);
  net.AddPlexus(2, "b", 2);
  net.medium().set_faults({.drop_probability = 1.0});
  net.sim.Schedule(sim::Duration::Millis(250), [&] { net.medium().set_faults({}); });
  std::optional<net::MacAddress> resolved;
  a.Run([&] {
    a.arp().Resolve(net::Ipv4Address(10, 0, 0, 2),
                        [&](std::optional<net::MacAddress> mac) { resolved = mac; });
  });
  net.sim.RunFor(sim::Duration::Seconds(5));
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, net::MacAddress::FromId(2));
  const auto& st = a.arp().stats();
  EXPECT_GE(st.requests_sent, 2u);  // first lost, a retry got through
  EXPECT_EQ(st.replies_received, 1u);
  EXPECT_EQ(st.resolution_failures, 0u);
}

TEST(Robustness, ArpTimesOutNegativelyOnDeadMedium) {
  // No static ARP entries: resolution must happen over the lossy wire.
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/11);
  auto& a = net.AddPlexus(1, "a", 1);
  net.AddPlexus(2, "b", 2);
  net.medium().set_faults({.drop_probability = 1.0});  // nothing ever gets through
  bool called = false;
  std::optional<net::MacAddress> resolved;
  a.Run([&] {
    a.arp().Resolve(net::Ipv4Address(10, 0, 0, 2),
                        [&](std::optional<net::MacAddress> mac) {
                          called = true;
                          resolved = mac;
                        });
  });
  net.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_TRUE(called);
  EXPECT_FALSE(resolved.has_value());
  const auto& st = a.arp().stats();
  EXPECT_EQ(st.requests_sent, 4u);  // initial + max_retries(3)
  EXPECT_EQ(st.resolution_failures, 1u);
  EXPECT_EQ(st.replies_received, 0u);
}

TEST(Robustness, FaultInjectionIsDeterministicPerSeed) {
  // Identical seeds must reproduce the exact same fault pattern — drops,
  // corruptions, reorders, and application-visible deliveries — so a flaky
  // failure can always be replayed.
  struct Outcome {
    std::uint64_t dropped, carried, corrupted, reordered, delivered;
    bool operator==(const Outcome&) const = default;
  };
  auto run = [](std::uint64_t seed) {
    harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/seed);
    auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
    net.WarmArp();
    drivers::Faults f;
    f.drop_probability = 0.25;
    f.corrupt_probability = 0.20;
    f.duplicate_probability = 0.15;
    f.reorder_probability = 0.20;
    f.jitter_max = sim::Duration::Millis(2);
    net.medium().set_faults(f);
    auto tx = a.udp().CreateEndpoint(5000).value();
    auto rx = b.udp().CreateEndpoint(7).value();
    std::uint64_t delivered = 0;
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    rx->InstallReceiveHandler(
        [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);
    for (int i = 0; i < 40; ++i) {
      a.Run([&] {
        tx->Send(net::Mbuf::FromString("determinism-check"), net::Ipv4Address(10, 0, 0, 2), 7);
      });
    }
    net.sim.RunFor(sim::Duration::Seconds(5));
    return Outcome{net.medium().frames_dropped(), net.medium().frames_carried(),
                   net.medium().frames_corrupted(), net.medium().frames_reordered(), delivered};
  };
  const Outcome first = run(0xfeed);
  const Outcome again = run(0xfeed);
  EXPECT_TRUE(first == again);
  EXPECT_GT(first.dropped, 0u);
  EXPECT_GT(first.corrupted, 0u);
  EXPECT_GT(first.reordered, 0u);
  EXPECT_GT(first.delivered, 0u);
  // And a different seed actually exercises a different pattern.
  const Outcome other = run(0xbeef);
  EXPECT_FALSE(first == other);
}

TEST(Robustness, TruncatedFramesAreRejectedNotCrashedOn) {
  // Every frame loses its tail mid-flight. A 65-byte echo request can never
  // survive with its full IP-claimed length intact, so header/length
  // validation must reject all of them — without quarantines or crashes.
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/55);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  drivers::Faults f;
  f.truncate_probability = 1.0;
  net.medium().set_faults(f);
  auto tx = a.udp().CreateEndpoint(5000).value();
  auto rx = b.udp().CreateEndpoint(7).value();
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);
  for (int i = 0; i < 50; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("payload-payload-payload"),
               net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(net.medium().frames_truncated(), 50u);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b.dispatcher().stats().quarantines, 0u);
  // The host still works once the wire heals.
  net.medium().set_faults({});
  a.Run([&] {
    tx->Send(net::Mbuf::FromString("intact"), net::Ipv4Address(10, 0, 0, 2), 7);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(delivered, 1);
}

TEST(Robustness, TruncationAndCorruptionFuzzSweepStaysClean) {
  // Seeded sweep: random tail cuts and byte flips together, across several
  // seeds. Whatever the mangled frames parse as, nothing may crash and the
  // SPIN dispatchers must not quarantine a handler over garbage input.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/seed);
    auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
    net.WarmArp();
    drivers::Faults f;
    f.truncate_probability = 0.4;
    f.corrupt_probability = 0.3;
    net.medium().set_faults(f);
    auto tx = a.udp().CreateEndpoint(5000).value();
    auto rx = b.udp().CreateEndpoint(7).value();
    int delivered = 0;
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    rx->InstallReceiveHandler(
        [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);
    for (int i = 0; i < 40; ++i) {
      a.Run([&] {
        tx->Send(net::Mbuf::FromString("fuzz-sweep-datagram-000000000000"),
                 net::Ipv4Address(10, 0, 0, 2), 7);
      });
    }
    EXPECT_NO_THROW(net.sim.RunFor(sim::Duration::Seconds(5)));
    EXPECT_GT(net.medium().frames_truncated(), 0u) << "seed " << seed;
    EXPECT_EQ(a.dispatcher().stats().quarantines, 0u) << "seed " << seed;
    EXPECT_EQ(b.dispatcher().stats().quarantines, 0u) << "seed " << seed;
    // Intact frames (neither truncated nor corrupted) must still land.
    EXPECT_GT(delivered, 0) << "seed " << seed;
    EXPECT_LT(delivered, 40) << "seed " << seed;
  }
}

TEST(Robustness, TcpDeliversExactStreamDespiteTruncation) {
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/456);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  drivers::Faults f;
  f.truncate_probability = 0.08;
  net.medium().set_faults(f);
  std::vector<std::byte> payload(60 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 17) & 0xff);
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
  net.sim.RunFor(sim::Duration::Seconds(300));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  EXPECT_GT(net.medium().frames_truncated(), 0u);
}

TEST(Robustness, ChecksumOffLetsCorruptionThrough) {
  // The contrast case for the AV optimization: without the UDP checksum a
  // payload flip is delivered as-is (IP header flips are still caught).
  harness::Lan net(DeviceProfile::Ethernet10(), /*fault_seed=*/99);
  auto &a = net.AddPlexus(1, "a", 1), &b = net.AddPlexus(2, "b", 2);
  net.WarmArp();
  net.medium().set_faults({.corrupt_probability = 1.0});
  auto tx = a.udp().CreateEndpoint(5000).value();
  tx->set_checksum_enabled(false);
  auto rx = b.udp().CreateEndpoint(7).value();
  int delivered = 0, mismatched = 0;
  const std::string expect(40, 'Q');
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram&) {
        ++delivered;
        if (p.ToString() != expect) ++mismatched;
      },
      opts);
  for (int i = 0; i < 60; ++i) {
    a.Run([&] {
      tx->Send(net::Mbuf::FromString(expect), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_GT(delivered, 0);
  EXPECT_GT(mismatched, 0);  // corruption reached the application
}

}  // namespace
}  // namespace core
