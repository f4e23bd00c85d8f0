// Overload control: the bounded mbuf pool, the NIC's finite rx ring and
// interrupt->poll livelock switch, and the bounded deferred-delivery queue.
// Exhaustion is an explicit, counted drop everywhere — never a crash, never
// a leak: every suite here ends with the pool's books back at zero.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "batch_mode.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "drivers/nic.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/mbuf_pool.h"
#include "net_harness.h"
#include "sim/host.h"
#include "sim/simulator.h"
#include "spin/deferred.h"

namespace {

// --- MbufPool -------------------------------------------------------------------

TEST(MbufPool, AllocationFailsAtCapacityAndRecoversOnRelease) {
  net::MbufPool pool(4);
  std::vector<net::MbufPtr> held;
  for (int i = 0; i < 4; ++i) {
    auto m = pool.TryAllocate(100);  // one cluster segment each
    ASSERT_NE(m, nullptr);
    held.push_back(std::move(m));
  }
  EXPECT_EQ(pool.in_use(), 4u);
  EXPECT_EQ(pool.TryAllocate(100), nullptr);
  EXPECT_EQ(pool.exhaustions(), 1u);
  held.pop_back();  // credit one segment back
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_NE(pool.TryAllocate(100), nullptr);  // transient: freed immediately
  EXPECT_EQ(pool.in_use(), 3u);
  EXPECT_EQ(pool.peak_in_use(), 4u);
  EXPECT_EQ(pool.total_allocated(), 5u);
  held.clear();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, ShareCloneSharesTheCharge) {
  net::MbufPool pool(2);
  auto m = pool.TryAllocate(64);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(pool.in_use(), 1u);
  auto clone = m->ShareClone();  // same storage: no extra segment
  EXPECT_EQ(pool.in_use(), 1u);
  m.reset();
  EXPECT_EQ(pool.in_use(), 1u);  // the clone still pins the storage
  clone.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, TryCopyCopiesPacketHeaderAndChargesNewSegments) {
  net::MbufPool pool(4);
  auto src = net::Mbuf::FromString("copied through the pool");
  src->pkthdr().trace_id = 42;
  auto dup = pool.TryCopy(*src);
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(dup->ToString(), "copied through the pool");
  EXPECT_EQ(dup->pkthdr().trace_id, 42u);
  dup.reset();
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(MbufPool, HooksReportOccupancyAndExhaustion) {
  net::MbufPool pool(1);
  std::int64_t last_in_use = 99, last_peak = 99;
  int exhausted = 0;
  pool.SetOccupancyGauges(&last_in_use, &last_peak);
  pool.SetExhaustionHook([&] { ++exhausted; });
  auto m = pool.TryAllocate(16);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(last_in_use, 1);
  EXPECT_EQ(last_peak, 1);
  EXPECT_EQ(pool.TryAllocate(16), nullptr);
  EXPECT_EQ(exhausted, 1);
  m.reset();
  EXPECT_EQ(last_in_use, 0);
  EXPECT_EQ(last_peak, 1);
}

TEST(MbufPool, BuffersOutliveTheirPool) {
  auto pool = std::make_unique<net::MbufPool>(4);
  auto m = pool->TryFromBytes(net::Mbuf::FromString("escapee")->Linearize());
  ASSERT_NE(m, nullptr);
  pool.reset();  // pool dies first; the buffer must stay valid
  EXPECT_EQ(m->ToString(), "escapee");
  m.reset();  // and releasing it afterwards must not touch freed state
}

TEST(MbufPool, DefaultCapacityReadsEnvironment) {
  const char* saved = std::getenv("PLEXUS_MBUF_POOL");
  const std::string saved_copy = saved ? saved : "";
  ::unsetenv("PLEXUS_MBUF_POOL");
  EXPECT_EQ(net::MbufPool::DefaultCapacity(), 65536u);
  ::setenv("PLEXUS_MBUF_POOL", "small", 1);
  EXPECT_EQ(net::MbufPool::DefaultCapacity(), 256u);
  ::setenv("PLEXUS_MBUF_POOL", "1024", 1);
  EXPECT_EQ(net::MbufPool::DefaultCapacity(), 1024u);
  if (saved) {
    ::setenv("PLEXUS_MBUF_POOL", saved_copy.c_str(), 1);
  } else {
    ::unsetenv("PLEXUS_MBUF_POOL");
  }
}

// --- Nic: rx ring and pool drops ------------------------------------------------

struct RawNicFixture {
  explicit RawNicFixture(drivers::DeviceProfile profile)
      : host(sim, "rx", sim::CostModel::Default1996(), 1),
        nic(host, profile, net::MacAddress::FromId(2)) {}

  // An Ethernet-framed payload addressed to this NIC, sharable for repeat
  // injection.
  std::shared_ptr<net::Mbuf> Frame(std::size_t payload = 64) {
    auto m = net::Mbuf::Allocate(payload);
    net::EthernetHeader hdr;
    hdr.src = net::MacAddress::FromId(1);
    hdr.dst = nic.mac();
    hdr.type = 0x0800;
    auto room = m->Prepend(sizeof(hdr));
    net::Store(room, hdr);
    return std::shared_ptr<net::Mbuf>(m.release());
  }

  void Inject(const std::shared_ptr<net::Mbuf>& frame) {
    nic.DeliverFromWire(net::MbufPtr(frame->ShareClone()), /*check_address=*/true);
  }

  sim::Simulator sim;
  sim::Host host;
  drivers::Nic nic;
};

TEST(NicOverload, FullRingDropsAtTheWire) {
  auto profile = drivers::DeviceProfile::Ethernet10();
  profile.rx_ring_depth = 2;
  RawNicFixture f(profile);
  int delivered = 0;
  f.nic.SetReceiveCallback([&](net::MbufPtr) { ++delivered; });
  auto frame = f.Frame();
  // Back-to-back, no simulated time between arrivals. The first frame's
  // interrupt fires at its arrival instant (idle CPU), so it is consumed
  // before the burst lands: the ring then holds depth=2 and the rest drop.
  for (int i = 0; i < 5; ++i) f.Inject(frame);
  EXPECT_EQ(f.nic.rx_ring_size(), 2u);
  f.sim.RunFor(sim::Duration::Millis(10));
  EXPECT_EQ(delivered, 3);
  const auto st = f.nic.stats();
  EXPECT_EQ(st.rx_frames, 3u);
  EXPECT_EQ(st.rx_ring_drops, 2u);
  EXPECT_EQ(st.rx_pool_drops, 0u);
  EXPECT_EQ(st.rx_dropped, 2u);
  EXPECT_EQ(f.nic.rx_ring_size(), 0u);
}

TEST(NicOverload, ExhaustedPoolDropsAtTheWireAndRecovers) {
  RawNicFixture f(drivers::DeviceProfile::Ethernet10());
  net::MbufPool pool(1);
  f.host.set_mbuf_pool(&pool);
  net::MbufPtr parked = pool.TryAllocate(32);  // hold the only buffer
  ASSERT_NE(parked, nullptr);
  int delivered = 0;
  f.nic.SetReceiveCallback([&](net::MbufPtr) { ++delivered; });
  auto frame = f.Frame();
  f.Inject(frame);
  f.sim.RunFor(sim::Duration::Millis(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(f.nic.stats().rx_pool_drops, 1u);
  EXPECT_EQ(f.nic.stats().rx_dropped, 1u);
  parked.reset();  // pool refills; the next frame goes through
  f.Inject(frame);
  f.sim.RunFor(sim::Duration::Millis(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(pool.in_use(), 0u);
  f.host.set_mbuf_pool(nullptr);
}

TEST(NicOverload, SaturationTripsPollModeAndReturnsWhenDrained) {
  // 1000-byte PIO frames cost ~150us of rx CPU each; injected every 20us
  // they exceed a 25% duty threshold almost immediately.
  auto profile = drivers::DeviceProfile::Ethernet10();
  profile.rx_ring_depth = 64;
  profile.poll_threshold = 0.25;
  profile.poll_window = sim::Duration::Millis(1);
  profile.poll_quota = 4;
  RawNicFixture f(profile);
  int delivered = 0;
  f.nic.SetReceiveCallback([&](net::MbufPtr) { ++delivered; });
  auto frame = f.Frame(1000);
  for (int i = 0; i < 100; ++i) {
    f.sim.Schedule(sim::Duration::Micros(20) * i, [&, frame] { f.Inject(frame); });
  }
  f.sim.RunFor(sim::Duration::Seconds(2));
  const auto st = f.nic.stats();
  EXPECT_GE(st.poll_entries, 1u);
  EXPECT_EQ(st.poll_exits, st.poll_entries);  // drained: back in interrupt mode
  EXPECT_FALSE(f.nic.polling());
  EXPECT_EQ(f.nic.rx_ring_size(), 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(delivered), st.rx_frames);
  EXPECT_EQ(st.rx_frames + st.rx_ring_drops, 100u);
}

TEST(NicOverload, DefaultProfileNeverLeavesInterruptMode) {
  // poll_threshold = 1.0 (the default) disables the switch entirely: the
  // stock-driver behavior every paper-reproduction workload runs under.
  RawNicFixture f(drivers::DeviceProfile::Ethernet10());
  f.nic.SetReceiveCallback([](net::MbufPtr) {});
  auto frame = f.Frame(1000);
  for (int i = 0; i < 100; ++i) {
    f.sim.Schedule(sim::Duration::Micros(20) * i, [&, frame] { f.Inject(frame); });
  }
  f.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(f.nic.stats().poll_entries, 0u);
  EXPECT_EQ(f.nic.stats().poll_exits, 0u);
  EXPECT_FALSE(f.nic.polling());
}

// --- DeferredQueue --------------------------------------------------------------

TEST(DeferredQueue, ShedsSheddableWorkPastHighWatermarkWithHysteresis) {
  sim::Simulator sim;
  sim::Host host(sim, "h", sim::CostModel::Default1996(), 1);
  spin::DeferredQueue q(host, {/*high=*/4, /*low=*/2});
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Admit(1, /*sheddable=*/true));
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_FALSE(q.Admit(1, true));  // at the high watermark: shed
  EXPECT_TRUE(q.shedding());
  EXPECT_TRUE(q.Admit(1, /*sheddable=*/false));  // interior hops always admitted
  q.OnStart();
  q.OnStart();
  EXPECT_FALSE(q.Admit(1, true));  // depth 3 > low: hysteresis still shedding
  q.OnStart();
  EXPECT_TRUE(q.Admit(1, true));  // depth 2 <= low: shedding ends
  EXPECT_FALSE(q.shedding());
  EXPECT_EQ(q.peak_depth(), 5u);
  EXPECT_EQ(host.metrics().counter("spin.deferred_shed").value(), 2u);
  EXPECT_EQ(host.metrics().counter("spin.deferred_admitted").value(), 6u);
}

// --- Stack-level: thread-mode shedding and tiny-pool bursts ---------------------

// A fully framed Ethernet+IPv4+UDP packet addressed to `dst`/`dst_ip`, the
// way a load generator would put it on the wire (UDP checksum 0 = off, IP
// header checksum valid).
std::shared_ptr<net::Mbuf> CraftUdpFrame(net::MacAddress dst_mac, net::Ipv4Address dst_ip,
                                         std::uint16_t dst_port) {
  constexpr std::size_t kPayload = 32;
  std::vector<std::byte> bytes(sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header) +
                               sizeof(net::UdpHeader) + kPayload);
  net::EthernetHeader eth;
  eth.dst = dst_mac;
  eth.src = net::MacAddress::FromId(9);
  eth.type = net::ethertype::kIpv4;
  net::Ipv4Header ip;
  ip.total_length =
      static_cast<std::uint16_t>(sizeof(net::Ipv4Header) + sizeof(net::UdpHeader) + kPayload);
  ip.protocol = net::ipproto::kUdp;
  ip.src = net::Ipv4Address(10, 0, 0, 9);
  ip.dst = dst_ip;
  ip.checksum = 0;
  std::byte raw[sizeof(net::Ipv4Header)];
  std::memcpy(raw, &ip, sizeof(ip));
  ip.checksum = net::Checksum({raw, sizeof(raw)});
  net::UdpHeader udp;
  udp.src_port = 4000;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(sizeof(net::UdpHeader) + kPayload);
  udp.checksum = 0;
  std::memcpy(bytes.data(), &eth, sizeof(eth));
  std::memcpy(bytes.data() + sizeof(eth), &ip, sizeof(ip));
  std::memcpy(bytes.data() + sizeof(eth) + sizeof(ip), &udp, sizeof(udp));
  auto m = net::Mbuf::FromBytes(bytes);
  return std::shared_ptr<net::Mbuf>(m.release());
}

TEST(Overload, ThreadModeShedsBurstsAtTheDeferredQueue) {
  // This test pins down the *per-packet* shed ladder (one hop per frame
  // walking the hysteresis window); the batched path is covered below.
  ScopedBatchMode per_packet(false);
  harness::Lan f;
  auto& host = f.AddPlexus(2, "b", 1, core::HandlerMode::kThread);
  host.deferred_queue().set_config({/*high=*/8, /*low=*/4});
  auto rx = host.udp().CreateEndpoint(7).value();
  int delivered = 0;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, {});
  auto frame = CraftUdpFrame(net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 7);
  f.sim.Schedule(sim::Duration::Millis(1), [&] {
    // 50 frames land before the CPU runs a single task: all 50 interrupts
    // service the ring before any spawned handler thread gets the CPU, so
    // the deferred queue must absorb the burst — and cap it.
    for (int i = 0; i < 50; ++i) {
      host.nic().DeliverFromWire(net::MbufPtr(frame->ShareClone()),
                                   /*check_address=*/true);
    }
  });
  f.sim.RunFor(sim::Duration::Seconds(2));
  const auto shed = host.host().metrics().counter("spin.deferred_shed").value();
  EXPECT_EQ(shed, 42u);  // first 8 admitted, the rest refused newest-first
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(host.deferred_queue().depth(), 0u);
  EXPECT_EQ(host.dispatcher().stats().quarantines, 0u);
  EXPECT_EQ(host.mbuf_pool().in_use(), 0u);  // shed frames were released
}

TEST(Overload, BatchedBurstIsShedAsOneUnitAndLeaksNothing) {
  // Under the batched path a whole rx burst is one deferred-queue unit:
  // when the queue refuses it, every parked frame is released (the managers'
  // pending bursts, not just in-flight mbufs) and the shed counter still
  // advances per frame.
  ScopedBatchMode batched(true);
  harness::Lan f;
  auto& host = f.AddPlexus(2, "b", 1, core::HandlerMode::kThread);
  // high = 0: the queue sheds from the first admission attempt on.
  host.deferred_queue().set_config({/*high=*/0, /*low=*/0});
  auto rx = host.udp().CreateEndpoint(7).value();
  int delivered = 0;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, {});
  auto frame = CraftUdpFrame(net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 7);
  f.sim.Schedule(sim::Duration::Millis(1), [&] {
    for (int i = 0; i < 50; ++i) {
      host.nic().DeliverFromWire(net::MbufPtr(frame->ShareClone()),
                                   /*check_address=*/true);
    }
  });
  f.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(host.host().metrics().counter("spin.deferred_shed").value(), 50u);
  EXPECT_EQ(host.deferred_queue().depth(), 0u);
  EXPECT_EQ(host.mbuf_pool().in_use(), 0u);  // parked burst was released
}

TEST(Overload, TinyPoolBurstDropsCleanlyAndLeaksNothing) {
  harness::Lan f;
  auto& host = f.AddPlexus(2, "b", 1, core::HandlerMode::kInterrupt);
  host.SetMbufPoolCapacity(8);
  auto rx = host.udp().CreateEndpoint(7).value();
  int delivered = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++delivered; }, opts);
  auto frame = CraftUdpFrame(net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 7);
  f.sim.Schedule(sim::Duration::Millis(1), [&] {
    for (int i = 0; i < 100; ++i) {
      host.nic().DeliverFromWire(net::MbufPtr(frame->ShareClone()),
                                   /*check_address=*/true);
    }
  });
  f.sim.RunFor(sim::Duration::Seconds(2));
  // The first frame is serviced (and its buffer freed) at its arrival
  // instant; then 8 pooled rx buffers absorb the burst and the remaining 91
  // frames are refused at the wire — not crashed on and not leaked.
  EXPECT_EQ(delivered, 9);
  const auto st = host.nic().stats();
  EXPECT_EQ(st.rx_pool_drops, 91u);
  EXPECT_EQ(host.mbuf_pool().exhaustions(), 91u);
  EXPECT_EQ(host.mbuf_pool().in_use(), 0u);
  EXPECT_EQ(host.mbuf_pool().peak_in_use(), 8u);
  EXPECT_EQ(host.host().metrics().counter("mbuf.pool_exhausted").value(), 91u);
  EXPECT_EQ(host.host().metrics().gauge("mbuf.pool_in_use").value(), 0);
  EXPECT_EQ(host.dispatcher().stats().quarantines, 0u);
}

}  // namespace
