// Unit tests for the device layer: profiles, media, NIC behavior, fault
// injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "batch_mode.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "drivers/nic.h"
#include "net/headers.h"
#include "net/view.h"
#include "sim/cost_model.h"
#include "sim/host.h"

namespace drivers {
namespace {

TEST(DeviceProfile, EthernetSerializationIncludesPaddingAndOverhead) {
  auto p = DeviceProfile::Ethernet10();
  // A 10-byte runt is padded to 60 + 12 overhead = 72 bytes on the wire.
  const auto d = p.SerializationDelay(10);
  const double expected_us = 72 * 8 / 10.0 + 9.6;  // + inter-frame gap
  EXPECT_NEAR(d.us(), expected_us, 0.1);
  // A full frame: 1500 + 12 bytes.
  EXPECT_NEAR(p.SerializationDelay(1500).us(), 1512 * 8 / 10.0 + 9.6, 0.1);
}

TEST(DeviceProfile, AtmCellFraming) {
  auto p = DeviceProfile::ForeAtm155();
  // 100 bytes -> ceil(100/48) = 3 cells = 159 bytes at 155 Mb/s.
  const double expected_us = 159 * 8 / 155.0;
  EXPECT_NEAR(p.SerializationDelay(100).us(), expected_us, 0.05);
  // Exactly one cell payload.
  EXPECT_NEAR(p.SerializationDelay(48).us(), 53 * 8 / 155.0, 0.05);
}

TEST(DeviceProfile, PioChargesCpuPerByte) {
  auto p = DeviceProfile::ForeAtm155();
  const auto tx1k = p.TxCpuCost(1000);
  const auto tx2k = p.TxCpuCost(2000);
  // Per-byte cost: 100ns/B on tx.
  EXPECT_NEAR((tx2k - tx1k).us(), 100.0, 0.01);
  const auto rx1k = p.RxCpuCost(1000);
  const auto rx2k = p.RxCpuCost(2000);
  EXPECT_NEAR((rx2k - rx1k).us(), 150.0, 0.01);
}

TEST(DeviceProfile, DmaCostIndependentOfLength) {
  auto p = DeviceProfile::DecT3();
  EXPECT_EQ(p.TxCpuCost(100).ns(), p.TxCpuCost(4000).ns());
  EXPECT_EQ(p.RxCpuCost(100).ns(), p.RxCpuCost(4000).ns());
}

struct NicFixture {
  explicit NicFixture(DeviceProfile profile = DeviceProfile::Ethernet10())
      : ha(sim, "a", sim::CostModel::Default1996(), 1),
        hb(sim, "b", sim::CostModel::Default1996(), 2),
        na(ha, profile, net::MacAddress::FromId(1)),
        nb(hb, profile, net::MacAddress::FromId(2)) {}

  void Attach(Medium& m) {
    na.AttachMedium(&m);
    nb.AttachMedium(&m);
  }

  // Builds an Ethernet-framed payload addressed to dst.
  static net::MbufPtr Frame(net::MacAddress src, net::MacAddress dst, std::size_t payload) {
    auto m = net::Mbuf::Allocate(payload);
    net::EthernetHeader hdr;
    hdr.src = src;
    hdr.dst = dst;
    hdr.type = 0x0800;
    auto room = m->Prepend(sizeof(hdr));
    net::Store(room, hdr);
    return m;
  }

  sim::Simulator sim;
  sim::Host ha, hb;
  Nic na, nb;
};

TEST(Nic, DeliversFrameAcrossPointToPointLink) {
  NicFixture f(DeviceProfile::DecT3());
  PointToPointLink link(f.sim);
  f.Attach(link);
  std::size_t got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr m) { got = m->PacketLength(); });
  f.ha.Submit(sim::Priority::kKernel,
              [&] { f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 100)); });
  f.sim.RunFor(sim::Duration::Millis(10));
  EXPECT_EQ(got, 114u);
  EXPECT_EQ(f.na.stats().tx_frames, 1u);
  EXPECT_EQ(f.nb.stats().rx_frames, 1u);
}

TEST(Nic, EthernetFiltersByDestinationMac) {
  NicFixture f;
  EthernetSegment seg(f.sim);
  f.Attach(seg);
  int got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { ++got; });
  // Addressed elsewhere: filtered. Broadcast and own MAC: delivered.
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.na.Transmit(NicFixture::Frame(f.na.mac(), net::MacAddress::FromId(77), 64));
    f.na.Transmit(NicFixture::Frame(f.na.mac(), net::MacAddress::Broadcast(), 64));
    f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 64));
  });
  f.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(got, 2);
  EXPECT_EQ(f.nb.stats().rx_filtered, 1u);
}

TEST(Nic, PromiscuousModeSeesEverything) {
  NicFixture f;
  EthernetSegment seg(f.sim);
  f.Attach(seg);
  f.nb.set_promiscuous(true);
  int got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { ++got; });
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.na.Transmit(NicFixture::Frame(f.na.mac(), net::MacAddress::FromId(77), 64));
  });
  f.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(got, 1);
}

TEST(Nic, ReceiveInterruptChargesCpu) {
  NicFixture f(DeviceProfile::DecT3());
  PointToPointLink link(f.sim);
  f.Attach(link);
  f.nb.SetReceiveCallback([](net::MbufPtr) {});
  f.ha.Submit(sim::Priority::kKernel,
              [&] { f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 1000)); });
  f.sim.RunFor(sim::Duration::Millis(10));
  const auto& cm = f.hb.costs();
  const auto profile = DeviceProfile::DecT3();
  const auto expected =
      cm.interrupt_entry + cm.interrupt_exit + profile.RxCpuCost(1014);
  EXPECT_EQ(f.hb.cpu().busy_total().ns(), expected.ns());
}

// The rx burst contract, on frames queued behind a stalled NIC and drained
// on resume (their lengths, 114..118, tag arrival order). DMA rx costs the
// same per frame.
struct StalledRing : NicFixture {
  explicit StalledRing(bool hooks) : NicFixture(DeviceProfile::DecT3()) {
    nb.SetReceiveCallback([this](net::MbufPtr m) {
      if (log.empty() || log.back() == "begin") first_upcall_charge = hb.charged_so_far();
      log.push_back(std::to_string(m->PacketLength()));
    });
    if (hooks) {
      nb.SetBurstHooks([this] { log.push_back("begin"); }, [this] { log.push_back("end"); });
    }
    nb.SetStalled(true);
    for (std::size_t len = 100; len < 105; ++len) {
      nb.DeliverFromWire(Frame(na.mac(), nb.mac(), len), /*check_address=*/true);
    }
    nb.SetStalled(false);
    sim.RunFor(sim::Duration::Millis(10));
  }
  std::uint64_t Counter(const std::string& name) {
    return hb.metrics().counter(nb.metrics_prefix() + name).value();
  }

  ScopedBatchMode batched{true};
  std::vector<std::string> log;
  sim::Duration first_upcall_charge;
  const sim::Duration rx_cost = DeviceProfile::DecT3().RxCpuCost(114);
};

TEST(Nic, BurstIsABracketAroundPerFrameCallbacks) {
  StalledRing r(/*hooks=*/true);
  EXPECT_EQ(r.log, (std::vector<std::string>{"begin", "114", "115", "116", "117", "118", "end"}));
  EXPECT_EQ(r.Counter("rx_bursts"), 1u);
  EXPECT_EQ(r.Counter("rx_burst_frames"), 5u);
  // One interrupt; every frame's driver cost is charged before the first upcall.
  const auto& cm = r.hb.costs();
  EXPECT_EQ(r.first_upcall_charge.ns(), (cm.interrupt_entry + r.rx_cost * 5).ns());
  EXPECT_EQ(r.hb.cpu().busy_total().ns(),
            (cm.interrupt_entry + r.rx_cost * 5 + cm.interrupt_exit).ns());
}

TEST(Nic, WithoutBurstHooksEveryFrameTakesItsOwnInterrupt) {
  StalledRing r(/*hooks=*/false);
  EXPECT_EQ(r.log, (std::vector<std::string>{"114", "115", "116", "117", "118"}));
  EXPECT_EQ(r.Counter("rx_bursts"), 0u);
  const auto& cm = r.hb.costs();
  EXPECT_EQ(r.first_upcall_charge.ns(), (cm.interrupt_entry + r.rx_cost).ns());
  EXPECT_EQ(r.hb.cpu().busy_total().ns(),
            ((cm.interrupt_entry + r.rx_cost + cm.interrupt_exit) * 5).ns());
}

TEST(Medium, DropFaultsLoseFrames) {
  NicFixture f;
  EthernetSegment seg(f.sim, /*fault_seed=*/42);
  f.Attach(seg);
  Faults faults;
  faults.drop_probability = 0.5;
  seg.set_faults(faults);
  int got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { ++got; });
  for (int i = 0; i < 200; ++i) {
    f.ha.Submit(sim::Priority::kKernel,
                [&] { f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 64)); });
  }
  f.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_GT(got, 50);
  EXPECT_LT(got, 150);
  EXPECT_EQ(seg.frames_dropped() + seg.frames_carried(), 200u);
}

TEST(Medium, DuplicateFaultsDeliverTwice) {
  NicFixture f(DeviceProfile::DecT3());
  PointToPointLink link(f.sim, /*fault_seed=*/7);
  f.Attach(link);
  Faults faults;
  faults.duplicate_probability = 1.0;
  link.set_faults(faults);
  int got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { ++got; });
  f.ha.Submit(sim::Priority::kKernel,
              [&] { f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 64)); });
  f.sim.RunFor(sim::Duration::Millis(100));
  EXPECT_EQ(got, 2);
}

TEST(Medium, HalfDuplexSegmentSerializesFrames) {
  // Two back-to-back transmissions must not overlap on the shared wire:
  // the second arrives at least one serialization time after the first.
  NicFixture f;
  EthernetSegment seg(f.sim);
  f.Attach(seg);
  std::vector<double> arrivals;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { arrivals.push_back(f.sim.Now().us()); });
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 1000));
    f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 1000));
  });
  f.sim.RunFor(sim::Duration::Millis(100));
  ASSERT_EQ(arrivals.size(), 2u);
  const double ser_us = DeviceProfile::Ethernet10().SerializationDelay(1014).us();
  EXPECT_GE(arrivals[1] - arrivals[0], ser_us - 1.0);
}

TEST(Medium, FullDuplexLinkDirectionsIndependent) {
  // Opposite-direction frames do not serialize against each other.
  NicFixture f(DeviceProfile::DecT3());
  PointToPointLink link(f.sim);
  f.Attach(link);
  double a_got = -1, b_got = -1;
  f.na.SetReceiveCallback([&](net::MbufPtr) { a_got = f.sim.Now().us(); });
  f.nb.SetReceiveCallback([&](net::MbufPtr) { b_got = f.sim.Now().us(); });
  f.ha.Submit(sim::Priority::kKernel,
              [&] { f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 4000)); });
  f.hb.Submit(sim::Priority::kKernel,
              [&] { f.nb.Transmit(NicFixture::Frame(f.nb.mac(), f.na.mac(), 4000)); });
  f.sim.RunFor(sim::Duration::Millis(100));
  ASSERT_GT(a_got, 0);
  ASSERT_GT(b_got, 0);
  // Same size, same costs: both arrive at (almost) the same instant.
  EXPECT_NEAR(a_got, b_got, 50.0);
}

TEST(Nic, RuntFrameWithoutEthernetHeaderFiltered) {
  NicFixture f;
  EthernetSegment seg(f.sim);
  f.Attach(seg);
  int got = 0;
  f.nb.SetReceiveCallback([&](net::MbufPtr) { ++got; });
  f.ha.Submit(sim::Priority::kKernel, [&] { f.na.Transmit(net::Mbuf::Allocate(4, 0)); });
  f.sim.RunFor(sim::Duration::Millis(100));
  // The 4-byte frame is padded to min size by the wire model, but carries
  // a valid-looking (zeroed) header after padding... the padding happens at
  // the eth layer normally; raw NIC transmit of 4 bytes stays 4 bytes, so
  // the receiver can't parse a header and filters it.
  EXPECT_EQ(got, 0);
  EXPECT_EQ(f.nb.stats().rx_filtered, 1u);
}

TEST(Nic, ResetStatsZeroesEverythingAndTheRegistryAgrees) {
  // stats() is a snapshot of the registry-backed counters; after ResetStats
  // the two views must agree at zero — the old drift bug kept a shadow
  // struct that survived the reset while the registry did not.
  auto profile = DeviceProfile::DecT3();
  profile.rx_ring_depth = 1;
  NicFixture f(profile);
  PointToPointLink link(f.sim);
  f.Attach(link);
  f.nb.SetReceiveCallback([](net::MbufPtr) {});
  f.ha.Submit(sim::Priority::kKernel, [&] {
    f.na.Transmit(NicFixture::Frame(f.na.mac(), f.nb.mac(), 100));
  });
  f.sim.RunFor(sim::Duration::Millis(10));
  // A misaddressed frame is filtered; a depth-1 ring with simultaneous
  // arrivals forces a counted drop.
  f.nb.DeliverFromWire(NicFixture::Frame(f.na.mac(), net::MacAddress::FromId(77), 100),
                       true);
  auto burst = std::shared_ptr<net::Mbuf>(
      NicFixture::Frame(f.na.mac(), f.nb.mac(), 100).release());
  f.nb.DeliverFromWire(net::MbufPtr(burst->ShareClone()), true);
  f.nb.DeliverFromWire(net::MbufPtr(burst->ShareClone()), true);
  f.nb.DeliverFromWire(net::MbufPtr(burst->ShareClone()), true);
  f.sim.RunFor(sim::Duration::Millis(10));

  const auto reg = [&](Nic& nic, const char* name) {
    return nic.host().metrics().counter(nic.metrics_prefix() + name).value();
  };
  auto before = f.nb.stats();
  EXPECT_GT(before.rx_frames, 0u);
  EXPECT_GT(before.rx_filtered, 0u);
  EXPECT_GT(before.rx_dropped, 0u);
  EXPECT_EQ(before.rx_dropped, before.rx_ring_drops + before.rx_pool_drops);
  EXPECT_EQ(before.rx_frames, reg(f.nb, "rx_frames"));
  EXPECT_EQ(before.rx_dropped, reg(f.nb, "rx_dropped"));
  EXPECT_EQ(f.na.stats().tx_frames, reg(f.na, "tx_frames"));

  f.na.ResetStats();
  f.nb.ResetStats();
  const auto a = f.na.stats();
  const auto b = f.nb.stats();
  EXPECT_EQ(a.tx_frames, 0u);
  EXPECT_EQ(a.tx_bytes, 0u);
  EXPECT_EQ(b.rx_frames, 0u);
  EXPECT_EQ(b.rx_bytes, 0u);
  EXPECT_EQ(b.rx_filtered, 0u);
  EXPECT_EQ(b.rx_dropped, 0u);
  EXPECT_EQ(b.rx_ring_drops, 0u);
  EXPECT_EQ(b.rx_pool_drops, 0u);
  EXPECT_EQ(b.poll_entries, 0u);
  EXPECT_EQ(b.poll_exits, 0u);
  EXPECT_EQ(reg(f.na, "tx_frames"), 0u);
  EXPECT_EQ(reg(f.nb, "rx_frames"), 0u);
  EXPECT_EQ(reg(f.nb, "rx_dropped"), 0u);
  EXPECT_EQ(reg(f.nb, "rx_filtered"), 0u);
}

}  // namespace
}  // namespace drivers
