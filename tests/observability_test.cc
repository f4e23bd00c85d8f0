// Observability: the tracer (spans, charge attribution, Chrome export),
// the metrics registry (histogram bucketing, JSON snapshots), per-packet
// trace-id propagation across mbuf surgery and IP fragmentation, and the
// determinism of every exported artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/medium.h"
#include "net/mbuf.h"
#include "net_harness.h"
#include "proto/ip.h"
#include "sim/host.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/tracer.h"

namespace {

// --- histogram bucket boundaries -------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  using sim::Histogram;
  // Bucket 0 is the non-positive bucket.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MIN), 0);
  // Bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex((std::int64_t{1} << 40) - 1), 40);
  EXPECT_EQ(Histogram::BucketIndex(std::int64_t{1} << 40), 41);
  // The top bucket saturates.
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(std::int64_t{1} << 62), Histogram::kBuckets - 1);

  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1), INT64_MAX);

  // Every representable value lands in a bucket whose bound admits it.
  for (std::int64_t v : {std::int64_t{1}, std::int64_t{5}, std::int64_t{1023},
                         std::int64_t{1024}, std::int64_t{1} << 35}) {
    EXPECT_LE(v, Histogram::BucketUpperBound(Histogram::BucketIndex(v))) << v;
  }

  sim::Histogram h;
  h.Observe(std::int64_t{0});
  h.Observe(std::int64_t{1});
  h.Observe(std::int64_t{3});
  h.Observe(INT64_MAX);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(2), 0u);
}

TEST(Histogram, QuantilesComeFromBucketUpperBounds) {
  sim::Histogram h;
  EXPECT_EQ(h.Quantile(0.50), 0);  // empty histogram
  // 90 observations of ~100ns (bucket [64,127]) and 10 of ~1000ns
  // (bucket [512,1023]): p50/p90 land in the fast bucket, p99 in the slow.
  for (int i = 0; i < 90; ++i) h.Observe(std::int64_t{100});
  for (int i = 0; i < 10; ++i) h.Observe(std::int64_t{1000});
  EXPECT_EQ(h.Quantile(0.50), 127);
  EXPECT_EQ(h.Quantile(0.90), 127);
  EXPECT_EQ(h.Quantile(0.99), 1023);
  EXPECT_EQ(h.Quantile(1.0), 1023);
}

TEST(MetricsRegistry, JsonSnapshotAndUniqueNames) {
  sim::MetricsRegistry reg;
  reg.counter("b.count").Inc(3);
  reg.counter("a.count").Inc();
  reg.gauge("depth").Set(-2);
  reg.histogram("lat").Observe(std::int64_t{3});
  const std::string json = reg.ToJson();
  // std::map ordering: "a.count" before "b.count" regardless of
  // registration order.
  EXPECT_NE(json.find("\"a.count\":1,\"b.count\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":-2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lat\":{\"count\":1,\"sum\":3,\"p50\":3,\"p90\":3,"
                      "\"p99\":3,\"buckets\":[[3,1]]}"),
            std::string::npos)
      << json;

  EXPECT_EQ(reg.UniqueName("nic"), "nic0");
  EXPECT_EQ(reg.UniqueName("nic"), "nic1");
  EXPECT_EQ(reg.UniqueName("disk"), "disk0");
}

// --- trace-id propagation --------------------------------------------------------

TEST(TraceId, SurvivesMbufSurgery) {
  auto m = net::Mbuf::Allocate(256);
  EXPECT_EQ(m->pkthdr().trace_id, 0u);  // fresh allocations are untraced
  m->pkthdr().trace_id = 42;

  EXPECT_EQ(m->DeepCopy()->pkthdr().trace_id, 42u);
  EXPECT_EQ(m->ShareClone()->pkthdr().trace_id, 42u);
  auto tail = m->Split(100);
  ASSERT_NE(tail, nullptr);
  EXPECT_EQ(tail->pkthdr().trace_id, 42u);
  EXPECT_EQ(m->pkthdr().trace_id, 42u);

  // Byte-level reconstruction starts a fresh header (the reassembly path
  // restores the id explicitly).
  auto rebuilt = net::Mbuf::FromBytes(m->Linearize());
  EXPECT_EQ(rebuilt->pkthdr().trace_id, 0u);
}

TEST(TraceId, SurvivesIpFragmentationAndReassembly) {
  sim::Simulator sim;
  sim.tracer().SetEnabled(true);
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  // Sender fragments at a 600-byte MTU; receiver reassembles.
  proto::Ipv4Layer tx(host, {net::Ipv4Address(10, 0, 0, 1), 24, 600});
  proto::Ipv4Layer rx(host, {net::Ipv4Address(10, 0, 0, 2), 24, 1500});

  std::vector<net::MbufPtr> fragments;
  tx.SetTransmit([&](net::MbufPtr p, net::Ipv4Address, int) {
    fragments.push_back(std::move(p));
  });
  std::uint64_t delivered_id = 0;
  std::size_t delivered_len = 0;
  rx.SetDeliver([&](net::MbufPtr p, const net::Ipv4Header&) {
    delivered_id = p->pkthdr().trace_id;
    delivered_len = p->PacketLength();
  });

  host.Submit(sim::Priority::kKernel, [&] {
    tx.Output(net::Mbuf::Allocate(1400), net::Ipv4Address(10, 0, 0, 1),
              net::Ipv4Address(10, 0, 0, 2), net::ipproto::kUdp);
  });
  sim.RunFor(sim::Duration::Seconds(1));

  ASSERT_GE(fragments.size(), 3u);  // 1400 bytes over a 600-byte MTU
  const std::uint64_t id = fragments[0]->pkthdr().trace_id;
  EXPECT_NE(id, 0u);
  for (const auto& f : fragments) {
    EXPECT_EQ(f->pkthdr().trace_id, id);  // Split copies the pkthdr
  }

  // Deliver the fragments out of order; the reassembled datagram must carry
  // the first-arriving fragment's id even though FromBytes resets pkthdr.
  std::swap(fragments.front(), fragments.back());
  for (auto& f : fragments) {
    // Submit takes std::function (copyable): hand the task a raw pointer and
    // rewrap inside; every submitted task runs within the horizon below.
    host.Submit(sim::Priority::kKernel,
                [&rx, raw = f.release()] { rx.Input(net::MbufPtr(raw)); });
  }
  sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(delivered_len, 1400u);
  EXPECT_EQ(delivered_id, id);
}

// --- tracer core -----------------------------------------------------------------

TEST(Tracer, RingEvictsOldestAndNeverDanglesOpenSpans) {
  sim::Tracer tracer(/*capacity=*/4);
  tracer.SetEnabled(true);
  const int t = tracer.RegisterTrack("h");
  for (int i = 0; i < 10; ++i) {
    tracer.BeginSpan(t, sim::TimePoint(), sim::Duration::Zero(),
                     "span" + std::to_string(i), "test", 0);
    tracer.EndSpan(t);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto recs = tracer.Records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().name, "span6");  // oldest surviving
  EXPECT_EQ(recs.back().name, "span9");
}

TEST(Tracer, RingWrapIsCountedInSimMetrics) {
  // Evictions are accounted, not silent: the simulator wires its registry
  // into the tracer, and the lazily-resolved sim.tracer_dropped counter
  // tracks Tracer::dropped() exactly once the ring wraps.
  sim::Simulator sim;
  sim.tracer().SetEnabled(true);
  sim.tracer().SetCapacity(4);
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  host.Submit(sim::Priority::kKernel, [&] {
    for (int i = 0; i < 10; ++i) {
      sim::TraceSpan span(host, "work" + std::to_string(i), "test");
      host.Charge(sim::Duration::Micros(1));
    }
  });
  sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(sim.tracer().size(), 4u);
  EXPECT_EQ(sim.tracer().dropped(), 6u);
  EXPECT_EQ(sim.metrics().counters().at("sim.tracer_dropped").value(), 6u);
}

TEST(Tracer, NoWrapMeansNoDroppedCounterInExports) {
  // A simulation whose ring never wraps must export byte-identical metrics
  // with or without the drop accounting: the counter does not exist until
  // the first eviction.
  sim::Simulator sim;
  sim.tracer().SetEnabled(true);
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  host.Submit(sim::Priority::kKernel, [&] {
    sim::TraceSpan span(host, "work", "test");
    host.Charge(sim::Duration::Micros(1));
  });
  sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(sim.tracer().dropped(), 0u);
  EXPECT_EQ(sim.metrics().counters().count("sim.tracer_dropped"), 0u);
}

TEST(Tracer, ChargeLedgerSurvivesRingWrap) {
  // Evicting span records must never lose charge attribution: the ledger
  // and total still sum to exactly the CPU's busy time after the wrap.
  sim::Simulator sim;
  sim.tracer().SetEnabled(true);
  sim.tracer().SetCapacity(2);
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  host.Submit(sim::Priority::kKernel, [&] {
    for (int i = 0; i < 8; ++i) {
      sim::TraceSpan span(host, "work", i % 2 == 0 ? "alpha" : "beta");
      host.Charge(sim::Duration::Micros(3));
    }
  });
  sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_GT(sim.tracer().dropped(), 0u);
  const auto& ledger = sim.tracer().charge_by_category();
  sim::Duration sum = sim::Duration::Zero();
  for (const auto& [cat, d] : ledger) sum += d;
  EXPECT_EQ(sum, sim.tracer().total_charged());
  EXPECT_EQ(sim.tracer().total_charged(), host.cpu().busy_total());
  EXPECT_EQ(host.cpu().busy_total(), sim::Duration::Micros(24));
}

TEST(Tracer, DisabledTracingRecordsNothingAndChargesNothing) {
  sim::Simulator sim;
  sim.tracer().SetEnabled(false);  // explicit: PLEXUS_TRACE may be set
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  host.Submit(sim::Priority::kKernel, [&] {
    sim::TraceSpan span(host, "work", "test");
    host.Charge(sim::Duration::Micros(5));
    host.TraceInstant("note", "test");
  });
  sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(sim.tracer().size(), 0u);
  EXPECT_EQ(sim.tracer().total_charged(), sim::Duration::Zero());
  EXPECT_TRUE(sim.tracer().charge_by_category().empty());
  // The CPU was still billed: tracing is observation, not accounting.
  EXPECT_EQ(host.cpu().busy_total(), sim::Duration::Micros(5));
}

// --- end-to-end: traced Plexus ping-pong -----------------------------------------

struct PingArtifacts {
  std::string chrome_json;
  std::string metrics_a;
  std::string metrics_b;
  std::string breakdown_json;
  sim::Duration total_charged;
  sim::Duration cpu_busy;  // both hosts
  std::vector<sim::Tracer::Record> records;
};

// A small Fig. 5-style UDP ping-pong with tracing on, returning every
// exported artifact. Fresh simulator per call; same seeds every call.
PingArtifacts RunTracedPing() {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  sim.tracer().SetEnabled(true);
  auto &a = lan.AddPlexus(1, "a", 11), &b = lan.AddPlexus(2, "b", 22);

  auto client = a.udp().CreateEndpoint(5000).value();
  auto server = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  server->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        server->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);
  int completed = 0;
  std::vector<std::byte> msg(8);
  std::function<void()> send_ping = [&] {
    a.Run([&] { client->Send(net::Mbuf::FromBytes(msg), net::Ipv4Address(10, 0, 0, 2), 7); });
  };
  client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        if (++completed < 4) send_ping();
      },
      opts);
  send_ping();
  sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(completed, 4);

  PingArtifacts out;
  out.chrome_json = sim.tracer().ExportChromeJson();
  out.metrics_a = a.host().metrics().ToJson();
  out.metrics_b = b.host().metrics().ToJson();
  out.breakdown_json = sim.tracer().ExportChargeBreakdownJson();
  out.total_charged = sim.tracer().total_charged();
  out.cpu_busy = a.host().cpu().busy_total() + b.host().cpu().busy_total();
  out.records = sim.tracer().Records();
  return out;
}

TEST(Observability, ChromeTraceNestsDriverDispatchDemuxHandler) {
  const PingArtifacts art = RunTracedPing();

  // Find the receive-side structure: nic.rx at task root, the event raise
  // below it, the demux probe and handlers below the raise. (The ping path
  // is fully indexed, so the per-guard spans of the linear scan are
  // replaced by one demux span per raise.)
  int rx_depth = -1, raise_depth = -1, demux_depth = -1, handler_depth = -1;
  std::uint64_t rx_id = 0;
  for (const auto& r : art.records) {
    if (r.kind != sim::Tracer::Record::Kind::kSpan) continue;
    if (r.name == "nic.rx" && rx_depth < 0) {
      rx_depth = r.depth;
      rx_id = r.trace_id;
    }
    if (r.name == "Ethernet.PacketRecv" && raise_depth < 0) raise_depth = r.depth;
    if (r.category == "demux" && demux_depth < 0) demux_depth = r.depth;
    if (r.category == "handler" && handler_depth < 0) handler_depth = r.depth;
  }
  EXPECT_EQ(rx_depth, 0);         // interrupt task root
  EXPECT_GT(raise_depth, rx_depth);
  EXPECT_GT(demux_depth, raise_depth);
  EXPECT_GT(handler_depth, raise_depth);
  EXPECT_NE(rx_id, 0u);  // the delivered frame carried a packet id

  // The export is loadable Chrome JSON in shape: one object, the right
  // envelope, and thread-name metadata for both hosts.
  EXPECT_EQ(art.chrome_json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(art.chrome_json.back(), '}');
  EXPECT_NE(art.chrome_json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(art.chrome_json.find("\"ph\":\"X\""), std::string::npos);

  // Charge attribution is complete: everything charged while tracing is
  // exactly the two CPUs' busy time.
  EXPECT_EQ(art.total_charged, art.cpu_busy);
}

TEST(Observability, ChargeLedgerSumsToTotal) {
  sim::Simulator sim;
  sim.tracer().SetEnabled(true);
  sim::Host host(sim, "h", sim::CostModel::Default1996());
  host.Submit(sim::Priority::kKernel, [&] {
    host.Charge(sim::Duration::Micros(1));  // unattributed
    sim::TraceSpan outer(host, "outer", "alpha");
    host.Charge(sim::Duration::Micros(2));
    {
      sim::TraceSpan inner(host, "inner", "beta");
      host.Charge(sim::Duration::Micros(4));
    }
    host.Charge(sim::Duration::Micros(8));
  });
  sim.RunFor(sim::Duration::Seconds(1));

  const auto& ledger = sim.tracer().charge_by_category();
  sim::Duration sum = sim::Duration::Zero();
  for (const auto& [cat, d] : ledger) sum += d;
  EXPECT_EQ(sum, sim.tracer().total_charged());
  EXPECT_EQ(sim.tracer().total_charged(), host.cpu().busy_total());
  EXPECT_EQ(ledger.at("(unattributed)"), sim::Duration::Micros(1));
  EXPECT_EQ(ledger.at("alpha"), sim::Duration::Micros(10));
  EXPECT_EQ(ledger.at("beta"), sim::Duration::Micros(4));

  // Span totals: outer saw its own 10us plus inner's 4us.
  const auto recs = sim.tracer().Records();
  ASSERT_EQ(recs.size(), 2u);  // inner completes first
  EXPECT_EQ(recs[0].name, "inner");
  EXPECT_EQ(recs[0].total, sim::Duration::Micros(4));
  EXPECT_EQ(recs[1].name, "outer");
  EXPECT_EQ(recs[1].total, sim::Duration::Micros(14));
  EXPECT_EQ(recs[1].self, sim::Duration::Micros(10));
}

TEST(Observability, SameSeedRunsExportIdenticalArtifacts) {
  const PingArtifacts first = RunTracedPing();
  const PingArtifacts second = RunTracedPing();
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_EQ(first.metrics_a, second.metrics_a);
  EXPECT_EQ(first.metrics_b, second.metrics_b);
  EXPECT_EQ(first.breakdown_json, second.breakdown_json);
}

TEST(Observability, MetricsCoverEveryLayerOfThePingPath) {
  const PingArtifacts art = RunTracedPing();
  for (const char* key : {"\"nic0.tx_frames\"", "\"nic0.rx_frames\"",
                          "\"spin.raises\"", "\"spin.handler_invocations\"",
                          "\"spin.demux_lookups\"",
                          "\"ip.tx_packets\"", "\"ip.rx_packets\"",
                          "\"arp.requests_sent\""}) {
    EXPECT_NE(art.metrics_a.find(key), std::string::npos) << key << " missing:\n"
                                                          << art.metrics_a;
  }
  // The breakdown has the layers the paper's Section 4 argues about (the
  // indexed dispatcher charges "demux" where the linear scan charged
  // "guard").
  for (const char* cat : {"\"driver\"", "\"dispatch\"", "\"demux\"", "\"handler\"",
                          "\"ip\"", "\"udp\"", "\"checksum\"", "\"eth\""}) {
    EXPECT_NE(art.breakdown_json.find(cat), std::string::npos)
        << cat << " missing:\n"
        << art.breakdown_json;
  }
}

// --- scheduler / tracing interaction ---------------------------------------

struct TcpTraceArtifacts {
  std::vector<sim::Tracer::Record> records;
  sim::Duration total_charged;
  sim::Duration cpu_busy;
  std::uint64_t timer_fires = 0;
};

// A traced TCP exchange that exercises the connection timers: one data
// segment with nothing to say back (delayed-ACK timer fires), then an
// orderly close (2MSL TIME_WAIT timer fires).
TcpTraceArtifacts RunTracedTcpExchange() {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  sim.tracer().SetEnabled(true);
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  std::vector<std::shared_ptr<core::PlexusTcpEndpoint>> accepted;
  b.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    ep->SetOnData([](std::span<const std::byte>) {});
    core::PlexusTcpEndpoint* raw = ep.get();
    ep->SetOnClose([raw] { raw->CloseStream(); });
    accepted.push_back(std::move(ep));
  });

  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  a.Run([&] {
    conn = a.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    conn->SetOnEstablished([&] {
      const std::vector<std::byte> payload(100);
      conn->Write(payload);  // one segment: the receiver's delack must fire
    });
  });
  sim.Schedule(sim::Duration::Millis(200), [&] {
    a.Run([&] { conn->CloseStream(); });  // FIN; "a" ends in TIME_WAIT
  });
  sim.RunFor(sim::Duration::Seconds(60));  // past the 2MSL (30s) expiry

  TcpTraceArtifacts out;
  out.records = sim.tracer().Records();
  out.total_charged = sim.tracer().total_charged();
  out.cpu_busy = a.host().cpu().busy_total() + b.host().cpu().busy_total();
  out.timer_fires = sim.metrics().counter("sim.timer_fires").value();
  return out;
}

TEST(Observability, TimerFiresCarryArmingTraceIdsInTimerCategory) {
  const TcpTraceArtifacts art = RunTracedTcpExchange();

  bool saw_delack = false, saw_time_wait = false, saw_traced_timer = false;
  for (const auto& r : art.records) {
    if (r.kind != sim::Tracer::Record::Kind::kInstant || r.category != "timer") {
      continue;
    }
    if (r.name == "tcp.timer.delack") saw_delack = true;
    if (r.name == "tcp.timer.time_wait") saw_time_wait = true;
    // The fire is attributed to the packet whose processing armed the timer.
    if (r.trace_id != 0) saw_traced_timer = true;
  }
  EXPECT_TRUE(saw_delack) << "no delayed-ACK timer instant recorded";
  EXPECT_TRUE(saw_time_wait) << "no 2MSL timer instant recorded";
  EXPECT_TRUE(saw_traced_timer) << "timer fires lost their arming trace id";

  // With timer_op charges in the arm/cancel/fire paths, the charge ledger
  // must still account for exactly the CPUs' busy time.
  EXPECT_EQ(art.total_charged, art.cpu_busy);
  EXPECT_GT(art.timer_fires, 0u);
}

TEST(Observability, DescribeGraphIncludesMetricsSnapshot) {
  harness::Lan lan;
  auto& h = lan.AddPlexus(1, "h");
  const std::string graph = h.DescribeGraph();
  EXPECT_NE(graph.find("metrics: "), std::string::npos) << graph;
  EXPECT_NE(graph.find("\"spin.raises\""), std::string::npos) << graph;
}

}  // namespace
