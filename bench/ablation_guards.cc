// Ablations for two Plexus design choices:
//
//  1. Guard demux cost: how does receive latency scale with the number of
//     installed application endpoints? Keyed endpoints go through the
//     compiled demux index (flat); opaque lambda guards stay on the
//     residual linear list (the pre-compilation cost, still visible here
//     as the second column).
//
//  2. UDP checksum on/off: the Section 1.1 motivating example — what does
//     disabling the checksum buy an AV application, per packet size?
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "tests/net_harness.h"

namespace {

// UDP RTT with `extra_endpoints` additional endpoints installed on the
// receiver (all on other ports). Keyed endpoints land in the demux index;
// with `opaque_guards` they are installed as raw lambda-guarded handlers
// instead, so every packet walks the residual list and evaluates them all.
double RttWithEndpoints(int extra_endpoints, bool opaque_guards = false) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

  spin::HandlerOptions opts;
  opts.ephemeral = true;
  std::vector<std::shared_ptr<core::UdpEndpoint>> extras;
  for (int i = 0; i < extra_endpoints; ++i) {
    const auto port = static_cast<std::uint16_t>(10000 + i);
    if (opaque_guards) {
      (void)b.udp().packet_recv().Install(
          [](const net::Mbuf&, const proto::UdpDatagram&) {},
          [port](const net::Mbuf&, const proto::UdpDatagram& info) {
            return info.dst_port == port;
          },
          opts);
    } else {
      auto ep = b.udp().CreateEndpoint(port).value();
      (void)ep->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {}, opts);
      extras.push_back(std::move(ep));
    }
  }

  auto client = a.udp().CreateEndpoint(5000).value();
  auto server = b.udp().CreateEndpoint(7).value();
  (void)server->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        server->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);

  double total = 0;
  int count = 0;
  sim::TimePoint sent_at;
  std::function<void()> send_ping = [&] {
    a.Run([&] {
      sent_at = sim.Now();
      client->Send(net::Mbuf::FromString("12345678"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  (void)client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        if (count > 0) total += (sim.Now() - sent_at).us();
        if (++count < 17) send_ping();
      },
      opts);
  send_ping();
  sim.RunFor(sim::Duration::Seconds(10));
  return count > 1 ? total / (count - 1) : -1;
}

// One-way send CPU cost with/without the UDP checksum, per payload size.
double SendCpuUs(bool checksum, std::size_t payload) {
  harness::Lan lan(drivers::DeviceProfile::DecT3());
  sim::Simulator& sim = lan.sim;
  auto& a = lan.AddPlexus(1, "a");
  lan.AddPlexus(2, "b");
  a.arp().AddStatic(net::Ipv4Address(10, 0, 0, 2), net::MacAddress::FromId(2));

  auto ep = a.udp().CreateEndpoint(5000).value();
  ep->set_checksum_enabled(checksum);
  const int kSends = 64;
  const sim::Duration before = a.host().cpu().busy_total();
  std::vector<std::byte> msg(payload);
  for (int i = 0; i < kSends; ++i) {
    a.Run([&] { ep->Send(net::Mbuf::FromBytes(msg), net::Ipv4Address(10, 0, 0, 2), 7); });
  }
  sim.RunFor(sim::Duration::Seconds(5));
  return (a.host().cpu().busy_total() - before).us() / kSends;
}

}  // namespace

int main() {
  std::printf("Ablation 1: receive latency vs installed endpoints\n");
  std::printf("%12s %16s %18s\n", "endpoints", "indexed (us)", "opaque guards (us)");
  double base = 0, opaque_256 = 0;
  for (int n : {0, 4, 16, 64, 256}) {
    const double indexed = RttWithEndpoints(n);
    const double opaque = RttWithEndpoints(n, /*opaque_guards=*/true);
    std::printf("%12d %16.1f %18.1f\n", n, indexed, opaque);
    if (n == 0) base = indexed;
    if (n == 256) opaque_256 = opaque;
  }
  std::printf("  per-guard cost: ~%.0f ns/guard/packet on the residual linear list;\n"
              "  keyed endpoints ride the compiled demux index for free\n",
              (opaque_256 - base) * 1000.0 / 256.0 / 2.0);

  std::printf("\nAblation 2: sender CPU per UDP datagram, checksum on vs off (T3)\n");
  std::printf("%12s %16s %16s %12s\n", "payload", "cksum on (us)", "cksum off (us)", "saved %");
  for (std::size_t payload : {64ul, 512ul, 1400ul, 4096ul, 12500ul}) {
    const double with_ck = SendCpuUs(true, payload);
    const double without = SendCpuUs(false, payload);
    std::printf("%12zu %16.1f %16.1f %11.1f%%\n", payload, with_ck, without,
                (with_ck - without) / with_ck * 100.0);
  }
  std::printf("  (the Section 1.1 motivation: an AV-specific UDP that skips the checksum)\n");
  return 0;
}
