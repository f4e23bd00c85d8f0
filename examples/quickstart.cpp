// Quickstart: two simulated workstations running SPIN/Plexus, a custom
// in-kernel UDP echo extension on one, and a client endpoint on the other.
//
//   build/examples/quickstart
//
// Walks through the core API: building a network, claiming UDP endpoints
// through the protocol manager (openness: no privilege needed), installing
// an EPHEMERAL receive handler that runs at interrupt level, and measuring
// application-to-application round-trip latency on the virtual clock.
#include <cstdio>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"

int main() {
  // 1. A simulator owns virtual time; hosts and media attach to it.
  sim::Simulator sim;
  drivers::EthernetSegment ethernet(sim);

  // 2. Two DEC-Alpha-class workstations running SPIN/Plexus on 10 Mb/s
  //    Ethernet, with the cost model calibrated to the paper's 1996 testbed.
  core::PlexusHost alpha(sim, "alpha", sim::CostModel::Default1996(),
                         drivers::DeviceProfile::Ethernet10(),
                         {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost beta(sim, "beta", sim::CostModel::Default1996(),
                        drivers::DeviceProfile::Ethernet10(),
                        {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  alpha.AttachTo(ethernet);  // 10.0.0.0/24 is on-link: the address brings its route
  beta.AttachTo(ethernet);

  // 3. The echo "application" is a kernel extension on beta: it claims UDP
  //    port 7 from the protocol manager and installs an EPHEMERAL handler.
  //    The manager builds the port guard — the handler cannot snoop other
  //    ports — and the endpoint cannot spoof its source address.
  auto echo = beta.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;  // may run inside the network interrupt
  opts.name = "udp-echo";
  auto installed = echo->InstallReceiveHandler(
      [&echo](const net::Mbuf& payload, const proto::UdpDatagram& info) {
        // READONLY buffer: DeepCopy before reuse, then reflect it.
        echo->Send(payload.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);
  if (!installed.ok()) {
    std::fprintf(stderr, "install failed: %s\n", installed.error().message.c_str());
    return 1;
  }

  // 4. The client on alpha: send pings, timestamp with the virtual clock.
  auto client = alpha.udp().CreateEndpoint(5000).value();
  int replies = 0;
  double total_us = 0;
  sim::TimePoint sent_at;
  std::function<void()> ping = [&] {
    alpha.Run([&] {
      sent_at = sim.Now();
      client->Send(net::Mbuf::FromString("hello, plexus!"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  (void)client->InstallReceiveHandler(
      [&](const net::Mbuf& payload, const proto::UdpDatagram&) {
        const double rtt = (sim.Now() - sent_at).us();
        std::printf("reply %d: %-16s rtt = %.1f us%s\n", replies + 1,
                    payload.ToString().c_str(), rtt, replies == 0 ? "  (includes ARP)" : "");
        if (replies > 0) total_us += rtt;
        if (++replies < 5) ping();
      },
      opts);

  ping();
  sim.RunFor(sim::Duration::Seconds(5));

  std::printf("\naverage rtt (after ARP warmup): %.1f us  — the paper reports <600 us\n",
              total_us / (replies - 1));
  std::printf("dispatcher: %llu raises, %llu guard evaluations, %llu handler invocations\n",
              static_cast<unsigned long long>(beta.dispatcher().stats().raises),
              static_cast<unsigned long long>(beta.dispatcher().stats().guard_evals),
              static_cast<unsigned long long>(beta.dispatcher().stats().handler_invocations));
  return 0;
}
