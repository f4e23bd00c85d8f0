// Ablation: scheduling interference — the paper's claim that placing the
// protocol "close to the network device ... simplifies process scheduling".
//
// A compute-bound background workload runs on the RECEIVING host. The
// monolithic baseline must schedule its user process to deliver each
// packet, so its receive latency queues behind the background slices; the
// Plexus handler runs at interrupt level and is immune.
#include <cstdio>
#include <functional>

#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "sim/background_load.h"
#include "tests/net_harness.h"

namespace {

double PlexusRttWithLoad(double load) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");
  sim::BackgroundLoad bg(b.host(), load);
  bg.Start();

  auto client = a.udp().CreateEndpoint(5000).value();
  auto server = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  (void)server->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        server->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);
  double total = 0;
  int count = 0;
  sim::TimePoint sent_at;
  std::function<void()> ping = [&] {
    a.Run([&] {
      sent_at = sim.Now();
      client->Send(net::Mbuf::FromString("12345678"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  (void)client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        if (count > 0) total += (sim.Now() - sent_at).us();
        if (++count < 33) ping();
      },
      opts);
  ping();
  sim.RunFor(sim::Duration::Seconds(20));
  return count > 1 ? total / (count - 1) : -1;
}

double DuRttWithLoad(double load) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &a = lan.AddOs(1, "a"), &b = lan.AddOs(2, "b");
  sim::BackgroundLoad bg(b.host(), load);
  bg.Start();

  os::UdpSocket client(a, 5000);
  os::UdpSocket server(b, 7);
  server.SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram& info) {
    server.SendTo(std::span<const std::byte>(data), info.src_ip, info.src_port);
  });
  double total = 0;
  int count = 0;
  sim::TimePoint sent_at;
  std::function<void()> ping = [&] {
    a.RunUser([&] {
      sent_at = sim.Now();
      client.SendTo("12345678", net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  client.SetOnDatagram([&](std::vector<std::byte>, const proto::UdpDatagram&) {
    if (count > 0) total += (sim.Now() - sent_at).us();
    if (++count < 33) ping();
  });
  ping();
  sim.RunFor(sim::Duration::Seconds(20));
  return count > 1 ? total / (count - 1) : -1;
}

}  // namespace

int main() {
  std::printf("Ablation: receive latency under background CPU load on the server\n");
  std::printf("(the paper: in-kernel extensions \"simplify process scheduling\" —\n"
              " interrupt-level handlers do not wait for the run queue)\n\n");
  std::printf("%10s %18s %18s %12s\n", "bg load", "Plexus RTT (us)", "DU RTT (us)",
              "DU penalty");
  double plexus_0 = 0, plexus_75 = 0;
  bool holds = true;
  double du_prev = 0;
  for (double load : {0.0, 0.25, 0.5, 0.75}) {
    const double plexus = PlexusRttWithLoad(load);
    const double du = DuRttWithLoad(load);
    std::printf("%9.0f%% %18.1f %18.1f %+11.1f%%\n", load * 100, plexus, du,
                du_prev > 0 ? (du - du_prev) / du_prev * 100 : 0.0);
    if (load == 0.0) plexus_0 = plexus;
    if (load == 0.75) plexus_75 = plexus;
    if (du_prev > 0) holds = holds && du >= du_prev * 0.99;
    du_prev = du;
  }
  const double plexus_drift = (plexus_75 - plexus_0) / plexus_0;
  std::printf("\n  Plexus RTT drift across the load sweep: %.1f%% (interrupt immunity)\n",
              plexus_drift * 100);
  std::printf("  shape: DU latency grows with load, Plexus nearly flat: %s\n",
              (holds && plexus_drift < 0.10) ? "HOLDS" : "VIOLATED");
  return 0;
}
