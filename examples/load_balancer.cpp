// The Section 5.2 forwarding protocol as a load balancer: a Plexus host
// redirects TCP connections arriving on port 80 to a backend server, inside
// the protocol graph, preserving end-to-end TCP semantics — then the same
// topology with the user-level splice for comparison.
//
//   build/examples/load_balancer
#include <cstdio>

#include "app/forwarder.h"
#include "bench/bench_common.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "proto/http.h"

int main() {
  std::printf("In-kernel TCP forwarding (load-balancer front end)\n\n");

  // --- Functional demo: HTTP through the Plexus forwarder ------------------
  sim::Simulator sim;
  drivers::EthernetSegment segment(sim);
  const auto profile = drivers::DeviceProfile::Ethernet10();
  const auto costs = sim::CostModel::Default1996();
  core::PlexusHost client(sim, "client", costs, profile,
                          {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost balancer(sim, "balancer", costs, profile,
                            {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  core::PlexusHost backend(sim, "backend", costs, profile,
                           {net::MacAddress::FromId(3), net::Ipv4Address(10, 0, 0, 3), 24});
  for (core::PlexusHost* h : {&client, &balancer, &backend}) h->AttachTo(segment);

  // The balancer installs a forwarding node into its protocol graph: all
  // packets for port 80 are redirected to the backend.
  app::PlexusTcpForwarder forwarder(balancer, 80, net::Ipv4Address(10, 0, 0, 3), 8080);

  // A real HTTP server runs on the backend.
  std::vector<std::unique_ptr<proto::HttpServerConnection>> server_conns;
  backend.tcp().Listen(8080, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    server_conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [](const std::string& path) -> std::optional<std::string> {
          return "served by backend 10.0.0.3, path=" + path;
        }));
  });

  // The client fetches from the BALANCER's address.
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  std::unique_ptr<proto::HttpClient> http;
  proto::HttpClient::Response response;
  client.Run([&] {
    conn = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    http = std::make_unique<proto::HttpClient>(
        *conn, [&](const proto::HttpClient::Response& r) { response = r; });
    conn->SetOnEstablished([&] { http->Get("/index.html"); });
  });
  sim.RunFor(sim::Duration::Seconds(10));

  std::printf("GET http://10.0.0.2/index.html -> %d: \"%s\"\n", response.status,
              response.body.c_str());
  std::printf("forwarder: %llu packets client->backend, %llu backend->client, %llu flow(s);\n"
              "the balancer terminated %zu TCP connections itself (zero — SYN/FIN pass through)\n\n",
              static_cast<unsigned long long>(forwarder.stats().forwarded),
              static_cast<unsigned long long>(forwarder.stats().returned),
              static_cast<unsigned long long>(forwarder.stats().flows),
              balancer.tcp().demux().connection_count());

  // --- Latency comparison against the user-level splice (Figure 7) ---------
  const auto plexus = bench::PlexusForwarding(costs);
  const auto du = bench::DuForwarding(costs);
  std::printf("8-byte request/response RTT through the forwarding host:\n");
  std::printf("  Plexus in-graph redirect:      %8.1f us\n", plexus.request_rtt_us);
  std::printf("  DIGITAL UNIX user-level splice:%8.1f us  (%.2fx slower)\n", du.request_rtt_us,
              du.request_rtt_us / plexus.request_rtt_us);
  return 0;
}
