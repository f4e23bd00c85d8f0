// Extension bench (not a paper figure): HTTP request latency and small-file
// throughput, Plexus in-kernel server vs the baseline user-level server —
// the workload of the paper's closing web-demo sentence, quantified.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench/bench_common.h"
#include "drivers/medium.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "proto/http.h"
#include "tests/net_harness.h"

namespace {

// Time from connect() to full response received, for `body_bytes` pages.
double PlexusHttpLatencyUs(std::size_t body_bytes) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &server = lan.AddPlexus(1, "server"), &client = lan.AddPlexus(2, "client");
  lan.WarmArp();

  const std::string body(body_bytes, 'w');
  std::vector<std::unique_ptr<proto::HttpServerConnection>> conns;
  server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    // In-kernel page generation: the parse cost is charged, no copies.
    conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [&](const std::string&) {
          server.host().Charge(server.host().costs().http_parse);
          return std::optional(body);
        }));
  });

  double done_at = -1;
  sim::TimePoint start;
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  std::unique_ptr<proto::HttpClient> http;
  client.Run([&] {
    start = sim.Now();
    conn = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
    http = std::make_unique<proto::HttpClient>(
        *conn, [&](const proto::HttpClient::Response& r) {
          if (r.status == 200) done_at = (sim.Now() - start).us();
        });
    conn->SetOnEstablished([&] { http->Get("/page"); });
  });
  sim.RunFor(sim::Duration::Seconds(60));
  return done_at;
}

double DuHttpLatencyUs(std::size_t body_bytes) {
  harness::Lan lan;
  sim::Simulator& sim = lan.sim;
  auto &server = lan.AddOs(1, "server"), &client = lan.AddOs(2, "client");
  lan.WarmArp();

  const std::string body(body_bytes, 'w');
  std::vector<std::unique_ptr<proto::HttpServerConnection>> conns;
  os::TcpListener listener(server, 80, [&](std::shared_ptr<os::TcpSocket> s) {
    conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *s, [&](const std::string&) {
          server.host().Charge(server.host().costs().http_parse);
          return std::optional(body);
        }));
  });

  double done_at = -1;
  const sim::TimePoint start = sim.Now();
  auto conn = os::TcpSocket::Connect(client, net::Ipv4Address(10, 0, 0, 1), 80);
  proto::HttpClient http(*conn, [&](const proto::HttpClient::Response& r) {
    if (r.status == 200) done_at = (sim.Now() - start).us();
  });
  conn->SetOnEstablished([&] { http.Get("/page"); });
  sim.RunFor(sim::Duration::Seconds(60));
  return done_at;
}

}  // namespace

int main() {
  std::printf("Extension: HTTP GET latency (connect -> full response), Ethernet\n");
  std::printf("(the paper's closing demo: \"the protocol stack as it services HTTP\n"
              " requests\" — quantifying the in-kernel server against the baseline)\n\n");
  std::printf("%12s %16s %16s %10s\n", "page bytes", "Plexus (us)", "DU (us)", "DU/Plexus");
  bool holds = true;
  for (std::size_t bytes : {256ul, 2048ul, 16384ul, 65536ul}) {
    const double plexus = PlexusHttpLatencyUs(bytes);
    const double du = DuHttpLatencyUs(bytes);
    std::printf("%12zu %16.1f %16.1f %10.2f\n", bytes, plexus, du, du / plexus);
    holds = holds && plexus > 0 && du > plexus;
  }
  std::printf("\n  shape: in-kernel HTTP service faster at every size: %s\n",
              holds ? "HOLDS" : "VIOLATED");
  return 0;
}
