// The paper's closing demo: "A demonstration of the protocol stack as it
// services HTTP requests can be found at http://www-spin.cs.washington.edu"
// — an HTTP server running as a Plexus extension, plus an active-message
// hit counter handled entirely at interrupt level (Section 3.3).
//
//   build/examples/web_server
#include <cstdio>
#include <map>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "proto/http.h"

int main() {
  sim::Simulator sim;
  drivers::EthernetSegment segment(sim);
  const auto costs = sim::CostModel::Default1996();
  const auto profile = drivers::DeviceProfile::Ethernet10();

  core::PlexusHost server(sim, "www-spin", costs, profile,
                          {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost browser(sim, "browser", costs, profile,
                           {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  core::PlexusHost monitor(sim, "monitor", costs, profile,
                           {net::MacAddress::FromId(3), net::Ipv4Address(10, 0, 0, 3), 24});
  for (core::PlexusHost* h : {&server, &browser, &monitor}) h->AttachTo(segment);

  // In-kernel "site" with a hit counter.
  std::map<std::string, std::string> site = {
      {"/", "<html>SPIN: www-spin.cs.washington.edu (simulated)</html>"},
      {"/plexus.html", "<html>Plexus: extensible application-specific networking</html>"},
  };
  int hits = 0;
  std::vector<std::unique_ptr<proto::HttpServerConnection>> conns;
  server.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [&](const std::string& path) -> std::optional<std::string> {
          ++hits;
          auto it = site.find(path);
          if (it == site.end()) return std::nullopt;
          return it->second;
        }));
  });

  // An operations monitor queries the hit counter with an active message:
  // the handler runs in the network interrupt on the server (EPHEMERAL) —
  // the lowest-latency query path the architecture offers.
  server.active_messages().RegisterHandler(
      1, [&](net::MacAddress from, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
        server.active_messages().Send(from, 2, static_cast<std::uint32_t>(hits), 0);
      });
  std::uint32_t monitored_hits = 0;
  double am_rtt_us = -1;
  sim::TimePoint am_sent;
  monitor.active_messages().RegisterHandler(
      2, [&](net::MacAddress, std::uint32_t count, std::uint32_t, std::span<const std::byte>) {
        monitored_hits = count;
        am_rtt_us = (sim.Now() - am_sent).us();
      });

  // The browser fetches three URLs in sequence.
  const char* urls[] = {"/", "/plexus.html", "/missing.html"};
  int url_index = 0;
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  std::unique_ptr<proto::HttpClient> http;
  std::function<void()> fetch_next = [&] {
    if (url_index >= 3) {
      // All pages fetched: the monitor polls the hit counter.
      monitor.Run([&] {
        am_sent = sim.Now();
        monitor.active_messages().Send(net::MacAddress::FromId(1), 1, 0, 0);
      });
      return;
    }
    const std::string url = urls[url_index++];
    browser.Run([&, url] {
      conn = browser.tcp().Connect(net::Ipv4Address(10, 0, 0, 1), 80);
      http = std::make_unique<proto::HttpClient>(
          *conn, [&, url](const proto::HttpClient::Response& r) {
            std::printf("GET %-14s -> %d (%zu bytes)\n", url.c_str(), r.status, r.body.size());
            fetch_next();
          });
      conn->SetOnEstablished([&, url] { http->Get(url); });
    });
  };
  fetch_next();
  sim.RunFor(sim::Duration::Seconds(30));

  std::printf("\nactive-message hit-counter query: %u hits, rtt %.1f us "
              "(handled at interrupt level)\n",
              monitored_hits, am_rtt_us);
  return 0;
}
