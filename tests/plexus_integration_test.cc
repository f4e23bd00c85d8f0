// Integration tests: two PlexusHosts over simulated media, exercising the
// full graph — ARP, ICMP, UDP endpoints, TCP, HTTP, active messages,
// protection (snoop/spoof), dynamic extension load/unload, and
// interrupt-vs-thread handler modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "proto/http.h"
#include "sim/simulator.h"

namespace core {
namespace {

using drivers::DeviceProfile;

TEST(PlexusIntegration, ArpResolvesPeerAddress) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  std::optional<net::MacAddress> resolved;
  alpha.Run([&] {
    alpha.arp().Resolve(net::Ipv4Address(10, 0, 0, 2),
                            [&](std::optional<net::MacAddress> mac) { resolved = mac; });
  });
  net.sim.RunFor(sim::Duration::Millis(100));
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, net::MacAddress::FromId(2));
  EXPECT_GE(alpha.arp().stats().requests_sent, 1u);
  EXPECT_GE(beta.arp().stats().replies_sent, 1u);
}

TEST(PlexusIntegration, ArpFailsForAbsentHost) {
  harness::Lan net;
  auto& alpha = net.AddPlexus(1, "alpha", 111);
  net.AddPlexus(2, "beta", 222);
  bool failed = false;
  alpha.Run([&] {
    alpha.arp().Resolve(net::Ipv4Address(10, 0, 0, 99),
                            [&](std::optional<net::MacAddress> mac) { failed = !mac; });
  });
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_TRUE(failed);
  EXPECT_GE(alpha.arp().stats().resolution_failures, 1u);
}

TEST(PlexusIntegration, IcmpPingRoundTrip) {
  harness::Lan net;
  auto& alpha = net.AddPlexus(1, "alpha", 111);
  net.AddPlexus(2, "beta", 222);
  int replies = 0;
  alpha.icmp().SetEchoReplyCallback(
      [&](net::Ipv4Address from, std::uint16_t, std::uint16_t) {
        EXPECT_EQ(from, net::Ipv4Address(10, 0, 0, 2));
        ++replies;
      });
  alpha.Run([&] {
    alpha.icmp().SendEchoRequest(net::Ipv4Address(10, 0, 0, 2), 7, 1, 32);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(replies, 1);
}

TEST(PlexusIntegration, UdpDatagramDelivery) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);
  auto rx = beta.udp().CreateEndpoint(6000);
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE(rx.ok());

  std::string received;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  ASSERT_TRUE(rx.value()
                  ->InstallReceiveHandler(
                      [&](const net::Mbuf& payload, const proto::UdpDatagram& info) {
                        received = payload.ToString();
                        EXPECT_EQ(info.src_port, 5000);
                        EXPECT_EQ(info.dst_port, 6000);
                        EXPECT_EQ(info.src_ip, net::Ipv4Address(10, 0, 0, 1));
                      },
                      opts)
                  .ok());

  alpha.Run([&] {
    tx.value()->Send(net::Mbuf::FromString("plexus datagram"), net::Ipv4Address(10, 0, 0, 2),
                     6000);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(received, "plexus datagram");
}

TEST(PlexusIntegration, UdpChecksumDisabledStillDelivers) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);
  auto rx = beta.udp().CreateEndpoint(6000);
  tx.value()->set_checksum_enabled(false);  // the paper's AV optimization

  int got = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  ASSERT_TRUE(rx.value()
                  ->InstallReceiveHandler(
                      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++got; }, opts)
                  .ok());
  alpha.Run([&] {
    tx.value()->Send(net::Mbuf::FromString("no checksum"), net::Ipv4Address(10, 0, 0, 2), 6000);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, 1);
}

TEST(PlexusIntegration, PortClaimingIsExclusive) {
  harness::Lan net;
  auto& alpha = net.AddPlexus(1, "alpha", 111);
  net.AddPlexus(2, "beta", 222);
  auto first = alpha.udp().CreateEndpoint(7777);
  ASSERT_TRUE(first.ok());
  auto second = alpha.udp().CreateEndpoint(7777);
  EXPECT_FALSE(second.ok());
  first.value().reset();  // release
  EXPECT_TRUE(alpha.udp().CreateEndpoint(7777).ok());
}

TEST(PlexusIntegration, SnoopPreventionPortGuard) {
  // An endpoint's handler must never see datagrams for other ports, even
  // though both handlers hang off the same Udp.PacketRecv event.
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);
  auto victim = beta.udp().CreateEndpoint(6000);
  auto snooper = beta.udp().CreateEndpoint(6001);

  int victim_got = 0, snooper_got = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  victim.value()->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++victim_got; }, opts);
  snooper.value()->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) { ++snooper_got; }, opts);

  for (int i = 0; i < 3; ++i) {
    alpha.Run([&] {
      tx.value()->Send(net::Mbuf::FromString("secret"), net::Ipv4Address(10, 0, 0, 2), 6000);
    });
  }
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(victim_got, 3);
  EXPECT_EQ(snooper_got, 0);
}

TEST(PlexusIntegration, SpoofPreventionSourceOverwritten) {
  // Whatever the application does, the datagram leaves with the endpoint's
  // true source ip/port: the receive side checks.
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);
  auto rx = beta.udp().CreateEndpoint(6000);

  proto::UdpDatagram seen;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx.value()->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram& info) { seen = info; }, opts);

  alpha.Run([&] {
    tx.value()->Send(net::Mbuf::FromString("x"), net::Ipv4Address(10, 0, 0, 2), 6000);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(seen.src_ip, net::Ipv4Address(10, 0, 0, 1));  // not spoofable
  EXPECT_EQ(seen.src_port, 5000);
}

TEST(PlexusIntegration, InterruptModeRequiresEphemeralHandler) {
  harness::Lan net;
  net.AddPlexus(1, "alpha", 111, HandlerMode::kInterrupt);
  auto& beta = net.AddPlexus(2, "beta", 222, HandlerMode::kInterrupt);
  auto ep = beta.udp().CreateEndpoint(6000);
  // Not declared EPHEMERAL: the manager must reject it.
  auto r = ep.value()->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("EPHEMERAL"), std::string::npos);
}

TEST(PlexusIntegration, ThreadModeAcceptsPlainHandler) {
  harness::Lan net;
  net.AddPlexus(1, "alpha", 111, HandlerMode::kThread);
  auto& beta = net.AddPlexus(2, "beta", 222, HandlerMode::kThread);
  auto ep = beta.udp().CreateEndpoint(6000);
  auto r = ep.value()->InstallReceiveHandler([](const net::Mbuf&, const proto::UdpDatagram&) {});
  EXPECT_TRUE(r.ok());
}

// Measures application-to-application UDP round-trip time in a given mode.
double UdpRttUs(HandlerMode mode, int pings = 8) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111, mode), &beta = net.AddPlexus(2, "beta", 222, mode);
  auto client = alpha.udp().CreateEndpoint(5000).value();
  auto server = beta.udp().CreateEndpoint(7).value();  // echo port 7

  spin::HandlerOptions opts;
  opts.ephemeral = true;
  // Echo server extension.
  server->InstallReceiveHandler(
      [&](const net::Mbuf& payload, const proto::UdpDatagram& info) {
        server->Send(payload.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);

  std::vector<double> rtts;
  sim::TimePoint sent_at;
  std::function<void()> send_ping = [&] {
    alpha.Run([&] {
      sent_at = net.sim.Now();
      client->Send(net::Mbuf::FromString("12345678"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        rtts.push_back((net.sim.Now() - sent_at).us());
        if (static_cast<int>(rtts.size()) < pings) send_ping();
      },
      opts);
  send_ping();
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(static_cast<int>(rtts.size()), pings);
  double sum = 0;
  for (double r : rtts) sum += r;
  return sum / rtts.size();
}

TEST(PlexusIntegration, UdpEchoRoundTripLatencyPlausible) {
  const double rtt = UdpRttUs(HandlerMode::kInterrupt);
  // Paper: < 600us application-to-application on Ethernet.
  EXPECT_GT(rtt, 100.0);
  EXPECT_LT(rtt, 700.0);
}

TEST(PlexusIntegration, ThreadModeSlowerThanInterruptMode) {
  const double interrupt_rtt = UdpRttUs(HandlerMode::kInterrupt);
  const double thread_rtt = UdpRttUs(HandlerMode::kThread);
  EXPECT_GT(thread_rtt, interrupt_rtt + 50.0);
}

TEST(PlexusIntegration, TcpConnectTransferClose) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  std::string server_got, client_got;
  std::shared_ptr<PlexusTcpEndpoint> server_ep;
  beta.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    server_ep = ep;
    ep->SetOnData([&, ep](std::span<const std::byte> d) {
      server_got.append(reinterpret_cast<const char*>(d.data()), d.size());
      ep->WriteString("pong");
      ep->CloseStream();
    });
  });

  std::shared_ptr<PlexusTcpEndpoint> client_ep;
  alpha.Run([&] {
    client_ep = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    client_ep->SetOnData([&](std::span<const std::byte> d) {
      client_got.append(reinterpret_cast<const char*>(d.data()), d.size());
    });
    client_ep->SetOnEstablished([&] { client_ep->WriteString("ping"); });
  });
  net.sim.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(server_got, "ping");
  EXPECT_EQ(client_got, "pong");
}

TEST(PlexusIntegration, TcpBulkTransferOverLossyEthernet) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  drivers::Faults faults;
  faults.drop_probability = 0.03;
  net.medium().set_faults(faults);

  std::vector<std::byte> payload(100 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 11) & 0xff);
  }
  std::vector<std::byte> received;
  beta.tcp().Listen(9000, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    ep->SetOnData([&](std::span<const std::byte> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  std::shared_ptr<PlexusTcpEndpoint> keep;
  alpha.Run([&] {
    keep = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 9000);
    keep->SetOnEstablished([&] { keep->Write(payload); });
  });
  net.sim.RunFor(sim::Duration::Seconds(200));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

TEST(PlexusIntegration, HttpRequestOverPlexus) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  std::vector<std::unique_ptr<proto::HttpServerConnection>> server_conns;
  beta.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    server_conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [](const std::string& path) -> std::optional<std::string> {
          if (path == "/index.html") return "<html>SPIN web demo</html>";
          return std::nullopt;
        }));
  });

  proto::HttpClient::Response response;
  std::shared_ptr<PlexusTcpEndpoint> client_ep;
  std::unique_ptr<proto::HttpClient> client;
  alpha.Run([&] {
    client_ep = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    client = std::make_unique<proto::HttpClient>(
        *client_ep, [&](const proto::HttpClient::Response& r) { response = r; });
    client_ep->SetOnEstablished([&] { client->Get("/index.html"); });
  });
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "<html>SPIN web demo</html>");
}

TEST(PlexusIntegration, Http404ForUnknownPath) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  std::vector<std::unique_ptr<proto::HttpServerConnection>> server_conns;
  beta.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint> ep) {
    server_conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *ep, [](const std::string&) { return std::nullopt; }));
  });
  proto::HttpClient::Response response;
  std::shared_ptr<PlexusTcpEndpoint> client_ep;
  std::unique_ptr<proto::HttpClient> client;
  alpha.Run([&] {
    client_ep = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80);
    client = std::make_unique<proto::HttpClient>(
        *client_ep, [&](const proto::HttpClient::Response& r) { response = r; });
    client_ep->SetOnEstablished([&] { client->Get("/missing"); });
  });
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(response.status, 404);
}

TEST(PlexusIntegration, ActiveMessagesRunAtInterruptLevel) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  std::uint32_t sum = 0;
  bool ran_in_ephemeral_scope = false;
  beta.active_messages().RegisterHandler(
      42, [&](net::MacAddress, std::uint32_t a0, std::uint32_t a1, std::span<const std::byte>) {
        sum = a0 + a1;
        ran_in_ephemeral_scope = spin::EphemeralScope::active();
      });
  alpha.Run([&] {
    alpha.active_messages().Send(net::MacAddress::FromId(2), 42, 40, 2);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(sum, 42u);
  EXPECT_TRUE(ran_in_ephemeral_scope);  // the AM handler executes at interrupt level
}

TEST(PlexusIntegration, IpFragmentationEndToEnd) {
  harness::Lan net;  // Ethernet MTU 1500
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);
  auto rx = beta.udp().CreateEndpoint(6000);

  std::vector<std::byte> big(4000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::byte>(i & 0xff);
  std::vector<std::byte> got;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  rx.value()->InstallReceiveHandler(
      [&](const net::Mbuf& payload, const proto::UdpDatagram&) { got = payload.Linearize(); },
      opts);

  alpha.Run([&] {
    tx.value()->Send(net::Mbuf::FromBytes(big), net::Ipv4Address(10, 0, 0, 2), 6000);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  ASSERT_EQ(got.size(), big.size());
  EXPECT_EQ(got, big);
  EXPECT_GT(alpha.ip_layer().stats().tx_fragments, 1u);
  EXPECT_EQ(beta.ip_layer().stats().reassembled, 1u);
}

TEST(PlexusIntegration, ExtensionLinkInstallUnloadMidTraffic) {
  // Runtime adaptation (Section 1): an extension arrives, counts traffic,
  // and leaves — without a reboot and without superuser privilege.
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  auto tx = alpha.udp().CreateEndpoint(5000);

  int counted = 0;
  std::shared_ptr<UdpEndpoint> ext_endpoint;
  spin::ExtensionId ext_id = 0;

  spin::Extension counter("traffic-counter");
  counter.Require("UdpManager")
      .OnInit([&](const spin::SymbolTable& symbols) {
        auto* mgr = symbols.GetAs<UdpManager*>("UdpManager");
        ext_endpoint = mgr->CreateEndpoint(6000).value();
        spin::HandlerOptions opts;
        opts.ephemeral = true;
        ext_endpoint->InstallReceiveHandler(
            [&](const net::Mbuf&, const proto::UdpDatagram&) { ++counted; }, opts);
      })
      .OnCleanup([&] { ext_endpoint.reset(); });

  auto send_one = [&] {
    alpha.Run([&] {
      tx.value()->Send(net::Mbuf::FromString("tick"), net::Ipv4Address(10, 0, 0, 2), 6000);
    });
    net.sim.RunFor(sim::Duration::Millis(500));
  };

  send_one();  // before the extension: nobody listens
  EXPECT_EQ(counted, 0);

  auto linked = beta.linker().Link(std::move(counter), beta.app_domain());
  ASSERT_TRUE(linked.ok()) << linked.error().message;
  ext_id = linked.value();
  send_one();
  send_one();
  EXPECT_EQ(counted, 2);

  ASSERT_TRUE(beta.linker().Unlink(ext_id));
  send_one();  // after unlink: the handler is gone
  EXPECT_EQ(counted, 2);
}

TEST(PlexusIntegration, ExtensionDeniedRawEthernetAccess) {
  // The application domain does not export EthernetManager; a would-be
  // snooper fails to link (the paper's link-time access control).
  harness::Lan net;
  net.AddPlexus(1, "alpha", 111);
  auto& beta = net.AddPlexus(2, "beta", 222);
  spin::Extension snooper("packet-snooper");
  bool ran = false;
  snooper.Require("EthernetManager").OnInit([&](const spin::SymbolTable&) { ran = true; });
  auto r = beta.linker().Link(std::move(snooper), beta.app_domain());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(ran);
  // The same extension links fine against the kernel domain (trusted code).
  spin::Extension trusted("kernel-tool");
  trusted.Require("EthernetManager");
  EXPECT_TRUE(beta.linker().Link(std::move(trusted), beta.kernel_domain()).ok());
}

TEST(PlexusIntegration, TcpSpecialImplementationClaimsPorts) {
  // Section 3.1: TCP-standard handles everything except the ports claimed
  // by TCP-special.
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  int special_segments = 0;
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  opts.name = "tcp-special";
  auto r = beta.tcp().InstallSpecialImplementation(
      {4242},
      [&](const net::Mbuf&, const net::Ipv4Header&) { ++special_segments; },
      opts);
  ASSERT_TRUE(r.ok());

  // A connection attempt to 4242 goes to the special implementation (which
  // swallows it), not to the standard demux (which would RST).
  std::shared_ptr<PlexusTcpEndpoint> ep;
  alpha.Run([&] { ep = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 4242); });
  net.sim.RunFor(sim::Duration::Seconds(3));
  EXPECT_GT(special_segments, 0);

  // Standard ports still work end-to-end.
  bool standard_established = false;
  beta.tcp().Listen(80, [&](std::shared_ptr<PlexusTcpEndpoint>) {
    standard_established = true;
  });
  std::shared_ptr<PlexusTcpEndpoint> ep2;
  alpha.Run([&] { ep2 = alpha.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 80); });
  net.sim.RunFor(sim::Duration::Seconds(3));
  EXPECT_TRUE(standard_established);
}

TEST(PlexusIntegration, DispatcherStatsAccumulate) {
  harness::Lan net;
  auto &alpha = net.AddPlexus(1, "alpha", 111), &beta = net.AddPlexus(2, "beta", 222);
  alpha.Run([&] {
    alpha.icmp().SendEchoRequest(net::Ipv4Address(10, 0, 0, 2), 1, 1, 8);
  });
  net.sim.RunFor(sim::Duration::Seconds(1));
  const auto stats = beta.dispatcher().stats();
  EXPECT_GT(stats.raises, 0u);
  // The kernel graph is fully indexed: raises pay demux lookups, and no
  // guard is ever evaluated on the ping path.
  EXPECT_GT(stats.demux_lookups, 0u);
  EXPECT_EQ(stats.guard_evals, 0u);
  EXPECT_GT(stats.handler_invocations, 0u);
}

TEST(PlexusIntegration, WorksOverAtmAndT3Links) {
  for (auto profile : {DeviceProfile::ForeAtm155(), DeviceProfile::DecT3()}) {
    harness::Lan lan(profile);  // a point-to-point link
    auto &a = lan.AddPlexus(1, "a"), &b = lan.AddPlexus(2, "b");

    auto tx = a.udp().CreateEndpoint(5000).value();
    auto rx = b.udp().CreateEndpoint(6000).value();
    std::string got;
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    rx->InstallReceiveHandler(
        [&](const net::Mbuf& p, const proto::UdpDatagram&) { got = p.ToString(); }, opts);
    a.Run([&] {
      tx->Send(net::Mbuf::FromString("over " + profile.name), net::Ipv4Address(10, 0, 0, 2),
               6000);
    });
    lan.sim.RunFor(sim::Duration::Seconds(1));
    EXPECT_EQ(got, "over " + profile.name) << profile.name;
  }
}

}  // namespace
}  // namespace core
