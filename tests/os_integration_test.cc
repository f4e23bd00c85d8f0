// Integration tests for the monolithic baseline (DIGITAL UNIX structure):
// sockets over the same drivers/protocols, plus cross-checks that the
// boundary costs make it measurably slower than Plexus.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "proto/http.h"
#include "sim/simulator.h"

namespace os {
namespace {

using drivers::DeviceProfile;
using drivers::EthernetSegment;

struct TwoOsHosts {
  explicit TwoOsHosts(DeviceProfile profile = DeviceProfile::Ethernet10())
      : segment(sim),
        alpha(sim, "du-alpha", sim::CostModel::Default1996(), profile,
              {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24}, 11),
        beta(sim, "du-beta", sim::CostModel::Default1996(), profile,
             {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24}, 22) {
    alpha.AttachTo(segment);
    beta.AttachTo(segment);
    alpha.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
    beta.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  }

  void RunFor(sim::Duration d) { sim.RunFor(d); }

  sim::Simulator sim;
  EthernetSegment segment;
  SocketHost alpha;
  SocketHost beta;
};

TEST(OsIntegration, UdpSocketSendReceive) {
  TwoOsHosts net;
  UdpSocket tx(net.alpha, 5000);
  UdpSocket rx(net.beta, 6000);

  std::string received;
  proto::UdpDatagram info_seen;
  rx.SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram& info) {
    received.assign(reinterpret_cast<const char*>(data.data()), data.size());
    info_seen = info;
  });
  tx.SendTo("du datagram", net::Ipv4Address(10, 0, 0, 2), 6000);
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(received, "du datagram");
  EXPECT_EQ(info_seen.src_port, 5000);
  EXPECT_EQ(info_seen.src_ip, net::Ipv4Address(10, 0, 0, 1));
}

TEST(OsIntegration, UdpPortExclusivity) {
  TwoOsHosts net;
  UdpSocket a(net.alpha, 5000);
  EXPECT_THROW(UdpSocket(net.alpha, 5000), std::runtime_error);
}

TEST(OsIntegration, TcpSocketEndToEnd) {
  TwoOsHosts net;
  std::string server_got, client_got;
  std::shared_ptr<TcpSocket> server_sock;
  TcpListener listener(net.beta, 80, [&](std::shared_ptr<TcpSocket> s) {
    server_sock = s;
    s->SetOnData([&, s](std::span<const std::byte> d) {
      server_got.append(reinterpret_cast<const char*>(d.data()), d.size());
      s->WriteString("ack!");
      s->CloseStream();
    });
  });

  auto client = TcpSocket::Connect(net.alpha, net::Ipv4Address(10, 0, 0, 2), 80);
  client->SetOnData([&](std::span<const std::byte> d) {
    client_got.append(reinterpret_cast<const char*>(d.data()), d.size());
  });
  client->SetOnEstablished([&] { client->WriteString("request"); });
  net.RunFor(sim::Duration::Seconds(5));
  EXPECT_EQ(server_got, "request");
  EXPECT_EQ(client_got, "ack!");
}

TEST(OsIntegration, HttpOverSockets) {
  TwoOsHosts net;
  std::vector<std::unique_ptr<proto::HttpServerConnection>> conns;
  TcpListener listener(net.beta, 80, [&](std::shared_ptr<TcpSocket> s) {
    conns.push_back(std::make_unique<proto::HttpServerConnection>(
        *s, [](const std::string& path) -> std::optional<std::string> {
          if (path == "/data") return std::string(2000, 'x');
          return std::nullopt;
        }));
  });

  auto client = TcpSocket::Connect(net.alpha, net::Ipv4Address(10, 0, 0, 2), 80);
  proto::HttpClient::Response response;
  proto::HttpClient http(*client, [&](const proto::HttpClient::Response& r) { response = r; });
  client->SetOnEstablished([&] { http.Get("/data"); });
  net.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 2000u);
}

TEST(OsIntegration, TcpSurvivesLossySegment) {
  TwoOsHosts net;
  drivers::Faults faults;
  faults.drop_probability = 0.05;
  net.segment.set_faults(faults);

  std::vector<std::byte> payload(60 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 3) & 0xff);
  }
  std::vector<std::byte> received;
  std::shared_ptr<TcpSocket> server_keep;
  TcpListener listener(net.beta, 9000, [&](std::shared_ptr<TcpSocket> s) {
    server_keep = s;
    s->SetOnData([&](std::span<const std::byte> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });
  auto client = TcpSocket::Connect(net.alpha, net::Ipv4Address(10, 0, 0, 2), 9000);
  client->SetOnEstablished([&] { client->Write(payload); });
  net.RunFor(sim::Duration::Seconds(300));
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
}

// Shared latency measurement for the cross-system comparison below.
double OsUdpRttUs(int pings = 8) {
  TwoOsHosts net;
  UdpSocket client(net.alpha, 5000);
  UdpSocket server(net.beta, 7);
  server.SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram& info) {
    server.SendTo(std::span<const std::byte>(data), info.src_ip, info.src_port);
  });

  std::vector<double> rtts;
  sim::TimePoint sent_at;
  std::function<void()> send_ping = [&] {
    net.alpha.RunUser([&] {
      sent_at = net.sim.Now();
      client.SendTo("12345678", net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  int completed = 0;
  client.SetOnDatagram([&](std::vector<std::byte>, const proto::UdpDatagram&) {
    if (completed > 0) rtts.push_back((net.sim.Now() - sent_at).us());  // skip ARP warmup
    if (++completed < pings + 1) send_ping();
  });
  send_ping();
  net.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(static_cast<int>(rtts.size()), pings);
  double sum = 0;
  for (double r : rtts) sum += r;
  return sum / rtts.size();
}

TEST(OsIntegration, UdpRttPlausibleForDigitalUnix) {
  const double rtt = OsUdpRttUs();
  // The paper shows DIGITAL UNIX substantially slower than Plexus (<600us);
  // our calibrated model should put it near 4-digit microseconds.
  EXPECT_GT(rtt, 600.0);
  EXPECT_LT(rtt, 2500.0);
}

TEST(OsIntegration, BoundaryCostsMakeOsSlowerThanPlexus) {
  // The controlled comparison of the paper: same drivers, same protocols,
  // different OS structure.
  const double os_rtt = OsUdpRttUs();

  // Plexus equivalent, interrupt mode.
  sim::Simulator sim;
  EthernetSegment segment(sim);
  core::PlexusHost a(sim, "a", sim::CostModel::Default1996(), DeviceProfile::Ethernet10(),
                     {net::MacAddress::FromId(1), net::Ipv4Address(10, 0, 0, 1), 24});
  core::PlexusHost b(sim, "b", sim::CostModel::Default1996(), DeviceProfile::Ethernet10(),
                     {net::MacAddress::FromId(2), net::Ipv4Address(10, 0, 0, 2), 24});
  a.AttachTo(segment);
  b.AttachTo(segment);
  a.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  b.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  auto client = a.udp().CreateEndpoint(5000).value();
  auto server = b.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  server->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        server->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);
  double plexus_rtt = 0;
  int count = 0;
  sim::TimePoint sent_at;
  std::function<void()> send_ping = [&] {
    a.Run([&] {
      sent_at = sim.Now();
      client->Send(net::Mbuf::FromString("12345678"), net::Ipv4Address(10, 0, 0, 2), 7);
    });
  };
  client->InstallReceiveHandler(
      [&](const net::Mbuf&, const proto::UdpDatagram&) {
        if (count > 0) plexus_rtt += (sim.Now() - sent_at).us();  // skip ARP warmup
        if (++count < 9) send_ping();
      },
      opts);
  send_ping();
  sim.RunFor(sim::Duration::Seconds(10));
  plexus_rtt /= (count - 1);

  EXPECT_GT(os_rtt, plexus_rtt * 1.4) << "plexus=" << plexus_rtt << "us os=" << os_rtt << "us";
}

TEST(OsIntegration, IcmpPingWorksOnBaseline) {
  TwoOsHosts net;
  int replies = 0;
  net.alpha.icmp().SetEchoReplyCallback(
      [&](net::Ipv4Address, std::uint16_t, std::uint16_t) { ++replies; });
  net.alpha.host().Submit(sim::Priority::kKernel, [&] {
    net.alpha.icmp().SendEchoRequest(net::Ipv4Address(10, 0, 0, 2), 3, 1, 16);
  });
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(replies, 1);
}

TEST(OsIntegration, ChecksumOffIsFasterOnWire) {
  // The motivation example: disabling the UDP checksum saves per-byte CPU.
  TwoOsHosts net;
  UdpSocket tx(net.alpha, 5000);
  tx.set_checksum_enabled(false);
  UdpSocket rx(net.beta, 6000);
  int got = 0;
  rx.SetOnDatagram([&](std::vector<std::byte>, const proto::UdpDatagram&) { ++got; });
  std::vector<std::byte> frame(1400);
  tx.SendTo(frame, net::Ipv4Address(10, 0, 0, 2), 6000);
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, 1);
}

// --- socket lifetime: the process drops a socket with work still queued ----
//
// A call the process issued before dropping the socket completes; a wakeup
// for a socket the process has dropped is still charged but delivers
// nothing.

std::uint64_t OsCounter(SocketHost& h, const std::string& name) {
  return h.host().metrics().counter(name).value();
}

// Runs in steps shorter than the scheduler wakeup delay until `counter` on
// `h` moves past `from`, so the test can act between a wakeup being queued
// and it running.
void RunUntilCounterMoves(TwoOsHosts& net, SocketHost& h, const std::string& counter,
                          std::uint64_t from) {
  for (int i = 0; i < 200000 && OsCounter(h, counter) == from; ++i) {
    net.RunFor(sim::Duration::Micros(5));
  }
  ASSERT_GT(OsCounter(h, counter), from);
}

TEST(OsIntegration, DroppedTcpSocketCompletesItsQueuedWriteAndClose) {
  TwoOsHosts net;
  std::string server_got;
  int server_eofs = 0;
  std::shared_ptr<TcpSocket> server_sock;
  TcpListener listener(net.beta, 80, [&](std::shared_ptr<TcpSocket> s) {
    server_sock = s;
    s->SetOnData([&](std::span<const std::byte> d) {
      server_got.append(reinterpret_cast<const char*>(d.data()), d.size());
    });
    s->SetOnClose([&] { ++server_eofs; });
  });
  auto client = TcpSocket::Connect(net.alpha, net::Ipv4Address(10, 0, 0, 2), 80);
  net.RunFor(sim::Duration::Seconds(1));
  ASSERT_EQ(client->connection().state(), proto::TcpConnection::State::kEstablished);

  // write(2) and close(2) are both still queued behind the trap when the
  // process drops its last reference.
  client->WriteString("hello");
  client->CloseStream();
  client.reset();
  net.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(server_got, "hello");
  EXPECT_EQ(server_eofs, 1);
}

TEST(OsIntegration, DroppedUdpSocketStillSendsQueuedDatagrams) {
  TwoOsHosts net;
  UdpSocket rx(net.beta, 6000);
  std::vector<std::string> got;
  rx.SetOnDatagram([&](std::vector<std::byte> data, const proto::UdpDatagram&) {
    got.emplace_back(reinterpret_cast<const char*>(data.data()), data.size());
  });
  auto tx = std::make_unique<UdpSocket>(net.alpha, 5000);
  tx->SendTo("first", net::Ipv4Address(10, 0, 0, 2), 6000);
  tx->SendTo("second", net::Ipv4Address(10, 0, 0, 2), 6000);
  tx.reset();
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(got, (std::vector<std::string>{"first", "second"}));
}

TEST(OsIntegration, DroppedUdpSocketWakeupIsChargedButDeliversNothing) {
  TwoOsHosts net;
  auto rx = std::make_unique<UdpSocket>(net.beta, 6000);
  int delivered = 0;
  rx->SetOnDatagram([&](std::vector<std::byte>, const proto::UdpDatagram&) { ++delivered; });
  UdpSocket tx(net.alpha, 5000);
  tx.SendTo("orphan", net::Ipv4Address(10, 0, 0, 2), 6000);
  RunUntilCounterMoves(net, net.beta, "os.sched_wakeups", 0);
  ASSERT_EQ(OsCounter(net.beta, "os.context_switches"), 0u);

  rx.reset();  // the wakeup is queued but has not run
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(OsCounter(net.beta, "os.context_switches"), 1u);
  EXPECT_EQ(OsCounter(net.beta, "os.copyout_bytes"), 6u);
}

TEST(OsIntegration, DroppedListenerAcceptWakeupDeliversNothing) {
  TwoOsHosts net;
  int accepted = 0;
  auto listener = std::make_unique<TcpListener>(
      net.beta, 80, [&](std::shared_ptr<TcpSocket>) { ++accepted; });
  auto client = TcpSocket::Connect(net.alpha, net::Ipv4Address(10, 0, 0, 2), 80);
  RunUntilCounterMoves(net, net.beta, "os.sched_wakeups", 0);

  listener.reset();  // accept(2)'s wakeup is queued but has not run
  net.RunFor(sim::Duration::Seconds(1));
  EXPECT_EQ(accepted, 0);
  EXPECT_EQ(OsCounter(net.beta, "os.context_switches"), 1u);
}

}  // namespace
}  // namespace os
