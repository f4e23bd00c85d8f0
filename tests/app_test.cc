// Tests for the Section 5 applications: the video system and the packet
// forwarders (in-kernel Plexus NAT vs. user-level DU splice).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "app/forwarder.h"
#include "app/video.h"
#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "net_harness.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "sim/simulator.h"

namespace app {
namespace {

using drivers::DeviceProfile;

TEST(Video, PlexusServerStreamsFramesOverT3) {
  harness::Lan net(DeviceProfile::DecT3());
  auto &server = net.AddPlexus(1, "server"), &client = net.AddPlexus(2, "client");

  VideoConfig config;
  PlexusVideoServer video(server, config);
  PlexusVideoClient viewer(client, config.base_client_port);
  video.AddClient({net::Ipv4Address(10, 0, 0, 2), config.base_client_port});
  video.Start();
  net.sim.RunFor(sim::Duration::Seconds(2));
  video.Stop();

  // 2 seconds at 30 fps: ~60 frames (first tick at t=interval).
  EXPECT_GE(video.frames_sent(), 55u);
  EXPECT_GE(viewer.frames_displayed(), 55u);
  EXPECT_LE(viewer.frames_displayed(), video.frames_sent());
}

TEST(Video, DuServerStreamsFrames) {
  harness::Lan net(DeviceProfile::DecT3());
  auto &server = net.AddOs(1, "du-server"), &client = net.AddOs(2, "du-client");

  VideoConfig config;
  DuVideoServer video(server, config);
  DuVideoClient viewer(client, config.base_client_port);
  video.AddClient({net::Ipv4Address(10, 0, 0, 2), config.base_client_port});
  video.Start();
  net.sim.RunFor(sim::Duration::Seconds(2));
  video.Stop();
  EXPECT_GE(video.frames_sent(), 55u);
  EXPECT_GE(viewer.frames_displayed(), 55u);
}

// Server CPU utilization for N streams over one virtual second.
double ServerCpuUtil(bool plexus, int n_streams) {
  harness::Lan net(DeviceProfile::DecT3());
  VideoConfig config;
  std::unique_ptr<PlexusVideoServer> pvideo;
  std::unique_ptr<DuVideoServer> dvideo;
  sim::Host* server = nullptr;
  if (plexus) {
    core::PlexusHost& h = net.AddPlexus(1, "server");
    server = &h.host();
    pvideo = std::make_unique<PlexusVideoServer>(h, config);
  } else {
    os::SocketHost& h = net.AddOs(1, "server");
    server = &h.host();
    dvideo = std::make_unique<DuVideoServer>(h, config);
  }
  core::PlexusHost& sink_host = net.AddPlexus(2, "sink");
  std::vector<std::unique_ptr<VideoSink>> sinks;

  for (int i = 0; i < n_streams; ++i) {
    const std::uint16_t port = static_cast<std::uint16_t>(config.base_client_port + i);
    sinks.push_back(std::make_unique<VideoSink>(sink_host, port));
    VideoClientAddr addr{net::Ipv4Address(10, 0, 0, 2), port};
    if (pvideo) {
      pvideo->AddClient(addr);
    } else {
      dvideo->AddClient(addr);
    }
  }

  if (pvideo) pvideo->Start();
  if (dvideo) dvideo->Start();
  // Warm up ARP etc., then measure one second.
  net.sim.RunFor(sim::Duration::Millis(200));
  const sim::Duration busy_before = server->cpu().busy_total();
  net.sim.RunFor(sim::Duration::Seconds(1));
  const sim::Duration busy = server->cpu().busy_total() - busy_before;
  return sim::Cpu::Utilization(busy, sim::Duration::Seconds(1));
}

TEST(Video, PlexusServerUsesRoughlyHalfTheCpuOfDu) {
  // The paper's Figure 6 headline: at network saturation (15 streams) SPIN
  // consumes about half the processor DIGITAL UNIX does.
  const double plexus_util = ServerCpuUtil(/*plexus=*/true, 15);
  const double du_util = ServerCpuUtil(/*plexus=*/false, 15);
  EXPECT_GT(du_util, plexus_util * 1.6) << "plexus=" << plexus_util << " du=" << du_util;
  EXPECT_LT(plexus_util, 0.6);
  EXPECT_GT(du_util, 0.15);
}

TEST(Video, UtilizationScalesWithStreams) {
  const double u5 = ServerCpuUtil(true, 5);
  const double u15 = ServerCpuUtil(true, 15);
  EXPECT_GT(u15, u5 * 2.0);
}

// --- Forwarders -------------------------------------------------------------------

TEST(Forwarder, PlexusTcpForwarderPreservesEndToEndSemantics) {
  harness::Lan net;
  auto& client = net.AddPlexus(1, "client");
  auto& fwd = net.AddPlexus(2, "forwarder");
  auto& backend = net.AddPlexus(3, "backend");
  PlexusTcpForwarder forwarder(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);

  std::string backend_got;
  std::string client_got;
  backend.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    ep->SetOnData([&, ep](std::span<const std::byte> d) {
      backend_got.append(reinterpret_cast<const char*>(d.data()), d.size());
      ep->WriteString("response-from-backend");
      ep->CloseStream();
    });
  });

  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  bool closed = false;
  client.Run([&] {
    // The client talks to the FORWARDER's address; the backend serves it.
    conn = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 8080);
    conn->SetOnData([&](std::span<const std::byte> d) {
      client_got.append(reinterpret_cast<const char*>(d.data()), d.size());
    });
    conn->SetOnClose([&] { closed = true; });
    conn->SetOnEstablished([&] { conn->WriteString("request-via-forwarder"); });
  });
  net.sim.RunFor(sim::Duration::Seconds(10));

  EXPECT_EQ(backend_got, "request-via-forwarder");
  EXPECT_EQ(client_got, "response-from-backend");
  // End-to-end semantics: the SYN and FIN crossed the forwarder; the
  // client's connection terminates against the backend's TCP, and the
  // backend's FIN reached the client.
  EXPECT_TRUE(closed);
  EXPECT_GT(forwarder.stats().forwarded, 0u);
  EXPECT_GT(forwarder.stats().returned, 0u);
  EXPECT_EQ(forwarder.stats().flows, 1u);
  // The forwarder host itself terminated no TCP connection.
  EXPECT_EQ(fwd.tcp().demux().connection_count(), 0u);
}

TEST(Forwarder, PlexusUdpForwarderRelaysBothWays) {
  harness::Lan net;
  auto& client = net.AddPlexus(1, "client");
  auto& fwd = net.AddPlexus(2, "forwarder");
  auto& backend = net.AddPlexus(3, "backend");
  PlexusUdpForwarder forwarder(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 7);

  // Backend echo service.
  auto echo = backend.udp().CreateEndpoint(7).value();
  spin::HandlerOptions opts;
  opts.ephemeral = true;
  echo->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram& info) {
        echo->Send(p.DeepCopy(), info.src_ip, info.src_port);
      },
      opts);

  auto cli = client.udp().CreateEndpoint(5000).value();
  std::string got;
  cli->InstallReceiveHandler(
      [&](const net::Mbuf& p, const proto::UdpDatagram&) { got = p.ToString(); }, opts);
  client.Run([&] {
    cli->Send(net::Mbuf::FromString("udp-hello"), net::Ipv4Address(10, 0, 0, 2), 8080);
  });
  net.sim.RunFor(sim::Duration::Seconds(2));
  EXPECT_EQ(got, "udp-hello");
  EXPECT_EQ(forwarder.forwarded(), 1u);
  EXPECT_EQ(forwarder.returned(), 1u);
}

TEST(Forwarder, DuSplicerRelaysData) {
  harness::Lan net;
  auto& client = net.AddOs(1, "client");
  auto& fwd = net.AddOs(2, "forwarder");
  auto& backend = net.AddOs(3, "backend");
  DuTcpSplicer splicer(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);

  std::string backend_got, client_got;
  std::shared_ptr<os::TcpSocket> backend_keep;
  os::TcpListener backend_listener(backend, 80, [&](std::shared_ptr<os::TcpSocket> s) {
    backend_keep = s;
    s->SetOnData([&, sp = s.get()](std::span<const std::byte> d) {
      backend_got.append(reinterpret_cast<const char*>(d.data()), d.size());
      sp->WriteString("spliced-response");
    });
  });

  auto sock = os::TcpSocket::Connect(client, net::Ipv4Address(10, 0, 0, 2), 8080);
  sock->SetOnData([&](std::span<const std::byte> d) {
    client_got.append(reinterpret_cast<const char*>(d.data()), d.size());
  });
  sock->SetOnEstablished([&] { sock->WriteString("spliced-request"); });
  net.sim.RunFor(sim::Duration::Seconds(10));
  EXPECT_EQ(backend_got, "spliced-request");
  EXPECT_EQ(client_got, "spliced-response");
  EXPECT_EQ(splicer.splices(), 1u);
  EXPECT_GT(splicer.bytes_spliced(), 0u);
}

// Request/response latency through each forwarder (the Figure 7 shape).
double PlexusForwardRttUs() {
  harness::Lan net;
  auto& client = net.AddPlexus(1, "client");
  auto& fwd = net.AddPlexus(2, "forwarder");
  auto& backend = net.AddPlexus(3, "backend");
  PlexusTcpForwarder forwarder(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);
  backend.tcp().Listen(80, [&](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
    ep->SetOnData([ep](std::span<const std::byte> d) { ep->Write(d); });  // echo
  });

  double total = 0;
  int count = 0;
  sim::TimePoint sent;
  std::shared_ptr<core::PlexusTcpEndpoint> conn;
  std::function<void()> send_req;
  client.Run([&] {
    conn = client.tcp().Connect(net::Ipv4Address(10, 0, 0, 2), 8080);
    send_req = [&] {
      client.Run([&] {
        sent = net.sim.Now();
        conn->WriteString("XXXXXXXX");
      });
    };
    conn->SetOnData([&](std::span<const std::byte>) {
      total += (net.sim.Now() - sent).us();
      if (++count < 8) send_req();
    });
    conn->SetOnEstablished([&] { send_req(); });
  });
  net.sim.RunFor(sim::Duration::Seconds(30));
  EXPECT_EQ(count, 8);
  return total / count;
}

double DuForwardRttUs() {
  harness::Lan net;
  auto& client = net.AddOs(1, "client");
  auto& fwd = net.AddOs(2, "forwarder");
  auto& backend = net.AddOs(3, "backend");
  DuTcpSplicer splicer(fwd, 8080, net::Ipv4Address(10, 0, 0, 3), 80);
  std::shared_ptr<os::TcpSocket> backend_keep;
  os::TcpListener backend_listener(backend, 80, [&](std::shared_ptr<os::TcpSocket> s) {
    backend_keep = s;
    s->SetOnData([sp = s.get()](std::span<const std::byte> d) { sp->Write(d); });
  });

  double total = 0;
  int count = 0;
  sim::TimePoint sent;
  auto conn = os::TcpSocket::Connect(client, net::Ipv4Address(10, 0, 0, 2), 8080);
  std::function<void()> send_req = [&] {
    client.RunUser([&] {
      sent = net.sim.Now();
      conn->WriteString("XXXXXXXX");
    });
  };
  conn->SetOnData([&](std::span<const std::byte>) {
    total += (net.sim.Now() - sent).us();
    if (++count < 8) send_req();
  });
  conn->SetOnEstablished([&] { send_req(); });
  net.sim.RunFor(sim::Duration::Seconds(30));
  EXPECT_EQ(count, 8);
  return total / count;
}

TEST(Forwarder, PlexusForwardingFasterThanUserLevelSplice) {
  const double plexus_rtt = PlexusForwardRttUs();
  const double du_rtt = DuForwardRttUs();
  // Figure 7's shape: the user-level splice pays two full stack traversals
  // and two boundary copies per packet — substantially slower.
  EXPECT_GT(du_rtt, plexus_rtt * 1.3) << "plexus=" << plexus_rtt << " du=" << du_rtt;
}

}  // namespace
}  // namespace app
