// The benchmark's four workloads. Each builds its simulated network from
// the library's public API, generates its inputs from the seed, and checks
// every operation's output.
//
//   http_churn  open-loop HTTP connections through the in-kernel web server
//   udp_rpc     closed-loop 8-byte UDP echo on the three fig5 systems
//   tcp_bulk    one long TCP flow per system over ATM, byte-exact
//   udp_flood   open-loop UDP echo at 2x the server's capacity
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/plexus.h"
#include "drivers/device_profile.h"
#include "drivers/medium.h"
#include "harness.h"
#include "net/checksum.h"
#include "net/mbuf_pool.h"
#include "os/socket_host.h"
#include "os/sockets.h"
#include "proto/http.h"
#include "sim/cost_model.h"
#include "sim/tracer.h"

namespace perfbench {

namespace {

const net::Ipv4Address kIpA(10, 0, 0, 1);
const net::Ipv4Address kIpB(10, 0, 0, 2);
const net::MacAddress kMacA = net::MacAddress::FromId(1);
const net::MacAddress kMacB = net::MacAddress::FromId(2);

core::PlexusHost::NetConfig PNet(int id) {
  return {id == 1 ? kMacA : kMacB, id == 1 ? kIpA : kIpB, 24};
}
os::SocketHost::NetConfig ONet(int id) {
  return {id == 1 ? kMacA : kMacB, id == 1 ? kIpA : kIpB, 24};
}

// SplitMix64: the benchmark's only source of generated input.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::byte SeededByte(std::uint64_t seed, std::uint64_t i) {
  return static_cast<std::byte>(Mix(seed * 0x100000001b3ULL + i) & 0xff);
}

void PutU64(std::byte* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}
std::uint64_t GetU64(const std::byte* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

void Wire(core::PlexusHost& h, net::Ipv4Address peer_ip, net::MacAddress peer_mac) {
  h.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  h.arp().AddStatic(peer_ip, peer_mac);
}
void Wire(os::SocketHost& h, net::Ipv4Address peer_ip, net::MacAddress peer_mac) {
  h.ip_layer().routes().Add(net::Ipv4Address(10, 0, 0, 0), 24);
  h.arp().AddStatic(peer_ip, peer_mac);
}

// Runs one system of a continuous workload until the leg's quota. Its event
// queue never drains while work is being issued, so draining is a stall.
void RunContinuousLeg(Context& ctx, sim::Simulator& sim, int system, std::int64_t ops,
                      const std::string& what) {
  ctx.meter.StartLeg(system, ops);
  while (!ctx.meter.leg_done()) {
    if (!ctx.meter.Run(sim, ctx.spans)) {
      ctx.Fail(what + " stalled");
      return;
    }
  }
}

// Counters of a two-host system (the Sys structs below).
template <typename S>
Tally TallyOf(S& y) {
  Tally t;
  t.AddSimulator(y.sim);
  t.AddHost(y.host_a());
  t.AddHost(y.host_b());
  return t;
}

void CheckPoolDrained(Context& ctx, const char* who, const net::MbufPool& pool) {
  if (pool.in_use() != 0) {
    ctx.Fail(std::string(who) + ": mbuf pool holds " + std::to_string(pool.in_use()) +
             " segments after drain");
  }
}

// ---------------------------------------------------------------------------
// http_churn: the connection-scale ladder's 10k rung, repeated. Every round
// is a fresh two-host network on a lossy Ethernet10 segment; 10,000 clients
// arrive 100 us apart, each connects, GETs a 512-byte body and closes. The
// 10 Mb/s segment serves far fewer than 10k connections per second, so the
// whole round is alive at once and the server's TIME_WAIT timers (2 MSL)
// outlive it: the demux table and the timing wheel hold ~10k entries.
// Every round uses the same seed, so every round must produce the same
// virtual-time result.
// ---------------------------------------------------------------------------

class HttpChurn final : public Workload {
 public:
  static constexpr int kConns = 10000;
  static constexpr std::uint16_t kBasePort = 1024;

  explicit HttpChurn(Context& ctx) : ctx_(ctx), body_(512, 'x') {
    for (std::size_t i = 0; i < body_.size(); ++i) {
      body_[i] = static_cast<char>('a' + Mix(ctx.seed ^ (i << 20)) % 26);
    }
  }

  std::vector<std::string> Systems() const override { return {"plexus"}; }

  void Build() override { NewRound(); }

  void RunLeg(int, std::int64_t ops) override {
    ctx_.meter.StartLeg(0, ops);
    while (true) {
      if (round_->Resolved()) {
        ctx_.meter.Run(round_->sim, ctx_.spans);  // TIME_WAIT expiry and teardown
        EndRound();
        NewRound();
      }
      if (ctx_.meter.leg_done()) return;
      if (!ctx_.meter.Run(round_->sim, ctx_.spans) && !round_->Resolved()) {
        EndRound();  // drained with connections unresolved: counted as failed
        NewRound();
      }
    }
  }

  void Finish() override {
    ctx_.meter.StartLeg(0, INT64_MAX);
    ctx_.meter.Run(round_->sim, ctx_.spans);
    EndRound();
  }

  Tally Collect(int) override {
    Tally t = retired_;
    if (round_ != nullptr) round_->AddTo(t);
    return t;
  }

  ModelWindow Window(int) const override { return window_; }

 private:
  struct Round {
    Round(std::uint64_t seed, bool tracing)
        : segment(sim, seed),
          server(sim, "server", sim::CostModel::Default1996(), drivers::DeviceProfile::Ethernet10(),
                 PNet(1)),
          client(sim, "client", sim::CostModel::Default1996(), drivers::DeviceProfile::Ethernet10(),
                 PNet(2)),
          conns(kConns) {
      sim.tracer().SetEnabled(tracing);
      drivers::Faults faults;
      faults.drop_probability = 0.005;
      segment.set_faults(faults);
      server.AttachTo(segment);
      client.AttachTo(segment);
      Wire(server, kIpB, kMacB);
      Wire(client, kIpA, kMacA);
    }
    bool Resolved() const { return finished + skipped == kConns; }
    void AddTo(Tally& t) {
      t.AddSimulator(sim);
      t.AddHost(server.host());
      t.AddHost(client.host());
    }

    struct Conn {
      std::shared_ptr<core::PlexusTcpEndpoint> ep;
      std::unique_ptr<proto::HttpClient> http;
    };
    struct ServerConn {
      std::shared_ptr<core::PlexusTcpEndpoint> ep;
      std::unique_ptr<proto::HttpServerConnection> http;
    };

    sim::Simulator sim;
    drivers::EthernetSegment segment;
    core::PlexusHost server;
    core::PlexusHost client;
    std::vector<ServerConn> server_conns;
    std::vector<Conn> conns;
    int finished = 0;
    int skipped = 0;
    std::int64_t last_done_ns = 0;
    std::int64_t sum_done_ns = 0;
  };

  using Outcome = std::array<std::int64_t, 4>;

  void NewRound() {
    round_ = std::make_unique<Round>(ctx_.seed, ctx_.tracing);
    Round& r = *round_;
    r.server.tcp().Listen(80, [this](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      core::PlexusTcpEndpoint* raw = ep.get();
      auto http = std::make_unique<proto::HttpServerConnection>(
          *raw, [this, raw](const std::string&) {
            const auto op = raw->connection().endpoints().remote_port - kBasePort;
            Spans::Scope app(ctx_.spans, kAppCallback, op);
            round_->server.host().Charge(round_->server.host().costs().http_parse);
            return std::optional<std::string>(body_);
          });
      round_->server_conns.push_back({std::move(ep), std::move(http)});
    });
    const sim::Duration gap = sim::Duration::Micros(100);
    for (int i = 0; i < kConns; ++i) {
      r.sim.Schedule(gap * i, [this, i] { Arrive(i); });
    }
  }

  void Arrive(int i) {
    if (ctx_.inject_drop && ctx_.meter.timing() && !injected_) {
      injected_ = true;  // self-test: this connection is never opened
      ++round_->skipped;
      ++ctx_.attempted;
      ctx_.Fail("injected: connection " + std::to_string(i) + " dropped before connect");
      return;
    }
    round_->client.Run([this, i] { Connect(i); });
  }

  void Connect(int i) {
    Round::Conn& c = round_->conns[static_cast<std::size_t>(i)];
    {
      Spans::Scope span(ctx_.spans, kTcpConnect, static_cast<std::uint64_t>(i));
      c.ep = round_->client.tcp().Connect(kIpA, 80, static_cast<std::uint16_t>(kBasePort + i));
    }
    c.http = std::make_unique<proto::HttpClient>(
        *c.ep, [this, i](const proto::HttpClient::Response& resp) { OnResponse(i, resp); });
    c.ep->SetOnEstablished([this, i] {
      Spans::Scope app(ctx_.spans, kAppCallback, static_cast<std::uint64_t>(i));
      round_->conns[static_cast<std::size_t>(i)].http->Get("/page");
    });
  }

  void OnResponse(int i, const proto::HttpClient::Response& resp) {
    Spans::Scope app(ctx_.spans, kAppCallback, static_cast<std::uint64_t>(i));
    Round& r = *round_;
    ++r.finished;
    ++ctx_.attempted;
    if (resp.status != 200 || resp.body != body_) {
      ctx_.Fail("connection " + std::to_string(i) + ": HTTP " + std::to_string(resp.status) +
                (resp.status == 200 ? " with a wrong body" : ""));
    }
    const std::int64_t now = r.sim.Now().ns();
    r.last_done_ns = std::max(r.last_done_ns, now);
    r.sum_done_ns += now;
    r.conns[static_cast<std::size_t>(i)].ep->CloseStream();
    ctx_.meter.OpDone();
  }

  void EndRound() {
    Round& r = *round_;
    const int unresolved = kConns - r.finished - r.skipped;
    if (unresolved > 0) {
      ctx_.attempted += unresolved;
      ctx_.Fail(std::to_string(unresolved) + " connections never completed", unresolved);
    }
    CheckPoolDrained(ctx_, "http_churn server", r.server.mbuf_pool());
    CheckPoolDrained(ctx_, "http_churn client", r.client.mbuf_pool());
    const std::int64_t busy =
        r.server.host().cpu().busy_total().ns() + r.client.host().cpu().busy_total().ns();
    // Every round replays the same seed: its outcome must match the first's.
    const Outcome outcome = {r.last_done_ns, r.sum_done_ns, r.finished, busy};
    if (r.skipped == 0) {
      if (!reference_) {
        reference_ = outcome;
      } else if (outcome != *reference_) {
        ctx_.Fail("http_churn: a round's virtual-time result differs from the first round's");
      }
    }
    // The window is the first round run entirely under timing: the one
    // built when the warm-up finished.
    if (ctx_.meter.timing() && !window_.complete && r.skipped == 0) {
      window_.complete = true;
      window_.ops = r.finished;
      window_.virt_ns = r.last_done_ns;
      window_.cpu_busy_ns = busy;
      window_.extra = {r.sum_done_ns};
    }
    r.AddTo(retired_);
    round_.reset();
  }

  Context& ctx_;
  std::string body_;
  std::unique_ptr<Round> round_;
  Tally retired_;
  ModelWindow window_;
  std::optional<Outcome> reference_;
  bool injected_ = false;
};

// ---------------------------------------------------------------------------
// udp_rpc: the per-packet path. One client pings an echo server with 8-byte
// datagrams, one outstanding at a time, on Ethernet10 with ARP pre-filled.
// The same number of round trips runs through each fig5 system in turn:
// Plexus with interrupt-mode (EPHEMERAL) handlers, Plexus thread mode, and
// the DIGITAL UNIX socket baseline.
// ---------------------------------------------------------------------------

class UdpRpc final : public Workload {
 public:
  static constexpr std::int64_t kWindow = 256;  // pings per system
  static constexpr std::uint16_t kClientPort = 5000;
  static constexpr std::uint16_t kEchoPort = 7;

  explicit UdpRpc(Context& ctx) : ctx_(ctx) {}

  std::vector<std::string> Systems() const override {
    return {"plexus_intr", "plexus_thread", "du_sockets"};
  }

  void Build() override {
    for (int s = 0; s < 3; ++s) {
      sys_[s] = std::make_unique<Sys>(ctx_.seed, ctx_.tracing);
      Sys& y = *sys_[s];
      y.index = s;
      if (s < 2) {
        BuildPlexus(y, s == 0 ? core::HandlerMode::kInterrupt : core::HandlerMode::kThread);
      } else {
        BuildDu(y);
      }
      SendPing(y);
    }
  }

  void RunLeg(int s, std::int64_t ops) override {
    RunContinuousLeg(ctx_, sys_[s]->sim, s, ops,
                     "udp_rpc " + Systems()[static_cast<std::size_t>(s)] + ": ping loop");
  }

  void Finish() override {
    for (auto& y : sys_) {
      y->generating = false;
      y->sim.RunUntil(y->sim.Now() + sim::Duration::Seconds(1));
      CheckPoolDrained(ctx_, "udp_rpc client", y->pool_a());
      CheckPoolDrained(ctx_, "udp_rpc server", y->pool_b());
    }
  }

  Tally Collect(int s) override { return TallyOf(*sys_[s]); }

  ModelWindow Window(int s) const override { return sys_[s]->window; }

 private:
  struct Sys {
    Sys(std::uint64_t seed, bool tracing) : segment(sim, seed) {
      sim.tracer().SetEnabled(tracing);
    }
    sim::Host& host_a() { return pa ? pa->host() : oa->host(); }
    sim::Host& host_b() { return pb ? pb->host() : ob->host(); }
    net::MbufPool& pool_a() { return pa ? pa->mbuf_pool() : oa->mbuf_pool(); }
    net::MbufPool& pool_b() { return pb ? pb->mbuf_pool() : ob->mbuf_pool(); }

    sim::Simulator sim;
    drivers::EthernetSegment segment;
    std::unique_ptr<core::PlexusHost> pa, pb;
    std::shared_ptr<core::UdpEndpoint> client, server;
    std::unique_ptr<os::SocketHost> oa, ob;
    std::unique_ptr<os::UdpSocket> oclient, oserver;
    int index = 0;
    bool generating = true;
    std::uint64_t seq = 0;  // the ping in flight
    std::int64_t sent_ns = 0;
    std::int64_t window_busy_start = 0;
    ModelWindow window;
  };

  std::array<std::byte, 8> Payload(const Sys& y) const {
    std::array<std::byte, 8> p;
    PutU64(p.data(), y.seq ^ Mix(ctx_.seed + 977 * static_cast<std::uint64_t>(y.index)));
    return p;
  }

  void BuildPlexus(Sys& y, core::HandlerMode mode) {
    const auto costs = sim::CostModel::Default1996();
    const auto profile = drivers::DeviceProfile::Ethernet10();
    y.pa = std::make_unique<core::PlexusHost>(y.sim, "client", costs, profile, PNet(1), mode, 11);
    y.pb = std::make_unique<core::PlexusHost>(y.sim, "server", costs, profile, PNet(2), mode, 22);
    y.pa->AttachTo(y.segment);
    y.pb->AttachTo(y.segment);
    Wire(*y.pa, kIpB, kMacB);
    Wire(*y.pb, kIpA, kMacA);
    y.client = y.pa->udp().CreateEndpoint(kClientPort).value();
    y.server = y.pb->udp().CreateEndpoint(kEchoPort).value();
    spin::HandlerOptions opts;
    opts.ephemeral = true;
    Sys* ys = &y;
    y.server->InstallReceiveHandler(
        [this, ys](const net::Mbuf& p, const proto::UdpDatagram& info) {
          Spans::Scope app(ctx_.spans, kAppCallback, ys->seq);
          auto copy = p.DeepCopy();
          Spans::Scope send(ctx_.spans, kUdpSend, ys->seq);
          ys->server->Send(std::move(copy), info.src_ip, info.src_port);
        },
        opts);
    y.client->InstallReceiveHandler(
        [this, ys](const net::Mbuf& p, const proto::UdpDatagram&) {
          std::array<std::byte, 8> got{};
          if (p.PacketLength() == got.size()) p.CopyOut(0, got);
          OnEcho(*ys, p.PacketLength() == got.size() && got == Payload(*ys));
        },
        opts);
  }

  void BuildDu(Sys& y) {
    const auto costs = sim::CostModel::Default1996();
    const auto profile = drivers::DeviceProfile::Ethernet10();
    y.oa = std::make_unique<os::SocketHost>(y.sim, "client", costs, profile, ONet(1), 11);
    y.ob = std::make_unique<os::SocketHost>(y.sim, "server", costs, profile, ONet(2), 22);
    y.oa->AttachTo(y.segment);
    y.ob->AttachTo(y.segment);
    Wire(*y.oa, kIpB, kMacB);
    Wire(*y.ob, kIpA, kMacA);
    y.oclient = std::make_unique<os::UdpSocket>(*y.oa, kClientPort);
    y.oserver = std::make_unique<os::UdpSocket>(*y.ob, kEchoPort);
    Sys* ys = &y;
    y.oserver->SetOnDatagram([this, ys](std::vector<std::byte> data,
                                        const proto::UdpDatagram& info) {
      Spans::Scope app(ctx_.spans, kAppCallback, ys->seq);
      Spans::Scope send(ctx_.spans, kOsSendTo, ys->seq);
      ys->oserver->SendTo(std::span<const std::byte>(data), info.src_ip, info.src_port);
    });
    y.oclient->SetOnDatagram([this, ys](std::vector<std::byte> data, const proto::UdpDatagram&) {
      const auto want = Payload(*ys);
      OnEcho(*ys, data.size() == want.size() && std::equal(data.begin(), data.end(), want.begin()));
    });
  }

  void SendPing(Sys& y) {
    Sys* ys = &y;
    if (y.pa) {
      y.pa->Run([this, ys] {
        Spans::Scope app(ctx_.spans, kAppCallback, ys->seq);
        ys->sent_ns = ys->sim.Now().ns();
        const auto payload = Payload(*ys);
        auto m = net::Mbuf::FromBytes(payload);
        Spans::Scope send(ctx_.spans, kUdpSend, ys->seq);
        ys->client->Send(std::move(m), kIpB, kEchoPort);
      });
    } else {
      y.oa->RunUser([this, ys] {
        Spans::Scope app(ctx_.spans, kAppCallback, ys->seq);
        ys->sent_ns = ys->sim.Now().ns();
        const auto payload = Payload(*ys);
        Spans::Scope send(ctx_.spans, kOsSendTo, ys->seq);
        ys->oclient->SendTo(payload, kIpB, kEchoPort);
      });
    }
  }

  void OnEcho(Sys& y, bool ok) {
    Spans::Scope app(ctx_.spans, kAppCallback, y.seq);
    ++ctx_.attempted;
    if (!ok) ctx_.Fail("udp_rpc: echo " + std::to_string(y.seq) + " does not match its ping");
    if (ctx_.meter.timing() && y.window.ops < kWindow) {
      const std::int64_t busy = y.host_a().cpu().busy_total().ns() +
                                y.host_b().cpu().busy_total().ns();
      if (y.window.ops == 0) y.window_busy_start = busy;
      y.window.virt_ns += y.sim.Now().ns() - y.sent_ns;
      if (++y.window.ops == kWindow) {
        y.window.complete = true;
        y.window.cpu_busy_ns = busy - y.window_busy_start;
      }
    }
    ++y.seq;
    ctx_.meter.OpDone();
    if (y.generating) SendPing(y);
  }

  Context& ctx_;
  std::unique_ptr<Sys> sys_[3];
};

// ---------------------------------------------------------------------------
// tcp_bulk: one long in-order flow per system over the Fore ATM adapter
// (9180-byte MTU, programmed I/O): Plexus to Plexus, and DIGITAL UNIX to
// DIGITAL UNIX. The stream is a seeded byte pattern with a prime period, so
// a misplaced segment cannot line up by accident; the receiver checks every
// byte. A sender task tops the send buffer up every 2 ms of virtual time.
// ---------------------------------------------------------------------------

class TcpBulk final : public Workload {
 public:
  static constexpr std::int64_t kWindow = 2048;  // KiB per system
  static constexpr std::size_t kPeriod = 65521;
  static constexpr std::size_t kWrite = 32 * 1024;
  static constexpr std::uint16_t kPort = 5001;

  explicit TcpBulk(Context& ctx) : ctx_(ctx), pattern_(kPeriod + kWrite) {
    for (std::size_t i = 0; i < pattern_.size(); ++i) {
      pattern_[i] = SeededByte(ctx.seed, i % kPeriod);
    }
  }

  std::vector<std::string> Systems() const override { return {"plexus", "du_sockets"}; }

  void Build() override {
    for (int s = 0; s < 2; ++s) {
      sys_[s] = std::make_unique<Sys>(ctx_.seed, ctx_.tracing);
      if (s == 0) {
        BuildPlexus(*sys_[s]);
      } else {
        BuildDu(*sys_[s]);
      }
    }
  }

  void RunLeg(int s, std::int64_t ops) override {
    RunContinuousLeg(ctx_, sys_[s]->sim, s, ops,
                     "tcp_bulk " + Systems()[static_cast<std::size_t>(s)] + ": bulk flow");
  }

  void Finish() override {
    for (auto& y : sys_) {
      y->generating = false;
      y->sim.RunUntil(y->sim.Now() + sim::Duration::Seconds(2));
      if (y->received != y->sent) {
        ctx_.Fail("tcp_bulk: " + std::to_string(y->sent - y->received) +
                  " bytes written but never delivered");
      }
      CheckPoolDrained(ctx_, "tcp_bulk sender", y->pool_a());
      CheckPoolDrained(ctx_, "tcp_bulk receiver", y->pool_b());
    }
  }

  Tally Collect(int s) override { return TallyOf(*sys_[s]); }

  ModelWindow Window(int s) const override { return sys_[s]->window; }

 private:
  struct Sys {
    Sys(std::uint64_t seed, bool tracing) : link(sim, seed) { sim.tracer().SetEnabled(tracing); }
    sim::Host& host_a() { return pa ? pa->host() : oa->host(); }
    sim::Host& host_b() { return pb ? pb->host() : ob->host(); }
    net::MbufPool& pool_a() { return pa ? pa->mbuf_pool() : oa->mbuf_pool(); }
    net::MbufPool& pool_b() { return pb ? pb->mbuf_pool() : ob->mbuf_pool(); }

    sim::Simulator sim;
    drivers::PointToPointLink link;
    std::unique_ptr<core::PlexusHost> pa, pb;
    std::shared_ptr<core::PlexusTcpEndpoint> psend, precv;
    std::unique_ptr<os::SocketHost> oa, ob;
    std::shared_ptr<os::TcpSocket> osend, orecv;
    std::unique_ptr<os::TcpListener> olisten;
    bool generating = true;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    bool mismatch_reported = false;
    std::int64_t window_start_ns = 0;
    std::int64_t window_busy_start = 0;
    ModelWindow window;
  };

  static proto::TcpConfig Config() {
    proto::TcpConfig cfg;
    cfg.mss = drivers::DeviceProfile::ForeAtm155().mtu - 40;
    cfg.send_buffer = 64 * 1024;
    cfg.recv_window = 48 * 1024;
    return cfg;
  }

  std::span<const std::byte> PatternAt(std::uint64_t offset, std::size_t len) const {
    return {pattern_.data() + offset % kPeriod, len};
  }

  void BuildPlexus(Sys& y) {
    const auto costs = sim::CostModel::Default1996();
    const auto profile = drivers::DeviceProfile::ForeAtm155();
    y.pa = std::make_unique<core::PlexusHost>(y.sim, "sender", costs, profile, PNet(1),
                                              core::HandlerMode::kInterrupt, 11);
    y.pb = std::make_unique<core::PlexusHost>(y.sim, "receiver", costs, profile, PNet(2),
                                              core::HandlerMode::kInterrupt, 22);
    y.pa->AttachTo(y.link);
    y.pb->AttachTo(y.link);
    Wire(*y.pa, kIpB, kMacB);
    Wire(*y.pb, kIpA, kMacA);
    y.pa->tcp().set_config(Config());
    y.pb->tcp().set_config(Config());
    Sys* ys = &y;
    y.pb->tcp().Listen(kPort, [this, ys](std::shared_ptr<core::PlexusTcpEndpoint> ep) {
      ys->precv = ep;
      ep->SetOnData([this, ys](std::span<const std::byte> d) { OnData(*ys, d); });
    });
    y.pa->Run([this, ys] {
      Spans::Scope span(ctx_.spans, kTcpConnect, 0);
      ys->psend = ys->pa->tcp().Connect(kIpB, kPort, 5000);
      ys->psend->SetOnEstablished([this, ys] { Pump(*ys); });
    });
  }

  void BuildDu(Sys& y) {
    const auto costs = sim::CostModel::Default1996();
    const auto profile = drivers::DeviceProfile::ForeAtm155();
    y.oa = std::make_unique<os::SocketHost>(y.sim, "sender", costs, profile, ONet(1), 11);
    y.ob = std::make_unique<os::SocketHost>(y.sim, "receiver", costs, profile, ONet(2), 22);
    y.oa->AttachTo(y.link);
    y.ob->AttachTo(y.link);
    Wire(*y.oa, kIpB, kMacB);
    Wire(*y.ob, kIpA, kMacA);
    y.oa->tcp_config() = Config();
    y.ob->tcp_config() = Config();
    Sys* ys = &y;
    y.olisten = std::make_unique<os::TcpListener>(
        *y.ob, kPort, [this, ys](std::shared_ptr<os::TcpSocket> sock) {
          ys->orecv = sock;
          sock->SetOnData([this, ys](std::span<const std::byte> d) { OnData(*ys, d); });
        });
    y.osend = os::TcpSocket::Connect(*y.oa, kIpB, kPort, 5000);
    y.osend->SetOnEstablished([this, ys] { Pump(*ys); });
  }

  // Tops the send buffer up from the pattern, then re-arms in 2 ms.
  void Pump(Sys& y) {
    if (!y.generating) return;
    const std::uint64_t op = y.received / 1024;
    Spans::Scope app(ctx_.spans, kAppCallback, op);
    if (y.psend) {
      while (true) {
        std::size_t took;
        {
          Spans::Scope send(ctx_.spans, kTcpSend, op);
          took = y.psend->connection().Send(PatternAt(y.sent, kWrite));
        }
        y.sent += took;
        if (took < kWrite) break;
      }
    } else {
      // write(2) takes everything into a user-side buffer and copies it into
      // the kernel in a later syscall task, which may wait behind PIO work.
      // Bounding the bytes written but not yet delivered keeps the pipe full
      // (64 KiB send buffer plus one write) without an unbounded backlog.
      while (y.sent - y.received <= 96 * 1024) {
        Spans::Scope send(ctx_.spans, kOsWrite, op);
        y.osend->Write(PatternAt(y.sent, kWrite));
        y.sent += kWrite;
      }
    }
    Sys* ys = &y;
    y.sim.Schedule(sim::Duration::Millis(2), [this, ys] {
      if (ys->pa) {
        ys->pa->Run([this, ys] { Pump(*ys); });
      } else {
        Pump(*ys);
      }
    });
  }

  void OnData(Sys& y, std::span<const std::byte> d) {
    Spans::Scope app(ctx_.spans, kAppCallback, y.received / 1024);
    std::size_t at = 0;
    while (at < d.size()) {
      const std::uint64_t offset = y.received + at;
      const std::size_t n = std::min(d.size() - at, kPeriod - offset % kPeriod);
      if (std::memcmp(d.data() + at, pattern_.data() + offset % kPeriod, n) != 0 &&
          !y.mismatch_reported) {
        y.mismatch_reported = true;
        ctx_.Fail("tcp_bulk: delivered bytes differ from the pattern near offset " +
                  std::to_string(offset));
      }
      at += n;
    }
    const std::uint64_t kib_before = y.received / 1024;
    y.received += d.size();
    const auto kib = static_cast<std::int64_t>(y.received / 1024 - kib_before);
    if (kib == 0) return;
    ctx_.attempted += kib;
    if (ctx_.meter.timing() && !y.window.complete) {
      const std::int64_t busy = y.host_a().cpu().busy_total().ns() +
                                y.host_b().cpu().busy_total().ns();
      if (y.window.ops == 0) {
        y.window_start_ns = y.sim.Now().ns();
        y.window_busy_start = busy;
      }
      y.window.ops += kib;
      if (y.window.ops >= kWindow) {
        y.window.complete = true;
        y.window.virt_ns = y.sim.Now().ns() - y.window_start_ns;
        y.window.cpu_busy_ns = busy - y.window_busy_start;
        y.window.extra = {static_cast<std::int64_t>(y.received)};
      }
    }
    ctx_.meter.OpDone(kib);
  }

  Context& ctx_;
  std::vector<std::byte> pattern_;
  std::unique_ptr<Sys> sys_[2];
};

// ---------------------------------------------------------------------------
// udp_flood: receive overload. 64-byte UDP echo requests are injected at the
// server NIC at twice the echo capacity of a thread-mode Plexus server, with
// seeded jitter. The server runs the overload-protected profile: a 256-entry
// rx ring with the interrupt->poll switch (quota 8), deferred-queue
// shedding, and a bounded mbuf pool. Each offered frame must end up echoed
// intact or in exactly one drop counter; echo latency is virtual time from
// the frame's due instant to the echo reaching the wire tap.
// ---------------------------------------------------------------------------

class UdpFlood final : public Workload {
 public:
  static constexpr std::int64_t kWindow = 4096;  // offered frames
  static constexpr std::size_t kPayload = 64;
  static constexpr std::size_t kHeaders =
      sizeof(net::EthernetHeader) + sizeof(net::Ipv4Header) + sizeof(net::UdpHeader);
  static constexpr std::uint16_t kEchoPort = 7;
  static constexpr std::uint16_t kClientPort = 4000;
  // At 2x load the server holds ~277 segments with a full ring; a pool
  // just under that, and shedding from a deferred depth of two bursts,
  // make every defense engage: ring drops, pool exhaustion and shedding.
  static constexpr std::size_t kPoolSegments = 274;
  static constexpr std::size_t kShedHigh = 2;
  static constexpr std::size_t kShedLow = 1;

  explicit UdpFlood(Context& ctx) : ctx_(ctx) {}

  std::vector<std::string> Systems() const override { return {"plexus_thread"}; }

  void Build() override {
    interval_ns_ = static_cast<std::int64_t>(1e9 / (2.0 * EchoCapacityPps()));
    sys_ = std::make_unique<Sys>(ctx_.seed, ctx_.tracing);
    Sys& y = *sys_;
    BuildServer(y, kPoolSegments);
    y.server->deferred_queue().set_config({kShedHigh, kShedLow});
    y.sink.SetReceiveCallback([this](net::MbufPtr frame) { OnEcho(*frame); });
    frame_ = Template();
    Sys* ys = &y;
    y.sim.ScheduleAt(Due(0), [this, ys] { Inject(*ys); });
  }

  void RunLeg(int, std::int64_t ops) override {
    RunContinuousLeg(ctx_, sys_->sim, 0, ops, "udp_flood: injector");
  }

  void Finish() override {
    Sys& y = *sys_;
    y.generating = false;
    y.sim.RunUntil(y.sim.Now() + sim::Duration::Seconds(2));
    const auto nic = y.server->nic().stats();
    const auto& m = y.server->host().metrics().counters();
    const std::uint64_t shed = m.count("spin.deferred_shed") ? m.at("spin.deferred_shed").value() : 0;
    const std::uint64_t accounted =
        y.echoed + nic.rx_dropped + shed + y.app_drops + y.sink.stats().rx_dropped;
    if (accounted != y.offered) {
      const auto lost = static_cast<std::int64_t>(y.offered) - static_cast<std::int64_t>(accounted);
      ctx_.Fail("udp_flood: " + std::to_string(lost) +
                    " offered frames neither echoed nor counted by a drop counter",
                std::max<std::int64_t>(1, std::abs(lost)));
    }
    CheckPoolDrained(ctx_, "udp_flood server", y.server->mbuf_pool());
  }

  Tally Collect(int) override {
    Tally t;
    t.AddSimulator(sys_->sim);
    t.AddHost(sys_->server->host());
    t.AddHost(sys_->sink_host);
    return t;
  }

  // Latencies of the window's echoes, nearest-rank percentiles.
  ModelWindow Window(int) const override {
    ModelWindow w = sys_->window;
    std::vector<std::int64_t> v = sys_->window_latencies;
    w.extra = {static_cast<std::int64_t>(v.size())};
    if (v.empty()) return w;
    std::sort(v.begin(), v.end());
    auto rank = [&v](double q) {
      const auto i = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
      return v[std::min(v.size() - 1, i == 0 ? 0 : i - 1)];
    };
    w.latency_p50_ns = rank(0.50);
    w.latency_p99_ns = rank(0.99);
    return w;
  }

 private:
  static drivers::DeviceProfile Profile() {
    auto p = drivers::DeviceProfile::Ethernet10FastDriver();
    p.name = "ethernet-fast-protected";
    p.bandwidth_bps = 1'000'000'000;  // the CPU, not the wire, is the bottleneck
    p.inter_frame_gap = sim::Duration::Zero();
    p.propagation = sim::Duration::Micros(1);
    p.rx_ring_depth = 256;
    p.poll_threshold = 0.25;
    p.poll_window = sim::Duration::Millis(1);
    p.poll_quota = 8;
    return p;
  }

  struct Sys {
    Sys(std::uint64_t seed, bool tracing)
        : segment(sim, seed),
          sink_host(sim, "sink", sim::CostModel::Default1996()),
          sink(sink_host, Profile(), kMacB) {
      sim.tracer().SetEnabled(tracing);
      sink.AttachMedium(&segment);
    }
    sim::Simulator sim;
    drivers::EthernetSegment segment;
    std::unique_ptr<core::PlexusHost> server;
    std::shared_ptr<core::UdpEndpoint> ep;
    sim::Host sink_host;
    drivers::Nic sink;
    bool generating = true;
    std::uint64_t next = 0;  // next frame to offer
    std::uint64_t offered = 0;
    std::uint64_t echoed = 0;
    std::uint64_t app_drops = 0;
    bool mismatch_reported = false;
    std::uint64_t window_first = UINT64_MAX;
    std::int64_t window_busy_start = 0;
    ModelWindow window;
    std::vector<std::int64_t> window_latencies;
  };

  void BuildServer(Sys& y, std::size_t pool_segments) {
    y.server = std::make_unique<core::PlexusHost>(y.sim, "server", sim::CostModel::Default1996(),
                                                  Profile(), PNet(1), core::HandlerMode::kThread);
    if (pool_segments != 0) y.server->SetMbufPoolCapacity(pool_segments);
    y.server->AttachTo(y.segment);
    Wire(*y.server, kIpB, kMacB);
    y.ep = y.server->udp().CreateEndpoint(kEchoPort).value();
    y.ep->set_checksum_enabled(false);
    Sys* ys = &y;
    y.ep->InstallReceiveHandler([this, ys](const net::Mbuf& payload, const proto::UdpDatagram& info) {
      std::array<std::byte, kPayload> buf{};
      const std::size_t n = std::min(payload.PacketLength(), buf.size());
      payload.CopyOut(0, {buf.data(), n});
      const std::uint64_t seq = GetU64(buf.data());
      Spans::Scope app(ctx_.spans, kAppCallback, seq);
      auto out = net::PoolFromBytes(&ys->server->mbuf_pool(), {buf.data(), n});
      if (out == nullptr) {  // pool dry: the echo is dropped, and counted
        ++ys->app_drops;
        return;
      }
      Spans::Scope send(ctx_.spans, kUdpSend, seq);
      ys->ep->Send(std::move(out), info.src_ip, info.src_port);
    });
  }

  // Echo capacity of the server: CPU busy per echo at a trickle of load.
  double EchoCapacityPps() {
    Sys y(ctx_.seed, false);
    BuildServer(y, 0);
    std::uint64_t echoes = 0;
    y.sink.SetReceiveCallback([&echoes](net::MbufPtr) { ++echoes; });
    const auto frame = Template();
    for (int i = 0; i < 64; ++i) {
      y.sim.Schedule(sim::Duration::Millis(1 + 2 * i), [&y, &frame] {
        y.server->nic().DeliverFromWire(net::Mbuf::FromBytes(frame), true);
      });
    }
    y.sim.RunFor(sim::Duration::Seconds(2));
    if (echoes == 0) return 1.0;
    return static_cast<double>(echoes) / y.server->host().cpu().busy_total().seconds();
  }

  // Ethernet + IPv4 + UDP headers addressed to the server, payload zeroed;
  // the UDP checksum is 0 ("not computed"), the IP checksum valid.
  static std::vector<std::byte> Template() {
    std::vector<std::byte> bytes(kHeaders + kPayload);
    net::EthernetHeader eth;
    eth.dst = kMacA;
    eth.src = kMacB;
    eth.type = net::ethertype::kIpv4;
    net::Ipv4Header ip;
    ip.total_length =
        static_cast<std::uint16_t>(sizeof(net::Ipv4Header) + sizeof(net::UdpHeader) + kPayload);
    ip.protocol = net::ipproto::kUdp;
    ip.src = kIpB;
    ip.dst = kIpA;
    ip.checksum = 0;
    std::byte raw[sizeof(net::Ipv4Header)];
    std::memcpy(raw, &ip, sizeof(ip));
    ip.checksum = net::Checksum({raw, sizeof(raw)});
    net::UdpHeader udp;
    udp.src_port = kClientPort;
    udp.dst_port = kEchoPort;
    udp.length = static_cast<std::uint16_t>(sizeof(net::UdpHeader) + kPayload);
    udp.checksum = 0;
    std::memcpy(bytes.data(), &eth, sizeof(eth));
    std::memcpy(bytes.data() + sizeof(eth), &ip, sizeof(ip));
    std::memcpy(bytes.data() + sizeof(eth) + sizeof(ip), &udp, sizeof(udp));
    return bytes;
  }

  // Frame i is due at i intervals plus up to half an interval of jitter.
  sim::TimePoint Due(std::uint64_t i) const {
    const auto jitter =
        static_cast<std::int64_t>(Mix(ctx_.seed ^ (i * 0x2545f4914f6cdd1dULL)) %
                                  static_cast<std::uint64_t>(interval_ns_ / 2));
    return sim::TimePoint::FromNanos(1'000'000 + static_cast<std::int64_t>(i) * interval_ns_ +
                                     jitter);
  }

  void FillPayload(std::byte* p, std::uint64_t seq) const {
    PutU64(p, seq);
    for (std::size_t k = 8; k < kPayload; ++k) p[k] = SeededByte(ctx_.seed ^ seq, k);
  }

  void Inject(Sys& y) {
    if (!y.generating) return;
    const std::uint64_t seq = y.next++;
    {
      Spans::Scope app(ctx_.spans, kAppCallback, seq);
      FillPayload(frame_.data() + kHeaders, seq);
      auto m = net::Mbuf::FromBytes(frame_);
      if (ctx_.meter.timing() && y.window_first == UINT64_MAX) {
        y.window_first = seq;
        y.window_busy_start = y.server->host().cpu().busy_total().ns();
      }
      if (y.window_first != UINT64_MAX && !y.window.complete &&
          seq - y.window_first == static_cast<std::uint64_t>(kWindow)) {
        y.window.complete = true;
        y.window.ops = kWindow;
        y.window.virt_ns = Due(seq).ns() - Due(y.window_first).ns();
        y.window.cpu_busy_ns = y.server->host().cpu().busy_total().ns() - y.window_busy_start;
      }
      Spans::Scope deliver(ctx_.spans, kNicDeliver, seq);
      y.server->nic().DeliverFromWire(std::move(m), /*check_address=*/true);
    }
    ++y.offered;
    ++ctx_.attempted;
    Sys* ys = &y;
    y.sim.ScheduleAt(Due(y.next), [this, ys] { Inject(*ys); });
    ctx_.meter.OpDone();
  }

  void OnEcho(const net::Mbuf& frame) {
    Sys& y = *sys_;
    std::array<std::byte, kPayload> got{};
    const bool sized = frame.PacketLength() == kHeaders + kPayload;
    if (sized) frame.CopyOut(kHeaders, got);
    const std::uint64_t seq = GetU64(got.data());
    Spans::Scope app(ctx_.spans, kAppCallback, seq);
    std::array<std::byte, kPayload> want{};
    FillPayload(want.data(), seq);
    if (!sized || got != want || seq >= y.next) {
      if (!y.mismatch_reported) {
        y.mismatch_reported = true;
        ctx_.Fail("udp_flood: an echo does not match the frame it answers");
      }
      return;
    }
    ++y.echoed;
    if (y.window_first != UINT64_MAX && seq >= y.window_first &&
        seq < y.window_first + static_cast<std::uint64_t>(kWindow)) {
      y.window_latencies.push_back(y.sim.Now().ns() - Due(seq).ns());
    }
  }

  Context& ctx_;
  std::int64_t interval_ns_ = 0;
  std::vector<std::byte> frame_;
  std::unique_ptr<Sys> sys_;
};

}  // namespace

const std::vector<WorkloadSpec>& Specs() {
  // Chunks are fixed in operations, so two commits compare identical
  // chunkings; at 20 s each workload yields 140 to 450, each well inside
  // the band where the tail's percentile stays the same. An http_churn
  // chunk is a fifth of a round: the rounds replay one seed, so every
  // round splits into the same five phases and the median and p95 each
  // fall inside one phase instead of between two.
  static const std::vector<WorkloadSpec> specs = {
      {"http_churn", "completed connection", HttpChurn::kConns, HttpChurn::kConns / 5},
      {"udp_rpc", "round trip", 20000, 2800},
      {"tcp_bulk", "KiB delivered", 65536, 12000},
      {"udp_flood", "offered frame", 160000, 90000},
  };
  return specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const auto& s : Specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context& ctx) {
  if (name == "http_churn") return std::make_unique<HttpChurn>(ctx);
  if (name == "udp_rpc") return std::make_unique<UdpRpc>(ctx);
  if (name == "tcp_bulk") return std::make_unique<TcpBulk>(ctx);
  if (name == "udp_flood") return std::make_unique<UdpFlood>(ctx);
  return nullptr;
}

}  // namespace perfbench
