// TCP segment demultiplexing: full 4-tuple match first, then listening
// ports (SYN), then RST generation for unknown destinations.
//
// Both wirings use this table; under Plexus it lives inside the TCP
// protocol manager (the manager's guards consult it), under the baseline it
// is the kernel's PCB lookup.
//
// Hostile-traffic hardening (all opt-in or lazily engaged — a run that
// never sees hostile traffic is byte-identical to the unhardened demux):
//
//   * Bounded SYN backlog. Listen() takes ListenOptions{syn_backlog}; while
//     a listener has that many embryonic (SYN-received, not yet
//     established) connections, further SYNs no longer buy a TCB.
//     syn_backlog == 0 keeps the legacy unbounded behavior.
//
//   * SYN cookies. Under backlog pressure (SynCookies::kAuto) or always
//     (kAlways), the demux answers a SYN statelessly: the SYN|ACK's ISN
//     *is* the state, encoding a 5-bit time counter, a 3-bit MSS-table
//     index, and a 24-bit keyed hash of the 4-tuple. When the handshake
//     ACK returns, the cookie is recomputed and checked; a valid cookie
//     materializes the connection on the spot (CompleteFromSynCookie) with
//     zero per-SYN state held in between. A flood of never-acked SYNs
//     therefore costs the victim nothing but the cookie arithmetic.
//
//     Cookie ISN layout (32 bits):
//       [31:27] t      -- virtual-clock counter, 64 s granularity; the ACK
//                          is accepted in window t or t-1 (mod 32)
//       [26:24] mss    -- index into kCookieMssTable (largest entry <= the
//                          SYN's offered MSS; lost options degrade, never
//                          break, the connection)
//       [23:0]  hash   -- splitmix64 finalizer over (secret, 4-tuple, irs,
//                          t); the secret is drawn lazily from the host rng
//                          on first use so runs that never emit a cookie
//                          leave the rng stream untouched.
//
//   * RST rate limiting. The "no such connection -> RST" responder is a
//     reflection amplifier (spoofed junk in, RST out); a token bucket caps
//     it and counts the excess (tcp.rst_ratelimited).
//
//   * Structural validation. Truncated headers and data-offset lies die
//     here, counted as proto.tcp.malformed_drops, before any connection
//     state can be touched.
#ifndef PLEXUS_PROTO_TCP_DEMUX_H_
#define PLEXUS_PROTO_TCP_DEMUX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "net/headers.h"
#include "net/mbuf.h"
#include "net/view.h"
#include "proto/ratelimit.h"
#include "proto/tcp.h"

namespace proto {

// When a listener answers SYNs with stateless cookies instead of embryonic
// TCBs. kAuto engages only while the backlog is full — the normal case:
// full-state handshakes (with their MSS option fidelity) until pressure,
// cookies under attack. kAlways is for tests and paranoid services.
enum class SynCookies { kAuto, kAlways, kNever };

struct ListenOptions {
  // Max embryonic (SYN-received) connections held concurrently for this
  // listener. 0 = unbounded (legacy behavior: every SYN gets a TCB and
  // cookies never engage, exactly the pre-hardening demux).
  int syn_backlog = 0;
  SynCookies cookies = SynCookies::kAuto;
};

class TcpDemux {
 public:
  // Called when a SYN arrives for a listening port; must return a
  // TcpConnection in LISTEN state (already registered by the factory via
  // Register) or nullptr to refuse.
  using ConnectionFactory = std::function<TcpConnection*(const TcpEndpoints&)>;
  // Called for segments with no matching connection or listener; the wiring
  // emits a RST. Arguments: the offending header, src/dst IP, payload length.
  using RstSender = std::function<void(const net::TcpHeader&, net::Ipv4Address src,
                                       net::Ipv4Address dst, std::size_t payload_len)>;
  // Emits a stateless SYN|ACK carrying the cookie as its ISN. The wiring
  // builds the segment (with its own MSS option) and hands it to IP.
  using SynAckSender =
      std::function<void(const TcpEndpoints&, Seq iss, Seq ack)>;

  void SetRstSender(RstSender s) { rst_sender_ = std::move(s); }
  void SetSynAckSender(SynAckSender s) { synack_sender_ = std::move(s); }
  // Hardening features that need a clock, an rng, or metrics (cookies, RST
  // rate limiting, malformed counters) stay dormant until a host is
  // attached; a bare demux behaves exactly as before.
  void AttachHost(sim::Host* host) { host_ = host; }

  bool Listen(std::uint16_t port, ConnectionFactory factory,
              ListenOptions opts = ListenOptions{}) {
    return listeners_.emplace(port, Listener{std::move(factory), opts, 0}).second;
  }
  void StopListening(std::uint16_t port) { listeners_.erase(port); }
  bool IsListening(std::uint16_t port) const { return listeners_.contains(port); }

  void Register(TcpConnection* conn) { table_[KeyOf(conn->endpoints())] = conn; }
  void Unregister(const TcpEndpoints& ep) {
    auto it = table_.find(KeyOf(ep));
    if (it == table_.end()) return;
    // A connection can die while still embryonic (RST, abort, host
    // teardown); its backlog slot must come back with it.
    if (!embryonic_.empty()) ReapEmbryonic(it->second);
    table_.erase(it);
  }

  TcpConnection* Find(const TcpEndpoints& ep) const {
    auto it = table_.find(KeyOf(ep));
    return it == table_.end() ? nullptr : it->second;
  }

  std::size_t connection_count() const { return table_.size(); }
  // Embryonic count for one listener (tests / introspection).
  int embryonic_count(std::uint16_t port) const {
    auto it = listeners_.find(port);
    return it == listeners_.end() ? 0 : it->second.embryonic;
  }

  // Routes a full TCP segment (IP header stripped) to its connection.
  void Input(net::MbufPtr segment, net::Ipv4Address src_ip, net::Ipv4Address dst_ip) {
    net::TcpHeader hdr;
    try {
      hdr = net::ViewPacket<net::TcpHeader>(*segment);
    } catch (const net::ViewError&) {
      CountMalformed();
      return;
    }
    // Data-offset lies: a header claiming fewer than 20 bytes or more bytes
    // than actually arrived is structurally impossible, not a bit error.
    if (hdr.header_length() < sizeof(net::TcpHeader) ||
        hdr.header_length() > segment->PacketLength()) {
      CountMalformed();
      return;
    }
    const TcpEndpoints ep{dst_ip, hdr.dst_port.value(), src_ip, hdr.src_port.value()};
    if (TcpConnection* conn = Find(ep)) {
      const bool was_embryonic = !embryonic_.empty() && embryonic_.contains(conn);
      conn->Input(std::move(segment), src_ip, dst_ip);
      if (was_embryonic) {
        // Input may have destroyed the connection (on_closed -> owner
        // teardown): re-resolve by endpoint before reading its state. The
        // stale pointer is only ever used as a map key.
        TcpConnection* now = Find(ep);
        if (now != conn || now->state() != TcpConnection::State::kSynReceived) {
          ReapEmbryonic(conn);
        }
      }
      return;
    }
    const bool is_syn_only = (hdr.flags & net::tcpflag::kSyn) && !(hdr.flags & net::tcpflag::kAck);
    if (is_syn_only) {
      auto it = listeners_.find(ep.local_port);
      if (it != listeners_.end()) {
        Listener& l = it->second;
        const bool pressured =
            l.opts.syn_backlog > 0 && l.embryonic >= l.opts.syn_backlog;
        const bool want_cookie =
            l.opts.cookies == SynCookies::kAlways ||
            (l.opts.cookies == SynCookies::kAuto && pressured);
        if (want_cookie && synack_sender_ && host_ != nullptr) {
          SendCookieSynAck(*segment, hdr, ep);
          return;
        }
        if (pressured) {
          // Backlog full and cookies disabled (or not wired): shed the SYN
          // silently — a legitimate peer retransmits, a flood gets nothing.
          if (host_ != nullptr) {
            if (listen_overflows_ == nullptr) {
              listen_overflows_ = &host_->metrics().counter("tcp.listen_overflows");
            }
            listen_overflows_->Inc();
          }
          return;
        }
        if (TcpConnection* conn = l.factory(ep)) {
          conn->Input(std::move(segment), src_ip, dst_ip);
          if (l.opts.syn_backlog > 0) {
            // Charge the backlog slot only if the handshake is actually
            // half-open now (the SYN may have been refused or the
            // connection torn down inside Input — re-resolve, never trust
            // the pre-Input pointer).
            TcpConnection* now = Find(ep);
            if (now != nullptr &&
                now->state() == TcpConnection::State::kSynReceived) {
              embryonic_.emplace(now, ep.local_port);
              ++l.embryonic;
            }
          }
          return;
        }
      }
    }
    // Orphan ACK at a listening port: possibly the third step of a
    // cookie handshake (we kept no state, so no 4-tuple match exists).
    // Only attempted once a cookie secret exists — before the first cookie
    // is ever emitted this path cannot validate anything, and runs that
    // never use cookies take the legacy RST path untouched.
    if (cookie_secret_set_ && (hdr.flags & net::tcpflag::kAck) &&
        !(hdr.flags & (net::tcpflag::kSyn | net::tcpflag::kRst))) {
      auto it = listeners_.find(ep.local_port);
      if (it != listeners_.end()) {
        // The cookie SYN|ACK carried iss = cookie, ack = irs + 1; a
        // handshake ACK therefore arrives with seq = irs + 1, ack = iss + 1.
        const Seq irs = hdr.seq.value() - 1;
        const Seq iss = hdr.ack.value() - 1;
        if (std::optional<std::uint16_t> mss = ValidateCookie(ep, irs, iss)) {
          if (TcpConnection* conn = it->second.factory(ep)) {
            if (cookies_accepted_ == nullptr) {
              cookies_accepted_ = &host_->metrics().counter("tcp.syn_cookies_accepted");
            }
            cookies_accepted_->Inc();
            conn->CompleteFromSynCookie(iss, irs, hdr.window.value(), *mss);
            // Feed the triggering ACK through the normal input path: it
            // updates the send window and may carry data (RFC 4987 allows
            // data on the handshake ACK).
            conn->Input(std::move(segment), src_ip, dst_ip);
            return;
          }
        } else {
          if (cookies_rejected_ == nullptr) {
            cookies_rejected_ = &host_->metrics().counter("tcp.syn_cookies_rejected");
          }
          cookies_rejected_->Inc();
          // Fall through to the RST path: an orphan ACK with a bad cookie
          // is exactly the "no such connection" case.
        }
      }
    }
    if (!(hdr.flags & net::tcpflag::kRst) && rst_sender_) {
      // Each spoofed orphan segment reflects a RST at the "victim" named in
      // its source field; bucket the responder so the demux cannot be used
      // as an amplifier. The allowed path is byte-identical to before (the
      // bucket check is pure arithmetic, before any charge).
      if (host_ != nullptr && !rst_bucket_.Allow(host_->Now())) {
        if (rst_ratelimited_ == nullptr) {
          rst_ratelimited_ = &host_->metrics().counter("tcp.rst_ratelimited");
        }
        rst_ratelimited_->Inc();
        return;
      }
      const std::size_t payload = segment->PacketLength() >= hdr.header_length()
                                      ? segment->PacketLength() - hdr.header_length()
                                      : 0;
      rst_sender_(hdr, src_ip, dst_ip, payload);
    }
  }

 private:
  struct Listener {
    ConnectionFactory factory;
    ListenOptions opts;
    int embryonic = 0;  // SYN-received connections charged to this listener
  };

  // Packed 96-bit flow key. The table is a hash map, not an ordered map:
  // Find runs once per delivered segment, and at 100k connections a
  // red-black tree walk is ~17 dependent cache misses against the hash
  // map's O(1). Nothing iterates the table, so ordering is unobservable.
  struct Key {
    std::uint64_t ips;
    std::uint32_t ports;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // splitmix64 finalizer over the packed tuple.
      std::uint64_t x = k.ips ^ (static_cast<std::uint64_t>(k.ports) * 0x9e3779b97f4a7c15ull);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
      return static_cast<std::size_t>(x);
    }
  };
  static Key KeyOf(const TcpEndpoints& ep) {
    return {(static_cast<std::uint64_t>(ep.local_ip.value()) << 32) | ep.remote_ip.value(),
            (static_cast<std::uint32_t>(ep.local_port) << 16) | ep.remote_port};
  }

  void ReapEmbryonic(TcpConnection* conn) {
    auto it = embryonic_.find(conn);
    if (it == embryonic_.end()) return;
    auto lit = listeners_.find(it->second);
    if (lit != listeners_.end() && lit->second.embryonic > 0) --lit->second.embryonic;
    embryonic_.erase(it);
  }

  void CountMalformed() {
    if (host_ == nullptr) return;
    if (malformed_ == nullptr) {
      malformed_ = &host_->metrics().counter("proto.tcp.malformed_drops");
    }
    malformed_->Inc();
  }

  // --- SYN cookies ---

  // The encodable MSS ladder (3 bits). The cookie rounds the peer's offer
  // down to the nearest entry; index 0 is the RFC 1122 conservative floor
  // used when the SYN carried no option at all.
  static constexpr std::uint16_t kCookieMssTable[8] = {536,  1220, 1460, 2920,
                                                       4380, 5840, 8760, 9000};

  void EnsureSecret() {
    if (cookie_secret_set_) return;
    // Drawn lazily so runs that never emit a cookie leave the host rng
    // stream byte-identical to the unhardened build.
    cookie_secret_ = host_->rng().NextU64();
    cookie_secret_set_ = true;
  }

  // 64-second buckets of the virtual clock, masked to the cookie's 5 bits.
  std::uint32_t TimeCounter() const {
    return static_cast<std::uint32_t>(host_->Now().ns() / 64'000'000'000ll) & 31u;
  }

  std::uint32_t CookieHash(const TcpEndpoints& ep, std::uint32_t t, Seq irs) const {
    std::uint64_t x = cookie_secret_;
    x ^= (static_cast<std::uint64_t>(ep.local_ip.value()) << 32) | ep.remote_ip.value();
    x ^= (static_cast<std::uint64_t>(ep.local_port) << 48) |
         (static_cast<std::uint64_t>(ep.remote_port) << 32) | irs;
    x ^= static_cast<std::uint64_t>(t) * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x) & 0xffffffu;
  }

  void SendCookieSynAck(const net::Mbuf& segment, const net::TcpHeader& hdr,
                        const TcpEndpoints& ep) {
    EnsureSecret();
    host_->Charge(host_->costs().syn_cookie);
    const Seq irs = hdr.seq.value();
    const std::size_t peer_mss = ParseMssOption(segment, hdr);
    const std::uint32_t t = TimeCounter();
    std::uint32_t mss_idx = 0;
    for (std::uint32_t i = 0; i < 8; ++i) {
      if (kCookieMssTable[i] <= peer_mss) mss_idx = i;
    }
    const Seq iss = (t << 27) | (mss_idx << 24) | CookieHash(ep, t, irs);
    if (cookies_sent_ == nullptr) {
      cookies_sent_ = &host_->metrics().counter("tcp.syn_cookies_sent");
    }
    cookies_sent_->Inc();
    synack_sender_(ep, iss, irs + 1);
  }

  // Recomputes the cookie for an orphan handshake ACK. Accepts the current
  // 64 s window and the previous one (a legitimate ACK can straddle the
  // boundary); returns the decoded peer MSS on success.
  std::optional<std::uint16_t> ValidateCookie(const TcpEndpoints& ep, Seq irs, Seq iss) {
    host_->Charge(host_->costs().syn_cookie);
    const std::uint32_t t_now = TimeCounter();
    const std::uint32_t t = (iss >> 27) & 31u;
    if (t != t_now && t != ((t_now + 31u) & 31u)) return std::nullopt;
    if ((iss & 0xffffffu) != CookieHash(ep, t, irs)) return std::nullopt;
    return kCookieMssTable[(iss >> 24) & 7u];
  }

  std::unordered_map<Key, TcpConnection*, KeyHash> table_;
  std::map<std::uint16_t, Listener> listeners_;
  // Connections occupying a backlog slot, keyed by identity; the mapped
  // port names the listener to credit on reap (the connection may already
  // be freed by then, so nothing here is ever dereferenced).
  std::unordered_map<TcpConnection*, std::uint16_t> embryonic_;
  RstSender rst_sender_;
  SynAckSender synack_sender_;
  sim::Host* host_ = nullptr;

  std::uint64_t cookie_secret_ = 0;
  bool cookie_secret_set_ = false;
  // Orphan-segment RST responder bucket: 64-deep burst, 256/s sustained.
  TokenBucket rst_bucket_{64, 256};

  // Lazily resolved: only hostile runs grow these instruments (keeps
  // fault-free metrics snapshots byte-identical).
  sim::Counter* malformed_ = nullptr;         // proto.tcp.malformed_drops
  sim::Counter* listen_overflows_ = nullptr;  // tcp.listen_overflows
  sim::Counter* cookies_sent_ = nullptr;      // tcp.syn_cookies_sent
  sim::Counter* cookies_accepted_ = nullptr;  // tcp.syn_cookies_accepted
  sim::Counter* cookies_rejected_ = nullptr;  // tcp.syn_cookies_rejected
  sim::Counter* rst_ratelimited_ = nullptr;   // tcp.rst_ratelimited
};

}  // namespace proto

#endif  // PLEXUS_PROTO_TCP_DEMUX_H_
