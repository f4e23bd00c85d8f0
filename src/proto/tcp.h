// TCP: the shared transport implementation used by both Plexus and the
// monolithic baseline (the paper: "Both Plexus and DIGITAL UNIX use the same
// TCP/IP implementation and device drivers").
//
// Era-faithful feature set (4.3/4.4BSD-class, Reno):
//   * three-way handshake, simultaneous open, RST handling
//   * sliding window with receiver-advertised window (no window scaling)
//   * MSS option negotiation on SYN
//   * Jacobson RTT estimation with Karn's algorithm, exponential backoff
//   * slow start, congestion avoidance, fast retransmit + fast recovery
//   * delayed ACK (ack every second segment or after a short timer)
//   * zero-window persist probes
//   * orderly close through FIN-WAIT/CLOSING/LAST-ACK/TIME-WAIT (2MSL)
//
// The connection object is wiring-agnostic: it emits finished TCP segments
// through Callbacks::send_segment and receives whole segments via Input.
// All methods must be invoked from within a CPU task on the owning host;
// internal timers submit their own kernel-priority tasks.
#ifndef PLEXUS_PROTO_TCP_H_
#define PLEXUS_PROTO_TCP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "proto/ratelimit.h"
#include "proto/tcp_seq.h"
#include "sim/host.h"
#include "sim/simulator.h"

namespace proto {

// Why a connection died, in errno terms. Surfaced through
// Callbacks::on_error so sockets can report ECONNRESET vs ETIMEDOUT
// instead of a bare string.
enum class TcpError {
  kNone = 0,
  kConnectionReset,  // ECONNRESET: RST from the peer (or local abort)
  kTimedOut,         // ETIMEDOUT: retransmission / persist limit exceeded
};

const char* TcpErrorName(TcpError e);

struct TcpConfig {
  std::size_t mss = 1460;               // our maximum segment size offer
  std::size_t send_buffer = 64 * 1024;  // bytes of unacknowledged + queued data
  std::size_t recv_window = 48 * 1024;  // advertised window (<= 65535)
  sim::Duration rto_initial = sim::Duration::Millis(1000);
  sim::Duration rto_min = sim::Duration::Millis(200);
  sim::Duration rto_max = sim::Duration::Seconds(64);
  sim::Duration delayed_ack = sim::Duration::Millis(50);
  sim::Duration msl = sim::Duration::Seconds(15);
  // Zero-window persist probing backs off exponentially from
  // persist_interval up to persist_max; after max_persist_probes unanswered
  // probes the connection aborts with kTimedOut (a vanished peer must not
  // be probed forever).
  sim::Duration persist_interval = sim::Duration::Millis(500);
  sim::Duration persist_max = sim::Duration::Seconds(60);
  int max_persist_probes = 20;
  bool delayed_ack_enabled = true;
  std::uint32_t initial_cwnd_segments = 1;
  // Segmentation offload: under the batched packet path (PLEXUS_BATCH) one
  // app write may leave the connection as a jumbo of up to gso_segments*mss
  // bytes, split into wire-identical MSS-sized frames at the emission edge.
  // The jumbo pays tcp_output and the checksum scan once plus
  // CostModel::gso_split per wire frame. 1 disables; the knob is ignored
  // entirely when batching is off (that path must stay charge-identical).
  std::size_t gso_segments = 8;
};

struct TcpEndpoints {
  net::Ipv4Address local_ip;
  std::uint16_t local_port = 0;
  net::Ipv4Address remote_ip;
  std::uint16_t remote_port = 0;
};

// --- segment helpers every wiring shares ---------------------------------------

// Length of the one option this stack sends: MSS (kind 2, length 4).
inline constexpr std::size_t kMssOptionLen = 4;

// The MSS a segment's options offer; 0 if absent or garbled. The walk skips
// NOPs and options of other kinds (an MSS option whose length is not 4
// included) and gives up at end-of-options, at a length below 2, or at a
// length that overruns the header.
std::size_t ParseMssOption(const net::Mbuf& segment, const net::TcpHeader& hdr);
// Writes an MSS option offering `mss` right after the fixed header.
void WriteMssOption(net::Mbuf& segment, std::size_t mss);

// The RST answering `offending`, a segment from `src` to `dst` (carrying
// `payload_len` bytes) that reached no connection (RFC 793): addressed back
// to its source, with seq taken from its ACK or, failing one, an ACK of
// everything it occupied. Built in `pool` (nullptr: the heap); nullptr when
// the pool is dry — RSTs are best-effort.
net::MbufPtr MakeRst(net::MbufPool* pool, const net::TcpHeader& offending,
                     net::Ipv4Address src, net::Ipv4Address dst, std::size_t payload_len);

struct TcpInfo;  // defined below the class (needs TcpConnection::State)

// One point of a per-flow time series: congestion state at a sampling
// instant on the virtual clock. Stored in a bounded ring per connection.
struct TcpSample {
  sim::TimePoint at;
  std::uint32_t cwnd = 0;
  std::uint32_t ssthresh = 0;
  std::int64_t srtt_ns = -1;  // -1 until the first RTT measurement lands
  std::uint32_t in_flight = 0;
};

class TcpConnection {
 public:
  enum class State {
    kClosed,
    kListen,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kClosing,
    kLastAck,
    kTimeWait,
  };

  struct Callbacks {
    // Emits a finished TCP segment (header + payload) toward IP.
    std::function<void(net::MbufPtr segment, net::Ipv4Address src, net::Ipv4Address dst)>
        send_segment;
    std::function<void()> on_established;
    // In-order application data.
    std::function<void(std::span<const std::byte>)> on_data;
    // Peer sent FIN (no more data will arrive).
    std::function<void()> on_remote_close;
    // Connection fully terminated (CLOSED reached from any path).
    std::function<void()> on_closed;
    std::function<void(const std::string& reason)> on_reset;
    // Abnormal termination classified in errno terms (fires alongside
    // on_reset, before on_closed). kNone terminations don't fire it.
    std::function<void(TcpError)> on_error;
    // Send buffer drained below half — the app may write more.
    std::function<void()> on_send_ready;
  };

  struct Stats {
    std::uint64_t segments_sent = 0;
    std::uint64_t segments_received = 0;
    std::uint64_t bytes_sent = 0;      // payload only, incl. retransmits
    std::uint64_t bytes_received = 0;  // delivered in-order payload
    std::uint64_t retransmissions = 0;
    std::uint64_t fast_retransmits = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t dup_acks_received = 0;
    std::uint64_t out_of_order_segments = 0;
    std::uint64_t bad_checksums = 0;
    std::uint64_t persist_probes = 0;
    std::uint64_t gso_jumbos = 0;  // oversized sends split at the emission edge
  };

  TcpConnection(sim::Host& host, TcpConfig config, TcpEndpoints endpoints, Callbacks callbacks);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Active open (client): sends SYN.
  void Connect();
  // Passive open (server side, created by a listener on SYN arrival).
  void Listen();
  // Stateless-handshake completion (SYN cookies): the listener held no TCB
  // between the SYN and the handshake ACK, so everything the three-way
  // handshake would have accumulated is reconstructed here from the cookie
  // — sequence state, peer window, negotiated MSS — and the connection
  // jumps LISTEN -> ESTABLISHED. Emits nothing; the caller feeds the
  // triggering ACK through Input() immediately after.
  void CompleteFromSynCookie(Seq iss, Seq irs, std::uint16_t snd_wnd,
                             std::size_t peer_mss);

  // Queues application data; returns bytes accepted (bounded by the send
  // buffer). Data flows as the window opens.
  std::size_t Send(std::span<const std::byte> data);
  std::size_t SendString(std::string_view s) {
    return Send({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }

  // Graceful close: FIN after queued data drains.
  void Close();
  // Abortive close: RST now.
  void Abort();
  // Power-fail teardown: the host this connection lived on crashed. All
  // state drops on the floor — no segments, no callbacks, every timer
  // canceled. Unlike every other method, callable outside a CPU task.
  void Vanish();

  // Full TCP segment from IP (IP header stripped).
  void Input(net::MbufPtr segment, net::Ipv4Address src_ip, net::Ipv4Address dst_ip);

  // Receive-side flow control: by default delivered data is auto-consumed.
  // With auto-consume off, delivered bytes shrink the advertised window
  // until Consume() is called (used to exercise zero-window behavior).
  void SetAutoConsume(bool v) { auto_consume_ = v; }
  void Consume(std::size_t n);

  State state() const { return state_; }
  const TcpEndpoints& endpoints() const { return endpoints_; }
  const Stats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }

  // Introspection for tests and benches.
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  std::size_t bytes_in_flight() const { return SeqDiff(snd_una_, snd_nxt_); }
  std::size_t send_queue_bytes() const { return send_buf_.size(); }
  sim::Duration current_rto() const { return rto_; }
  // The delay the next zero-window probe would use (exponential backoff
  // from persist_interval, capped at persist_max).
  sim::Duration current_persist_interval() const;
  int rexmt_backoff() const { return rexmt_backoff_; }
  int persist_backoff() const { return persist_backoff_; }
  std::size_t effective_mss() const { return effective_mss_; }
  std::size_t advertised_window() const;

  // Kernel-style TCP_INFO snapshot of the whole control block; every field
  // a diagnosing application would poll, in one consistent read.
  TcpInfo info() const;

  // Bounded-ring cwnd/srtt/in-flight time series, sampled on the ACK clock
  // with at least `min_interval` of virtual time between samples — plus on
  // every loss-driven cwnd collapse, which must never be smoothed away.
  // Sampling schedules no events of its own, so enabling it perturbs no
  // virtual-time result. Capacity 0 disables (the default).
  void EnableSampling(sim::Duration min_interval, std::size_t capacity);
  std::vector<TcpSample> Samples() const;  // oldest first
  std::uint64_t samples_dropped() const { return samples_dropped_; }
  // {"samples":[[t_ns,cwnd,ssthresh,srtt_ns,in_flight],...],"dropped":N}
  std::string SamplesJson() const;

  static const char* StateName(State s);

 private:
  // --- segment emission ---
  void SendControl(std::uint8_t flags, Seq seq, bool with_mss_option);
  void SendDataSegment(Seq seq, std::size_t len, bool rtt_candidate);
  void SendAckNow();
  // RFC 5961 challenge ACK: the response to a blind in-window RST/SYN or a
  // far-out-of-range ACK. Rate limited per connection so the response
  // itself cannot be farmed; RFC 793 duplicate-segment re-acks do NOT go
  // through this (they stay unlimited — retransmission recovery must never
  // be throttled).
  void SendChallengeAck();
  // Emits one segment carrying send_buf_[buf_offset, buf_offset + len)
  // (len 0: a control segment). charge_costs=false suppresses the
  // tcp_output/checksum charges (the GSO split path pays them once for the
  // whole jumbo); the frame's real checksum is still computed either way.
  void EmitSegment(std::uint8_t flags, Seq seq, std::size_t buf_offset, std::size_t len,
                   bool with_mss_option, bool charge_costs = true);
  void SendRst(Seq seq, Seq ack, bool with_ack);

  // --- output engine ---
  void TrySend();  // push data/FIN within window+cwnd

  // --- input handling ---
  void ProcessListen(const net::TcpHeader& hdr);
  void ProcessSynSent(const net::TcpHeader& hdr);
  void ProcessAck(const net::TcpHeader& hdr);
  void ProcessData(net::MbufPtr segment, const net::TcpHeader& hdr, std::size_t payload_len);
  void ProcessFin(Seq fin_seq);
  void DeliverInOrder();

  // --- timers ---
  // Every connection timer arms and disarms through these two: the pair
  // charges CostModel::timer_op (callout-wheel bookkeeping) and the fire
  // path carries the trace id of the packet that armed the timer, so timer
  // fires show up attributed in the packet trace (category "timer").
  sim::EventId ScheduleTimer(sim::Duration delay, const char* trace_name,
                             void (TcpConnection::*handler)());
  void CancelTimer(sim::EventId& timer);
  void ChargeTimerOp();
  void ArmRexmt();
  void CancelRexmt();
  void OnRexmtTimeout();
  void ArmDelack();
  void OnDelackTimeout();
  void ArmPersist();
  void OnPersistTimeout();
  void EnterTimeWait();
  void OnTimeWaitTimeout();

  // --- RTT / congestion ---
  void StartRttTiming(Seq seq);
  void UpdateRttOnAck(Seq acked_through);
  void OpenCongestionWindow(std::uint32_t acked_bytes);

  void EnterClosed(const std::string& reason, bool was_reset,
                   TcpError error = TcpError::kNone);

  // --- telemetry sampler ---
  // `force` bypasses the interval gate (loss events must always land).
  void MaybeSample(bool force = false);

  sim::Host& host_;
  sim::Simulator& sim_;
  TcpConfig config_;
  TcpEndpoints endpoints_;
  Callbacks cb_;
  Stats stats_;

  State state_ = State::kClosed;

  // Send state.
  Seq iss_ = 0;
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  Seq snd_max_ = 0;  // highest sequence ever sent (survives timeout rewind)
  std::uint32_t snd_wnd_ = 0;
  std::deque<std::byte> send_buf_;  // [snd_una_, snd_una_ + size)
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  Seq fin_seq_ = 0;
  bool syn_acked_ = false;

  // Receive state.
  Seq irs_ = 0;
  Seq rcv_nxt_ = 0;
  std::map<Seq, std::vector<std::byte>> ooo_;  // out-of-order segments
  bool fin_received_ = false;
  Seq peer_fin_seq_ = 0;
  bool auto_consume_ = true;
  std::size_t rcv_buffered_ = 0;  // delivered-but-unconsumed bytes
  std::uint32_t last_advertised_wnd_ = 0;

  // Congestion control (byte-based Reno).
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0xffffffff;
  std::uint32_t dupacks_ = 0;
  bool in_fast_recovery_ = false;

  // RTT estimation.
  bool rtt_timing_ = false;
  Seq rtt_seq_ = 0;
  sim::TimePoint rtt_start_;
  bool srtt_valid_ = false;
  sim::Duration srtt_;
  sim::Duration rttvar_;
  sim::Duration rto_;

  // Timers.
  sim::EventId rexmt_timer_ = sim::kInvalidEventId;
  sim::EventId delack_timer_ = sim::kInvalidEventId;
  sim::EventId persist_timer_ = sim::kInvalidEventId;
  sim::EventId time_wait_timer_ = sim::kInvalidEventId;
  int rexmt_backoff_ = 0;
  int persist_backoff_ = 0;      // exponent of the next persist interval
  int persist_unanswered_ = 0;   // probes since the window last moved
  std::uint32_t delack_segments_ = 0;

  std::size_t effective_mss_;
  bool closed_reported_ = false;

  // RFC 5961 challenge-ACK budget: 4-deep burst, 10/s sustained. Lazily
  // resolved counters — only attacked runs grow the instruments.
  TokenBucket challenge_bucket_{4, 10};
  sim::Counter* challenge_acks_ = nullptr;         // tcp.challenge_acks
  sim::Counter* challenge_ratelimited_ = nullptr;  // tcp.challenge_acks_ratelimited

  // Telemetry sampler state (inactive until EnableSampling).
  sim::Duration sample_interval_;
  std::size_t sample_capacity_ = 0;
  std::vector<TcpSample> sample_ring_;  // circular once full
  std::size_t sample_head_ = 0;         // oldest element when ring is full
  std::uint64_t samples_dropped_ = 0;
  bool has_sampled_ = false;
  sim::TimePoint last_sample_at_;

  // Host-level aggregates ("tcp.*" in host.metrics(), shared by every
  // connection on the host); stats_ stays the per-connection view.
  sim::Counter& retransmissions_ctr_;
  sim::Counter& timeouts_ctr_;
  sim::Counter& rto_backoffs_ctr_;
  sim::Histogram& cwnd_hist_;

  void NoteRetransmission() {
    ++stats_.retransmissions;
    retransmissions_ctr_.Inc();
  }
  void RecordCwndSample() {
    cwnd_hist_.Observe(static_cast<std::int64_t>(cwnd_));
  }
};

// The TCP_INFO shape: everything the kernel knows about one connection's
// congestion/RTT/loss state, flattened into plain fields. No SACK fields —
// this stack is pre-SACK Reno, so `in_flight` is the [snd_una, snd_nxt)
// byte span. Times are virtual nanoseconds.
struct TcpInfo {
  TcpConnection::State state = TcpConnection::State::kClosed;
  std::uint32_t cwnd = 0;
  std::uint32_t ssthresh = 0;
  std::size_t mss = 0;
  bool in_fast_recovery = false;
  bool srtt_valid = false;  // false until the first RTT measurement
  std::int64_t srtt_ns = 0;
  std::int64_t rttvar_ns = 0;
  std::int64_t rto_ns = 0;
  int rexmt_backoff = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks = 0;
  std::uint64_t out_of_order_segments = 0;
  std::uint64_t persist_probes = 0;
  std::size_t in_flight = 0;       // bytes sent, not yet acknowledged
  std::size_t send_queue = 0;      // bytes queued behind snd_una
  std::uint32_t snd_wnd = 0;       // peer's last advertised window
  std::size_t advertised_window = 0;  // what we are advertising
  std::uint64_t bytes_sent = 0;       // payload, retransmits included
  std::uint64_t bytes_delivered = 0;  // in-order payload handed to the app
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;

  // One deterministic JSON object, fields in declaration order.
  std::string ToJson() const;
};

}  // namespace proto

#endif  // PLEXUS_PROTO_TCP_H_
