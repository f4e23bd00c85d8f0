#include "proto/tcp.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "net/mbuf_pool.h"
#include "net/view.h"
#include "proto/transport_checksum.h"
#include "sim/batch.h"

namespace proto {

namespace {

constexpr std::uint8_t kMssOptionKind = 2;
constexpr int kMaxRexmtBackoff = 12;

}  // namespace

const char* TcpErrorName(TcpError e) {
  switch (e) {
    case TcpError::kNone: return "OK";
    case TcpError::kConnectionReset: return "ECONNRESET";
    case TcpError::kTimedOut: return "ETIMEDOUT";
  }
  return "?";
}

std::size_t ParseMssOption(const net::Mbuf& segment, const net::TcpHeader& hdr) {
  const std::size_t hdr_len = hdr.header_length();
  std::size_t off = sizeof(net::TcpHeader);
  while (off + 1 < hdr_len) {
    std::byte kind_b;
    segment.CopyOut(off, {&kind_b, 1});
    const auto kind = static_cast<std::uint8_t>(kind_b);
    if (kind == 0) break;      // end of options
    if (kind == 1) {           // NOP
      ++off;
      continue;
    }
    std::byte len_b;
    segment.CopyOut(off + 1, {&len_b, 1});
    const auto len = static_cast<std::uint8_t>(len_b);
    if (len < 2 || off + len > hdr_len) break;
    if (kind == kMssOptionKind && len == kMssOptionLen) {
      std::byte v[2];
      segment.CopyOut(off + 2, v);
      return (static_cast<std::size_t>(static_cast<std::uint8_t>(v[0])) << 8) |
             static_cast<std::uint8_t>(v[1]);
    }
    off += len;
  }
  return 0;
}

void WriteMssOption(net::Mbuf& segment, std::size_t mss) {
  const std::byte opt[kMssOptionLen] = {std::byte{kMssOptionKind}, std::byte{kMssOptionLen},
                                        static_cast<std::byte>(mss >> 8),
                                        static_cast<std::byte>(mss & 0xff)};
  segment.CopyIn(sizeof(net::TcpHeader), opt);
}

net::MbufPtr MakeRst(net::MbufPool* pool, const net::TcpHeader& offending,
                     net::Ipv4Address src, net::Ipv4Address dst, std::size_t payload_len) {
  net::TcpHeader rst;
  rst.src_port = offending.dst_port;
  rst.dst_port = offending.src_port;
  rst.flags = net::tcpflag::kRst;
  if (offending.flags & net::tcpflag::kAck) {
    rst.seq = offending.ack;
  } else {
    rst.flags |= net::tcpflag::kAck;
    const std::uint32_t syn_fin = ((offending.flags & net::tcpflag::kSyn) ? 1u : 0u) +
                                  ((offending.flags & net::tcpflag::kFin) ? 1u : 0u);
    rst.ack = offending.seq.value() + static_cast<std::uint32_t>(payload_len) + syn_fin;
  }
  rst.window = 0;
  rst.checksum = 0;
  auto m = net::PoolAllocate(pool, sizeof(rst));
  if (m == nullptr) return nullptr;  // pool dry: RSTs are best-effort
  net::StorePacket(*m, rst);
  rst.checksum = TransportChecksum(dst, src, net::ipproto::kTcp, *m);
  net::StorePacket(*m, rst);
  return m;
}

const char* TcpConnection::StateName(State s) {
  switch (s) {
    case State::kClosed: return "CLOSED";
    case State::kListen: return "LISTEN";
    case State::kSynSent: return "SYN_SENT";
    case State::kSynReceived: return "SYN_RECEIVED";
    case State::kEstablished: return "ESTABLISHED";
    case State::kFinWait1: return "FIN_WAIT_1";
    case State::kFinWait2: return "FIN_WAIT_2";
    case State::kCloseWait: return "CLOSE_WAIT";
    case State::kClosing: return "CLOSING";
    case State::kLastAck: return "LAST_ACK";
    case State::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(sim::Host& host, TcpConfig config, TcpEndpoints endpoints,
                             Callbacks callbacks)
    : host_(host),
      sim_(host.simulator()),
      config_(config),
      endpoints_(endpoints),
      cb_(std::move(callbacks)),
      rto_(config.rto_initial),
      effective_mss_(config.mss),
      retransmissions_ctr_(host.metrics().counter("tcp.retransmissions")),
      timeouts_ctr_(host.metrics().counter("tcp.timeouts")),
      rto_backoffs_ctr_(host.metrics().counter("tcp.rto_backoffs")),
      cwnd_hist_(host.metrics().histogram("tcp.cwnd_bytes")) {
  assert(config_.recv_window <= 65535 && "no window scaling in this era");
}

TcpConnection::~TcpConnection() {
  // Raw cancels, not CancelTimer(): a destructor must not Charge() — a
  // budget fence could throw through it during unwinding.
  sim_.Cancel(rexmt_timer_);
  sim_.Cancel(delack_timer_);
  sim_.Cancel(persist_timer_);
  sim_.Cancel(time_wait_timer_);
}

std::size_t TcpConnection::advertised_window() const {
  const std::size_t wnd =
      config_.recv_window > rcv_buffered_ ? config_.recv_window - rcv_buffered_ : 0;
  return std::min<std::size_t>(wnd, 65535);
}

// --- telemetry ----------------------------------------------------------------

TcpInfo TcpConnection::info() const {
  TcpInfo i;
  i.state = state_;
  i.cwnd = cwnd_;
  i.ssthresh = ssthresh_;
  i.mss = effective_mss_;
  i.in_fast_recovery = in_fast_recovery_;
  i.srtt_valid = srtt_valid_;
  i.srtt_ns = srtt_.ns();
  i.rttvar_ns = rttvar_.ns();
  i.rto_ns = rto_.ns();
  i.rexmt_backoff = rexmt_backoff_;
  i.retransmits = stats_.retransmissions;
  i.fast_retransmits = stats_.fast_retransmits;
  i.timeouts = stats_.timeouts;
  i.dup_acks = stats_.dup_acks_received;
  i.out_of_order_segments = stats_.out_of_order_segments;
  i.persist_probes = stats_.persist_probes;
  i.in_flight = bytes_in_flight();
  i.send_queue = send_buf_.size();
  i.snd_wnd = snd_wnd_;
  i.advertised_window = advertised_window();
  i.bytes_sent = stats_.bytes_sent;
  i.bytes_delivered = stats_.bytes_received;
  i.segments_sent = stats_.segments_sent;
  i.segments_received = stats_.segments_received;
  return i;
}

std::string TcpInfo::ToJson() const {
  std::string out = "{";
  out += "\"state\":\"" + std::string(TcpConnection::StateName(state)) + "\"";
  out += ",\"cwnd\":" + std::to_string(cwnd);
  out += ",\"ssthresh\":" + std::to_string(ssthresh);
  out += ",\"mss\":" + std::to_string(mss);
  out += std::string(",\"in_fast_recovery\":") + (in_fast_recovery ? "true" : "false");
  out += std::string(",\"srtt_valid\":") + (srtt_valid ? "true" : "false");
  out += ",\"srtt_ns\":" + std::to_string(srtt_ns);
  out += ",\"rttvar_ns\":" + std::to_string(rttvar_ns);
  out += ",\"rto_ns\":" + std::to_string(rto_ns);
  out += ",\"rexmt_backoff\":" + std::to_string(rexmt_backoff);
  out += ",\"retransmits\":" + std::to_string(retransmits);
  out += ",\"fast_retransmits\":" + std::to_string(fast_retransmits);
  out += ",\"timeouts\":" + std::to_string(timeouts);
  out += ",\"dup_acks\":" + std::to_string(dup_acks);
  out += ",\"out_of_order_segments\":" + std::to_string(out_of_order_segments);
  out += ",\"persist_probes\":" + std::to_string(persist_probes);
  out += ",\"in_flight\":" + std::to_string(in_flight);
  out += ",\"send_queue\":" + std::to_string(send_queue);
  out += ",\"snd_wnd\":" + std::to_string(snd_wnd);
  out += ",\"advertised_window\":" + std::to_string(advertised_window);
  out += ",\"bytes_sent\":" + std::to_string(bytes_sent);
  out += ",\"bytes_delivered\":" + std::to_string(bytes_delivered);
  out += ",\"segments_sent\":" + std::to_string(segments_sent);
  out += ",\"segments_received\":" + std::to_string(segments_received);
  out += "}";
  return out;
}

void TcpConnection::EnableSampling(sim::Duration min_interval, std::size_t capacity) {
  sample_interval_ = min_interval;
  sample_capacity_ = capacity;
  sample_ring_.clear();
  sample_ring_.reserve(capacity);
  sample_head_ = 0;
  samples_dropped_ = 0;
  has_sampled_ = false;
}

void TcpConnection::MaybeSample(bool force) {
  if (sample_capacity_ == 0) return;
  const sim::TimePoint now = sim_.Now();
  if (!force && has_sampled_ && now - last_sample_at_ < sample_interval_) return;
  has_sampled_ = true;
  last_sample_at_ = now;
  TcpSample s;
  s.at = now;
  s.cwnd = cwnd_;
  s.ssthresh = ssthresh_;
  s.srtt_ns = srtt_valid_ ? srtt_.ns() : -1;
  s.in_flight = static_cast<std::uint32_t>(bytes_in_flight());
  if (sample_ring_.size() < sample_capacity_) {
    sample_ring_.push_back(s);
  } else {
    sample_ring_[sample_head_] = s;
    sample_head_ = (sample_head_ + 1) % sample_capacity_;
    ++samples_dropped_;
  }
}

std::vector<TcpSample> TcpConnection::Samples() const {
  std::vector<TcpSample> out;
  out.reserve(sample_ring_.size());
  for (std::size_t i = 0; i < sample_ring_.size(); ++i) {
    out.push_back(sample_ring_[(sample_head_ + i) % sample_ring_.size()]);
  }
  return out;
}

std::string TcpConnection::SamplesJson() const {
  std::string out = "{\"samples\":[";
  bool first = true;
  for (const TcpSample& s : Samples()) {
    out += first ? "[" : ",[";
    out += std::to_string(s.at.ns()) + "," + std::to_string(s.cwnd) + "," +
           std::to_string(s.ssthresh) + "," + std::to_string(s.srtt_ns) + "," +
           std::to_string(s.in_flight) + "]";
    first = false;
  }
  out += "],\"dropped\":" + std::to_string(samples_dropped_) + "}";
  return out;
}

// --- open/close/app API -------------------------------------------------------

void TcpConnection::Connect() {
  assert(state_ == State::kClosed);
  iss_ = static_cast<Seq>(host_.rng().NextU64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  snd_max_ = snd_nxt_;
  state_ = State::kSynSent;
  SendControl(net::tcpflag::kSyn, iss_, /*with_mss_option=*/true);
  ArmRexmt();
}

void TcpConnection::Listen() {
  assert(state_ == State::kClosed);
  state_ = State::kListen;
}

void TcpConnection::CompleteFromSynCookie(Seq iss, Seq irs, std::uint16_t snd_wnd,
                                          std::size_t peer_mss) {
  assert(state_ == State::kListen);
  if (state_ != State::kListen) return;
  irs_ = irs;
  rcv_nxt_ = irs + 1;
  iss_ = iss;
  snd_una_ = iss + 1;
  snd_nxt_ = iss + 1;
  snd_max_ = iss + 1;
  snd_wnd_ = snd_wnd;
  // The MSS the peer offered on its SYN survived only as the cookie's
  // 3-bit ladder index; a rounded-down value degrades efficiency slightly,
  // never correctness. 0 (no option on the SYN) keeps our configured MSS.
  if (peer_mss > 0) effective_mss_ = std::min(config_.mss, peer_mss);
  syn_acked_ = true;
  state_ = State::kEstablished;
  cwnd_ = static_cast<std::uint32_t>(config_.initial_cwnd_segments * effective_mss_);
  if (cb_.on_established) cb_.on_established();
}

std::size_t TcpConnection::Send(std::span<const std::byte> data) {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kSynSent && state_ != State::kSynReceived) {
    return 0;
  }
  if (fin_pending_) return 0;  // no data after Close()
  const std::size_t room =
      config_.send_buffer > send_buf_.size() ? config_.send_buffer - send_buf_.size() : 0;
  const std::size_t take = std::min(room, data.size());
  send_buf_.insert(send_buf_.end(), data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take));
  if (state_ == State::kEstablished || state_ == State::kCloseWait) TrySend();
  return take;
}

void TcpConnection::Close() {
  switch (state_) {
    case State::kClosed:
    case State::kListen:
      EnterClosed("local close", /*was_reset=*/false);
      return;
    case State::kSynSent:
      EnterClosed("close in SYN_SENT", /*was_reset=*/false);
      return;
    case State::kSynReceived:
    case State::kEstablished:
    case State::kCloseWait:
      fin_pending_ = true;
      TrySend();
      return;
    default:
      return;  // close already in progress
  }
}

void TcpConnection::Abort() {
  if (state_ == State::kClosed) return;
  if (state_ != State::kListen) {
    SendRst(snd_nxt_, rcv_nxt_, /*with_ack=*/true);
  }
  EnterClosed("local abort", /*was_reset=*/false);
}

void TcpConnection::Vanish() {
  // Power-fail: no RST, no callbacks — the peer must discover the death
  // the hard way. Mark closed as already-reported so a later destructor
  // or stray path never resurrects a callback into freed app state.
  state_ = State::kClosed;
  closed_reported_ = true;
  // Raw cancels (CancelTimer would Charge, and there is no task context
  // when a crash strikes from outside the machine).
  sim_.Cancel(rexmt_timer_);
  sim_.Cancel(delack_timer_);
  sim_.Cancel(persist_timer_);
  sim_.Cancel(time_wait_timer_);
  rexmt_timer_ = sim::kInvalidEventId;
  delack_timer_ = sim::kInvalidEventId;
  persist_timer_ = sim::kInvalidEventId;
  time_wait_timer_ = sim::kInvalidEventId;
}

void TcpConnection::Consume(std::size_t n) {
  const std::size_t old_wnd = advertised_window();
  rcv_buffered_ = n >= rcv_buffered_ ? 0 : rcv_buffered_ - n;
  // Window update: if the usable window grew meaningfully, tell the peer
  // (silly-window avoidance: only when it opens by >= 1 MSS or from zero).
  const std::size_t new_wnd = advertised_window();
  if ((old_wnd == 0 && new_wnd > 0) || new_wnd - old_wnd >= effective_mss_) {
    SendAckNow();
  }
}

// --- segment emission ---------------------------------------------------------

void TcpConnection::EmitSegment(std::uint8_t flags, Seq seq, std::size_t buf_offset,
                                std::size_t len, bool with_mss_option, bool charge_costs) {
  const std::size_t hdr_len = sizeof(net::TcpHeader) + (with_mss_option ? kMssOptionLen : 0);

  // Pool dry: skip the emission entirely. TCP's own machinery recovers —
  // data retransmits on the rexmt timer, ACKs regenerate on the next
  // segment or delack tick. Every byte is written below, so the payload
  // is not zero-filled first.
  auto m = net::PoolAllocateUninit(host_.mbuf_pool(), hdr_len + len);
  if (m == nullptr) return;
  net::TcpHeader hdr;
  hdr.src_port = endpoints_.local_port;
  hdr.dst_port = endpoints_.remote_port;
  hdr.seq = seq;
  hdr.ack = (flags & net::tcpflag::kAck) ? rcv_nxt_ : 0;
  hdr.set_header_length(hdr_len);
  hdr.flags = flags;
  hdr.window = static_cast<std::uint16_t>(advertised_window());
  hdr.checksum = 0;
  net::StorePacket(*m, hdr);
  if (with_mss_option) WriteMssOption(*m, config_.mss);
  // The payload goes straight from the send buffer into the segment. The
  // head segment holds the header and at least one payload byte.
  auto src = send_buf_.begin() + static_cast<std::ptrdiff_t>(buf_offset);
  std::size_t skip = hdr_len;
  for (net::Mbuf* seg = m.get(); len > 0; seg = seg->next(), skip = 0) {
    const std::span<std::byte> dst = seg->mutable_data().subspan(skip);
    const auto n = static_cast<std::ptrdiff_t>(std::min(dst.size(), len));
    std::copy(src, src + n, dst.data());
    src += n;
    len -= static_cast<std::size_t>(n);
  }

  sim::TraceSpan span(host_, "tcp.output", "tcp", m->pkthdr().trace_id);
  if (charge_costs) {
    host_.Charge(host_.costs().tcp_output);
    sim::TraceSpan cks(host_, "tcp.checksum", "checksum");
    host_.Charge(host_.costs().checksum_per_byte *
                 static_cast<std::int64_t>(m->PacketLength()));
  }
  hdr.checksum = TransportChecksum(endpoints_.local_ip, endpoints_.remote_ip,
                                   net::ipproto::kTcp, *m);
  net::StorePacket(*m, hdr);

  ++stats_.segments_sent;
  last_advertised_wnd_ = hdr.window.value();
  delack_segments_ = 0;
  CancelTimer(delack_timer_);

  if (cb_.send_segment) cb_.send_segment(std::move(m), endpoints_.local_ip, endpoints_.remote_ip);
}

void TcpConnection::SendControl(std::uint8_t flags, Seq seq, bool with_mss_option) {
  EmitSegment(flags, seq, 0, 0, with_mss_option);
}

void TcpConnection::SendDataSegment(Seq seq, std::size_t len, bool rtt_candidate) {
  const std::size_t offset = SeqDiff(snd_una_, seq);
  assert(offset + len <= send_buf_.size());
  if (rtt_candidate && !rtt_timing_) StartRttTiming(seq);
  stats_.bytes_sent += len;
  if (len > effective_mss_ && effective_mss_ > 0) {
    // GSO jumbo: segmentation work and the checksum scan over the payload
    // are paid once here; each wire frame then costs gso_split. The frames
    // are byte-identical to what the per-packet loop would emit — same
    // MSS-aligned seq boundaries, PSH only on a frame that ends at the
    // send buffer's edge, a real checksum in every header.
    ++stats_.gso_jumbos;
    {
      sim::TraceSpan span(host_, "tcp.output.gso", "tcp");
      host_.Charge(host_.costs().tcp_output);
      sim::TraceSpan cks(host_, "tcp.checksum", "checksum");
      host_.Charge(host_.costs().checksum_per_byte *
                   static_cast<std::int64_t>(sizeof(net::TcpHeader) + len));
    }
    std::size_t off = 0;
    while (off < len) {
      const std::size_t chunk = std::min(effective_mss_, len - off);
      std::uint8_t flags = net::tcpflag::kAck;
      if (offset + off + chunk == send_buf_.size()) flags |= net::tcpflag::kPsh;
      host_.Charge(host_.costs().gso_split);
      EmitSegment(flags, seq + static_cast<std::uint32_t>(off), offset + off, chunk,
                  /*with_mss_option=*/false, /*charge_costs=*/false);
      off += chunk;
    }
    return;
  }
  std::uint8_t flags = net::tcpflag::kAck;
  if (offset + len == send_buf_.size()) flags |= net::tcpflag::kPsh;
  EmitSegment(flags, seq, offset, len, /*with_mss_option=*/false);
}

void TcpConnection::SendAckNow() {
  if (state_ == State::kClosed || state_ == State::kListen || state_ == State::kSynSent) return;
  SendControl(net::tcpflag::kAck, snd_nxt_, /*with_mss_option=*/false);
}

void TcpConnection::SendChallengeAck() {
  // The bucket check is pure arithmetic before any charge, so runs that
  // never trip RFC 5961 (i.e. every pre-hardening workload) are unchanged.
  if (!challenge_bucket_.Allow(host_.Now())) {
    if (challenge_ratelimited_ == nullptr) {
      challenge_ratelimited_ = &host_.metrics().counter("tcp.challenge_acks_ratelimited");
    }
    challenge_ratelimited_->Inc();
    return;
  }
  if (challenge_acks_ == nullptr) {
    challenge_acks_ = &host_.metrics().counter("tcp.challenge_acks");
  }
  challenge_acks_->Inc();
  SendAckNow();
}

void TcpConnection::SendRst(Seq seq, Seq ack, bool with_ack) {
  std::uint8_t flags = net::tcpflag::kRst;
  Seq use_seq = seq;
  if (with_ack) {
    flags |= net::tcpflag::kAck;
    rcv_nxt_ = ack;  // so EmitSegment fills the right ack field
  }
  EmitSegment(flags, use_seq, 0, 0, /*with_mss_option=*/false);
}

// --- output engine -------------------------------------------------------------

void TcpConnection::TrySend() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait1 && state_ != State::kClosing && state_ != State::kLastAck) {
    return;
  }

  const std::size_t win = std::min<std::size_t>(snd_wnd_, cwnd_);
  bool sent_any = false;

  // Under batching an emission may be a GSO jumbo of several MSS; the
  // per-packet path keeps the one-MSS cap so its output is untouched.
  const std::size_t send_cap =
      effective_mss_ * (sim::BatchConfig::enabled()
                            ? std::max<std::size_t>(1, config_.gso_segments)
                            : 1);

  // Push data.
  while (true) {
    const std::size_t data_sent = SeqDiff(snd_una_, snd_nxt_) -
                                  (fin_sent_ && SeqGe(snd_nxt_, fin_seq_ + 1) ? 1 : 0);
    if (data_sent >= send_buf_.size()) break;
    const std::size_t unsent = send_buf_.size() - data_sent;
    const std::size_t flight = bytes_in_flight();
    if (flight >= win) break;
    const std::size_t usable = win - flight;
    const std::size_t len = std::min({unsent, usable, send_cap});
    if (len == 0) break;
    SendDataSegment(snd_nxt_, len, /*rtt_candidate=*/true);
    snd_nxt_ += len;
    if (SeqGt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
    sent_any = true;
  }

  // Queue FIN once all data is out.
  if (fin_pending_ && !fin_sent_) {
    const std::size_t data_sent = SeqDiff(snd_una_, snd_nxt_);
    if (data_sent == send_buf_.size()) {
      fin_seq_ = snd_nxt_;
      fin_sent_ = true;
      snd_nxt_ += 1;
      if (SeqGt(snd_nxt_, snd_max_)) snd_max_ = snd_nxt_;
      if (state_ == State::kEstablished) {
        state_ = State::kFinWait1;
      } else if (state_ == State::kCloseWait) {
        state_ = State::kLastAck;
      }
      SendControl(net::tcpflag::kFin | net::tcpflag::kAck, fin_seq_, false);
      sent_any = true;
    }
  }

  if (sent_any) {
    ArmRexmt();
  } else if (snd_wnd_ == 0 && bytes_in_flight() == 0 &&
             (send_buf_.size() > 0 || (fin_pending_ && !fin_sent_))) {
    ArmPersist();
  }
}

// --- input ----------------------------------------------------------------------

void TcpConnection::Input(net::MbufPtr segment, net::Ipv4Address src_ip,
                          net::Ipv4Address dst_ip) {
  sim::TraceSpan span(host_, "tcp.input", "tcp", segment->pkthdr().trace_id);
  host_.Charge(host_.costs().tcp_input);
  ++stats_.segments_received;

  net::TcpHeader hdr;
  try {
    hdr = net::ViewPacket<net::TcpHeader>(*segment);
  } catch (const net::ViewError&) {
    return;
  }
  if (hdr.header_length() < sizeof(net::TcpHeader) ||
      hdr.header_length() > segment->PacketLength()) {
    return;
  }

  {
    sim::TraceSpan cks(host_, "tcp.checksum", "checksum");
    host_.Charge(host_.costs().checksum_per_byte *
                 static_cast<std::int64_t>(segment->PacketLength()));
  }
  if (TransportChecksum(src_ip, dst_ip, net::ipproto::kTcp, *segment) != 0) {
    ++stats_.bad_checksums;
    return;
  }

  const std::size_t payload_len = segment->PacketLength() - hdr.header_length();
  const bool has_rst = hdr.flags & net::tcpflag::kRst;
  const bool has_syn = hdr.flags & net::tcpflag::kSyn;
  const bool has_fin = hdr.flags & net::tcpflag::kFin;
  const bool has_ack = hdr.flags & net::tcpflag::kAck;

  switch (state_) {
    case State::kClosed:
      if (!has_rst) {
        if (has_ack) {
          SendRst(hdr.ack.value(), 0, /*with_ack=*/false);
        } else {
          SendRst(0, hdr.seq.value() + payload_len + (has_syn ? 1 : 0) + (has_fin ? 1 : 0),
                  /*with_ack=*/true);
        }
      }
      return;

    case State::kListen:
      if (has_rst) return;
      if (has_ack) {
        SendRst(hdr.ack.value(), 0, /*with_ack=*/false);
        return;
      }
      if (has_syn) ProcessListen(hdr);
      if (auto mss = ParseMssOption(*segment, hdr); mss > 0) {
        effective_mss_ = std::min(config_.mss, mss);
      }
      return;

    case State::kSynSent:
      if (auto mss = ParseMssOption(*segment, hdr); mss > 0) {
        effective_mss_ = std::min(config_.mss, mss);
      }
      ProcessSynSent(hdr);
      return;

    case State::kTimeWait:
      // Retransmitted FIN: re-ack and restart 2MSL.
      if (has_fin) {
        SendAckNow();
        EnterTimeWait();
      }
      return;

    default:
      break;
  }

  // --- synchronized states: sequence acceptability check ---
  const Seq seq = hdr.seq.value();
  const std::size_t seg_len = payload_len + (has_syn ? 1 : 0) + (has_fin ? 1 : 0);
  const std::size_t rwnd = advertised_window();
  const bool before_window = seg_len > 0 ? SeqLe(seq + static_cast<Seq>(seg_len), rcv_nxt_)
                                         : SeqLt(seq, rcv_nxt_);
  const bool beyond_window = SeqGt(seq, rcv_nxt_ + static_cast<Seq>(rwnd));
  if ((before_window && seg_len > 0) || beyond_window) {
    if (!has_rst) SendAckNow();
    return;
  }

  if (has_rst) {
    // RFC 5961 §3.2: only a RST landing exactly on rcv_nxt tears the
    // connection down. An in-window-but-inexact RST is indistinguishable
    // from a blind spoof guessing inside our window, so it elicits a
    // challenge ACK instead; a genuine resetting peer (now CLOSED) answers
    // the challenge with an exact-sequence RST one RTT later.
    if (seq == rcv_nxt_) {
      EnterClosed("connection reset by peer", /*was_reset=*/true);
    } else {
      SendChallengeAck();
    }
    return;
  }
  if (has_syn && SeqGe(seq, rcv_nxt_)) {
    // RFC 5961 §4.2: an in-window SYN on a synchronized connection must
    // not kill it (the old "SYN in window -> RST + teardown" rule let one
    // blind spoofed SYN reset any guessable connection). Challenge-ack; a
    // peer that genuinely restarted replies to the challenge with an
    // exact-sequence RST and the connection resets through the RST path.
    SendChallengeAck();
    return;
  }
  if (!has_ack) return;  // synchronized states require ACK

  if (state_ == State::kSynReceived) {
    if (SeqGt(hdr.ack.value(), iss_) && SeqLe(hdr.ack.value(), snd_nxt_)) {
      state_ = State::kEstablished;
      syn_acked_ = true;
      snd_una_ = iss_ + 1;
      snd_wnd_ = hdr.window.value();
      cwnd_ = static_cast<std::uint32_t>(config_.initial_cwnd_segments * effective_mss_);
      CancelRexmt();
      if (cb_.on_established) cb_.on_established();
    } else {
      SendRst(hdr.ack.value(), 0, /*with_ack=*/false);
      return;
    }
  }

  ProcessAck(hdr);
  if (state_ == State::kClosed) return;

  if (payload_len > 0) {
    ProcessData(std::move(segment), hdr, payload_len);
  }
  if (has_fin) {
    fin_received_ = true;
    peer_fin_seq_ = seq + static_cast<Seq>(payload_len);
  }
  if (fin_received_ && rcv_nxt_ == peer_fin_seq_) {
    ProcessFin(peer_fin_seq_);
  }
}

void TcpConnection::ProcessListen(const net::TcpHeader& hdr) {
  irs_ = hdr.seq.value();
  rcv_nxt_ = irs_ + 1;
  snd_wnd_ = hdr.window.value();
  iss_ = static_cast<Seq>(host_.rng().NextU64());
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  state_ = State::kSynReceived;
  SendControl(net::tcpflag::kSyn | net::tcpflag::kAck, iss_, /*with_mss_option=*/true);
  ArmRexmt();
}

void TcpConnection::ProcessSynSent(const net::TcpHeader& hdr) {
  const bool has_rst = hdr.flags & net::tcpflag::kRst;
  const bool has_syn = hdr.flags & net::tcpflag::kSyn;
  const bool has_ack = hdr.flags & net::tcpflag::kAck;

  if (has_ack && (SeqLe(hdr.ack.value(), iss_) || SeqGt(hdr.ack.value(), snd_nxt_))) {
    if (!has_rst) SendRst(hdr.ack.value(), 0, /*with_ack=*/false);
    return;
  }
  if (has_rst) {
    if (has_ack) EnterClosed("connection refused", /*was_reset=*/true);
    return;
  }
  if (!has_syn) return;

  irs_ = hdr.seq.value();
  rcv_nxt_ = irs_ + 1;
  snd_wnd_ = hdr.window.value();

  if (has_ack) {
    // SYN|ACK: the normal active-open path.
    snd_una_ = hdr.ack.value();
    syn_acked_ = true;
    state_ = State::kEstablished;
    cwnd_ = static_cast<std::uint32_t>(config_.initial_cwnd_segments * effective_mss_);
    CancelRexmt();
    UpdateRttOnAck(hdr.ack.value());
    SendAckNow();
    if (cb_.on_established) cb_.on_established();
    TrySend();
  } else {
    // Simultaneous open.
    state_ = State::kSynReceived;
    SendControl(net::tcpflag::kSyn | net::tcpflag::kAck, iss_, /*with_mss_option=*/true);
    ArmRexmt();
  }
}

void TcpConnection::ProcessAck(const net::TcpHeader& hdr) {
  const Seq ack = hdr.ack.value();

  if (SeqGt(ack, snd_max_)) {
    SendAckNow();  // ack for data we have never sent
    return;
  }
  if (SeqGt(ack, snd_nxt_)) {
    // The ack covers data sent before a timeout rewind; pull the send point
    // forward so the byte accounting below stays consistent.
    snd_nxt_ = ack;
  }

  // RFC 5961 §5.2: an ACK far behind snd_una (more than any plausible
  // retransmission reordering — we allow 1 MiB) is a blind-data forgery
  // probe, not a late duplicate. Challenge-ack it before it can feed the
  // duplicate-ACK machinery below.
  constexpr Seq kMaxAckBehind = 1u << 20;
  if (SeqLt(ack + kMaxAckBehind, snd_una_)) {
    SendChallengeAck();
    return;
  }

  if (SeqLe(ack, snd_una_)) {
    // Window update even on duplicate/old acks.
    snd_wnd_ = hdr.window.value();
    if (snd_wnd_ > 0) {
      CancelTimer(persist_timer_);
      persist_backoff_ = 0;
      persist_unanswered_ = 0;
    }
    // Duplicate-ACK detection (RFC-style: no payload, ack == snd_una, data
    // outstanding).
    if (ack == snd_una_ && bytes_in_flight() > 0) {
      ++dupacks_;
      ++stats_.dup_acks_received;
      if (dupacks_ == 3) {
        // Fast retransmit + fast recovery (Reno).
        const std::uint32_t flight = static_cast<std::uint32_t>(bytes_in_flight());
        ssthresh_ = std::max<std::uint32_t>(flight / 2,
                                            2 * static_cast<std::uint32_t>(effective_mss_));
        const std::size_t len = std::min<std::size_t>(effective_mss_, send_buf_.size());
        if (len > 0) {
          ++stats_.fast_retransmits;
          NoteRetransmission();
          SendDataSegment(snd_una_, len, /*rtt_candidate=*/false);
          rtt_timing_ = false;  // Karn: retransmitted segment can't time RTT
        }
        cwnd_ = ssthresh_ + 3 * static_cast<std::uint32_t>(effective_mss_);
        RecordCwndSample();
        MaybeSample(/*force=*/true);  // loss event: always lands in the series
        in_fast_recovery_ = true;
      } else if (dupacks_ > 3 && in_fast_recovery_) {
        cwnd_ += static_cast<std::uint32_t>(effective_mss_);
        TrySend();
      }
    }
    TrySend();
    return;
  }

  // New data acknowledged.
  const std::uint32_t acked = SeqDiff(snd_una_, ack);
  UpdateRttOnAck(ack);

  // Remove acknowledged bytes from the send buffer. Control sequence
  // numbers (SYN already consumed before ESTABLISHED; FIN at fin_seq_) do
  // not occupy buffer space.
  std::uint32_t data_acked = acked;
  if (fin_sent_ && SeqGe(ack, fin_seq_ + 1)) data_acked -= 1;  // FIN byte
  const std::size_t remove = std::min<std::size_t>(data_acked, send_buf_.size());
  send_buf_.erase(send_buf_.begin(), send_buf_.begin() + static_cast<std::ptrdiff_t>(remove));
  snd_una_ = ack;
  snd_wnd_ = hdr.window.value();
  if (snd_wnd_ > 0) {
    persist_backoff_ = 0;
    persist_unanswered_ = 0;
  }

  if (in_fast_recovery_) {
    cwnd_ = ssthresh_;  // deflate
    RecordCwndSample();
    in_fast_recovery_ = false;
  } else {
    OpenCongestionWindow(data_acked);
  }
  dupacks_ = 0;
  rexmt_backoff_ = 0;
  MaybeSample();  // ACK clock, interval-gated

  if (bytes_in_flight() == 0) {
    CancelRexmt();
  } else {
    ArmRexmt();
  }

  // FIN acknowledged?
  if (fin_sent_ && SeqGe(ack, fin_seq_ + 1)) {
    switch (state_) {
      case State::kFinWait1:
        state_ = fin_received_ && SeqGt(rcv_nxt_, peer_fin_seq_) ? State::kTimeWait
                                                                 : State::kFinWait2;
        if (state_ == State::kTimeWait) EnterTimeWait();
        break;
      case State::kClosing:
        EnterTimeWait();
        break;
      case State::kLastAck:
        EnterClosed("orderly shutdown", /*was_reset=*/false);
        return;
      default:
        break;
    }
  }

  if (cb_.on_send_ready && send_buf_.size() < config_.send_buffer / 2 && remove > 0) {
    cb_.on_send_ready();
  }
  TrySend();
}

void TcpConnection::ProcessData(net::MbufPtr segment, const net::TcpHeader& hdr,
                                std::size_t payload_len) {
  Seq seq = hdr.seq.value();
  segment->TrimFront(hdr.header_length());
  // One contiguous span per segment (a socket charges per on_data call):
  // the payload in place when it sits in one mbuf segment, else one copy
  // into a buffer that is written in full, so never zero-filled. Either
  // lives exactly as long as this call.
  std::unique_ptr<std::byte[]> flat;
  std::span<const std::byte> bytes = segment->data();
  if (bytes.size() != payload_len) {
    flat = std::make_unique_for_overwrite<std::byte[]>(payload_len);
    bytes = {flat.get(), payload_len};
    segment->CopyOut(0, {flat.get(), payload_len});
  }

  // Trim any portion before rcv_nxt.
  if (SeqLt(seq, rcv_nxt_)) {
    const std::size_t skip = SeqDiff(seq, rcv_nxt_);
    if (skip >= bytes.size()) {
      SendAckNow();
      return;
    }
    bytes = bytes.subspan(skip);
    seq = rcv_nxt_;
  }

  if (seq == rcv_nxt_) {
    // Enforce the advertised window: data beyond it is dropped (the sender
    // will retransmit once the window reopens).
    const std::size_t wnd = advertised_window();
    if (bytes.size() > wnd) {
      bytes = bytes.first(wnd);
      if (bytes.empty()) {
        SendAckNow();
        return;
      }
    }
    rcv_nxt_ += static_cast<Seq>(bytes.size());
    stats_.bytes_received += bytes.size();
    if (!auto_consume_) rcv_buffered_ += bytes.size();
    if (cb_.on_data) cb_.on_data(bytes);
    DeliverInOrder();

    // Delayed ACK: every second segment, or after the timer.
    ++delack_segments_;
    if (!config_.delayed_ack_enabled || delack_segments_ >= 2 ||
        (fin_received_ && rcv_nxt_ == peer_fin_seq_)) {
      SendAckNow();
    } else {
      ArmDelack();
    }
  } else {
    // Out of order: hold and send an immediate duplicate ACK.
    ++stats_.out_of_order_segments;
    auto it = ooo_.find(seq);
    if (it == ooo_.end() || it->second.size() < bytes.size()) {
      ooo_[seq].assign(bytes.begin(), bytes.end());
    }
    SendAckNow();
  }
}

void TcpConnection::DeliverInOrder() {
  while (!ooo_.empty()) {
    auto it = ooo_.begin();
    const Seq seq = it->first;
    std::vector<std::byte>& bytes = it->second;
    if (SeqGt(seq, rcv_nxt_)) break;  // still a hole
    const std::size_t skip = SeqDiff(seq, rcv_nxt_);
    if (skip < bytes.size()) {
      std::span<const std::byte> fresh{bytes.data() + skip, bytes.size() - skip};
      rcv_nxt_ += static_cast<Seq>(fresh.size());
      stats_.bytes_received += fresh.size();
      if (!auto_consume_) rcv_buffered_ += fresh.size();
      if (cb_.on_data) cb_.on_data(fresh);
    }
    ooo_.erase(it);
  }
}

void TcpConnection::ProcessFin(Seq fin_seq) {
  if (SeqGt(rcv_nxt_, fin_seq)) return;  // already processed
  rcv_nxt_ = fin_seq + 1;
  SendAckNow();

  // Transition BEFORE delivering EOF: an app that answers on_remote_close
  // with an immediate Close() must close from kCloseWait (passive close,
  // -> LAST_ACK -> CLOSED), not from kEstablished — the latter reads as a
  // simultaneous close and parks the passive side in TIME_WAIT for 2MSL.
  switch (state_) {
    case State::kEstablished:
      state_ = State::kCloseWait;
      break;
    case State::kFinWait1:
      // Our FIN not yet acked: simultaneous close.
      state_ = State::kClosing;
      break;
    case State::kFinWait2:
      EnterTimeWait();
      break;
    default:
      break;
  }
  if (cb_.on_remote_close) cb_.on_remote_close();
}

// --- timers -----------------------------------------------------------------

void TcpConnection::ChargeTimerOp() {
  if (host_.in_task()) host_.Charge(host_.costs().timer_op);
}

sim::EventId TcpConnection::ScheduleTimer(sim::Duration delay,
                                          const char* trace_name,
                                          void (TcpConnection::*handler)()) {
  ChargeTimerOp();
  // Timers armed while processing a packet remember that packet's trace id;
  // when the timer fires (e.g. a retransmission), the work it triggers is
  // attributed to the packet that armed it.
  const std::uint64_t armed_by =
      host_.in_task() ? host_.current_trace_id() : 0;
  return sim_.Schedule(delay, [this, trace_name, armed_by, handler] {
    host_.Submit(sim::Priority::kKernel, [this, trace_name, armed_by, handler] {
      sim::PacketTraceScope scope(host_, armed_by);
      host_.TraceInstant(trace_name, "timer");
      ChargeTimerOp();
      (this->*handler)();
    });
  });
}

void TcpConnection::CancelTimer(sim::EventId& timer) {
  if (timer != sim::kInvalidEventId && sim_.IsPending(timer)) ChargeTimerOp();
  sim_.Cancel(timer);
  timer = sim::kInvalidEventId;
}

void TcpConnection::ArmRexmt() {
  CancelRexmt();
  sim::Duration timeout = rto_;
  for (int i = 0; i < rexmt_backoff_; ++i) timeout = timeout * 2;
  if (timeout > config_.rto_max) timeout = config_.rto_max;
  rexmt_timer_ =
      ScheduleTimer(timeout, "tcp.timer.rexmt", &TcpConnection::OnRexmtTimeout);
}

void TcpConnection::CancelRexmt() { CancelTimer(rexmt_timer_); }

void TcpConnection::OnRexmtTimeout() {
  if (state_ == State::kClosed || state_ == State::kListen || state_ == State::kTimeWait) return;
  ++stats_.timeouts;
  timeouts_ctr_.Inc();
  rto_backoffs_ctr_.Inc();
  if (++rexmt_backoff_ > kMaxRexmtBackoff) {
    EnterClosed("retransmission limit exceeded", /*was_reset=*/true, TcpError::kTimedOut);
    return;
  }
  rtt_timing_ = false;  // Karn

  switch (state_) {
    case State::kSynSent:
      NoteRetransmission();
      SendControl(net::tcpflag::kSyn, iss_, /*with_mss_option=*/true);
      break;
    case State::kSynReceived:
      NoteRetransmission();
      SendControl(net::tcpflag::kSyn | net::tcpflag::kAck, iss_, /*with_mss_option=*/true);
      break;
    default: {
      // Timeout congestion response: collapse to one segment.
      const std::uint32_t flight = static_cast<std::uint32_t>(bytes_in_flight());
      ssthresh_ = std::max<std::uint32_t>(flight / 2,
                                          2 * static_cast<std::uint32_t>(effective_mss_));
      cwnd_ = static_cast<std::uint32_t>(effective_mss_);
      RecordCwndSample();
      MaybeSample(/*force=*/true);  // timeout collapse: always lands
      in_fast_recovery_ = false;
      dupacks_ = 0;
      if (!send_buf_.empty()) {
        // Go-back-N: rewind and let TrySend re-emit within the collapsed
        // window. A sent-but-unacked FIN will be re-emitted after the data.
        snd_nxt_ = snd_una_;
        if (fin_sent_) fin_sent_ = false;
        NoteRetransmission();
        TrySend();
      } else if (fin_sent_) {
        NoteRetransmission();
        SendControl(net::tcpflag::kFin | net::tcpflag::kAck, fin_seq_, false);
      }
      break;
    }
  }
  ArmRexmt();
}

void TcpConnection::ArmDelack() {
  if (delack_timer_ != sim::kInvalidEventId && sim_.IsPending(delack_timer_)) return;
  delack_timer_ = ScheduleTimer(config_.delayed_ack, "tcp.timer.delack",
                                &TcpConnection::OnDelackTimeout);
}

void TcpConnection::OnDelackTimeout() {
  delack_timer_ = sim::kInvalidEventId;
  if (delack_segments_ > 0) SendAckNow();
}

sim::Duration TcpConnection::current_persist_interval() const {
  sim::Duration interval = config_.persist_interval;
  for (int i = 0; i < persist_backoff_; ++i) {
    interval = interval * 2;
    if (interval >= config_.persist_max) return config_.persist_max;
  }
  return interval;
}

void TcpConnection::ArmPersist() {
  if (persist_timer_ != sim::kInvalidEventId && sim_.IsPending(persist_timer_)) return;
  persist_timer_ = ScheduleTimer(current_persist_interval(), "tcp.timer.persist",
                                 &TcpConnection::OnPersistTimeout);
}

void TcpConnection::OnPersistTimeout() {
  persist_timer_ = sim::kInvalidEventId;
  if (state_ == State::kClosed || snd_wnd_ > 0) {
    TrySend();
    return;
  }
  // A peer that answers no probes is gone; probing forever would hold the
  // connection (and its timers) open for a dead host.
  if (persist_unanswered_ >= config_.max_persist_probes) {
    EnterClosed("persist timeout", /*was_reset=*/true, TcpError::kTimedOut);
    return;
  }
  // Zero-window probe: one byte beyond the window, backing off
  // exponentially (capped at persist_max) like the rexmt timer.
  const std::size_t data_sent = SeqDiff(snd_una_, snd_nxt_);
  if (data_sent < send_buf_.size()) {
    ++stats_.persist_probes;
    ++persist_unanswered_;
    SendDataSegment(snd_nxt_, 1, /*rtt_candidate=*/false);
  }
  ++persist_backoff_;
  ArmPersist();
}

void TcpConnection::EnterTimeWait() {
  state_ = State::kTimeWait;
  CancelRexmt();
  CancelTimer(time_wait_timer_);
  time_wait_timer_ = ScheduleTimer(config_.msl * 2, "tcp.timer.time_wait",
                                   &TcpConnection::OnTimeWaitTimeout);
}

void TcpConnection::OnTimeWaitTimeout() {
  if (state_ == State::kTimeWait) EnterClosed("2MSL expired", /*was_reset=*/false);
}

// --- RTT / congestion ---------------------------------------------------------

void TcpConnection::StartRttTiming(Seq seq) {
  rtt_timing_ = true;
  rtt_seq_ = seq;
  rtt_start_ = sim_.Now();
}

void TcpConnection::UpdateRttOnAck(Seq acked_through) {
  if (!rtt_timing_ || !SeqGt(acked_through, rtt_seq_)) return;
  rtt_timing_ = false;
  const sim::Duration m = sim_.Now() - rtt_start_;
  if (!srtt_valid_) {
    srtt_ = m;
    rttvar_ = m / 2;
    srtt_valid_ = true;
  } else {
    const sim::Duration err = m > srtt_ ? m - srtt_ : srtt_ - m;
    // srtt += (m - srtt)/8 without going negative through Duration.
    srtt_ = srtt_ + (m - srtt_) / 8;
    rttvar_ = rttvar_ + (err - rttvar_) / 4;
  }
  sim::Duration rto = srtt_ + rttvar_ * 4;
  if (rto < config_.rto_min) rto = config_.rto_min;
  if (rto > config_.rto_max) rto = config_.rto_max;
  rto_ = rto;
}

void TcpConnection::OpenCongestionWindow(std::uint32_t acked_bytes) {
  const auto mss = static_cast<std::uint32_t>(effective_mss_);
  if (cwnd_ < ssthresh_) {
    cwnd_ += std::min(acked_bytes, mss);  // slow start
  } else {
    cwnd_ += std::max<std::uint32_t>(1, mss * mss / cwnd_);  // congestion avoidance
  }
  // Clamp to the send buffer scale to avoid silly growth.
  cwnd_ = std::min<std::uint32_t>(cwnd_, 1 << 24);
  RecordCwndSample();
}

void TcpConnection::EnterClosed(const std::string& reason, bool was_reset,
                                TcpError error) {
  const bool was_open = state_ != State::kClosed;
  state_ = State::kClosed;
  CancelRexmt();
  CancelTimer(delack_timer_);
  CancelTimer(persist_timer_);
  CancelTimer(time_wait_timer_);
  if (!was_open) return;
  // Every reset-family termination is ECONNRESET unless the call site
  // classified it more precisely (timeouts pass kTimedOut explicitly).
  if (error == TcpError::kNone && was_reset) error = TcpError::kConnectionReset;
  if (was_reset && cb_.on_reset) cb_.on_reset(reason);
  if (error != TcpError::kNone && cb_.on_error) cb_.on_error(error);
  if (!closed_reported_) {
    closed_reported_ = true;
    if (cb_.on_closed) cb_.on_closed();
  }
}

}  // namespace proto
