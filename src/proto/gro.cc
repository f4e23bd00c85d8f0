#include "proto/gro.h"

#include "net/view.h"
#include "proto/transport_checksum.h"

namespace proto {

namespace {

// The 1s-complement sum a segment's payload must have for the segment to
// verify, read off its own checksum field: the field makes pseudo-header +
// header + payload sum to zero, so the payload's share is the negation of
// the other two. 32 bytes of work whatever the payload size.
std::uint16_t VouchedPayloadSum(const net::TcpHeader& hdr, net::Ipv4Address src,
                                net::Ipv4Address dst, std::size_t segment_len) {
  net::InternetChecksum sum;
  AddPseudoHeader(sum, src, dst, net::ipproto::kTcp, segment_len);
  sum.Add({reinterpret_cast<const std::byte*>(&hdr), sizeof(hdr)});
  return sum.Finish();
}

}  // namespace

GroEngine::GroEngine(sim::Host& host, Sink sink, Config config)
    : host_(host), sink_(std::move(sink)), config_(config) {}

bool GroEngine::Coalescable(const net::TcpHeader& hdr, std::size_t payload_len) {
  return hdr.flags == net::tcpflag::kAck &&
         hdr.header_length() == sizeof(net::TcpHeader) && payload_len > 0;
}

bool GroEngine::Extends(const net::TcpHeader& hdr, net::Ipv4Address src,
                        net::Ipv4Address dst) const {
  return src == held_src_ && dst == held_dst_ &&
         hdr.src_port.value() == held_hdr_.src_port.value() &&
         hdr.dst_port.value() == held_hdr_.dst_port.value() &&
         hdr.seq.value() == held_next_seq_ &&
         hdr.ack.value() == held_hdr_.ack.value() &&
         hdr.window.value() == held_hdr_.window.value() &&
         held_count_ < config_.max_merge;
}

void GroEngine::Push(net::MbufPtr segment, net::Ipv4Address src,
                     net::Ipv4Address dst) {
  ++stats_.pushed;
  net::TcpHeader hdr;
  try {
    hdr = net::ViewPacket<net::TcpHeader>(*segment);
  } catch (const net::ViewError&) {
    // Truncated runt: the demux's own view would only throw it away again —
    // drop it here and count it at this layer, without disturbing the held
    // chain (a hostile runt must not be able to force flushes). In
    // per-packet mode the same frame dies at TcpDemux instead, so
    // mode-identity checks compare the tcp+gro malformed sum.
    ++stats_.malformed;
    if (malformed_ == nullptr) {
      malformed_ = &host_.metrics().counter("proto.gro.malformed_drops");
    }
    malformed_->Inc();
    return;
  }
  const std::size_t header_len =
      hdr.header_length() >= sizeof(net::TcpHeader) ? hdr.header_length()
                                                    : sizeof(net::TcpHeader);
  const std::size_t total = segment->PacketLength();
  const std::size_t payload_len = total > header_len ? total - header_len : 0;

  if (!Coalescable(hdr, payload_len)) {
    // Connection-state edges (SYN/FIN/RST/PSH/URG), options, bare ACKs:
    // flush first so the state machine sees everything in arrival order.
    FlushAll();
    ++stats_.passthrough;
    sink_(std::move(segment), src, dst);
    return;
  }

  const std::uint16_t vouched = VouchedPayloadSum(hdr, src, dst, total);
  if (held_ != nullptr && Extends(hdr, src, dst)) {
    // Fold: strip the repeated header, append the payload bytes to the
    // held chain. One gro_merge instead of a full per-segment input pass.
    if (host_.in_task()) host_.Charge(host_.costs().gro_merge);
    segment->TrimFront(header_len);
    held_->AppendChain(std::move(segment));
    // A payload that starts at an odd offset of the merged payload has
    // every byte in the other half of its 16-bit word, so its sum enters
    // byte-swapped (RFC 1071 §2(B)).
    std::uint16_t sum = vouched;
    if ((held_next_seq_ - held_hdr_.seq.value()) & 1) {
      sum = static_cast<std::uint16_t>((sum << 8) | (sum >> 8));
    }
    held_payload_sum_.AddU16(sum);
    held_next_seq_ += static_cast<std::uint32_t>(payload_len);
    ++held_count_;
    ++stats_.merged;
    return;
  }

  if (held_ != nullptr) FlushAll();
  StartChain(std::move(segment), hdr, src, dst, payload_len, vouched);
}

void GroEngine::StartChain(net::MbufPtr segment, const net::TcpHeader& hdr,
                           net::Ipv4Address src, net::Ipv4Address dst,
                           std::size_t payload_len, std::uint16_t vouched) {
  held_ = std::move(segment);
  held_hdr_ = hdr;
  held_src_ = src;
  held_dst_ = dst;
  held_next_seq_ = hdr.seq.value() + static_cast<std::uint32_t>(payload_len);
  held_payload_sum_ = net::InternetChecksum();
  held_payload_sum_.AddU16(vouched);  // offset 0: no swap
  held_count_ = 1;
}

void GroEngine::FlushAll() {
  if (held_ == nullptr) return;
  net::MbufPtr chain = std::move(held_);
  held_ = nullptr;
  const std::size_t count = held_count_;
  held_count_ = 0;
  if (count > 1) {
    // The first segment's checksum no longer covers the grown payload.
    // Derive the merged one from the constituents' vouched payload sums
    // instead of re-scanning the chain: a valid chain gets exactly the
    // checksum a rescan would, and a constituent whose bytes disagree with
    // its own checksum leaves the merged segment failing tcp_input's
    // verification, as it would have failed alone.
    net::TcpHeader hdr = held_hdr_;
    hdr.checksum = 0;
    net::InternetChecksum sum = held_payload_sum_;
    AddPseudoHeader(sum, held_src_, held_dst_, net::ipproto::kTcp,
                    sizeof(hdr) + (held_next_seq_ - hdr.seq.value()));
    sum.Add({reinterpret_cast<const std::byte*>(&hdr), sizeof(hdr)});
    hdr.checksum = sum.Finish();
    net::StorePacket(*chain, hdr);
  }
  ++stats_.flushes;
  sink_(std::move(chain), held_src_, held_dst_);
}

}  // namespace proto
