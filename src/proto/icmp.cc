#include "proto/icmp.h"

#include <cstring>

#include "net/checksum.h"
#include "net/mbuf_pool.h"
#include "net/view.h"
#include "proto/ip.h"

namespace proto {

IcmpLayer::IcmpLayer(sim::Host& host, Ipv4Layer& ip) : host_(host), ip_(ip) {}

void IcmpLayer::Send(net::MbufPtr packet, net::Ipv4Address dst) {
  // Compute the ICMP checksum over the whole message.
  net::InternetChecksum sum;
  packet->ForEachSegment([&sum](std::span<const std::byte> s) { sum.Add(s); });
  auto hdr = net::ViewPacket<net::IcmpHeader>(*packet);
  hdr.checksum = sum.Finish();
  net::StorePacket(*packet, hdr);
  host_.Charge(host_.costs().checksum_per_byte *
               static_cast<std::int64_t>(packet->PacketLength()));
  ip_.Output(std::move(packet), net::Ipv4Address::Any(), dst, net::ipproto::kIcmp);
}

void IcmpLayer::SendEchoRequest(net::Ipv4Address dst, std::uint16_t id, std::uint16_t seq,
                                std::size_t payload_len) {
  host_.Charge(host_.costs().icmp_process);
  net::IcmpHeader hdr;
  hdr.type = net::icmptype::kEchoRequest;
  hdr.id = id;
  hdr.seq = seq;
  auto m = net::PoolAllocate(host_.mbuf_pool(), sizeof(hdr) + payload_len);
  if (m == nullptr) return;  // pool dry: the ping is simply lost
  net::StorePacket(*m, hdr);
  for (std::size_t i = 0; i < payload_len; ++i) {
    const std::byte b{static_cast<unsigned char>(i & 0xff)};
    m->CopyIn(sizeof(hdr) + i, {&b, 1});
  }
  ++stats_.echo_requests_sent;
  Send(std::move(m), dst);
}

void IcmpLayer::SendError(const net::Ipv4Header& offending, std::uint8_t type,
                          std::uint8_t code) {
  // Checked before any charge or allocation: a suppressed error costs the
  // victim nothing, and the allowed path is byte-identical to the
  // pre-hardening stack (the bucket never denies in benign runs).
  if (!error_bucket_.Allow(host_.Now())) {
    ++stats_.ratelimited;
    if (ratelimited_ == nullptr) {
      ratelimited_ = &host_.metrics().counter("icmp.ratelimited");
    }
    ratelimited_->Inc();
    return;
  }
  host_.Charge(host_.costs().icmp_process);
  // Error messages carry the offending IP header (RFC 792; we omit the
  // first 8 payload bytes for simplicity — consumers in this system only
  // inspect the embedded header).
  net::IcmpHeader hdr;
  hdr.type = type;
  hdr.code = code;
  auto m = net::PoolAllocate(host_.mbuf_pool(), sizeof(hdr) + sizeof(net::Ipv4Header));
  if (m == nullptr) return;  // pool dry: ICMP errors are best-effort
  net::StorePacket(*m, hdr);
  net::StorePacket(*m, offending, sizeof(hdr));
  ++stats_.errors_sent;
  Send(std::move(m), offending.src);
}

bool IcmpLayer::SendPortUnreachable(net::Ipv4Address src, net::Ipv4Address dst) {
  if (dst.IsBroadcast() || dst.IsMulticast()) return false;
  net::Ipv4Header offending;
  offending.protocol = net::ipproto::kUdp;
  offending.src = src;
  offending.dst = dst;
  SendError(offending, net::icmptype::kDestUnreachable, /*code=*/3);
  return true;
}

void IcmpLayer::Input(net::MbufPtr packet, net::Ipv4Address src_ip) {
  host_.Charge(host_.costs().icmp_process);
  net::IcmpHeader hdr;
  try {
    hdr = net::ViewPacket<net::IcmpHeader>(*packet);
  } catch (const net::ViewError&) {
    // Truncated message: structural, counted separately from checksum and
    // unknown-type failures (which stay in rx_bad only).
    ++stats_.rx_bad;
    if (malformed_ == nullptr) {
      malformed_ = &host_.metrics().counter("proto.icmp.malformed_drops");
    }
    malformed_->Inc();
    return;
  }
  // Verify checksum over the whole message.
  net::InternetChecksum sum;
  packet->ForEachSegment([&sum](std::span<const std::byte> s) { sum.Add(s); });
  host_.Charge(host_.costs().checksum_per_byte *
               static_cast<std::int64_t>(packet->PacketLength()));
  if (sum.Finish() != 0) {
    ++stats_.rx_bad;
    return;
  }

  switch (hdr.type) {
    case net::icmptype::kEchoRequest: {
      // Turn the packet around: same id/seq/payload, type 0.
      ++stats_.echo_replies_sent;
      auto reply = packet->DeepCopy();
      auto rh = net::ViewPacket<net::IcmpHeader>(*reply);
      rh.type = net::icmptype::kEchoReply;
      rh.checksum = 0;
      net::StorePacket(*reply, rh);
      Send(std::move(reply), src_ip);
      break;
    }
    case net::icmptype::kEchoReply:
      ++stats_.echo_replies_received;
      if (on_echo_reply_) on_echo_reply_(src_ip, hdr.id.value(), hdr.seq.value());
      break;
    case net::icmptype::kDestUnreachable:
    case net::icmptype::kTimeExceeded:
      ++stats_.errors_received;
      break;
    default:
      ++stats_.rx_bad;
      break;
  }
}

}  // namespace proto
