// UDP/TCP checksum over the IPv4 pseudo-header plus an mbuf chain.
#ifndef PLEXUS_PROTO_TRANSPORT_CHECKSUM_H_
#define PLEXUS_PROTO_TRANSPORT_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

#include "net/address.h"
#include "net/checksum.h"
#include "net/mbuf.h"

namespace proto {

// Folds the IPv4 pseudo-header of a `length`-byte transport packet into `sum`.
inline void AddPseudoHeader(net::InternetChecksum& sum, net::Ipv4Address src,
                            net::Ipv4Address dst, std::uint8_t protocol,
                            std::size_t length) {
  const std::byte pseudo[12] = {
      static_cast<std::byte>(src.bytes()[0]), static_cast<std::byte>(src.bytes()[1]),
      static_cast<std::byte>(src.bytes()[2]), static_cast<std::byte>(src.bytes()[3]),
      static_cast<std::byte>(dst.bytes()[0]), static_cast<std::byte>(dst.bytes()[1]),
      static_cast<std::byte>(dst.bytes()[2]), static_cast<std::byte>(dst.bytes()[3]),
      std::byte{0},
      static_cast<std::byte>(protocol),
      static_cast<std::byte>(length >> 8),
      static_cast<std::byte>(length & 0xff),
  };
  sum.Add({pseudo, sizeof(pseudo)});
}

// Computes the Internet checksum of {pseudo-header, segment}, where
// `segment` is the full transport packet (header + payload). The transport
// header's checksum field must be zero when computing, or left in place when
// verifying (result 0 means valid).
inline std::uint16_t TransportChecksum(net::Ipv4Address src, net::Ipv4Address dst,
                                       std::uint8_t protocol, const net::Mbuf& segment) {
  net::InternetChecksum sum;
  AddPseudoHeader(sum, src, dst, protocol, segment.PacketLength());
  segment.ForEachSegment([&sum](std::span<const std::byte> s) { sum.Add(s); });
  return sum.Finish();
}

}  // namespace proto

#endif  // PLEXUS_PROTO_TRANSPORT_CHECKSUM_H_
