// RFC 1071 Internet checksum (1s-complement sum of 16-bit words).
//
// Used by IPv4, ICMP, UDP and TCP. The incremental interface lets callers
// fold in a pseudo-header and then a discontiguous mbuf chain without
// materializing a flat buffer.
#ifndef PLEXUS_NET_CHECKSUM_H_
#define PLEXUS_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace net {

class InternetChecksum {
 public:
  // Adds a run of bytes. Handles odd-length runs correctly even when they
  // occur mid-stream (parity is tracked across calls, matching the behavior
  // of summing the logical concatenation of all runs).
  void Add(std::span<const std::byte> bytes);

  void AddU16(std::uint16_t host_value) {
    const std::byte b[2] = {static_cast<std::byte>(host_value >> 8),
                            static_cast<std::byte>(host_value & 0xff)};
    Add({b, 2});
  }

  // Final 1s-complement of the folded sum, in host order.
  std::uint16_t Finish() const;

 private:
  // Native-byte-order 1s-complement sum (64-bit, end-around carry);
  // Finish() folds it and swaps it to network order once.
  std::uint64_t sum_ = 0;
  bool odd_ = false;  // true if an odd byte has been consumed (next byte is low-order)
};

// One-shot checksum over a contiguous buffer.
std::uint16_t Checksum(std::span<const std::byte> bytes);

// Incremental update per RFC 1624 when a 16-bit field changes from old to
// new within data covered by checksum `old_sum` (all host order).
std::uint16_t ChecksumAdjust(std::uint16_t old_sum, std::uint16_t old_field,
                             std::uint16_t new_field);

}  // namespace net

#endif  // PLEXUS_NET_CHECKSUM_H_
