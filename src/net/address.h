// Link-layer and network-layer address types.
//
// Both types store network byte order internally so they can be embedded
// directly inside wire-format header structs (no padding, no conversion on
// the wire path) while still offering host-order accessors for arithmetic
// and parsing/printing for logs and tests.
#ifndef PLEXUS_NET_ADDRESS_H_
#define PLEXUS_NET_ADDRESS_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace net {

class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> bytes) : b_(bytes) {}

  // "aa:bb:cc:dd:ee:ff"
  static std::optional<MacAddress> Parse(std::string_view s);
  static constexpr MacAddress Broadcast() {
    return MacAddress({0xff, 0xff, 0xff, 0xff, 0xff, 0xff});
  }
  // Deterministic locally-administered address derived from a small id.
  static constexpr MacAddress FromId(std::uint32_t id) {
    return MacAddress({0x02, 0x00, static_cast<std::uint8_t>(id >> 24),
                       static_cast<std::uint8_t>(id >> 16), static_cast<std::uint8_t>(id >> 8),
                       static_cast<std::uint8_t>(id)});
  }

  constexpr const std::array<std::uint8_t, 6>& bytes() const { return b_; }
  constexpr bool IsBroadcast() const { return *this == Broadcast(); }
  constexpr bool IsMulticast() const { return (b_[0] & 0x01) != 0; }

  std::string ToString() const;

  constexpr bool operator==(const MacAddress&) const = default;
  constexpr auto operator<=>(const MacAddress&) const = default;

 private:
  std::array<std::uint8_t, 6> b_ = {};
};

class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  // From host-order 32-bit value, e.g. Ipv4Address(0x0a000001) == 10.0.0.1.
  constexpr explicit Ipv4Address(std::uint32_t host_order)
      : b_{static_cast<std::uint8_t>(host_order >> 24),
           static_cast<std::uint8_t>((host_order >> 16) & 0xff),
           static_cast<std::uint8_t>((host_order >> 8) & 0xff),
           static_cast<std::uint8_t>(host_order & 0xff)} {}
  constexpr Ipv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : b_{a, b, c, d} {}

  // "10.1.2.3"
  static std::optional<Ipv4Address> Parse(std::string_view s);
  static constexpr Ipv4Address Any() { return Ipv4Address(); }
  static constexpr Ipv4Address Broadcast() { return Ipv4Address(0xffffffff); }

  constexpr std::uint32_t value() const {
    return (static_cast<std::uint32_t>(b_[0]) << 24) | (static_cast<std::uint32_t>(b_[1]) << 16) |
           (static_cast<std::uint32_t>(b_[2]) << 8) | b_[3];
  }
  constexpr const std::array<std::uint8_t, 4>& bytes() const { return b_; }
  constexpr bool IsAny() const { return value() == 0; }
  constexpr bool IsBroadcast() const { return value() == 0xffffffff; }
  constexpr bool IsMulticast() const { return (b_[0] & 0xf0) == 0xe0; }

  // This address with its host bits cleared: the network it lies in.
  constexpr Ipv4Address Network(int prefix_len) const {
    if (prefix_len <= 0) return Any();
    const std::uint32_t mask = prefix_len >= 32 ? 0xffffffffu : ~((1u << (32 - prefix_len)) - 1);
    return Ipv4Address(value() & mask);
  }
  constexpr bool InSubnet(Ipv4Address network, int prefix_len) const {
    return Network(prefix_len) == network.Network(prefix_len);
  }

  std::string ToString() const;

  constexpr bool operator==(const Ipv4Address&) const = default;
  constexpr auto operator<=>(const Ipv4Address&) const = default;

 private:
  std::array<std::uint8_t, 4> b_ = {};
};

static_assert(sizeof(MacAddress) == 6);
static_assert(sizeof(Ipv4Address) == 4);

}  // namespace net

template <>
struct std::hash<net::Ipv4Address> {
  std::size_t operator()(const net::Ipv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<net::MacAddress> {
  std::size_t operator()(const net::MacAddress& a) const noexcept {
    std::uint64_t v = 0;
    for (auto b : a.bytes()) v = (v << 8) | b;
    return std::hash<std::uint64_t>{}(v);
  }
};

#endif  // PLEXUS_NET_ADDRESS_H_
