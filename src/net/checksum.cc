#include "net/checksum.h"

#include <bit>
#include <cstring>

namespace net {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// An unaligned native-order load of a T-sized word.
template <typename T>
std::uint64_t Load(const unsigned char* p) {
  T w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

// 1s-complement 64-bit add: the carry out wraps around into bit 0.
void AddCarry(std::uint64_t& acc, std::uint64_t v) {
  acc += v;
  acc += acc < v;
}

}  // namespace

// The sum is kept in native byte order and swapped once in Finish(): the
// 1s-complement sum is byte-order independent (RFC 1071 §2(B)), and since
// 2^64 ≡ 2^32 ≡ 1 (mod 2^16 - 1), 64-bit words with end-around carry fold
// to the same 16-bit sum as the byte-pair loop. Four accumulators keep the
// carry chains independent so the 32-byte loop pipelines. A fold is zero
// only when every byte was, so Finish() is bit-identical to the byte-pair
// loop for every input and every split into runs.
void InternetChecksum::Add(std::span<const std::byte> bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  if (n == 0) return;
  std::uint64_t s = sum_;
  std::uint64_t t = 0;  // carry count plus tail words: never near overflow
  if (odd_) {
    // Complete the pending word: this byte is its low-order byte.
    t = kLittleEndian ? std::uint64_t{*p} << 8 : std::uint64_t{*p};
    ++p;
    --n;
  }
  odd_ = (n & 1) != 0;
  if (n >= 32) {
    std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
    do {
      const std::uint64_t w0 = Load<std::uint64_t>(p), w1 = Load<std::uint64_t>(p + 8);
      const std::uint64_t w2 = Load<std::uint64_t>(p + 16), w3 = Load<std::uint64_t>(p + 24);
      a0 += w0;
      t += a0 < w0;
      a1 += w1;
      t += a1 < w1;
      a2 += w2;
      t += a2 < w2;
      a3 += w3;
      t += a3 < w3;
      p += 32;
      n -= 32;
    } while (n >= 32);
    AddCarry(a0, a1);
    AddCarry(a2, a3);
    AddCarry(a0, a2);
    AddCarry(s, a0);
  }
  // Tail under 32 bytes: 32-bit halves into t, no carry chain.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = Load<std::uint64_t>(p);
    t += (w >> 32) + (w & 0xffffffff);
  }
  if (n >= 4) {
    t += Load<std::uint32_t>(p);
    p += 4;
    n -= 4;
  }
  if (n >= 2) {
    t += Load<std::uint16_t>(p);
    p += 2;
    n -= 2;
  }
  if (n > 0) {
    // A trailing odd byte is the high-order byte of its word.
    t += kLittleEndian ? std::uint64_t{*p} : std::uint64_t{*p} << 8;
  }
  AddCarry(s, t);
  sum_ = s;
}

std::uint16_t InternetChecksum::Finish() const {
  std::uint64_t s = (sum_ >> 32) + (sum_ & 0xffffffff);
  while (s >> 16) s = (s & 0xffff) + (s >> 16);
  if constexpr (kLittleEndian) s = ((s & 0xff) << 8) | (s >> 8);
  return static_cast<std::uint16_t>(~s & 0xffff);
}

std::uint16_t Checksum(std::span<const std::byte> bytes) {
  InternetChecksum c;
  c.Add(bytes);
  return c.Finish();
}

std::uint16_t ChecksumAdjust(std::uint16_t old_sum, std::uint16_t old_field,
                             std::uint16_t new_field) {
  // RFC 1624: HC' = ~(~HC + ~m + m')
  std::uint32_t s = static_cast<std::uint16_t>(~old_sum);
  s += static_cast<std::uint16_t>(~old_field);
  s += new_field;
  while (s >> 16) s = (s & 0xffff) + (s >> 16);
  return static_cast<std::uint16_t>(~s & 0xffff);
}

}  // namespace net
