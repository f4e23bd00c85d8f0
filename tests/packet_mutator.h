// Structure-aware packet mutation for adversarial fuzzing.
//
// Mutates raw Ethernet frames *knowing* the classic encapsulation layout
// (eth / IPv4 / {tcp,udp,icmp}), so mutations land on the fields parsers
// actually branch on — length words, header offsets, option bytes,
// fragment fields — instead of diffusing into payload bytes nothing reads.
// Where a mutation lies about a length, the mutator re-seals the IP header
// checksum and the transport checksum so the lie survives checksum
// verification and reaches the deep structural validators it is aimed at;
// a lie that dies at the checksum line tests nothing.
//
// It manipulates byte vectors with the wire offsets written out longhand,
// exactly as an attacker crafting frames would — it must not inherit the
// victim's own header abstractions, or it could only ever produce frames
// the victim already believes in. Only the RFC 1071 sum is shared.
#ifndef PLEXUS_TESTS_PACKET_MUTATOR_H_
#define PLEXUS_TESTS_PACKET_MUTATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/checksum.h"
#include "sim/random.h"

namespace adversarial {

class PacketMutator {
 public:
  enum class Op {
    kTruncate,     // cut the frame mid-header or mid-payload (runts)
    kBitFlip,      // classic dumb fuzzing: 1-3 random bit flips
    kLengthLie,    // a length/offset field that contradicts the frame
    kOptionSoup,   // TCP data offset stretched over garbage option bytes
    kFragOverlap,  // IP fragment fields forged: overlaps, silly offsets
    kGroBoundary,  // TCP seq/flags/window nudged to break coalescing runs
  };
  static constexpr int kOpCount = 6;

  explicit PacketMutator(std::uint64_t seed) : rng_(seed) {}

  // Applies one randomly chosen op. Ops needing structure the frame lacks
  // (e.g. kOptionSoup on an ARP frame) fall back to kBitFlip, so every
  // call mutates. Returns the op actually applied.
  Op Mutate(std::vector<std::uint8_t>& frame) {
    const Op op = static_cast<Op>(rng_.UniformU64(kOpCount));
    if (Apply(op, frame)) return op;
    Apply(Op::kBitFlip, frame);
    return Op::kBitFlip;
  }

 private:
  // Applies a specific op; returns false (frame untouched) when the frame
  // cannot host it.
  bool Apply(Op op, std::vector<std::uint8_t>& frame);

  static constexpr std::size_t kEthLen = 14;

  static std::uint16_t Rd16(const std::vector<std::uint8_t>& f, std::size_t off) {
    return static_cast<std::uint16_t>((f[off] << 8) | f[off + 1]);
  }
  static void Wr16(std::vector<std::uint8_t>& f, std::size_t off, std::uint16_t v) {
    f[off] = static_cast<std::uint8_t>(v >> 8);
    f[off + 1] = static_cast<std::uint8_t>(v & 0xff);
  }
  static std::uint32_t Rd32(const std::vector<std::uint8_t>& f, std::size_t off) {
    return (static_cast<std::uint32_t>(f[off]) << 24) |
           (static_cast<std::uint32_t>(f[off + 1]) << 16) |
           (static_cast<std::uint32_t>(f[off + 2]) << 8) | f[off + 3];
  }
  static void Wr32(std::vector<std::uint8_t>& f, std::size_t off, std::uint32_t v) {
    f[off] = static_cast<std::uint8_t>(v >> 24);
    f[off + 1] = static_cast<std::uint8_t>(v >> 16);
    f[off + 2] = static_cast<std::uint8_t>(v >> 8);
    f[off + 3] = static_cast<std::uint8_t>(v);
  }
  static std::span<const std::byte> Bytes(const std::vector<std::uint8_t>& f, std::size_t off,
                                          std::size_t len) {
    return std::as_bytes(std::span<const std::uint8_t>(f).subspan(off, len));
  }

  // Frame anatomy, resolved from the bytes currently in the frame. Fields
  // are meaningful only as deep as the booleans admit.
  struct Anatomy {
    bool ipv4 = false;
    std::size_t ip = 0;   // offset of the IPv4 header
    std::size_t ihl = 0;  // its claimed length in bytes
    std::size_t l4 = 0;   // offset of the transport header
    std::uint8_t proto = 0;
    bool tcp = false;
    bool udp = false;
  };

  static Anatomy Dissect(const std::vector<std::uint8_t>& f) {
    Anatomy a;
    if (f.size() < kEthLen + 20 || Rd16(f, 12) != 0x0800) return a;
    a.ip = kEthLen;
    a.ihl = static_cast<std::size_t>(f[a.ip] & 0x0f) * 4;
    if ((f[a.ip] >> 4) != 4 || a.ihl < 20 || f.size() < a.ip + a.ihl) return a;
    a.ipv4 = true;
    a.proto = f[a.ip + 9];
    a.l4 = a.ip + a.ihl;
    a.tcp = a.proto == 6 && f.size() >= a.l4 + 20;
    a.udp = a.proto == 17 && f.size() >= a.l4 + 8;
    return a;
  }

  // Re-seals IP header and transport checksums against whatever the frame
  // now claims, so forged lengths are not shadowed by checksum failures.
  // Only frames a receiver would actually checksum are resealed; anything
  // more broken than that dies earlier on structural bounds, where the
  // checksum value is never read.
  static void Reseal(std::vector<std::uint8_t>& f) {
    const Anatomy a = Dissect(f);
    if (!a.ipv4) return;
    Wr16(f, a.ip + 10, 0);
    Wr16(f, a.ip + 10, net::Checksum(Bytes(f, a.ip, a.ihl)));
    if (!a.tcp && !a.udp) return;
    // The receiver checksums exactly total_length - ihl transport bytes; a
    // claimed length past the frame end is dropped on bounds before any
    // checksum, so there is nothing to seal.
    const std::uint16_t total = Rd16(f, a.ip + 2);
    if (total < a.ihl) return;
    const std::size_t l4len = total - a.ihl;
    if (a.l4 + l4len > f.size() || l4len < (a.tcp ? 20u : 8u)) return;
    const std::size_t csum_off = a.tcp ? a.l4 + 16 : a.l4 + 6;
    Wr16(f, csum_off, 0);
    net::InternetChecksum sum;
    sum.Add(Bytes(f, a.ip + 12, 8));  // src + dst
    sum.AddU16(a.proto);
    sum.AddU16(static_cast<std::uint16_t>(l4len));
    sum.Add(Bytes(f, a.l4, l4len));
    Wr16(f, csum_off, sum.Finish());
  }

  sim::Random rng_;
};

inline bool PacketMutator::Apply(Op op, std::vector<std::uint8_t>& frame) {
  if (frame.size() < 2) return false;
  const Anatomy a = Dissect(frame);
  switch (op) {
    case Op::kTruncate: {
      std::size_t cut = 1 + rng_.UniformU64(frame.size() - 1);
      if (a.ipv4 && rng_.Bernoulli(0.5)) {
        // Snap to just inside a header boundary: the classic runt shapes
        // where one-byte-short views must throw, not read.
        const std::size_t marks[4] = {kEthLen - 1, a.ip + 19, a.l4 + 7, a.l4 + 19};
        cut = std::max<std::size_t>(1, std::min(frame.size() - 1, marks[rng_.UniformU64(4)]));
      }
      frame.resize(cut);
      return true;
    }
    case Op::kBitFlip: {
      const int flips = 1 + static_cast<int>(rng_.UniformU64(3));
      for (int i = 0; i < flips; ++i) {
        frame[rng_.UniformU64(frame.size())] ^=
            static_cast<std::uint8_t>(1u << rng_.UniformU64(8));
      }
      return true;
    }
    case Op::kLengthLie: {
      if (!a.ipv4) return false;
      switch (rng_.UniformU64((a.tcp || a.udp) ? 3 : 2)) {
        case 0:  // total_length claims more or fewer bytes than exist
          Wr16(frame, a.ip + 2, static_cast<std::uint16_t>(rng_.NextU64()));
          break;
        case 1:  // IHL points the transport header somewhere else
          frame[a.ip] = static_cast<std::uint8_t>(0x40 | rng_.UniformU64(16));
          break;
        case 2:
          if (a.tcp) {  // data offset outside [20, segment length]
            frame[a.l4 + 12] = static_cast<std::uint8_t>(rng_.UniformU64(16) << 4);
          } else {  // UDP length field lies about the datagram
            Wr16(frame, a.l4 + 4, static_cast<std::uint16_t>(rng_.NextU64()));
          }
          break;
      }
      Reseal(frame);
      return true;
    }
    case Op::kOptionSoup: {
      if (!a.tcp) return false;
      // Stretch the claimed TCP header over 4..40 bytes of options and fill
      // whatever of that range the frame really contains with garbage
      // kind/length bytes — the option walk must refuse to stray.
      const std::size_t words = 6 + rng_.UniformU64(10);  // 24..60-byte header
      frame[a.l4 + 12] = static_cast<std::uint8_t>(words << 4);
      const std::size_t opt_end = std::min(frame.size(), a.l4 + words * 4);
      for (std::size_t i = a.l4 + 20; i < opt_end; ++i) {
        frame[i] = static_cast<std::uint8_t>(rng_.NextU64());
      }
      Reseal(frame);
      return true;
    }
    case Op::kFragOverlap: {
      if (!a.ipv4) return false;
      // Forge the fragment word: offsets that collide with other fragments
      // of the same id, or land the payload past the 64 KiB datagram limit.
      std::uint16_t off8 = static_cast<std::uint16_t>(rng_.UniformU64(0x2000));
      if (rng_.Bernoulli(0.5)) {
        off8 = static_cast<std::uint16_t>(rng_.UniformU64(4));  // near zero: overlaps
      }
      std::uint16_t v = off8;
      if (rng_.Bernoulli(0.7)) v |= 0x2000;  // more-fragments
      Wr16(frame, a.ip + 6, v);
      Reseal(frame);
      return true;
    }
    case Op::kGroBoundary: {
      if (!a.tcp) return false;
      switch (rng_.UniformU64(3)) {
        case 0: {  // nudge seq across the coalescing run's boundary
          const std::uint32_t seq = Rd32(frame, a.l4 + 4);
          Wr32(frame, a.l4 + 4,
               seq + static_cast<std::uint32_t>(rng_.UniformInt(-3000, 3000)));
          break;
        }
        case 1:  // flip one flag bit (PSH/FIN/RST break merge eligibility)
          frame[a.l4 + 13] ^= static_cast<std::uint8_t>(1u << rng_.UniformU64(6));
          break;
        case 2:  // advertise a different window mid-run
          Wr16(frame, a.l4 + 14, static_cast<std::uint16_t>(rng_.NextU64()));
          break;
      }
      Reseal(frame);
      return true;
    }
  }
  return false;
}

}  // namespace adversarial

#endif  // PLEXUS_TESTS_PACKET_MUTATOR_H_
