// BSD-style memory buffers (mbufs), as used by Plexus to carry packets
// through the protocol graph ("a primary advantage of mbufs is that they are
// directly used by most UNIX device drivers" — the paper, footnote 1).
//
// An Mbuf is one segment of a chain; the head segment carries the packet
// header. Differences from historical BSD, in line with the C++ Core
// Guidelines: ownership is explicit (unique_ptr links the chain), storage is
// reference-counted so a packet can be shared read-only across consumers
// (the paper's READONLY buffers), and any mutating operation on shared
// storage performs an explicit copy first (the paper's "explicit
// copy-on-write": extensions cannot modify a shared packet in place).
//
// Layout (the PR 8 fast path): the common packet is flat — one 48-byte Mbuf
// header (slab-allocated, "mbuf.hdr") plus one contiguous storage block
// (refcount + capacity + bytes in a single size-classed slab allocation,
// "mbuf.seg.*"); a chain only appears for payloads beyond kClusterSize.
// Storage refcounts are plain integers — the simulator is single-threaded —
// so ShareClone per protocol hop is a slab pointer-pop and an increment,
// where it used to be an operator new plus two atomic RMWs. Pool accounting
// rides an intrusively refcounted MbufPoolControl instead of a shared_ptr'd
// deleter closure.
//
// Allocation zeroes only what no caller writes: headroom always (Prepend
// exposes it), payload only for Allocate (whose callers may leave bytes
// unwritten, e.g. Ethernet padding). AllocateUninit, FromBytes and the
// pool's TryAllocateUninit/TryFromBytes/TryCopy hand out payload bytes the
// caller overwrites in full, so zero-filling them first would be a wasted
// pass. Tailroom is never zeroed: every operation that grows the live
// range writes the bytes first.
#ifndef PLEXUS_NET_MBUF_H_
#define PLEXUS_NET_MBUF_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace net {

class Mbuf;
using MbufPtr = std::unique_ptr<Mbuf>;

class MbufError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Bookkeeping shared between an MbufPool and every storage block it issued
// (see mbuf_pool.h for the pool semantics). Intrusively refcounted: the pool
// holds one reference, each outstanding pooled storage block holds one, so
// the books stay consistent whichever dies first. Internal to net; hosts
// observe it through the pool's gauge slots and exhaustion hook.
struct MbufPoolControl {
  std::size_t in_use = 0;
  std::size_t peak = 0;
  std::uint64_t total_allocated = 0;
  std::uint64_t exhaustions = 0;
  std::uint32_t refs = 1;
  // Gauge storage the host wires directly: every occupancy change is two
  // plain stores (~1M changes per 10k-connection run).
  std::int64_t* gauge_in_use = nullptr;
  std::int64_t* gauge_peak = nullptr;
  std::function<void()> on_exhausted;

  void NotifyOccupancy() {
    if (gauge_in_use != nullptr) {
      *gauge_in_use = static_cast<std::int64_t>(in_use);
      *gauge_peak = static_cast<std::int64_t>(peak);
    }
  }
  void Ref() { ++refs; }
  void Unref() {
    if (--refs == 0) delete this;
  }
};

class Mbuf {
 public:
  // Default headroom reserved in a freshly allocated head segment; enough
  // for Ethernet + IPv4 + TCP with options.
  static constexpr std::size_t kDefaultHeadroom = 128;
  // Segment payload capacity for multi-segment allocations (a BSD cluster).
  static constexpr std::size_t kClusterSize = 2048;

  // Allocates a chain holding `len` bytes of zeroed payload, with headroom
  // in the first segment.
  static MbufPtr Allocate(std::size_t len, std::size_t headroom = kDefaultHeadroom);
  // As Allocate, but the payload bytes are unspecified (stale bytes of an
  // earlier packet): the caller must write every one before anything reads
  // the chain. Headroom is still zeroed.
  static MbufPtr AllocateUninit(std::size_t len, std::size_t headroom = kDefaultHeadroom);

  // Allocates a chain holding a copy of `bytes`.
  static MbufPtr FromBytes(std::span<const std::byte> bytes,
                           std::size_t headroom = kDefaultHeadroom);
  static MbufPtr FromString(std::string_view s, std::size_t headroom = kDefaultHeadroom);

  Mbuf(const Mbuf&) = delete;
  Mbuf& operator=(const Mbuf&) = delete;
  ~Mbuf();

  // Headers come from the "mbuf.hdr" slab (sim/slab.h): alloc and free are
  // free-list pointer ops, observable in the slab registry.
  static void* operator new(std::size_t size);
  static void operator delete(void* p);

  // --- Per-segment access ---------------------------------------------------

  std::span<const std::byte> data() const {
    return {storage_->data() + offset_, length_};
  }
  // Mutable access copies the backing storage first if it is shared.
  std::span<std::byte> mutable_data();
  std::size_t segment_length() const { return length_; }
  const Mbuf* next() const { return next_.get(); }
  Mbuf* next() { return next_.get(); }

  std::size_t headroom() const { return offset_; }
  std::size_t tailroom() const { return storage_->capacity - offset_ - length_; }
  bool storage_shared() const { return storage_->refs > 1; }

  // --- Whole-chain operations (call on the head segment) --------------------

  // Total payload bytes across the chain. Inline: the dominant flat packet
  // resolves to a load (next_ == nullptr).
  std::size_t PacketLength() const {
    std::size_t n = length_;
    for (const Mbuf* m = next_.get(); m != nullptr; m = m->next_.get()) {
      n += m->length_;
    }
    return n;
  }

  // Number of segments.
  std::size_t SegmentCount() const;

  // Grows the front of the packet by n bytes (for prepending a header).
  // Uses head segment headroom; shifts data if tailroom allows; throws
  // MbufError otherwise. Returns the new front bytes, mutable.
  std::span<std::byte> Prepend(std::size_t n);

  // Removes n bytes from the front of the packet (m_adj with n > 0).
  void TrimFront(std::size_t n);

  // Removes n bytes from the end of the packet (m_adj with n < 0).
  void TrimBack(std::size_t n);

  // Ensures the first n bytes of the packet are contiguous in this segment
  // (m_pullup). Throws MbufError if the packet is shorter than n or n
  // exceeds segment capacity.
  void Pullup(std::size_t n);

  // Appends another chain to the end of this one, taking ownership.
  void AppendChain(MbufPtr tail);

  // Splits the chain at `offset`; this keeps [0, offset), the returned chain
  // holds [offset, len). Splitting a shared segment shares storage.
  MbufPtr Split(std::size_t offset);

  // Copies out `out.size()` bytes starting at `offset` (m_copydata).
  void CopyOut(std::size_t offset, std::span<std::byte> out) const;

  // Overwrites bytes starting at `offset` (copy-on-write if shared).
  void CopyIn(std::size_t offset, std::span<const std::byte> in);

  // Deep copy: new storage for every segment. This is the explicit copy an
  // extension must make before modifying a READONLY packet.
  MbufPtr DeepCopy() const;

  // Shallow copy: shares storage reference-counted; cheap, read-only use.
  MbufPtr ShareClone() const;

  // Flattens the chain into a single vector (test/debug convenience).
  std::vector<std::byte> Linearize() const;
  std::string ToString() const;

  // Invokes f(span<const byte>) for every non-empty segment in order.
  template <typename F>
  void ForEachSegment(F&& f) const {
    for (const Mbuf* m = this; m != nullptr; m = m->next_.get()) {
      if (m->length_ > 0) f(m->data());
    }
  }

  // --- Packet header (meaningful on the chain head) --------------------------

  struct PacketHeader {
    int rcvif = -1;           // receiving interface index, -1 if locally built
    std::uint32_t flags = 0;  // consumer-defined
    // Observability tag (sim::Tracer id); 0 = untraced. Follows the packet
    // through copy/clone/split; reassembly restores the first fragment's id.
    std::uint64_t trace_id = 0;
  };
  PacketHeader& pkthdr() { return pkthdr_; }
  const PacketHeader& pkthdr() const { return pkthdr_; }

  // Checks structural invariants (for tests): offsets/lengths in range.
  bool CheckInvariants() const;

 private:
  // MbufPool builds segments over refcount-tracked storage (bounded
  // allocation with pool-credit-on-release accounting); it needs the private
  // constructor and chain link but nothing else.
  friend class MbufPool;

  // One contiguous block: this header followed immediately by `capacity`
  // payload bytes, allocated together from the "mbuf.seg" size-class arena
  // (heap for oversize). Refcounted by plain increment — single-threaded.
  struct Storage {
    std::uint32_t refs;
    std::uint32_t capacity;
    MbufPoolControl* pool;  // non-null: credit one segment on last release

    std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
    const std::byte* data() const {
      return reinterpret_cast<const std::byte*>(this + 1);
    }
    std::size_t size() const { return capacity; }
  };

  // Allocates a block with `capacity` payload bytes, zeroing [0, zero_upto)
  // (see the allocation contract at the top of this file). `pool` !=
  // nullptr ties the block to pool accounting (one Ref; one in_use credit
  // released with the block).
  static Storage* NewStorage(std::size_t capacity, std::size_t zero_upto,
                             MbufPoolControl* pool);
  static void UnrefStorage(Storage* s) {
    if (--s->refs == 0) ReleaseStorage(s);
  }
  static void ReleaseStorage(Storage* s);

  // Takes ownership of one storage reference.
  Mbuf(Storage* storage, std::size_t offset, std::size_t length)
      : storage_(storage), offset_(offset), length_(length) {}

  // Shares the storage of `other` (bumps the refcount).
  static MbufPtr CloneSegment(const Mbuf& other);

  // Builds the chain shape every allocation uses: headroom plus up to one
  // cluster in the head segment, one cluster per further segment. Payload
  // bytes are zeroed only if `zero_payload`; headroom always is.
  static MbufPtr NewChain(std::size_t len, std::size_t headroom, bool zero_payload,
                          MbufPoolControl* pool);

  // Replaces shared storage with a private copy of the live bytes.
  void EnsureUnique();

  Storage* storage_;
  std::size_t offset_;  // start of live data within storage
  std::size_t length_;  // live bytes in this segment
  MbufPtr next_;
  PacketHeader pkthdr_;
};

}  // namespace net

#endif  // PLEXUS_NET_MBUF_H_
