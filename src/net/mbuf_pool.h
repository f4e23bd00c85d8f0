// A bounded per-host mbuf pool.
//
// Real receive paths never allocate from an infinite heap: BSD drivers pull
// fixed-size clusters from a bounded mbuf pool and drop frames when it runs
// dry. This class puts that bound under the simulation's buffers: capacity
// is counted in segments (clusters), allocation FAILS (returns nullptr)
// instead of growing without limit, and every failure is observable — a
// host under overload degrades by dropping packets rather than by eating
// unbounded memory.
//
// Accounting rides the storage refcount: each pooled segment's storage
// block points at the pool's control block and credits it when the last
// ShareClone of that storage dies. That makes the books exact across
// clone/split (which share storage: no extra charge) and across
// copy-on-write (EnsureUnique re-homes bytes to a private unpooled buffer
// and the pooled original is credited back when released). The pool
// therefore bounds the wire/driver-facing buffers — the paper's READONLY
// packets — while explicit copies an extension makes are its own domain's
// problem.
//
// Layering: net has no sim dependency, so observability is exposed as raw
// gauge slots and a plain std::function exhaustion hook; the host chassis
// (proto::HostStack) wires them to metrics-registry gauges/counters.
#ifndef PLEXUS_NET_MBUF_POOL_H_
#define PLEXUS_NET_MBUF_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "net/mbuf.h"

namespace net {

class MbufPool {
 public:
  // Fires on every failed reservation.
  using ExhaustionHook = std::function<void()>;

  explicit MbufPool(std::size_t capacity_segments = DefaultCapacity());
  // Outstanding buffers stay valid after the pool dies: they hold the
  // control block via shared_ptr and return to its books silently (the
  // gauges and hook are detached so no dangling instrument is touched).
  ~MbufPool();
  MbufPool(const MbufPool&) = delete;
  MbufPool& operator=(const MbufPool&) = delete;

  // Pool-backed equivalents of Mbuf::Allocate / AllocateUninit / FromBytes
  // / DeepCopy. Return nullptr when the chain's segments would exceed
  // capacity; the caller owns the explicit exhaustion path (drop + count).
  MbufPtr TryAllocate(std::size_t len, std::size_t headroom = Mbuf::kDefaultHeadroom);
  MbufPtr TryAllocateUninit(std::size_t len, std::size_t headroom = Mbuf::kDefaultHeadroom);
  MbufPtr TryFromBytes(std::span<const std::byte> bytes,
                       std::size_t headroom = Mbuf::kDefaultHeadroom);
  // Deep copy of `chain` into pooled storage, packet header included (the
  // NIC's "refill from the pool" step).
  MbufPtr TryCopy(const Mbuf& chain, std::size_t headroom = Mbuf::kDefaultHeadroom);

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const;
  std::size_t peak_in_use() const;
  std::uint64_t total_allocated() const;  // segments ever handed out
  std::uint64_t exhaustions() const;      // failed reservations

  void SetExhaustionHook(ExhaustionHook h);
  // Every occupancy change stores in_use / peak into these slots: both (or
  // neither) must be non-null and outlive every buffer issued by this pool.
  void SetOccupancyGauges(std::int64_t* in_use_slot, std::int64_t* peak_slot);

  // Capacity from the PLEXUS_MBUF_POOL environment variable: unset/empty ->
  // a generous 65536 segments (effectively unbounded for every workload in
  // this repo), "small" -> 256 (exercises exhaustion paths while tier-1
  // still passes), or a positive integer.
  static std::size_t DefaultCapacity();

 private:
  bool Reserve(std::size_t segments);
  MbufPtr Allocate(std::size_t len, std::size_t headroom, bool zero_payload);
  static std::size_t SegmentsFor(std::size_t len);

  // Shared (intrusively refcounted) between the pool and every outstanding
  // segment's storage, so the books stay consistent whichever dies first.
  MbufPoolControl* ctl_;
  std::size_t capacity_;
};

// Fallback helpers for allocation sites that may run with or without a pool
// (raw sim::Host setups have none): pool == nullptr degrades to the
// unbounded heap; a non-null pool can fail, and nullptr results must be
// handled by dropping.
MbufPtr PoolAllocate(MbufPool* pool, std::size_t len,
                     std::size_t headroom = Mbuf::kDefaultHeadroom);
MbufPtr PoolAllocateUninit(MbufPool* pool, std::size_t len,
                           std::size_t headroom = Mbuf::kDefaultHeadroom);
MbufPtr PoolFromBytes(MbufPool* pool, std::span<const std::byte> bytes,
                      std::size_t headroom = Mbuf::kDefaultHeadroom);

}  // namespace net

#endif  // PLEXUS_NET_MBUF_POOL_H_
