#include "net/mbuf_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

// Header-only hot path: net stays link-free of sim (see profiler.h).
#include "sim/profiler.h"

namespace net {

MbufPool::MbufPool(std::size_t capacity_segments)
    : ctl_(new MbufPoolControl), capacity_(capacity_segments) {}

MbufPool::~MbufPool() {
  // Outstanding segments may be released long after the pool (and the host
  // whose instruments the hooks reference) is gone.
  ctl_->on_exhausted = nullptr;
  ctl_->gauge_in_use = nullptr;
  ctl_->gauge_peak = nullptr;
  ctl_->Unref();
}

std::size_t MbufPool::in_use() const { return ctl_->in_use; }
std::size_t MbufPool::peak_in_use() const { return ctl_->peak; }
std::uint64_t MbufPool::total_allocated() const { return ctl_->total_allocated; }
std::uint64_t MbufPool::exhaustions() const { return ctl_->exhaustions; }

void MbufPool::SetOccupancyGauges(std::int64_t* in_use_slot, std::int64_t* peak_slot) {
  ctl_->gauge_in_use = in_use_slot;
  ctl_->gauge_peak = peak_slot;
}
void MbufPool::SetExhaustionHook(ExhaustionHook h) { ctl_->on_exhausted = std::move(h); }

std::size_t MbufPool::SegmentsFor(std::size_t len) {
  // Mirrors the chain shape Mbuf::Allocate builds: the first segment takes
  // up to one cluster, each further cluster is its own segment.
  const std::size_t first = std::min(len, Mbuf::kClusterSize);
  const std::size_t rest = len - first;
  return 1 + (rest + Mbuf::kClusterSize - 1) / Mbuf::kClusterSize;
}

bool MbufPool::Reserve(std::size_t segments) {
  if (ctl_->in_use + segments > capacity_) {
    ++ctl_->exhaustions;
    if (ctl_->on_exhausted) ctl_->on_exhausted();
    return false;
  }
  ctl_->in_use += segments;
  ctl_->peak = std::max(ctl_->peak, ctl_->in_use);
  ctl_->total_allocated += segments;
  ctl_->NotifyOccupancy();
  return true;
}

MbufPtr MbufPool::Allocate(std::size_t len, std::size_t headroom, bool zero_payload) {
  PLEXUS_PROFILE_SCOPE(kMbufAlloc);
  PLEXUS_PROFILE_BYTES(kMbufAllocBytes, len);
  if (!Reserve(SegmentsFor(len))) return nullptr;
  // Each storage block keeps a reference to ctl_ and credits the pool when
  // the LAST reference to it dies (Mbuf::ReleaseStorage) — clones and
  // splits share storage, so they never double-charge.
  return Mbuf::NewChain(len, headroom, zero_payload, ctl_);
}

MbufPtr MbufPool::TryAllocate(std::size_t len, std::size_t headroom) {
  return Allocate(len, headroom, /*zero_payload=*/true);
}

MbufPtr MbufPool::TryAllocateUninit(std::size_t len, std::size_t headroom) {
  return Allocate(len, headroom, /*zero_payload=*/false);
}

MbufPtr MbufPool::TryFromBytes(std::span<const std::byte> bytes, std::size_t headroom) {
  MbufPtr m = TryAllocateUninit(bytes.size(), headroom);
  if (m != nullptr) m->CopyIn(0, bytes);
  return m;
}

MbufPtr MbufPool::TryCopy(const Mbuf& chain, std::size_t headroom) {
  MbufPtr out = TryAllocateUninit(chain.PacketLength(), headroom);
  if (out == nullptr) return nullptr;
  std::size_t off = 0;
  chain.ForEachSegment([&](std::span<const std::byte> s) {
    out->CopyIn(off, s);
    off += s.size();
  });
  out->pkthdr() = chain.pkthdr();
  return out;
}

std::size_t MbufPool::DefaultCapacity() {
  constexpr std::size_t kGenerous = 65536;
  const char* env = std::getenv("PLEXUS_MBUF_POOL");
  if (env == nullptr || *env == '\0') return kGenerous;
  const std::string v(env);
  if (v == "small") return 256;
  if (v == "large" || v == "default") return kGenerous;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(env, &end, 10);
  if (end != env && *end == '\0' && n > 0) return static_cast<std::size_t>(n);
  return kGenerous;
}

MbufPtr PoolAllocate(MbufPool* pool, std::size_t len, std::size_t headroom) {
  if (pool == nullptr) return Mbuf::Allocate(len, headroom);
  return pool->TryAllocate(len, headroom);
}

MbufPtr PoolAllocateUninit(MbufPool* pool, std::size_t len, std::size_t headroom) {
  if (pool == nullptr) return Mbuf::AllocateUninit(len, headroom);
  return pool->TryAllocateUninit(len, headroom);
}

MbufPtr PoolFromBytes(MbufPool* pool, std::span<const std::byte> bytes, std::size_t headroom) {
  if (pool == nullptr) return Mbuf::FromBytes(bytes, headroom);
  return pool->TryFromBytes(bytes, headroom);
}

}  // namespace net
