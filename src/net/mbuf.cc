#include "net/mbuf.h"

#include <algorithm>
#include <cassert>
#include <cstring>

// Header-only hot paths: net stays link-free of sim (see profiler.h/slab.h).
#include "sim/profiler.h"
#include "sim/slab.h"

namespace net {

namespace {

// Process-wide slabs for the packet path. Function-local statics so tests
// can interrogate them through the registry ("mbuf.hdr", "mbuf.seg.*") and
// assert zero outstanding blocks at teardown.
sim::BlockSlab& HeaderSlab() {
  static sim::BlockSlab slab("mbuf.hdr", sizeof(Mbuf));
  return slab;
}

sim::SizeClassArena& SegmentArena() {
  static sim::SizeClassArena arena("mbuf.seg");
  return arena;
}

}  // namespace

void* Mbuf::operator new(std::size_t size) {
  assert(size == sizeof(Mbuf));
  (void)size;
  return HeaderSlab().Alloc();
}

void Mbuf::operator delete(void* p) {
  if (p != nullptr) HeaderSlab().Free(p);
}

Mbuf::Storage* Mbuf::NewStorage(std::size_t capacity, std::size_t zero_upto,
                                MbufPoolControl* pool) {
  Storage* s = static_cast<Storage*>(
      SegmentArena().Alloc(sizeof(Storage) + capacity));
  s->refs = 1;
  s->capacity = static_cast<std::uint32_t>(capacity);
  s->pool = pool;
  if (pool != nullptr) pool->Ref();
  if (zero_upto > 0) std::memset(s->data(), 0, zero_upto);
  return s;
}

void Mbuf::ReleaseStorage(Storage* s) {
  if (s->pool != nullptr) {
    // Credit the pool when the LAST reference to this storage dies — clones
    // and splits share storage, so they never double-charge.
    PLEXUS_PROFILE_SCOPE(kMbufFree);
    --s->pool->in_use;
    s->pool->NotifyOccupancy();
    s->pool->Unref();
  }
  SegmentArena().Free(s, sizeof(Storage) + s->capacity);
}

Mbuf::~Mbuf() { UnrefStorage(storage_); }

MbufPtr Mbuf::CloneSegment(const Mbuf& other) {
  ++other.storage_->refs;
  return MbufPtr(new Mbuf(other.storage_, other.offset_, other.length_));
}

MbufPtr Mbuf::NewChain(std::size_t len, std::size_t headroom, bool zero_payload,
                       MbufPoolControl* pool) {
  auto segment = [&](std::size_t capacity, std::size_t offset, std::size_t length) {
    return MbufPtr(new Mbuf(
        NewStorage(capacity, zero_payload ? offset + length : offset, pool), offset,
        length));
  };
  const std::size_t first_payload = std::min(len, kClusterSize);
  MbufPtr head = segment(headroom + std::max<std::size_t>(first_payload, 1), headroom,
                         first_payload);
  std::size_t remaining = len - first_payload;
  Mbuf* tail = head.get();
  while (remaining > 0) {
    const std::size_t n = std::min(remaining, kClusterSize);
    tail->next_ = segment(n, 0, n);
    tail = tail->next_.get();
    remaining -= n;
  }
  return head;
}

MbufPtr Mbuf::Allocate(std::size_t len, std::size_t headroom) {
  PLEXUS_PROFILE_SCOPE(kMbufAlloc);
  PLEXUS_PROFILE_BYTES(kMbufAllocBytes, len);
  return NewChain(len, headroom, /*zero_payload=*/true, nullptr);
}

MbufPtr Mbuf::AllocateUninit(std::size_t len, std::size_t headroom) {
  PLEXUS_PROFILE_SCOPE(kMbufAlloc);
  PLEXUS_PROFILE_BYTES(kMbufAllocBytes, len);
  return NewChain(len, headroom, /*zero_payload=*/false, nullptr);
}

MbufPtr Mbuf::FromBytes(std::span<const std::byte> bytes, std::size_t headroom) {
  MbufPtr m = AllocateUninit(bytes.size(), headroom);
  m->CopyIn(0, bytes);
  return m;
}

MbufPtr Mbuf::FromString(std::string_view s, std::size_t headroom) {
  return FromBytes({reinterpret_cast<const std::byte*>(s.data()), s.size()}, headroom);
}

std::span<std::byte> Mbuf::mutable_data() {
  EnsureUnique();
  return {storage_->data() + offset_, length_};
}

void Mbuf::EnsureUnique() {
  if (storage_->refs <= 1) return;
  // COW copies live on the unpooled heap arena: the pooled original is
  // credited back when its last reference dies. Zero the headroom only; the
  // live bytes are copied and tailroom is written before it becomes live.
  Storage* fresh = NewStorage(storage_->capacity, offset_, nullptr);
  std::memcpy(fresh->data() + offset_, storage_->data() + offset_, length_);
  UnrefStorage(storage_);
  storage_ = fresh;
}

std::size_t Mbuf::SegmentCount() const {
  std::size_t n = 0;
  for (const Mbuf* m = this; m != nullptr; m = m->next_.get()) ++n;
  return n;
}

std::span<std::byte> Mbuf::Prepend(std::size_t n) {
  EnsureUnique();
  if (offset_ >= n) {
    offset_ -= n;
    length_ += n;
  } else if (offset_ + tailroom() >= n && length_ + n <= storage_->size()) {
    // Not enough headroom: shift existing data toward the tail.
    std::memmove(storage_->data() + n, storage_->data() + offset_, length_);
    offset_ = 0;
    length_ += n;
  } else {
    throw MbufError("Prepend: insufficient head segment space");
  }
  return {storage_->data() + offset_, n};
}

void Mbuf::TrimFront(std::size_t n) {
  if (n > PacketLength()) throw MbufError("TrimFront: beyond packet length");
  Mbuf* m = this;
  while (n > 0) {
    const std::size_t take = std::min(n, m->length_);
    m->offset_ += take;
    m->length_ -= take;
    n -= take;
    if (n == 0) break;
    m = m->next_.get();
  }
  // Compact: drop empty leading segments after the head (the head object
  // itself must survive because the caller owns it by pointer).
  while (next_ && length_ == 0) {
    MbufPtr rest = std::move(next_);
    UnrefStorage(storage_);
    storage_ = rest->storage_;
    ++storage_->refs;  // rest's destructor drops its own reference
    offset_ = rest->offset_;
    length_ = rest->length_;
    next_ = std::move(rest->next_);
  }
}

void Mbuf::TrimBack(std::size_t n) {
  const std::size_t total = PacketLength();
  if (n > total) throw MbufError("TrimBack: beyond packet length");
  std::size_t keep = total - n;
  Mbuf* m = this;
  while (m != nullptr) {
    if (keep >= m->length_) {
      keep -= m->length_;
      m = m->next_.get();
    } else {
      m->length_ = keep;
      m->next_.reset();  // drop the rest of the chain
      break;
    }
  }
}

void Mbuf::Pullup(std::size_t n) {
  if (n <= length_) return;
  if (n > PacketLength()) throw MbufError("Pullup: packet too short");
  EnsureUnique();
  if (offset_ + n > storage_->size()) {
    // Re-home this segment's bytes into a larger buffer with the same
    // headroom policy.
    Storage* fresh =
        NewStorage(kDefaultHeadroom + std::max(n, length_), kDefaultHeadroom, nullptr);
    std::memcpy(fresh->data() + kDefaultHeadroom, storage_->data() + offset_, length_);
    UnrefStorage(storage_);
    storage_ = fresh;
    offset_ = kDefaultHeadroom;
  }
  while (length_ < n) {
    Mbuf* nxt = next_.get();
    if (nxt == nullptr) throw MbufError("Pullup: chain inconsistent");
    const std::size_t take = std::min(n - length_, nxt->length_);
    std::memcpy(storage_->data() + offset_ + length_, nxt->storage_->data() + nxt->offset_, take);
    length_ += take;
    nxt->offset_ += take;
    nxt->length_ -= take;
    if (nxt->length_ == 0) next_ = std::move(nxt->next_);
  }
}

void Mbuf::AppendChain(MbufPtr tail) {
  Mbuf* m = this;
  while (m->next_) m = m->next_.get();
  m->next_ = std::move(tail);
}

MbufPtr Mbuf::Split(std::size_t offset) {
  const std::size_t total = PacketLength();
  if (offset > total) throw MbufError("Split: beyond packet length");
  if (offset == total) return nullptr;

  // Walk to the segment containing `offset`.
  Mbuf* m = this;
  std::size_t pos = 0;
  while (pos + m->length_ <= offset && m->next_) {
    pos += m->length_;
    m = m->next_.get();
  }
  const std::size_t within = offset - pos;

  MbufPtr tail;
  if (within < m->length_) {
    // Share storage for the tail part of this segment.
    ++m->storage_->refs;
    MbufPtr tail_head(
        new Mbuf(m->storage_, m->offset_ + within, m->length_ - within));
    tail_head->next_ = std::move(m->next_);
    m->length_ = within;
    tail = std::move(tail_head);
  } else {
    // Split exactly at the end of segment m.
    tail = std::move(m->next_);
  }
  tail->pkthdr_ = pkthdr_;
  return tail;
}

void Mbuf::CopyOut(std::size_t offset, std::span<std::byte> out) const {
  if (offset + out.size() > PacketLength()) throw MbufError("CopyOut: range beyond packet");
  const Mbuf* m = this;
  std::size_t skip = offset;
  while (skip >= m->length_ && m->next_) {
    skip -= m->length_;
    m = m->next_.get();
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t avail = m->length_ - skip;
    const std::size_t take = std::min(avail, out.size() - done);
    std::memcpy(out.data() + done, m->storage_->data() + m->offset_ + skip, take);
    done += take;
    skip = 0;
    if (done < out.size()) m = m->next_.get();
  }
}

void Mbuf::CopyIn(std::size_t offset, std::span<const std::byte> in) {
  if (offset + in.size() > PacketLength()) throw MbufError("CopyIn: range beyond packet");
  Mbuf* m = this;
  std::size_t skip = offset;
  while (skip >= m->length_ && m->next_) {
    skip -= m->length_;
    m = m->next_.get();
  }
  std::size_t done = 0;
  while (done < in.size()) {
    m->EnsureUnique();
    const std::size_t avail = m->length_ - skip;
    const std::size_t take = std::min(avail, in.size() - done);
    std::memcpy(m->storage_->data() + m->offset_ + skip, in.data() + done, take);
    done += take;
    skip = 0;
    if (done < in.size()) m = m->next_.get();
  }
}

MbufPtr Mbuf::DeepCopy() const {
  PLEXUS_PROFILE_SCOPE(kMbufClone);
  PLEXUS_PROFILE_BYTES(kMbufCloneBytes, PacketLength());
  MbufPtr head;
  Mbuf* tail = nullptr;
  for (const Mbuf* m = this; m != nullptr; m = m->next_.get()) {
    Storage* storage = NewStorage(m->storage_->capacity, m->offset_, nullptr);
    std::memcpy(storage->data() + m->offset_, m->storage_->data() + m->offset_,
                m->length_);
    MbufPtr seg(new Mbuf(storage, m->offset_, m->length_));
    if (tail == nullptr) {
      head = std::move(seg);
      tail = head.get();
    } else {
      tail->next_ = std::move(seg);
      tail = tail->next_.get();
    }
  }
  head->pkthdr_ = pkthdr_;
  return head;
}

MbufPtr Mbuf::ShareClone() const {
  PLEXUS_PROFILE_SCOPE(kMbufClone);
  MbufPtr head = CloneSegment(*this);
  Mbuf* tail = head.get();
  for (const Mbuf* m = next_.get(); m != nullptr; m = m->next_.get()) {
    tail->next_ = CloneSegment(*m);
    tail = tail->next_.get();
  }
  head->pkthdr_ = pkthdr_;
  return head;
}

std::vector<std::byte> Mbuf::Linearize() const {
  std::vector<std::byte> out(PacketLength());
  if (!out.empty()) CopyOut(0, out);
  return out;
}

std::string Mbuf::ToString() const {
  auto bytes = Linearize();
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

bool Mbuf::CheckInvariants() const {
  for (const Mbuf* m = this; m != nullptr; m = m->next_.get()) {
    if (m->storage_ == nullptr) return false;
    if (m->offset_ + m->length_ > m->storage_->size()) return false;
  }
  return true;
}

}  // namespace net
