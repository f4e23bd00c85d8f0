// Generic receive offload at the TCP demux edge.
//
// Under the batched packet path, back-to-back segments of one bulk-transfer
// flow dominate an rx burst. GroEngine folds consecutive in-order pure-data
// segments of one flow into a single mbuf chain before the demux sees it,
// so the whole run pays tcp_input (and the per-segment demux/dispatch
// machinery above it) once instead of once per wire frame; each fold costs
// CostModel::gro_merge instead.
//
// Coalescing rules (the Linux-GRO boundary set, reduced to this TCP):
//   * only plain segments coalesce: flags == ACK exactly (no SYN/FIN/RST/
//     PSH/URG — connection-state edges must hit the state machine one at a
//     time), a 20-byte header (options change per segment: timestamps would
//     be lost by merging), and a non-empty payload (bare ACKs carry
//     window/ack state, not stream bytes);
//   * a segment extends the held chain only if it continues the same flow
//     (4-tuple), lands exactly in order (seq == held end), and repeats the
//     held ack and window (an ack advance or window update is control
//     information the receiver must see at its own position in the stream);
//   * at most max_merge segments fold into one chain.
// Anything else flushes the held chain first: non-coalescable segments pass
// straight through (after the flush, preserving arrival order), coalescable
// ones start a new chain.
//
// A held chain is flushed by the first of two boundaries: a non-mergeable
// segment, or burst end (FlushAll). The owner feeds the engine only inside
// a batch scope and flushes it after every RaiseBatch, so no chain outlives
// the burst that formed it.
//
// The merged chain's TCP checksum is derived, not re-scanned: each
// constituent's own checksum field vouches for the 1s-complement sum of its
// payload (pseudo-header + header + payload sum to zero), so the merged
// field is the pseudo-header and first header of the merged segment plus
// the vouched sums, each byte-swapped when it lands at an odd offset — 32
// bytes of work per constituent. A valid chain gets bit for bit the field a
// rescan would give; a constituent whose bytes disagree with its own
// checksum makes the merged segment fail tcp_input's verification, exactly
// as it would have failed alone, so GRO never launders a corrupted frame.
// The receive side therefore checksums each byte once, in tcp_input.
//
// The engine holds at most one flow's chain; destruction releases a held
// chain without delivering it (crash semantics — the owner tears the
// engine down only at quiescent points or power-fail).
#ifndef PLEXUS_PROTO_GRO_H_
#define PLEXUS_PROTO_GRO_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "net/address.h"
#include "net/checksum.h"
#include "net/headers.h"
#include "net/mbuf.h"
#include "sim/host.h"

namespace proto {

class GroEngine {
 public:
  struct Config {
    std::size_t max_merge = 16;  // wire segments folded into one chain
  };

  // Receives the (possibly merged) segment exactly as TcpDemux::Input
  // would have: TCP header + payload, IP header already stripped.
  using Sink = std::function<void(net::MbufPtr segment, net::Ipv4Address src,
                                  net::Ipv4Address dst)>;

  struct Stats {
    std::uint64_t pushed = 0;         // segments offered to the engine
    std::uint64_t merged = 0;         // segments folded into a held chain
    std::uint64_t flushes = 0;        // chains delivered to the sink
    std::uint64_t passthrough = 0;    // non-coalescable segments forwarded
    std::uint64_t malformed = 0;      // truncated runts dropped at this edge
  };

  GroEngine(sim::Host& host, Sink sink) : GroEngine(host, std::move(sink), Config()) {}
  GroEngine(sim::Host& host, Sink sink, Config config);
  GroEngine(const GroEngine&) = delete;
  GroEngine& operator=(const GroEngine&) = delete;

  // Offers one received segment. Either parks/extends the held chain or
  // delivers through the sink (flushing the held chain first whenever
  // ordering demands it).
  void Push(net::MbufPtr segment, net::Ipv4Address src, net::Ipv4Address dst);

  // Burst-end flush: delivers the held chain, if any.
  void FlushAll();

  bool holding() const { return held_ != nullptr; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  // True if the segment can participate in coalescing at all.
  static bool Coalescable(const net::TcpHeader& hdr, std::size_t payload_len);
  // True if a coalescable segment extends the current held chain.
  bool Extends(const net::TcpHeader& hdr, net::Ipv4Address src,
               net::Ipv4Address dst) const;
  void StartChain(net::MbufPtr segment, const net::TcpHeader& hdr,
                  net::Ipv4Address src, net::Ipv4Address dst,
                  std::size_t payload_len, std::uint16_t vouched);

  sim::Host& host_;
  Sink sink_;
  Config config_;
  Stats stats_;

  net::MbufPtr held_;  // chain under construction (nullptr when idle)
  net::TcpHeader held_hdr_;  // first segment's header (checksum rewritten at flush)
  net::Ipv4Address held_src_;
  net::Ipv4Address held_dst_;
  std::uint32_t held_next_seq_ = 0;  // seq the next in-order segment must carry
  // Sum of every constituent's vouched payload sum, each byte-swapped when
  // it starts at an odd offset of the merged payload; FlushAll derives the
  // merged checksum from it.
  net::InternetChecksum held_payload_sum_;
  std::size_t held_count_ = 0;       // wire segments in the chain
  // Lazily resolved: only hostile runs grow the instrument (keeps
  // fault-free metrics snapshots byte-identical).
  sim::Counter* malformed_ = nullptr;  // proto.gro.malformed_drops
};

}  // namespace proto

#endif  // PLEXUS_PROTO_GRO_H_
