#include "drivers/medium.h"

#include <algorithm>
#include <cassert>

#include "drivers/nic.h"
#include "sim/env_flag.h"

namespace drivers {

Medium::Medium(sim::Simulator& s, std::uint64_t fault_seed) : sim_(s), rng_(fault_seed) {
  // PLEXUS_CHAOS_FLAP: inject one short mid-run carrier flap on every
  // medium. The window is narrow (2 us, ~7.777 ms in) so only frames that
  // hit the wire inside it vanish; everything above must absorb the loss
  // via its normal recovery paths. Used by check.sh to run the tier-1
  // suite with structural loss enabled.
  if (sim::EnvFlag("PLEXUS_CHAOS_FLAP", false)) {
    const sim::TimePoint down = sim_.Now() + sim::Duration::Nanos(7'777'000);
    sim_.ScheduleAt(down, [this] { set_carrier(false); });
    sim_.ScheduleAt(down + sim::Duration::Nanos(2'000), [this] { set_carrier(true); });
  }
}

void Medium::set_carrier(bool up) {
  if (carrier_ == up) return;
  carrier_ = up;
  for (Nic* tap : taps_) tap->OnCarrierChange(up);
}

void PointToPointLink::Transmit(Nic* from, net::MbufPtr frame) {
  assert(taps_.size() == 2 && "point-to-point link needs exactly two taps");
  if (CarrierDead()) return;  // dead link: the frame vanishes for free
  const int dir = (from == taps_[0]) ? 0 : 1;
  Nic* to = taps_[dir == 0 ? 1 : 0];
  if (Severed(from, to)) {
    ++frames_dropped_partition_;
    return;
  }
  frame = MaybeTruncate(MaybeCorrupt(std::move(frame)));
  auto shared = std::shared_ptr<net::Mbuf>(frame.release());
  if (MaybeHold(from, shared)) return;  // released after the next transmit

  const auto& profile = from->profile();
  const std::size_t len = shared->PacketLength();

  const sim::TimePoint start = std::max(sim_.Now(), dir_free_[dir]);
  const sim::Duration ser = profile.SerializationDelay(len);
  dir_free_[dir] = start + ser;

  const sim::TimePoint nominal_arrival = start + ser + profile.propagation;
  const int copies = FaultCopies();
  for (int i = 0; i < copies; ++i) {
    const sim::TimePoint arrival = nominal_arrival + Jitter();
    sim_.ScheduleAt(arrival, [to, shared] {
      to->DeliverFromWire(net::MbufPtr(shared->ShareClone()), /*check_address=*/false);
    });
  }

  if (auto [held_from, held] = TakeHeld(); held != nullptr) {
    ++frames_carried_;
    Nic* held_to = taps_[held_from == taps_[0] ? 1 : 0];
    sim_.ScheduleAt(nominal_arrival + sim::Duration::Nanos(1), [held_to, held] {
      held_to->DeliverFromWire(net::MbufPtr(held->ShareClone()), /*check_address=*/false);
    });
  }
}

void EthernetSegment::Transmit(Nic* from, net::MbufPtr frame) {
  if (CarrierDead()) return;  // dead segment: the frame vanishes for free
  frame = MaybeTruncate(MaybeCorrupt(std::move(frame)));
  auto shared = std::shared_ptr<net::Mbuf>(frame.release());
  if (MaybeHold(from, shared)) return;  // released after the next transmit

  const auto& profile = from->profile();
  const std::size_t len = shared->PacketLength();

  // Half duplex: the segment carries one frame at a time. (Collisions are
  // modeled as serialization, which preserves throughput behavior without
  // simulating exponential backoff.)
  const sim::TimePoint start = std::max(sim_.Now(), wire_free_);
  const sim::Duration ser = profile.SerializationDelay(len);
  wire_free_ = start + ser;

  const sim::TimePoint nominal_arrival = start + ser + profile.propagation;
  const int copies = FaultCopies();
  for (int i = 0; i < copies; ++i) {
    for (Nic* tap : taps_) {
      if (tap == from) continue;
      if (Severed(from, tap)) {
        ++frames_dropped_partition_;
        continue;
      }
      const sim::TimePoint arrival = nominal_arrival + Jitter();
      sim_.ScheduleAt(arrival, [tap, shared] {
        tap->DeliverFromWire(net::MbufPtr(shared->ShareClone()), /*check_address=*/true);
      });
    }
  }

  if (auto [held_from, held] = TakeHeld(); held != nullptr) {
    ++frames_carried_;
    for (Nic* tap : taps_) {
      if (tap == held_from) continue;
      if (Severed(held_from, tap)) {
        ++frames_dropped_partition_;
        continue;
      }
      sim_.ScheduleAt(nominal_arrival + sim::Duration::Nanos(1), [tap, held] {
        tap->DeliverFromWire(net::MbufPtr(held->ShareClone()), /*check_address=*/true);
      });
    }
  }
}

}  // namespace drivers
