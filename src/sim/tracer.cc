#include "sim/tracer.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "sim/env_flag.h"
#include "sim/metrics.h"

namespace sim {
namespace {

// ns -> "123.456" microseconds with fixed 3 decimals, formatted from the
// integer so exports are byte-stable across platforms/locales.
std::string MicrosFixed(std::int64_t ns) {
  const bool neg = ns < 0;
  std::uint64_t v = neg ? static_cast<std::uint64_t>(-ns)
                        : static_cast<std::uint64_t>(ns);
  std::string frac = std::to_string(v % 1000);
  while (frac.size() < 3) frac.insert(frac.begin(), '0');
  return (neg ? "-" : "") + std::to_string(v / 1000) + "." + frac;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  enabled_ = EnvFlag("PLEXUS_TRACE", false);
}

int Tracer::RegisterTrack(std::string name) {
  tracks_.push_back(Track{std::move(name), {}});
  return static_cast<int>(tracks_.size()) - 1;
}

void Tracer::BeginSpan(int track, TimePoint task_start, Duration offset,
                       std::string name, std::string category,
                       std::uint64_t trace_id) {
  if (!enabled_) return;
  tracks_[track].open.push_back(OpenFrame{task_start, offset, Duration::Zero(),
                                          Duration::Zero(), trace_id,
                                          std::move(name), std::move(category)});
}

void Tracer::EndSpan(int track) {
  if (!enabled_) return;
  auto& open = tracks_[track].open;
  if (open.empty()) return;  // enabled flipped mid-span; drop silently
  OpenFrame f = std::move(open.back());
  open.pop_back();
  Record r;
  r.kind = Record::Kind::kSpan;
  r.track = track;
  r.depth = static_cast<int>(open.size());
  r.task_start = f.task_start;
  r.begin_offset = f.begin_offset;
  r.total = f.total;
  r.self = f.self;
  r.trace_id = f.trace_id;
  r.name = std::move(f.name);
  r.category = std::move(f.category);
  Push(std::move(r));
}

void Tracer::RecordInstant(int track, TimePoint task_start, Duration offset,
                           std::string name, std::string category,
                           std::uint64_t trace_id) {
  if (!enabled_) return;
  Record r;
  r.kind = Record::Kind::kInstant;
  r.track = track;
  r.depth = static_cast<int>(tracks_[track].open.size());
  r.task_start = task_start;
  r.begin_offset = offset;
  r.trace_id = trace_id;
  r.name = std::move(name);
  r.category = std::move(category);
  Push(std::move(r));
}

void Tracer::Attribute(int track, Duration billed) {
  total_charged_ += billed;
  auto& open = tracks_[track].open;
  if (open.empty()) {
    charge_by_category_["(unattributed)"] += billed;
    return;
  }
  for (auto& frame : open) frame.total += billed;
  open.back().self += billed;
  charge_by_category_[open.back().category] += billed;
}

void Tracer::Push(Record r) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(r));
    return;
  }
  // Ring full: the oldest record is overwritten — an accounted drop, not a
  // silent one. The counter is resolved on the first drop so wrap-free runs
  // never register it.
  ring_[head_] = std::move(r);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
  if (dropped_ctr_ == nullptr && drop_registry_ != nullptr) {
    dropped_ctr_ = &drop_registry_->counter("sim.tracer_dropped");
  }
  if (dropped_ctr_ != nullptr) dropped_ctr_->Inc();
}

void Tracer::SetCapacity(std::size_t capacity) {
  capacity_ = capacity > 0 ? capacity : 1;
  ring_.clear();
  head_ = 0;
}

std::vector<Tracer::Record> Tracer::Records() const {
  std::vector<Record> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::Clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  for (auto& t : tracks_) t.open.clear();
  charge_by_category_.clear();
  total_charged_ = Duration::Zero();
}

namespace {
// Begin-position ordering: spans were recorded at completion, which puts
// children before parents; exporters re-sort by synthesized begin position,
// parents (smaller depth) first at equal positions.
std::vector<Tracer::Record> SortedByBegin(std::vector<Tracer::Record> recs) {
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Tracer::Record& a, const Tracer::Record& b) {
                     const std::int64_t ta = a.task_start.ns() + a.begin_offset.ns();
                     const std::int64_t tb = b.task_start.ns() + b.begin_offset.ns();
                     if (ta != tb) return ta < tb;
                     if (a.track != b.track) return a.track < b.track;
                     return a.depth < b.depth;
                   });
  return recs;
}
}  // namespace

std::string Tracer::ExportChromeJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    out << (first ? "" : ",")
        << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << t
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << JsonEscape(tracks_[t].name) << "\"}}";
    first = false;
  }
  for (const Record& r : SortedByBegin(Records())) {
    const std::int64_t begin_ns = r.task_start.ns() + r.begin_offset.ns();
    out << (first ? "" : ",") << "{\"ph\":\""
        << (r.kind == Record::Kind::kSpan ? 'X' : 'i') << "\",\"pid\":0,\"tid\":"
        << r.track << ",\"ts\":" << MicrosFixed(begin_ns);
    if (r.kind == Record::Kind::kSpan) {
      out << ",\"dur\":" << MicrosFixed(r.total.ns());
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"name\":\"" << JsonEscape(r.name) << "\",\"cat\":\""
        << JsonEscape(r.category) << "\",\"args\":{\"trace_id\":" << r.trace_id
        << ",\"self_ns\":" << r.self.ns() << ",\"total_ns\":" << r.total.ns()
        << "}}";
    first = false;
  }
  out << "]}";
  return out.str();
}

std::string Tracer::ExportChargeBreakdownJson() const {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [cat, d] : charge_by_category_) {
    out << (first ? "" : ",") << '"' << JsonEscape(cat) << "\":" << d.ns();
    first = false;
  }
  out << '}';
  return out.str();
}

}  // namespace sim
