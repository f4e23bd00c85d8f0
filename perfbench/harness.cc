#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "sim/metrics.h"
#include "sim/tracer.h"

namespace perfbench {

std::int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(int kind) {
  switch (kind) {
    case kSimRun: return "sim.run";
    case kTcpConnect: return "proto.tcp_connect";
    case kTcpSend: return "proto.tcp_send";
    case kUdpSend: return "proto.udp_send";
    case kOsSendTo: return "os.sendto";
    case kOsWrite: return "os.write";
    case kNicDeliver: return "drivers.deliver_from_wire";
    case kAppCallback: return "app.callback";
    default: return "?";
  }
}

// --- Spans ----------------------------------------------------------------------

void Spans::Open(SpanKind kind, std::uint64_t op) {
  std::int64_t record = -1;
  if (records_.size() < kMaxRecords) {
    record = static_cast<std::int64_t>(records_.size());
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    records_.push_back(Record{kind, system_, op, parent, 0, 0});
  } else {
    ++unrecorded_;
  }
  // Clock read last, so the bookkeeping above is charged to the parent.
  stack_.push_back(Frame{kind, WallNs(), 0, record});
  if (record >= 0) records_[static_cast<std::size_t>(record)].start_ns = stack_.back().start;
}

void Spans::Close() {
  const std::int64_t end = WallNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t elapsed = end - f.start;
  SpanStat& s = stats_[system_][f.kind];
  ++s.calls;
  s.total_ns += elapsed;
  s.self_ns += std::max<std::int64_t>(0, elapsed - f.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += elapsed;
  if (f.record >= 0) records_[static_cast<std::size_t>(f.record)].end_ns = end;
}

SpanStat Spans::Total(SpanKind kind) const {
  SpanStat t;
  for (const auto& per_system : stats_) {
    t.calls += per_system[kind].calls;
    t.total_ns += per_system[kind].total_ns;
    t.self_ns += per_system[kind].self_ns;
  }
  return t;
}

bool Spans::WriteJson(const std::string& path, const std::vector<std::string>& systems) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"schema\":\"perfbench-spans-v1\",\"unrecorded\":%llu,\"stats\":[",
               static_cast<unsigned long long>(unrecorded_));
  bool first = true;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (int k = 0; k < kSpanKinds; ++k) {
      const SpanStat& st = stats_[s][k];
      if (st.calls == 0) continue;
      std::fprintf(f, "%s{\"system\":\"%s\",\"span\":\"%s\",\"calls\":%llu,\"total_ns\":%lld,"
                   "\"self_ns\":%lld}",
                   first ? "" : ",", systems[s].c_str(), SpanName(k),
                   static_cast<unsigned long long>(st.calls), static_cast<long long>(st.total_ns),
                   static_cast<long long>(st.self_ns));
      first = false;
    }
  }
  std::fprintf(f, "],\"spans\":[");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f, "%s[\"%s\",\"%s\",%llu,%lld,%lld,%lld]", i == 0 ? "" : ",\n",
                 SpanName(r.kind), systems[static_cast<std::size_t>(r.system)].c_str(),
                 static_cast<unsigned long long>(r.op), static_cast<long long>(r.parent),
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Tally ------------------------------------------------------------------------

namespace {

// "nic0.rx_frames" -> "nic.rx_frames": one name across every NIC.
std::string FoldInstance(const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos || dot == 0) return name;
  std::size_t digits = dot;
  while (digits > 0 && name[digits - 1] >= '0' && name[digits - 1] <= '9') --digits;
  if (digits == dot || digits == 0) return name;
  return name.substr(0, digits) + name.substr(dot);
}

bool IsPeak(const std::string& name) {
  return name.size() > 5 && name.compare(name.size() - 5, 5, "_peak") == 0;
}

void AddRegistry(Tally& t, const sim::MetricsRegistry& r) {
  for (const auto& [name, c] : r.counters()) {
    t.counters[FoldInstance(name)] += static_cast<double>(c.value());
  }
  for (const auto& [name, g] : r.gauges()) {
    if (!IsPeak(name)) continue;
    double& p = t.peaks[FoldInstance(name)];
    p = std::max(p, static_cast<double>(g.value()));
  }
}

}  // namespace

void Tally::AddSimulator(const sim::Simulator& sim) {
  AddRegistry(*this, sim.metrics());
  counters["sim.events"] += static_cast<double>(sim.events_processed());
  for (const auto& [category, d] : sim.tracer().charge_by_category()) {
    counters["charge." + category] += static_cast<double>(d.ns());
  }
}

void Tally::AddHost(const sim::Host& host) {
  AddRegistry(*this, host.metrics());
  counters["cpu.busy_ns"] += static_cast<double>(host.cpu().busy_total().ns());
}

void Tally::Merge(const Tally& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.peaks) peaks[name] = std::max(peaks[name], v);
}

double Tally::Get(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double Tally::Peak(const std::string& name) const {
  const auto it = peaks.find(name);
  return it == peaks.end() ? 0.0 : it->second;
}

Tally Delta(const Tally& end, const Tally& start) {
  Tally d = end;
  for (const auto& [name, v] : start.counters) d.counters[name] -= v;
  return d;
}

// --- ProfileSnap -------------------------------------------------------------------

ProfileSnap ProfileSnap::Take() {
  ProfileSnap s;
  for (int i = 0; i < sim::Profiler::kSiteCount; ++i) {
    const auto& st = sim::Profiler::stats(static_cast<sim::Profiler::Site>(i));
    s.calls[i] = st.calls;
    s.self_ns[i] = st.self_ns;
  }
  for (int i = 0; i < sim::Profiler::kByteCounterCount; ++i) {
    s.bytes[i] = sim::Profiler::bytes(static_cast<sim::Profiler::ByteCounter>(i));
  }
  return s;
}

void ProfileSnap::AddDelta(const ProfileSnap& end, const ProfileSnap& start) {
  for (int i = 0; i < sim::Profiler::kSiteCount; ++i) {
    calls[i] += end.calls[i] - start.calls[i];
    self_ns[i] += end.self_ns[i] - start.self_ns[i];
  }
  for (int i = 0; i < sim::Profiler::kByteCounterCount; ++i) {
    bytes[i] += end.bytes[i] - start.bytes[i];
  }
}

std::uint64_t ProfileSnap::TotalSelfNs() const {
  std::uint64_t t = 0;
  for (const std::uint64_t v : self_ns) t += v;
  return t;
}

// --- SpeedProbe ------------------------------------------------------------------------

namespace {
constexpr std::size_t kProbeRecords = 8192;  // 8192 x 64 B = 512 KiB
constexpr std::size_t kProbeTimers = 4096;
constexpr int kProbeSteps = 8000;

std::uint64_t XorShift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}
}  // namespace

SpeedProbe::SpeedProbe() : arena_(kProbeRecords) {
  for (std::uint32_t i = 0; i < kProbeTimers; ++i) heap_.push_back({XorShift(state_) % 100000, i});
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  StepNs();  // first touch of the arena, outside any measurement
}

double SpeedProbe::StepNs() {
  std::uint64_t sink = 0;
  const std::int64_t start = WallNs();
  for (int i = 0; i < kProbeSteps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [when, id] = heap_.back();
    heap_.pop_back();
    Record& r = arena_[(id * 2654435761u) % kProbeRecords];
    for (std::uint64_t& w : r.words) w = w * 6364136223846793005ULL + when;
    sink += r.words[0];
    heap_.push_back({when + 1 + XorShift(state_) % 100000,
                     static_cast<std::uint32_t>(state_ % kProbeRecords)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  const std::int64_t elapsed = WallNs() - start;
  arena_[sink % kProbeRecords].words[1] ^= sink;  // keeps the loop observable
  return static_cast<double>(elapsed) / kProbeSteps;
}

// --- Meter ----------------------------------------------------------------------------

void Meter::StartLeg(int system, std::int64_t quota) {
  system_ = system;
  quota_ = quota;
  leg_ops_ = 0;
}

void Meter::OpDone(std::int64_t n) {
  if (timing_) {
    ops_ += n;
    ops_by_system_[system_] += n;
  }
  if (sim_ == nullptr) return;
  leg_ops_ += n;
  if (leg_ops_ >= quota_) sim_->Stop();
}

void Meter::BeginTiming() {
  timing_ = true;
  chunk_loop_ns_ = loop_ns_;
  chunk_ops_ = ops_;
}

void Meter::CloseChunk(SpeedProbe& probe) {
  const std::int64_t ops = ops_ - chunk_ops_;
  if (ops <= 0) return;
  const double raw = static_cast<double>(loop_ns_ - chunk_loop_ns_) / static_cast<double>(ops);
  raw_chunk_ns_per_op_.push_back(raw);
  chunk_ns_per_op_.push_back(raw * probe.Scale());
  chunk_loop_ns_ = loop_ns_;
  chunk_ops_ = ops_;
}

bool Meter::Run(sim::Simulator& sim, Spans& spans) {
  Spans::Scope span(spans, kSimRun, 0);
  sim_ = &sim;
  const std::int64_t start = WallNs();
  sim.Run();
  const std::int64_t elapsed = WallNs() - start;
  sim_ = nullptr;
  if (timing_) loop_ns_ += elapsed;
  return leg_done();
}

// --- Context -----------------------------------------------------------------------------

void Context::Fail(const std::string& why, std::int64_t n) {
  failed += n;
  if (errors.size() < 8) errors.push_back(why);
}

}  // namespace perfbench
