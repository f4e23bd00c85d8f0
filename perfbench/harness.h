// Measurement harness of the repository benchmark.
//
// Two clocks meet here. Host wall time (the engine's own cost) is measured
// only around Simulator::Run, the run loop, and split into fixed-size chunks
// of completed operations. Virtual time (the model's output) is read from
// the simulators and reported separately, so an engine optimisation can be
// shown to leave it untouched.
//
// Everything the benchmark reads from the program goes through public
// surfaces: MetricsRegistry counters, the tracer's charge ledger,
// sim::Profiler sites, and spans the benchmark opens around its own calls
// into each layer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/host.h"
#include "sim/profiler.h"
#include "sim/simulator.h"

namespace perfbench {

std::int64_t WallNs();

constexpr int kMaxSystems = 3;

// --- benchmark-side spans -----------------------------------------------------

// One kind per boundary the benchmark crosses into the program.
enum SpanKind : int {
  kSimRun,        // Simulator::Run (one leg of the run loop)
  kTcpConnect,    // core::TcpManager::Connect
  kTcpSend,       // proto::TcpConnection::Send (Plexus)
  kUdpSend,       // core::UdpEndpoint::Send
  kOsSendTo,      // os::UdpSocket::SendTo
  kOsWrite,       // os::TcpSocket::Write
  kNicDeliver,    // drivers::Nic::DeliverFromWire
  kAppCallback,   // the benchmark's own handlers
  kSpanKinds,
};
const char* SpanName(int kind);

struct SpanStat {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus enclosed child spans
};

// In-memory span recorder. Disabled, a scope costs one branch. Enabled,
// every span is aggregated per (system, kind) and the first kMaxRecords are
// kept verbatim, with their parent and the id of the operation they serve,
// for WriteJson at exit.
class Spans {
 public:
  static constexpr std::size_t kMaxRecords = 200000;

  class Scope {
   public:
    Scope(Spans& spans, SpanKind kind, std::uint64_t op) {
      if (!spans.enabled_) return;
      spans_ = &spans;
      spans.Open(kind, op);
    }
    ~Scope() {
      if (spans_ != nullptr) spans_->Close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;
  };

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void SetSystem(int system) { system_ = system; }

  const SpanStat& stat(int system, SpanKind kind) const { return stats_[system][kind]; }
  SpanStat Total(SpanKind kind) const;

  bool WriteJson(const std::string& path, const std::vector<std::string>& systems) const;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start;
    std::int64_t child_ns;
    std::int64_t record;  // index into records_, or -1 past the cap
  };
  struct Record {
    int kind;
    int system;
    std::uint64_t op;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void Open(SpanKind kind, std::uint64_t op);
  void Close();

  bool enabled_ = false;
  int system_ = 0;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::uint64_t unrecorded_ = 0;
  SpanStat stats_[kMaxSystems][kSpanKinds] = {};
};

// --- counters -----------------------------------------------------------------

// Counter sums over a set of simulators and hosts. Per-instance prefixes
// ("nic0.", "nic1.") fold into one name ("nic."), gauges named *_peak keep
// their maximum, and a few non-registry readings join under fixed names:
// sim.events (events fired), cpu.busy_ns (virtual CPU busy) and
// charge.<category> (the tracer's ledger, in virtual ns).
struct Tally {
  std::map<std::string, double> counters;
  std::map<std::string, double> peaks;

  void AddSimulator(const sim::Simulator& sim);
  void AddHost(const sim::Host& host);
  void Merge(const Tally& other);
  double Get(const std::string& name) const;
  double Peak(const std::string& name) const;
};
// Counters of `end` minus `start`; peaks from `end`.
Tally Delta(const Tally& end, const Tally& start);

// Snapshot of every sim::Profiler site.
struct ProfileSnap {
  std::uint64_t calls[sim::Profiler::kSiteCount] = {};
  std::uint64_t self_ns[sim::Profiler::kSiteCount] = {};
  std::uint64_t bytes[sim::Profiler::kByteCounterCount] = {};

  static ProfileSnap Take();
  void AddDelta(const ProfileSnap& end, const ProfileSnap& start);
  std::uint64_t TotalSelfNs() const;
};

// --- machine speed --------------------------------------------------------------

// The speed of this machine right now, from a fixed kernel that shares no
// code with the simulator: a discrete-event-style loop (binary-heap timer
// queue, ~600 KiB of records) timed for about a millisecond. On a shared
// host the engine's wall time drifts by tens of percent over minutes as
// neighbours load the caches; this kernel drifts with it, so dividing by
// its step time, and multiplying by kReferenceStepNs, reports wall time at
// a fixed machine speed. The simulator's own cost changes only the
// numerator, so engine changes show at full size.
class SpeedProbe {
 public:
  // Nominal step time: the probe's typical reading on the 2.1 GHz Xeon
  // where the benchmark was set up.
  static constexpr double kReferenceStepNs = 150.0;

  SpeedProbe();
  // Wall ns per step of the reference kernel, measured now.
  double StepNs();
  // kReferenceStepNs / StepNs(): multiply a wall time by this.
  double Scale() { return kReferenceStepNs / StepNs(); }

 private:
  struct Record {
    std::uint64_t words[8];
  };
  std::vector<Record> arena_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::uint64_t state_ = 88172645463325252ULL;
};

// --- the run loop -------------------------------------------------------------

// Counts operations and times the run loop. A workload runs one system at
// a time for a "leg" of N operations: its completion callbacks call OpDone,
// which stops the simulator once the leg's quota is reached.
class Meter {
 public:
  void StartLeg(int system, std::int64_t quota);
  bool leg_done() const { return leg_ops_ >= quota_; }

  void OpDone(std::int64_t n = 1);

  // Timing is on between BeginTiming and EndTiming; ops outside it still
  // drive legs but are not counted.
  void BeginTiming();
  void EndTiming() { timing_ = false; }
  bool timing() const { return timing_; }

  // Closes a chunk: ns of run loop per op since the previous chunk, raw
  // and scaled to the reference machine speed measured right after it.
  void CloseChunk(SpeedProbe& probe);

  // Runs the simulator's loop under the wall clock (and a span when
  // tracing) until the leg stops it or the event queue drains. Returns
  // false when it drained without the leg reaching its quota.
  bool Run(sim::Simulator& sim, Spans& spans);

  std::int64_t loop_ns() const { return loop_ns_; }
  std::int64_t ops() const { return ops_; }
  std::int64_t ops(int system) const { return ops_by_system_[system]; }
  const std::vector<double>& chunks() const { return chunk_ns_per_op_; }
  const std::vector<double>& raw_chunks() const { return raw_chunk_ns_per_op_; }

 private:
  sim::Simulator* sim_ = nullptr;
  int system_ = 0;
  std::int64_t quota_ = 0;
  std::int64_t leg_ops_ = 0;
  bool timing_ = false;
  std::int64_t loop_ns_ = 0;
  std::int64_t ops_ = 0;
  std::int64_t ops_by_system_[kMaxSystems] = {};
  std::int64_t chunk_loop_ns_ = 0;
  std::int64_t chunk_ops_ = 0;
  std::vector<double> chunk_ns_per_op_;
  std::vector<double> raw_chunk_ns_per_op_;
};

// --- workloads ------------------------------------------------------------------

// Shared state every workload reports into.
struct Context {
  std::uint64_t seed = 1;
  bool tracing = false;      // switch the tracer on in every simulator built
  bool inject_drop = false;  // self-test: lose one operation on purpose
  Meter meter;
  Spans spans;
  std::int64_t attempted = 0;  // operations issued over the whole process
  std::int64_t failed = 0;     // failed a check or never completed
  std::vector<std::string> errors;

  void Fail(const std::string& why, std::int64_t n = 1);
};

// The virtual-time outputs over a fixed window of operations. Integers
// only, so the digest is exact.
struct ModelWindow {
  bool complete = false;
  std::int64_t ops = 0;
  std::int64_t virt_ns = 0;      // virtual time the window's ops took
  std::int64_t cpu_busy_ns = 0;  // virtual CPU busy, every host
  std::int64_t latency_p50_ns = 0;  // echo latency, udp_flood only
  std::int64_t latency_p99_ns = 0;
  std::vector<std::int64_t> extra;  // workload-specific exact values
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::vector<std::string> Systems() const = 0;
  // Builds every system (untimed). Warm-up runs through RunLeg.
  virtual void Build() = 0;
  // Runs `system` until `ops` more operations completed.
  virtual void RunLeg(int system, std::int64_t ops) = 0;
  // Stops issuing work, drains, and runs the end-of-run checks.
  virtual void Finish() = 0;
  // Live counters of one system (plus any retired instances).
  virtual Tally Collect(int system) = 0;
  virtual ModelWindow Window(int system) const = 0;
};

struct WorkloadSpec {
  const char* name;
  const char* op;             // what one operation is
  std::int64_t warmup_ops;    // per system
  std::int64_t chunk_ops;     // per system per chunk
};

const std::vector<WorkloadSpec>& Specs();
const WorkloadSpec* FindSpec(const std::string& name);
std::unique_ptr<Workload> MakeWorkload(const std::string& name, Context& ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
