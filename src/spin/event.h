// Typed events with guards — the heart of the SPIN/Plexus architecture.
//
// An Event<Args...> corresponds to a procedure declaration inside a SPIN
// interface (e.g. Ethernet.PacketRecv). Raising the event "calls" every
// installed handler whose guard predicate evaluates true; guards are the
// packet filters that demultiplex the protocol graph (paper Sections 2-3).
//
// Guard compilation: the paper's performance claim is that "the overhead of
// invoking each handler is roughly one procedure call" — which a linear
// scan over every installed guard breaks as soon as many endpoints share
// one event. When the event's owner configures a demux key (SetDemuxKey)
// and handlers are installed with a declarative key (InstallKeyed, the
// value extracted from a core::filter::Predicate's equality constraints),
// Raise() reads the discriminating field once, probes a hash bucket, and
// merges the bucket's candidates with the residual (opaque-guard and
// unconditional) handlers in installation-id order — so observable
// semantics are identical to the linear scan, at O(1) instead of
// O(handlers).
//
// Handlers carry HandlerOptions:
//   * ephemeral     — the handler honors the EPHEMERAL contract and may be
//                     installed on interrupt-context events.
//   * declared_cost — virtual CPU time one invocation consumes (charged to
//                     the host when a Dispatcher with a host is attached).
//   * time_limit    — optional budget assigned by the protocol manager; a
//                     handler whose cost exceeds it is terminated: its
//                     side effects are abandoned and on_terminated fires.
//
// Events with requires_ephemeral() reject non-ephemeral handlers at install
// time, exactly where the paper's manager "can verify that a potential
// event handler being installed on its PacketRecv event is in fact
// ephemeral ... If the procedure is not ephemeral, the manager can reject
// the handler."
#ifndef PLEXUS_SPIN_EVENT_H_
#define PLEXUS_SPIN_EVENT_H_

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/profiler.h"
#include "sim/time.h"
#include "spin/dispatcher.h"
#include "spin/ephemeral.h"
#include "spin/result.h"

namespace spin {

using HandlerId = std::uint64_t;
inline constexpr HandlerId kInvalidHandlerId = 0;

struct HandlerStats {
  std::uint64_t invocations = 0;
  std::uint64_t guard_rejections = 0;
  std::uint64_t terminations = 0;  // cut off by the budget fence
  std::uint64_t faults = 0;        // other exceptions fenced at the boundary
  bool quarantined = false;
  std::string last_fault;  // what() of the most recent termination/fault

  std::uint64_t strikes() const { return terminations + faults; }
};

// Fault-containment policy for one handler, assigned by the protocol
// manager that accepts the handler on behalf of an untrusted application.
// With isolate set, anything escaping the handler (HandlerTerminated,
// EphemeralViolation, net::ViewError, any std::exception) is caught at the
// dispatch boundary and recorded as a fault instead of unwinding into the
// interrupt path; the remaining handlers on the event still run. Each
// termination or fault is a strike; after max_strikes the dispatcher
// quarantines the handler: it is auto-uninstalled, the event keeps its
// stats as a tombstone, and on_quarantined notifies the owning manager so
// it can release guards and ports.
struct FaultPolicy {
  bool isolate = false;
  int max_strikes = 0;  // <= 0: strikes accrue but never quarantine
  std::function<void(HandlerId, const HandlerStats&)> on_quarantined;
};

struct HandlerOptions {
  bool ephemeral = false;
  sim::Duration declared_cost = sim::Duration::Zero();
  sim::Duration time_limit = sim::Duration::Zero();  // zero = unlimited
  std::string name;                                  // for stats/debugging
  std::function<void()> on_terminated;               // fired when over budget
  FaultPolicy fault;
};

// One row of Event::Describe(): live handlers plus quarantined tombstones.
struct HandlerInfo {
  HandlerId id = kInvalidHandlerId;
  std::string name;
  HandlerStats stats;
  bool alive = false;
  bool indexed = false;  // dispatched via the demux index, not a guard scan
};

// The install-time side of guard compilation: keyed handlers live in hash
// buckets (entry pointers, ascending by handler id), opaque-guard and
// unconditional handlers on a residual linear list. Raise() merges one
// probed bucket with the residual list by id, so invocation order is
// exactly installation order — bit-identical to the linear scan it
// replaces. Bucket vectors are append-only while a raise is walking them
// (removals are deferred to the post-raise sweep), which is what makes the
// captured-size snapshot bound safe.
//
// Templated on the event's Entry record: storing Entry* directly (stable —
// entries are individually heap-owned) removes the per-candidate id->index
// hash lookup the raise loop used to pay.
template <typename Entry>
class DemuxIndex {
 public:
  void AddResidual(Entry* e) { residuals_.push_back(e); }

  void AddKeyed(Entry* e, std::uint64_t key) {
    auto& bucket = buckets_[key];
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), e, ById), e);
  }

  void RemoveKeyed(Entry* e, std::uint64_t key) {
    auto it = buckets_.find(key);
    if (it == buckets_.end()) return;
    std::erase(it->second, e);
    if (it->second.empty()) buckets_.erase(it);
  }

  void RemoveResidual(Entry* e) { std::erase(residuals_, e); }

  // The candidate list for one key value; nullptr when no handler is
  // bucketed there. The returned vector stays valid across inserts of
  // *other* keys (unordered_map references are rehash-stable).
  const std::vector<Entry*>* Probe(std::uint64_t key) const {
    auto it = buckets_.find(key);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  const std::vector<Entry*>& residuals() const { return residuals_; }
  bool has_keyed() const { return !buckets_.empty(); }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  static bool ById(const Entry* a, const Entry* b) { return a->id < b->id; }

  std::unordered_map<std::uint64_t, std::vector<Entry*>> buckets_;
  std::vector<Entry*> residuals_;
};

template <typename... Args>
class Event {
 public:
  using Handler = std::function<void(Args...)>;
  using Guard = std::function<bool(Args...)>;
  // Reads the event's discriminating field from the raise arguments — once
  // per raise, instead of once per installed guard. nullopt means the
  // field is unreadable (e.g. a truncated header): only residual handlers
  // are considered, matching the fail-closed guards the index replaces.
  using KeyExtractor = std::function<std::optional<std::uint64_t>(Args...)>;

  explicit Event(std::string name, Dispatcher* dispatcher = nullptr)
      : name_(std::move(name)), dispatcher_(dispatcher) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  const std::string& name() const { return name_; }

  // Marks this event as raised in interrupt context: only ephemeral
  // handlers may be installed.
  void set_requires_ephemeral(bool v) { requires_ephemeral_ = v; }
  bool requires_ephemeral() const { return requires_ephemeral_; }

  // Enables indexed demultiplexing: handlers installed with InstallKeyed()
  // are bucketed by the value `extract` reads from the raise arguments.
  // `field_name` is reporting-only (e.g. "udp.dst_port"). Must be
  // configured by the event's owning manager before any keyed install.
  void SetDemuxKey(std::string field_name, KeyExtractor extract) {
    demux_field_ = std::move(field_name);
    extractor_ = std::move(extract);
    demux_span_name_ = "demux:" + name_;
  }
  bool demux_enabled() const { return extractor_ != nullptr; }
  const std::string& demux_field() const { return demux_field_; }

  // Installs a handler with an optional guard. A null guard always passes
  // (an unconditional handler). These handlers stay on the residual linear
  // list: their guard is evaluated on every raise.
  Result<HandlerId> Install(Handler handler, Guard guard = nullptr, HandlerOptions opts = {}) {
    auto checked = CheckInstall(handler, opts);
    if (!checked.ok()) return checked;
    Entry* e = Append(std::move(handler), std::move(guard), std::move(opts),
                      /*indexed=*/false, {});
    index_.AddResidual(e);
    return e->id;
  }

  // Installs a handler behind the demux index: it is only considered when
  // the extracted field equals one of `keys`. `verify` (optional) is the
  // residual guard evaluated on bucket hits — used when the declarative
  // predicate constrains more than the discriminating field; null means
  // the key fully captures the guard and the handler is invoked directly.
  Result<HandlerId> InstallKeyed(Handler handler, std::uint64_t key, Guard verify = nullptr,
                                 HandlerOptions opts = {}) {
    return InstallKeyed(std::move(handler), std::vector<std::uint64_t>{key}, std::move(verify),
                        std::move(opts));
  }

  Result<HandlerId> InstallKeyed(Handler handler, std::vector<std::uint64_t> keys,
                                 Guard verify = nullptr, HandlerOptions opts = {}) {
    if (extractor_ == nullptr) {
      return Errorf("InstallKeyed(" + name_ + "): event has no demux key configured");
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      return Errorf("InstallKeyed(" + name_ + "): duplicate demux key");
    }
    auto checked = CheckInstall(handler, opts);
    if (!checked.ok()) return checked;
    Entry* e = Append(std::move(handler), std::move(verify), std::move(opts),
                      /*indexed=*/true, std::move(keys));
    for (std::uint64_t k : e->keys) index_.AddKeyed(e, k);
    return e->id;
  }

  // Grows/shrinks the key set of an indexed handler at runtime (e.g. a
  // special TCP implementation claiming a NAT port on demand). During a
  // raise the change is deferred to the post-raise sweep — the same
  // snapshot rule as installs: a raise never observes key churn it did not
  // start with.
  bool AddHandlerKey(HandlerId id, std::uint64_t key) {
    Entry* e = FindAlive(id);
    if (e == nullptr || !e->indexed) return false;
    if (std::find(e->keys.begin(), e->keys.end(), key) != e->keys.end()) return false;
    if (raising_ > 0) {
      pending_key_ops_.push_back(KeyOp{true, id, key});
      needs_sweep_ = true;
      return true;
    }
    e->keys.push_back(key);
    index_.AddKeyed(e, key);
    return true;
  }

  bool RemoveHandlerKey(HandlerId id, std::uint64_t key) {
    Entry* e = FindAlive(id);
    if (e == nullptr || !e->indexed) return false;
    if (std::find(e->keys.begin(), e->keys.end(), key) == e->keys.end()) return false;
    if (raising_ > 0) {
      pending_key_ops_.push_back(KeyOp{false, id, key});
      needs_sweep_ = true;
      return true;
    }
    std::erase(e->keys, key);
    index_.RemoveKeyed(e, key);
    return true;
  }

  bool Uninstall(HandlerId id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    Entry* e = it->second;
    if (!e->alive) return false;
    if (raising_ > 0) {
      // A raise is walking the handlers: mark dead, sweep afterwards.
      e->alive = false;
      needs_sweep_ = true;
      return true;
    }
    Entomb(*e);
    EraseEntry(e);
    return true;
  }

  // Raises the event: determines the handlers whose guards pass and
  // invokes them in installation order. Returns the number of handlers
  // that ran to completion (terminated and faulted handlers do not count).
  //
  // With a demux key configured, dispatch is indexed: one field read + one
  // hash probe replaces the linear evaluation of every keyed guard; the
  // probed bucket is merged with the residual list in installation-id
  // order, so invocation order, the reentrancy snapshot bound, mid-raise
  // uninstall, and the quarantine sweep behave exactly as in the linear
  // scan. The simulated cost model charges one demux_lookup for the probe
  // instead of N guard_evals.
  //
  // Fault containment: while a handler with a time limit runs, a measured
  // budget fence is active — sim::Host::Charge trips it mid-handler once
  // accumulated CPU time exceeds the limit, charging exactly the budget and
  // abandoning the handler's remaining side effects. Handlers whose policy
  // sets isolate additionally have every escaping exception fenced here, so
  // one faulty extension degrades only itself, never the raise. Strikes
  // accumulate per handler; crossing FaultPolicy::max_strikes quarantines
  // it (auto-uninstall + tombstoned stats + on_quarantined notification).
  //
  // Reentrancy: handlers installed during a raise are not visited by that
  // raise (snapshot bound); handlers uninstalled during a raise are marked
  // dead and skipped. Entries are individually heap-owned, so Entry* stays
  // stable while a handler installs new handlers mid-raise.
  std::size_t Raise(Args... args) {
    sim::Host* host = dispatcher_ != nullptr ? dispatcher_->host() : nullptr;
    // One load + branch when tracing is off; span names are prebuilt at
    // install time, so the enabled path allocates nothing per guard.
    const bool tracing = host != nullptr && host->tracing();
    ++raising_;
    const std::size_t invoked = RaiseOne<false>(nullptr, host, tracing, args...);
    if (--raising_ == 0 && needs_sweep_) Sweep();
    return invoked;
  }

  // Batched raise: each packet of the burst takes Raise's own dispatch
  // body, in arrival order, so guards, handler order, budget fences, fault
  // containment and the per-packet snapshot bound (a handler installed by
  // packet k is visible to packet k+1) are exactly those of N single
  // raises. What the burst amortizes is the demux probe — one per DISTINCT
  // key, flows repeat heavily within a burst — and the dispatch charge:
  // the first packet reaching an entry pays event_dispatch, further packets
  // of the same burst pay batch_dispatch. Known divergences from N single
  // raises, both documented in DESIGN.md: key churn
  // (AddHandlerKey/RemoveHandlerKey) requested mid-burst lands after the
  // whole burst, and a keyed handler installed mid-burst under a key whose
  // probe already came up empty is first seen by the next burst.
  //
  // `items` is any sized forward range; `proj(item)` returns a std::tuple
  // whose elements bind to this event's argument types. A burst of one, an
  // event without a dispatcher, or one without a compiled demux index has
  // nothing to amortize and takes plain Raise calls.
  template <typename Container, typename Proj>
  std::size_t RaiseBatch(Container& items, Proj&& proj) {
    std::size_t invoked = 0;
    if (dispatcher_ == nullptr || extractor_ == nullptr || !index_.has_keyed() ||
        items.size() < 2) {
      for (auto& item : items) {
        invoked += std::apply([&](auto&&... args) { return Raise(args...); },
                              proj(item));
      }
      return invoked;
    }
    sim::Host* host = dispatcher_->host();
    const bool tracing = host != nullptr && host->tracing();
    dispatcher_->CountBatchRaise(items.size());
    Burst burst;
    ++raising_;
    for (auto& item : items) {
      invoked += std::apply(
          [&](auto&&... args) { return RaiseOne<true>(&burst, host, tracing, args...); },
          proj(item));
    }
    if (--raising_ == 0 && needs_sweep_) Sweep();
    return invoked;
  }

  std::size_t handler_count() const {
    std::size_t n = 0;
    for (const auto& e : entries_) {
      if (e->alive) ++n;
    }
    return n;
  }

  // Handlers reachable only through a demux bucket (vs the residual scan).
  std::size_t indexed_handler_count() const {
    std::size_t n = 0;
    for (const auto& e : entries_) {
      if (e->alive && e->indexed) ++n;
    }
    return n;
  }

  // Stats survive uninstall and quarantine: swept handlers leave a
  // tombstone, so post-quarantine assertions and DescribeGraph report true
  // counts instead of silently zeroed ones.
  HandlerStats stats(HandlerId id) const {
    auto it = by_id_.find(id);
    if (it != by_id_.end()) return it->second->stats;
    auto t = tombstones_.find(id);
    if (t != tombstones_.end()) return t->second.stats;
    return {};
  }

  // Live handlers in installation order, then quarantined tombstones:
  // the per-handler view DescribeGraph renders.
  std::vector<HandlerInfo> Describe() const {
    std::vector<HandlerInfo> out;
    for (const auto& e : entries_) {
      if (!e->alive) continue;
      out.push_back(
          HandlerInfo{e->id, e->display_name, e->stats, /*alive=*/true, e->indexed});
    }
    for (const auto& [id, t] : tombstones_) {
      if (!t.stats.quarantined) continue;  // plain uninstalls stay out of the graph view
      out.push_back(HandlerInfo{id, t.name, t.stats, /*alive=*/false, /*indexed=*/false});
    }
    return out;
  }

 private:
  struct Entry {
    HandlerId id = kInvalidHandlerId;
    Guard guard;  // residual guard, or an indexed handler's verify guard (may be null)
    Handler handler;
    HandlerOptions opts;
    HandlerStats stats;
    bool alive = true;
    bool indexed = false;
    std::vector<std::uint64_t> keys;  // demux keys (indexed handlers only)
    // Flattened at install time so the raise path never rebuilds them:
    std::string display_name;
    std::string guard_span_name;  // "guard:" + display_name
    bool has_time_limit = false;
  };
  struct Tombstone {
    std::string name;
    HandlerStats stats;
  };
  struct KeyOp {
    bool add;
    HandlerId id;
    std::uint64_t key;
  };
  // What a RaiseBatch burst remembers between its packets. Cached bucket
  // pointers stay valid because both dispatch vectors are append-only
  // while raising_ > 0 (removals defer to the sweep) and the bucket map
  // has stable references.
  struct Burst {
    // One probe per distinct key; nullopt (unreadable field) is a key too.
    std::vector<std::pair<std::optional<std::uint64_t>, const std::vector<Entry*>*>> probed;
    // Entries already past their guard once this burst: repeat visits are
    // hot and charge at the amortized rate.
    std::vector<Entry*> hot;
    Burst() {
      probed.reserve(8);
      hot.reserve(8);
    }
  };

  // The one per-packet dispatch body behind Raise and RaiseBatch: count
  // the raise, probe the demux index, merge the probed bucket with the
  // residual list in installation-id order, dispatch. kBurst compiles in
  // the burst's probe cache and hot-entry amortization; a single raise
  // carries none of it. The caller holds raising_ and sweeps after.
  template <bool kBurst>
  std::size_t RaiseOne([[maybe_unused]] Burst* burst, sim::Host* host, bool tracing,
                       Args... args) {
    PLEXUS_PROFILE_SCOPE(kEventRaise);
    if (dispatcher_ != nullptr) dispatcher_->CountRaise();
    sim::TraceSpan raise_span;
    if (tracing) raise_span.Begin(*host, name_, "dispatch");
    const std::vector<Entry*>* bucket = nullptr;
    if (extractor_ != nullptr && index_.has_keyed()) {
      PLEXUS_PROFILE_SCOPE(kDemuxLookup);
      sim::TraceSpan demux_span;
      if (tracing) demux_span.Begin(*host, demux_span_name_, "demux");
      const std::optional<std::uint64_t> key = extractor_(args...);
      bool cached = false;
      if constexpr (kBurst) {
        for (const auto& [k, b] : burst->probed) {
          if (k == key) {
            bucket = b;
            cached = true;
            break;
          }
        }
      }
      if (!cached) {
        // Charged even when the extractor declines the packet.
        if (dispatcher_ != nullptr) dispatcher_->ChargeDemuxLookup();
        if (key.has_value()) bucket = index_.Probe(*key);
        if constexpr (kBurst) burst->probed.emplace_back(key, bucket);
      }
    }
    // Sizes captured up front: handlers installed during this raise land
    // beyond them and are not visited (the snapshot bound). Candidates are
    // Entry* — no per-candidate id lookup. Without a demux key every
    // handler is on the residual list, in installation order.
    const std::size_t nb = bucket != nullptr ? bucket->size() : 0;
    const std::size_t nr = index_.residuals().size();
    std::size_t ib = 0, ir = 0;
    std::size_t invoked = 0;
    while (ib < nb || ir < nr) {
      Entry* e;
      if (ir >= nr || (ib < nb && (*bucket)[ib]->id < index_.residuals()[ir]->id)) {
        e = (*bucket)[ib++];
      } else {
        e = index_.residuals()[ir++];
      }
      if (!e->alive) continue;  // uninstalled mid-raise
      if constexpr (kBurst) {
        const bool amortized =
            std::find(burst->hot.begin(), burst->hot.end(), e) != burst->hot.end();
        const std::uint64_t rejections_before = e->stats.guard_rejections;
        invoked += DispatchTo(*e, host, tracing, amortized, args...);
        // Guard-rejected packets never reach the dispatch charge, so they
        // do not warm the entry.
        if (!amortized && e->stats.guard_rejections == rejections_before) {
          burst->hot.push_back(e);
        }
      } else {
        invoked += DispatchTo(*e, host, tracing, /*amortized=*/false, args...);
      }
    }
    return invoked;
  }

  Result<HandlerId> CheckInstall(const Handler& handler, const HandlerOptions& opts) const {
    if (!handler) return Errorf("Install(" + name_ + "): null handler");
    if (requires_ephemeral_ && !opts.ephemeral) {
      return Errorf("Install(" + name_ + "): event runs at interrupt level; handler '" +
                    opts.name + "' is not EPHEMERAL");
    }
    if (opts.time_limit > sim::Duration::Zero() && !opts.ephemeral) {
      return Errorf("Install(" + name_ + "): a time limit may only be assigned to an "
                    "EPHEMERAL handler");
    }
    return kInvalidHandlerId;  // placeholder: callers only test ok()
  }

  Entry* Append(Handler handler, Guard guard, HandlerOptions opts, bool indexed,
                std::vector<std::uint64_t> keys) {
    if (dispatcher_ != nullptr) dispatcher_->ChargeInstall();
    const HandlerId id = next_id_++;
    auto owned = std::make_unique<Entry>();
    Entry* e = owned.get();
    e->id = id;
    e->guard = std::move(guard);
    e->handler = std::move(handler);
    e->opts = std::move(opts);
    e->indexed = indexed;
    e->keys = std::move(keys);
    e->display_name = e->opts.name.empty() ? ("handler#" + std::to_string(id)) : e->opts.name;
    e->guard_span_name = "guard:" + e->display_name;
    e->has_time_limit = e->opts.time_limit > sim::Duration::Zero();
    entries_.push_back(std::move(owned));
    by_id_[id] = e;
    return e;
  }

  // Guard check + budget fence + invocation + fault containment for one
  // handler. Returns 1 if the handler ran to completion. `amortized` marks a
  // RaiseBatch repeat visit to an entry that already ran earlier in the
  // same burst: the handler is hot, so the framework charge drops to
  // batch_dispatch.
  std::size_t DispatchTo(Entry& e, sim::Host* host, bool tracing, bool amortized,
                         Args... args) {
    if (e.guard) {
      PLEXUS_PROFILE_SCOPE(kHandlerGuard);
      sim::TraceSpan guard_span;
      if (tracing) guard_span.Begin(*host, e.guard_span_name, "guard");
      if (dispatcher_ != nullptr) dispatcher_->ChargeGuard();
      if (!e.guard(args...)) {
        ++e.stats.guard_rejections;
        if (dispatcher_ != nullptr) dispatcher_->CountGuardReject();
        return 0;
      }
    }
    const bool measurable = host != nullptr && host->in_task() && e.has_time_limit;
    if (!measurable && e.has_time_limit && e.opts.declared_cost > e.opts.time_limit) {
      // No measuring substrate (free-running event): fall back to the
      // declared-cost admission check. The budget the handler would have
      // burned before termination is still charged to the CPU.
      if (dispatcher_ != nullptr) dispatcher_->Charge(e.opts.time_limit);
      RecordTermination(e, HandlerTerminated(e.display_name, e.opts.time_limit));
      return 0;
    }
    if (dispatcher_ != nullptr) {
      if (amortized) {
        dispatcher_->ChargeBatchDispatch();
      } else {
        dispatcher_->ChargeDispatch();
      }
    }
    try {
      // Opened before the budget fence so a mid-handler termination still
      // unwinds through the span and leaves a balanced trace.
      sim::TraceSpan handler_span;
      if (tracing) handler_span.Begin(*host, e.display_name, "handler");
      // The fence brackets the declared entry charge and the handler body:
      // termination strikes whenever *measured* time crosses the limit,
      // whether at admission or deep inside the handler.
      BudgetScope budget(measurable ? host : nullptr, e.opts.time_limit, e.display_name);
      if (dispatcher_ != nullptr) dispatcher_->Charge(e.opts.declared_cost);
      ++e.stats.invocations;
      if (e.opts.ephemeral) {
        EphemeralScope scope;
        e.handler(args...);
      } else {
        e.handler(args...);
      }
      return 1;
    } catch (const HandlerTerminated& t) {
      RecordTermination(e, t);
    } catch (const std::exception& ex) {
      if (!e.opts.fault.isolate) throw;  // trusted handler: propagate
      RecordFault(e, ex.what());
    } catch (...) {
      if (!e.opts.fault.isolate) throw;
      RecordFault(e, "non-standard exception");
    }
    return 0;
  }

  Entry* FindAlive(HandlerId id) {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return nullptr;
    Entry* e = it->second;
    return e->alive ? e : nullptr;
  }

  void Entomb(const Entry& e) { tombstones_[e.id] = Tombstone{e.display_name, e.stats}; }

  void DropFromDispatchLists(Entry* e) {
    if (e->indexed) {
      for (std::uint64_t k : e->keys) index_.RemoveKeyed(e, k);
    } else {
      index_.RemoveResidual(e);
    }
  }

  void EraseEntry(Entry* e) {
    DropFromDispatchLists(e);
    by_id_.erase(e->id);
    std::erase_if(entries_,
                  [e](const std::unique_ptr<Entry>& p) { return p.get() == e; });
  }

  void Sweep() {
    needs_sweep_ = false;
    for (const auto& e : entries_) {
      if (e->alive) continue;
      Entomb(*e);
      DropFromDispatchLists(e.get());
      by_id_.erase(e->id);
    }
    std::erase_if(entries_, [](const std::unique_ptr<Entry>& e) { return !e->alive; });
    // Key changes requested mid-raise take effect here — raising_ is 0, so
    // these recurse into the immediate path.
    std::vector<KeyOp> pending;
    pending.swap(pending_key_ops_);
    for (const KeyOp& op : pending) {
      if (op.add) {
        AddHandlerKey(op.id, op.key);
      } else {
        RemoveHandlerKey(op.id, op.key);
      }
    }
  }

  void RecordTermination(Entry& e, const HandlerTerminated& t) {
    ++e.stats.terminations;
    e.stats.last_fault = t.what();
    if (dispatcher_ != nullptr) dispatcher_->CountTermination();
    if (e.opts.on_terminated) e.opts.on_terminated();
    MaybeQuarantine(e);
  }

  void RecordFault(Entry& e, const std::string& what) {
    ++e.stats.faults;
    e.stats.last_fault = what;
    if (dispatcher_ != nullptr) dispatcher_->CountFault();
    MaybeQuarantine(e);
  }

  // Strike-based quarantine: once terminations + faults reach the policy's
  // max_strikes the handler is removed from the event (its stats persist as
  // a tombstone) and the owning manager is notified.
  void MaybeQuarantine(Entry& e) {
    const auto& policy = e.opts.fault;
    if (policy.max_strikes <= 0 || !e.alive) return;
    if (e.stats.strikes() < static_cast<std::uint64_t>(policy.max_strikes)) return;
    e.stats.quarantined = true;
    e.alive = false;
    needs_sweep_ = true;  // quarantine always happens inside a raise
    if (dispatcher_ != nullptr) dispatcher_->CountQuarantine();
    if (policy.on_quarantined) policy.on_quarantined(e.id, e.stats);
  }

  std::string name_;
  Dispatcher* dispatcher_;
  bool requires_ephemeral_ = false;
  // Installation order. Individually heap-owned so the dispatch lists can
  // hold stable Entry* — the raise loop touches no id->entry map at all.
  std::vector<std::unique_ptr<Entry>> entries_;
  // id -> entry, for the cold paths only (Uninstall, stats, key churn).
  std::unordered_map<HandlerId, Entry*> by_id_;
  DemuxIndex<Entry> index_;
  KeyExtractor extractor_;
  std::string demux_field_;
  std::string demux_span_name_;
  std::vector<KeyOp> pending_key_ops_;  // key churn deferred past the raise
  // Stats of removed handlers, keyed by id. The simulator's handler
  // population is small and ids are never reused, so this stays bounded.
  std::map<HandlerId, Tombstone> tombstones_;
  int raising_ = 0;
  bool needs_sweep_ = false;
  HandlerId next_id_ = 1;
};

}  // namespace spin

#endif  // PLEXUS_SPIN_EVENT_H_
