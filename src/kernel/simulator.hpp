// The simulation scheduler: timed events, delta cycles, and the two-phase
// (evaluate / update) signal protocol, mirroring SystemC's scheduler
// semantics closely enough that Connections' signal-accurate and
// sim-accurate channel models behave exactly as described in the paper.
//
// craft-par (DESIGN.md §9): every Run goes through the domain-sharded
// engine (kernel/parallel.hpp). The scheduler state lives in SchedShard so
// the engine can run one shard per worker thread, partitioned by GALS
// clock-domain group; with one worker (the default) it runs its windows
// inline on the Simulator's own shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "kernel/chaos.hpp"
#include "kernel/cover.hpp"
#include "kernel/process.hpp"
#include "kernel/pulse.hpp"
#include "kernel/report.hpp"
#include "kernel/stats.hpp"
#include "kernel/time.hpp"
#include "kernel/trace_events.hpp"

namespace craft {

class Clock;
class DesignGraph;

namespace par {
class Engine;
}  // namespace par

/// Global simulation mode, selecting which implementation Connections
/// channels instantiate (paper §2.3):
///  - kSignalAccurate: ports drive valid/ready/msg signals with delayed
///    operations, exactly as HLS would see them. Slow, and cycle counts
///    include the sequentialized-wait artifact shown in Fig. 3.
///  - kSimAccurate: ports stage transactions into channel buffers committed
///    by a per-edge helper, keeping cycle accuracy at near-native C++ speed.
enum class SimMode { kSimAccurate, kSignalAccurate };

/// Interface for anything participating in the update phase (signals).
class Updatable {
 public:
  virtual ~Updatable() = default;
  virtual void Update() = 0;
};

/// One generic timed-event queue entry: a callback at time `t` (delayed
/// notifications, testbench code).
struct TimedEntry {
  Time t;
  std::uint64_t seq;  // FIFO tie-break for determinism, shared with EdgeEntry
  std::function<void()> fn;
  bool operator>(const TimedEntry& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
};

/// One clock-edge queue entry: plain data, fired by a direct Clock::Edge()
/// call. Nearly all timed traffic is periodic clock edges, so they skip the
/// std::function of a generic entry.
struct EdgeEntry {
  Time t;
  std::uint64_t seq;
  Clock* clock;
  bool operator>(const EdgeEntry& o) const {
    return t != o.t ? t > o.t : seq > o.seq;
  }
};

/// The per-worker slice of scheduler state. One worker runs on the
/// Simulator's main shard; with worker threads the engine owns one shard
/// per thread plus the group->shard routing table in the Simulator.
struct SchedShard {
  Time now = 0;
  std::uint64_t seq = 0;
  std::uint64_t delta_count = 0;
  std::uint64_t dispatch_count = 0;
  std::uint64_t timed_fired = 0;
  /// Set by Stop() issued from a process running on this shard; breaks the
  /// delta-settle loop exactly like the single-threaded scheduler.
  bool local_stop = false;

  /// Generic callbacks and clock edges. The two heaps share `seq`, so
  /// merging them by (t, seq) gives exactly the order of one shared heap.
  std::priority_queue<TimedEntry, std::vector<TimedEntry>, std::greater<TimedEntry>>
      timed;
  std::priority_queue<EdgeEntry, std::vector<EdgeEntry>, std::greater<EdgeEntry>> edges;
  std::vector<ProcessBase*> runnable;
  std::vector<Updatable*> updates;
  /// SettleDeltas' second buffers. Each delta swaps `runnable` and `updates`
  /// with these and drains them while new work queues into the emptied
  /// originals, so both pairs keep their capacity from delta to delta.
  std::vector<ProcessBase*> dispatching;
  std::vector<Updatable*> updating;

  /// True while either heap holds an entry.
  bool HasTimed() const { return !timed.empty() || !edges.empty(); }

  /// True when the next entry in (t, seq) order is a clock edge. Requires
  /// HasTimed().
  bool EdgeIsNext() const {
    if (timed.empty()) return true;
    if (edges.empty()) return false;
    const EdgeEntry& e = edges.top();
    const TimedEntry& f = timed.top();
    return e.t != f.t ? e.t < f.t : e.seq < f.seq;
  }

  /// Time of the next entry of either heap. Requires HasTimed().
  Time NextTimed() const { return EdgeIsNext() ? edges.top().t : timed.top().t; }
};

/// Shard the calling worker thread is executing simulation work for. Null
/// on the main thread, including while one worker runs inline — accessors
/// then fall back to the Simulator's main shard.
///
/// `constinit` is load-bearing: it guarantees constant initialization, so the
/// compiler accesses the variable directly instead of going through the TLS
/// init wrapper (_ZTW/_ZTH). Besides being faster on this hot path, the
/// wrapper is what GCC's -fsanitize=null mis-instruments when inlining the
/// access from another TU (the null-check branch can consume stale flags from
/// the wrapper's weak-symbol test), producing spurious "load of null pointer"
/// aborts mid-run under UBSan.
extern thread_local constinit SchedShard* tl_sched_shard;

/// Clock-domain group of the process or clock edge currently running (0
/// outside a Run). The trace sink records into this group's arena.
extern thread_local constinit unsigned tl_sched_group;

/// The event-driven scheduler. One Simulator instance is "current" at a time
/// (RAII: the constructor installs it, the destructor uninstalls it), so
/// library components can find their scheduler without threading a pointer
/// through every constructor.
class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The currently installed simulator. Errors if none exists.
  static Simulator& Current();

  /// The currently installed simulator, or nullptr.
  static Simulator* CurrentOrNull();

  /// The elaboration-time design-graph registry (module tree, port/channel
  /// bindings, clock-domain tags). Populated passively as the design
  /// elaborates; consumed by static analysis passes (src/lint).
  DesignGraph& design_graph() { return *design_graph_; }
  const DesignGraph& design_graph() const { return *design_graph_; }

  /// Shared handle for components that may outlive the Simulator (ports
  /// deregister themselves through this on destruction).
  const std::shared_ptr<DesignGraph>& design_graph_ptr() const {
    return design_graph_;
  }

  /// The craft-stats telemetry registry (kernel/stats.hpp). Disabled by
  /// default; call stats().Enable() before elaboration to collect counters.
  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }

  /// The craft-trace transaction-event sink (kernel/trace_events.hpp).
  /// Disabled by default; call trace_events().Enable() before elaboration
  /// to record message spans and backpressure blame samples.
  TraceEventSink& trace_events() { return trace_events_; }
  const TraceEventSink& trace_events() const { return trace_events_; }

  /// The craft-chaos fault-injection engine (kernel/chaos.hpp). Disabled by
  /// default; call chaos().Enable(plan) before elaboration to arm seeded
  /// latency and corruption faults at the registered injection points.
  ChaosEngine& chaos() { return chaos_; }
  const ChaosEngine& chaos() const { return chaos_; }

  /// The craft-pulse time-series sampler + watchdog registry
  /// (kernel/pulse.hpp). Disabled by default; call pulse().Enable(cfg)
  /// before elaboration to sample every stats counter at period boundaries.
  PulseRegistry& pulse() { return pulse_; }
  const PulseRegistry& pulse() const { return pulse_; }

  /// The craft-cover functional coverage registry (kernel/cover.hpp).
  /// Disabled by default; call cover().Enable(cfg) before elaboration to
  /// derive covergroups from the design and count bin hits (implies stats).
  CoverRegistry& cover() { return cover_; }
  const CoverRegistry& cover() const { return cover_; }

  Time now() const {
    const SchedShard* s = tl_sched_shard;
    return s != nullptr ? s->now : main_shard_.now;
  }

  /// Delta cycles settled so far, summed over shards. Note the sum depends
  /// on how domains were batched: one worker settles every group's deltas
  /// in merged batches, so this is kernel-load telemetry, not a
  /// determinism-checked quantity.
  std::uint64_t delta_count() const;

  /// Number of timed-event callbacks fired so far (clock edges, delayed
  /// notifications); together with delta_count() the kernel-load telemetry.
  std::uint64_t timed_fired() const;

  SimMode mode() const { return mode_; }
  void set_mode(SimMode m) { mode_ = m; }

  // ---- craft-par: domain-sharded parallel execution ----

  /// Sets the engine's worker count. n == 1 (the default) runs the
  /// domain-sharded engine inline on the calling thread; n >= 2 runs up to
  /// n worker threads, one per GALS clock-domain group (workers are capped
  /// at the number of independent groups). Must be called before the first
  /// Run(); n == 0 raises a SimError. The CRAFT_PARALLELISM environment
  /// variable sets the same value at construction (a decimal integer >= 1;
  /// anything else raises a SimError).
  ///
  /// Determinism: for a fixed design and seeds, results, stats counters and
  /// trace span sets are identical for every n — conservative epoch
  /// windows bound each worker to the lookahead implied by its
  /// PausibleBisyncFifo crossings, so no cross-domain interaction can land
  /// inside a window (DESIGN.md §9).
  void SetParallelism(unsigned n);

  /// The SetParallelism / CRAFT_PARALLELISM value (1 by default).
  unsigned parallelism() const { return parallelism_; }

  /// Declared by every PausibleBisyncFifo: a legal clock-domain crossing
  /// from `producer_clk` to `consumer_clk` whose synchronizer grace window
  /// is `sync_delay` ps. The minimum sync_delay over all crossings is the
  /// engine's conservative lookahead; `path` (the fifo's hierarchical name)
  /// tells the partitioner which module subtree is the designated cut.
  void RegisterCrossing(const void* producer_clk, const void* consumer_clk,
                        Time sync_delay, const std::string& path);

  struct CrossingDecl {
    const void* producer_clk;
    const void* consumer_clk;
    Time sync_delay;
    std::string path;
  };
  const std::vector<CrossingDecl>& crossings() const { return crossings_; }

  /// Shard that owns clock-domain group `g`, or nullptr while no worker
  /// threads run (one worker, or before the first Run).
  SchedShard* ShardForGroupOrNull(unsigned g) const {
    return group_shards_.empty() ? nullptr : group_shards_[g];
  }

  /// Runs for `duration` picoseconds of simulated time (or until Stop()).
  void Run(Time duration);

  /// Runs until absolute time `t` (or until Stop()). A pending stop request
  /// is cleared on entry, so simulation can be resumed after a Stop().
  void RunUntil(Time t);

  /// Requests the current Run() to return; callable from inside processes.
  /// Takes effect at the end of the current delta on the calling process's
  /// shard (the update phase of the stopping delta still runs, keeping the
  /// two-phase protocol atomic). Under craft-par, other workers finish
  /// their current conservative window before the Run() returns.
  void Stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    SchedShard* s = tl_sched_shard;
    (s != nullptr ? *s : main_shard_).local_stop = true;
  }
  bool stopped() const { return stop_requested_.load(std::memory_order_relaxed); }

  /// Bounds the delta cycles settled within one timestep. Exceeding the
  /// bound raises a SimError naming the runnable processes — the standard
  /// diagnostic for a zero-delay combinational oscillation, which would
  /// otherwise hang the delta loop forever. 0 disables the bound.
  void set_delta_limit(std::uint64_t n) { delta_limit_ = n; }
  std::uint64_t delta_limit() const { return delta_limit_; }

  // ---- Scheduling interface (used by Clock, Event, Signal, processes) ----

  /// Schedules `fn` to run at absolute time `t` (>= now). Entries queued
  /// before a threaded Run go to the worker that owns group 0.
  void ScheduleAt(Time t, std::function<void()> fn);

  /// Schedules `clk`'s next edge at absolute time `t` (>= now); the edge
  /// fires by a direct Clock::Edge() call. Edges queued before a threaded
  /// Run go to the worker that owns the clock's domain group.
  void ScheduleEdge(Clock& clk, Time t) {
    SchedShard& s = CurShard();
    CRAFT_ASSERT(t >= s.now, "cannot schedule in the past");
    s.edges.push(EdgeEntry{t, s.seq++, &clk});
  }

  /// Queues a process for execution in the next evaluation phase of the
  /// current timestep. Safe to call multiple times; the process runs once.
  /// Under craft-par the target shard is the process's domain group; waking
  /// a process owned by another worker mid-window is a cross-domain
  /// interaction outside a crossing and raises a SimError.
  void MakeRunnable(ProcessBase& p) {
    if (p.queued) return;
    // One worker (no routing table) runs everything on the main shard, and
    // no worker thread exists to wake a process from the wrong one.
    if (!group_shards_.empty()) return MakeRunnableRouted(p);
    p.queued = true;
    main_shard_.runnable.push_back(&p);
  }

  /// Queues an Updatable for the update phase of the current delta.
  void QueueUpdate(Updatable& u) { CurShard().updates.push_back(&u); }

  /// Registers a process for lifetime management and the initial evaluation.
  ProcessBase& AdoptProcess(std::unique_ptr<ProcessBase> p);

  void RegisterClock(Clock& c) { clocks_.push_back(&c); }
  const std::vector<Clock*>& clocks() const { return clocks_; }

  /// Number of evaluate-phase process dispatches so far; a cheap proxy for
  /// simulator work used by the Fig. 6 speedup bench.
  std::uint64_t dispatch_count() const;

  /// All adopted processes, for the stats reporters' per-process profile.
  const std::vector<std::unique_ptr<ProcessBase>>& processes() const {
    return processes_;
  }

  /// Parallel-engine shape for reporters: {workers, groups}. {1, 1} before
  /// the first Run.
  std::pair<unsigned, unsigned> parallel_shape() const;

 private:
  friend class par::Engine;
  friend class PulseRegistry;
  friend class CoverRegistry;
  friend class TraceEventSink;

  /// Shard the calling context schedules into: the worker thread's shard
  /// inside a threaded window, the main shard otherwise (one worker,
  /// elaboration, between runs).
  SchedShard& CurShard() {
    SchedShard* s = tl_sched_shard;
    return s != nullptr ? *s : main_shard_;
  }

  /// MakeRunnable with worker threads: queues `p` on its group's shard.
  void MakeRunnableRouted(ProcessBase& p);

  /// True from the first Run(), which partitions the design.
  bool started() const { return engine_ != nullptr; }
  void SettleDeltas(SchedShard& s);
  void FireTimestep(SchedShard& s);
  [[noreturn]] void ReportDeltaOverflow(const SchedShard& s);

  std::uint64_t delta_limit_ = 1'000'000;
  std::atomic<bool> stop_requested_{false};
  unsigned parallelism_ = 1;
  SimMode mode_ = SimMode::kSimAccurate;
  std::shared_ptr<DesignGraph> design_graph_;
  StatsRegistry stats_;
  TraceEventSink trace_events_;
  ChaosEngine chaos_;
  PulseRegistry pulse_;
  CoverRegistry cover_;

  SchedShard main_shard_;
  std::vector<SchedShard*> group_shards_;  // group id -> owning shard (threads only)
  std::vector<CrossingDecl> crossings_;
  std::vector<std::unique_ptr<ProcessBase>> processes_;
  std::vector<Clock*> clocks_;
  std::unique_ptr<par::Engine> engine_;
};

}  // namespace craft
