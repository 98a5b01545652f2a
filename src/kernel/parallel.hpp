// craft-par: the domain-sharded execution engine (DESIGN.md §9), the
// Simulator's only scheduler loop.
//
// The engine partitions the elaborated design into GALS clock-domain groups
// (connected components of the clock graph, cut only at registered
// PausibleBisyncFifo crossings), assigns each group to a worker, and runs
// the simulation as a sequence of windows, each clamped to the next pulse
// boundary. One worker (the default, or any design with one group) runs its
// windows inline on the Simulator's main shard, bounded only by the run's
// end. Worker threads run conservative epoch windows:
//
//   M = min over shards of the next event time
//   H = min(t, M + lookahead - 1), lookahead = min crossing sync_delay
//
// Every worker runs its own shard's timed/delta loop up to H with no locks
// and no communication; a value published into a crossing at time p >= M is
// unobservable before p + sync_delay >= M + lookahead > H, so nothing one
// worker does inside a window can affect another worker in the same window.
// The crossings' SPSC slots are the only shared mutable simulation state;
// an epoch barrier between windows publishes them (release/acquire on the
// barrier counters), making the window sequence — and therefore results,
// stats and trace spans — identical for every worker count.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "kernel/simulator.hpp"
#include "kernel/time.hpp"

namespace craft::par {

class Engine {
 public:
  /// Partitions the design owned by `sim` and, when more than one group
  /// exists and `requested` > 1, starts the worker threads. Must run after
  /// elaboration (it reads the design graph, clocks and crossings).
  /// Everything queued on the main shard so far stays there for one worker
  /// and moves to the owning workers' shards otherwise.
  Engine(Simulator& sim, unsigned requested);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs all shards until absolute time `t` (or until Stop()), in
  /// windows. Called from the main thread only.
  void RunUntil(Time t);

  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }
  unsigned group_count() const { return num_groups_; }

  /// The conservative window width of worker threads: the minimum
  /// synchronizer grace window over all registered crossings (kTimeNever =
  /// no crossings, so the groups are fully independent and the whole run
  /// is one window). One inline worker ignores it.
  Time lookahead() const { return lookahead_; }

  /// True when a method process without a declared clock affinity forced
  /// the whole design into one group (parallel-safe but not concurrent).
  bool single_group_forced() const { return single_group_forced_; }

  std::uint64_t TotalDeltaCount() const;
  std::uint64_t TotalDispatchCount() const;
  std::uint64_t TotalTimedFired() const;

  // ---- craft-pulse engine telemetry (collected only while the pulse
  // registry is enabled; reads are coordinator-thread-only, ordered by the
  // epoch barrier). Wall-clock by definition, so n-variant (DESIGN.md §12).

  /// Cumulative busy wall-clock of worker `w`'s window bodies, in ns.
  std::uint64_t WorkerBusyNs(unsigned w) const { return workers_[w]->busy_ns; }

  /// Cumulative coordinator wall-clock spent dispatching windows and waiting
  /// on the epoch barrier, in ns.
  std::uint64_t window_wall_ns() const { return window_wall_ns_; }

  /// Number of conservative epoch windows run so far.
  std::uint64_t windows_run() const { return windows_run_; }

 private:
  struct Worker {
    /// The shard this worker runs: the Simulator's main shard for one
    /// inline worker, `owned` for a worker thread.
    SchedShard* shard = nullptr;
    SchedShard owned;
    /// Busy wall-clock inside RunWindow, ns. Written by the owning worker
    /// mid-window, read by the coordinator at barriers only.
    std::uint64_t busy_ns = 0;
    std::exception_ptr error;
    std::thread thread;
  };

  void Partition(unsigned requested);
  /// Moves work queued on the main shard (elaboration, between runs) onto
  /// the owning worker threads' shards. Main-thread only, workers quiescent.
  void Redistribute();
  void StartThreads();
  void WorkerLoop(Worker& w);
  /// One window on `w`'s shard: settle, then fire timesteps up to
  /// horizon_. Runs on the worker's thread (or inline for one worker).
  void RunWindow(Worker& w);
  bool threaded() const { return workers_.size() > 1; }
  static Time NextEventTime(const SchedShard& s);

  Simulator& sim_;
  std::vector<std::unique_ptr<Worker>> workers_;
  unsigned num_groups_ = 1;
  Time lookahead_ = kTimeNever;
  bool single_group_forced_ = false;
  /// Pulse-enabled at engine start: gates the per-window steady_clock reads
  /// so runs without the sampler never pay for wall-clock syscalls.
  bool measure_windows_ = false;
  std::uint64_t window_wall_ns_ = 0;
  std::uint64_t windows_run_ = 0;

  // Epoch barrier. The coordinator publishes horizon_ with the release
  // increment of epoch_; workers acquire epoch_, run the window, and
  // release-increment arrived_, which the coordinator acquires before
  // reading any shard. Both counters use C++20 atomic wait/notify. This
  // release/acquire chain is also what publishes one window's crossing-slot
  // writes to every other worker before the next window begins.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> arrived_{0};
  std::atomic<bool> quit_{false};
  Time horizon_ = 0;  // ordered by the epoch_ release/acquire pair
};

}  // namespace craft::par
