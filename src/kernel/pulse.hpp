// craft-pulse: time-series telemetry and runtime health watchdogs (the
// ROADMAP's "live observability" step). craft-stats answers *what* a run did
// after it finished; craft-pulse answers *how it evolved* while it was still
// running — windowed snapshots of every registered counter plus two online
// watchdogs (progress, throughput) that fault or warn the moment a campaign
// livelocks or collapses below its craft-prove static bound, instead of
// hanging until a ctest timeout.
//
// Architecture mirrors craft-stats / craft-trace / craft-chaos: a
// PulseRegistry hangs off the Simulator; call `sim.pulse().Enable(cfg)`
// BEFORE elaborating the design (it auto-enables the stats registry it
// samples from). While disabled, next_boundary_ stays kTimeNever so the
// scheduler-side hook SampleBefore() reduces to one never-taken compare —
// the same zero-cost-when-off contract as the other registries (verified by
// bench/kernel_microbench).
//
// Determinism (DESIGN.md §12): windows are sampled at exact period
// boundaries B = k * period with the semantics "every event at t <= B has
// fired, nothing after B has". The engine clamps every window to the next
// boundary and samples between windows, so every worker count observes
// identical counter values at identical boundaries, and the n-invariant subset of the series (channels, crossings, FIFOs,
// kernel commits/stalls, watchdog alerts) is fingerprint-identical for every
// SetParallelism(n). n-variant fields (per-worker utilization, kernel
// delta/dispatch load, per-process dispatch series) are exported under
// *_n_variant keys and excluded from fingerprints, like DESIGN.md §9's
// delta-count carve-out. One documented edge: a Stop() that lands mid-window
// may or may not leave time past the final boundary depending on the worker
// count, so fingerprint comparisons use fixed horizons without Stop (§11 has the
// same carve-out for chaos event totals).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernel/time.hpp"

namespace craft {

class Simulator;

/// Sampler + watchdog configuration, passed to `sim.pulse().Enable(cfg)`.
struct PulseConfig {
  /// Sampling period in picoseconds. Boundaries are absolute multiples of
  /// the period, independent of when Enable() ran.
  Time period_ps = 10'000'000;  // 10 us

  /// Ring capacity per series: the newest `capacity` windows are kept;
  /// evicted deltas fold into the series base so cumulative totals stay
  /// exact. Idle gaps longer than the capacity skip straight to the newest
  /// windows (counted in windows_dropped_idle()).
  std::size_t capacity = 512;

  /// Progress watchdog: fault (SimError) when no channel/crossing commit
  /// lands for this many consecutive windows while blocked endpoints keep
  /// accruing stall cycles. 0 disables the watchdog.
  unsigned progress_windows = 0;

  /// Throughput watchdog (armed per channel via ArmThroughput): warn when a
  /// channel's windowed rate stays below throughput_fraction of its static
  /// bound for this many consecutive windows. 0 disables the watchdog.
  unsigned throughput_windows = 3;
  double throughput_fraction = 0.5;

  /// When non-null, one heartbeat line is printed here per sampled window —
  /// the campaign liveness signal nightly CI tails. Label prefixes the line
  /// so interleaved runs stay attributable.
  std::FILE* heartbeat = nullptr;
  std::string heartbeat_label;
};

/// Fixed-capacity ring of cumulative counter samples. Evicting the oldest
/// window folds its value into `base`, so base + sum(DeltaAt(i)) == last()
/// exactly no matter how many windows were evicted.
class PulseSeries {
 public:
  void Init(std::size_t cap) { cap_ = cap == 0 ? 1 : cap; }

  void Append(std::uint64_t cumulative) {
    if (ring_.size() < cap_) {
      ring_.push_back(cumulative);
    } else {
      base_ = ring_[head_];
      ring_[head_] = cumulative;
      head_ = (head_ + 1) % cap_;
    }
  }

  std::size_t size() const { return ring_.size(); }

  /// i-th kept window's cumulative value, oldest first.
  std::uint64_t at(std::size_t i) const { return ring_[(head_ + i) % ring_.size()]; }

  /// Delta accrued within the i-th kept window.
  std::uint64_t DeltaAt(std::size_t i) const {
    return at(i) - (i == 0 ? base_ : at(i - 1));
  }

  /// Cumulative value at the start of the oldest kept window.
  std::uint64_t base() const { return base_; }

  /// Latest cumulative value (base() while empty).
  std::uint64_t last() const { return ring_.empty() ? base_ : at(ring_.size() - 1); }

 private:
  std::size_t cap_ = 1;
  std::size_t head_ = 0;
  std::uint64_t base_ = 0;
  std::vector<std::uint64_t> ring_;
};

/// Window stamp: monotonically numbered across the whole run (eviction and
/// idle-gap dropping never renumber), sampled at absolute time t_ps.
struct PulseWindow {
  std::uint64_t index = 0;
  Time t_ps = 0;
};

/// Fixed-capacity ring of window stamps, aligned with every PulseSeries.
class PulseWindowRing {
 public:
  void Init(std::size_t cap) { cap_ = cap == 0 ? 1 : cap; }
  void Append(const PulseWindow& w) {
    if (ring_.size() < cap_) {
      ring_.push_back(w);
    } else {
      ring_[head_] = w;
      head_ = (head_ + 1) % cap_;
    }
  }
  std::size_t size() const { return ring_.size(); }
  const PulseWindow& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

 private:
  std::size_t cap_ = 1;
  std::size_t head_ = 0;
  std::vector<PulseWindow> ring_;
};

/// Per-channel series (one per registered ChannelStats site). start_window
/// is the global index of the first window this site was sampled in (sites
/// registered after Enable simply start later).
struct PulseChannelSeries {
  std::uint64_t start_window = 0;
  std::string kind;
  unsigned capacity = 0;
  std::uint64_t period_ps = 0;
  PulseSeries enqueues;
  PulseSeries dequeues;
  PulseSeries full_stall_cycles;
  PulseSeries empty_stall_cycles;
  PulseSeries rejects;  ///< push_rejects + pop_rejects
  PulseSeries occupancy_high_water;  ///< cumulative high-water (monotone)
};

struct PulseCrossingSeries {
  std::uint64_t start_window = 0;
  PulseSeries transfers;
  PulseSeries enq_sync_wait_cycles;
  PulseSeries deq_sync_wait_cycles;
  PulseSeries pause_events;  ///< enq + deq pause events
};

struct PulseFifoSeries {
  std::uint64_t start_window = 0;
  PulseSeries pushes;
  PulseSeries pops;
  PulseSeries high_water;  ///< cumulative high-water (monotone)
};

/// Per-process dispatch series. Delta batching differs between worker
/// counts (DESIGN.md §9), so this whole family is n-variant and excluded from
/// fingerprints.
struct PulseProcessSeries {
  std::uint64_t start_window = 0;
  PulseSeries dispatches;
};

/// Kernel-global series. commits / stall_cycles are n-invariant (sums of
/// channel dequeues + crossing transfers, and of channel stall cycles);
/// delta_cycles / timed_events / dispatches are kernel-load telemetry and
/// n-variant.
struct PulseKernelSeries {
  PulseSeries commits;
  PulseSeries stall_cycles;
  PulseSeries delta_cycles;
  PulseSeries timed_events;
  PulseSeries dispatches;
};

/// Parallel-engine series (empty before the first Run): per-worker
/// busy wall-clock and the coordinator's dispatch+barrier wall-clock. Wall
/// time is host noise by definition — n-variant, excluded from fingerprints.
struct PulseEngineSeries {
  std::vector<PulseSeries> worker_busy_ns;  ///< indexed by worker
  PulseSeries window_wall_ns;
  PulseSeries windows_run;
};

/// One watchdog firing. `message` is deterministic (window index, simulated
/// time, counter deltas — never wall-clock or blame text), so alerts are
/// part of the n-invariant fingerprint.
struct PulseAlert {
  std::uint64_t window = 0;
  Time t_ps = 0;
  std::string watchdog;  ///< "progress" | "throughput"
  std::string site;      ///< channel name, or "" for kernel-global
  std::string message;
};

/// The time-series registry. One per Simulator; disabled by default.
class PulseRegistry {
 public:
  bool enabled() const { return enabled_; }

  /// Turns sampling on. Must be called before the design elaborates and
  /// before the first Run(); auto-enables the stats registry it snapshots.
  void Enable(const PulseConfig& cfg);

  /// Scheduler hook: called with the time of the next event about to fire
  /// (or horizon+1 at the end of a run). Samples every boundary < limit.
  /// One compare when disabled (next_boundary_ stays kTimeNever).
  void SampleBefore(Time limit) {
    if (next_boundary_ < limit) SampleWindows(limit);
  }

  /// Next unsampled period boundary (kTimeNever while disabled). The
  /// engine clamps its window horizon to this so boundaries always
  /// coincide with barrier-synchronized points.
  Time next_boundary() const { return next_boundary_; }

  /// Arms the throughput watchdog with per-channel static bounds
  /// (tokens/ps, from craft-prove's analyze pass) and the critical-cycle
  /// description named in alerts. Callable any time after Enable().
  void ArmThroughput(const std::map<std::string, double>& bounds_tokens_per_ps,
                     const std::string& critical_cycle);

  /// Provider for the backpressure blame text appended to the progress
  /// watchdog's SimError (typically trace::AttributeBackpressure rendered
  /// as a table). Kept out of PulseAlert::message so alerts stay n-invariant.
  void set_blame_provider(std::function<std::string(Simulator&)> f) {
    blame_provider_ = std::move(f);
  }

  const PulseConfig& config() const { return cfg_; }
  const PulseWindowRing& windows() const { return windows_; }
  std::uint64_t windows_total() const { return windows_total_; }
  std::uint64_t windows_dropped_idle() const { return windows_dropped_idle_; }
  const std::map<std::string, PulseChannelSeries>& channels() const {
    return channels_;
  }
  const std::map<std::string, PulseCrossingSeries>& crossings() const {
    return crossings_;
  }
  const std::map<std::string, PulseFifoSeries>& fifos() const { return fifos_; }
  const std::map<std::string, PulseProcessSeries>& processes() const {
    return processes_;
  }
  const PulseKernelSeries& kernel() const { return kernel_; }
  const PulseEngineSeries& engine_series() const { return engine_; }
  const std::vector<PulseAlert>& alerts() const { return alerts_; }
  const std::string& critical_cycle() const { return critical_cycle_; }

 private:
  friend class Simulator;

  void SampleWindows(Time limit);   // all boundaries < limit (gap-skip aware)
  void SampleWindowAt(Time b);      // one boundary: snapshot + watchdogs
  void EvalWatchdogs(Time b, std::uint64_t commits_delta,
                     std::uint64_t stalls_delta);

  struct ThroughputArm {
    double bound_tokens_per_ps = 0.0;
    unsigned streak = 0;
    bool fired = false;
  };

  Simulator* sim_ = nullptr;
  bool enabled_ = false;
  PulseConfig cfg_;
  Time period_ = 0;
  Time next_boundary_ = kTimeNever;

  std::uint64_t windows_total_ = 0;
  std::uint64_t windows_dropped_idle_ = 0;

  PulseWindowRing windows_;
  std::map<std::string, PulseChannelSeries> channels_;
  std::map<std::string, PulseCrossingSeries> crossings_;
  std::map<std::string, PulseFifoSeries> fifos_;
  std::map<std::string, PulseProcessSeries> processes_;
  PulseKernelSeries kernel_;
  PulseEngineSeries engine_;
  std::vector<PulseAlert> alerts_;

  // Progress watchdog state.
  unsigned progress_streak_ = 0;
  std::uint64_t progress_stalls_ = 0;  ///< stall cycles accrued over the streak

  // Throughput watchdog state.
  std::map<std::string, ThroughputArm> throughput_;
  std::string critical_cycle_;

  std::function<std::string(Simulator&)> blame_provider_;
};

}  // namespace craft
