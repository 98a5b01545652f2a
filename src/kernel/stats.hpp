// craft-stats: opt-in simulation telemetry (the ROADMAP's "observability"
// step). Answers *why* a latency-insensitive design is slow — which channel
// backpressures, which GALS crossing waits on its synchronizer, which
// process burns the wall clock — at the granularity Dai et al. argue is
// right for LI designs: the channel handshake.
//
// Architecture mirrors the DesignGraph: a StatsRegistry hangs off the
// Simulator, and components register counters during elaboration under their
// design-graph hierarchical names and keep a pointer to their slot (a
// Connections channel in its ChannelProbe). While disabled (the default)
// registration returns nullptr, so every site is one never-taken branch.
// Enable with `sim.stats().Enable()` BEFORE elaborating the design.
//
// Reporters (stats::FormatTable / stats::FormatJson) dump everything at end
// of sim; the JSON schema is documented in DESIGN.md §7.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace craft {

class Simulator;

/// Log2-bucketed histogram of per-message latencies in cycles. Bucket 0
/// counts zero-cycle (same-cycle) transfers, bucket i >= 1 counts latencies
/// in [2^(i-1), 2^i).
struct LatencyHistogram {
  static constexpr unsigned kBuckets = 20;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t total = 0;
  std::uint64_t min = ~0ull;
  std::uint64_t max = 0;

  static unsigned BucketOf(std::uint64_t cycles) {
    if (cycles == 0) return 0;
    unsigned b = 1;
    while (b + 1 < kBuckets && cycles >= (1ull << b)) ++b;
    return b;
  }

  void Record(std::uint64_t cycles) {
    ++buckets[BucketOf(cycles)];
    ++count;
    total += cycles;
    if (cycles < min) min = cycles;
    if (cycles > max) max = cycles;
  }

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(count);
  }

  /// Reporting accessors: `min` is tracked as the ~0ull sentinel until the
  /// first Record, so reporters must never read it raw — a channel with zero
  /// transfers would print 18446744073709551615. Both collapse to 0 while
  /// count == 0.
  std::uint64_t min_cycles() const { return count == 0 ? 0 : min; }
  std::uint64_t max_cycles() const { return count == 0 ? 0 : max; }
};

/// Per-channel handshake counters (both Connections channel models).
/// Stall cycles count posedge retries of *blocking* endpoints, plus, in the
/// signal-accurate model, refused non-blocking ones (they held valid/ready
/// through an edge); a sim-accurate router polling PushNB against a full
/// link accrues push_rejects only.
struct ChannelStats {
  std::string name;
  std::string kind;
  unsigned capacity = 0;
  std::uint64_t period_ps = 0;  ///< nominal period of the channel's clock

  std::uint64_t enqueues = 0;
  std::uint64_t dequeues = 0;
  std::uint64_t full_stall_cycles = 0;   ///< blocking Push waiting on space
  std::uint64_t empty_stall_cycles = 0;  ///< blocking Pop waiting on data
  std::uint64_t push_rejects = 0;        ///< failed PushNB attempts
  std::uint64_t pop_rejects = 0;         ///< failed PopNB attempts
  std::uint64_t occupancy_high_water = 0;
  LatencyHistogram latency;              ///< enqueue -> dequeue, in cycles
};

/// Per-GALS-crossing counters (pausible bisynchronous FIFOs).
struct CrossingStats {
  std::string name;
  std::string producer_clock;
  std::string consumer_clock;
  std::uint64_t consumer_period_ps = 0;

  std::uint64_t transfers = 0;
  std::uint64_t enq_sync_wait_cycles = 0;  ///< producer cycles inside the grace window
  std::uint64_t deq_sync_wait_cycles = 0;  ///< consumer cycles inside the grace window
  std::uint64_t enq_pause_events = 0;      ///< distinct producer-side pauses
  std::uint64_t deq_pause_events = 0;      ///< distinct consumer-side pauses
  std::uint64_t total_latency_ps = 0;      ///< publish -> consumer pop

  double mean_latency_cycles() const {
    if (transfers == 0 || consumer_period_ps == 0) return 0.0;
    return static_cast<double>(total_latency_ps) /
           static_cast<double>(transfers) / static_cast<double>(consumer_period_ps);
  }
};

/// Counters for untimed matchlib::Fifo instances (router VC queues etc.),
/// attached by the owning module.
struct FifoStats {
  std::string name;
  std::uint64_t capacity = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t high_water = 0;
};

/// The telemetry registry. One per Simulator; disabled by default. All
/// Register* calls return nullptr while disabled, which is the contract
/// instrumentation sites rely on for the zero-cost-when-off guarantee.
class StatsRegistry {
 public:
  bool enabled() const { return enabled_; }

  /// Turns collection on. Must be called before elaborating the design:
  /// components snapshot their stats slot at construction time.
  void Enable() { enabled_ = true; }

  ChannelStats* RegisterChannel(const std::string& name, const std::string& kind,
                                unsigned capacity, std::uint64_t period_ps = 0) {
    if (!enabled_) return nullptr;
    ChannelStats& s = channels_[name];
    s.name = name;
    s.kind = kind;
    s.capacity = capacity;
    s.period_ps = period_ps;
    return &s;
  }

  CrossingStats* RegisterCrossing(const std::string& name,
                                  const std::string& producer_clock,
                                  const std::string& consumer_clock,
                                  std::uint64_t consumer_period_ps) {
    if (!enabled_) return nullptr;
    CrossingStats& s = crossings_[name];
    s.name = name;
    s.producer_clock = producer_clock;
    s.consumer_clock = consumer_clock;
    s.consumer_period_ps = consumer_period_ps;
    return &s;
  }

  FifoStats* RegisterFifo(const std::string& name, std::uint64_t capacity) {
    if (!enabled_) return nullptr;
    FifoStats& s = fifos_[name];
    s.name = name;
    s.capacity = capacity;
    return &s;
  }

  // std::map nodes are address-stable, so the pointers handed out above stay
  // valid for the registry's lifetime regardless of later registrations.
  const std::map<std::string, ChannelStats>& channels() const { return channels_; }
  const std::map<std::string, CrossingStats>& crossings() const { return crossings_; }
  const std::map<std::string, FifoStats>& fifos() const { return fifos_; }

 private:
  bool enabled_ = false;
  std::map<std::string, ChannelStats> channels_;
  std::map<std::string, CrossingStats> crossings_;
  std::map<std::string, FifoStats> fifos_;
};

namespace stats {

/// Measured steady-state rate of one channel or crossing, for cross-checking
/// against craft-prove's static bounds (src/analyze).
struct MeasuredRate {
  std::uint64_t tokens = 0;        ///< dequeues (channels) / transfers (crossings)
  double tokens_per_ps = 0.0;      ///< tokens / elapsed simulated time
  double tokens_per_cycle = 0.0;   ///< ... in periods of the endpoint's clock
};

/// Per-channel measured throughput over the elapsed simulation (sim.now()).
/// Keys are design-graph channel names; requires stats to have been enabled
/// before elaboration (returns empty otherwise, or at time zero).
std::map<std::string, MeasuredRate> MeasuredChannelRates(const Simulator& sim);

/// Per-GALS-crossing measured throughput, in consumer-clock cycles.
std::map<std::string, MeasuredRate> MeasuredCrossingRates(const Simulator& sim);

/// Human-readable end-of-sim report: kernel totals, per-process profile,
/// and one row per active channel / crossing / FIFO.
std::string FormatTable(const Simulator& sim);

/// Machine-readable report, schema "craft-stats-v1" (DESIGN.md §7).
std::string FormatJson(const Simulator& sim);

/// OpenMetrics text exposition of the end-of-run aggregates (counters end
/// in _total, label values escaped, terminated by "# EOF"). The craft-pulse
/// timeline exporter shares the same metric families for the windowed view.
std::string FormatOpenMetrics(const Simulator& sim);

/// Escapes a string for an OpenMetrics label value: backslash, double-quote
/// and newline get backslash escapes (the exposition-format rules).
std::string OpenMetricsEscape(const std::string& s);

/// Renders a site name safe for single-line table output: control
/// characters (newlines, tabs, ...) become \xNN escapes so a hostile or
/// buggy hierarchical name cannot forge table rows. Printable text is
/// returned unchanged.
std::string SanitizeSite(const std::string& s);

}  // namespace stats

}  // namespace craft
