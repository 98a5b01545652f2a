// craft-chaos: deterministic, seeded fault injection for latency-insensitive
// designs (ROADMAP robustness track; cf. Dai et al.'s formal LI verification,
// PAPERS.md). The paper's central claim is that LI channels and pausible GALS
// crossings make a design correct under *any* latency/backpressure schedule —
// this engine manufactures adversarial schedules on demand and checks the
// claim, instead of waiting for one to arise incidentally.
//
// Architecture mirrors craft-stats / craft-trace: a ChaosEngine hangs off the
// Simulator; call `sim.chaos().Enable(plan)` BEFORE elaborating the design.
// Components register fault points during elaboration under their hierarchical
// names and keep a pointer (a channel in its ChannelProbe). While the engine
// is disabled (the default), or when the plan schedules nothing for a site,
// registration returns nullptr and every injection site is one never-taken
// branch, the same zero-cost-when-off contract as the stats registry.
//
// Fault taxonomy (DESIGN.md §11):
//  * latency-only faults — extra channel valid/ready stall cycles, GALS
//    crossing pause storms, randomized retimer delays, deferred thread
//    wakeups. A correct LI design must produce bit-identical outputs under
//    any combination of these.
//  * corruption faults — flit bit-flips, token drops and duplications at the
//    channel commit edge. These BREAK the design's contract on purpose; the
//    campaign oracle is that they are *detected* (framing checks, golden
//    divergence, hang) rather than silently propagated.
//
// Determinism / seed model: every fault point owns its own Rng, seeded from
// (plan.seed, FNV-1a(site name)), and draws in an order fixed by its own
// domain's simulation progress (per-cycle lazy rolls for channel stalls,
// per-transfer draws for crossings/retimers, per-waiter draws at clock
// edges). No global draw order exists, so campaigns are reproducible per
// seed AND invariant under craft-par's SetParallelism(n) — the same property
// the stats counters rely on (DESIGN.md §9).
//
// Which faults reach which Connections model: channel valid/ready stalls
// reach both; corruption and wakeup deferral are sim-accurate only. A
// signal-accurate channel has no staged commit to corrupt, and its threads'
// wait() calls are FSM states that a late wake would break, so RegisterClock
// skips wakeup deferral there with a config warning.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kernel/rng.hpp"
#include "kernel/time.hpp"

namespace craft {

class Simulator;

/// Corruption support trait: payload types that can host a seeded bit-flip
/// specialize this (connections::Flit does, in packetizer.hpp). Channels of
/// non-specialized types only ever see latency faults and drop/duplicate
/// corruption, never flips.
template <typename T>
struct ChaosFlip {
  static constexpr bool kSupported = false;
  static void Flip(T&, unsigned) {}
};

/// One scheduled corruption: applied when channel `channel` commits its
/// `commit_index`-th staged token (channel-local ordinal, so the schedule is
/// independent of every other channel's traffic and of the worker count).
struct CorruptionFault {
  enum class Kind { kBitFlip, kDrop, kDuplicate };
  std::string channel;
  std::uint64_t commit_index = 0;
  Kind kind = Kind::kBitFlip;
  unsigned bit = 0;  ///< payload bit for kBitFlip
};

inline const char* ToString(CorruptionFault::Kind k) {
  switch (k) {
    case CorruptionFault::Kind::kBitFlip: return "bitflip";
    case CorruptionFault::Kind::kDrop: return "drop";
    case CorruptionFault::Kind::kDuplicate: return "duplicate";
  }
  return "?";
}

/// A seeded campaign schedule. Latency probabilities are per-draw Bernoulli
/// rates; corruption faults are exact (channel, ordinal) appointments.
struct FaultPlan {
  std::uint64_t seed = 1;

  // Latency-only faults (LI-invariance must hold under any values).
  double channel_valid_stall_prob = 0.0;   ///< withhold valid, per cycle
  double channel_ready_stall_prob = 0.0;   ///< withhold ready, per cycle
  double crossing_pause_prob = 0.0;        ///< extra hold after a slot acquire
  unsigned crossing_pause_max_cycles = 4;  ///< hold length in [1, max]
  double retimer_delay_prob = 0.0;         ///< extra stages for one token
  unsigned retimer_delay_max_cycles = 3;   ///< extra delay in [1, max]
  double wakeup_delay_prob = 0.0;          ///< defer a thread wakeup one edge

  // Corruption faults (must be detected, not silently propagated). The
  // initializer lets designated-initializer plans omit the field without a
  // -Wmissing-field-initializers warning.
  std::vector<CorruptionFault> corruptions = {};

  bool any_latency() const {
    return channel_valid_stall_prob > 0.0 || channel_ready_stall_prob > 0.0 ||
           crossing_pause_prob > 0.0 || retimer_delay_prob > 0.0 ||
           wakeup_delay_prob > 0.0;
  }
  bool latency_only() const { return corruptions.empty(); }
};

/// One applied fault, for the campaign report ("what actually happened").
struct ChaosInjection {
  Time t = 0;
  std::string site;
  std::string kind;
  std::string detail;
};

/// One detection event reported by a checking site (DePacketizer framing
/// checks, campaign output oracles). The corruption oracle demands at least
/// one of these per injected corruption.
struct ChaosDetection {
  Time t = 0;
  std::string site;
  std::string kind;
  std::string detail;
};

class ChaosEngine;

/// Per-channel fault point: lazy per-cycle valid/ready stall rolls (the
/// first query of a cycle rolls, so draws do not depend on process dispatch
/// order) plus the corruption appointment book consulted at every commit
/// edge.
class ChaosChannelPoint {
 public:
  enum class Commit { kNone, kBitFlip, kDrop, kDuplicate };

  bool ValidStalled(std::uint64_t cycle) {
    Roll(cycle);
    return valid_;
  }
  bool ReadyStalled(std::uint64_t cycle) {
    Roll(cycle);
    return ready_;
  }

  /// Called once per staged-token commit; advances the channel-local commit
  /// ordinal and returns the corruption to apply (bit filled for kBitFlip).
  Commit OnCommit(unsigned* bit);

  std::uint64_t stall_events() const { return stall_events_; }

  /// Corruption appointments scheduled at this site (after dropping
  /// unsupported bit-flips) and the number actually applied so far — the
  /// planned-vs-fired pair the craft-cover fault-site bins report.
  std::size_t corruptions_planned() const { return faults_.size(); }
  std::uint64_t corruptions_applied() const { return corruptions_applied_; }

 private:
  friend class ChaosEngine;
  void Roll(std::uint64_t cycle) {
    if (roll_cycle_ == cycle || (valid_prob_ <= 0.0 && ready_prob_ <= 0.0)) return;
    roll_cycle_ = cycle;
    valid_ = rng_.NextBool(valid_prob_);
    ready_ = rng_.NextBool(ready_prob_);
    if (valid_ || ready_) ++stall_events_;
  }

  ChaosEngine* engine_ = nullptr;
  std::string name_;
  double valid_prob_ = 0.0;
  double ready_prob_ = 0.0;
  Rng rng_;
  std::uint64_t roll_cycle_ = ~0ull;
  bool valid_ = false;
  bool ready_ = false;
  std::uint64_t stall_events_ = 0;

  std::vector<CorruptionFault> faults_;  // sorted by commit_index
  std::size_t next_fault_ = 0;
  std::uint64_t commit_seq_ = 0;
  std::uint64_t corruptions_applied_ = 0;
};

/// Per-crossing fault point: pause storms. Each successful slot acquire may
/// hold the slot extra cycles, modeling a pausible arbitration that keeps
/// the local clock paused longer than the synchronizer minimum. The two
/// sides draw from separate RNGs because under craft-par they run on
/// different workers (producer vs consumer domain).
class ChaosCrossingPoint {
 public:
  unsigned EnqHoldCycles() { return Draw(enq_rng_); }
  unsigned DeqHoldCycles() { return Draw(deq_rng_); }
  std::uint64_t holds() const { return enq_holds_ + deq_holds_; }

 private:
  friend class ChaosEngine;
  unsigned Draw(Rng& rng) {
    if (!rng.NextBool(prob_)) return 0;
    const unsigned h = 1 + static_cast<unsigned>(rng.NextBelow(max_cycles_));
    (&rng == &enq_rng_ ? enq_holds_ : deq_holds_) += 1;
    return h;
  }

  double prob_ = 0.0;
  unsigned max_cycles_ = 1;
  Rng enq_rng_;
  Rng deq_rng_;
  std::uint64_t enq_holds_ = 0;
  std::uint64_t deq_holds_ = 0;
};

/// Per-retimer fault point: one draw per ingested token, adding extra
/// pipeline stages (a register slice whose depth wobbles — legal for an LI
/// interface, which is exactly what the invariance oracle checks).
class ChaosRetimerPoint {
 public:
  unsigned ExtraDelayCycles() {
    if (!rng_.NextBool(prob_)) return 0;
    ++delays_;
    return 1 + static_cast<unsigned>(rng_.NextBelow(max_cycles_));
  }
  std::uint64_t delays() const { return delays_; }

 private:
  friend class ChaosEngine;
  double prob_ = 0.0;
  unsigned max_cycles_ = 1;
  Rng rng_;
  std::uint64_t delays_ = 0;
};

/// Per-clock fault point: defers individual thread wakeups by one edge
/// (modeling a slow wake after a paused clock). Only one-shot edge waiters
/// are ever deferred — statically sensitive methods (RTL processes) must see
/// every edge, and the channel commit hooks are not processes at all.
class ChaosClockPoint {
 public:
  bool DeferWakeup() {
    if (!rng_.NextBool(prob_)) return false;
    ++deferrals_;
    return true;
  }
  std::uint64_t deferrals() const { return deferrals_; }

 private:
  friend class ChaosEngine;
  double prob_ = 0.0;
  Rng rng_;
  std::uint64_t deferrals_ = 0;
};

/// The fault-injection registry. One per Simulator; disabled by default.
/// All Register* calls return nullptr while disabled (or when the plan
/// schedules nothing for the site), which is the zero-cost-when-off
/// contract injection sites rely on.
class ChaosEngine {
 public:
  bool enabled() const { return enabled_; }
  const FaultPlan& plan() const { return plan_; }

  /// Arms the engine with `plan`. Must be called before elaborating the
  /// design: components snapshot their fault point at construction time.
  void Enable(const FaultPlan& plan);

  ChaosChannelPoint* RegisterChannel(const std::string& name, bool flippable);
  ChaosCrossingPoint* RegisterCrossing(const std::string& name);
  ChaosRetimerPoint* RegisterRetimer(const std::string& name);
  ChaosClockPoint* RegisterClock(const std::string& name);

  /// Records an applied corruption (called by channel points at the commit
  /// edge). Thread-safe; the log is sorted on read so reports are
  /// n-invariant.
  void ReportInjection(const std::string& site, const std::string& kind,
                       const std::string& detail);

  /// Records a detection event (framing checkers, campaign oracles).
  void ReportDetection(const std::string& site, const std::string& kind,
                       const std::string& detail);

  /// Applied corruptions / detections so far, sorted by (t, site, kind,
  /// detail) so the order is independent of worker interleaving.
  std::vector<ChaosInjection> Injections() const;
  std::vector<ChaosDetection> Detections() const;

  /// Aggregate latency-fault activity, for reports (not an oracle input).
  struct LatencyTotals {
    std::uint64_t channel_stall_cycles = 0;
    std::uint64_t crossing_holds = 0;
    std::uint64_t retimer_delays = 0;
    std::uint64_t wakeup_deferrals = 0;
  };
  LatencyTotals latency_totals() const;

  /// Plan entries that could not be applied (e.g. a bit-flip scheduled on a
  /// channel whose payload type has no ChaosFlip specialization).
  const std::vector<std::string>& config_warnings() const { return warnings_; }

  /// Read-only views of the registered fault points, keyed by site name
  /// (map keys are exactly the sites the plan scheduled something for).
  /// Used by the craft-cover collector for planned-vs-fired fault bins.
  const std::map<std::string, ChaosChannelPoint>& channel_points() const {
    return channels_;
  }
  const std::map<std::string, ChaosCrossingPoint>& crossing_points() const {
    return crossings_;
  }
  const std::map<std::string, ChaosRetimerPoint>& retimer_points() const {
    return retimers_;
  }
  const std::map<std::string, ChaosClockPoint>& clock_points() const {
    return clocks_;
  }

 private:
  friend class Simulator;

  Time Now() const;
  std::uint64_t PointSeed(const std::string& name, std::uint64_t salt) const;

  bool enabled_ = false;
  FaultPlan plan_;
  Simulator* sim_ = nullptr;

  // std::map nodes are address-stable, so the pointers handed out by the
  // Register* calls stay valid regardless of later registrations.
  std::map<std::string, ChaosChannelPoint> channels_;
  std::map<std::string, ChaosCrossingPoint> crossings_;
  std::map<std::string, ChaosRetimerPoint> retimers_;
  std::map<std::string, ChaosClockPoint> clocks_;
  std::vector<std::string> warnings_;

  mutable std::mutex log_mu_;
  std::vector<ChaosInjection> injections_;
  std::vector<ChaosDetection> detections_;
};

}  // namespace craft
