// craft-cover: functional coverage collection for latency-insensitive
// designs (ROADMAP verification-closure track; cf. Dai et al.'s formal LI
// verification, PAPERS.md). craft-chaos *injects* adversarial schedules and
// craft-stats *observes* them, but neither records whether a regression
// actually exercised the event classes the LI contract is supposed to
// survive — stall/backpressure, crossing pauses, packetization framing.
// craft-cover closes that loop: covergroups are derived automatically from
// the elaborated DesignGraph, hits are harvested from the stats/chaos
// counters plus two dedicated instrumentation points, and the result merges
// across runs into one database CI can gate on (src/cover, DESIGN.md §13).
//
// Architecture mirrors craft-stats / craft-chaos / craft-pulse: a
// CoverRegistry hangs off the Simulator; call `sim.cover().Enable(cfg)`
// BEFORE elaborating the design. Register* returns nullptr while disabled,
// the same zero-cost-when-off contract as the stats registry.
//
// Determinism: the occupancy-band and packetizer counters below advance only
// on successful channel operations / framing events, whose per-site order is
// fixed by the design and seeds and invariant under SetParallelism(n)
// (DESIGN.md §9). Stall- and pause-class bins are therefore *quantized to
// "seen"* (0/1) at snapshot time by the collector: per-cycle counters can
// drift by a drain window when a run ends via Stop() under craft-par (the
// §11 carve-out for chaos event totals), but whether a class of event
// happened at all does not.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace craft {

class Simulator;

/// Coverage configuration. The occupancy "high" band threshold is the
/// fraction high_num/high_den of the channel capacity (default 3/4),
/// matching the backpressure heuristics used by craft-trace blame sampling.
struct CoverConfig {
  unsigned high_num = 3;
  unsigned high_den = 4;
};

/// Per-channel coverage point: occupancy-band residency. Bands are
///   0 empty (occ == 0), 1 low, 2 high (occ >= ceil(cap*3/4)), 3 full.
/// Each counter counts *entries into* the band, not cycles spent there, so
/// the numbers are schedule-length independent: they advance only when a
/// successful enqueue/dequeue moves the occupancy across a band boundary.
/// The initial empty state is not an entry — `empty` therefore means "the
/// channel drained back to empty after carrying traffic".
class CoverChannelPoint {
 public:
  void OnOccupancy(std::size_t occ) {
    unsigned b;
    if (occ == 0) {
      b = 0;
    } else if (occ >= capacity_) {
      b = 3;
    } else if (occ >= high_threshold_) {
      b = 2;
    } else {
      b = 1;
    }
    if (b == band_) return;
    band_ = b;
    ++entries_[b];
  }

  std::uint64_t empty_entries() const { return entries_[0]; }
  std::uint64_t low_entries() const { return entries_[1]; }
  std::uint64_t high_entries() const { return entries_[2]; }
  std::uint64_t full_entries() const { return entries_[3]; }

  std::size_t capacity() const { return capacity_; }
  /// Smallest occupancy in the "high" band; a band is only a defined bin
  /// when it is non-empty for this capacity (low needs high_threshold >= 2,
  /// high needs high_threshold < capacity).
  std::size_t high_threshold() const { return high_threshold_; }

 private:
  friend class CoverRegistry;
  std::size_t capacity_ = 1;
  std::size_t high_threshold_ = 1;
  unsigned band_ = 0;  // starts empty; the initial state is not an entry
  std::uint64_t entries_[4] = {0, 0, 0, 0};
};

/// Per-packetizer coverage point. The Packetizer side classifies each
/// emitted message by flit count; the DePacketizer side counts assembly
/// outcomes, making the framing-check discard paths observable even when
/// craft-chaos is disabled (the checks themselves predate coverage but only
/// reported into the chaos detection log).
class CoverPacketizerPoint {
 public:
  void OnMessage(std::size_t flits) {
    ++messages_;
    if (flits > 1) ++multi_flit_;
    if (flits >= flits_per_message_) ++max_flit_;
  }
  void OnAssembled() { ++assembled_; }
  void OnDiscard() { ++discards_; }        ///< framing-count mismatch
  void OnOrphan() { ++orphans_; }          ///< mid-packet flit, no open packet
  void OnHeadResync() { ++head_resyncs_; } ///< head flit mid-assembly

  std::uint64_t messages() const { return messages_; }
  std::uint64_t multi_flit() const { return multi_flit_; }
  std::uint64_t max_flit() const { return max_flit_; }
  std::uint64_t assembled() const { return assembled_; }
  std::uint64_t discards() const { return discards_; }
  std::uint64_t orphans() const { return orphans_; }
  std::uint64_t head_resyncs() const { return head_resyncs_; }

  std::size_t flits_per_message() const { return flits_per_message_; }
  bool is_packetizer() const { return is_packetizer_; }

 private:
  friend class CoverRegistry;
  std::size_t flits_per_message_ = 1;
  bool is_packetizer_ = true;
  std::uint64_t messages_ = 0;
  std::uint64_t multi_flit_ = 0;
  std::uint64_t max_flit_ = 0;
  std::uint64_t assembled_ = 0;
  std::uint64_t discards_ = 0;
  std::uint64_t orphans_ = 0;
  std::uint64_t head_resyncs_ = 0;
};

/// The functional-coverage registry. One per Simulator; disabled by default.
/// Enable() implies stats().Enable() — most channel/crossing bins are
/// harvested from the stats counters at snapshot time, so coverage without
/// stats would record nothing. All Register* calls return nullptr while
/// disabled (the zero-cost-when-off contract instrumentation sites rely on).
class CoverRegistry {
 public:
  bool enabled() const { return enabled_; }
  const CoverConfig& config() const { return cfg_; }

  /// Arms coverage collection. Must be called before elaborating the
  /// design: components snapshot their coverage point at construction time.
  void Enable(const CoverConfig& cfg = CoverConfig{});

  CoverChannelPoint* RegisterChannel(const std::string& name,
                                     std::size_t capacity);
  CoverPacketizerPoint* RegisterPacketizer(const std::string& name,
                                           std::size_t flits_per_message,
                                           bool is_packetizer);

  // std::map nodes are address-stable, so the pointers handed out by the
  // Register* calls stay valid regardless of later registrations.
  const std::map<std::string, CoverChannelPoint>& channel_points() const {
    return channels_;
  }
  const std::map<std::string, CoverPacketizerPoint>& packetizer_points() const {
    return packetizers_;
  }

 private:
  friend class Simulator;

  bool enabled_ = false;
  CoverConfig cfg_;
  Simulator* sim_ = nullptr;
  std::map<std::string, CoverChannelPoint> channels_;
  std::map<std::string, CoverPacketizerPoint> packetizers_;
};

}  // namespace craft
