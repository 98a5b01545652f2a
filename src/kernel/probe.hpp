// One instrumentation seam per Connections channel (DESIGN.md §5, *Channel
// events*): the slots the stats, trace, chaos and cover registries hand a
// channel, the enqueue stamps of its latency histogram and its clock period.
// A channel that no instrument wants has no probe. The methods are named for
// channel events and feed whichever slots are filled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "kernel/design_graph.hpp"
#include "kernel/simulator.hpp"

namespace craft {

class ChannelProbe {
 public:
  using Corruption = ChaosChannelPoint::Commit;

  /// Registers channel `ch` with stats, trace, chaos and cover, in that order
  /// (trace track ids follow it); nullptr when every registry declines.
  /// `flippable`: the payload type can host a chaos bit-flip.
  static std::unique_ptr<ChannelProbe> Make(Simulator& sim, const DesignGraph::ChannelNode& ch,
                                            bool flippable) {
    auto* stats = sim.stats().RegisterChannel(ch.name, ch.kind, ch.capacity, ch.period_ps);
    auto* trace = sim.trace_events().RegisterTrack(ch.name, ch.kind, ch.clock_name);
    auto* chaos = sim.chaos().RegisterChannel(ch.name, flippable);
    auto* cover = sim.cover().RegisterChannel(ch.name, ch.capacity);
    if (stats == nullptr && trace == nullptr && chaos == nullptr && cover == nullptr)
      return nullptr;
    return std::unique_ptr<ChannelProbe>(
        new ChannelProbe(stats, trace, chaos, cover, ch.period_ps));
  }

  bool traced() const { return trace_ != nullptr; }
  bool has_faults() const { return chaos_ != nullptr; }

  /// A token entered (left) the channel, leaving `occ` tokens in it. Tokens
  /// leave in the order they entered, so the front stamp is the leaving
  /// token's; a chaos drop or duplicate skews that on purpose, hence the guard.
  void Enqueued(Time now, std::size_t occ) {
    if (stats_ != nullptr) {
      ++stats_->enqueues;
      stamps_.push_back(now);
      if (occ > stats_->occupancy_high_water) stats_->occupancy_high_water = occ;
    }
    if (trace_ != nullptr) trace_->Enqueue();
    if (cover_ != nullptr) cover_->OnOccupancy(occ);
  }
  void Dequeued(Time now, std::size_t occ) {
    if (stats_ != nullptr) {
      ++stats_->dequeues;
      if (!stamps_.empty()) {
        stats_->latency.Record((now - stamps_.front()) / period_);
        stamps_.pop_front();
      }
    }
    if (trace_ != nullptr) trace_->Dequeue();
    if (cover_ != nullptr) cover_->OnOccupancy(occ);
  }

  /// A non-blocking push (pop) was refused.
  void PushRefused() { if (stats_ != nullptr) ++stats_->push_rejects; }
  void PopRefused() { if (stats_ != nullptr) ++stats_->pop_rejects; }
  /// An endpoint waited a cycle on a full (empty) channel.
  void FullStallCycle() { if (stats_ != nullptr) ++stats_->full_stall_cycles; }
  void EmptyStallCycle() { if (stats_ != nullptr) ++stats_->empty_stall_cycles; }
  /// The producer is blocked (the consumer starved) this cycle: a blame sample.
  void ProducerBlocked() { if (trace_ != nullptr) trace_->PushStall(); }
  void ConsumerStarved() { if (trace_ != nullptr) trace_->PopStall(); }

  /// Whether the fault plan withholds valid (ready) in cycle `c`.
  bool ValidStalled(std::uint64_t c) { return chaos_ != nullptr && chaos_->ValidStalled(c); }
  bool ReadyStalled(std::uint64_t c) { return chaos_ != nullptr && chaos_->ReadyStalled(c); }
  /// A staged token commits at the edge: the corruption to apply (`*bit` for
  /// a bit-flip).
  Corruption Committing(unsigned* bit) {
    return chaos_ != nullptr ? chaos_->OnCommit(bit) : Corruption::kNone;
  }

 private:
  ChannelProbe(ChannelStats* stats, TraceTrack* trace, ChaosChannelPoint* chaos,
               CoverChannelPoint* cover, Time period)
      : stats_(stats), trace_(trace), chaos_(chaos), cover_(cover), period_(period) {}

  ChannelStats* stats_;
  TraceTrack* trace_;
  ChaosChannelPoint* chaos_;
  CoverChannelPoint* cover_;
  Time period_;
  std::deque<Time> stamps_;  // one per resident token, in FIFO order
};

}  // namespace craft
