// Pausible Bisynchronous FIFO (paper §3.1; Keller, Fojtik & Khailany,
// ASYNC'15): the clock-domain-crossing element of the fine-grained GALS
// system. "These FIFOs allow low-latency, error-free clock domain crossings
// that work by integrating the synchronizers and clock generators."
//
// Behavioural model: a ring buffer between a producer clock domain and a
// consumer clock domain. The pausible-clocking property — a domain's local
// clock edge is *paused* rather than allowed to sample a changing pointer,
// so no metastable value can ever be captured — is modeled by construction:
// a slot written at producer time t becomes observable to the consumer only
// at its first posedge at least `sync_delay` after t (the grace window the
// pausible arbitration guarantees), and symmetrically for freed slots. The
// model therefore never loses, duplicates, or reorders tokens regardless of
// the two domains' relative frequency, phase, or jitter — which is exactly
// the correct-by-construction claim the tests verify.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "connections/connections.hpp"
#include "kernel/clock.hpp"
#include "kernel/module.hpp"

namespace craft::gals {

template <typename T, unsigned kDepth = 4>
class PausibleBisyncFifo : public Module {
 public:
  static_assert(kDepth >= 2, "bisynchronous FIFO needs >= 2 slots");

  /// Producer-domain input port and consumer-domain output port. Bind them
  /// to channels clocked by the respective domains.
  connections::In<T> in;
  connections::Out<T> out;

  PausibleBisyncFifo(Module& parent, const std::string& name, Clock& producer_clk,
                     Clock& consumer_clk, Time sync_delay = 0)
      : Module(parent, name),
        pclk_(producer_clk),
        cclk_(consumer_clk),
        sync_delay_(std::max<Time>(
            1, sync_delay == 0 ? DefaultSyncDelay(consumer_clk) : sync_delay)) {
    // The pausible FIFO *is* the legal clock-domain-crossing element.
    sim().design_graph().MarkCdcSafe(full_name());
    // craft-par: declare the crossing to the scheduler. The sync_delay is
    // this crossing's lookahead contribution (a publish at producer time t
    // is unobservable before t + sync_delay, so workers may safely run that
    // far ahead of each other), and the path tells the domain partitioner
    // that this module's two clocks must NOT be merged into one group.
    // sync_delay_ is clamped to >= 1 ps: a zero grace window would make a
    // same-timestep publish observable, which neither real pausible
    // arbitration nor conservative parallel execution permits.
    sim().RegisterCrossing(&pclk_, &cclk_, sync_delay_, full_name());
    // Quantitative record for static analysis (craft-prove): ring depth and
    // grace window bound the crossing's sustainable rate, the periods convert
    // it between the two domains' cycle bases.
    sim().design_graph().AddCrossing(DesignGraph::CrossingNode{
        full_name(), &pclk_, &cclk_, pclk_.name(), cclk_.name(), pclk_.period(),
        cclk_.period(), sync_delay_, kDepth});
    stats_ = sim().stats().RegisterCrossing(full_name(), pclk_.name(), cclk_.name(),
                                            cclk_.period());
    trace_ = sim().trace_events().RegisterTrack(
        full_name(), "crossing", pclk_.name() + "->" + cclk_.name());
    // craft-chaos pause storms: nullptr unless armed. Each side may hold a
    // freshly acquired slot for extra local cycles, modeling arbitration
    // that keeps the domain's clock paused longer than the synchronizer
    // minimum — more pessimistic, never unsafe (the slot stays owned).
    chaos_ = sim().chaos().RegisterCrossing(full_name());
    Thread("enq", pclk_, [this] { RunEnqueue(); });
    Thread("deq", cclk_, [this] { RunDequeue(); });
  }

  std::uint64_t transfer_count() const { return transfers_; }

  /// Mean crossing latency in consumer-clock periods (write commit to
  /// consumer pop), the paper's "low-latency" claim.
  double mean_latency_cycles() const {
    if (transfers_ == 0) return 0.0;
    const double mean_ps = static_cast<double>(total_latency_) / transfers_;
    return mean_ps / static_cast<double>(cclk_.period());
  }

 private:
  static Time DefaultSyncDelay(const Clock& c) {
    // The pausible arbitration resolves within a fraction of the receiver
    // period; half a period is a conservative behavioural bound.
    return c.period() / 2;
  }

  /// One ring slot, shared by the two domains. Under craft-par the two
  /// sides run on different worker threads, so the handoff is a lock-free
  /// SPSC protocol: the producer writes `value`/`published` and then
  /// releases `full`; the consumer acquires `full` before reading either,
  /// and symmetrically releases `full = false` after writing `freed`. The
  /// sync_delay time gates mean a racy load of `full` can only ever flip
  /// the outcome for a slot the reader was not yet allowed to observe —
  /// the simulated result is identical either way (DESIGN.md §9).
  struct Slot {
    T value{};
    std::atomic<Time> published{kTimeNever};  // producer commit time
    std::atomic<Time> freed{0};               // consumer free time
    std::atomic<bool> full{false};
  };

  void RunEnqueue() {
    std::uint64_t tail = 0;
    for (;;) {
      const T v = in.Pop();
      // Wait until the tail slot is free AND its freeing has had time to
      // propagate through the pausible synchronizer back to this domain.
      //
      // Pause-event classification happens *after* the wait, from the slot's
      // freed timestamp: the arbitration would have paused this clock iff
      // some failed poll fell inside the [freed, freed + sync_delay) grace
      // window. Classifying at poll time from the racy `full` flag would tie
      // the count to cross-worker wall-clock interleaving (the other side's
      // same-window commit may or may not be visible yet), breaking the
      // n-invariance of the stats JSON; the timestamp read below is ordered
      // by the `full` acquire and gives the same answer sequential execution
      // would.
      Time last_failed_poll = kTimeNever;
      wait_until([&] {
        Slot& s = ring_[tail % kDepth];
        if (!s.full.load(std::memory_order_acquire) &&
            sim().now() >= s.freed.load(std::memory_order_relaxed) + sync_delay_)
          return true;
        if (stats_) ++stats_->enq_sync_wait_cycles;
        last_failed_poll = sim().now();
        if (trace_) trace_->PushStall();
        return false;
      });
      if (chaos_ != nullptr) {
        // The slot is free and stays free (only this side fills it), so
        // holding extra cycles here is indistinguishable from a longer
        // arbitration pause: purely a latency fault.
        for (unsigned h = chaos_->EnqHoldCycles(); h > 0; --h) wait();
      }
      Slot& s = ring_[tail % kDepth];
      if (stats_ && last_failed_poll != kTimeNever &&
          last_failed_poll >= s.freed.load(std::memory_order_relaxed))
        ++stats_->enq_pause_events;
      s.value = v;
      s.published.store(sim().now(), std::memory_order_relaxed);
      s.full.store(true, std::memory_order_release);
      ++tail;
      // Residency slice covers the crossing itself: enqueue here (producer
      // commit), dequeue when the consumer takes the slot. Ring order is
      // FIFO order, so the track's span queue stays aligned.
      if (trace_) trace_->Enqueue();
    }
  }

  void RunDequeue() {
    std::uint64_t head = 0;
    for (;;) {
      // The head slot is observable once its publish time has cleared the
      // synchronizer grace window at this domain's sampling edge. As on the
      // enqueue side, pause events are classified after the wait from the
      // publish timestamp (a poll at/after the publish but inside the grace
      // window is the case where the arbitration would have paused this
      // clock) so the count does not depend on when the producer worker's
      // store became visible.
      Time last_failed_poll = kTimeNever;
      wait_until([&] {
        Slot& s = ring_[head % kDepth];
        if (s.full.load(std::memory_order_acquire) &&
            sim().now() >=
                s.published.load(std::memory_order_relaxed) + sync_delay_)
          return true;
        if (stats_) ++stats_->deq_sync_wait_cycles;
        last_failed_poll = sim().now();
        if (trace_) trace_->PopStall();
        return false;
      });
      if (chaos_ != nullptr) {
        // Symmetric consumer-side storm; the slot stays full until freed
        // below, so the hold only delays when the token crosses.
        for (unsigned h = chaos_->DeqHoldCycles(); h > 0; --h) wait();
      }
      Slot& s = ring_[head % kDepth];
      const T v = s.value;
      const Time latency = sim().now() - s.published.load(std::memory_order_relaxed);
      if (stats_ && last_failed_poll != kTimeNever &&
          last_failed_poll >= s.published.load(std::memory_order_relaxed))
        ++stats_->deq_pause_events;
      total_latency_ += latency;
      if (stats_) {
        ++stats_->transfers;
        stats_->total_latency_ps += latency;
      }
      s.freed.store(sim().now(), std::memory_order_relaxed);
      s.full.store(false, std::memory_order_release);
      ++head;
      ++transfers_;
      if (trace_) trace_->Dequeue();  // sets ctx so out.Push extends the span
      out.Push(v);
    }
  }

  Clock& pclk_;
  Clock& cclk_;
  Time sync_delay_;
  std::array<Slot, kDepth> ring_;
  std::uint64_t transfers_ = 0;
  Time total_latency_ = 0;
  CrossingStats* stats_ = nullptr;    // craft-stats; nullptr unless enabled
  TraceTrack* trace_ = nullptr;       // craft-trace; nullptr unless enabled
  ChaosCrossingPoint* chaos_ = nullptr;  // craft-chaos; nullptr unless armed
};

}  // namespace craft::gals
