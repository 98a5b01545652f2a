// Retiming stages for LI channels (paper §2.3): "LI channels also provide
// the extensibility of adding retiming registers on inter-unit interfaces
// to ease timing pressure or aid floorplanning."
//
// A Retimer<T, kStages> inserts exactly kStages cycles of pipeline latency
// between two channels while sustaining one token per cycle — the
// behavioural model of a register slice chain dropped onto a long top-level
// route. Because the interface is latency-insensitive, inserting or
// removing retimers never changes functional behaviour (a property the
// tests check explicitly).
#pragma once

#include <deque>
#include <string>

#include "connections/connections.hpp"

namespace craft::connections {

template <typename T, unsigned kStages = 1>
class Retimer : public Module {
 public:
  static_assert(kStages >= 1);

  In<T> in;
  Out<T> out;

  Retimer(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name), clk_(clk), arrival_(sim()) {
    // craft-chaos: nullptr unless a retimer-delay fault is armed. Extra
    // cycles lengthen the slice chain for individual tokens — legal at an LI
    // interface, never reordering (egress drains in FIFO order, so a token
    // behind a delayed one simply waits its turn).
    chaos_ = sim().chaos().RegisterRetimer(full_name());
    // Ingress and egress run as separate processes so tokens pipeline: the
    // chain holds up to kStages tokens in flight.
    Thread("ingress", clk, [this] {
      for (;;) {
        const T v = in.Pop();
        const unsigned extra = chaos_ != nullptr ? chaos_->ExtraDelayCycles() : 0;
        pipe_.push_back(Slot{v, clk_.cycle() + kStages + extra});
        arrival_.Notify();
      }
    });
    // Egress is event-driven on ingress arrival: an idle retimer sleeps on
    // arrival_ instead of charging one dispatch per cycle to its craft-par
    // shard. Once a token is in flight it waits for the edge of ready_cycle,
    // checked per cycle by the scheduler without resuming the thread. No
    // wakeup is ever lost: ingress only runs while egress is suspended, and
    // egress re-checks pipe_ before waiting.
    Thread("egress", clk, [this] {
      for (;;) {
        while (pipe_.empty()) wait(arrival_);
        wait_until([this] { return clk_.cycle() >= pipe_.front().ready_cycle; });
        const T v = pipe_.front().value;
        pipe_.pop_front();
        ++tokens_;
        out.Push(v);
      }
    });
  }

  std::uint64_t tokens_retimed() const { return tokens_; }
  static constexpr unsigned Stages() { return kStages; }

 private:
  struct Slot {
    T value;
    std::uint64_t ready_cycle;
  };
  Clock& clk_;
  Event arrival_;
  std::deque<Slot> pipe_;
  std::uint64_t tokens_ = 0;
  ChaosRetimerPoint* chaos_ = nullptr;  // craft-chaos; nullptr unless armed
};

}  // namespace craft::connections
