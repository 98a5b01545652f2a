// Events: one-shot wakeup points for thread processes, with SystemC-style
// delta notification (waiters wake within the same timestep, one evaluation
// phase later). Used by sim-accurate Connections channels to give
// combinational channels same-cycle visibility.
#pragma once

#include <atomic>
#include <vector>

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace craft {

class ThreadProcess;

class Event {
 public:
  explicit Event(Simulator& sim) : sim_(sim) {}

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Wakes all current waiters in the next delta of the current timestep.
  void Notify();

  /// Wakes all waiters registered at fire time, `delay` picoseconds from now.
  void NotifyAfter(Time delay);

  /// Registers a one-shot waiter (used by ThreadProcess::Wait(Event&)).
  void AddWaiter(ProcessBase& p) {
    CheckShard();
    waiters_.push_back(&p);
  }

  Simulator& sim() const { return sim_; }

 private:
  void Fire();

  /// craft-par: an Event is a wakeup channel the domain partitioner cannot
  /// see (it is not a port/channel coupling), so under the parallel engine
  /// it must stay inside one domain group. The first worker to touch the
  /// event (wait or notify) claims it; a touch from any other worker faults
  /// — deterministically, because whichever side touches second trips the
  /// check regardless of wall-clock interleaving. The MakeRunnable wake
  /// assert alone cannot give that guarantee: if the notify races ahead of
  /// the wait registration, the waiter list is simply empty and the race
  /// goes unnoticed. No-op for one inline worker.
  void CheckShard() {
    SchedShard* cur = tl_sched_shard;
    if (cur == nullptr) return;
    SchedShard* expected = nullptr;
    if (!shard_.compare_exchange_strong(expected, cur,
                                        std::memory_order_acq_rel) &&
        expected != cur) {
      CRAFT_ERROR(
          "event waited/notified from two clock-domain groups; cross-domain "
          "wakeups must go through a registered GALS crossing "
          "(PausibleBisyncFifo / AsyncChannel)");
    }
  }

  Simulator& sim_;
  std::vector<ProcessBase*> waiters_;
  std::atomic<SchedShard*> shard_{nullptr};
};

inline void Event::Fire() {
  CheckShard();
  // MakeRunnable only queues; no process runs inside this loop, so no waiter
  // can be added while it drains, and draining in place keeps the capacity.
  for (ProcessBase* p : waiters_) sim_.MakeRunnable(*p);
  waiters_.clear();
}

inline void Event::Notify() { Fire(); }

inline void Event::NotifyAfter(Time delay) {
  sim_.ScheduleAt(sim_.now() + delay, [this] { Fire(); });
}

}  // namespace craft
