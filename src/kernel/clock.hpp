// Clocks. Every clock schedules its own posedge events on the global time
// wheel, so a simulation may contain any number of unrelated clock domains —
// the foundation of the fine-grained GALS back end (paper §3.1), where each
// partition owns a local clock generator with per-cycle period modulation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "kernel/simulator.hpp"
#include "kernel/time.hpp"

namespace craft {

class ThreadProcess;
class MethodProcess;

class Clock {
 public:
  /// Creates a clock with the given nominal period. The first posedge fires
  /// at `first_edge` (default: one full period after time zero, so processes
  /// get an initialization evaluation before any edge).
  Clock(Simulator& sim, std::string name, Time period, Time first_edge = kTimeNever);
  virtual ~Clock() = default;

  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  const std::string& name() const { return name_; }
  Simulator& sim() const { return sim_; }

  /// Number of posedges seen so far.
  std::uint64_t cycle() const { return cycle_; }

  /// Nominal period in picoseconds.
  Time period() const { return period_; }
  void set_period(Time p) { period_ = p; }

  /// Registers a hook run at every posedge *before* any process of that edge
  /// is dispatched. Lower priority runs first. Sim-accurate Connections
  /// channels use priority 0 commit hooks; statistics collectors use
  /// priority 100.
  void AddEdgeHook(std::function<void()> fn, int priority = 0);

  /// Registers a thread to be resumed at the next posedge (one-shot).
  void AddWaiter(ProcessBase& p) { waiters_.push_back(&p); }

  /// Makes `m` run at every posedge, or, with a `guard`, at every posedge
  /// where guard(ctx) holds (see MethodProcess::SensitiveTo).
  void AttachMethod(MethodProcess& m, EdgeGuard guard, const void* ctx);

  /// craft-par: the clock-domain group this clock was assigned to by the
  /// engine's partitioner at the first Run (0 before). Edge callbacks stamp
  /// it into tl_sched_group so trace span allocation stays grouped.
  unsigned par_group() const { return par_group_; }
  void set_par_group(unsigned g) { par_group_ = g; }

 protected:
  /// Period to use for the *next* cycle; GALS local clock generators override
  /// this to model supply-noise-driven frequency modulation.
  virtual Time NextPeriod() { return period_; }

 private:
  friend class Simulator;  // fires Edge() from the timed-event loop

  void Edge();

  Simulator& sim_;
  std::string name_;
  Time period_;
  std::uint64_t cycle_ = 0;
  unsigned par_group_ = 0;

  struct Hook {
    int priority;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  std::vector<Hook> hooks_;
  bool hooks_dirty_ = false;
  std::uint64_t hook_seq_ = 0;

  /// A statically sensitive method and its optional edge guard.
  struct Trigger {
    ProcessBase* method;
    EdgeGuard guard;
    const void* ctx;
  };

  std::vector<ProcessBase*> waiters_;
  std::vector<Trigger> methods_;

  // craft-chaos: nullptr unless a wakeup-delay fault is armed for this clock.
  ChaosClockPoint* chaos_ = nullptr;
};

}  // namespace craft
