// Processes: the unit of concurrent execution in the kernel.
//
// ThreadProcess is the analogue of SC_THREAD: a fiber that may block on
// wait() / wait(Event&). MethodProcess is the analogue of SC_METHOD: a
// callback re-run whenever one of its triggers (clock edge, signal change,
// event) fires. Library code written against these two primitives maps 1:1
// onto the SystemC coding style used throughout the paper.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "kernel/fiber.hpp"
#include "kernel/time.hpp"

namespace craft {

class Simulator;
class Clock;
class Event;

/// Sentinel for ProcessBase::trace_blocked_track: not blocked on any track.
inline constexpr std::uint32_t kNoTraceTrack = 0xFFFF'FFFFu;

/// A clock-triggered method's edge guard: called at each edge with the
/// context pointer it was registered with; false skips the method this edge.
using EdgeGuard = bool (*)(const void* ctx);

/// Common base for thread and method processes.
class ProcessBase {
 public:
  ProcessBase(Simulator& sim, std::string name);
  virtual ~ProcessBase() = default;

  /// Executes one evaluation-phase dispatch of this process.
  virtual void Dispatch() = 0;

  /// Runs in this process's dispatch slot just before Dispatch() and says
  /// whether to dispatch it. A thread suspended in ThreadProcess::WaitUntil
  /// has its predicate evaluated here instead of being resumed; while the
  /// predicate fails the thread is re-armed on its clock and this is false.
  bool ReadyToDispatch() { return wait_pred_ == nullptr || PollWaitPredicate(); }

  const std::string& name() const { return name_; }
  Simulator& sim() const { return sim_; }

  bool queued = false;  // managed by Simulator::MakeRunnable

  /// craft-par: the GALS clock-domain group this process belongs to,
  /// assigned by the engine's partitioner at the first Run. Routes
  /// MakeRunnable to the owning worker thread's shard and selects the trace
  /// sink's group.
  unsigned par_group = 0;

  // craft-stats profiling slots, written by the scheduler's dispatch loop
  // (kernel/stats.hpp). Dispatch counting is always on (one increment);
  // wall-clock accumulation only when the stats registry is enabled.
  std::uint64_t stat_dispatches = 0;
  std::uint64_t stat_wall_ns = 0;

  // craft-trace slots (kernel/trace_events.hpp), touched only while the
  // trace sink is enabled. trace_ctx carries the span id of the message
  // this process last popped, consumed by its next push (the hop-to-hop
  // propagation mechanism); the blocked fields record which track the
  // process is currently stalled on, sampled by blame attribution. The
  // blocked fields are atomic because blame sampling reads them across a
  // GALS crossing (the only place two workers see the same process);
  // trace_ctx is only ever touched by the owning worker.
  std::uint64_t trace_ctx = 0;
  std::atomic<std::uint32_t> trace_blocked_track{kNoTraceTrack};
  std::atomic<bool> trace_blocked_is_push{false};

 protected:
  /// The pending ThreadProcess::WaitUntil predicate, or null: a call thunk
  /// and the address of the callable, which lives on the suspended fiber's
  /// stack. Only ThreadProcess sets it.
  bool (*wait_pred_)(void*) = nullptr;
  void* wait_pred_ctx_ = nullptr;

 private:
  bool PollWaitPredicate();

  Simulator& sim_;
  std::string name_;
};

/// A blocking process running on its own fiber, clocked by `clk`.
class ThreadProcess : public ProcessBase {
 public:
  ThreadProcess(Simulator& sim, std::string name, Clock& clk, std::function<void()> body);

  void Dispatch() override;

  Clock& clock() const { return clk_; }
  bool done() const { return fiber_.done(); }

  /// The thread process currently executing, or nullptr.
  static ThreadProcess* Current();

  // ---- blocking API, callable only from inside this process's body ----

  /// Suspends until the next posedge of this process's clock.
  void Wait();

  /// Suspends for n posedges.
  void Wait(unsigned n);

  /// Suspends until `e` is notified (possibly in the same timestep).
  void Wait(Event& e);

  /// Suspends until the first posedge of this process's clock at which
  /// pred() holds: `do Wait(); while (!pred());`, except that the scheduler
  /// evaluates pred in this thread's dispatch slot without resuming the
  /// fiber, re-arms the thread on its clock while pred fails, and resumes the
  /// fiber only once it holds. pred runs with Current() == this and must not
  /// block; an exception it throws surfaces from Simulator::Run().
  template <typename Pred>
  void WaitUntil(Pred&& pred) {
    using Callable = std::remove_reference_t<Pred>;
    wait_pred_ = [](void* ctx) -> bool { return (*static_cast<Callable*>(ctx))(); };
    wait_pred_ctx_ = const_cast<void*>(static_cast<const void*>(&pred));
    Wait();
  }

  /// Fiber resumes so far, including the first start. Always counted; a
  /// failed WaitUntil check does not resume the fiber and is not counted.
  std::uint64_t resume_count() const { return resumes_; }

 private:
  friend class ProcessBase;  // PollWaitPredicate

  void Suspend();

  Clock& clk_;
  Fiber fiber_;
  std::uint64_t resumes_ = 0;
  bool polling_ = false;  ///< evaluating a WaitUntil predicate (must not block)
};

/// A non-blocking callback process, re-run on each trigger.
class MethodProcess : public ProcessBase {
 public:
  MethodProcess(Simulator& sim, std::string name, std::function<void()> body);

  void Dispatch() override { body_(); }

  /// Adds a clock posedge trigger. With a `guard`, the clock evaluates
  /// guard(ctx) at each edge, in this method's place in its trigger order,
  /// and dispatches the method only where it holds: an edge whose guard
  /// fails costs no dispatch and no delta. The guard may read only state no
  /// process can change between the edge and the method's dispatch slot in
  /// the first delta; committed signal values qualify, since no update
  /// phase runs in between.
  MethodProcess& SensitiveTo(Clock& clk, EdgeGuard guard = nullptr,
                             const void* ctx = nullptr);

  /// Declares the clock domain this method belongs to WITHOUT adding a
  /// trigger — for signal-sensitive methods (combinational logic), whose
  /// domain craft-par's partitioner cannot infer from triggers alone. A
  /// method with neither a SensitiveTo clock nor a declared affinity forces
  /// the whole design into a single domain group (safe, not parallel).
  MethodProcess& SetAffinity(Clock& clk);

  /// Clocks this method is tied to (triggers + declared affinities), for
  /// the partitioner. Multiple distinct clocks merge their domain groups.
  const std::vector<const Clock*>& affinity_clocks() const {
    return affinity_clocks_;
  }

 private:
  std::function<void()> body_;
  std::vector<const Clock*> affinity_clocks_;
};

// ---- SystemC-style free functions (operate on the current thread) ----

/// Suspends the current thread process until the next posedge of its clock.
void wait();

/// Suspends for n posedges.
void wait(unsigned n);

/// Suspends until `e` is notified.
void wait(Event& e);

/// The thread process currently executing; errors outside one.
ThreadProcess& this_thread();

/// Returns once pred() holds: checks it now, then at each posedge of the
/// current thread's clock, where the scheduler re-checks it without resuming
/// the thread (ThreadProcess::WaitUntil).
template <typename Pred>
void wait_until(Pred&& pred) {
  if (!pred()) this_thread().WaitUntil(pred);
}

/// Cycle count of the current thread's clock.
std::uint64_t this_cycle();

}  // namespace craft
