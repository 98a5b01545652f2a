#include "kernel/simulator.hpp"

#include <chrono>
#include <sstream>

#include "kernel/clock.hpp"
#include "kernel/design_graph.hpp"
#include "kernel/parallel.hpp"
#include "kernel/process.hpp"
#include "support/cli.hpp"

namespace craft {

namespace {

Simulator* g_current = nullptr;

/// CRAFT_PARALLELISM=<n> sets the worker count without code changes (the
/// TSan CI job forces n=4 under the existing test suites); an explicit
/// SetParallelism() call overrides it. Only a decimal integer >= 1 that fits
/// in `unsigned` is accepted, so no value can wrap or be cut short into a
/// different count.
unsigned ParallelismFromEnv() {
  unsigned n = 1;
  if (std::string error; !cli::EnvParallelism(&n, &error)) CRAFT_ERROR(error);
  return n;
}

}  // namespace

thread_local constinit SchedShard* tl_sched_shard = nullptr;
thread_local constinit unsigned tl_sched_group = 0;

Simulator::Simulator()
    : parallelism_(ParallelismFromEnv()),
      design_graph_(std::make_shared<DesignGraph>()) {
  CRAFT_ASSERT(g_current == nullptr, "only one Simulator may exist at a time");
  g_current = this;
  tl_sched_group = 0;  // a previous Simulator's last group must not leak in
  trace_events_.sim_ = this;
  chaos_.sim_ = this;
  pulse_.sim_ = this;
  cover_.sim_ = this;
}

Simulator::~Simulator() {
  // Join engine workers before anything else dies: process fibers must not
  // be torn down (cancel-unwind resumes them on this thread) while a worker
  // thread could still be referencing them.
  engine_.reset();
  g_current = nullptr;
}

Simulator& Simulator::Current() {
  CRAFT_ASSERT(g_current != nullptr, "no Simulator installed");
  return *g_current;
}

Simulator* Simulator::CurrentOrNull() { return g_current; }

void Simulator::SetParallelism(unsigned n) {
  CRAFT_ASSERT(!started(), "SetParallelism must be called before the first Run()");
  CRAFT_ASSERT(n >= 1, "SetParallelism(" << n << "): the worker count must be >= 1");
  parallelism_ = n;
}

void Simulator::RegisterCrossing(const void* producer_clk,
                                 const void* consumer_clk, Time sync_delay,
                                 const std::string& path) {
  crossings_.push_back(CrossingDecl{producer_clk, consumer_clk, sync_delay, path});
}

void Simulator::ScheduleAt(Time t, std::function<void()> fn) {
  SchedShard& s = CurShard();
  CRAFT_ASSERT(t >= s.now, "cannot schedule in the past");
  s.timed.push(TimedEntry{t, s.seq++, std::move(fn)});
}

void Simulator::MakeRunnableRouted(ProcessBase& p) {
  SchedShard& s = *group_shards_[p.par_group];
  // Thread-affinity check (craft-par): a worker thread may only wake
  // processes on its own shard. Waking another domain group's process
  // mid-window would be a cross-domain interaction outside any registered
  // crossing — a data race that one inline worker silently tolerates.
  CRAFT_ASSERT(tl_sched_shard == nullptr || tl_sched_shard == &s,
               "cross-domain wake of process '"
                   << p.name()
                   << "': clock domains may only interact through a "
                      "registered GALS crossing (PausibleBisyncFifo)");
  p.queued = true;
  s.runnable.push_back(&p);
}

ProcessBase& Simulator::AdoptProcess(std::unique_ptr<ProcessBase> p) {
  ProcessBase& ref = *p;
  processes_.push_back(std::move(p));
  // Processes created after simulation start (rare; testbench helpers) get
  // their initial evaluation in the next delta.
  MakeRunnable(ref);
  return ref;
}

void Simulator::ReportDeltaOverflow(const SchedShard& s) {
  // The delta loop failed to settle: almost always a zero-delay
  // combinational oscillation (e.g. two methods sensitive to each other's
  // signals). Name the processes still runnable so the cycle is findable.
  std::ostringstream os;
  os << "delta limit (" << delta_limit_ << ") exceeded at t=" << s.now
     << " ps without settling; likely a zero-delay combinational oscillation."
     << " Runnable processes:";
  std::size_t shown = 0;
  for (ProcessBase* p : s.runnable) {
    if (shown++ == 8) {
      os << " ... (" << s.runnable.size() << " total)";
      break;
    }
    os << " " << p->name();
  }
  if (s.runnable.empty()) os << " (none: update-phase-only oscillation)";
  CRAFT_ERROR(os.str());
}

void Simulator::SettleDeltas(SchedShard& s) {
  const bool profile = stats_.enabled();
  std::uint64_t deltas_this_step = 0;
  // A process may call Stop() mid-settle (e.g. a testbench watchdog inside
  // an oscillating design); honour it here, not just between timesteps. The
  // update phase of the stopping delta still runs so no written signal value
  // is left uncommitted across a resume. The flag checked is the
  // shard-local one: under craft-par only the shard the stopper ran on
  // breaks early, so every other shard's window stays deterministic.
  while ((!s.runnable.empty() || !s.updates.empty()) && !s.local_stop) {
    ++s.delta_count;
    if (delta_limit_ != 0 && ++deltas_this_step > delta_limit_)
      ReportDeltaOverflow(s);
    s.dispatching.clear();
    s.dispatching.swap(s.runnable);
    for (ProcessBase* p : s.dispatching) {
      p->queued = false;
      ++s.dispatch_count;
      ++p->stat_dispatches;
      tl_sched_group = p->par_group;
      // A thread blocked in WaitUntil is re-checked here without resuming
      // its fiber; only a real resume is dispatched and wall-timed.
      if (!p->ReadyToDispatch()) continue;
      if (profile) {
        const auto t0 = std::chrono::steady_clock::now();
        p->Dispatch();
        p->stat_wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } else {
        p->Dispatch();
      }
    }
    s.updating.clear();
    s.updating.swap(s.updates);
    for (Updatable* u : s.updating) u->Update();
  }
}

void Simulator::FireTimestep(SchedShard& s) {
  s.now = s.NextTimed();
  // Fire every entry of both heaps at this timestamp, merged in (t, seq)
  // order (exactly the order of one shared heap); the caller settles
  // deltas. An entry fired here may queue another at the same timestamp,
  // which fires in this loop too.
  while (s.HasTimed()) {
    if (s.EdgeIsNext()) {
      const EdgeEntry e = s.edges.top();
      if (e.t != s.now) return;
      s.edges.pop();
      ++s.timed_fired;
      e.clock->Edge();
    } else {
      if (s.timed.top().t != s.now) return;
      auto fn = std::move(const_cast<TimedEntry&>(s.timed.top()).fn);
      s.timed.pop();
      ++s.timed_fired;
      fn();
    }
  }
}

void Simulator::RunUntil(Time t) {
  // A stop request only ends the Run() it was issued under; clear it so a
  // stop-then-resume sequence works (the request must not be sticky).
  stop_requested_.store(false, std::memory_order_relaxed);
  main_shard_.local_stop = false;
  // The first Run partitions the elaborated design (the engine reads the
  // design graph, clocks and crossings).
  if (engine_ == nullptr) engine_ = std::make_unique<par::Engine>(*this, parallelism_);
  engine_->RunUntil(t);
}

void Simulator::Run(Time duration) { RunUntil(SaturatingAdd(now(), duration)); }

// Before the first Run no window has settled anything yet; from then on
// the engine's shards (the main shard among them when one worker runs
// inline) hold every count.
std::uint64_t Simulator::delta_count() const {
  return engine_ != nullptr ? engine_->TotalDeltaCount() : main_shard_.delta_count;
}

std::uint64_t Simulator::dispatch_count() const {
  return engine_ != nullptr ? engine_->TotalDispatchCount()
                            : main_shard_.dispatch_count;
}

std::uint64_t Simulator::timed_fired() const {
  return engine_ != nullptr ? engine_->TotalTimedFired() : main_shard_.timed_fired;
}

std::pair<unsigned, unsigned> Simulator::parallel_shape() const {
  if (engine_ == nullptr) return {1u, 1u};
  return {engine_->worker_count(), engine_->group_count()};
}

}  // namespace craft
