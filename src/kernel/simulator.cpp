#include "kernel/simulator.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "kernel/design_graph.hpp"
#include "kernel/parallel.hpp"
#include "kernel/process.hpp"

namespace craft {

namespace {
Simulator* g_current = nullptr;
}  // namespace

thread_local constinit SchedShard* tl_sched_shard = nullptr;
thread_local constinit unsigned tl_sched_group = 0;

Simulator::Simulator() : design_graph_(std::make_shared<DesignGraph>()) {
  CRAFT_ASSERT(g_current == nullptr, "only one Simulator may exist at a time");
  g_current = this;
  trace_events_.sim_ = this;
  chaos_.sim_ = this;
  pulse_.sim_ = this;
  cover_.sim_ = this;
  // CRAFT_PARALLELISM=<n> selects the domain-sharded engine without code
  // changes (used by the TSan CI job to force n=4 under the existing test
  // suites). An explicit SetParallelism() call overrides it.
  if (const char* env = std::getenv("CRAFT_PARALLELISM")) {
    const unsigned long n = std::strtoul(env, nullptr, 10);
    if (n >= 1) parallelism_ = static_cast<unsigned>(n);
  }
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
  CRAFT_ASSERT(!started_, "SetParallelism must be called before the first Run()");
  parallelism_ = n;
}

void Simulator::RegisterCrossing(const void* producer_clk,
                                 const void* consumer_clk, Time sync_delay,
                                 const std::string& path) {
  crossings_.push_back(CrossingDecl{producer_clk, consumer_clk, sync_delay, path});
}

void Simulator::ScheduleAt(Time t, std::function<void()> fn,
                           const void* affinity) {
  SchedShard& s = CurShard();
  CRAFT_ASSERT(t >= s.now, "cannot schedule in the past");
  s.timed.push(TimedEntry{t, s.seq++, affinity, std::move(fn)});
}

void Simulator::MakeRunnable(ProcessBase& p) {
  if (p.queued) return;
  SchedShard* routed =
      group_shards_.empty() ? nullptr : group_shards_[p.par_group];
  SchedShard& s = routed != nullptr ? *routed : main_shard_;
  // Thread-affinity check (craft-par): a worker may only wake processes on
  // its own shard. Waking another domain group's process mid-window would
  // be a cross-domain interaction outside any registered crossing — a data
  // race that single-threaded simulation silently tolerates.
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
  s.now = s.timed.top().t;
  // Fire every timed entry at this timestamp; the caller settles deltas.
  while (!s.timed.empty() && s.timed.top().t == s.now) {
    auto fn = std::move(const_cast<TimedEntry&>(s.timed.top()).fn);
    s.timed.pop();
    ++s.timed_fired;
    fn();
  }
}

void Simulator::StartIfNeeded() {
  if (started_) return;
  started_ = true;
  // Initial evaluation: every process runs once at time zero (threads run
  // until their first wait; methods compute initial combinational outputs).
  SettleDeltas(main_shard_);
}

void Simulator::StartEngine() {
  started_ = true;
  engine_ = std::make_unique<par::Engine>(*this, parallelism_);
}

void Simulator::RunUntil(Time t) {
  // A stop request only ends the Run() it was issued under; clear it so a
  // stop-then-resume sequence works (the request must not be sticky).
  stop_requested_.store(false, std::memory_order_relaxed);
  main_shard_.local_stop = false;
  if (parallelism_ > 0) {
    if (engine_ == nullptr) StartEngine();
    engine_->RunUntil(t);
    return;
  }
  StartIfNeeded();
  // Settle deltas left pending by a Stop() that landed mid-settle; a no-op
  // on the common path (nothing runnable between Run calls).
  SettleDeltas(main_shard_);
  while (!stopped() && !main_shard_.timed.empty() &&
         main_shard_.timed.top().t <= t) {
    // craft-pulse boundary semantics: a boundary B is sampled once every
    // event at <= B has fired and before anything later does — i.e. right
    // before firing the first timestep past B. One never-taken compare
    // while the sampler is disabled.
    pulse_.SampleBefore(main_shard_.timed.top().t);
    FireTimestep(main_shard_);
    SettleDeltas(main_shard_);
  }
  if (!stopped()) {
    if (main_shard_.now < t) main_shard_.now = t;
    // Boundaries in (last event, t] complete when the run reaches t. A
    // Stop() skips this (DESIGN.md §12: the final partial window is
    // engine-dependent, so fingerprints use fixed horizons without Stop).
    pulse_.SampleBefore(SaturatingAdd(t, 1));
  }
}

void Simulator::Run(Time duration) { RunUntil(SaturatingAdd(now(), duration)); }

std::uint64_t Simulator::delta_count() const {
  std::uint64_t n = main_shard_.delta_count;
  if (engine_ != nullptr) n += engine_->TotalDeltaCount();
  return n;
}

std::uint64_t Simulator::dispatch_count() const {
  std::uint64_t n = main_shard_.dispatch_count;
  if (engine_ != nullptr) n += engine_->TotalDispatchCount();
  return n;
}

std::uint64_t Simulator::timed_fired() const {
  std::uint64_t n = main_shard_.timed_fired;
  if (engine_ != nullptr) n += engine_->TotalTimedFired();
  return n;
}

std::pair<unsigned, unsigned> Simulator::parallel_shape() const {
  if (engine_ == nullptr) return {1u, 1u};
  return {engine_->worker_count(), engine_->group_count()};
}

}  // namespace craft
