#include "kernel/clock.hpp"

#include "kernel/process.hpp"

namespace craft {

Clock::Clock(Simulator& sim, std::string name, Time period, Time first_edge)
    : sim_(sim), name_(std::move(name)), period_(period) {
  CRAFT_ASSERT(period_ > 0, "clock period must be positive");
  sim_.RegisterClock(*this);
  chaos_ = sim_.chaos().RegisterClock(name_);
  const Time t0 = (first_edge == kTimeNever) ? sim_.now() + period_ : first_edge;
  sim_.ScheduleEdge(*this, t0);
}

void Clock::AttachMethod(MethodProcess& m, EdgeGuard guard, const void* ctx) {
  methods_.push_back(Trigger{&m, guard, ctx});
}

void Clock::AddEdgeHook(std::function<void()> fn, int priority) {
  hooks_.push_back(Hook{priority, hook_seq_++, std::move(fn)});
  hooks_dirty_ = true;
}

void Clock::Edge() {
  tl_sched_group = par_group_;
  ++cycle_;
  if (hooks_dirty_) {
    std::stable_sort(hooks_.begin(), hooks_.end(), [](const Hook& a, const Hook& b) {
      return a.priority != b.priority ? a.priority < b.priority : a.seq < b.seq;
    });
    hooks_dirty_ = false;
  }
  for (Hook& h : hooks_) h.fn();
  // Wake one-shot waiters (threads blocked in wait()). craft-chaos may defer
  // individual wakeups to the next edge — legal for LI designs, which must
  // tolerate a thread resuming late. Only these one-shot waiters are ever
  // deferred: statically sensitive methods model RTL that samples every
  // edge, so delaying them would forge a different design, not a schedule.
  // Deferred waiters are compacted to the front in order, in place, so the
  // vector keeps its capacity from edge to edge.
  if (chaos_ == nullptr) {
    for (ProcessBase* p : waiters_) sim_.MakeRunnable(*p);
    waiters_.clear();
  } else {
    std::size_t deferred = 0;
    for (ProcessBase* p : waiters_) {
      if (chaos_->DeferWakeup()) {
        waiters_[deferred++] = p;
        continue;
      }
      sim_.MakeRunnable(*p);
    }
    waiters_.resize(deferred);
  }
  // Trigger statically sensitive methods. A guard runs in its method's place
  // in this order; a method whose guard fails is not dispatched this edge.
  for (const Trigger& m : methods_) {
    if (m.guard == nullptr || m.guard(m.ctx)) sim_.MakeRunnable(*m.method);
  }
  sim_.ScheduleEdge(*this, sim_.now() + NextPeriod());
}

}  // namespace craft
