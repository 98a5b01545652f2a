#include "kernel/process.hpp"

#include "kernel/clock.hpp"
#include "kernel/event.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace craft {

namespace {
thread_local ThreadProcess* tl_current_thread = nullptr;
}  // namespace

ProcessBase::ProcessBase(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

ThreadProcess::ThreadProcess(Simulator& sim, std::string name, Clock& clk,
                             std::function<void()> body)
    : ProcessBase(sim, std::move(name)),
      clk_(clk),
      fiber_([this, body = std::move(body)] { body(); }) {}

ThreadProcess* ThreadProcess::Current() { return tl_current_thread; }

void ThreadProcess::Dispatch() {
  if (fiber_.done()) return;
  ++resumes_;
  ThreadProcess* prev = tl_current_thread;
  tl_current_thread = this;
  fiber_.resume();
  tl_current_thread = prev;
}

bool ProcessBase::PollWaitPredicate() {
  // Only ThreadProcess::WaitUntil sets wait_pred_. The predicate runs on the
  // scheduler's stack in the thread's dispatch slot, so it sees exactly the
  // state the fiber would have seen had it been resumed, and whatever it
  // records (stall counters, trace blame, chaos rolls) lands in the same
  // order. Current() names the thread while it runs, as inside the fiber.
  ThreadProcess& t = static_cast<ThreadProcess&>(*this);
  struct Scope {
    ThreadProcess& t;
    ThreadProcess* prev;
    ~Scope() {
      t.polling_ = false;
      tl_current_thread = prev;
    }
  } scope{t, tl_current_thread};
  tl_current_thread = &t;
  t.polling_ = true;
  if (!wait_pred_(wait_pred_ctx_)) {
    t.clk_.AddWaiter(t);  // where the fiber's own wait() would re-arm it
    return false;
  }
  wait_pred_ = nullptr;
  return true;
}

void ThreadProcess::Suspend() {
  CRAFT_ASSERT(!polling_, "thread '" << name()
                                     << "' blocked inside a wait_until predicate; "
                                        "a predicate must not wait");
  // Clear/restore the current-thread marker across the suspension point so
  // code running on the scheduler context never observes a stale thread.
  tl_current_thread = nullptr;
  Fiber::Suspend();
  tl_current_thread = this;
}

void ThreadProcess::Wait() {
  clk_.AddWaiter(*this);
  Suspend();
}

void ThreadProcess::Wait(unsigned n) {
  for (unsigned i = 0; i < n; ++i) Wait();
}

void ThreadProcess::Wait(Event& e) {
  e.AddWaiter(*this);
  Suspend();
}

MethodProcess::MethodProcess(Simulator& sim, std::string name, std::function<void()> body)
    : ProcessBase(sim, std::move(name)), body_(std::move(body)) {}

MethodProcess& MethodProcess::SensitiveTo(Clock& clk, EdgeGuard guard,
                                          const void* ctx) {
  clk.AttachMethod(*this, guard, ctx);
  affinity_clocks_.push_back(&clk);
  return *this;
}

MethodProcess& MethodProcess::SetAffinity(Clock& clk) {
  affinity_clocks_.push_back(&clk);
  return *this;
}

void wait() {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, "wait() called outside a thread process");
  t->Wait();
}

void wait(unsigned n) {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, "wait(n) called outside a thread process");
  t->Wait(n);
}

void wait(Event& e) {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, "wait(Event) called outside a thread process");
  t->Wait(e);
}

ThreadProcess& this_thread() {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, "blocking call outside a thread process");
  return *t;
}

std::uint64_t this_cycle() {
  ThreadProcess* t = ThreadProcess::Current();
  CRAFT_ASSERT(t != nullptr, "this_cycle() called outside a thread process");
  return t->clock().cycle();
}

}  // namespace craft
