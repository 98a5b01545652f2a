// Unit tests for the simulation kernel: fibers, scheduler, clocks, signals,
// events, processes, tracing, and deterministic RNG.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <array>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "connections/connections.hpp"
#include "gals/pausible_fifo.hpp"
#include "kernel/kernel.hpp"
#include "kernel/report.hpp"

namespace craft {
namespace {

using namespace craft::literals;

TEST(Fiber, RunsToCompletion) {
  int x = 0;
  Fiber f([&] { x = 42; });
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(x, 42);
}

TEST(Fiber, SuspendResumeRoundTrips) {
  std::vector<int> trace;
  Fiber f([&] {
    trace.push_back(1);
    Fiber::Suspend();
    trace.push_back(3);
    Fiber::Suspend();
    trace.push_back(5);
  });
  f.resume();
  trace.push_back(2);
  f.resume();
  trace.push_back(4);
  EXPECT_FALSE(f.done());
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.done());
}

TEST(Fiber, CurrentTracksExecution) {
  EXPECT_EQ(Fiber::Current(), nullptr);
  Fiber* seen = nullptr;
  Fiber f([&] { seen = Fiber::Current(); });
  f.resume();
  EXPECT_EQ(seen, &f);
  EXPECT_EQ(Fiber::Current(), nullptr);
}

// Counts its own destructor runs, to observe a fiber stack unwinding.
struct DtorCounter {
  int& n;
  ~DtorCounter() { ++n; }
};

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  // volatile keeps the divisions at run time, under whatever MXCSR holds.
  volatile double one = 1.0, three = 3.0;
  const double nearest = one / three;
  const int outer = std::fegetround();
  int inner = -1;
  double inner_third = 0.0;
  Fiber f([&] {
    std::fesetround(FE_UPWARD);
    Fiber::Suspend();
    inner = std::fegetround();
    inner_third = one / three;
  });
  f.resume();
  EXPECT_EQ(std::fegetround(), outer);
  EXPECT_EQ(one / three, nearest);
  f.resume();
  EXPECT_EQ(inner, FE_UPWARD);
  EXPECT_GT(inner_third, nearest);
  EXPECT_EQ(std::fegetround(), outer);
}

TEST(Fiber, FirstFrameIsAbiAligned) {
  std::uintptr_t line_addr = 1;
  std::string text;
  Fiber f([&] {
    alignas(64) volatile char line[64] = {};
    line_addr = reinterpret_cast<std::uintptr_t>(&line[0]);
    // glibc's printf_fp uses aligned SSE stores on the stack.
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", 2.5);
    text = buf;
  });
  f.resume();
  EXPECT_EQ(line_addr % 64, 0u);
  EXPECT_EQ(text, "2.500");
}

TEST(Fiber, DestroyingSuspendedFiberUnwindsItsLocals) {
  int destroyed = 0;
  bool finished = false;
  {
    Fiber f([&] {
      DtorCounter outer{destroyed};
      {
        DtorCounter inner{destroyed};
        Fiber::Suspend();
      }
      finished = true;
    });
    f.resume();
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 2);
  EXPECT_FALSE(finished);
}

// The calling OS thread. Out of line behind a compiler barrier: glibc
// declares pthread_self() const, so inlined get_id() calls on both sides of
// a suspension would fold into one even when the fiber changed threads.
[[gnu::noinline]] std::thread::id ThisThread() {
  asm volatile("" ::: "memory");
  return std::this_thread::get_id();
}

// The path ~Simulator takes after craft-par ran: a fiber last suspended on a
// worker thread is resumed, and later cancel-unwound, on the main thread.
TEST(Fiber, ResumesAndUnwindsOnAnotherThread) {
  int destroyed = 0;
  std::vector<std::thread::id> ran_on;
  Fiber* seen = nullptr;
  auto f = std::make_unique<Fiber>([&] {
    DtorCounter guard{destroyed};
    ran_on.push_back(ThisThread());
    Fiber::Suspend();
    ran_on.push_back(ThisThread());
    seen = Fiber::Current();
    Fiber::Suspend();
    ran_on.push_back(ThisThread());
  });
  std::thread([&] { f->resume(); }).join();
  f->resume();
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_NE(ran_on[0], ran_on[1]);
  EXPECT_EQ(ran_on[1], std::this_thread::get_id());
  EXPECT_EQ(seen, f.get());
  EXPECT_EQ(Fiber::Current(), nullptr);
  f.reset();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(ran_on.size(), 2u);
}

// Recurses until `bytes` of stack below `top` are in use and returns the
// depth. Each frame writes a 512-byte buffer, so every page it spans is
// touched; the measure is frame addresses, so instrumented builds with
// larger frames still stop at the same stack use.
[[gnu::noinline]] int RecurseUntil(const char* top, std::size_t bytes) {
  volatile char pad[512];
  for (volatile char& c : pad) c = 1;
  const auto* here = static_cast<const char*>(__builtin_frame_address(0));
  if (static_cast<std::size_t>(top - here) >= bytes) return 1;
  return RecurseUntil(top, bytes) + pad[0];
}

TEST(Fiber, StackHoldsNinetySixKiBOfFrames) {
  int depth = 0;
  Fiber f([&] {
    const auto* top = static_cast<const char*>(__builtin_frame_address(0));
    depth = RecurseUntil(top, 96 * 1024);
  });
  f.resume();
  EXPECT_TRUE(f.done());
  EXPECT_GT(depth, 0);
}

TEST(FiberDeathTest, StackOverflowFaultsOnTheGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Overruns the stack by a little over 2 KiB, then exits with status 0
  // before anything can notice. `below` is mapped next, so its stack lies
  // just under `f`'s, as in any design with several threads: without a
  // guard page the overrun silently lands in it.
  EXPECT_DEATH(
      {
        Fiber f([] {
          RecurseUntil(static_cast<const char*>(__builtin_frame_address(0)),
                       Fiber::kDefaultStackBytes + 2048);
          std::_Exit(0);
        });
        Fiber below([] {});
        f.resume();
      },
      "");
}

TEST(Fiber, SwitchMakesNoSyscalls) {
  // swapcontext made an rt_sigprocmask system call per switch, which put a
  // third of a switch-bound run's CPU time in the OS kernel.
#if !defined(__x86_64__)
  GTEST_SKIP() << "the ucontext fallback still switches through swapcontext";
#endif
  const auto cpu_s = [](bool sys) {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    const timeval& tv = sys ? ru.ru_stime : ru.ru_utime;
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Fiber f([] {
    for (;;) Fiber::Suspend();
  });
  const double user0 = cpu_s(false), sys0 = cpu_s(true);
  for (int i = 0; i < 2'000'000; ++i) f.resume();
  const double user = cpu_s(false) - user0, sys = cpu_s(true) - sys0;
  ASSERT_GT(user + sys, 0.0);
  EXPECT_LT(sys / (user + sys), 0.10) << "user " << user << " s, sys " << sys << " s";
}

TEST(Simulator, TimeAdvancesToRunBound) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.Run(100_ns);
  EXPECT_EQ(sim.now(), 100000u);
}

TEST(Simulator, CurrentInstalledByRaii) {
  {
    Simulator sim;
    EXPECT_EQ(&Simulator::Current(), &sim);
  }
  EXPECT_THROW(Simulator::Current(), SimError);
}

TEST(Simulator, ScheduledCallbacksFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30_ns, [&] { order.push_back(3); });
  sim.ScheduleAt(10_ns, [&] { order.push_back(1); });
  sim.ScheduleAt(20_ns, [&] { order.push_back(2); });
  sim.Run(100_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeCallbacksFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(10_ns, [&order, i] { order.push_back(i); });
  }
  sim.Run(20_ns);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Clock, CountsCyclesAtExpectedRate) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  sim.Run(100_ns);
  EXPECT_EQ(clk.cycle(), 100u);
}

TEST(Clock, FirstEdgeDefaultsToOnePeriod) {
  Simulator sim;
  Clock clk(sim, "clk", 10_ns);
  sim.Run(9_ns);
  EXPECT_EQ(clk.cycle(), 0u);
  sim.Run(1_ns);
  EXPECT_EQ(clk.cycle(), 1u);
}

TEST(Clock, EdgeHooksRunInPriorityOrder) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  std::vector<int> order;
  clk.AddEdgeHook([&] { order.push_back(2); }, 10);
  clk.AddEdgeHook([&] { order.push_back(1); }, 0);
  sim.Run(1_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Clock, MultipleIndependentClockDomains) {
  Simulator sim;
  Clock fast(sim, "fast", 1_ns);
  Clock slow(sim, "slow", 3_ns);
  sim.Run(30_ns);
  EXPECT_EQ(fast.cycle(), 30u);
  EXPECT_EQ(slow.cycle(), 10u);
}

TEST(Clock, EdgesAndCallbacksAtOneTimeFireInScheduleOrder) {
  // Clock edges and generic callbacks sit in two heaps that share one
  // sequence counter; a timestep fires them merged, in scheduling order.
  Simulator sim;
  std::vector<std::string> order;
  sim.ScheduleAt(1_ns, [&] { order.push_back("before"); });
  Clock clk(sim, "clk", 1_ns);  // queues its first edge at 1 ns
  clk.AddEdgeHook([&] { order.push_back("edge"); });
  sim.ScheduleAt(1_ns, [&] { order.push_back("after"); });
  sim.Run(1_ns);
  EXPECT_EQ(order, (std::vector<std::string>{"before", "edge", "after"}));
}

TEST(Clock, GuardedMethodKeepsItsTriggerOrder) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  std::string log;
  struct B : Module {
    B(Module& p, Clock& clk, std::string& log) : Module(p, "b") {
      const EdgeGuard even_cycle = [](const void* c) {
        return static_cast<const Clock*>(c)->cycle() % 2 == 0;
      };
      Method("a", [&log] { log += 'a'; }).SensitiveTo(clk);
      Method("b", [&log] { log += 'b'; }).SensitiveTo(clk, even_cycle, &clk);
      Method("c", [&log] { log += 'c'; }).SensitiveTo(clk);
    }
  } b(top, clk, log);
  sim.Run(0);  // the initial evaluation runs every method; no guard is asked
  EXPECT_EQ(log, "abc");
  log.clear();
  sim.Run(6_ns);
  EXPECT_EQ(log, "ac" "abc" "ac" "abc" "ac" "abc");
}

TEST(Thread, WaitAdvancesOneClockCycle) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct Harness : Module {
    using Module::Module;
    std::vector<std::uint64_t> cycles;
    void Build(Clock& clk) {
      Thread("t", clk, [this] {
        for (int i = 0; i < 5; ++i) {
          wait();
          cycles.push_back(ThreadProcess::Current()->clock().cycle());
        }
      });
    }
  };
  Harness h(top, "h");
  h.Build(clk);
  sim.Run(10_ns);
  EXPECT_EQ(h.cycles, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Thread, WaitNSkipsNCycles) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  std::uint64_t end_cycle = 0;
  struct H : Module {
    using Module::Module;
  } h(top, "h");
  struct Builder : Module {
    Builder(Module& p, Clock& clk, std::uint64_t& out) : Module(p, "b") {
      Thread("t", clk, [&out] {
        wait(7);
        out = this_cycle();
      });
    }
  } b(top, clk, end_cycle);
  sim.Run(20_ns);
  EXPECT_EQ(end_cycle, 7u);
}

// ---- Predicate waits (ThreadProcess::WaitUntil) ----
//
// The scheduler re-checks a blocked wait_until predicate in the thread's
// dispatch slot and resumes the fiber only once it holds. These tests pin
// that the result is exactly that of the polling loop it replaces,
// `while (!pred()) wait();`: same order, same cycles, same chaos draws.

/// A module whose threads are added from outside.
struct Spawner : Module {
  using Module::Module;
  ThreadProcess& Spawn(const std::string& name, Clock& clk, std::function<void()> body) {
    return Thread(name, clk, std::move(body));
  }
};

/// How a test thread blocks: the polling loop, wait_until, or (for channel
/// traffic) the blocking Push/Pop ports, which wait on predicates inside.
enum class BlockStyle { kPolling, kPredicate, kPorts };

template <typename Pred>
void BlockUntil(BlockStyle style, Pred&& pred) {
  if (style == BlockStyle::kPolling) {
    while (!pred()) wait();
  } else {
    wait_until(pred);
  }
}

std::uint64_t TotalResumes(const Simulator& sim) {
  std::uint64_t n = 0;
  for (const auto& p : sim.processes()) {
    if (const auto* t = dynamic_cast<const ThreadProcess*>(p.get())) n += t->resume_count();
  }
  return n;
}

struct OrderLog {
  std::vector<std::string> events;
  std::uint64_t dispatches = 0;
  std::uint64_t resumes = 0;
  std::uint64_t end_cycle = 0;
};

// Two tickers fold their ids into shared state every edge, a waiter's
// predicate samples that state, and a producer and a consumer meet at a full
// Buffer, popping and pushing in the same cycle. Every logged value depends
// on the dispatch order within a delta.
OrderLog RunOrderDesign(BlockStyle style) {
  OrderLog out;
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  connections::Buffer<int> ch(top, "ch", clk, 2);
  std::uint32_t shared = 1;
  auto note = [&](const std::string& who) {
    out.events.push_back(who + "@" + std::to_string(clk.cycle()) + ":" +
                         std::to_string(shared));
  };
  for (std::uint32_t t = 0; t < 2; ++t) {
    top.Spawn("tick" + std::to_string(t), clk, [&, t] {
      for (;;) {
        shared = shared * 3 + t;
        note("tick" + std::to_string(t));
        wait();
      }
    });
  }
  top.Spawn("waiter", clk, [&] {
    for (int round = 0; round < 4; ++round) {
      BlockUntil(style == BlockStyle::kPolling ? style : BlockStyle::kPredicate, [&] {
        note("check");
        return shared % 4 == 0;
      });
      note("woke");
      wait();
    }
  });
  top.Spawn("prod", clk, [&] {
    for (int i = 0; i < 8; ++i) {
      if (style == BlockStyle::kPorts) {
        ch.Push(i);
      } else {
        BlockUntil(style, [&] { return ch.PushNB(i); });
      }
      note("push" + std::to_string(i));
    }
  });
  top.Spawn("cons", clk, [&] {
    wait(4);  // the producer fills the buffer meanwhile
    for (int i = 0; i < 8; ++i) {
      int v = -1;
      if (style == BlockStyle::kPorts) {
        v = ch.Pop();
      } else {
        BlockUntil(style, [&] { return ch.PopNB(v); });
      }
      note("pop" + std::to_string(v));
    }
    out.end_cycle = clk.cycle();
  });
  sim.Run(60_ns);
  out.dispatches = sim.dispatch_count();
  out.resumes = TotalResumes(sim);
  return out;
}

TEST(WaitUntil, KeepsTheDispatchOrderOfThePollingLoop) {
  const OrderLog polled = RunOrderDesign(BlockStyle::kPolling);
  ASSERT_GT(polled.end_cycle, 4u) << "the consumer never finished";
  for (BlockStyle style : {BlockStyle::kPredicate, BlockStyle::kPorts}) {
    const OrderLog log = RunOrderDesign(style);
    EXPECT_EQ(log.events, polled.events);
    EXPECT_EQ(log.end_cycle, polled.end_cycle);
    EXPECT_EQ(log.dispatches, polled.dispatches);
    EXPECT_LT(log.resumes, polled.resumes);
  }
}

class WaitUntilResumes : public ::testing::TestWithParam<SimMode> {};

TEST_P(WaitUntilResumes, ConsumerBlockedOnAnEmptyBufferResumesOnce) {
  constexpr std::uint64_t kBlockedCycles = 40;
  Simulator sim;
  sim.set_mode(GetParam());
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  connections::Buffer<int> ch(top, "ch", clk, 2);
  int got = 0;
  std::uint64_t got_cycle = 0;
  const ThreadProcess& cons = top.Spawn("cons", clk, [&] {
    got = ch.Pop();
    got_cycle = clk.cycle();
    for (;;) ch.Pop();  // blocks again; nothing more arrives
  });
  top.Spawn("prod", clk, [&] {
    wait(kBlockedCycles);
    ch.Push(7);
  });
  sim.Run(1_ns);
  const std::uint64_t before = cons.resume_count();
  sim.Run((kBlockedCycles + 20) * 1_ns);
  EXPECT_EQ(got, 7);
  EXPECT_GT(got_cycle, kBlockedCycles);
  EXPECT_EQ(cons.resume_count() - before, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothModels, WaitUntilResumes,
                         ::testing::Values(SimMode::kSimAccurate, SimMode::kSignalAccurate),
                         [](const ::testing::TestParamInfo<SimMode>& info) {
                           return info.param == SimMode::kSimAccurate ? "SimAccurate"
                                                                      : "SignalAccurate";
                         });

TEST(WaitUntil, IdleCrossingThreadsAreCheckedEveryEdgeButNeverResumed) {
  Simulator sim;
  Clock pclk(sim, "pclk", 1_ns);
  Clock cclk(sim, "cclk", 1'700);
  Spawner top(sim, "top");
  connections::Buffer<int> in_ch(top, "in_ch", pclk, 2);
  connections::Buffer<int> out_ch(top, "out_ch", cclk, 2);
  gals::PausibleBisyncFifo<int> cdc(top, "cdc", pclk, cclk);
  cdc.in(in_ch);
  cdc.out(out_ch);
  sim.Run(5_ns);
  auto thread = [&sim](const std::string& name) -> const ThreadProcess& {
    for (const auto& p : sim.processes()) {
      if (p->name() == name) return dynamic_cast<const ThreadProcess&>(*p);
    }
    throw std::runtime_error("no process " + name);
  };
  const ThreadProcess& enq = thread("top.cdc.enq");
  const ThreadProcess& deq = thread("top.cdc.deq");
  const std::uint64_t enq_resumes = enq.resume_count();
  const std::uint64_t deq_resumes = deq.resume_count();
  const std::uint64_t deq_dispatches = deq.stat_dispatches;
  const std::uint64_t cycles_before = cclk.cycle();
  sim.Run(200_ns);
  EXPECT_EQ(enq.resume_count() - enq_resumes, 0u);
  EXPECT_EQ(deq.resume_count() - deq_resumes, 0u);
  // The deq slot poll still takes its dispatch slot at every consumer edge.
  EXPECT_EQ(deq.stat_dispatches - deq_dispatches, cclk.cycle() - cycles_before);
}

struct DeferLog {
  std::vector<std::uint64_t> checks;  ///< cycle of every predicate evaluation
  std::vector<std::uint64_t> woke;    ///< cycle each wait returned
  std::uint64_t deferrals = 0;
};

// A waiter and an always-waiting neighbour on a clock whose wakeups chaos
// defers: the draws are per waiter per edge, in waiter-list order.
DeferLog RunDeferredWaiter(BlockStyle style) {
  DeferLog out;
  Simulator sim;
  FaultPlan plan;
  plan.seed = 11;
  plan.wakeup_delay_prob = 0.3;
  sim.chaos().Enable(plan);
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  top.Spawn("neighbour", clk, [] {
    for (;;) wait();
  });
  top.Spawn("waiter", clk, [&] {
    for (std::uint64_t target : {10u, 25u, 40u}) {
      BlockUntil(style, [&] {
        out.checks.push_back(clk.cycle());
        return clk.cycle() >= target;
      });
      out.woke.push_back(clk.cycle());
    }
  });
  sim.Run(80_ns);
  out.deferrals = sim.chaos().clock_points().at("clk").deferrals();
  return out;
}

TEST(WaitUntil, ChaosDeferralsMatchThePollingLoop) {
  const DeferLog polled = RunDeferredWaiter(BlockStyle::kPolling);
  const DeferLog pred = RunDeferredWaiter(BlockStyle::kPredicate);
  ASSERT_EQ(polled.woke.size(), 3u);
  EXPECT_GT(polled.deferrals, 0u);
  EXPECT_EQ(pred.deferrals, polled.deferrals);
  EXPECT_EQ(pred.checks, polled.checks);
  EXPECT_EQ(pred.woke, polled.woke);
}

TEST(WaitUntil, PredicateRunsAsTheWaitingThreadWithoutItsFiber) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  std::vector<const ThreadProcess*> threads;
  std::vector<const Fiber*> fibers;
  const ThreadProcess& t = top.Spawn("t", clk, [&] {
    wait_until([&] {
      threads.push_back(ThreadProcess::Current());
      fibers.push_back(Fiber::Current());
      return clk.cycle() >= 5;
    });
  });
  sim.Run(10_ns);
  // One check inline on the fiber at cycle 0, then one per edge 1..5 on the
  // scheduler's stack; the fiber resumes only after the last.
  ASSERT_EQ(threads.size(), 6u);
  for (const ThreadProcess* p : threads) EXPECT_EQ(p, &t);
  EXPECT_NE(fibers.front(), nullptr);
  for (std::size_t i = 1; i < fibers.size(); ++i) EXPECT_EQ(fibers[i], nullptr) << i;
  EXPECT_EQ(t.resume_count(), 2u);
  EXPECT_TRUE(t.done());
  EXPECT_EQ(ThreadProcess::Current(), nullptr);
}

TEST(WaitUntil, PredicateExceptionSurfacesFromRun) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  top.Spawn("t", clk, [&] {
    wait_until([&]() -> bool {
      if (clk.cycle() == 3) throw std::runtime_error("predicate failed");
      return false;
    });
  });
  EXPECT_THROW(sim.Run(10_ns), std::runtime_error);
  EXPECT_EQ(clk.cycle(), 3u);
  EXPECT_EQ(ThreadProcess::Current(), nullptr);
}

TEST(WaitUntil, BlockingInsideAPredicateIsAnError) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Spawner top(sim, "top");
  top.Spawn("t", clk, [&] {
    wait_until([&] {
      if (clk.cycle() == 2) wait();
      return false;
    });
  });
  EXPECT_THROW(sim.Run(10_ns), SimError);
}

TEST(Signal, WriteVisibleOnlyAfterUpdatePhase) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> s(sim, "s", 0);
  Module top(sim, "top");
  int seen_during_eval = -1;
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& s, int& seen) : Module(p, "b") {
      Thread("t", clk, [&s, &seen] {
        wait();
        s.write(5);
        seen = s.read();  // old value: update phase has not run yet
      });
    }
  } b(top, clk, s, seen_during_eval);
  sim.Run(2_ns);
  EXPECT_EQ(seen_during_eval, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, SensitiveMethodRunsOnChangeOnly) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> s(sim, "s", 0);
  Module top(sim, "top");
  int triggers = 0;
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& s, int& triggers) : Module(p, "b") {
      MethodProcess& m = Method("watcher", [&triggers] { ++triggers; });
      s.AddSensitive(m);
      Thread("driver", clk, [&s] {
        wait();
        s.write(1);
        wait();
        s.write(1);  // no change: watcher must not re-trigger
        wait();
        s.write(2);
      });
    }
  } b(top, clk, s, triggers);
  sim.Run(10_ns);
  // One initial evaluation + two actual value changes.
  EXPECT_EQ(triggers, 3);
}

TEST(Signal, DeltaCyclePropagationThroughMethodChain) {
  // a -> m1 -> b -> m2 -> c, all within a single timestep via delta cycles.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<int> a(sim, "a", 0), b(sim, "b", 0), c(sim, "c", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk, Signal<int>& a, Signal<int>& b, Signal<int>& c)
        : Module(p, "b") {
      MethodProcess& m1 = Method("m1", [&] { b.write(a.read() + 1); });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&] { c.write(b.read() + 1); });
      b.AddSensitive(m2);
      Thread("driver", clk, [&a] {
        wait();
        a.write(10);
      });
    }
  } built(top, clk, a, b, c);
  sim.Run(1_ns);
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(c.read(), 12);
}

TEST(Event, NotifyWakesWaiterSameTimestep) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Event ev(sim);
  Module top(sim, "top");
  Time woke_at = kTimeNever;
  struct B : Module {
    B(Module& p, Clock& clk, Event& ev, Time& woke_at) : Module(p, "b") {
      Thread("waiter", clk, [&] {
        wait(ev);
        woke_at = Simulator::Current().now();
      });
      Thread("notifier", clk, [&ev] {
        wait(3);
        ev.Notify();
      });
    }
  } b(top, clk, ev, woke_at);
  sim.Run(10_ns);
  EXPECT_EQ(woke_at, 3000u);  // same timestep as the notify (cycle 3)
}

TEST(Event, NotifyAfterDelayFiresAtRightTime) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Event ev(sim);
  Module top(sim, "top");
  Time woke_at = kTimeNever;
  struct B : Module {
    B(Module& p, Clock& clk, Event& ev, Time& woke_at) : Module(p, "b") {
      Thread("waiter", clk, [&] {
        wait(ev);
        woke_at = Simulator::Current().now();
      });
    }
  } b(top, clk, ev, woke_at);
  ev.NotifyAfter(5500);
  sim.Run(10_ns);
  EXPECT_EQ(woke_at, 5500u);
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("t", clk, [] {
        wait(5);
        Simulator::Current().Stop();
      });
    }
  } b(top, clk);
  sim.Run(100_ns);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 5u);
}

TEST(Simulator, StopThenResumeMakesProgress) {
  // Regression: stop_requested_ used to be sticky, so every Run() after a
  // Stop() returned immediately without advancing time.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Thread("t", clk, [] {
        wait(5);
        Simulator::Current().Stop();
      });
    }
  } b(top, clk);
  sim.Run(100_ns);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 5u);
  sim.Run(10_ns);  // resume: the stop request must not outlive its Run()
  EXPECT_FALSE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 15u);
  EXPECT_EQ(sim.now(), 15000u);
}

TEST(Simulator, StopHonoredMidDeltaSettle) {
  // Two methods sensitive to each other's signals oscillate forever within
  // one timestep; a Stop() from inside the settle loop must end the Run().
  Simulator sim;
  Signal<int> a(sim, "a", 0), b_sig(sim, "b", 0);
  Module top(sim, "top");
  int iterations = 0;
  struct B : Module {
    B(Module& p, Signal<int>& a, Signal<int>& b, int& n) : Module(p, "b") {
      MethodProcess& m1 = Method("m1", [&] {
        if (++n >= 50) {
          Simulator::Current().Stop();
          return;
        }
        b.write(a.read() + 1);
      });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&a, &b] { a.write(b.read() + 1); });
      b.AddSensitive(m2);
    }
  } built(top, a, b_sig, iterations);
  sim.Run(10_ns);  // would never return if Stop() were only checked between timesteps
  EXPECT_TRUE(sim.stopped());
  EXPECT_GE(iterations, 50);
}

TEST(Simulator, DeltaLimitDiagnosesOscillationByName) {
  Simulator sim;
  sim.set_delta_limit(1000);
  Signal<int> a(sim, "a", 0), b_sig(sim, "b", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Signal<int>& a, Signal<int>& b) : Module(p, "osc") {
      MethodProcess& m1 = Method("m1", [&a, &b] { b.write(a.read() + 1); });
      a.AddSensitive(m1);
      MethodProcess& m2 = Method("m2", [&a, &b] { a.write(b.read() + 1); });
      b.AddSensitive(m2);
    }
  } built(top, a, b_sig);
  try {
    sim.Run(1_ns);
    FAIL() << "oscillation did not raise";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("oscillation"), std::string::npos) << msg;
    EXPECT_NE(msg.find("top.osc"), std::string::npos) << msg;  // names the culprits
  }
}

TEST(Simulator, ScheduleAtNowFromInsideCallbackFiresSameRun) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(10_ns, [&] {
    order.push_back(1);
    Simulator& s = Simulator::Current();
    s.ScheduleAt(s.now(), [&] { order.push_back(2); });  // due immediately
  });
  sim.Run(20_ns);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunZeroFiresEventsDueNow) {
  Simulator sim;
  sim.Run(10_ns);
  bool fired = false;
  sim.ScheduleAt(sim.now(), [&] { fired = true; });
  sim.Run(0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 10000u);
}

TEST(Simulator, TimeAdvancesExactlyToBoundWhenQueueDrains) {
  Simulator sim;
  Time fired_at = kTimeNever;
  sim.ScheduleAt(3_ns, [&] { fired_at = Simulator::Current().now(); });
  sim.Run(7_ns);  // queue drains at 3 ns; time must still land exactly on 7 ns
  EXPECT_EQ(fired_at, 3000u);
  EXPECT_EQ(sim.now(), 7000u);
}

// Run(kTimeNever) on the engine's one inline worker: no horizon bounds its
// window, so only Stop() or two drained timed heaps end it.
TEST(RunForever, RunsUntilStopAfterTimeZero) {
  // Regression: Run(d) added d to now() unsigned, so Run(kTimeNever) after
  // time 0 wrapped to a horizon in the past and returned at once.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk) : Module(p, "b") {
      Method("stop", [&clk] {
        if (clk.cycle() == 50) Simulator::Current().Stop();
      }).SensitiveTo(clk);
    }
  } b(top, clk);
  sim.Run(5_ns);
  EXPECT_EQ(sim.now(), 5000u);
  sim.Run(kTimeNever);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(clk.cycle(), 50u);
  EXPECT_EQ(sim.now(), 50000u);
}

TEST(RunForever, DrainedRunSamplesThePulseWindowOfItsLastEvent) {
  // A run that reaches its horizon samples every pulse boundary up to it;
  // at kTimeNever the limit wrapped to 0 and the window holding the last
  // event (boundary 30 ns) was never sampled.
  Simulator sim;
  PulseConfig cfg;
  cfg.period_ps = 10_ns;
  cfg.capacity = 4;
  sim.pulse().Enable(cfg);
  bool fired = false;
  sim.ScheduleAt(25_ns, [&] { fired = true; });
  sim.Run(kTimeNever);
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), kTimeNever);
  EXPECT_GE(sim.pulse().windows_total(), 3u);
}

/// Sets CRAFT_PARALLELISM for one scope, then restores what was there.
class ScopedParallelismEnv {
 public:
  explicit ScopedParallelismEnv(const char* value) {
    if (const char* old = std::getenv("CRAFT_PARALLELISM")) saved_ = old;
    ::setenv("CRAFT_PARALLELISM", value, 1);
  }
  ~ScopedParallelismEnv() {
    if (saved_.has_value()) {
      ::setenv("CRAFT_PARALLELISM", saved_->c_str(), 1);
    } else {
      ::unsetenv("CRAFT_PARALLELISM");
    }
  }

 private:
  std::optional<std::string> saved_;
};

// The Simulators below are only constructed, never run, so no worker
// thread starts whatever count they read.
TEST(Simulator, ParallelismEnvAcceptsDecimalWorkerCounts) {
  for (const auto& [text, n] : {std::pair{"3", 3u}, std::pair{"007", 7u},
                                std::pair{"4294967295", 4294967295u}}) {
    ScopedParallelismEnv env(text);
    Simulator sim;
    EXPECT_EQ(sim.parallelism(), n) << text;
  }
}

TEST(Simulator, ParallelismEnvRejectsAnythingElse) {
  // Zero, out of range, signed, padded, partial or not a number: each raises
  // instead of being read as some other worker count.
  for (const char* bad : {"0", "4294967296", "-1", "2x", "", " 2", "+2", "four"}) {
    ScopedParallelismEnv env(bad);
    try {
      Simulator sim;
      ADD_FAILURE() << "CRAFT_PARALLELISM='" << bad << "' was accepted";
    } catch (const SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("CRAFT_PARALLELISM='" + std::string(bad) + "'"),
                std::string::npos)
          << msg;
    }
  }
  EXPECT_EQ(Simulator::CurrentOrNull(), nullptr);
}

TEST(Simulator, SetParallelismZeroRaises) {
  Simulator sim;
  EXPECT_THROW(sim.SetParallelism(0), SimError);
  sim.SetParallelism(1);
  EXPECT_EQ(sim.parallelism(), 1u);
}

TEST(Module, HierarchicalNames) {
  Simulator sim;
  Module root(sim, "soc");
  Module child(root, "pe0");
  Module grandchild(child, "dp");
  EXPECT_EQ(grandchild.full_name(), "soc.pe0.dp");
  EXPECT_EQ(grandchild.parent(), &child);
}

TEST(Tracer, ProducesWellFormedVcd) {
  const std::string path = ::testing::TempDir() + "/craft_trace_test.vcd";
  {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Signal<std::uint8_t> s(sim, "data", 0);
    Tracer tracer(sim, path);
    tracer.Trace(s, 8);
    tracer.Start();
    Module top(sim, "top");
    struct B : Module {
      B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
        Thread("t", clk, [&s] {
          for (int i = 1; i <= 3; ++i) {
            wait();
            s.write(static_cast<std::uint8_t>(i * 10));
          }
        });
      }
    } b(top, clk, s);
    sim.Run(10_ns);
  }
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("$timescale"), std::string::npos);
  EXPECT_NE(content.find("$var wire 8"), std::string::npos);
  EXPECT_NE(content.find("b00011110"), std::string::npos);  // 30
  std::remove(path.c_str());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NextBelowIsUnbiased) {
  // Regression for the modulo-bias bug: `Next() % bound` over-weights the
  // first 2^64 mod bound residues. With Lemire rejection every residue of a
  // non-power-of-two bound must come out uniform; a chi-square-style bound
  // on the per-bin deviation catches the old skew with huge margin.
  Rng r(42);
  constexpr std::uint64_t kBound = 5;  // non-power-of-two
  constexpr int kDraws = 500000;
  std::array<int, kBound> bins{};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = r.NextBelow(kBound);
    ASSERT_LT(v, kBound);
    ++bins[v];
  }
  const double expect = static_cast<double>(kDraws) / kBound;
  for (std::uint64_t b = 0; b < kBound; ++b) {
    EXPECT_NEAR(bins[b], expect, 5 * std::sqrt(expect)) << "bin " << b;
  }
}

TEST(Rng, NextBelowStaysInRangeForHugeBounds) {
  // Near-2^64 bounds maximize the rejection slice; both range containment
  // and termination must hold.
  Rng r(7);
  const std::uint64_t bound = (1ull << 63) + 12345;
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.NextBelow(bound), bound);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(r.NextBelow(1), 0u);
}

TEST(Rng, NextInRangeCoversTheFullDomain) {
  // Regression: NextInRange(0, ~0ull) computed hi - lo + 1 == 0 and handed
  // NextBelow a zero bound (undefined: the old code asserted or spun). The
  // full-domain span must map straight to Next() — every draw valid, and
  // both halves of the 64-bit space reachable.
  Rng r(19);
  bool low_half = false, high_half = false;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.NextInRange(0, ~0ull);
    (v < (1ull << 63) ? low_half : high_half) = true;
  }
  EXPECT_TRUE(low_half);
  EXPECT_TRUE(high_half);
  // Near-full spans with a nonzero lo exercise the same overflow edge.
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = r.NextInRange(~0ull - 3, ~0ull);
    EXPECT_GE(v, ~0ull - 3);
  }
  EXPECT_EQ(r.NextInRange(42, 42), 42u);
}

TEST(Rng, NextInRangeIsUniform) {
  // Same chi-square-style bound as NextBelowIsUnbiased, applied through the
  // [lo, hi] interface so the span+offset arithmetic is covered too.
  Rng r(23);
  constexpr std::uint64_t kLo = 10, kHi = 16;  // 7 bins, non-power-of-two
  constexpr int kDraws = 350000;
  std::array<int, kHi - kLo + 1> bins{};
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = r.NextInRange(kLo, kHi);
    ASSERT_GE(v, kLo);
    ASSERT_LE(v, kHi);
    ++bins[v - kLo];
  }
  const double expect = static_cast<double>(kDraws) / bins.size();
  for (std::size_t b = 0; b < bins.size(); ++b) {
    EXPECT_NEAR(bins[b], expect, 5 * std::sqrt(expect)) << "bin " << b;
  }
}

TEST(Tracer, DestructionDeregistersHooks) {
  // Regression: ~Tracer left lambdas capturing the dead tracer installed in
  // the signals' trace hooks; the next write was a use-after-free (caught by
  // the ASan job). The signal must be safely writable after the tracer dies.
  const std::string path = ::testing::TempDir() + "/craft_trace_dtor_test.vcd";
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Signal<std::uint8_t> s(sim, "data", 0);
  Module top(sim, "top");
  struct B : Module {
    B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
      Thread("t", clk, [&s] {
        for (;;) {
          wait();
          s.write(static_cast<std::uint8_t>(this_cycle()));
        }
      });
    }
  } b(top, clk, s);
  {
    Tracer tracer(sim, path);
    tracer.Trace(s, 8);
    tracer.Start();
    sim.Run(5_ns);
  }
  sim.Run(5_ns);  // writes after ~Tracer must not touch the dead tracer
  EXPECT_EQ(s.read(), 10u);
  std::remove(path.c_str());
}

TEST(BitStream, RoundTripsValues) {
  BitStream s;
  s.PutBits(0xABCD, 16);
  s.PutBits(0x3, 2);
  s.PutBits(0x1ffffffffull, 33);
  EXPECT_EQ(s.GetBits(16), 0xABCDu);
  EXPECT_EQ(s.GetBits(2), 0x3u);
  EXPECT_EQ(s.GetBits(33), 0x1ffffffffull);
  EXPECT_TRUE(s.exhausted());
}

TEST(BitStream, FlitRoundTrip) {
  BitStream s;
  s.PutBits(0xDEADBEEF, 32);
  s.PutBits(0x5A, 8);
  std::vector<std::uint64_t> flits{1, 2, 3, 4, 5, 6};  // replaced, not appended to
  s.ToFlits(13, flits);
  EXPECT_EQ(flits.size(), DivCeil(40, 13));
  BitStream r;
  for (std::uint64_t f : flits) r.PutBits(f, 13);
  EXPECT_EQ(r.GetBits(32), 0xDEADBEEFu);
  EXPECT_EQ(r.GetBits(8), 0x5Au);
}

TEST(BitStream, ClearRewindsForReuse) {
  BitStream s;
  s.PutBits(0xFFFF, 16);
  EXPECT_EQ(s.GetBits(8), 0xFFu);
  s.Clear();
  EXPECT_EQ(s.size_bits(), 0u);
  EXPECT_TRUE(s.exhausted());
  s.PutBits(0x2A, 7);
  EXPECT_EQ(s.size_bits(), 7u);
  EXPECT_EQ(s.GetBits(7), 0x2Au);
}

TEST(Marshal, IntegralWidths) {
  EXPECT_EQ(BitWidthOf<std::uint8_t>(), 8u);
  EXPECT_EQ(BitWidthOf<std::uint32_t>(), 32u);
  BitStream s;
  Marshal<std::uint32_t>::Write(s, 0xCAFEBABE);
  EXPECT_EQ(Marshal<std::uint32_t>::Read(s), 0xCAFEBABEu);
}

// ---------- error reports ----------

TEST(Report, SourcePathsAreNormalisedAndCheckoutRelative) {
  EXPECT_EQ(detail::LexicallyNormal("/a/src/soc/../soc/./soc.hpp"), "/a/src/soc/soc.hpp");
  EXPECT_EQ(detail::LexicallyNormal("a//b/../../c"), "c");
  EXPECT_EQ(detail::LexicallyNormal("../x/../y"), "../y");
  EXPECT_EQ(detail::LexicallyNormal("/../x"), "/x");
  EXPECT_EQ(detail::LexicallyNormal("a/.."), ".");
  // A file of this checkout prints relative to its root, however the
  // compiler spelled the path; one outside it stays absolute.
  EXPECT_EQ(detail::SourcePath(__FILE__), "tests/kernel_test.cpp");
  const std::string spelled = std::string(__FILE__) + "/../../src/soc/../soc/soc.hpp";
  EXPECT_EQ(detail::SourcePath(spelled), "src/soc/soc.hpp");
  EXPECT_EQ(detail::SourcePath("/elsewhere/x/../y.cpp"), "/elsewhere/y.cpp");
  try {
    CRAFT_ASSERT(1 + 1 == 3, "arithmetic");
    FAIL() << "CRAFT_ASSERT did not raise";
  } catch (const SimError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("tests/kernel_test.cpp:", 0), 0u) << e.what();
  }
}

}  // namespace
}  // namespace craft
