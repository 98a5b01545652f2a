// Tests for Retimer: the §2.3 "retiming registers on inter-unit interfaces"
// extensibility claim — inserting pipeline stages must add exactly the
// configured latency, sustain full throughput, and (because interfaces are
// latency-insensitive) never change functional behaviour.
#include <gtest/gtest.h>

#include <vector>

#include "connections/retimer.hpp"
#include "kernel/kernel.hpp"

namespace craft::connections {
namespace {

using namespace craft::literals;

template <unsigned kStages>
struct Harness : Module {
  Harness(Simulator& sim, Clock& clk, int count) : Module(sim, "h"),
        a(*this, "a", clk, 2),
        b(*this, "b", clk, 2),
        rt(*this, "rt", clk) {
    rt.in(a);
    rt.out(b);
    Thread("prod", clk, [this, count] {
      for (int i = 0; i < count; ++i) {
        push_cycles.push_back(this_cycle());
        a.Push(i);
      }
    });
    Thread("cons", clk, [this, count] {
      for (int i = 0; i < count; ++i) {
        received.push_back(b.Pop());
        pop_cycles.push_back(this_cycle());
      }
      Simulator::Current().Stop();
    });
  }
  Buffer<int> a, b;
  Retimer<int, kStages> rt;
  std::vector<int> received;
  std::vector<std::uint64_t> push_cycles, pop_cycles;
};

class RetimerLatencyTest : public ::testing::TestWithParam<int> {};

TEST_P(RetimerLatencyTest, AddsStagesWithoutChangingBehaviour) {
  // Run the same traffic through 1, 2, 4, 8-stage retimers: identical data,
  // monotonically increasing single-token latency.
  auto run = [](auto* tag) {
    using H = std::remove_pointer_t<decltype(tag)>;
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    H h(sim, clk, 40);
    sim.Run(10_us);
    EXPECT_EQ(h.received.size(), 40u);
    for (int i = 0; i < 40; ++i) EXPECT_EQ(h.received[i], i);
    return h.pop_cycles.front();
  };
  (void)GetParam();
  const auto l1 = run(static_cast<Harness<1>*>(nullptr));
  const auto l2 = run(static_cast<Harness<2>*>(nullptr));
  const auto l4 = run(static_cast<Harness<4>*>(nullptr));
  const auto l8 = run(static_cast<Harness<8>*>(nullptr));
  EXPECT_EQ(l2 - l1, 1u);
  EXPECT_EQ(l4 - l2, 2u);
  EXPECT_EQ(l8 - l4, 4u);
}

INSTANTIATE_TEST_SUITE_P(Single, RetimerLatencyTest, ::testing::Values(0));

TEST(Retimer, SustainsOneTokenPerCycle) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Harness<4> h(sim, clk, 200);
  sim.Run(10_us);
  ASSERT_EQ(h.received.size(), 200u);
  // Steady state: back-to-back pops, one per cycle.
  const std::uint64_t span = h.pop_cycles.back() - h.pop_cycles.front();
  EXPECT_LE(span, 210u);
  EXPECT_GE(span, 199u);
  EXPECT_EQ(h.rt.tokens_retimed(), 200u);
}

TEST(Retimer, WorksUnderStallInjection) {
  Simulator sim;
  sim.chaos().Enable({.seed = 5, .channel_valid_stall_prob = 0.4});
  Clock clk(sim, "clk", 1_ns);
  Harness<3> h(sim, clk, 60);
  sim.Run(100_us);
  ASSERT_EQ(h.received.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(h.received[i], i);
}

TEST(Retimer, IdleEgressDoesNotBusyPoll) {
  // Regression: the egress thread woke every cycle to re-check an empty
  // pipe_, charging ~1 dispatch/cycle to its craft-par shard even with zero
  // traffic. It now sleeps on the ingress arrival event while empty.
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "h");
  Buffer<int> a(top, "a", clk, 2), b(top, "b", clk, 2);
  Retimer<int, 4> rt(top, "rt", clk);
  rt.in(a);
  rt.out(b);
  sim.Run(10_us);  // 10k idle cycles
  const ProcessBase* egress = nullptr;
  for (const auto& p : sim.processes())
    if (p->name().find("egress") != std::string::npos) egress = p.get();
  ASSERT_NE(egress, nullptr);
  EXPECT_LT(egress->stat_dispatches, 50u);
}

TEST(Retimer, PerTokenLatencyIsExactlyStages) {
  // Spaced traffic (no queueing): every token's push->pop distance must be
  // the same constant, and the constant must move by exactly the stage-count
  // difference between two chains — i.e. the retimer adds kStages cycles per
  // token, not "at least" or "on average".
  auto run = [](auto* tag) {
    using H = std::remove_pointer_t<decltype(tag)>;
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "h");
    Buffer<int> a(top, "a", clk, 2), b(top, "b", clk, 2);
    H rt(top, "rt", clk);
    rt.in(a);
    rt.out(b);
    std::vector<std::uint64_t> push_cycles, pop_cycles;
    struct Prod : Module {
      Prod(Module& p, Clock& clk, Buffer<int>& a, std::vector<std::uint64_t>& pushes)
          : Module(p, "prod") {
        Thread("run", clk, [this, &a, &pushes] {
          for (int i = 0; i < 20; ++i) {
            wait(8);  // gap >> stages: the chain fully drains between tokens
            pushes.push_back(this_cycle());
            a.Push(i);
          }
        });
      }
    } prod(top, clk, a, push_cycles);
    struct Cons : Module {
      Cons(Module& p, Clock& clk, Buffer<int>& b, std::vector<std::uint64_t>& pops)
          : Module(p, "cons") {
        Thread("run", clk, [this, &b, &pops] {
          for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(b.Pop(), i);
            pops.push_back(this_cycle());
          }
          Simulator::Current().Stop();
        });
      }
    } cons(top, clk, b, pop_cycles);
    sim.Run(100_us);
    EXPECT_EQ(pop_cycles.size(), 20u);
    const std::uint64_t latency = pop_cycles.front() - push_cycles.front();
    for (std::size_t i = 0; i < pop_cycles.size(); ++i)
      EXPECT_EQ(pop_cycles[i] - push_cycles[i], latency) << "token " << i;
    return latency;
  };
  const auto l1 = run(static_cast<Retimer<int, 1>*>(nullptr));
  const auto l3 = run(static_cast<Retimer<int, 3>*>(nullptr));
  const auto l6 = run(static_cast<Retimer<int, 6>*>(nullptr));
  EXPECT_EQ(l3 - l1, 2u);
  EXPECT_EQ(l6 - l3, 3u);
}

TEST(Retimer, ChaosStallInjectionPreservesBehaviourAcrossAChain) {
  // craft-chaos latency faults over a two-retimer chain: channel stalls plus
  // per-token retimer delay wobble must never reorder or lose tokens.
  auto run = [](const FaultPlan* plan) {
    Simulator sim;
    if (plan != nullptr) sim.chaos().Enable(*plan);
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "h");
    Buffer<int> a(top, "a", clk, 2), m(top, "m", clk, 2), b(top, "b", clk, 2);
    Retimer<int, 2> rt1(top, "rt1", clk);
    Retimer<int, 3> rt2(top, "rt2", clk);
    rt1.in(a);
    rt1.out(m);
    rt2.in(m);
    rt2.out(b);
    struct Prod : Module {
      Prod(Module& p, Clock& clk, Buffer<int>& a) : Module(p, "prod") {
        Thread("run", clk, [&a] {
          for (int i = 0; i < 80; ++i) a.Push(i);
        });
      }
    } prod(top, clk, a);
    std::vector<int> received;
    struct Cons : Module {
      Cons(Module& p, Clock& clk, Buffer<int>& b, std::vector<int>& out)
          : Module(p, "cons") {
        Thread("run", clk, [&b, &out] {
          for (int i = 0; i < 80; ++i) out.push_back(b.Pop());
          Simulator::Current().Stop();
        });
      }
    } cons(top, clk, b, received);
    sim.Run(500_us);
    const auto totals = sim.chaos().latency_totals();
    return std::pair<std::vector<int>, std::uint64_t>(
        received, totals.channel_stall_cycles + totals.retimer_delays);
  };
  const auto golden = run(nullptr);
  FaultPlan plan;
  plan.seed = 13;
  plan.channel_valid_stall_prob = 0.2;
  plan.channel_ready_stall_prob = 0.1;
  plan.retimer_delay_prob = 0.4;
  plan.retimer_delay_max_cycles = 5;
  const auto faulted = run(&plan);
  ASSERT_EQ(golden.first.size(), 80u);
  EXPECT_EQ(faulted.first, golden.first);
  EXPECT_GT(faulted.second, 0u);  // the plan really fired
  EXPECT_EQ(golden.second, 0u);
}

}  // namespace
}  // namespace craft::connections
