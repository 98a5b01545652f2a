// Tests for craft-prove: capacity-aware deadlock feasibility (with witness
// cycles), hand-computed minimum-cycle-ratio bounds, buffer-sizing and GALS
// rate-matching diagnostics, deadlock-freedom of every shipped reference
// design, and cross-validation of the static bounds against craft-stats
// measured throughput (measured <= bound always; measured reaches the bound
// on saturating benches).
//
// Tolerance methodology (see DESIGN.md section 10): measured rates may
// exceed an ideal steady-state bound transiently because buffered tokens
// drain in a burst, so every "measured <= bound" assertion allows a slack of
// (capacity + 2) tokens over the whole run; SoC clocks additionally jitter
// with 4% supply-noise amplitude, covered by a 6% relative margin.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "connections/connections.hpp"
#include "gals/gals.hpp"
#include "kernel/kernel.hpp"
#include "kernel/stats.hpp"
#include "session/session.hpp"
#include "soc/workloads.hpp"

namespace craft::analyze {
namespace {

using namespace craft::literals;
using connections::Buffer;
using connections::Combinational;
using connections::In;
using connections::Out;

std::vector<lint::Finding> WithRule(const std::vector<lint::Finding>& fs,
                                    const std::string& rule) {
  std::vector<lint::Finding> out;
  for (const auto& f : fs) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

// ---------------- synthetic-graph helpers ----------------
//
// Deadlock and cycle-ratio passes are exercised on hand-built DesignGraphs:
// full control over capacities, latencies and periods, no elaboration noise.

void AddChan(DesignGraph& g, const std::string& name, unsigned cap,
             unsigned lat_cycles, std::uint64_t period_ps,
             bool zero_storage = false) {
  DesignGraph::ChannelNode ch;
  ch.name = name;
  ch.kind = zero_storage ? "Combinational" : "Buffer";
  ch.capacity = cap;
  ch.zero_storage = zero_storage;
  ch.clock_name = "clk";
  ch.period_ps = period_ps;
  ch.latency_cycles = lat_cycles;
  g.AddChannel(ch);
}

/// Binds a fresh port owned by `module` to `channel`.
void BindPort(DesignGraph& g, const std::string& module, bool is_input,
              const std::string& channel) {
  static std::uintptr_t next_key = 1;
  g.AddModule(module, "");
  const void* key = reinterpret_cast<const void*>(next_key++);
  g.RegisterPort(key, is_input, "int");
  g.BindPort(key, channel);
}

/// Ring a --c1--> b --c2--> a.
void BindRing(DesignGraph& g) {
  BindPort(g, "a", false, "c1");
  BindPort(g, "b", true, "c1");
  BindPort(g, "b", false, "c2");
  BindPort(g, "a", true, "c2");
}

// ---------------- deadlock feasibility ----------------

TEST(ProveDeadlock, ZeroCapacityRingIsProvableDeadlockWithWitness) {
  DesignGraph g;
  AddChan(g, "c1", 0, 0, 1000, /*zero_storage=*/true);
  AddChan(g, "c2", 0, 0, 1000, /*zero_storage=*/true);
  BindRing(g);

  const Analysis a = Analyze(g);
  const auto dead = WithRule(a.findings, "prove-deadlock");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].severity, lint::Severity::kError);
  EXPECT_NE(dead[0].message.find("c1"), std::string::npos);
  EXPECT_NE(dead[0].message.find("c2"), std::string::npos);
  EXPECT_NE(dead[0].message.find("->"), std::string::npos);  // witness cycle
  ASSERT_EQ(a.cycles.size(), 1u);
  EXPECT_TRUE(a.cycles[0].deadlock);
  EXPECT_EQ(a.cycles[0].scc_capacity, 0u);
  EXPECT_EQ(a.cycles[0].demand_tokens, 1u);
}

TEST(ProveDeadlock, OneTokenOfBufferingMakesTheRingFeasible) {
  DesignGraph g;
  AddChan(g, "c1", 1, 1, 1000);
  AddChan(g, "c2", 0, 0, 1000, /*zero_storage=*/true);
  BindRing(g);

  const Analysis a = Analyze(g);
  EXPECT_TRUE(WithRule(a.findings, "prove-deadlock").empty());
  ASSERT_EQ(a.cycles.size(), 1u);
  EXPECT_FALSE(a.cycles[0].deadlock);
}

TEST(ProveDeadlock, DepacketizerRaisesTokenDemandToFlitsPerMessage) {
  // A DePacketizer inside the loop must buffer ceil(82/32) = 3 flits before
  // one message can move on; 2 tokens of loop buffering provably wedge.
  DesignGraph reject;
  AddChan(reject, "c1", 1, 1, 1000);
  AddChan(reject, "c2", 1, 1, 1000);
  BindRing(reject);
  DesignGraph::PacketizerNode dpk;
  dpk.module = "b";
  dpk.msg_type = "Msg";
  dpk.msg_width = 82;
  dpk.flit_bits = 32;
  dpk.is_packetizer = false;
  reject.AddPacketizer(dpk);

  const Analysis bad = Analyze(reject);
  const auto dead = WithRule(bad.findings, "prove-deadlock");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_NE(dead[0].message.find("DePacketizer"), std::string::npos);
  ASSERT_EQ(bad.cycles.size(), 1u);
  EXPECT_EQ(bad.cycles[0].demand_tokens, 3u);
  EXPECT_EQ(bad.cycles[0].scc_capacity, 2u);

  // Same loop with 3 tokens of buffering is feasible.
  DesignGraph accept;
  AddChan(accept, "c1", 2, 1, 1000);
  AddChan(accept, "c2", 1, 1, 1000);
  BindRing(accept);
  accept.AddPacketizer(dpk);
  EXPECT_TRUE(WithRule(Analyze(accept).findings, "prove-deadlock").empty());
}

// ---------------- cycle-ratio and crossing bounds ----------------

TEST(ProveCycles, HandComputedMinimumCycleRatioThroughACrossing) {
  // a --c1--> x(crossing) --c2--> a. Capacities 1+1+1 = 3 tokens; latencies
  // 1000 (c1) + 2 x 4000 (crossing round-trip) + 1000 (c2) = 10000 ps.
  DesignGraph g;
  AddChan(g, "c1", 1, 1, 1000);
  AddChan(g, "c2", 1, 1, 1000);
  BindPort(g, "a", false, "c1");
  BindPort(g, "x", true, "c1");
  BindPort(g, "x", false, "c2");
  BindPort(g, "a", true, "c2");
  DesignGraph::CrossingNode cn;
  cn.path = "x";
  cn.producer_clock_name = "p";
  cn.consumer_clock_name = "c";
  cn.producer_period_ps = 1000;
  cn.consumer_period_ps = 1000;
  cn.sync_delay_ps = 4000;
  cn.depth = 1;
  g.AddCrossing(cn);

  const Analysis a = Analyze(g);
  ASSERT_EQ(a.cycles.size(), 1u);
  const CycleBound& c = a.cycles[0];
  EXPECT_FALSE(c.deadlock);
  EXPECT_NEAR(c.capacity_tokens, 3.0, 1e-12);
  EXPECT_NEAR(c.latency_ps, 10000.0, 1e-12);
  EXPECT_NEAR(c.tokens_per_ps, 3.0 / 10000.0, 1e-9);
  // The witness walks the ring through both crossing halves.
  std::string joined;
  for (const auto& n : c.nodes) joined += n + " ";
  for (const char* want : {"a", "c1", "x#in", "x#out", "c2"}) {
    EXPECT_NE(joined.find(want), std::string::npos) << joined;
  }

  // Crossing bound: min(1/1000, 1/1000, 1/(2 x 4000)) — the synchronizer
  // window is the limiter, below both clocks.
  const CrossingBound* xb = FindCrossingBound(a, "x");
  ASSERT_NE(xb, nullptr);
  EXPECT_NEAR(xb->tokens_per_ps, 1.0 / 8000.0, 1e-12);
  EXPECT_EQ(xb->limited_by, "sync-delay");
  EXPECT_TRUE(xb->sync_limited);
  EXPECT_EQ(xb->recommended_depth, 8u);  // ceil(2 x 4000 / 1000)
  EXPECT_EQ(WithRule(a.findings, "gals-rate-mismatch").size(), 1u);

  // Channels adjacent to the crossing inherit its bound.
  const ChannelBound* cb = FindChannelBound(a, "c1");
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->limited_by, "crossing:x");
  EXPECT_NEAR(cb->tokens_per_ps, 1.0 / 8000.0, 1e-12);
  EXPECT_NEAR(cb->tokens_per_cycle, 0.125, 1e-12);
}

TEST(ProveCycles, StructuralBoundIsOneTokenPerCycleWithoutCrossings) {
  DesignGraph g;
  AddChan(g, "c1", 4, 1, 2000);
  BindPort(g, "a", false, "c1");
  BindPort(g, "b", true, "c1");
  const Analysis a = Analyze(g);
  const ChannelBound* cb = FindChannelBound(a, "c1");
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(cb->limited_by, "structural");
  EXPECT_NEAR(cb->tokens_per_cycle, 1.0, 1e-12);
  EXPECT_NEAR(cb->tokens_per_ps, 1.0 / 2000.0, 1e-12);
}

TEST(ProveSizing, BufferLimitedCycleGetsACapacityRecommendation) {
  // c1 has a 3-cycle latency but only 1 token of storage: the ring sustains
  // 2 tokens / 4000 ps, half the 1-token-per-cycle target. Recommendation:
  // 2 more tokens around the loop.
  DesignGraph g;
  AddChan(g, "c1", 1, 3, 1000);
  AddChan(g, "c2", 1, 1, 1000);
  BindRing(g);

  const Analysis a = Analyze(g);
  ASSERT_EQ(a.cycles.size(), 1u);
  EXPECT_NEAR(a.cycles[0].tokens_per_ps, 2.0 / 4000.0, 1e-9);
  ASSERT_EQ(a.buffer_recs.size(), 1u);
  const BufferRec& rec = a.buffer_recs[0];
  EXPECT_EQ(rec.current_capacity, 1u);
  EXPECT_EQ(rec.recommended_capacity, 3u);  // ceil(1e-3 x 4000) - 2 more
  EXPECT_NEAR(rec.target_tokens_per_ps, 1.0 / 1000.0, 1e-12);
  EXPECT_EQ(WithRule(a.findings, "buffer-sizing").size(), 1u);
  EXPECT_EQ(a.findings[0].severity, lint::Severity::kInfo);
}

// ---------------- shipped designs and the injected deadlock ----------------

TEST(ProveRefDesigns, EveryShippedDesignIsDeadlockFree) {
  for (const session::Entry& e : session::Catalog()) {
    const session::Session s(session::Spec{.design = e.name});
    const Analysis a = Analyze(s.sim().design_graph());
    EXPECT_EQ(lint::ErrorCount(a.findings), 0)
        << e.name << ":\n" << FormatText(e.name, a);
    EXPECT_FALSE(a.channels.empty()) << e.name;
  }
}

struct Echo : Module {
  In<int> in;
  Out<int> out;
  Echo(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name) {
    Thread("run", clk, [this] {
      for (;;) out.Push(in.Pop());
    });
  }
};

TEST(ProveInjected, SeededDeadlockIsCaughtStaticallyWithPrintedWitness) {
  // Two rendezvous channels in a ring: each side needs the other to be
  // mid-Pop before its Push can complete — classic zero-buffer deadlock.
  // craft-prove flags it from elaboration alone; the simulator never runs.
  Simulator sim;
  Clock clk(sim, "clk", 1000);
  Module top(sim, "top");
  Combinational<int> c1(top, "c1", clk);
  Combinational<int> c2(top, "c2", clk);
  Echo fwd(top, "fwd", clk), bwd(top, "bwd", clk);
  fwd.in(c1);
  fwd.out(c2);
  bwd.in(c2);
  bwd.out(c1);

  const Analysis a = Analyze(sim.design_graph());
  const auto dead = WithRule(a.findings, "prove-deadlock");
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_NE(dead[0].message.find("top.c1"), std::string::npos);
  EXPECT_NE(dead[0].message.find("top.c2"), std::string::npos);
  const std::string text = FormatText("injected", a);
  EXPECT_NE(text.find("DEADLOCK"), std::string::npos);
  EXPECT_NE(text.find("top.c1"), std::string::npos);
}

// ---------------- cross-validation against craft-stats ----------------

class Pusher : public Module {
 public:
  Pusher(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name) {
    Thread("run", clk, [this] {
      for (int i = 0;; ++i) out.Push(i);
    });
  }
  Out<int> out;
};

class Popper : public Module {
 public:
  Popper(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name) {
    Thread("run", clk, [this] {
      for (;;) (void)in.Pop();
    });
  }
  In<int> in;
};

TEST(ProveCrossValidation, SaturatedBufferPipelineMeetsStructuralBound) {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 4);
  Pusher prod(top, "prod", clk);
  Popper cons(top, "cons", clk);
  prod.out(ch);
  cons.in(ch);

  const Analysis a = Analyze(sim.design_graph());
  const ChannelBound* bound = FindChannelBound(a, "top.ch");
  ASSERT_NE(bound, nullptr);

  sim.Run(5000_ns);
  const auto rates = stats::MeasuredChannelRates(sim);
  ASSERT_TRUE(rates.count("top.ch"));
  const stats::MeasuredRate& m = rates.at("top.ch");
  const double elapsed_cycles =
      static_cast<double>(sim.now()) / static_cast<double>(clk.period());
  const double burst_slack = (bound->capacity + 2.0) / elapsed_cycles;
  // Sound: measured never exceeds the static bound (plus drain slack)...
  EXPECT_LE(m.tokens_per_cycle, bound->tokens_per_cycle + burst_slack);
  // ...and tight: a saturating producer/consumer pair reaches it.
  EXPECT_GE(m.tokens_per_cycle, 0.9 * bound->tokens_per_cycle);
}

TEST(ProveCrossValidation, GalsPipelineRespectsAndReachesCrossingBounds) {
  // The shipped gals_pipeline reference design: a saturating source feeds
  // two pausible crossings (1000 -> 1300 -> 800 ps domains). Every measured
  // rate must respect its static bound; the egress crossing, fed at the
  // pipeline's sustained rate, must come within 10% of the slower-clock
  // bound it is predicted to saturate at.
  session::Session s(session::Spec{.design = "gals_pipeline", .horizon = 1_ms, .stats = true});
  Simulator& sim = s.sim();
  const Analysis a = Analyze(sim.design_graph());
  ASSERT_TRUE(s.Run().ok);

  const double elapsed = static_cast<double>(sim.now());
  for (const auto& [name, m] : stats::MeasuredCrossingRates(sim)) {
    const CrossingBound* b = FindCrossingBound(a, name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_LE(m.tokens_per_ps, b->tokens_per_ps + 8.0 / elapsed) << name;
  }
  for (const auto& [name, m] : stats::MeasuredChannelRates(sim)) {
    const ChannelBound* b = FindChannelBound(a, name);
    ASSERT_NE(b, nullptr) << name;
    // Burst slack: the channel's own capacity plus the adjacent crossing's
    // ring (depth 4) — an ingress channel's dequeues lead the crossing's
    // steady-state rate by up to the in-flight ring occupancy.
    EXPECT_LE(m.tokens_per_ps,
              b->tokens_per_ps + (b->capacity + 6.0) / elapsed)
        << name;
  }
  // Both crossings sustain the slowest domain's rate (1/1300 ps): the
  // pipeline saturates, so predicted == measured within tolerance.
  const auto xrates = stats::MeasuredCrossingRates(sim);
  for (const char* name : {"pipe.c01.cdc", "pipe.c12.cdc"}) {
    ASSERT_TRUE(xrates.count(name)) << name;
    const CrossingBound* b = FindCrossingBound(a, name);
    ASSERT_NE(b, nullptr);
    EXPECT_NEAR(b->tokens_per_ps, 1.0 / 1300.0, 1e-9) << name;
    EXPECT_GE(xrates.at(name).tokens_per_ps, 0.9 * b->tokens_per_ps) << name;
  }
}

TEST(ProveCrossValidation, SocWorkloadNeverExceedsStaticBounds) {
  Simulator sim;
  sim.stats().Enable();
  soc::SocConfig cfg;  // GALS: clocks jitter with 4% supply-noise amplitude
  soc::SocTop soc(sim, cfg);
  const Analysis a = Analyze(sim.design_graph());

  const soc::WorkloadRun run = soc::RunWorkload(soc, soc::SixSocTests()[0], 50_ms);
  ASSERT_TRUE(run.ok) << run.error;

  const double elapsed = static_cast<double>(sim.now());
  ASSERT_GT(elapsed, 0.0);
  int checked = 0;
  for (const auto& [name, m] : stats::MeasuredChannelRates(sim)) {
    const ChannelBound* b = FindChannelBound(a, name);
    ASSERT_NE(b, nullptr) << name;
    if (b->tokens_per_ps <= 0.0) continue;
    // 6% relative margin covers the 4% clock jitter; (capacity + 2) tokens
    // cover startup bursts draining buffered tokens.
    EXPECT_LE(static_cast<double>(m.tokens),
              b->tokens_per_ps * elapsed * 1.06 + b->capacity + 2.0)
        << name;
    ++checked;
  }
  EXPECT_GT(checked, 20);  // the bound table actually covered the design
  for (const auto& [name, m] : stats::MeasuredCrossingRates(sim)) {
    const CrossingBound* b = FindCrossingBound(a, name);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_LE(static_cast<double>(m.tokens),
              b->tokens_per_ps * elapsed * 1.06 + 8.0)
        << name;
  }
}

}  // namespace
}  // namespace craft::analyze
