// Tests for the Connections LI-channel library: Table 1 API behaviour, both
// simulation models, stall injection, and packetization.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "kernel/kernel.hpp"

namespace craft::connections {
namespace {

using namespace craft::literals;

// ---------- harness ----------

/// Producer pushing `count` sequential values with blocking Push.
class Producer : public Module {
 public:
  Producer(Module& parent, const std::string& name, Clock& clk, int count)
      : Module(parent, name) {
    Thread("run", clk, [this, count] {
      for (int i = 0; i < count; ++i) out.Push(i);
      done_cycle = this_cycle();
    });
  }
  Out<int> out;
  std::uint64_t done_cycle = 0;
};

/// Consumer popping `count` values with blocking Pop.
class Consumer : public Module {
 public:
  Consumer(Module& parent, const std::string& name, Clock& clk, int count)
      : Module(parent, name) {
    Thread("run", clk, [this, count] {
      for (int i = 0; i < count; ++i) received.push_back(in.Pop());
      done_cycle = this_cycle();
    });
  }
  In<int> in;
  std::vector<int> received;
  std::uint64_t done_cycle = 0;
};

std::unique_ptr<Channel<int>> MakeChannel(Module& parent, Clock& clk, ChannelKind kind,
                                          unsigned capacity = 4) {
  return std::make_unique<Channel<int>>(parent, "ch", clk, kind, capacity);
}

struct ModeKind {
  SimMode mode;
  ChannelKind kind;
};

std::string ModeKindName(const ::testing::TestParamInfo<ModeKind>& info) {
  std::string m = info.param.mode == SimMode::kSimAccurate ? "SimAccurate" : "SignalAccurate";
  return m + "_" + ToString(info.param.kind);
}

class ChannelPropertyTest : public ::testing::TestWithParam<ModeKind> {};

// Property: every message arrives, exactly once, in order — the latency-
// insensitive correctness guarantee — for every mode and channel kind.
TEST_P(ChannelPropertyTest, DeliversAllInOrder) {
  Simulator sim;
  sim.set_mode(GetParam().mode);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  auto ch = MakeChannel(top, clk, GetParam().kind);
  Producer prod(top, "prod", clk, 50);
  Consumer cons(top, "cons", clk, 50);
  prod.out(*ch);
  cons.in(*ch);
  sim.Run(2000_ns);
  ASSERT_EQ(cons.received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(cons.received[i], i);
}

// Property: random valid-side stalls perturb timing but never correctness.
TEST_P(ChannelPropertyTest, StallInjectionPreservesCorrectness) {
  Simulator sim;
  sim.set_mode(GetParam().mode);
  sim.chaos().Enable({.seed = 42, .channel_valid_stall_prob = 0.3});
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  auto ch = MakeChannel(top, clk, GetParam().kind);
  Producer prod(top, "prod", clk, 40);
  Consumer cons(top, "cons", clk, 40);
  prod.out(*ch);
  cons.in(*ch);
  sim.Run(20000_ns);
  ASSERT_EQ(cons.received.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(cons.received[i], i);
}

// Property: stalling delays completion relative to the unstalled run.
TEST_P(ChannelPropertyTest, StallInjectionDelaysCompletion) {
  auto run = [&](double p) {
    Simulator sim;
    sim.set_mode(GetParam().mode);
    sim.chaos().Enable({.seed = 7, .channel_valid_stall_prob = p});
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    auto ch = MakeChannel(top, clk, GetParam().kind);
    Producer prod(top, "prod", clk, 60);
    Consumer cons(top, "cons", clk, 60);
    prod.out(*ch);
    cons.in(*ch);
    sim.Run(50000_ns);
    EXPECT_EQ(cons.received.size(), 60u);
    return cons.done_cycle;
  };
  EXPECT_GT(run(0.5), run(0.0));
}

// Property: both models sustain one token per cycle through a deep pipe.
TEST_P(ChannelPropertyTest, SteadyStateThroughputNearOnePerCycle) {
  if (GetParam().kind == ChannelKind::kCombinational &&
      GetParam().mode == SimMode::kSimAccurate) {
    // Rendezvous semantics: producer blocks until consumption; still 1/cycle
    // but covered by the dedicated combinational tests below.
    GTEST_SKIP();
  }
  Simulator sim;
  sim.set_mode(GetParam().mode);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  auto ch = MakeChannel(top, clk, GetParam().kind, 8);
  const int n = 200;
  Producer prod(top, "prod", clk, n);
  Consumer cons(top, "cons", clk, n);
  prod.out(*ch);
  cons.in(*ch);
  sim.Run(5000_ns);
  ASSERT_EQ(cons.received.size(), static_cast<size_t>(n));
  // Blocking Push/Pop cost one cycle per token in both models: ~n cycles
  // plus a small pipe-fill constant.
  EXPECT_LE(cons.done_cycle, static_cast<std::uint64_t>(n) + 12);
  EXPECT_GE(cons.done_cycle, static_cast<std::uint64_t>(n) - 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAllKinds, ChannelPropertyTest,
    ::testing::Values(ModeKind{SimMode::kSimAccurate, ChannelKind::kCombinational},
                      ModeKind{SimMode::kSimAccurate, ChannelKind::kBypass},
                      ModeKind{SimMode::kSimAccurate, ChannelKind::kPipeline},
                      ModeKind{SimMode::kSimAccurate, ChannelKind::kBuffer},
                      ModeKind{SimMode::kSignalAccurate, ChannelKind::kCombinational},
                      ModeKind{SimMode::kSignalAccurate, ChannelKind::kBypass},
                      ModeKind{SimMode::kSignalAccurate, ChannelKind::kPipeline},
                      ModeKind{SimMode::kSignalAccurate, ChannelKind::kBuffer}),
    ModeKindName);

// ---------- targeted semantics ----------

TEST(BufferChannel, NonBlockingPushFailsWhenFull) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  std::vector<bool> results;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch, std::vector<bool>& results)
        : Module(p, "b") {
      Thread("t", clk, [&] {
        wait();
        for (int i = 0; i < 4; ++i) {
          results.push_back(ch.PushNB(i));
          wait();
        }
      });
    }
  } b(top, clk, ch, results);
  sim.Run(20_ns);
  // Capacity 2, nobody pops: two accepts then refusals.
  EXPECT_EQ(results, (std::vector<bool>{true, true, false, false}));
}

TEST(BufferChannel, NonBlockingPopFailsWhenEmpty) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  bool popped = true;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch, bool& popped) : Module(p, "b") {
      Thread("t", clk, [&] {
        wait();
        int v;
        popped = ch.PopNB(v);
      });
    }
  } b(top, clk, ch, popped);
  sim.Run(10_ns);
  EXPECT_FALSE(popped);
}

TEST(BufferChannel, EnqueueToVisibleLatencyIsOneCycle) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 4);
  std::uint64_t push_cycle = 0, pop_cycle = 0;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch, std::uint64_t& push_cycle,
      std::uint64_t& pop_cycle)
        : Module(p, "b") {
      Thread("prod", clk, [&] {
        wait(2);
        ch.Push(7);
        push_cycle = this_cycle();
      });
      Thread("cons", clk, [&] {
        int v = ch.Pop();
        EXPECT_EQ(v, 7);
        pop_cycle = this_cycle();
      });
    }
  } b(top, clk, ch, push_cycle, pop_cycle);
  sim.Run(20_ns);
  // Data staged in cycle k commits at the edge of k+1: visible one cycle later.
  EXPECT_GE(pop_cycle, push_cycle);
  EXPECT_LE(pop_cycle - push_cycle, 1u);
}

TEST(CombinationalChannel, SameCycleRendezvousInSimAccurateMode) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Combinational<int> ch(top, "ch", clk);
  std::uint64_t push_cycle = 0, pop_cycle = 0;
  struct B : Module {
    B(Module& p, Clock& clk, Combinational<int>& ch, std::uint64_t& push_cycle,
      std::uint64_t& pop_cycle)
        : Module(p, "b") {
      Thread("prod", clk, [&] {
        wait(3);
        push_cycle = this_cycle();
        ch.Push(9);
      });
      Thread("cons", clk, [&] {
        EXPECT_EQ(ch.Pop(), 9);
        pop_cycle = this_cycle();
      });
    }
  } b(top, clk, ch, push_cycle, pop_cycle);
  sim.Run(20_ns);
  EXPECT_EQ(pop_cycle, push_cycle);  // combinational: same-cycle transfer
}

TEST(BypassChannel, DequeueWhenEmptySameCycle) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Bypass<int> ch(top, "ch", clk);
  std::uint64_t push_cycle = 0, pop_cycle = 0;
  struct B : Module {
    B(Module& p, Clock& clk, Bypass<int>& ch, std::uint64_t& push_cycle,
      std::uint64_t& pop_cycle)
        : Module(p, "b") {
      Thread("prod", clk, [&] {
        wait(5);
        push_cycle = this_cycle();
        ch.Push(3);
      });
      Thread("cons", clk, [&] {
        EXPECT_EQ(ch.Pop(), 3);
        pop_cycle = this_cycle();
      });
    }
  } b(top, clk, ch, push_cycle, pop_cycle);
  sim.Run(20_ns);
  // Bypass path: empty queue lets the consumer dequeue in the push cycle.
  EXPECT_EQ(pop_cycle, push_cycle);
}

TEST(PipelineChannel, EnqueueWhenFullWithSameCycleDequeue) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Pipeline<int> ch(top, "ch", clk);
  std::vector<int> got;
  struct B : Module {
    B(Module& p, Clock& clk, Pipeline<int>& ch, std::vector<int>& got)
        : Module(p, "b") {
      // Consumer pops every cycle; registered first so its pop is observed
      // before the producer's push attempt within each cycle.
      Thread("cons", clk, [&] {
        for (int i = 0; i < 6; ++i) got.push_back(ch.Pop());
      });
      Thread("prod", clk, [&] {
        for (int i = 0; i < 6; ++i) ch.Push(i);
      });
    }
  } b(top, clk, ch, got);
  sim.Run(40_ns);
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The headline mechanism behind Fig. 3: in the signal-accurate model each
// non-blocking port operation consumes one cycle (delayed valid/ready ops);
// in the sim-accurate model operations on multiple ports overlap in a single
// cycle, as HLS would schedule them.
TEST(ModelComparison, MultiPortLoopCyclesMatchHlsOnlyInSimAccurateModel) {
  auto run = [&](SimMode mode) {
    Simulator sim;
    sim.set_mode(mode);
    Clock clk(sim, "clk", 1_ns);
    Module top(sim, "top");
    constexpr int kPorts = 4;
    std::vector<std::unique_ptr<Buffer<int>>> chans;
    for (int i = 0; i < kPorts; ++i) {
      chans.push_back(std::make_unique<Buffer<int>>(top, "ch" + std::to_string(i), clk, 8));
    }
    std::uint64_t done_cycle = 0;
    struct B : Module {
      B(Module& p, Clock& clk, std::vector<std::unique_ptr<Buffer<int>>>& chans,
        std::uint64_t& done_cycle)
          : Module(p, "b") {
        Thread("multiport", clk, [&] {
          // 20 iterations of a loop pushing to all 4 ports.
          for (int it = 0; it < 20; ++it) {
            for (auto& ch : chans) ch->PushNB(it);
            wait();
          }
          done_cycle = this_cycle();
        });
        Thread("sink", clk, [&] {
          for (;;) {
            int v;
            for (auto& ch : chans) ch->PopNB(v);
            wait();
          }
        });
      }
    } b(top, clk, chans, done_cycle);
    sim.Run(1000_ns);
    return done_cycle;
  };
  const std::uint64_t sim_accurate = run(SimMode::kSimAccurate);
  const std::uint64_t signal_accurate = run(SimMode::kSignalAccurate);
  EXPECT_LE(sim_accurate, 22u);           // ~1 cycle per iteration
  EXPECT_GE(signal_accurate, 4u * 20u);   // ~1 cycle per port per iteration
}

TEST(ChannelStats, TransferAndBackpressureCounters) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 1);
  Producer prod(top, "prod", clk, 10);
  Consumer cons(top, "cons", clk, 10);
  prod.out(ch);
  cons.in(ch);
  sim.Run(1000_ns);
  EXPECT_EQ(ch.transfer_count(), 10u);
}

TEST(ChannelStalls, FaultPlanReachesEveryChannel) {
  Simulator sim;
  sim.chaos().Enable(
      {.seed = 9, .channel_valid_stall_prob = 0.5, .channel_ready_stall_prob = 0.1});
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> a(top, "a", clk, 2);
  Buffer<int> b(top, "b", clk, 2);
  Producer prod(top, "prod", clk, 30);
  Consumer cons(top, "cons", clk, 30);
  prod.out(a);
  cons.in(a);
  Producer prod2(top, "prod2", clk, 30);
  Consumer cons2(top, "cons2", clk, 30);
  prod2.out(b);
  cons2.in(b);
  sim.Run(10000_ns);
  EXPECT_EQ(cons.received.size(), 30u);
  EXPECT_EQ(cons2.received.size(), 30u);
  // With 50% valid stalls the run must take visibly longer than 30 cycles.
  EXPECT_GT(cons.done_cycle, 40u);
  EXPECT_GT(cons2.done_cycle, 40u);
  for (const char* name : {"top.a", "top.b"}) {
    const auto it = sim.chaos().channel_points().find(name);
    ASSERT_NE(it, sim.chaos().channel_points().end()) << name;
    EXPECT_GT(it->second.stall_events(), 0u) << name;
  }
}

// ---------- signal-accurate evaluation counts ----------

/// Work one signal-accurate channel's methods and the scheduler did over a
/// window of cycles.
struct SigWork {
  std::uint64_t comb = 0;
  std::uint64_t seq = 0;
  std::uint64_t deltas = 0;
};

class SigChannelCounts : public ::testing::Test {
 protected:
  explicit SigChannelCounts(bool traced = false) : sim_(traced) {}

  static constexpr std::uint64_t kSettleCycles = 20;
  static constexpr std::uint64_t kWindowCycles = 100;

  const ProcessBase& Process(const std::string& name) const {
    for (const auto& p : sim_.processes())
      if (p->name() == name) return *p;
    ADD_FAILURE() << "no process " << name;
    return *sim_.processes().front();
  }

  /// Settles for kSettleCycles, then counts over the next kWindowCycles.
  SigWork Measure() {
    sim_.Run(kSettleCycles * 1_ns);
    const ProcessBase& comb = Process("top.ch.comb");
    const ProcessBase& seq = Process("top.ch.seq");
    const SigWork before{comb.stat_dispatches, seq.stat_dispatches, sim_.delta_count()};
    stalls_before_ = Stats().full_stall_cycles;
    transfers_before_ = ch_.transfer_count();
    sim_.Run(kWindowCycles * 1_ns);
    return {comb.stat_dispatches - before.comb, seq.stat_dispatches - before.seq,
            sim_.delta_count() - before.deltas};
  }

  const ChannelStats& Stats() const { return sim_.stats().channels().at("top.ch"); }
  std::uint64_t full_stall_cycles() const {
    return Stats().full_stall_cycles - stalls_before_;
  }
  std::uint64_t transfers() const { return ch_.transfer_count() - transfers_before_; }

  /// Configured before any member below elaborates.
  struct SignalAccurateSim : Simulator {
    explicit SignalAccurateSim(bool traced) {
      set_mode(SimMode::kSignalAccurate);
      stats().Enable();
      if (traced) trace_events().Enable();
    }
  };

  SignalAccurateSim sim_;
  Clock clk_{sim_, "clk", 1_ns};
  Module top_{sim_, "top"};
  Buffer<int> ch_{top_, "ch", clk_, 2};
  std::uint64_t stalls_before_ = 0;
  std::uint64_t transfers_before_ = 0;
};

// The combinational method re-evaluates only when an input signal or the
// queue changes, and the register (seq) only on an edge where a handshake
// completes: an idle edge fails seq's edge guard and runs nothing at all.
TEST_F(SigChannelCounts, IdleChannelRunsOnlyTheRegister) {
  const SigWork w = Measure();
  EXPECT_EQ(w.comb, 0u);
  EXPECT_EQ(w.seq, 0u);
  EXPECT_EQ(w.deltas, 0u);
}

TEST_F(SigChannelCounts, ProducerBlockedOnAFullBufferLeavesCombIdle) {
  Producer prod(top_, "prod", clk_, 1'000'000);
  prod.out(ch_);
  const SigWork w = Measure();
  EXPECT_EQ(w.comb, 0u);
  EXPECT_EQ(w.seq, 0u);
  // The blocked producer still counts a stall cycle at every edge.
  EXPECT_EQ(full_stall_cycles(), kWindowCycles);
  EXPECT_EQ(transfers(), 0u);
}

TEST_F(SigChannelCounts, StreamingChannelReevaluatesEveryCycle) {
  Producer prod(top_, "prod", clk_, 1'000'000);
  Consumer cons(top_, "cons", clk_, 1'000'000);
  prod.out(ch_);
  cons.in(ch_);
  const SigWork w = Measure();
  EXPECT_EQ(w.comb, kWindowCycles);
  EXPECT_EQ(w.seq, kWindowCycles);
  EXPECT_EQ(w.deltas, 2 * kWindowCycles);
  EXPECT_EQ(transfers(), kWindowCycles);
}

class SigChannelCountsTraced : public SigChannelCounts {
 protected:
  SigChannelCountsTraced() : SigChannelCounts(/*traced=*/true) {}
};

// With a trace track, seq's guard also holds on a stall edge, so the stall
// is sampled in seq's slot at every edge as before, and the trace records
// the whole episode as one stall instant.
TEST_F(SigChannelCountsTraced, BlockedProducerSamplesEveryStallEdge) {
  Producer prod(top_, "prod", clk_, 1'000'000);
  prod.out(ch_);
  const SigWork w = Measure();
  EXPECT_EQ(w.comb, 0u);
  EXPECT_EQ(w.seq, kWindowCycles);
  EXPECT_EQ(full_stall_cycles(), kWindowCycles);
  // seq's trace samples and the producer's stall count agree edge for edge.
  const TraceTrack* track = sim_.trace_events().FindTrack("top.ch");
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(track->full_stall_samples(), Stats().full_stall_cycles);
  std::uint64_t stall_instants = 0;
  sim_.trace_events().ForEachEvent([&](const TraceEvent& e) {
    if (e.track == track->id() && e.kind == TraceEventKind::kInstant) ++stall_instants;
  });
  EXPECT_EQ(stall_instants, 1u);
}

// ---------- packetizer / depacketizer ----------

struct TestMsg {
  std::uint32_t addr = 0;
  std::uint16_t data = 0;
  bool operator==(const TestMsg&) const = default;
};

}  // namespace
}  // namespace craft::connections

namespace craft {
template <>
struct Marshal<connections::TestMsg> {
  static constexpr unsigned kWidth = 48;
  static void Write(BitStream& s, const connections::TestMsg& m) {
    s.PutBits(m.addr, 32);
    s.PutBits(m.data, 16);
  }
  static connections::TestMsg Read(BitStream& s) {
    connections::TestMsg m;
    m.addr = static_cast<std::uint32_t>(s.GetBits(32));
    m.data = static_cast<std::uint16_t>(s.GetBits(16));
    return m;
  }
};
}  // namespace craft

namespace craft::connections {
namespace {

using namespace craft::literals;

TEST(Packetization, RoundTripOverFlitChannel) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<TestMsg> in_ch(top, "in_ch", clk, 2);
  Buffer<Flit> flit_ch(top, "flit_ch", clk, 2);
  Buffer<TestMsg> out_ch(top, "out_ch", clk, 2);
  Packetizer<TestMsg, 16> pk(top, "pk", clk, /*dest=*/3);
  DePacketizer<TestMsg, 16> dpk(top, "dpk", clk);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);

  std::vector<TestMsg> sent, got;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<TestMsg>& in_ch, Buffer<TestMsg>& out_ch,
      std::vector<TestMsg>& sent, std::vector<TestMsg>& got)
        : Module(p, "b") {
      Thread("src", clk, [&] {
        for (std::uint32_t i = 0; i < 10; ++i) {
          TestMsg m{0x1000 + i, static_cast<std::uint16_t>(i * 7)};
          sent.push_back(m);
          in_ch.Push(m);
        }
      });
      Thread("dst", clk, [&] {
        for (int i = 0; i < 10; ++i) got.push_back(out_ch.Pop());
      });
    }
  } b(top, clk, in_ch, out_ch, sent, got);
  sim.Run(2000_ns);
  EXPECT_EQ(got, sent);
  EXPECT_EQ((Packetizer<TestMsg, 16>::FlitsPerMessage()), 3u);
}

TEST(Packetization, FlitsCarryFramingAndDest) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<TestMsg> in_ch(top, "in_ch", clk, 2);
  Buffer<Flit> flit_ch(top, "flit_ch", clk, 8);
  Packetizer<TestMsg, 16> pk(top, "pk", clk, /*dest=*/5);
  pk.in(in_ch);
  pk.out(flit_ch);
  std::vector<Flit> flits;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<TestMsg>& in_ch, Buffer<Flit>& flit_ch,
      std::vector<Flit>& flits)
        : Module(p, "b") {
      Thread("src", clk, [&] { in_ch.Push(TestMsg{0xAB, 0xCD}); });
      Thread("dst", clk, [&] {
        for (int i = 0; i < 3; ++i) flits.push_back(flit_ch.Pop());
      });
    }
  } b(top, clk, in_ch, flit_ch, flits);
  sim.Run(100_ns);
  ASSERT_EQ(flits.size(), 3u);
  EXPECT_TRUE(flits[0].first);
  EXPECT_FALSE(flits[0].last);
  EXPECT_TRUE(flits[2].last);
  for (const auto& f : flits) EXPECT_EQ(f.dest, 5);
}

}  // namespace
}  // namespace craft::connections
