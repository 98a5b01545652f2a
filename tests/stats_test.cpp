// Tests for craft-stats: the opt-in telemetry registry, channel/crossing/
// FIFO counters in both Connections models, kernel process profiling, the
// reporters, and the SoC-level metrics document.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "gals/gals.hpp"
#include "kernel/kernel.hpp"
#include "matchlib/fifo.hpp"
#include "soc/workloads.hpp"

namespace craft {
namespace {

using namespace craft::literals;
using connections::Channel;
using connections::ChannelKind;

// ---------- harness (mirrors connections_test) ----------

class Producer : public Module {
 public:
  Producer(Module& parent, const std::string& name, Clock& clk, int count,
           std::uint64_t start_cycle = 0)
      : Module(parent, name) {
    Thread("run", clk, [this, count, start_cycle] {
      if (start_cycle > 0) wait(start_cycle);
      for (int i = 0; i < count; ++i) out.Push(i);
    });
  }
  connections::Out<int> out;
};

class Consumer : public Module {
 public:
  Consumer(Module& parent, const std::string& name, Clock& clk, int count,
           std::uint64_t start_cycle = 0)
      : Module(parent, name) {
    Thread("run", clk, [this, count, start_cycle] {
      if (start_cycle > 0) wait(start_cycle);
      for (int i = 0; i < count; ++i) received.push_back(in.Pop());
    });
  }
  connections::In<int> in;
  std::vector<int> received;
};

const ChannelStats& FindChannel(Simulator& sim, const std::string& name) {
  const auto& m = sim.stats().channels();
  auto it = m.find(name);
  EXPECT_NE(it, m.end()) << "channel " << name << " not registered";
  return it->second;
}

// ---------- registry basics ----------

TEST(StatsRegistry, DisabledByDefaultRegistersNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.stats().enabled());
  EXPECT_EQ(sim.stats().RegisterChannel("x", "Buffer", 2), nullptr);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kBuffer, 2);
  Producer prod(top, "prod", clk, 20);
  Consumer cons(top, "cons", clk, 20);
  prod.out(ch);
  cons.in(ch);
  sim.Run(1000_ns);  // instrumentation must be inert, not just empty
  EXPECT_EQ(cons.received.size(), 20u);
  EXPECT_TRUE(sim.stats().channels().empty());
  EXPECT_NE(stats::FormatTable(sim).find("disabled"), std::string::npos);
}

TEST(StatsRegistry, RegistrationIsNamedAndPointerStable) {
  Simulator sim;
  sim.stats().Enable();
  ChannelStats* a = sim.stats().RegisterChannel("top.a", "Buffer", 2);
  ASSERT_NE(a, nullptr);
  for (int i = 0; i < 100; ++i) {
    sim.stats().RegisterChannel("top.ch" + std::to_string(i), "Buffer", 2);
  }
  EXPECT_EQ(a, &sim.stats().channels().at("top.a"));  // map nodes are stable
  EXPECT_EQ(a->kind, "Buffer");
  EXPECT_EQ(a->capacity, 2u);
}

// ---------- channel counters, both models ----------

class StatsModeTest : public ::testing::TestWithParam<SimMode> {};

TEST_P(StatsModeTest, ChannelCountersBalanceAndLatencyRecorded) {
  Simulator sim;
  sim.set_mode(GetParam());
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kBuffer, 4);
  Producer prod(top, "prod", clk, 50);
  Consumer cons(top, "cons", clk, 50);
  prod.out(ch);
  cons.in(ch);
  sim.Run(5000_ns);
  ASSERT_EQ(cons.received.size(), 50u);
  const ChannelStats& s = FindChannel(sim, "top.ch");
  EXPECT_EQ(s.enqueues, 50u);
  EXPECT_EQ(s.dequeues, 50u);
  EXPECT_EQ(s.latency.count, 50u);
  EXPECT_GE(s.latency.min, 1u);  // a Buffer commits at the next edge
  EXPECT_GE(s.occupancy_high_water, 1u);
  EXPECT_LE(s.occupancy_high_water, 5u);  // capacity + in-flight staged token
  std::uint64_t hist_total = 0;
  for (auto b : s.latency.buckets) hist_total += b;
  EXPECT_EQ(hist_total, 50u);
}

TEST_P(StatsModeTest, BlockingStallCyclesCounted) {
  Simulator sim;
  sim.set_mode(GetParam());
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  // full: consumer starts late, so the producer stalls against capacity 1.
  Channel<int> full_ch(top, "full_ch", clk, ChannelKind::kBuffer, 1);
  Producer p1(top, "p1", clk, 10);
  Consumer c1(top, "c1", clk, 10, /*start_cycle=*/40);
  p1.out(full_ch);
  c1.in(full_ch);
  // empty: producer starts late, so the consumer stalls on an empty queue.
  Channel<int> empty_ch(top, "empty_ch", clk, ChannelKind::kBuffer, 4);
  Producer p2(top, "p2", clk, 10, /*start_cycle=*/40);
  Consumer c2(top, "c2", clk, 10);
  p2.out(empty_ch);
  c2.in(empty_ch);
  sim.Run(5000_ns);
  ASSERT_EQ(c1.received.size(), 10u);
  ASSERT_EQ(c2.received.size(), 10u);
  EXPECT_GT(FindChannel(sim, "top.full_ch").full_stall_cycles, 10u);
  EXPECT_GT(FindChannel(sim, "top.empty_ch").empty_stall_cycles, 10u);
}

// A rendezvous is an offer the consumer takes at once: latency 0, and the
// token occupies the channel's one slot while it crosses, in both models.
TEST_P(StatsModeTest, CombinationalRendezvousHasZeroLatency) {
  Simulator sim;
  sim.set_mode(GetParam());
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kCombinational, 1);
  Producer prod(top, "prod", clk, 20);
  Consumer cons(top, "cons", clk, 20);
  prod.out(ch);
  cons.in(ch);
  sim.Run(2000_ns);
  ASSERT_EQ(cons.received.size(), 20u);
  const ChannelStats& s = FindChannel(sim, "top.ch");
  EXPECT_EQ(s.latency.count, 20u);
  EXPECT_EQ(s.latency.max, 0u);  // same-timestep rendezvous
  EXPECT_EQ(s.latency.buckets[0], 20u);
  EXPECT_EQ(s.occupancy_high_water, 1u);
}

INSTANTIATE_TEST_SUITE_P(BothModels, StatsModeTest,
                         ::testing::Values(SimMode::kSimAccurate,
                                           SimMode::kSignalAccurate),
                         [](const ::testing::TestParamInfo<SimMode>& info) {
                           return info.param == SimMode::kSimAccurate
                                      ? std::string("SimAccurate")
                                      : std::string("SignalAccurate");
                         });

// ---------- kernel process profiling ----------

TEST(Stats, ProcessProfilingCountsDispatchesAndWallTime) {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kBuffer, 2);
  Producer prod(top, "prod", clk, 30);
  Consumer cons(top, "cons", clk, 30);
  prod.out(ch);
  cons.in(ch);
  sim.Run(1000_ns);
  EXPECT_GT(sim.timed_fired(), 0u);
  EXPECT_GT(sim.delta_count(), 0u);
  bool found_producer = false;
  for (const auto& p : sim.processes()) {
    if (p->name() == "top.prod.run") {
      found_producer = true;
      EXPECT_GE(p->stat_dispatches, 30u);  // at least one per push
    }
  }
  EXPECT_TRUE(found_producer);
  const std::string table = stats::FormatTable(sim);
  EXPECT_NE(table.find("processes"), std::string::npos);
  EXPECT_NE(table.find("top.ch"), std::string::npos);
}

// ---------- GALS crossing counters ----------

TEST(Stats, CrossingCountersRecordTransfersAndSyncWaits) {
  Simulator sim;
  sim.stats().Enable();
  Clock pclk(sim, "pclk", 1000);
  Clock cclk(sim, "cclk", 1300);  // asynchronous: forces grace-window waits
  Module top(sim, "top");
  gals::AsyncChannel<int> ax(top, "ax", pclk, cclk);
  Producer prod(top, "prod", pclk, 40);
  Consumer cons(top, "cons", cclk, 40);
  prod.out(ax.producer_end());
  cons.in(ax.consumer_end());
  sim.Run(1000_ns);
  ASSERT_EQ(cons.received.size(), 40u);
  const auto& crossings = sim.stats().crossings();
  ASSERT_EQ(crossings.size(), 1u);
  const CrossingStats& x = crossings.begin()->second;
  EXPECT_EQ(x.name, "top.ax.cdc");
  EXPECT_EQ(x.producer_clock, "pclk");
  EXPECT_EQ(x.consumer_clock, "cclk");
  EXPECT_EQ(x.transfers, 40u);
  EXPECT_GT(x.deq_sync_wait_cycles + x.enq_sync_wait_cycles, 0u);
  EXPECT_GT(x.mean_latency_cycles(), 0.0);
  // The registry's view must agree with the model's own accounting.
  EXPECT_EQ(x.transfers, ax.transfer_count());
  EXPECT_NEAR(x.mean_latency_cycles(), ax.mean_crossing_latency_cycles(), 1e-9);
}

// ---------- matchlib FIFO counters ----------

TEST(Stats, FifoHighWaterTracksDepth) {
  Simulator sim;
  sim.stats().Enable();
  matchlib::Fifo<int, 8> fifo;
  fifo.AttachStats(sim.stats().RegisterFifo("top.router.vc0_0", 8));
  for (int i = 0; i < 5; ++i) fifo.Push(i);
  fifo.Pop();
  fifo.Pop();
  for (int i = 0; i < 3; ++i) fifo.Push(i);
  while (!fifo.Empty()) fifo.Pop();
  const FifoStats& f = sim.stats().fifos().at("top.router.vc0_0");
  EXPECT_EQ(f.pushes, 8u);
  EXPECT_EQ(f.pops, 8u);
  EXPECT_EQ(f.high_water, 6u);  // 5 - 2 + 3
  EXPECT_EQ(f.capacity, 8u);
}

// ---------- reporters ----------

TEST(Stats, JsonReportHasSchemaAndSections) {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kBuffer, 2);
  Producer prod(top, "prod", clk, 10);
  Consumer cons(top, "cons", clk, 10);
  prod.out(ch);
  cons.in(ch);
  sim.Run(1000_ns);
  const std::string json = stats::FormatJson(sim);
  for (const char* key :
       {"\"schema\": \"craft-stats-v1\"", "\"enabled\": true", "\"sim\"", "\"channels\"",
        "\"crossings\"", "\"fifos\"", "\"processes\"", "\"top.ch\"", "\"log2_buckets\"",
        "\"enqueues\": 10"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(Stats, IdleChannelReportsZeroLatencyBounds) {
  // Regression: a zero-transfer channel's LatencyHistogram still holds the
  // min = ~0ull "nothing yet" sentinel, and the JSON reporter printed it as
  // 18446744073709551615. Idle channels must report [0, 0] in both formats.
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> idle(top, "idle", clk, ChannelKind::kBuffer, 2);
  Channel<int> busy(top, "busy", clk, ChannelKind::kBuffer, 2);
  // `idle` is bound but never carries traffic (a disabled feature path).
  Producer idle_prod(top, "idle_prod", clk, 0);
  Consumer idle_cons(top, "idle_cons", clk, 0);
  idle_prod.out(idle);
  idle_cons.in(idle);
  Producer prod(top, "prod", clk, 10);
  Consumer cons(top, "cons", clk, 10);
  prod.out(busy);
  cons.in(busy);
  sim.Run(1000_ns);

  const ChannelStats& s = FindChannel(sim, "top.idle");
  EXPECT_EQ(s.latency.count, 0u);
  EXPECT_EQ(s.latency.min_cycles(), 0u);
  EXPECT_EQ(s.latency.max_cycles(), 0u);
  const ChannelStats& b = FindChannel(sim, "top.busy");
  EXPECT_GE(b.latency.min_cycles(), 1u);
  EXPECT_GE(b.latency.max_cycles(), b.latency.min_cycles());

  const std::string json = stats::FormatJson(sim);
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos);
  const std::string table = stats::FormatTable(sim);
  EXPECT_EQ(table.find("18446744073709551615"), std::string::npos);
}

TEST(Stats, HostileSiteNamesAreEscapedInEveryReporter) {
  // Regression: a site name carrying quotes, newlines, or backslashes (e.g.
  // from a generated design with a pathological instance label) must not
  // break the JSON document, corrupt the table layout, or produce an invalid
  // OpenMetrics label value.
  Simulator sim;
  sim.stats().Enable();
  const std::string hostile = "top.\"evil\"\nch\\x";
  ChannelStats* ch = sim.stats().RegisterChannel(hostile, "Buffer", 2);
  ASSERT_NE(ch, nullptr);
  ch->enqueues = 3;
  ch->dequeues = 3;

  const std::string json = stats::FormatJson(sim);
  EXPECT_NE(json.find("top.\\\"evil\\\"\\nch\\\\x"), std::string::npos)
      << "JSON must escape quotes/newlines/backslashes in site names";
  EXPECT_EQ(json.find(hostile), std::string::npos)
      << "raw hostile name must not appear inside the JSON document";

  const std::string table = stats::FormatTable(sim);
  EXPECT_NE(table.find("top.\"evil\"\\x0ach\\x"), std::string::npos)
      << "table must render control chars as \\xNN";
  EXPECT_EQ(table.find(hostile), std::string::npos)
      << "raw newline must not split a table row";

  const std::string om = stats::FormatOpenMetrics(sim);
  EXPECT_NE(om.find("top.\\\"evil\\\"\\nch\\\\x"), std::string::npos)
      << "OpenMetrics label values must use \\\" \\n \\\\ escapes";
  EXPECT_EQ(om.find(hostile), std::string::npos);
}

TEST(Stats, OpenMetricsExpositionIsWellFormed) {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Channel<int> ch(top, "ch", clk, ChannelKind::kBuffer, 2);
  Producer prod(top, "prod", clk, 10);
  Consumer cons(top, "cons", clk, 10);
  prod.out(ch);
  cons.in(ch);
  sim.Run(1000_ns);
  const std::string om = stats::FormatOpenMetrics(sim);
  EXPECT_NE(om.find("# TYPE craft_channel_enqueues counter"), std::string::npos);
  EXPECT_NE(om.find("craft_channel_enqueues_total{channel=\"top.ch\"} 10"),
            std::string::npos);
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6)
      << "exposition must end with the # EOF terminator";
}

// ---------- SoC-level metrics ----------

TEST(Stats, SocWorkloadEmitsPerPeAndNocMetrics) {
  Simulator sim;
  sim.stats().Enable();
  soc::SocConfig cfg;  // 2x2 GALS mesh
  soc::SocTop soc(sim, cfg);
  const soc::WorkloadRun run = soc::RunWorkload(soc, soc::SixSocTests()[0], 50_ms);
  ASSERT_TRUE(run.ok) << run.error;
  // Live-object invariants backing the JSON.
  for (unsigned node : soc.pe_nodes()) {
    soc::ProcessingElement& pe = soc.pe(node);
    EXPECT_GT(pe.kernels_executed(), 0u);
    EXPECT_GT(pe.busy_cycles(), 0u);
    EXPECT_LE(pe.busy_cycles(), pe.clk().cycle());  // utilization in [0, 1]
  }
  // Channel conservation: nothing is created or lost in any channel.
  std::uint64_t total_enq = 0;
  for (const auto& [name, c] : sim.stats().channels()) {
    EXPECT_LE(c.dequeues, c.enqueues) << name;
    EXPECT_LE(c.enqueues - c.dequeues, static_cast<std::uint64_t>(c.capacity) + 1)
        << name;  // residue bounded by storage (+ staged token)
    total_enq += c.enqueues;
  }
  EXPECT_GT(total_enq, 0u);
  // Router VC FIFOs saw NoC traffic.
  std::uint64_t fifo_pushes = 0;
  for (const auto& [name, f] : sim.stats().fifos()) fifo_pushes += f.pushes;
  EXPECT_GT(fifo_pushes, 0u);
  // GALS crossings carried the mesh links.
  EXPECT_FALSE(sim.stats().crossings().empty());
  // And the document itself.
  const std::string doc = soc::SocMetricsJson(soc, run);
  for (const char* key :
       {"\"schema\": \"craft-soc-metrics-v1\"", "\"workload\"", "\"vecmul\"", "\"pes\"",
        "\"utilization\"", "\"noc\"", "\"total_flits_forwarded\"",
        "\"schema\": \"craft-stats-v1\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace

// ---------- packetizer / depacketizer counters ----------

struct StatsPMsg {
  std::uint32_t addr = 0;
  std::uint16_t data = 0;
  bool operator==(const StatsPMsg&) const = default;
};

template <>
struct Marshal<StatsPMsg> {
  static constexpr unsigned kWidth = 48;
  static void Write(BitStream& s, const StatsPMsg& m) {
    s.PutBits(m.addr, 32);
    s.PutBits(m.data, 16);
  }
  static StatsPMsg Read(BitStream& s) {
    StatsPMsg m;
    m.addr = static_cast<std::uint32_t>(s.GetBits(32));
    m.data = static_cast<std::uint16_t>(s.GetBits(16));
    return m;
  }
};

namespace {

TEST(StatsPacketizer, FlitLevelCountersAndLatencyHistogram) {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<StatsPMsg> in_ch(top, "in_ch", clk, 2);
  connections::Buffer<connections::Flit> flit_ch(top, "flit_ch", clk, 2);
  connections::Buffer<StatsPMsg> out_ch(top, "out_ch", clk, 2);
  connections::Packetizer<StatsPMsg, 16> pk(top, "pk", clk, /*dest=*/1);
  connections::DePacketizer<StatsPMsg, 16> dpk(top, "dpk", clk);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);
  constexpr std::uint64_t kMsgs = 12;
  constexpr std::uint64_t kFlits = 3;  // 48-bit message over 16-bit flits
  std::vector<StatsPMsg> got;
  struct B : Module {
    B(Module& p, Clock& clk, connections::Buffer<StatsPMsg>& in_ch,
      connections::Buffer<StatsPMsg>& out_ch, std::vector<StatsPMsg>& got)
        : Module(p, "b") {
      Thread("src", clk, [&] {
        for (std::uint32_t i = 0; i < kMsgs; ++i) {
          in_ch.Push(StatsPMsg{i, static_cast<std::uint16_t>(i * 3)});
        }
      });
      Thread("dst", clk, [&] {
        for (std::uint64_t i = 0; i < kMsgs; ++i) got.push_back(out_ch.Pop());
      });
    }
  } b(top, clk, in_ch, out_ch, got);
  sim.Run(2000_ns);
  ASSERT_EQ(got.size(), kMsgs);

  // Message-level channels count messages; the flit channel counts flits:
  // the packetizer multiplies traffic by FlitsPerMessage exactly.
  ASSERT_EQ(
      (connections::Packetizer<StatsPMsg, 16>::FlitsPerMessage()), kFlits);
  const ChannelStats& cin = FindChannel(sim, "top.in_ch");
  const ChannelStats& cflit = FindChannel(sim, "top.flit_ch");
  const ChannelStats& cout = FindChannel(sim, "top.out_ch");
  EXPECT_EQ(cin.enqueues, kMsgs);
  EXPECT_EQ(cin.dequeues, kMsgs);
  EXPECT_EQ(cflit.enqueues, kMsgs * kFlits);
  EXPECT_EQ(cflit.dequeues, kMsgs * kFlits);
  EXPECT_EQ(cout.enqueues, kMsgs);
  EXPECT_EQ(cout.dequeues, kMsgs);

  // Latency histograms: one sample per dequeue on every hop, and a Buffer
  // hop takes at least one cycle.
  EXPECT_EQ(cin.latency.count, kMsgs);
  EXPECT_EQ(cflit.latency.count, kMsgs * kFlits);
  EXPECT_EQ(cout.latency.count, kMsgs);
  EXPECT_GE(cflit.latency.min, 1u);
  EXPECT_GE(cflit.latency.mean(), 1.0);
}

}  // namespace
}  // namespace craft
