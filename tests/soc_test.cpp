// Integration tests for the prototype SoC: controller-to-node transactions
// over the NoC, PE kernels, global memory, GALS operation, and the six
// SoC-level workloads.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>

#include "cover/cover.hpp"
#include "kernel/stats.hpp"
#include "soc/workloads.hpp"
#include "trace/trace.hpp"

namespace craft::soc {
namespace {

using namespace craft::literals;

SocConfig SingleClock2x2() {
  SocConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.gals = false;
  return cfg;
}

TEST(SocTransactions, ControllerWritesAndPollsGlobalMemory) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  // Write a GM word over the NoC, then poll it back: the poll only succeeds
  // if the controller's remote read returns the written value.
  std::vector<Command> cmds = {
      Command::Write(RemoteDataAddr(SocTop::kGlobalMemoryNode, 10), 0xABCD),
      Command::PollEq(RemoteDataAddr(SocTop::kGlobalMemoryNode, 10), 0xABCD),
      Command::Halt(),
  };
  const std::uint64_t cycles = soc.RunCommands(cmds, 1_ms);
  EXPECT_EQ(soc.PeekGm(10), 0xABCDu);
  EXPECT_GT(cycles, 0u);
  EXPECT_LT(cycles, 2000u);
}

TEST(SocTransactions, ControllerAccessesPeCsrAndScratchpad) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  const unsigned pe = soc.pe_nodes().front();
  std::vector<Command> cmds = {
      // CSR space: set ARG0 and read it back via poll.
      Command::Write(RemoteCsrAddr(pe, kCsrArg0), 1234),
      Command::PollEq(RemoteCsrAddr(pe, kCsrArg0), 1234),
      // Data space: PE scratchpad word 7.
      Command::Write(RemoteDataAddr(pe, 7), 0x55AA),
      Command::PollEq(RemoteDataAddr(pe, 7), 0x55AA),
      Command::Halt(),
  };
  soc.RunCommands(cmds, 1_ms);
  EXPECT_EQ(soc.pe(pe).csr(kCsrArg0), 1234u);
}

TEST(SocTransactions, RemoteAccessRoundTripLatencyIsTensOfCycles) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  std::vector<Command> cmds = {
      Command::Write(RemoteDataAddr(SocTop::kGlobalMemoryNode, 0), 1),
      Command::Halt(),
  };
  const std::uint64_t cycles = soc.RunCommands(cmds, 1_ms);
  // A single write + program prologue: a NoC round trip is tens of cycles,
  // not hundreds (low-latency claim for the mesh + NI path).
  EXPECT_LT(cycles, 300u);
}

class SocWorkloadTest : public ::testing::TestWithParam<int> {};

TEST_P(SocWorkloadTest, WorkloadProducesGoldenResultsSingleClock) {
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  const Workload w = SixSocTests()[GetParam()];
  const WorkloadRun r = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_GT(r.cycles, 0u);
}

TEST_P(SocWorkloadTest, WorkloadProducesGoldenResultsGals) {
  Simulator sim;
  SocConfig cfg = SingleClock2x2();
  cfg.gals = true;
  SocTop soc(sim, cfg);
  const Workload w = SixSocTests()[GetParam()];
  const WorkloadRun r = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  EXPECT_GT(soc.noc().async_link_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SixTests, SocWorkloadTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return SixSocTests()[info.param].name;
                         });

TEST(SocTransactions, PeToPeDmaMovesScratchpadData) {
  // Spatial-array halo exchange: PE B pulls a block directly from PE A's
  // scratchpad over the NoC (kCsrDmaNode selects the peer), no global
  // memory involved.
  Simulator sim;
  SocTop soc(sim, SingleClock2x2());
  ASSERT_GE(soc.pe_nodes().size(), 2u);
  const unsigned pe_a = soc.pe_nodes()[0];
  const unsigned pe_b = soc.pe_nodes()[1];
  std::vector<Command> cmds;
  // Seed PE A's scratchpad words 0..7 via remote data-space writes.
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back(Command::Write(RemoteDataAddr(pe_a, i), 0x40 + i));
  }
  // PE B: DMA-in 8 words from PE A (addr 0) into its scratchpad at 32.
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrCmd),
                                static_cast<std::uint32_t>(PeOp::kDmaIn)));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrArg1), 0));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrArg2), 32));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrLen), 8));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrDmaNode), pe_a));
  cmds.push_back(Command::Write(RemoteCsrAddr(pe_b, kCsrStart), 1));
  cmds.push_back(Command::PollEq(RemoteCsrAddr(pe_b, kCsrStatus), 2));
  // Verify through the controller: poll PE B's scratchpad contents.
  for (std::uint32_t i = 0; i < 8; ++i) {
    cmds.push_back(Command::PollEq(RemoteDataAddr(pe_b, 32 + i), 0x40 + i));
  }
  cmds.push_back(Command::Halt());
  soc.RunCommands(cmds, 50_ms);  // PollEq hangs (and the assert fires) on mismatch
}

TEST(SocMesh, LargerMeshRunsWorkloadAcrossSevenPes) {
  Simulator sim;
  SocConfig cfg;
  cfg.mesh_width = 3;
  cfg.mesh_height = 3;
  cfg.gals = false;
  SocTop soc(sim, cfg);
  EXPECT_EQ(soc.pe_nodes().size(), 7u);
  const Workload w = SixSocTests()[5];  // dma_copy exercises all NoC paths
  const WorkloadRun r = RunWorkload(soc, w, 100_ms);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(soc.noc().total_flits_forwarded(), 0u);
}

TEST(SocDeterminism, SameConfigSameCycles) {
  auto run = [] {
    Simulator sim;
    SocConfig cfg = SingleClock2x2();
    cfg.gals = true;  // includes jittering clocks: still deterministic
    SocTop soc(sim, cfg);
    return RunWorkload(soc, SixSocTests()[0], 50_ms).cycles;
  };
  EXPECT_EQ(run(), run());
}

TEST(SocGals, AsyncLinksInstantiatedOnlyInGalsMode) {
  Simulator sim;
  {
    SocConfig cfg = SingleClock2x2();
    SocTop soc(sim, cfg);
    EXPECT_EQ(soc.noc().async_link_count(), 0u);
  }
}

TEST(SocRtlCosim, EmulationPreservesResultsAndKeepsCycleErrorSmall) {
  auto run = [](bool rtl, unsigned drain) {
    Simulator sim;
    SocConfig cfg = SingleClock2x2();
    cfg.rtl_cosim = rtl;
    cfg.rtl_signals_per_node = 32;  // keep the test quick
    cfg.rtl_pe_drain_cycles = drain;
    SocTop soc(sim, cfg);
    const WorkloadRun r = RunWorkload(soc, SixSocTests()[0], 50_ms);
    EXPECT_TRUE(r.ok) << r.error;
    return r.cycles;
  };
  const std::uint64_t fast = run(false, 0);
  const std::uint64_t rtl = run(true, 5);
  // Pipeline-drain latencies shift cycles only slightly (paper: < 3%); the
  // controller's poll quantization may absorb them entirely.
  EXPECT_GE(rtl, fast);
  EXPECT_LT(static_cast<double>(rtl - fast) / static_cast<double>(fast), 0.10);
  // A deliberately huge drain must become visible end-to-end, proving the
  // emulation actually runs.
  const std::uint64_t heavy = run(true, 300);
  EXPECT_GT(heavy, fast);
}

// ---------- signal-accurate SoC: instrumented outputs ----------

/// FNV-1a, 64 bit: a fingerprint for documents too large to pin inline.
std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// What one instrumented run leaves behind, minus the dispatch counts.
struct InstrumentedRun {
  std::uint64_t cycles = 0;
  std::uint64_t stats_hash = 0;  ///< the channels, crossings and fifos sections
  std::size_t trace_bytes = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t bins_hit = 0;
  bool operator==(const InstrumentedRun&) const = default;
};

void PrintTo(const InstrumentedRun& r, std::ostream* os) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%" PRIu64 ", 0x%016" PRIx64 "ull, %zu, 0x%016" PRIx64 "ull, %" PRIu64 "}",
                r.cycles, r.stats_hash, r.trace_bytes, r.trace_hash, r.bins_hit);
  *os << buf;
}

/// The channels, crossings and fifos sections of the stats document. The
/// "sim" and "processes" sections hold dispatch counts, which are a property
/// of the kernel's evaluation order, not of the design.
std::string DesignStats(const Simulator& sim) {
  const std::string stats_json = stats::FormatJson(sim);
  const std::size_t begin = stats_json.find("\"channels\":");
  const std::size_t end = stats_json.find("\"processes\":");
  EXPECT_LT(begin, end);
  return stats_json.substr(begin, end - begin);
}

InstrumentedRun RunInstrumented(const Workload& w, bool gals) {
  Simulator sim;
  sim.set_mode(SimMode::kSignalAccurate);
  sim.stats().Enable();
  sim.trace_events().Enable();
  sim.cover().Enable();
  SocConfig cfg = SingleClock2x2();
  cfg.gals = gals;
  SocTop soc(sim, cfg);
  const WorkloadRun run = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(run.ok) << run.name << ": " << run.error;
  InstrumentedRun r;
  r.cycles = run.cycles;
  r.stats_hash = Fnv1a(DesignStats(sim));
  const std::string trace_json = trace::FormatChromeJson(sim);
  r.trace_bytes = trace_json.size();
  r.trace_hash = Fnv1a(trace_json);
  cover::Database db;
  cover::RunInfo info;
  info.design = "soc_2x2:" + w.name;
  info.id = cover::MakeRunId(info.design, 0, 1);
  info.horizon_ps = sim.now();
  cover::Collect(sim, info, &db);
  r.bins_hit = cover::Summarize(db).bins_hit;
  return r;
}

/// Kernel work one run did, and the controller cycles it took.
struct WorkCounts {
  std::uint64_t dispatches = 0;
  std::uint64_t deltas = 0;
  std::uint64_t timed = 0;
  std::uint64_t cycles = 0;
};

WorkCounts RunCounted(const Workload& w, SimMode mode, bool gals, bool stats) {
  Simulator sim;
  sim.set_mode(mode);
  if (stats) sim.stats().Enable();
  SocConfig cfg = SingleClock2x2();
  cfg.gals = gals;
  SocTop soc(sim, cfg);
  const WorkloadRun run = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(run.ok) << run.name << ": " << run.error;
  return {sim.dispatch_count(), sim.delta_count(), sim.timed_fired(), run.cycles};
}

// Instruments count work; they must not add any. Turning stats on leaves
// every kernel work count and the cycle count as they were, in both
// Connections models (the signal-accurate register's edge guard must not
// depend on stats).
TEST(SocInstruments, StatsChangeNoKernelWorkCount) {
  const Workload vecmul = AllWorkloads().front();
  ASSERT_EQ(vecmul.name, "vecmul");
  for (const auto& [mode, gals] : {std::pair{SimMode::kSimAccurate, true},
                                   std::pair{SimMode::kSignalAccurate, false}}) {
    const WorkCounts off = RunCounted(vecmul, mode, gals, false);
    const WorkCounts on = RunCounted(vecmul, mode, gals, true);
    const char* model = mode == SimMode::kSimAccurate ? "sim-accurate" : "signal-accurate";
    EXPECT_GT(off.dispatches, 0u) << model;
    EXPECT_EQ(off.dispatches, on.dispatches) << model;
    EXPECT_EQ(off.deltas, on.deltas) << model;
    EXPECT_EQ(off.timed, on.timed) << model;
    EXPECT_EQ(off.cycles, on.cycles) << model;
  }
}

/// The stats sections and the Chrome trace one run reports with the given
/// instruments on (each empty when its instrument is off).
struct InstrumentDocs {
  std::string stats;
  std::string trace;
};

InstrumentDocs RunWithInstruments(const Workload& w, SimMode mode, bool gals, bool stats,
                                  bool trace, bool cover) {
  Simulator sim;
  sim.set_mode(mode);
  if (stats) sim.stats().Enable();
  if (trace) sim.trace_events().Enable();
  if (cover) sim.cover().Enable();
  SocConfig cfg = SingleClock2x2();
  cfg.gals = gals;
  SocTop soc(sim, cfg);
  const WorkloadRun run = RunWorkload(soc, w, 50_ms);
  EXPECT_TRUE(run.ok) << run.name << ": " << run.error;
  InstrumentDocs d;
  if (stats) d.stats = DesignStats(sim);
  if (trace) d.trace = trace::FormatChromeJson(sim);
  return d;
}

// A channel's instruments do not interact: the stats a run reports with
// stats alone equal those it reports with trace and cover on as well, and
// its trace alone equals its trace with stats and cover on, in both
// Connections models and on one clock or four.
TEST(SocInstruments, EachInstrumentReportsTheSameAloneAsWithTheOthers) {
  const Workload vecmul = AllWorkloads().front();
  ASSERT_EQ(vecmul.name, "vecmul");
  const struct {
    SimMode mode;
    bool gals;
    const char* what;
  } configs[] = {{SimMode::kSimAccurate, true, "sim-accurate GALS"},
                 {SimMode::kSignalAccurate, false, "signal-accurate single-clock"},
                 {SimMode::kSignalAccurate, true, "signal-accurate GALS"}};
  for (const auto& c : configs) {
    const InstrumentDocs all = RunWithInstruments(vecmul, c.mode, c.gals, true, true, true);
    const InstrumentDocs stats = RunWithInstruments(vecmul, c.mode, c.gals, true, false, false);
    const InstrumentDocs trace = RunWithInstruments(vecmul, c.mode, c.gals, false, true, false);
    EXPECT_GT(all.stats.size(), 1000u) << c.what;
    EXPECT_GT(all.trace.size(), 1000u) << c.what;
    // Whole documents are too large to print on a mismatch: compare and
    // name the configuration only.
    EXPECT_TRUE(stats.stats == all.stats) << c.what << ": stats differ";
    EXPECT_TRUE(trace.trace == all.trace) << c.what << ": traces differ";
  }
}

TEST(SocSignalAccurate, InstrumentedOutputsArePinned) {
  // The signal-accurate model is the golden reference: every observable
  // output of an instrumented run (cycles, channel/crossing/FIFO counters,
  // the whole Chrome trace, cover bins) is pinned per workload, so a change
  // to how often its methods are evaluated cannot move any of them.
  struct Pin {
    const char* workload;
    InstrumentedRun single_clock;
    InstrumentedRun gals;
  };
  // {cycles, stats hash, trace bytes, trace hash, cover bins hit}
  const Pin pins[] = {
      {"vecmul",
       {6336, 0xf8a2da68128bc986ull, 1941263, 0xeec9ef88664409c3ull, 330},
       {7028, 0x096b321525e9ffbcull, 3022899, 0x28dca845cc4069e2ull, 472}},
      {"dot",
       {6208, 0x51c5f5fce5799f72ull, 1793615, 0x1dbaa36e4257ffadull, 331},
       {6962, 0xf52a038c26802477ull, 2828202, 0x319a43ca84bbcf5aull, 469}},
      {"reduce",
       {3968, 0xd03b38a52afbfcf8ull, 991857, 0xe6f9a03d06ae5917ull, 328},
       {4402, 0xc540bf1ff28e4769ull, 1560364, 0xd9a56ea19d41d76cull, 468}},
      {"conv1d",
       {5120, 0x5769a1a6e1b0b5d7ull, 1206695, 0x5a5aa065f52a2e15ull, 327},
       {5781, 0x98582b4c0b9b3dd8ull, 1918354, 0x49825c13381526a6ull, 468}},
      {"kmeans",
       {5376, 0xf4bf0cedc860c58eull, 1285249, 0xcfa19b9325d9d9faull, 328},
       {6044, 0x1b584079bbc09703ull, 2033282, 0x443b14927986cc02ull, 468}},
      {"dma_copy",
       {4864, 0x5ad08666b7ae967dull, 2132488, 0xf71d41a6a0224781ull, 330},
       {5256, 0xcbd7e85f2cd96e4eull, 3343442, 0xb095c070b8f518cfull, 471}},
      {"conv2d",
       {29888, 0x4b518e0a2a9c3b2bull, 4693126, 0x36ba11dc23273ed1ull, 331},
       {33762, 0xc9d4bb8bc50ec58cull, 7271237, 0xa35e1064041c2f02ull, 470}},
  };
  const std::vector<Workload> all = AllWorkloads();
  ASSERT_EQ(all.size(), std::size(pins));
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(all[i].name, pins[i].workload);
    EXPECT_EQ(RunInstrumented(all[i], false), pins[i].single_clock) << all[i].name;
    EXPECT_EQ(RunInstrumented(all[i], true), pins[i].gals) << all[i].name;
  }
}

}  // namespace
}  // namespace craft::soc
