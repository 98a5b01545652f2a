// Tests for craft-chaos: the deterministic fault-injection engine and its
// campaign oracles. Latency-only faults must leave the LI pipeline's outputs
// and message sets bit-identical (against a golden run and across
// SetParallelism(1) vs (4)); corruption faults must be detected — framing
// checks, payload oracle, shortfall — never propagate silently.
#include <gtest/gtest.h>

#include <string>

#include "chaos/campaign.hpp"
#include "kernel/kernel.hpp"

namespace craft {
namespace {

constexpr unsigned kMsgs = 64;

/// One LI pipeline harness run through the campaign's run path.
chaos::RunRecord RunLi(const FaultPlan* plan, unsigned parallelism,
                       const std::string& label) {
  session::Spec spec;
  spec.design = "li_pipeline";
  spec.parallelism = parallelism;
  spec.messages = kMsgs;
  if (plan != nullptr) spec.faults = *plan;
  return chaos::Run(spec, label);
}

FaultPlan PipelineLatencyPlan(std::uint64_t seed) {
  return session::LatencyPlan(session::Kind::kBoundedHarness, seed);
}

chaos::RunRecord Golden() { return RunLi(nullptr, 1, "golden"); }

bool HasDetection(const chaos::RunRecord& r, const std::string& kind) {
  for (const auto& d : r.detections)
    if (d.kind == kind) return true;
  return false;
}

// ---------- engine registry contract ----------

TEST(ChaosEngine, DisabledRegistersNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.chaos().enabled());
  EXPECT_EQ(sim.chaos().RegisterChannel("x", true), nullptr);
  EXPECT_EQ(sim.chaos().RegisterCrossing("x"), nullptr);
  EXPECT_EQ(sim.chaos().RegisterRetimer("x"), nullptr);
  EXPECT_EQ(sim.chaos().RegisterClock("x"), nullptr);
}

TEST(ChaosEngine, EmptyPlanRegistersNothing) {
  // Enabled but scheduling nothing: every site must still get nullptr, the
  // zero-cost-when-off contract.
  Simulator sim;
  sim.chaos().Enable(FaultPlan{});
  EXPECT_TRUE(sim.chaos().enabled());
  EXPECT_EQ(sim.chaos().RegisterChannel("x", true), nullptr);
  EXPECT_EQ(sim.chaos().RegisterCrossing("x"), nullptr);
  EXPECT_EQ(sim.chaos().RegisterRetimer("x"), nullptr);
  EXPECT_EQ(sim.chaos().RegisterClock("x"), nullptr);
}

TEST(ChaosEngine, UnflippableChannelWarnsAndSkips) {
  // A bit-flip scheduled on a channel whose payload has no ChaosFlip
  // specialization must be skipped with a config warning, not applied and
  // not silently dropped from the report.
  FaultPlan plan;
  plan.seed = 2;
  plan.corruptions = {{.channel = "li.rt_q", .commit_index = 5,
                       .kind = CorruptionFault::Kind::kBitFlip, .bit = 3}};
  const auto rec = RunLi(&plan, 1, "unflippable");
  ASSERT_EQ(rec.warnings.size(), 1u);
  EXPECT_NE(rec.warnings[0].find("li.rt_q"), std::string::npos);
  EXPECT_TRUE(rec.injections.empty());
  EXPECT_TRUE(rec.fp.ok);
  EXPECT_EQ(rec.fp.digest, Golden().fp.digest);
}

// ---------- latency-only faults: LI-invariance ----------

TEST(ChaosCampaign, LatencyFaultsPreserveOutputsAndMessageSets) {
  const auto golden = Golden();
  const FaultPlan plan = PipelineLatencyPlan(3);
  const auto f = RunLi(&plan, 1, "latency");
  ASSERT_TRUE(golden.fp.ok) << golden.error;
  ASSERT_TRUE(f.fp.ok) << f.error;
  // The LI-invariance oracle: identical outputs and identical per-channel
  // message sets, even though the schedule (and cycle count) changed.
  EXPECT_EQ(f.fp.digest, golden.fp.digest);
  EXPECT_EQ(f.fp.transfers, golden.fp.transfers);
  EXPECT_GT(f.fp.cycles, golden.fp.cycles);
  // The plan really fired: every latency fault class saw activity.
  EXPECT_GT(f.latency.channel_stall_cycles, 0u);
  EXPECT_GT(f.latency.crossing_holds, 0u);
  EXPECT_GT(f.latency.retimer_delays, 0u);
  EXPECT_GT(f.latency.wakeup_deferrals, 0u);
  // Corruption log stays empty for latency-only campaigns.
  EXPECT_TRUE(f.injections.empty());
  EXPECT_TRUE(f.detections.empty());
}

TEST(ChaosCampaign, DeterministicPerSeed) {
  const FaultPlan plan = PipelineLatencyPlan(7);
  const auto a = RunLi(&plan, 1, "a");
  const auto b = RunLi(&plan, 1, "b");
  EXPECT_TRUE(a.fp == b.fp);
  EXPECT_EQ(a.latency.channel_stall_cycles, b.latency.channel_stall_cycles);
  EXPECT_EQ(a.latency.crossing_holds, b.latency.crossing_holds);
  EXPECT_EQ(a.latency.retimer_delays, b.latency.retimer_delays);
  EXPECT_EQ(a.latency.wakeup_deferrals, b.latency.wakeup_deferrals);
  // A different seed is a different timing universe (outputs still match,
  // but the schedule — and with it the cycle count or fault mix — moves).
  const FaultPlan other = PipelineLatencyPlan(8);
  const auto c = RunLi(&other, 1, "c");
  EXPECT_EQ(c.fp.digest, a.fp.digest);
  EXPECT_TRUE(c.fp.cycles != a.fp.cycles ||
              c.latency.channel_stall_cycles != a.latency.channel_stall_cycles);
}

TEST(ChaosCampaign, ParallelismInvariance) {
  // Same plan, n=1 vs n=4 workers: the full fingerprint (cycles included)
  // must match bit for bit — fault draws are per-site, not global-order.
  // The raw fault-event totals are NOT compared: like §9's delta counts,
  // they can drift by a cycle's worth of lazy stall rolls at the Stop()
  // boundary (a shard may poll once more before observing the stop), which
  // never reaches any output.
  const FaultPlan plan = PipelineLatencyPlan(11);
  const auto n1 = RunLi(&plan, 1, "n1");
  const auto n4 = RunLi(&plan, 4, "n4");
  ASSERT_TRUE(n1.fp.ok) << n1.error;
  EXPECT_TRUE(n1.fp == n4.fp);
  EXPECT_GT(n4.latency.channel_stall_cycles, 0u);
  EXPECT_GT(n4.latency.wakeup_deferrals, 0u);
}

TEST(ChaosCampaign, SignalAccurateSocAbsorbsLatencyFaults) {
  // The signal-accurate model is the golden one, so the LI-under-stalls
  // property must hold there too: channel stalls reach its valid/ready
  // signals, and wakeup deferral (which would break the FSM handshake) is
  // skipped with a warning per clock instead of hanging the run.
  // Exact outcome per seed, [gals][seed - 1]: every channel rolls its stall
  // mask once per cycle, so how often the channel methods run cannot move
  // either number.
  struct Outcome {
    std::uint64_t cycles;
    std::uint64_t channel_stall_cycles;
  };
  const Outcome expected[2][3] = {
      {{6784, 27000}, {6592, 26566}, {6784, 27109}},
      {{7487, 37209}, {7685, 38413}, {7487, 37378}},
  };
  for (const bool gals : {false, true}) {
    session::Spec spec;
    spec.design = gals ? "soc_gals_2x2" : "soc_sync_2x2";
    spec.workload = "vecmul";
    spec.mode = SimMode::kSignalAccurate;
    spec.parallelism = 1;
    const auto golden = chaos::Run(spec, "golden");
    ASSERT_TRUE(golden.fp.ok) << "gals=" << gals << ": " << golden.error;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      spec.faults = chaos::SocLatencyPlan(seed);
      const auto f = chaos::Run(spec, "latency");
      const std::string where =
          "gals=" + std::to_string(gals) + " seed=" + std::to_string(seed);
      EXPECT_TRUE(f.fp.ok) << where << ": " << f.error;
      EXPECT_EQ(f.fp.digest, golden.fp.digest) << where;
      EXPECT_GT(f.latency.channel_stall_cycles, 0u) << where;
      EXPECT_GT(f.fp.cycles, golden.fp.cycles) << where;
      EXPECT_EQ(f.fp.cycles, expected[gals][seed - 1].cycles) << where;
      EXPECT_EQ(f.latency.channel_stall_cycles,
                expected[gals][seed - 1].channel_stall_cycles)
          << where;
      EXPECT_EQ(f.latency.wakeup_deferrals, 0u) << where;
      ASSERT_FALSE(f.warnings.empty()) << where;
      EXPECT_NE(f.warnings[0].find("wakeup deferral on '"), std::string::npos) << where;
    }
  }
}

// ---------- corruption faults: detection, not propagation ----------

TEST(ChaosCampaign, BitFlipDetectedByPayloadOracle) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corruptions = {{.channel = "li.link", .commit_index = 21,
                       .kind = CorruptionFault::Kind::kBitFlip, .bit = 9}};
  const auto rec = RunLi(&plan, 1, "flip");
  ASSERT_EQ(rec.injections.size(), 1u);
  EXPECT_EQ(rec.injections[0].kind, "bitflip");
  // A flip corrupts one message but loses none: the run completes, the
  // digest diverges, and the sink's payload oracle names the position.
  EXPECT_TRUE(rec.fp.ok) << rec.error;
  EXPECT_NE(rec.fp.digest, Golden().fp.digest);
  EXPECT_TRUE(HasDetection(rec, "payload-mismatch"));
  EXPECT_FALSE(rec.blame.empty());
}

TEST(ChaosCampaign, DropDetectedByFramingAndShortfall) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corruptions = {{.channel = "li.link", .commit_index = 20,
                       .kind = CorruptionFault::Kind::kDrop}};
  const auto rec = RunLi(&plan, 1, "drop");
  ASSERT_EQ(rec.injections.size(), 1u);
  EXPECT_EQ(rec.injections[0].kind, "drop");
  // A lost flit desynchronizes framing and starves the sink: the run must
  // NOT complete cleanly, and both checkers must fire.
  EXPECT_FALSE(rec.fp.ok);
  EXPECT_FALSE(rec.detections.empty());
  EXPECT_TRUE(HasDetection(rec, "framing-count") ||
              HasDetection(rec, "framing-orphan") ||
              HasDetection(rec, "framing-head"));
  EXPECT_TRUE(HasDetection(rec, "shortfall"));
}

TEST(ChaosCampaign, DuplicateDetectedByFraming) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corruptions = {{.channel = "li.link", .commit_index = 21,
                       .kind = CorruptionFault::Kind::kDuplicate}};
  const auto rec = RunLi(&plan, 1, "dup");
  ASSERT_EQ(rec.injections.size(), 1u);
  EXPECT_EQ(rec.injections[0].kind, "duplicate");
  EXPECT_FALSE(rec.detections.empty());
  EXPECT_TRUE(HasDetection(rec, "framing-orphan") ||
              HasDetection(rec, "framing-head") ||
              HasDetection(rec, "framing-count"));
}

// ---------- report formats ----------

TEST(ChaosReport, JsonSchemaAndVerdicts) {
  chaos::CampaignConfig config;
  config.seed = 5;
  std::vector<chaos::CampaignResult> results(1);
  results[0].design = "li_pipeline";
  results[0].mode = "corruption";
  FaultPlan plan;
  plan.seed = 5;
  plan.corruptions = {{.channel = "li.link", .commit_index = 21,
                       .kind = CorruptionFault::Kind::kBitFlip, .bit = 9}};
  results[0].runs.push_back(RunLi(&plan, 1, "trial-0-bitflip"));
  results[0].failures.push_back("example failure");
  results[0].passed = false;

  const std::string json = chaos::FormatJson(config, results);
  for (const char* key :
       {"\"schema\": \"craft-chaos-v1\"", "\"campaigns\"", "\"injections\"",
        "\"detections\"", "\"latency_faults\"", "\"failures\": 1",
        "payload-mismatch", "trial-0-bitflip"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  const std::string text = chaos::FormatText(config, results);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("example failure"), std::string::npos);
  EXPECT_EQ(chaos::FailureCount(results), 1u);
}

}  // namespace
}  // namespace craft
