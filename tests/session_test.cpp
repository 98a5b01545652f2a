// Tests for craft::session: the one catalog every tool names designs from,
// and the one run path behind them. Every entry must build and run through
// a Session with every instrument armed before its elaboration, and each
// kind must run the way the tools rely on.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kernel/kernel.hpp"
#include "session/session.hpp"

namespace craft::session {
namespace {

using namespace craft::literals;

TEST(SessionCatalog, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const Entry& e : Catalog()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
    EXPECT_EQ(Find(e.name), &e);
    EXPECT_EQ(e.soc.has_value(), e.kind == Kind::kSocWorkload) << e.name;
  }
  EXPECT_EQ(names.size(), Catalog().size());
  EXPECT_EQ(Find("no_such_design"), nullptr);
}

TEST(Session, EveryEntryRunsWithEveryInstrument) {
  for (const Entry& e : Catalog()) {
    Spec spec;
    spec.design = e.name;
    spec.parallelism = 1;
    spec.stats = true;
    spec.trace = true;
    spec.cover = true;
    spec.faults = LatencyPlan(e.kind, 1);
    PulseConfig pulse;
    pulse.period_ps = 20'000;  // the LI harness is done within ~100 ns
    pulse.throughput_windows = 0;
    spec.pulse = pulse;
    Session s(spec);
    // Armed before elaboration: the registries registered the design's sites.
    EXPECT_FALSE(s.sim().cover().channel_points().empty()) << e.name;
    EXPECT_FALSE(s.sim().trace_events().tracks().empty()) << e.name;
    EXPECT_TRUE(s.sim().chaos().enabled()) << e.name;
    EXPECT_EQ(s.sim().parallelism(), 1u) << e.name;
    EXPECT_EQ(s.soc() != nullptr, e.kind == Kind::kSocWorkload) << e.name;

    const Outcome out = s.Run();
    EXPECT_TRUE(out.ok) << e.name << ": " << out.error;
    EXPECT_FALSE(out.raised) << e.name;
    EXPECT_FALSE(s.sim().stats().channels().empty()) << e.name;
    EXPECT_GT(s.sim().pulse().windows_total(), 0u) << e.name;
    EXPECT_GT(s.sim().chaos().latency_totals().channel_stall_cycles, 0u) << e.name;
    if (e.kind == Kind::kEndlessStream) {
      EXPECT_EQ(s.sim().now(), 300_us) << e.name;
    } else {
      EXPECT_GT(out.cycles, 0u) << e.name;
      EXPECT_NE(out.digest, 0u) << e.name;
    }
  }
}

TEST(Session, SocEntriesResolveTheirWorkload) {
  EXPECT_EQ(Session(Spec{.design = "soc_gals_2x2"}).spec().workload, "vecmul");
  Session dot(Spec{.design = "soc_sync_2x2", .workload = "dot", .horizon = 20_ms});
  const Outcome out = dot.Run();
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(dot.spec().workload, "dot");
}

TEST(Session, RunsAreDeterministic) {
  // One Simulator may exist at a time, so each run gets its own session.
  const Spec spec{.design = "li_pipeline",
                  .parallelism = 1,
                  .messages = 24,
                  .faults = LatencyPlan(Kind::kBoundedHarness, 3)};
  const Outcome a = Session(spec).Run();
  const Outcome b = Session(spec).Run();
  EXPECT_TRUE(a.ok) << a.error;
  EXPECT_GT(a.cycles, 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Session, ValidateNamesTheProblem) {
  EXPECT_EQ(Validate(Spec{.design = "noc_chain"}), "");
  EXPECT_EQ(Validate(Spec{.design = "soc_gals_3x3", .workload = "conv2d"}), "");
  EXPECT_NE(Validate(Spec{.design = "nope"}).find("unknown design 'nope'"),
            std::string::npos);
  EXPECT_NE(Validate(Spec{.design = "soc_gals_2x2", .workload = "nope"})
                .find("unknown workload 'nope'"),
            std::string::npos);
  EXPECT_NE(Validate(Spec{.design = "li_pipeline", .workload = "dot"}), "");
  EXPECT_THROW(Session(Spec{.design = "nope"}), SimError);
}

TEST(Session, StreamsRunToTheirHorizon) {
  Session s(Spec{.design = "gals_pipeline", .horizon = 50_us, .stats = true});
  const Outcome out = s.Run();
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(s.sim().now(), 50_us);
  EXPECT_EQ(out.cycles, 0u);
}

TEST(Session, CorruptedHarnessShortfallIsADetection) {
  FaultPlan plan;
  plan.seed = 5;
  plan.corruptions = {{.channel = kLiLinkChannel, .commit_index = 20,
                       .kind = CorruptionFault::Kind::kDrop}};
  Session s(Spec{.design = "li_pipeline", .parallelism = 1, .faults = plan});
  const Outcome out = s.Run();
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.raised);
  EXPECT_NE(out.error.find("sink stalled at"), std::string::npos) << out.error;
  bool shortfall = false;
  for (const ChaosDetection& d : s.sim().chaos().Detections())
    shortfall = shortfall || (d.site == "campaign" && d.kind == "shortfall");
  EXPECT_TRUE(shortfall);
}

}  // namespace
}  // namespace craft::session
