// craft-cover tests: database algebra (merge commutativity / associativity /
// idempotence, conflict detection), report round-trips, hostile site-name
// sanitization, the diff gate, and the determinism contract — byte-identical
// merged reports across parallelism levels, repeat runs and merge orders,
// with and without a chaos plan (DESIGN.md §13).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cover/cover.hpp"
#include "cover/runner.hpp"
#include "kernel/kernel.hpp"

namespace craft::cover {
namespace {

// ---------------------------------------------------------------------------
// Database algebra on hand-built databases.

Database SmallDb(const std::string& run, std::uint64_t hits) {
  Database db;
  RunInfo r;
  r.id = run;
  r.design = "unit";
  r.seed = 3;
  db.runs[run] = r;
  Group& g = db.groups[GroupKey("channel", "top.q")];
  g.kind = "channel";
  g.name = "top.q";
  g.bins["active"][run] = hits;
  g.bins["occ_full"];  // defined, unhit
  return db;
}

TEST(CoverDb, MergeIsCommutativeAssociativeIdempotent) {
  const Database a = SmallDb("unit/s1/n1", 10);
  const Database b = SmallDb("unit/s2/n1", 20);
  const Database c = SmallDb("unit/s3/n4", 30);

  Database ab, ba;
  ASSERT_EQ(Merge(a, &ab), "");
  ASSERT_EQ(Merge(b, &ab), "");
  ASSERT_EQ(Merge(b, &ba), "");
  ASSERT_EQ(Merge(a, &ba), "");
  EXPECT_EQ(FormatJson(ab), FormatJson(ba));

  Database ab_c = ab, a_bc, bc;
  ASSERT_EQ(Merge(c, &ab_c), "");
  ASSERT_EQ(Merge(b, &bc), "");
  ASSERT_EQ(Merge(c, &bc), "");
  ASSERT_EQ(Merge(a, &a_bc), "");
  ASSERT_EQ(Merge(bc, &a_bc), "");
  EXPECT_EQ(FormatJson(ab_c), FormatJson(a_bc));

  Database twice = ab_c;
  ASSERT_EQ(Merge(a, &twice), "");  // idempotent: a is already in there
  EXPECT_EQ(FormatJson(twice), FormatJson(ab_c));
  EXPECT_EQ(Fingerprint(twice), Fingerprint(ab_c));
}

TEST(CoverDb, MergeRejectsConflictingSharedRun) {
  const Database a = SmallDb("unit/s1/n1", 10);
  Database b = SmallDb("unit/s1/n1", 11);  // same run id, different count
  Database dst = a;
  const std::string err = Merge(b, &dst);
  EXPECT_NE(err, "");
  EXPECT_NE(err.find("determinism"), std::string::npos);
  // dst untouched on failure.
  EXPECT_EQ(FormatJson(dst), FormatJson(a));

  // A bin present in one input but absent for the shared run in the other is
  // also a conflict (checked in both directions).
  Database c = SmallDb("unit/s1/n1", 10);
  c.groups[GroupKey("channel", "top.q")].bins["occ_full"]["unit/s1/n1"] = 1;
  Database dst2 = a;
  EXPECT_NE(Merge(c, &dst2), "");
  Database dst3 = c;
  EXPECT_NE(Merge(a, &dst3), "");

  // Different metadata, same id.
  Database d = SmallDb("unit/s1/n1", 10);
  d.runs["unit/s1/n1"].seed = 99;
  Database dst4 = a;
  EXPECT_NE(Merge(d, &dst4), "");
}

TEST(CoverDb, ParseRoundTripsExactly) {
  Database db = SmallDb("unit/s1/n1", 7);
  RunInfo r2;
  r2.id = "unit/s2/n4/latency";
  r2.design = "unit";
  r2.seed = 2;
  r2.parallelism = 4;
  r2.chaos = "latency";
  r2.horizon_ps = 123456789;
  db.runs[r2.id] = r2;
  Group& g = db.groups[GroupKey("chaos", "top.q")];
  g.kind = "chaos";
  g.name = "top.q";
  g.bins["planned"][r2.id] = 1;

  const std::string doc = FormatJson(db);
  Database back;
  ASSERT_EQ(Parse(doc, &back), "");
  EXPECT_EQ(FormatJson(back), doc);
  EXPECT_EQ(Fingerprint(back), Fingerprint(db));
}

TEST(CoverDb, ParseRejectsMalformedDocuments) {
  Database db;
  EXPECT_NE(Parse("", &db), "");
  EXPECT_NE(Parse("{}", &db), "");
  EXPECT_NE(Parse("{\"schema\": \"craft-cover-v2\", \"runs\": {}, \"groups\": {}}", &db), "");
  EXPECT_NE(Parse("{\"schema\": \"craft-cover-v1\", \"runs\": {}}", &db), "");
  // Bin referencing an unknown run.
  EXPECT_NE(
      Parse("{\"schema\": \"craft-cover-v1\", \"runs\": {}, \"groups\": "
            "{\"channel:q\": {\"kind\": \"channel\", \"name\": \"q\", "
            "\"bins\": {\"active\": {\"ghost\": 1}}}}}",
            &db),
      "");
  // Group key not matching kind/name.
  EXPECT_NE(
      Parse("{\"schema\": \"craft-cover-v1\", \"runs\": {}, \"groups\": "
            "{\"channel:q\": {\"kind\": \"chaos\", \"name\": \"q\", "
            "\"bins\": {}}}}",
            &db),
      "");
}

TEST(CoverDb, DiffGatesOnLostBinsAndGroups) {
  const Database base = SmallDb("unit/s1/n1", 10);

  // Identical coverage: clean.
  EXPECT_FALSE(Diff(base, base).regressed());

  // Same bins hit with different counts: still clean (hit/unhit gates).
  EXPECT_FALSE(Diff(base, SmallDb("unit/s9/n1", 99)).regressed());

  // The previously-hit "active" bin goes unhit: regression.
  Database lost_bin = SmallDb("unit/s1/n1", 10);
  lost_bin.groups[GroupKey("channel", "top.q")].bins["active"].clear();
  const DiffResult d1 = Diff(base, lost_bin);
  EXPECT_TRUE(d1.regressed());
  ASSERT_EQ(d1.regressions.size(), 1u);
  EXPECT_NE(d1.regressions[0].find("active"), std::string::npos);

  // The whole group vanishes: regression.
  Database lost_group = base;
  lost_group.groups.clear();
  const DiffResult d2 = Diff(base, lost_group);
  EXPECT_TRUE(d2.regressed());
  EXPECT_EQ(d2.lost_groups.size(), 1u);

  // A newly hit bin is an improvement, not a regression.
  Database better = SmallDb("unit/s1/n1", 10);
  better.groups[GroupKey("channel", "top.q")].bins["occ_full"]["unit/s1/n1"] = 1;
  const DiffResult d3 = Diff(base, better);
  EXPECT_FALSE(d3.regressed());
  EXPECT_EQ(d3.improvements.size(), 1u);
}

// ---------------------------------------------------------------------------
// Hostile site names: report emitters must neither break their own framing
// (JSON escapes, markdown tables) nor let a name forge extra rows.

TEST(CoverReport, HostileSiteNamesAreContained) {
  Database db;
  RunInfo r;
  r.id = "unit/s1/n1";
  r.design = "unit";
  db.runs[r.id] = r;
  const std::string evil = "q\"\n|evil| # REGRESSED channel:x y\t\\";
  Group& g = db.groups[GroupKey("channel", evil)];
  g.kind = "channel";
  g.name = evil;
  g.bins["active"][r.id] = 1;
  g.bins["occ_full"];  // unhit, so it shows in text/markdown listings

  const std::string json = FormatJson(db);
  Database back;
  ASSERT_EQ(Parse(json, &back), "") << json;
  EXPECT_EQ(FormatJson(back), json);

  // No raw newline inside any emitted JSON string.
  EXPECT_EQ(json.find("q\"\n"), std::string::npos);

  // The raw newline must have been sanitized out of the text table.
  const std::string text = FormatText(db);
  EXPECT_EQ(text.find("\n|evil|"), std::string::npos);
  EXPECT_NE(text.find("\\x0a|evil|"), std::string::npos);

  const std::string md = FormatMarkdown(db);
  // Markdown cells must not contain an unescaped pipe from the name.
  EXPECT_EQ(md.find("|evil|"), std::string::npos);
  EXPECT_NE(md.find("\\|evil\\|"), std::string::npos);

  // Diff output with the hostile name stays one row per finding.
  Database empty;
  const DiffResult d = Diff(db, empty);
  const std::string diff_md = FormatDiff(d, /*markdown=*/true);
  EXPECT_EQ(diff_md.find("\n|evil|"), std::string::npos);
  const std::string diff_txt = FormatDiff(d, /*markdown=*/false);
  EXPECT_EQ(std::count(diff_txt.begin(), diff_txt.end(), '\n'),
            static_cast<long>(2));  // "LOST GROUP ..." + verdict line
}

// ---------------------------------------------------------------------------
// Determinism contract on the real pipeline harness: byte-identical merged
// reports across parallelism levels, repeat runs and merge orders, for
// fault-free, latency-chaos and corruption-chaos runs.

/// Runs li_pipeline at a given (seed, parallelism, chaos) but records a
/// parallelism-normalized run id, so reports from different n can be
/// compared byte for byte.
Database NormalizedPipelineRun(std::uint64_t seed, unsigned parallelism,
                               const std::string& chaos) {
  RunOptions opt;
  opt.seed = seed;
  opt.parallelism = parallelism;
  opt.chaos = chaos;
  opt.messages = 24;
  Database db;
  const std::string err = RunDesign("li_pipeline", opt, &db);
  EXPECT_EQ(err, "");
  // Rewrite "<design>/s<seed>/n<par>[...]" -> n0 in runs, bins and metadata.
  Database norm;
  const auto fix = [&](const std::string& id) {
    const std::string from = "/n" + std::to_string(parallelism);
    const auto pos = id.find(from);
    EXPECT_NE(pos, std::string::npos) << id;
    return id.substr(0, pos) + "/n0" + id.substr(pos + from.size());
  };
  for (const auto& [id, info] : db.runs) {
    RunInfo r = info;
    r.id = fix(id);
    r.parallelism = 0;
    // The quiescence horizon is provenance, not coverage: the drain window
    // where the run went idle is legitimately schedule-dependent.
    r.horizon_ps = 0;
    norm.runs[r.id] = r;
  }
  for (const auto& [gkey, g] : db.groups) {
    Group& ng = norm.groups[gkey];
    ng.kind = g.kind;
    ng.name = g.name;
    for (const auto& [bin, by_run] : g.bins) {
      auto& nb = ng.bins[bin];
      for (const auto& [run, n] : by_run) nb[fix(run)] = n;
    }
  }
  return norm;
}

TEST(CoverDeterminism, PipelineFingerprintInvariantAcrossParallelism) {
  for (const std::string& chaos : {std::string(), std::string("latency")}) {
    const Database n1 = NormalizedPipelineRun(5, 1, chaos);
    const Database n2 = NormalizedPipelineRun(5, 2, chaos);
    const Database n4 = NormalizedPipelineRun(5, 4, chaos);
    EXPECT_EQ(FormatJson(n1), FormatJson(n2)) << "chaos=" << chaos;
    EXPECT_EQ(FormatJson(n1), FormatJson(n4)) << "chaos=" << chaos;
  }
}

TEST(CoverDeterminism, MergedShardsAreByteIdenticalAnyOrder) {
  // Three seeds x {fault-free, latency-chaos} shards, plus a corruption run.
  std::vector<Database> shards;
  for (const std::uint64_t seed : {1ull, 7ull, 13ull}) {
    for (const std::string& chaos : {std::string(), std::string("latency")}) {
      RunOptions opt;
      opt.seed = seed;
      opt.parallelism = 1;
      opt.chaos = chaos;
      opt.messages = 24;
      Database db;
      ASSERT_EQ(RunDesign("li_pipeline", opt, &db), "");
      shards.push_back(std::move(db));
    }
  }
  {
    RunOptions opt;
    opt.seed = 7;
    opt.chaos = "corrupt";
    opt.messages = 24;
    Database db;
    ASSERT_EQ(RunDesign("li_pipeline", opt, &db), "");
    shards.push_back(std::move(db));
  }

  Database forward, reverse, interleaved;
  for (const auto& s : shards) ASSERT_EQ(Merge(s, &forward), "");
  for (auto it = shards.rbegin(); it != shards.rend(); ++it)
    ASSERT_EQ(Merge(*it, &reverse), "");
  for (std::size_t i = 0; i < shards.size(); i += 2)
    ASSERT_EQ(Merge(shards[i], &interleaved), "");
  for (std::size_t i = 1; i < shards.size(); i += 2)
    ASSERT_EQ(Merge(shards[i], &interleaved), "");

  const std::string doc = FormatJson(forward);
  EXPECT_EQ(doc, FormatJson(reverse));
  EXPECT_EQ(doc, FormatJson(interleaved));
  EXPECT_EQ(Fingerprint(forward), Fingerprint(reverse));

  // Re-running a shard reproduces it exactly, so merging the rerun into the
  // combined database is a no-op (the idempotence CI relies on).
  RunOptions opt;
  opt.seed = 7;
  opt.parallelism = 1;
  opt.chaos = "latency";
  opt.messages = 24;
  Database again;
  ASSERT_EQ(RunDesign("li_pipeline", opt, &again), "");
  ASSERT_EQ(Merge(again, &forward), "");
  EXPECT_EQ(FormatJson(forward), doc);
}

TEST(CoverDeterminism, ChaosSeedsProduceDistinctRunsThatStillMerge) {
  Database db;
  for (const std::uint64_t seed : {3ull, 4ull}) {
    RunOptions opt;
    opt.seed = seed;
    opt.chaos = "latency";
    opt.messages = 24;
    ASSERT_EQ(RunDesign("li_pipeline", opt, &db), "");
  }
  EXPECT_EQ(db.runs.size(), 2u);
  EXPECT_TRUE(db.runs.count("li_pipeline/s3/n1/latency"));
  EXPECT_TRUE(db.runs.count("li_pipeline/s4/n1/latency"));
  // The chaos covergroups exist and the planned stall sites fired somewhere.
  const Summary s = Summarize(db);
  ASSERT_TRUE(s.by_kind.count("chaos"));
  EXPECT_GT(s.by_kind.at("chaos").bins_hit, 0u);
}

TEST(CoverRunner, CorruptRunHitsDiscardPathBins) {
  RunOptions opt;
  opt.seed = 2;
  opt.chaos = "corrupt";
  opt.messages = 32;
  Database db;
  ASSERT_EQ(RunDesign("li_pipeline", opt, &db), "");
  const auto it = db.groups.find(GroupKey("packetizer", "li.depack"));
  ASSERT_NE(it, db.groups.end());
  // A drop fault must exercise the reassembly discard path (framing checks).
  EXPECT_GT(it->second.BinTotal("asm_discard") +
                it->second.BinTotal("asm_orphan") +
                it->second.BinTotal("asm_head_resync"),
            0u);
  // And the chaos site records planned vs applied corruption appointments.
  const auto ch = db.groups.find(GroupKey("chaos", "li.link"));
  ASSERT_NE(ch, db.groups.end());
  EXPECT_EQ(ch->second.BinTotal("corruption_planned"), 3u);
  EXPECT_GT(ch->second.BinTotal("corruption_applied"), 0u);
  // Detections land on the *reporting* site (framing checker, sink oracle),
  // not the faulted channel: at least one chaos site must have caught it.
  std::uint64_t detected = 0;
  for (const auto& [gkey, g] : db.groups)
    if (g.kind == "chaos") detected += g.BinTotal("detected");
  EXPECT_GT(detected, 0u);
}

TEST(CoverRunner, RejectsBadRequests) {
  Database db;
  RunOptions opt;
  EXPECT_NE(RunDesign("no_such_design", opt, &db), "");
  opt.chaos = "corrupt";
  EXPECT_NE(RunDesign("soc_gals_2x2", opt, &db), "");
  opt.chaos = "frobnicate";
  EXPECT_NE(RunDesign("li_pipeline", opt, &db), "");
  opt.chaos.clear();
  opt.parallelism = 0;
  EXPECT_NE(RunDesign("li_pipeline", opt, &db), "");
  EXPECT_TRUE(db.runs.empty());

  // Same (design, seed, parallelism, chaos) twice into one database: the
  // run id collides and the runner reports it instead of double-counting.
  RunOptions ok;
  ok.messages = 16;
  ASSERT_EQ(RunDesign("li_pipeline", ok, &db), "");
  EXPECT_NE(RunDesign("li_pipeline", ok, &db), "");
}

}  // namespace
}  // namespace craft::cover
