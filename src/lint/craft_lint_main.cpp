// craft_lint: elaborate every session::Catalog() design and run the full
// design-rule suite over each one — the "run after elaboration, before
// simulation" step of the flow. Exits non-zero iff any design has findings
// at or above the --fail-on threshold (default: error), so it can gate CI
// while still publishing warnings.
//
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "hls/designs.hpp"
#include "hls/scheduler.hpp"
#include "kernel/kernel.hpp"
#include "lint/lint.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"

namespace {

using namespace craft;

constexpr const char kUsage[] =
    "usage: craft_lint [--json[=FILE]] [--sarif=FILE] "
    "[--suppress RULE[@GLOB]]... [--fail-on SEV] [--quiet]\n"
    "\n"
    "  --json            print the machine-readable report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --sarif=FILE      write findings as SARIF 2.1.0 for code-scanning upload\n"
    "  --suppress SPEC   drop findings matching \"rule@path-glob\" (glob: * ?)\n"
    "  --fail-on SEV     exit non-zero on findings at SEV or worse:\n"
    "                    error (default), warning, info, or none\n"
    "  --quiet           suppress per-design text blocks for clean designs\n";
using lint::Finding;
using lint::LintOptions;

using Report = std::pair<std::string, std::vector<Finding>>;

/// Schedules one HLS design under `c` and lints the result.
Report LintHls(hls::DataflowGraph g, const hls::ScheduleConstraints& c,
               const LintOptions& opts, std::vector<bool>* used) {
  const hls::AreaModel model;
  const hls::ScheduleResult r = hls::Schedule(g, model, c);
  return {"hls:" + g.name(),
          lint::ApplyOptions(lint::CheckSchedule(g, r, c), opts, used)};
}

void OrUsed(std::vector<bool>& acc, const std::vector<bool>& used) {
  if (acc.size() < used.size()) acc.resize(used.size(), false);
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i]) acc[i] = true;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  LintOptions opts;
  bool json = false;
  bool quiet = false;
  std::string json_path;
  std::string sarif_path;
  lint::Severity fail_on = lint::Severity::kError;
  bool fail_none = false;
  std::vector<std::string> suppress_specs;
  std::string fail_on_text;

  cli::Parser p("craft_lint", kUsage);
  p.OptStr("--json", &json, &json_path);
  p.Str("--sarif", &sarif_path);
  p.StrList("--suppress", &suppress_specs);
  p.Str("--fail-on", &fail_on_text);
  p.Flag("--quiet", &quiet);
  if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue)
    return cli::ExitCode(s);
  for (const std::string& spec : suppress_specs)
    opts.suppressions.push_back(lint::ParseSuppression(spec));
  if (!fail_on_text.empty() &&
      !lint::ParseFailOn(fail_on_text, &fail_on, &fail_none))
    return cli::ExitCode(
        p.UsageError("--fail-on wants error|warning|info|none"));

  std::vector<Report> reports;
  std::vector<bool> used_any(opts.suppressions.size(), false);

  // Every catalog design (the prototype SoC configurations of paper Fig. 5,
  // the GALS and LI pipelines, the NoC chain), each elaborated into its own
  // session; lint never runs it.
  for (const session::Entry& e : session::Catalog()) {
    const session::Session s(session::Spec{.design = e.name});
    std::vector<bool> used;
    reports.emplace_back(e.name,
                         lint::CheckDesignGraph(s.sim().design_graph(), opts, &used));
    OrUsed(used_any, used);
  }

  // Every HLS reference design, scheduled under representative constraints.
  {
    const hls::ScheduleConstraints free_c;
    hls::ScheduleConstraints shared_c;
    shared_c.max_multipliers = 2;
    shared_c.max_adders = 4;
    std::vector<bool> used;
    auto hls_one = [&](hls::DataflowGraph g, const hls::ScheduleConstraints& c) {
      reports.push_back(LintHls(std::move(g), c, opts, &used));
      OrUsed(used_any, used);
    };
    hls_one(hls::BuildDstLoopCrossbar(8, 32), free_c);
    hls_one(hls::BuildSrcLoopCrossbar(8, 32), free_c);
    hls_one(hls::BuildAdder(32), free_c);
    hls_one(hls::BuildMac(16), shared_c);
    hls_one(hls::BuildFir(8, 16), shared_c);
    hls_one(hls::BuildDotProduct(8, 16), shared_c);
    hls_one(hls::BuildAlu(32), free_c);
    hls_one(hls::BuildOneHotEncoder(16), free_c);
    hls_one(hls::BuildRoundRobinArbiter(8), free_c);
    hls_one(hls::BuildReductionTree(16, 16), shared_c);
    hls_one(hls::BuildVectorScale(8, 16), shared_c);
    hls_one(hls::BuildFpMulUnit(11), free_c);
  }

  // A suppression that matched nothing in ANY design is stale or a typo;
  // surface it as a warning report of its own rather than silently honoring.
  const std::vector<Finding> unused =
      lint::UnusedSuppressionFindings(opts.suppressions, used_any);
  if (!unused.empty()) reports.emplace_back("suppressions", unused);

  // With --json to stdout, the JSON document must be the only thing there;
  // the human-readable report moves to stderr.
  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  int errors = 0;
  int warnings = 0;
  int gating = 0;
  for (const auto& [design, findings] : reports) {
    errors += lint::ErrorCount(findings);
    if (!fail_none) gating += lint::CountAtOrAbove(findings, fail_on);
    for (const Finding& f : findings) {
      if (f.severity == lint::Severity::kWarning) ++warnings;
    }
    if (!quiet || !findings.empty()) {
      std::fputs(lint::FormatText(design, findings).c_str(), text_out);
    }
  }
  std::fprintf(text_out, "craft_lint: %zu designs, %d errors, %d warnings\n",
               reports.size(), errors, warnings);

  if (json && !cli::Emit("craft_lint", json_path, lint::FormatJson(reports)))
    return 2;
  if (!sarif_path.empty() &&
      !cli::Emit("craft_lint", sarif_path,
                 lint::FormatSarif("craft-lint", cli::kToolVersion, reports)))
    return 2;
  return gating > 0 ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_lint: %s\n", e.what());
  return 1;
}
