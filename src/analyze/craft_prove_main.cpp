// craft_prove: elaborate every session::Catalog() design and run the
// quantitative static analyses (capacity-aware deadlock feasibility,
// cycle-ratio throughput bounds, buffer-sizing and GALS rate-matching
// diagnostics) over each one. Exits non-zero iff any design has a provable
// deadlock (error-severity finding), so it can gate CI.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "kernel/kernel.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: craft_prove [--json[=FILE]] [--sarif=FILE] [--quiet]\n"
    "\n"
    "  --json            print the craft-prove-v1 JSON report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --sarif=FILE      write findings as SARIF 2.1.0 for code-scanning upload\n"
    "  --quiet           suppress per-design text blocks for clean designs\n";

}  // namespace

int main(int argc, char** argv) try {
  using namespace craft;
  bool json = false;
  bool quiet = false;
  std::string json_path;
  std::string sarif_path;

  cli::Parser p("craft_prove", kUsage);
  p.OptStr("--json", &json, &json_path);
  p.Str("--sarif", &sarif_path);
  p.Flag("--quiet", &quiet);
  if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue)
    return cli::ExitCode(s);

  std::vector<std::pair<std::string, analyze::Analysis>> reports;
  for (const session::Entry& e : session::Catalog()) {
    // Never Run(): purely static analysis of the elaborated graph.
    const session::Session s(session::Spec{.design = e.name});
    reports.emplace_back(e.name, analyze::Analyze(s.sim().design_graph()));
  }

  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  int errors = 0;
  int warnings = 0;
  for (const auto& [design, a] : reports) {
    errors += lint::ErrorCount(a.findings);
    warnings += lint::CountAtOrAbove(a.findings, lint::Severity::kWarning) -
                lint::ErrorCount(a.findings);
    if (!quiet || lint::ErrorCount(a.findings) > 0) {
      std::fputs(analyze::FormatText(design, a).c_str(), text_out);
    }
  }
  std::fprintf(text_out, "craft_prove: %zu designs, %d errors, %d warnings\n",
               reports.size(), errors, warnings);

  if (json && !cli::Emit("craft_prove", json_path, analyze::FormatJson(reports)))
    return 2;
  if (!sarif_path.empty()) {
    std::vector<std::pair<std::string, std::vector<lint::Finding>>> sarif_in;
    for (const auto& [design, a] : reports) sarif_in.emplace_back(design, a.findings);
    if (!cli::Emit("craft_prove", sarif_path,
                   lint::FormatSarif("craft-prove", cli::kToolVersion, sarif_in)))
      return 2;
  }
  return errors > 0 ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_prove: %s\n", e.what());
  return 1;
}
