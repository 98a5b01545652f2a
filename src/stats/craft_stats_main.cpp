// craft_stats: run the six SoC-level workloads (paper Fig. 6) with the
// craft-stats telemetry registry enabled and report per-channel, per-GALS-
// crossing, per-process, and per-PE utilization metrics — the observability
// counterpart to craft_lint's static checks.
//
// Exits non-zero if any workload fails its golden check or the emitted
// metrics fail the built-in sanity validation (missing sections, channel
// conservation violated, utilization outside [0, 1]) — so a plain ctest
// invocation doubles as an end-to-end telemetry smoke test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "session/session.hpp"
#include "soc/workloads.hpp"
#include "support/cli.hpp"

namespace {

using namespace craft;

constexpr const char kUsage[] =
    "usage: craft_stats [--format text|json|openmetrics] [--json[=FILE]] "
    "[--out=FILE] [--workload NAME]... [--sync] [--quiet]\n"
    "\n"
    "  --format NAME     output format: text (default, human tables), json\n"
    "                    (craft-stats-run-v1), or openmetrics (exposition\n"
    "                    text; runs one workload at a time)\n"
    "  --json            shorthand for --format json to stdout\n"
    "  --json=FILE       ... or to FILE\n"
    "  --out=FILE        write the formatted document to FILE\n"
    "  --workload NAME   run only the named workload(s); default: all six\n"
    "  --sync            single-clock mesh instead of the default GALS mesh\n"
    "  --quiet           suppress the per-workload human-readable tables\n";

enum class Format { kText, kJson, kOpenMetrics };

struct RunResult {
  soc::WorkloadRun run;
  std::string metrics_json;  // craft-soc-metrics-v1
  std::string table;
  std::string openmetrics;   // exposition text, when --format openmetrics
};

/// The formatted results of one workload's session, read while it is alive.
RunResult Harvest(session::Session& s, const session::Outcome& out, Format format) {
  RunResult r;
  r.run = soc::WorkloadRun{s.spec().workload, out.cycles, out.ok, out.error};
  r.metrics_json = soc::SocMetricsJson(*s.soc(), r.run);
  r.table = stats::FormatTable(s.sim());
  if (format == Format::kOpenMetrics) {
    r.openmetrics = stats::FormatOpenMetrics(s.sim());
  }
  return r;
}

/// Minimal structural validation of the emitted metrics document. Not a
/// JSON parser: checks that the required keys exist and that the counters
/// we can cross-check from the live objects obey conservation.
bool Validate(const RunResult& r, std::string* why) {
  for (const char* key :
       {"\"schema\": \"craft-soc-metrics-v1\"", "\"workload\"", "\"pes\"", "\"noc\"",
        "\"stats\"", "\"schema\": \"craft-stats-v1\"", "\"channels\"", "\"processes\"",
        "\"utilization\""}) {
    if (r.metrics_json.find(key) == std::string::npos) {
      *why = std::string("missing key ") + key;
      return false;
    }
  }
  if (!r.run.ok) {
    *why = "workload failed: " + r.run.error;
    return false;
  }
  if (r.run.cycles == 0) {
    *why = "workload reported zero cycles";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  Format format = Format::kText;
  bool quiet = false;
  bool sync = false;
  bool json = false;
  std::string format_name;
  std::string json_path;
  std::string out_path;
  std::vector<std::string> only;

  cli::Parser p("craft_stats", kUsage);
  p.Choice("--format", &format_name, {"text", "json", "openmetrics"});
  p.OptStr("--json", &json, &json_path);
  p.Str("--out", &out_path);
  p.StrList("--workload", &only);
  p.Flag("--sync", &sync);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (format_name == "json") format = Format::kJson;
  else if (format_name == "openmetrics") format = Format::kOpenMetrics;
  if (json) {
    format = Format::kJson;
    if (!json_path.empty()) out_path = json_path;
  }

  std::vector<const soc::Workload*> selected;
  const std::vector<soc::Workload> all = soc::SixSocTests();
  for (const soc::Workload& w : all) {
    if (only.empty() ||
        std::find(only.begin(), only.end(), w.name) != only.end()) {
      selected.push_back(&w);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "craft_stats: no workload matched\n");
    return 2;
  }
  // One exposition per scrape: concatenated documents would repeat metric
  // families, which the format forbids.
  if (format == Format::kOpenMetrics && selected.size() != 1) {
    std::fprintf(stderr,
                 "craft_stats: --format openmetrics runs one workload at a "
                 "time (pass a single --workload NAME)\n");
    return 2;
  }

  // With a document on stdout, it must be the only thing there.
  const bool doc_to_stdout = format != Format::kText && out_path.empty();
  std::FILE* text_out = doc_to_stdout ? stderr : stdout;

  std::vector<RunResult> results;
  int failures = 0;
  for (const soc::Workload* wp : selected) {
    const soc::Workload& w = *wp;
    // A fresh session per workload: the registry is snapshot at
    // elaboration, and isolation keeps the counters attributable to one.
    session::Session s(session::Spec{
        .design = sync ? "soc_sync_2x2" : "soc_gals_2x2", .workload = w.name, .stats = true});
    RunResult r = Harvest(s, s.Run(), format);
    std::string why;
    const bool valid = Validate(r, &why);
    if (!valid) ++failures;
    if (!quiet) {
      std::fprintf(text_out, "==== workload %s: %s (%llu cycles) ====\n%s\n",
                   r.run.name.c_str(), valid ? "ok" : why.c_str(),
                   static_cast<unsigned long long>(r.run.cycles), r.table.c_str());
    } else if (!valid) {
      std::fprintf(text_out, "craft_stats: %s: %s\n", r.run.name.c_str(), why.c_str());
    }
    results.push_back(std::move(r));
  }
  std::fprintf(text_out, "craft_stats: %zu workloads, %d failures\n", results.size(),
               failures);

  std::string doc;
  if (format == Format::kJson) {
    doc = "{\n  \"schema\": \"craft-stats-run-v1\",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      doc += results[i].metrics_json;
      if (i + 1 < results.size()) doc += ",";
      doc += "\n";
    }
    doc += "  ]\n}\n";
  } else if (format == Format::kOpenMetrics) {
    doc = results[0].openmetrics;
  }
  if (!doc.empty() && !cli::Emit("craft_stats", out_path, doc)) return 2;
  return failures > 0 ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_stats: %s\n", e.what());
  return 1;
}
