// craft_trace: run SoC workloads with craft-trace (and craft-stats) enabled,
// export a Perfetto-loadable Chrome trace-event JSON (craft-trace-v1), and
// print backpressure blame chains — the "why is this channel stalled"
// root-cause report (DESIGN.md §8).
//
// Exits non-zero if any workload fails its golden check or the built-in
// trace validation fails (unbalanced begin/end slices, span coverage below
// 95% of the messages the stats registry counted, missing blame chains in
// the presence of stalls) — a plain ctest invocation doubles as the
// end-to-end tracing smoke test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "soc/workloads.hpp"
#include "support/cli.hpp"
#include "trace/trace.hpp"

namespace {

using namespace craft;
using namespace craft::literals;

constexpr const char kUsage[] =
    "usage: craft_trace [--workload NAME]... [-o FILE] [--json[=FILE]] "
    "[--top N] [--sync] [--quiet]\n"
    "\n"
    "  --workload NAME   workload(s) to run; default: conv2d. \"all\" = all\n"
    "                    seven.\n"
    "  -o FILE           write the Chrome trace JSON to FILE (default\n"
    "                    trace.json); with several workloads each gets FILE\n"
    "                    with \".<workload>\" inserted before the extension\n"
    "  --json[=FILE]     print/write the craft-trace-blame-v1 report\n"
    "  --top N           blame chains to report (default 10)\n"
    "  --sync            single-clock mesh instead of the default GALS mesh\n"
    "  --quiet           suppress the human-readable blame tables\n";

struct RunResult {
  soc::WorkloadRun run;
  std::string trace_json;  // craft-trace-v1 (Chrome trace events)
  std::string blame_table;
  std::string blame_json;  // craft-trace-blame-v1
  std::size_t chain_count = 0;
  std::string top_root;    // root-cause track of the top chain
  std::uint64_t begins = 0, ends = 0, open = 0, dropped = 0;
  std::uint64_t channel_begins = 0, stats_enqueues = 0;
};

/// Runs one workload on a fresh simulator with BOTH registries enabled
/// (stats provides the coverage cross-check denominator).
RunResult RunOne(const soc::Workload& w, bool gals, std::size_t top_n) {
  Simulator sim;
  sim.stats().Enable();
  sim.trace_events().Enable();
  soc::SocConfig cfg;
  cfg.gals = gals;
  soc::SocTop soc(sim, cfg);
  RunResult r;
  r.run = soc::RunWorkload(soc, w, 50_ms);
  r.trace_json = trace::FormatChromeJson(sim);
  const auto chains = trace::AttributeBackpressure(sim, top_n);
  r.blame_table = trace::FormatTable(chains);
  r.blame_json = trace::FormatJson(sim, chains);
  r.chain_count = chains.size();
  if (!chains.empty()) r.top_root = chains.front().root_track();

  const TraceEventSink& sink = sim.trace_events();
  r.begins = sink.total_begins();
  r.ends = sink.total_ends();
  r.open = sink.open_slices();
  r.dropped = sink.dropped_events();
  // Coverage: channel-track residency slices vs the enqueues the stats
  // registry counted on the same run. Channel tracks are everything except
  // the vc_fifo / crossing / activity lanes (which have no ChannelStats
  // counterpart).
  for (const auto& t : sink.tracks()) {
    if (t->kind() != "vc_fifo" && t->kind() != "crossing" &&
        t->kind() != "activity") {
      r.channel_begins += t->begins();
    }
  }
  for (const auto& [name, cs] : sim.stats().channels()) {
    r.stats_enqueues += cs.enqueues;
  }
  return r;
}

std::uint64_t CountSubstr(const std::string& hay, const std::string& needle) {
  std::uint64_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

bool Validate(const RunResult& r, std::string* why) {
  if (!r.run.ok) {
    *why = "workload failed: " + r.run.error;
    return false;
  }
  if (r.run.cycles == 0) {
    *why = "workload reported zero cycles";
    return false;
  }
  if (r.begins != r.ends + r.open) {
    *why = "slice accounting broken: begins != ends + open";
    return false;
  }
  // The exported document must be balanced: every "b" closed by an "e"
  // (synthesized truncation closes included).
  const std::uint64_t doc_b = CountSubstr(r.trace_json, "\"ph\":\"b\"");
  const std::uint64_t doc_e = CountSubstr(r.trace_json, "\"ph\":\"e\"");
  if (doc_b != doc_e) {
    *why = "unbalanced trace document: " + std::to_string(doc_b) + " b vs " +
           std::to_string(doc_e) + " e events";
    return false;
  }
  if (r.trace_json.find("\"craft-trace-v1\"") == std::string::npos) {
    *why = "missing craft-trace-v1 schema marker";
    return false;
  }
  // Span coverage: >= 95% of the messages the stats registry counted must
  // have a residency slice (they should match exactly; the margin only
  // allows for event-cap drops on gigantic runs).
  if (r.stats_enqueues > 0 &&
      static_cast<double>(r.channel_begins) <
          0.95 * static_cast<double>(r.stats_enqueues)) {
    *why = "span coverage below 95%: " + std::to_string(r.channel_begins) +
           " slices vs " + std::to_string(r.stats_enqueues) + " enqueues";
    return false;
  }
  if (r.blame_json.find("\"craft-trace-blame-v1\"") == std::string::npos) {
    *why = "missing craft-trace-blame-v1 schema marker";
    return false;
  }
  return true;
}

std::string TracePathFor(const std::string& base, const std::string& workload,
                         bool multiple) {
  if (!multiple) return base;
  const std::size_t dot = base.rfind('.');
  if (dot == std::string::npos) return base + "." + workload;
  return base.substr(0, dot) + "." + workload + base.substr(dot);
}

}  // namespace

int main(int argc, char** argv) try {
  bool json = false;
  bool quiet = false;
  bool sync = false;
  std::uint64_t top_n = 10;
  std::string json_path;
  std::string trace_path = "trace.json";
  std::vector<std::string> names;

  cli::Parser p("craft_trace", kUsage);
  p.OptStr("--json", &json, &json_path);
  p.StrList("--workload", &names);
  p.Alias("-w", "--workload");
  p.Str("--trace", &trace_path);
  p.Alias("-o", "--trace");
  p.U64("--top", &top_n);
  p.Flag("--sync", &sync);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  if (names.empty()) names.emplace_back("conv2d");
  const bool gals = !sync;

  std::vector<soc::Workload> selected;
  for (const soc::Workload& w : soc::AllWorkloads()) {
    const bool all = std::find(names.begin(), names.end(), "all") != names.end();
    if (all || std::find(names.begin(), names.end(), w.name) != names.end()) {
      selected.push_back(w);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "craft_trace: no workload matched\n");
    return 2;
  }

  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  std::vector<RunResult> results;
  int failures = 0;
  for (const soc::Workload& w : selected) {
    RunResult r = RunOne(w, gals, static_cast<std::size_t>(top_n));
    std::string why;
    const bool valid = Validate(r, &why);
    if (!valid) ++failures;
    const std::string path = TracePathFor(trace_path, w.name, selected.size() > 1);
    if (!cli::WriteFile(path, r.trace_json)) {
      std::fprintf(stderr, "craft_trace: cannot write %s\n", path.c_str());
      return 2;
    }
    if (!quiet) {
      std::fprintf(text_out,
                   "==== workload %s: %s (%llu cycles) ====\n"
                   "trace: %s (%llu slices, %llu truncated-open, %llu dropped)\n%s\n",
                   r.run.name.c_str(), valid ? "ok" : why.c_str(),
                   static_cast<unsigned long long>(r.run.cycles), path.c_str(),
                   static_cast<unsigned long long>(r.begins),
                   static_cast<unsigned long long>(r.open),
                   static_cast<unsigned long long>(r.dropped),
                   r.blame_table.c_str());
    } else if (!valid) {
      std::fprintf(text_out, "craft_trace: %s: %s\n", r.run.name.c_str(), why.c_str());
    }
    results.push_back(std::move(r));
  }
  std::fprintf(text_out, "craft_trace: %zu workloads, %d failures\n",
               results.size(), failures);

  if (json) {
    std::string doc = "{\n  \"schema\": \"craft-trace-blame-run-v1\",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      doc += results[i].blame_json;
      if (i + 1 < results.size()) doc += ",";
      doc += "\n";
    }
    doc += "  ]\n}\n";
    if (json_path.empty()) {
      std::fputs(doc.c_str(), stdout);
    } else if (!cli::WriteFile(json_path, doc)) {
      std::fprintf(stderr, "craft_trace: cannot write %s\n", json_path.c_str());
      return 2;
    }
  }
  return failures > 0 ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_trace: %s\n", e.what());
  return 1;
}
