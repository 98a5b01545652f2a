// craft_cover: functional-coverage collection, merge and gating over the
// repo's reference workloads (DESIGN.md §13).
//
// Usage:
//   craft_cover run [--design NAME]... [--all] [--list] [--seed N]
//                   [--parallelism N] [--chaos latency|corrupt]
//                   [--messages N] [-o FILE]
//   craft_cover merge -o FILE IN...
//   craft_cover report [--format text|json|markdown] FILE...
//   craft_cover diff [--markdown] BASELINE CURRENT
//
//   run     executes the selected catalog designs with the cover registry
//           armed (default: li_pipeline + gals_pipeline + soc_gals_2x2; --all
//           runs every design --list prints) and writes one craft-cover-v1
//           document.
//           With several workloads the emitter self-checks merge order:
//           forward and reverse merges must be byte-identical.
//   merge   unions craft-cover-v1 shards. Two shards that disagree about the
//           same run id are a determinism violation and fail the merge.
//   report  merges its inputs in memory and renders them (default: text).
//   diff    compares hit/unhit bins: any bin hit in BASELINE but unhit in
//           CURRENT (or a vanished group) exits 1 — the CI coverage gate.
//
// Exit codes: 0 success, 1 coverage regression (diff only), 2 usage / IO /
// merge-conflict errors.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cover/cover.hpp"
#include "cover/runner.hpp"
#include "kernel/report.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"

namespace {

using craft::cover::Database;

constexpr const char kUsage[] =
    "usage: craft_cover run [--design NAME]... [--all] [--list] [--seed N]\n"
    "                       [--parallelism N] [--chaos latency|corrupt]\n"
    "                       [--messages N] [-o FILE]\n"
    "       craft_cover merge -o FILE IN...\n"
    "       craft_cover report [--format text|json|markdown] FILE...\n"
    "       craft_cover diff [--markdown] BASELINE CURRENT\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

craft::cli::Parser MakeParser() { return craft::cli::Parser("craft_cover", kUsage); }

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Loads and parses one craft-cover-v1 file; returns false (with a message
/// on stderr) on failure.
bool Load(const std::string& path, Database* db) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "craft_cover: cannot read %s\n", path.c_str());
    return false;
  }
  const std::string err = craft::cover::Parse(text, db);
  if (!err.empty()) {
    std::fprintf(stderr, "craft_cover: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

int CmdRun(int argc, char** argv) {
  craft::cover::RunOptions opt;
  std::vector<std::string> designs;
  std::string out_path;
  bool all = false;

  craft::cli::Parser p = MakeParser();
  p.StrList("--design", &designs);
  p.Flag("--all", &all);
  p.Action("--list", [] {
    for (const auto& e : craft::session::Catalog()) std::printf("%s\n", e.name.c_str());
  });
  p.U64("--seed", &opt.seed);
  p.U32("--parallelism", &opt.parallelism);
  p.Choice("--chaos", &opt.chaos, {"latency", "corrupt"});
  p.U32("--messages", &opt.messages);
  p.Str("--output", &out_path);
  p.Alias("-o", "--output");
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  if (designs.empty() && all) {
    for (const auto& e : craft::session::Catalog()) designs.push_back(e.name);
  } else if (designs.empty()) {
    designs = {"li_pipeline", "gals_pipeline", "soc_gals_2x2"};
  }

  // One database per workload, so the emitter can self-check that merge
  // order cannot matter before anything is written.
  std::vector<Database> shards;
  for (const auto& d : designs) {
    Database shard;
    const std::string err = craft::cover::RunDesign(d, opt, &shard);
    if (!err.empty()) {
      std::fprintf(stderr, "craft_cover: %s: %s\n", d.c_str(), err.c_str());
      return 2;
    }
    shards.push_back(std::move(shard));
  }
  Database forward, reverse;
  for (auto it = shards.begin(); it != shards.end(); ++it)
    if (const std::string err = craft::cover::Merge(*it, &forward); !err.empty()) {
      std::fprintf(stderr, "craft_cover: merge: %s\n", err.c_str());
      return 2;
    }
  for (auto it = shards.rbegin(); it != shards.rend(); ++it)
    if (const std::string err = craft::cover::Merge(*it, &reverse); !err.empty()) {
      std::fprintf(stderr, "craft_cover: merge: %s\n", err.c_str());
      return 2;
    }
  const std::string doc = craft::cover::FormatJson(forward);
  if (doc != craft::cover::FormatJson(reverse)) {
    std::fprintf(stderr,
                 "craft_cover: internal error: merge order changed the report "
                 "(commutativity self-check failed)\n");
    return 2;
  }
  if (!craft::cli::Emit("craft_cover", out_path, doc)) return 2;
  std::fputs(craft::cover::FormatText(forward).c_str(), stderr);
  return 0;
}

int CmdMerge(int argc, char** argv) {
  std::string out_path;
  std::vector<std::string> inputs;

  craft::cli::Parser p = MakeParser();
  p.Str("--output", &out_path);
  p.Alias("-o", "--output");
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  if (out_path.empty() || inputs.empty()) return Usage();
  Database merged;
  for (const auto& path : inputs) {
    Database db;
    if (!Load(path, &db)) return 2;
    const std::string err = craft::cover::Merge(db, &merged);
    if (!err.empty()) {
      std::fprintf(stderr, "craft_cover: merging %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
  }
  return craft::cli::Emit("craft_cover", out_path, craft::cover::FormatJson(merged))
             ? 0
             : 2;
}

int CmdReport(int argc, char** argv) {
  std::string format = "text";
  std::vector<std::string> inputs;

  craft::cli::Parser p = MakeParser();
  p.Choice("--format", &format, {"text", "json", "markdown"});
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  if (inputs.empty()) return Usage();
  Database merged;
  for (const auto& path : inputs) {
    Database db;
    if (!Load(path, &db)) return 2;
    const std::string err = craft::cover::Merge(db, &merged);
    if (!err.empty()) {
      std::fprintf(stderr, "craft_cover: merging %s: %s\n", path.c_str(),
                   err.c_str());
      return 2;
    }
  }
  std::string out;
  if (format == "json") out = craft::cover::FormatJson(merged);
  else if (format == "markdown") out = craft::cover::FormatMarkdown(merged);
  else out = craft::cover::FormatText(merged);
  std::fputs(out.c_str(), stdout);
  return 0;
}

int CmdDiff(int argc, char** argv) {
  bool markdown = false;
  std::vector<std::string> inputs;

  craft::cli::Parser p = MakeParser();
  p.Flag("--markdown", &markdown);
  p.Positionals(&inputs);
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  if (inputs.size() != 2) return Usage();
  Database baseline, current;
  if (!Load(inputs[0], &baseline) || !Load(inputs[1], &current)) return 2;
  const craft::cover::DiffResult d = craft::cover::Diff(baseline, current);
  std::fputs(craft::cover::FormatDiff(d, markdown).c_str(), stdout);
  return d.regressed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // Each subcommand gets argv[1] as its argv[0]; the shared parser skips it.
  if (cmd == "run") return CmdRun(argc - 1, argv + 1);
  if (cmd == "merge") return CmdMerge(argc - 1, argv + 1);
  if (cmd == "report") return CmdReport(argc - 1, argv + 1);
  if (cmd == "diff") return CmdDiff(argc - 1, argv + 1);
  if (cmd == "--help" || cmd == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (cmd == "--version") {
    std::printf("craft_cover %s\n", craft::cli::kToolVersion);
    return 0;
  }
  return Usage();
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_cover: %s\n", e.what());
  return 1;
}
