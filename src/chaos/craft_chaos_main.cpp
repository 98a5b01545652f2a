// craft_chaos: deterministic fault-injection campaigns over the LI pipeline
// harness and the shipped reference designs (DESIGN.md §11) — the dynamic
// counterpart to craft_lint/craft_prove's static checks. Latency-only
// campaigns must leave outputs bit-identical (LI-invariance); corruption
// campaigns must be detected, never silent.
//
// Exits 1 on any oracle failure (LI-invariance break, nondeterminism,
// undetected corruption), 2 on usage errors — a plain ctest invocation
// doubles as the fault-injection regression suite.
#include <cstdio>
#include <string>

#include "chaos/campaign.hpp"
#include "cover/cover.hpp"
#include "kernel/report.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"

namespace {

constexpr const char kUsage[] =
    "usage: craft_chaos [--seed N] [--quick|--full] [--trials N] "
    "[--messages N] [--workload NAME]... [--json[=FILE]] "
    "[--heartbeat[=FILE]] [--cover=FILE] [--pulse-period PS] "
    "[--progress-windows N] [--quiet]\n"
    "\n"
    "  --seed N          campaign seed (default 1); same seed => same report\n"
    "  --quick           smoke scale (CI): pipeline + one SoC workload\n"
    "  --full            nightly scale: more trials, designs and workloads\n"
    "  --trials N        corruption trial count override\n"
    "  --messages N      pipeline harness traffic per run (default 64)\n"
    "  --workload NAME   SoC workload(s) to campaign over (default vecmul,\n"
    "                    +dot and dma_copy at --full)\n"
    "  --json            print the craft-chaos-v1 report to stdout\n"
    "  --json=FILE       ... or write it to FILE\n"
    "  --heartbeat       craft-pulse liveness line per window, to stderr\n"
    "  --heartbeat=FILE  ... or appended to FILE (the nightly campaign log)\n"
    "  --cover=FILE      collect functional coverage across every campaign\n"
    "                    run and write one craft-cover-v1 database to FILE\n"
    "  --pulse-period PS heartbeat sampling period (default 10000000 = 10us)\n"
    "  --progress-windows N\n"
    "                    arm the progress watchdog: a run with no channel\n"
    "                    commits but growing stall counts for N consecutive\n"
    "                    windows faults with a craft-trace blame chain\n"
    "  --quiet           suppress the human-readable report\n";

}  // namespace

int main(int argc, char** argv) try {
  using craft::chaos::CampaignConfig;
  CampaignConfig config;
  bool json = false;
  bool quiet = false;
  bool heartbeat = false;
  std::string json_path;
  std::string heartbeat_path;
  std::string cover_path;

  craft::cli::Parser p("craft_chaos", kUsage);
  bool quick = false;
  bool full = false;
  p.U64("--seed", &config.seed);
  p.Flag("--quick", &quick);
  p.Flag("--full", &full);
  p.U32("--trials", &config.trials);
  p.U32("--messages", &config.messages);
  p.StrList("--workload", &config.workloads);
  p.OptStr("--json", &json, &json_path);
  p.OptStr("--heartbeat", &heartbeat, &heartbeat_path);
  p.Str("--cover", &cover_path);
  p.U64("--pulse-period", &config.pulse.period_ps);
  p.U32("--progress-windows", &config.pulse.progress_windows);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  // A misspelt workload is a usage error, found before any campaign runs.
  for (const std::string& w : config.workloads) {
    const std::string err = craft::session::Validate({.design = "soc_gals_2x2", .workload = w});
    if (!err.empty()) return craft::cli::ExitCode(p.UsageError(err));
  }
  if (quick) config.scale = CampaignConfig::Scale::kQuick;
  if (full) config.scale = CampaignConfig::Scale::kFull;

  if (heartbeat) {
    if (config.pulse.period_ps == 0) config.pulse.period_ps = 10'000'000;
    config.pulse.heartbeat = craft::cli::OpenLog("craft_chaos", heartbeat_path, "a");
    if (config.pulse.heartbeat == nullptr) return 2;
  } else if (config.pulse.period_ps > 0 || config.pulse.progress_windows > 0) {
    // Watchdogs without a log: sample windows but stay quiet.
    if (config.pulse.period_ps == 0) config.pulse.period_ps = 10'000'000;
  }

  // Coverage piggy-backs on the campaign: every run arms the cover registry
  // and is collected under its design-qualified campaign label.
  craft::cover::Database cover_db;
  if (!cover_path.empty()) config.cover = &cover_db;

  const auto results = craft::chaos::RunCampaigns(config);
  const unsigned failures = craft::chaos::FailureCount(results);

  if (!cover_path.empty() &&
      !craft::cli::Emit("craft_chaos", cover_path, craft::cover::FormatJson(cover_db)))
    return 2;

  // With --json to stdout, the JSON document must be the only thing there.
  std::FILE* text_out = (json && json_path.empty()) ? stderr : stdout;
  if (!quiet) {
    const std::string text = craft::chaos::FormatText(config, results);
    std::fputs(text.c_str(), text_out);
  } else if (failures > 0) {
    for (const auto& c : results)
      for (const auto& f : c.failures)
        std::fprintf(text_out, "craft_chaos: %s/%s: %s\n", c.design.c_str(),
                     c.mode.c_str(), f.c_str());
  }

  if (json && !craft::cli::Emit("craft_chaos", json_path,
                                 craft::chaos::FormatJson(config, results)))
    return 2;
  craft::cli::CloseLog(config.pulse.heartbeat);
  return failures > 0 ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_chaos: %s\n", e.what());
  return 1;
}
