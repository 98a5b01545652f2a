// craft_pulse: live time-series telemetry over the catalog designs. Runs
// one session::Catalog() design with the craft-pulse sampler enabled, arms
// the throughput watchdog with craft-prove's static channel bounds, and
// emits the sampled timeline as craft-pulse-v1 JSON and/or OpenMetrics text
// — the dynamic counterpart to craft_prove's static report and craft_stats'
// end-of-run aggregates.
//
// Exits non-zero when the built-in cross-check fails: windowed series must
// reconcile with the craft-stats end-of-run aggregates (on endless streams
// exactly: base + deltas == aggregate at a boundary-aligned horizon, mean
// windowed rate within 1% of the aggregate rate), fault-free runs must keep
// every watchdog silent, and --chaos runs on endless streams must fire the
// throughput watchdog.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "analyze/analyze.hpp"
#include "kernel/kernel.hpp"
#include "pulse/report.hpp"
#include "session/session.hpp"
#include "support/cli.hpp"

namespace {

using namespace craft;

struct Options {
  std::string design = "noc_chain";
  std::string workload;
  Time period_ps = 1'000'000;  // 1 us
  std::uint64_t windows = 50;
  std::size_t capacity = 512;
  unsigned parallelism = 0;
  bool parallelism_set = false;
  unsigned progress_windows = 0;
  bool chaos = false;
  std::uint64_t seed = 1;
  bool json = false;
  std::string json_path;
  bool openmetrics = false;
  std::string om_path;
  bool heartbeat = false;
  std::string heartbeat_path;
  bool quiet = false;
};

constexpr const char kUsage[] =
    "usage: craft_pulse [--design NAME] [--workload NAME] [--period PS]\n"
    "                   [--windows N] [--capacity N] [--parallelism N]\n"
    "                   [--progress-windows N] [--chaos] [--seed S]\n"
    "                   [--json[=FILE]] [--openmetrics[=FILE]]\n"
    "                   [--heartbeat[=FILE]] [--list] [--quiet]\n"
    "\n"
    "  --design NAME       any design --list prints (default noc_chain)\n"
    "  --workload NAME     SoC designs only: the SoC workload to drive\n"
    "                      (default: the first, vecmul)\n"
    "  --period PS         sampling period in picoseconds (default 1000000)\n"
    "  --windows N         run for N whole windows (default 50)\n"
    "  --capacity N        series ring capacity (default 512)\n"
    "  --parallelism N     craft-par worker count, N >= 1 (default 1)\n"
    "  --progress-windows N arm the progress watchdog (default: off)\n"
    "  --chaos             inject a seeded latency stall storm; the run\n"
    "                      then MUST trip the throughput watchdog\n"
    "  --seed S            chaos seed (default 1)\n"
    "  --json[=FILE]       emit the craft-pulse-v1 timeline\n"
    "  --openmetrics[=FILE] emit the OpenMetrics exposition\n"
    "  --heartbeat[=FILE]  one liveness line per window (default stderr)\n"
    "  --list              list available designs and exit\n"
    "  --quiet             suppress the human-readable summary\n";

/// Static throughput bounds for the watchdog: one tokens/ps bound per
/// channel, plus the text naming the limiting structure in alerts — the
/// slowest positive-rate cycle when the graph has one, else the tightest
/// channel bound (straight pipelines have no cycles to blame).
std::string ArmFromAnalysis(Simulator& sim, const analyze::Analysis& a) {
  std::map<std::string, double> bounds;
  for (const analyze::ChannelBound& cb : a.channels) {
    if (cb.tokens_per_ps > 0.0) bounds[cb.channel] = cb.tokens_per_ps;
  }
  std::string critical;
  const analyze::CycleBound* worst = nullptr;
  for (const analyze::CycleBound& c : a.cycles) {
    if (c.tokens_per_ps <= 0.0) continue;
    if (worst == nullptr || c.tokens_per_ps < worst->tokens_per_ps) worst = &c;
  }
  if (worst != nullptr) {
    for (std::size_t i = 0; i < worst->nodes.size(); ++i) {
      critical += (i ? " -> " : "") + worst->nodes[i];
    }
  } else {
    const analyze::ChannelBound* tight = nullptr;
    for (const analyze::ChannelBound& cb : a.channels) {
      if (cb.tokens_per_ps <= 0.0) continue;
      if (tight == nullptr || cb.tokens_per_ps < tight->tokens_per_ps)
        tight = &cb;
    }
    if (tight != nullptr) {
      critical = tight->channel + " (" + tight->limited_by + ")";
    }
  }
  sim.pulse().ArmThroughput(bounds, critical);
  return critical;
}

/// Reconciles the sampled series against the end-of-run aggregates. At a
/// boundary-aligned horizon with no Stop() the newest cumulative sample IS
/// the aggregate (exact_expected); a workload run that Stop()s mid-window
/// may leave unsampled tail events, so only <= and the mean-rate tolerance
/// are enforced there.
bool CrossCheck(const Simulator& sim, bool exact_expected, bool quiet,
                double* max_rel_err) {
  const PulseRegistry& reg = sim.pulse();
  const double elapsed = static_cast<double>(sim.now());
  const double span = static_cast<double>(reg.windows_total()) *
                      static_cast<double>(reg.config().period_ps);
  *max_rel_err = 0.0;
  bool ok = true;
  for (const auto& [name, s] : reg.channels()) {
    const ChannelStats& agg = sim.stats().channels().at(name);
    const std::uint64_t sampled = s.dequeues.last();
    if (sampled > agg.dequeues || (exact_expected && sampled != agg.dequeues)) {
      std::fprintf(stderr,
                   "craft_pulse: channel %s: sampled dequeues %" PRIu64
                   " disagree with aggregate %" PRIu64 "\n",
                   name.c_str(), sampled, agg.dequeues);
      ok = false;
    }
    // Mean windowed rate (base + all in-window deltas over the sampled span)
    // vs the aggregate end-of-run rate. Only meaningful when the run ended on
    // a boundary: a Stop() mid-window leaves a tail the sampler never saw.
    if (!exact_expected || agg.dequeues == 0 || elapsed <= 0.0 || span <= 0.0)
      continue;
    const double windowed = static_cast<double>(sampled) / span;
    const double aggregate = static_cast<double>(agg.dequeues) / elapsed;
    const double rel = std::abs(windowed - aggregate) / aggregate;
    if (rel > *max_rel_err) *max_rel_err = rel;
    if (rel > 0.01) {
      std::fprintf(stderr,
                   "craft_pulse: channel %s: mean windowed rate %.6g deviates "
                   "%.2f%% from aggregate rate %.6g\n",
                   name.c_str(), windowed, rel * 100.0, aggregate);
      ok = false;
    }
  }
  if (!quiet && ok) {
    std::fprintf(stderr,
                 "craft_pulse: cross-check ok: %zu channel series reconcile "
                 "with aggregates (max rate deviation %.4f%%)\n",
                 reg.channels().size(), *max_rel_err * 100.0);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) try {
  Options opt;
  std::uint64_t capacity = 512;

  cli::Parser p("craft_pulse", kUsage);
  p.Action("--list", [] {
    for (const auto& e : session::Catalog()) std::printf("%s\n", e.name.c_str());
  });
  p.Str("--design", &opt.design);
  p.Str("--workload", &opt.workload);
  p.U64("--period", &opt.period_ps);
  p.U64("--windows", &opt.windows);
  p.U64("--capacity", &capacity);
  p.U32("--parallelism", &opt.parallelism, &opt.parallelism_set);
  p.U32("--progress-windows", &opt.progress_windows);
  p.Flag("--chaos", &opt.chaos);
  p.U64("--seed", &opt.seed);
  p.OptStr("--json", &opt.json, &opt.json_path);
  p.OptStr("--openmetrics", &opt.openmetrics, &opt.om_path);
  p.OptStr("--heartbeat", &opt.heartbeat, &opt.heartbeat_path);
  p.Flag("--quiet", &opt.quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);
  opt.capacity = static_cast<std::size_t>(capacity);

  if (opt.period_ps == 0 || opt.windows == 0 || opt.capacity == 0) {
    std::fprintf(stderr, "craft_pulse: --period/--windows/--capacity must be positive\n");
    return 2;
  }
  if (opt.parallelism_set && opt.parallelism == 0) {
    return cli::ExitCode(p.UsageError("--parallelism must be >= 1"));
  }
  // The run's horizon is period x windows; a product past 2^64 - 1 would
  // wrap to a short (or zero) run that still reports success.
  if (opt.windows > kTimeNever / opt.period_ps) {
    return cli::ExitCode(p.UsageError("--period x --windows overflows the 64-bit ps horizon"));
  }

  // SoC workloads run to their check within the horizon; endless streams
  // idle at saturation until the boundary-aligned horizon; the bounded
  // harness runs until it quiesces.
  session::Spec spec;
  spec.design = opt.design;
  spec.workload = opt.workload;
  spec.parallelism = opt.parallelism;
  spec.horizon = opt.period_ps * opt.windows;
  if (const std::string err = session::Validate(spec); !err.empty()) {
    std::fprintf(stderr, "craft_pulse: %s\n", err.c_str());
    return 2;
  }
  if (opt.chaos) {
    // Latency-only stall storm: LI-safe (no corruption), but aggressive
    // enough to collapse every saturating channel far below half its static
    // bound, so the throughput watchdog MUST fire.
    FaultPlan plan;
    plan.seed = opt.seed;
    plan.channel_valid_stall_prob = 0.45;
    plan.channel_ready_stall_prob = 0.45;
    plan.crossing_pause_prob = 0.60;
    plan.crossing_pause_max_cycles = 12;
    plan.retimer_delay_prob = 0.20;
    plan.retimer_delay_max_cycles = 4;
    spec.faults = plan;
  }
  PulseConfig pcfg;
  pcfg.period_ps = opt.period_ps;
  pcfg.capacity = opt.capacity;
  pcfg.progress_windows = opt.progress_windows;
  pcfg.heartbeat_label = opt.design;
  if (opt.heartbeat) {
    pcfg.heartbeat = cli::OpenLog("craft_pulse", opt.heartbeat_path, "w");
    if (pcfg.heartbeat == nullptr) return 2;
  }
  spec.pulse = pcfg;

  session::Session s(spec);
  Simulator& sim = s.sim();
  // Only an endless stream saturates its channels for the whole horizon,
  // so only there are the rate watchdog and exact reconciliation promised;
  // SoC workloads are request/response traffic with idle phases, and both
  // they and the bounded harness Stop() mid-window.
  const bool saturating = s.entry().kind == session::Kind::kEndlessStream;
  std::string critical;
  if (saturating) critical = ArmFromAnalysis(sim, analyze::Analyze(sim.design_graph()));

  const session::Outcome out = s.Run();
  std::string workload_note;
  if (s.soc() != nullptr)
    workload_note = s.spec().workload + (out.ok ? " ok" : " FAILED: " + out.error);

  const PulseRegistry& reg = sim.pulse();
  double max_rel = 0.0;
  // An error the run raised cut it mid-window: nothing to reconcile.
  bool ok = !out.raised && CrossCheck(sim, /*exact_expected=*/saturating,
                                      opt.quiet, &max_rel);
  if (!out.ok) {
    if (s.soc() != nullptr) {
      std::fprintf(stderr, "craft_pulse: workload failed: %s\n",
                   workload_note.c_str());
    } else {
      std::fprintf(stderr, "craft_pulse: %s\n", out.error.c_str());
    }
    ok = false;
  }

  std::size_t throughput_alerts = 0;
  for (const PulseAlert& a : reg.alerts()) {
    if (a.watchdog == "throughput") ++throughput_alerts;
  }
  if (opt.chaos && saturating && throughput_alerts == 0) {
    std::fprintf(stderr,
                 "craft_pulse: chaos stall storm did not trip the throughput "
                 "watchdog (expected a collapse below the static bound)\n");
    ok = false;
  }
  if (!opt.chaos && !reg.alerts().empty()) {
    std::fprintf(stderr,
                 "craft_pulse: %zu watchdog alert(s) on a fault-free run:\n",
                 reg.alerts().size());
    for (const PulseAlert& a : reg.alerts()) {
      std::fprintf(stderr, "  %s\n", a.message.c_str());
    }
    ok = false;
  }

  if (!opt.quiet) {
    std::fprintf(stderr,
                 "craft_pulse: design=%s%s%s windows=%" PRIu64 " (dropped %" PRIu64
                 ") period=%" PRIu64 " ps parallelism=%u commits=%" PRIu64
                 " stall_cycles=%" PRIu64 " alerts=%zu\n",
                 opt.design.c_str(), workload_note.empty() ? "" : " workload=",
                 workload_note.c_str(), reg.windows_total(),
                 reg.windows_dropped_idle(), static_cast<std::uint64_t>(opt.period_ps),
                 sim.parallelism(), reg.kernel().commits.last(),
                 reg.kernel().stall_cycles.last(), reg.alerts().size());
    if (saturating && !critical.empty()) {
      std::fprintf(stderr, "craft_pulse: throughput watchdog armed; critical: %s\n",
                   critical.c_str());
    }
    for (const PulseAlert& a : reg.alerts()) {
      std::fprintf(stderr, "craft_pulse: ALERT %s\n", a.message.c_str());
    }
  }

  bool io_ok = true;
  if (opt.json && !cli::Emit("craft_pulse", opt.json_path, pulse::FormatTimelineJson(sim)))
    io_ok = false;
  if (opt.openmetrics &&
      !cli::Emit("craft_pulse", opt.om_path, pulse::FormatOpenMetrics(sim)))
    io_ok = false;
  cli::CloseLog(pcfg.heartbeat);
  if (!io_ok) return 2;
  return ok ? 0 : 1;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_pulse: %s\n", e.what());
  return 1;
}
