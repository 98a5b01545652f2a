// craft-chaos campaigns: seeded fault-injection runs over the shipped
// reference designs plus the LI pipeline harness, with three oracles
// (DESIGN.md §11):
//
//  * determinism — the same plan, seed and parallelism must reproduce the
//    run fingerprint (output digest, cycle count, per-channel transfer
//    counts) bit for bit;
//  * LI-invariance — latency-only faults (stalls, pause storms, retimer
//    wobble, deferred wakeups) must leave the workload outputs and message
//    sets identical to a fault-free golden run, and identical between
//    SetParallelism(1) and (4);
//  * corruption detection — every injected flit flip / drop / duplication
//    must surface at least one detection event (framing checks, payload
//    oracle, golden divergence, hang) and a craft-trace blame attribution,
//    never propagate silently.
//
// Every run goes through one session::Session (chaos::Run); a campaign only
// picks the catalog designs, plans and worker counts, and judges the records.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cover/cover.hpp"
#include "kernel/chaos.hpp"
#include "kernel/time.hpp"
#include "session/session.hpp"

namespace craft::chaos {

/// Optional craft-pulse hookup for campaign runs (the nightly heartbeat):
/// with period_ps > 0 every campaign simulator samples pulse windows at that
/// period, prints one heartbeat line per window to `heartbeat` (labelled by
/// run), and — when progress_windows > 0 — arms the progress watchdog with a
/// craft-trace backpressure blame provider, so a livelocked campaign faults
/// with a blame chain instead of idling out.
struct CampaignPulse {
  Time period_ps = 0;  ///< 0 disables the hookup entirely
  unsigned progress_windows = 0;
  std::FILE* heartbeat = nullptr;
};

/// What a run *is*, for equality purposes. Latency faults may legally change
/// `cycles`, so the LI-invariance oracle compares only `ok` + `digest` (+
/// `transfers` for the pipeline harness, whose message set is schedule-
/// independent); determinism and n-invariance compare every field.
struct Fingerprint {
  bool ok = false;
  std::uint64_t cycles = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over outputs (sink stream / GM image)
  std::map<std::string, std::uint64_t> transfers;  ///< per-channel dequeues

  bool operator==(const Fingerprint&) const = default;
};

/// One simulation run of a campaign, with everything the report needs.
struct RunRecord {
  std::string label;
  Fingerprint fp;
  std::string error;  ///< SimError text / shortfall note, empty when clean
  ChaosEngine::LatencyTotals latency;
  std::vector<ChaosInjection> injections;
  std::vector<ChaosDetection> detections;
  std::vector<std::string> warnings;  ///< plan entries that could not apply
  std::string blame;  ///< craft-trace backpressure table (corruption runs)
};

/// One (design, mode) campaign: the runs executed plus the oracle verdict.
struct CampaignResult {
  std::string design;
  std::string mode;  ///< "latency" or "corruption"
  bool passed = true;
  std::vector<std::string> failures = {};  ///< human-readable oracle violations
  std::vector<RunRecord> runs = {};
};

struct CampaignConfig {
  enum class Scale { kQuick, kDefault, kFull };
  std::uint64_t seed = 1;
  Scale scale = Scale::kDefault;
  unsigned messages = 64;   ///< pipeline harness traffic per run
  unsigned trials = 0;      ///< corruption trials; 0 = scale default
  std::vector<std::string> workloads;  ///< SoC workload filter; empty = scale default
  CampaignPulse pulse;      ///< live telemetry / watchdog hookup (off by default)
  /// When set, every run's coverage is collected into it under the run id
  /// "chaos/s<seed>/<campaign>/<label>".
  cover::Database* cover = nullptr;
};

/// The latency-only plan a campaign arms on the SoC and GALS designs:
/// session::LatencyPlan for a SoC workload.
FaultPlan SocLatencyPlan(std::uint64_t seed);

/// Runs `spec` once through a session::Session and harvests the record: the
/// fingerprint (stats are armed for its transfer counts), the chaos logs
/// and, under a corrupting plan, the craft-trace backpressure blame table
/// (trace events are armed for it). With pulse's
/// progress watchdog armed, a firing carries the same blame chain. With
/// `cover` set, the run's coverage is collected into it as `info`, its
/// horizon filled in, while the simulator is still alive.
RunRecord Run(session::Spec spec, const std::string& label,
              cover::Database* cover = nullptr, cover::RunInfo info = {});

/// Runs every campaign selected by `config`. Deterministic per
/// (seed, scale, messages, trials, workloads).
std::vector<CampaignResult> RunCampaigns(const CampaignConfig& config);

unsigned FailureCount(const std::vector<CampaignResult>& results);

std::string FormatText(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results);

/// Schema "craft-chaos-v1" (DESIGN.md §11).
std::string FormatJson(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results);

}  // namespace craft::chaos
