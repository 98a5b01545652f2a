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
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "kernel/chaos.hpp"
#include "kernel/time.hpp"
#include "soc/soc.hpp"

namespace craft::chaos {

/// Optional per-run callbacks for observers that need their registries armed
/// before elaboration and a snapshot after the run — the craft-cover glue,
/// without making the chaos library depend on src/cover. `pre_elaborate`
/// fires after the campaign's own Enable calls (stats/pulse/chaos), before
/// any module is constructed; `post_run` fires after the run's results are
/// harvested, while the Simulator is still alive. The label is the run's
/// campaign-local label ("golden-n1", "corrupt-drop", ...); callers that run
/// several designs qualify it themselves (RunCampaigns prefixes the design).
struct CampaignHooks {
  std::function<void(Simulator&)> pre_elaborate;
  std::function<void(Simulator&, const std::string& label)> post_run;
};

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
  CampaignHooks hooks;      ///< per-run observer callbacks (craft-cover glue)
};

/// The latency-only plan a campaign arms for the LI pipeline harness
/// (aggressive: every fault class at once) and for the SoC / GALS designs
/// (milder rates so faulted runs stay within the workload deadline).
FaultPlan PipelineLatencyPlan(std::uint64_t seed);
FaultPlan SocLatencyPlan(std::uint64_t seed);

/// Runs the LI pipeline harness (source -> retimer -> packetizer -> flit
/// link -> depacketizer -> pausible crossing -> checking sink) once.
/// `plan == nullptr` is the fault-free golden run; `pulse == nullptr` (or a
/// zero period) runs without live telemetry.
RunRecord RunLiPipeline(const FaultPlan* plan, unsigned parallelism,
                        unsigned messages, const std::string& label,
                        const CampaignPulse* pulse = nullptr,
                        const CampaignHooks* hooks = nullptr);

/// Runs one SoC workload under `cfg` with the fault plan armed. The digest
/// covers the full global-memory image after the golden check.
RunRecord RunSocWorkload(const soc::SocConfig& cfg, const std::string& workload,
                         const FaultPlan* plan, unsigned parallelism,
                         const std::string& label,
                         const CampaignPulse* pulse = nullptr,
                         const CampaignHooks* hooks = nullptr);

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
