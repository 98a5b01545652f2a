// craft-farm: the multi-process campaign orchestrator (DESIGN.md §14). The
// craft_* tools each run ONE trial per invocation; the farm expands a matrix
// spec (workload × seed × parallelism × chaos plan × instrument set) into a
// trial list and runs it across a worker pool of forked tool processes, with
// per-trial wall-clock timeouts, bounded retries with backoff, and fail-fast
// vs keep-going policies.
//
// The scheduler honors the same n-invariance contract as the kernel: every
// result is indexed by the trial's position in the spec list, merges happen
// in spec order, and nothing wall-clock-dependent leaks into the default
// manifest — so the merged outputs are byte-identical regardless of --jobs
// and completion order. Durations stream to the progress log (craft-pulse
// heartbeat style) and, only on request, into an explicitly n-variant
// manifest section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace craft::farm {

/// One trial: a child process to fork/exec. `argv[0]` is the executable
/// path; trials must not share artifact paths (they run concurrently).
struct TrialSpec {
  std::string id;    ///< stable, path-safe identity ("cover/li_pipeline/s1/p1/none")
  std::string kind;  ///< instrument that produced it ("cover", "chaos", ...)
  std::vector<std::string> argv;
  std::string artifact;  ///< primary output file, "" if none
  std::string log;       ///< child stdout+stderr capture, "" = inherit
};

/// Scheduling policy for one farm run.
struct Policy {
  unsigned jobs = 1;        ///< worker pool width (>= 1)
  double timeout_s = 0.0;   ///< per-attempt wall-clock limit; 0 = unlimited
  unsigned retries = 0;     ///< extra attempts after a failed/timed-out first
  double backoff_s = 0.0;   ///< sleep before retry k is backoff_s * k
  bool fail_fast = false;   ///< first failure cancels every queued trial
  std::FILE* progress = nullptr;  ///< one line per attempt, flushed; may be null
};

enum class TrialStatus { kOk, kFailed, kTimeout, kCancelled };

const char* ToString(TrialStatus s);

/// Outcome of one trial. `duration_s` is wall clock across all attempts —
/// n-variant by definition, never part of the deterministic manifest.
struct TrialResult {
  TrialStatus status = TrialStatus::kCancelled;
  int exit_code = -1;     ///< final attempt's exit code; -1 if signaled/cancelled
  unsigned attempts = 0;  ///< process launches (0 for cancelled-before-start)
  bool timed_out = false; ///< any attempt hit the wall-clock limit
  double duration_s = 0.0;
};

/// Worker count of a pool running `trials` trials at `jobs` (0 counts as
/// 1): never more workers than trials, so a huge --jobs starts no idle
/// threads. At least 1.
unsigned PoolWidth(unsigned jobs, std::size_t trials);

/// Runs every trial under `policy`; returns results indexed like `trials`
/// regardless of completion order. A timed-out attempt's process group is
/// SIGKILLed before the attempt counts as failed.
std::vector<TrialResult> Run(const std::vector<TrialSpec>& trials,
                             const Policy& policy);

}  // namespace craft::farm
