// Coverage workload runner: runs one session::Catalog() design with the
// cover registry armed and harvests the run into a Database. This is what
// `craft_cover run` and the CI coverage job call; tests reuse it to check
// fingerprint determinism across parallelism levels and chaos seeds.
#pragma once

#include <cstdint>
#include <string>

#include "cover/cover.hpp"

namespace craft::cover {

/// One workload execution request.
struct RunOptions {
  std::uint64_t seed = 1;
  unsigned parallelism = 1;
  /// Chaos mode: "" (fault-free), "latency" (the design kind's seeded
  /// latency-only plan) or "corrupt" (scheduled flit corruptions on the LI
  /// pipeline harness's link).
  std::string chaos;
  unsigned messages = 64;  ///< li_pipeline traffic per run
};

/// Runs `design` (a catalog name; SoC entries also take a ":<workload>"
/// suffix, "soc_gals_2x2:dot", and run their first workload without one)
/// once under `opt` and collects its coverage into `db`. Returns "" on
/// success, else an error description (unknown design or workload,
/// unsupported chaos mode, duplicate run id, failed run).
std::string RunDesign(const std::string& design, const RunOptions& opt,
                      Database* db);

}  // namespace craft::cover
