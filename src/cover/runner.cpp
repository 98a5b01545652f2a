#include "cover/runner.hpp"

#include <algorithm>

#include "kernel/rng.hpp"
#include "session/session.hpp"

namespace craft::cover {

namespace {

/// The corruption plan `craft_cover run --chaos=corrupt` arms on the LI
/// pipeline harness: one fault of each kind along its flit link, spaced
/// through the steady stream, so the depacketizer's discard / orphan /
/// head-resync bins are reachable in a single run.
FaultPlan PipelineCorruptPlan(std::uint64_t seed, unsigned messages) {
  FaultPlan plan;
  plan.seed = seed;
  Rng r(seed * 1000003ull + 7);
  const std::uint64_t flits = 2ull * messages;
  const CorruptionFault::Kind kinds[] = {CorruptionFault::Kind::kBitFlip,
                                         CorruptionFault::Kind::kDrop,
                                         CorruptionFault::Kind::kDuplicate};
  std::uint64_t index = 4;
  for (const auto kind : kinds) {
    CorruptionFault f;
    f.channel = session::kLiLinkChannel;
    f.kind = kind;
    // Spaced appointments in increasing commit order, well inside the stream.
    index += 2 + r.NextBelow(std::max<std::uint64_t>(flits / 4, 2));
    f.commit_index = std::min<std::uint64_t>(index, flits - 4);
    f.bit = static_cast<unsigned>(r.NextBelow(session::kLiFlitBits));
    plan.corruptions.push_back(f);
  }
  return plan;
}

}  // namespace

std::string RunDesign(const std::string& design, const RunOptions& opt,
                      Database* db) {
  if (opt.parallelism < 1) return "parallelism must be >= 1";
  if (!opt.chaos.empty() && opt.chaos != "latency" && opt.chaos != "corrupt")
    return "unknown chaos mode '" + opt.chaos + "' (want latency or corrupt)";

  session::Spec spec;
  const std::size_t colon = design.find(':');
  spec.design = design.substr(0, colon);
  if (colon != std::string::npos) spec.workload = design.substr(colon + 1);
  spec.parallelism = opt.parallelism;
  spec.messages = std::max(16u, opt.messages);
  spec.stats = true;
  spec.cover = true;
  if (const std::string err = session::Validate(spec); !err.empty()) return err;
  const session::Kind kind = session::Find(spec.design)->kind;
  if (opt.chaos == "latency") spec.faults = session::LatencyPlan(kind, opt.seed);
  if (opt.chaos == "corrupt") {
    if (kind != session::Kind::kBoundedHarness)
      return "chaos mode 'corrupt' is only supported for li_pipeline";
    spec.faults = PipelineCorruptPlan(opt.seed, spec.messages);
  }

  RunInfo info;
  info.design = design;
  info.seed = opt.seed;
  info.parallelism = opt.parallelism;
  info.chaos = opt.chaos;
  info.id = MakeRunId(design, opt.seed, opt.parallelism, opt.chaos);
  if (db->runs.find(info.id) != db->runs.end())
    return "run '" + info.id + "' already present in database";

  session::Session s(spec);
  const session::Outcome out = s.Run();
  info.horizon_ps = s.sim().now();
  Collect(s.sim(), info, db);
  // A corruption run legitimately ends in a detection, not a clean sink;
  // every other run must complete.
  if (opt.chaos != "corrupt" && !out.ok)
    return design + " run failed: " +
           (out.error.empty() ? "workload did not complete" : out.error);
  return "";
}

}  // namespace craft::cover
