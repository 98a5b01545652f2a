#include "session/session.hpp"

#include "kernel/kernel.hpp"
#include "kernel/report.hpp"
#include "soc/workloads.hpp"

namespace craft::session {

using namespace craft::literals;

namespace {

constexpr Time kSocDeadline = 50_ms;
constexpr Time kStreamHorizon = 300_us;

/// The workload called `name` ("" = the first), or nullptr.
const soc::Workload* FindWorkload(const std::vector<soc::Workload>& all,
                                  const std::string& name) {
  for (const soc::Workload& w : all)
    if (name.empty() || w.name == name) return &w;
  return nullptr;
}

/// Runs until the harness has delivered everything, or until its delivered
/// count has been flat for two 20 us chunks (~40k producer cycles): a drop
/// fault needs that bound on a hang, since a lost token legitimately stalls
/// the sink forever.
void RunQuiescent(Simulator& sim, const Design& design) {
  std::uint64_t last = ~0ull;
  int idle = 0;
  while (!design.done() && idle < 2) {
    sim.Run(20_us);
    const std::uint64_t p = design.delivered();
    if (p == last) {
      ++idle;
    } else {
      idle = 0;
      last = p;
    }
  }
}

}  // namespace

std::string Validate(const Spec& spec) {
  const Entry* e = Find(spec.design);
  if (e == nullptr) return "unknown design '" + spec.design + "' (see --list)";
  if (e->kind != Kind::kSocWorkload) {
    if (spec.workload.empty()) return "";
    return "design '" + spec.design + "' runs no workload";
  }
  if (FindWorkload(soc::AllWorkloads(), spec.workload) == nullptr)
    return "unknown workload '" + spec.workload + "'";
  return "";
}

Session::Session(const Spec& spec) : spec_(spec), entry_(Find(spec.design)) {
  if (const std::string invalid = Validate(spec_); !invalid.empty()) CRAFT_ERROR(invalid);
  if (entry_->kind == Kind::kSocWorkload)
    spec_.workload = FindWorkload(soc::AllWorkloads(), spec_.workload)->name;
  sim_.set_mode(spec_.mode);
  if (spec_.parallelism >= 1) sim_.SetParallelism(spec_.parallelism);
  if (spec_.stats) sim_.stats().Enable();
  if (spec_.trace) sim_.trace_events().Enable();
  if (spec_.cover) sim_.cover().Enable();
  if (spec_.faults) sim_.chaos().Enable(*spec_.faults);
  if (spec_.pulse) sim_.pulse().Enable(*spec_.pulse);
  design_ = entry_->build(sim_, spec_);
}

Outcome Session::Run() {
  Outcome out;
  try {
    switch (entry_->kind) {
      case Kind::kSocWorkload: {
        const std::vector<soc::Workload> all = soc::AllWorkloads();
        const soc::WorkloadRun r = soc::RunWorkload(
            *design_->soc(), *FindWorkload(all, spec_.workload),
            spec_.horizon != 0 ? spec_.horizon : kSocDeadline);
        out.ok = r.ok;
        out.cycles = r.cycles;
        out.error = r.error;
        break;
      }
      case Kind::kBoundedHarness:
        RunQuiescent(sim_, *design_);
        break;
      case Kind::kEndlessStream:
        sim_.RunUntil(spec_.horizon != 0 ? spec_.horizon : kStreamHorizon);
        out.ok = true;
        break;
    }
  } catch (const SimError& e) {
    out.ok = false;
    out.error = e.what();
    out.raised = true;
  }
  if (entry_->kind == Kind::kBoundedHarness) {
    out.cycles = design_->cycles();
    out.ok = design_->done() && !out.raised;
    if (!design_->done() && !out.raised) {
      out.error = "sink stalled at " + std::to_string(design_->delivered()) +
                  "/" + std::to_string(spec_.messages) + " messages";
    }
  }
  out.digest = design_->digest();
  // Under a corrupting plan a failed run is a detection in its own right:
  // the fault surfaced as a diverged check, a raised error or a shortfall.
  if (!out.ok && spec_.faults && !spec_.faults->latency_only()) {
    const char* kind = entry_->kind == Kind::kSocWorkload ? "golden-divergence"
                       : out.raised                       ? "sim-error"
                                                          : "shortfall";
    sim_.chaos().ReportDetection("campaign", kind, out.error);
  }
  return out;
}

}  // namespace craft::session
