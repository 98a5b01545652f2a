#include "chaos/campaign.hpp"

#include "support/json.hpp"

#include <algorithm>
#include <sstream>

#include "kernel/kernel.hpp"
#include "kernel/rng.hpp"
#include "trace/trace.hpp"

namespace craft::chaos {

namespace {

std::string BlameTable(Simulator& sim) {
  return trace::FormatTable(trace::AttributeBackpressure(sim, 5));
}

void Fail(CampaignResult* c, const std::string& why) { c->failures.push_back(why); }

/// The latency-mode oracle: golden vs faulted (LI-invariance), repeat
/// (determinism), n=1 vs n=4 (parallel invariance). `compare_transfers`
/// extends LI-invariance to the full message set — valid for the pipeline
/// harness (fixed traffic); the SoC controller polls, so its per-channel
/// counts are schedule-dependent and only the output digest is invariant.
void JudgeLatency(CampaignResult* c, const RunRecord* golden, const RunRecord& f1,
                  const RunRecord& f1r, const RunRecord* f4, bool compare_transfers) {
  if (golden != nullptr && !golden->fp.ok)
    Fail(c, "golden run failed: " + golden->error);
  if (!f1.fp.ok) Fail(c, "latency-fault run failed: " + f1.error);
  if (golden != nullptr && golden->fp.ok && f1.fp.ok) {
    if (f1.fp.digest != golden->fp.digest)
      Fail(c, "LI-invariance: output digest diverged under latency-only faults");
    if (compare_transfers && f1.fp.transfers != golden->fp.transfers)
      Fail(c, "LI-invariance: per-channel message set changed under latency-only faults");
  }
  if (!(f1.fp == f1r.fp)) Fail(c, "determinism: repeat run fingerprint differs");
  if (f4 != nullptr && !(f1.fp == f4->fp))
    Fail(c, "n-invariance: SetParallelism(1) vs (4) fingerprint differs");
  c->passed = c->failures.empty();
}

}  // namespace

FaultPlan SocLatencyPlan(std::uint64_t seed) {
  return session::LatencyPlan(session::Kind::kSocWorkload, seed);
}

RunRecord Run(session::Spec spec, const std::string& label,
              cover::Database* cover, cover::RunInfo info) {
  const bool corrupting = spec.faults && !spec.faults->latency_only();
  spec.stats = true;  // the fingerprint's per-channel transfer counts
  spec.trace = spec.trace || corrupting;
  session::Session session(spec);
  Simulator& sim = session.sim();
  if (spec.pulse && spec.pulse->progress_windows > 0)
    sim.pulse().set_blame_provider(BlameTable);
  const session::Outcome out = session.Run();

  RunRecord rec;
  rec.label = label;
  rec.fp.ok = out.ok;
  rec.fp.cycles = out.cycles;
  rec.fp.digest = out.digest;
  rec.error = out.error;
  for (const auto& [name, c] : sim.stats().channels())
    rec.fp.transfers[name] = c.dequeues;
  for (const auto& [name, x] : sim.stats().crossings())
    rec.fp.transfers[name + "#crossing"] = x.transfers;
  if (spec.faults) {
    rec.latency = sim.chaos().latency_totals();
    rec.injections = sim.chaos().Injections();
    rec.detections = sim.chaos().Detections();
    rec.warnings = sim.chaos().config_warnings();
  }
  if (corrupting) rec.blame = BlameTable(sim);
  if (cover != nullptr) {
    info.horizon_ps = sim.now();
    cover::Collect(sim, info, cover);
  }
  return rec;
}

std::vector<CampaignResult> RunCampaigns(const CampaignConfig& config) {
  std::vector<CampaignResult> out;
  const unsigned msgs = std::max(16u, config.messages);
  const bool quick = config.scale == CampaignConfig::Scale::kQuick;
  const bool full = config.scale == CampaignConfig::Scale::kFull;

  // One campaign run of a catalog design (SoC entries run `workload`) at `n`
  // workers under `plan`; its coverage is filed as "<scope>/<label>", so
  // every run of every campaign gets a unique id.
  const auto run = [&](const std::string& scope, const std::string& design,
                       const std::string& workload, const FaultPlan* plan,
                       unsigned n, const std::string& label) {
    session::Spec spec;
    spec.design = design;
    spec.workload = workload;
    spec.parallelism = n;
    spec.messages = msgs;
    spec.cover = config.cover != nullptr;
    if (plan != nullptr) spec.faults = *plan;
    if (config.pulse.period_ps > 0) {
      PulseConfig p;
      p.period_ps = config.pulse.period_ps;
      p.progress_windows = config.pulse.progress_windows;
      p.throughput_windows = 0;  // campaigns stall on purpose; rate alerts off
      p.heartbeat = config.pulse.heartbeat;
      p.heartbeat_label = (workload.empty() ? design : workload) + "/" + label;
      spec.pulse = p;
      spec.trace = config.pulse.progress_windows > 0;  // for the blame chain
    }
    cover::RunInfo info;
    info.id = "chaos/s" + std::to_string(config.seed) + "/" + scope + "/" + label;
    info.design = scope + "/" + label;
    info.seed = config.seed;
    info.parallelism = n;
    info.chaos = "campaign";
    return Run(spec, label, config.cover, info);
  };

  {
    CampaignResult c{"li_pipeline", "latency"};
    const FaultPlan plan =
        session::LatencyPlan(session::Kind::kBoundedHarness, config.seed);
    c.runs.push_back(run(c.design, c.design, "", nullptr, 1, "golden-n1"));
    c.runs.push_back(run(c.design, c.design, "", &plan, 1, "latency-n1"));
    c.runs.push_back(run(c.design, c.design, "", &plan, 1, "latency-n1-repeat"));
    c.runs.push_back(run(c.design, c.design, "", &plan, 4, "latency-n4"));
    JudgeLatency(&c, &c.runs[0], c.runs[1], c.runs[2], &c.runs[3],
                 /*compare_transfers=*/true);
    out.push_back(std::move(c));
  }

  {
    // Corruption mode: one scheduled fault per trial, cycling through the
    // three kinds along the flit link. The oracle per trial: the fault was
    // applied (one injection) and something downstream caught it (at least
    // one detection) — silent propagation is the only failure.
    CampaignResult c{"li_pipeline", "corruption"};
    const unsigned trials =
        config.trials != 0 ? config.trials : (quick ? 6u : full ? 18u : 9u);
    for (unsigned k = 0; k < trials; ++k) {
      Rng r(config.seed * 1000003ull + k);
      CorruptionFault f;
      f.channel = session::kLiLinkChannel;
      f.kind = k % 3 == 0   ? CorruptionFault::Kind::kBitFlip
               : k % 3 == 1 ? CorruptionFault::Kind::kDrop
                            : CorruptionFault::Kind::kDuplicate;
      // The link carries 2 flits per message; aim inside the steady stream.
      f.commit_index = 4 + r.NextBelow(2ull * msgs - 12);
      f.bit = static_cast<unsigned>(r.NextBelow(session::kLiFlitBits));
      FaultPlan plan;
      plan.seed = config.seed;
      plan.corruptions = {f};
      const std::string label =
          "trial-" + std::to_string(k) + "-" + ToString(f.kind);
      RunRecord rec = run("li_pipeline_corrupt", c.design, "", &plan, 1, label);
      if (rec.injections.empty())
        Fail(&c, label + ": scheduled corruption was never applied");
      if (rec.detections.empty())
        Fail(&c, label + ": corruption propagated silently (no detection)");
      c.runs.push_back(std::move(rec));
    }
    c.passed = c.failures.empty();
    out.push_back(std::move(c));
  }

  // SoC reference designs x workloads, plus the GALS pipeline window.
  std::vector<std::pair<std::string, std::string>> soc_sel;
  const std::vector<std::string> full_workloads =
      config.workloads.empty()
          ? std::vector<std::string>{"vecmul", "dot", "dma_copy"}
          : config.workloads;
  const std::string base_workload =
      config.workloads.empty() ? "vecmul" : config.workloads.front();
  soc_sel.emplace_back("soc_gals_2x2", base_workload);
  if (!quick) soc_sel.emplace_back("soc_sync_2x2", base_workload);
  if (full) {
    for (const auto& w : full_workloads)
      if (w != base_workload) soc_sel.emplace_back("soc_gals_2x2", w);
    soc_sel.emplace_back("soc_gals_io_2x2", base_workload);
    soc_sel.emplace_back("soc_gals_3x3", base_workload);
  }
  const FaultPlan soc_plan = SocLatencyPlan(config.seed);
  for (const auto& [dname, wname] : soc_sel) {
    CampaignResult c{dname + ":" + wname, "latency"};
    // Only a GALS mesh has clock-domain groups for four workers to split.
    const bool gals = session::Find(dname)->soc->gals;
    c.runs.push_back(run(c.design, dname, wname, nullptr, 1, "golden-n1"));
    c.runs.push_back(run(c.design, dname, wname, &soc_plan, 1, "latency-n1"));
    c.runs.push_back(run(c.design, dname, wname, &soc_plan, 1, "latency-n1-repeat"));
    if (gals) c.runs.push_back(run(c.design, dname, wname, &soc_plan, 4, "latency-n4"));
    JudgeLatency(&c, &c.runs[0], c.runs[1], c.runs[2],
                 gals ? &c.runs[3] : nullptr, /*compare_transfers=*/false);
    out.push_back(std::move(c));
  }

  if (!quick) {
    // Endless stream, fixed window: determinism + n-invariance only — a
    // latency fault legitimately changes in-window throughput.
    CampaignResult c{"gals_pipeline", "latency"};
    const FaultPlan plan =
        session::LatencyPlan(session::Kind::kEndlessStream, config.seed);
    c.runs.push_back(run(c.design, c.design, "", &plan, 1, "latency-n1"));
    c.runs.push_back(run(c.design, c.design, "", &plan, 1, "latency-n1-repeat"));
    c.runs.push_back(run(c.design, c.design, "", &plan, 4, "latency-n4"));
    JudgeLatency(&c, nullptr, c.runs[0], c.runs[1], &c.runs[2],
                 /*compare_transfers=*/false);
    out.push_back(std::move(c));
  }

  return out;
}

unsigned FailureCount(const std::vector<CampaignResult>& results) {
  unsigned n = 0;
  for (const auto& c : results) n += static_cast<unsigned>(c.failures.size());
  return n;
}

namespace {

const char* ScaleName(CampaignConfig::Scale s) {
  switch (s) {
    case CampaignConfig::Scale::kQuick: return "quick";
    case CampaignConfig::Scale::kDefault: return "default";
    case CampaignConfig::Scale::kFull: return "full";
  }
  return "?";
}

std::uint64_t TransfersTotal(const Fingerprint& fp) {
  std::uint64_t t = 0;
  for (const auto& [name, n] : fp.transfers) t += n;
  return t;
}

std::uint64_t LatencyEventTotal(const ChaosEngine::LatencyTotals& t) {
  return t.channel_stall_cycles + t.crossing_holds + t.retimer_delays +
         t.wakeup_deferrals;
}

}  // namespace

std::string FormatText(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results) {
  std::ostringstream os;
  os << "craft-chaos campaign report (seed " << config.seed << ", scale "
     << ScaleName(config.scale) << ")\n\n";
  for (const auto& c : results) {
    os << "  [" << (c.passed ? "PASS" : "FAIL") << "] " << c.design << "/"
       << c.mode << "  runs=" << c.runs.size();
    if (c.mode == "corruption") {
      std::size_t injected = 0, detected = 0;
      for (const auto& r : c.runs) {
        injected += r.injections.size();
        if (!r.detections.empty()) ++detected;
      }
      os << " injected=" << injected << " detected=" << detected << "/"
         << c.runs.size();
    } else {
      ChaosEngine::LatencyTotals sum;
      for (const auto& r : c.runs) {
        sum.channel_stall_cycles += r.latency.channel_stall_cycles;
        sum.crossing_holds += r.latency.crossing_holds;
        sum.retimer_delays += r.latency.retimer_delays;
        sum.wakeup_deferrals += r.latency.wakeup_deferrals;
      }
      os << " stall_cycles=" << sum.channel_stall_cycles
         << " crossing_holds=" << sum.crossing_holds
         << " retimer_delays=" << sum.retimer_delays
         << " wakeup_deferrals=" << sum.wakeup_deferrals;
    }
    os << "\n";
    for (const auto& r : c.runs) {
      os << "      " << r.label << ": " << (r.fp.ok ? "ok" : "stopped")
         << " cycles=" << r.fp.cycles << " digest=0x" << std::hex << r.fp.digest
         << std::dec << " transfers=" << TransfersTotal(r.fp);
      if (c.mode == "corruption") {
        os << " detections=";
        if (r.detections.empty()) {
          os << "NONE";
        } else {
          for (std::size_t i = 0; i < r.detections.size() && i < 3; ++i)
            os << (i ? "," : "") << r.detections[i].kind;
          if (r.detections.size() > 3) os << ",+" << (r.detections.size() - 3);
        }
      }
      if (!r.error.empty() && c.mode != "corruption") os << "  (" << r.error << ")";
      os << "\n";
      for (const auto& w : r.warnings) os << "      warning: " << w << "\n";
    }
    for (const auto& f : c.failures) os << "      FAILURE: " << f << "\n";
    if (!c.passed) {
      for (const auto& r : c.runs) {
        if (!r.blame.empty()) {
          os << "      blame (" << r.label << "):\n";
          std::istringstream lines(r.blame);
          for (std::string line; std::getline(lines, line);)
            os << "        " << line << "\n";
          break;
        }
      }
    }
  }
  os << "\ncampaigns: " << results.size() << "  failures: " << FailureCount(results)
     << "\n";
  return os.str();
}

std::string FormatJson(const CampaignConfig& config,
                       const std::vector<CampaignResult>& results) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"craft-chaos-v1\",\n";
  os << "  \"seed\": " << config.seed << ",\n";
  os << "  \"scale\": \"" << ScaleName(config.scale) << "\",\n";
  os << "  \"messages\": " << std::max(16u, config.messages) << ",\n";
  os << "  \"campaigns\": [\n";
  for (std::size_t ci = 0; ci < results.size(); ++ci) {
    const auto& c = results[ci];
    os << "    {\"design\": \"" << json::Escape(c.design) << "\", \"mode\": \""
       << c.mode << "\", \"passed\": " << (c.passed ? "true" : "false") << ",\n";
    os << "     \"failures\": [";
    for (std::size_t i = 0; i < c.failures.size(); ++i)
      os << (i ? ", " : "") << "\"" << json::Escape(c.failures[i]) << "\"";
    os << "],\n     \"runs\": [\n";
    for (std::size_t ri = 0; ri < c.runs.size(); ++ri) {
      const auto& r = c.runs[ri];
      os << "      {\"label\": \"" << json::Escape(r.label) << "\", \"ok\": "
         << (r.fp.ok ? "true" : "false") << ", \"cycles\": " << r.fp.cycles
         << ", \"digest\": \"0x" << std::hex << r.fp.digest << std::dec
         << "\", \"transfers_total\": " << TransfersTotal(r.fp) << ",\n";
      os << "       \"latency_faults\": {\"channel_stall_cycles\": "
         << r.latency.channel_stall_cycles
         << ", \"crossing_holds\": " << r.latency.crossing_holds
         << ", \"retimer_delays\": " << r.latency.retimer_delays
         << ", \"wakeup_deferrals\": " << r.latency.wakeup_deferrals
         << ", \"total\": " << LatencyEventTotal(r.latency) << "},\n";
      const auto emit_events = [&os](const char* key, const auto& events) {
        os << "       \"" << key << "\": [";
        for (std::size_t i = 0; i < events.size(); ++i) {
          os << (i ? ", " : "") << "{\"t\": " << events[i].t << ", \"site\": \""
             << json::Escape(events[i].site) << "\", \"kind\": \""
             << json::Escape(events[i].kind) << "\", \"detail\": \""
             << json::Escape(events[i].detail) << "\"}";
        }
        os << "]";
      };
      emit_events("injections", r.injections);
      os << ",\n";
      emit_events("detections", r.detections);
      os << ",\n       \"warnings\": [";
      for (std::size_t i = 0; i < r.warnings.size(); ++i)
        os << (i ? ", " : "") << "\"" << json::Escape(r.warnings[i]) << "\"";
      os << "], \"error\": \"" << json::Escape(r.error) << "\"";
      if (!r.blame.empty())
        os << ", \"blame\": \"" << json::Escape(r.blame) << "\"";
      os << "}" << (ri + 1 < c.runs.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (ci + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"failures\": " << FailureCount(results) << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace craft::chaos
