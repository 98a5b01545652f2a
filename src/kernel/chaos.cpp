#include "kernel/chaos.hpp"

#include <algorithm>
#include <tuple>

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"

namespace craft {

namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void ChaosEngine::Enable(const FaultPlan& plan) {
  CRAFT_ASSERT(channels_.empty() && crossings_.empty() && retimers_.empty() &&
                   clocks_.empty(),
               "chaos().Enable(plan) must be called before elaboration");
  enabled_ = true;
  plan_ = plan;
}

Time ChaosEngine::Now() const { return sim_ != nullptr ? sim_->now() : 0; }

std::uint64_t ChaosEngine::PointSeed(const std::string& name,
                                     std::uint64_t salt) const {
  // Mixing the site name into the seed gives every point an independent
  // stream: two channels never share draws, and adding a point does not
  // shift any other point's sequence (the property that keeps campaigns
  // comparable across design edits).
  return plan_.seed ^ (Fnv1a(name) + 0x9e3779b97f4a7c15ull * (salt + 1));
}

ChaosChannelPoint* ChaosEngine::RegisterChannel(const std::string& name,
                                                bool flippable) {
  if (!enabled_) return nullptr;
  std::vector<CorruptionFault> faults;
  for (const CorruptionFault& f : plan_.corruptions) {
    if (f.channel != name) continue;
    if (f.kind == CorruptionFault::Kind::kBitFlip && !flippable) {
      warnings_.push_back("bitflip on '" + name +
                          "' skipped: payload type has no ChaosFlip support");
      continue;
    }
    faults.push_back(f);
  }
  const bool stalls =
      plan_.channel_valid_stall_prob > 0.0 || plan_.channel_ready_stall_prob > 0.0;
  if (!stalls && faults.empty()) return nullptr;

  ChaosChannelPoint& p = channels_[name];
  p.engine_ = this;
  p.name_ = name;
  p.valid_prob_ = plan_.channel_valid_stall_prob;
  p.ready_prob_ = plan_.channel_ready_stall_prob;
  p.rng_ = Rng(PointSeed(name, 1));
  std::sort(faults.begin(), faults.end(),
            [](const CorruptionFault& a, const CorruptionFault& b) {
              return a.commit_index < b.commit_index;
            });
  p.faults_ = std::move(faults);
  return &p;
}

ChaosCrossingPoint* ChaosEngine::RegisterCrossing(const std::string& name) {
  if (!enabled_ || plan_.crossing_pause_prob <= 0.0) return nullptr;
  ChaosCrossingPoint& p = crossings_[name];
  p.prob_ = plan_.crossing_pause_prob;
  p.max_cycles_ = std::max(1u, plan_.crossing_pause_max_cycles);
  p.enq_rng_ = Rng(PointSeed(name, 2));
  p.deq_rng_ = Rng(PointSeed(name, 3));
  return &p;
}

ChaosRetimerPoint* ChaosEngine::RegisterRetimer(const std::string& name) {
  if (!enabled_ || plan_.retimer_delay_prob <= 0.0) return nullptr;
  ChaosRetimerPoint& p = retimers_[name];
  p.prob_ = plan_.retimer_delay_prob;
  p.max_cycles_ = std::max(1u, plan_.retimer_delay_max_cycles);
  p.rng_ = Rng(PointSeed(name, 4));
  return &p;
}

ChaosClockPoint* ChaosEngine::RegisterClock(const std::string& name) {
  if (!enabled_ || plan_.wakeup_delay_prob <= 0.0) return nullptr;
  if (sim_ != nullptr && sim_->mode() == SimMode::kSignalAccurate) {
    // A signal-accurate thread's wait() is a clock state of the HLS FSM: a
    // late wake holds valid/ready across an extra edge, which duplicates or
    // loses a handshake instead of only adding latency.
    warnings_.push_back("wakeup deferral on '" + name +
                        "' skipped: signal-accurate threads are FSM states, "
                        "a late wake would break the valid/ready handshake");
    return nullptr;
  }
  ChaosClockPoint& p = clocks_[name];
  p.prob_ = plan_.wakeup_delay_prob;
  p.rng_ = Rng(PointSeed(name, 5));
  return &p;
}

void ChaosEngine::ReportInjection(const std::string& site, const std::string& kind,
                                  const std::string& detail) {
  const Time t = Now();
  std::lock_guard<std::mutex> lock(log_mu_);
  injections_.push_back(ChaosInjection{t, site, kind, detail});
}

void ChaosEngine::ReportDetection(const std::string& site, const std::string& kind,
                                  const std::string& detail) {
  const Time t = Now();
  std::lock_guard<std::mutex> lock(log_mu_);
  detections_.push_back(ChaosDetection{t, site, kind, detail});
}

std::vector<ChaosInjection> ChaosEngine::Injections() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<ChaosInjection> out = injections_;
  std::sort(out.begin(), out.end(), [](const ChaosInjection& a, const ChaosInjection& b) {
    return std::tie(a.t, a.site, a.kind, a.detail) <
           std::tie(b.t, b.site, b.kind, b.detail);
  });
  return out;
}

std::vector<ChaosDetection> ChaosEngine::Detections() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<ChaosDetection> out = detections_;
  std::sort(out.begin(), out.end(), [](const ChaosDetection& a, const ChaosDetection& b) {
    return std::tie(a.t, a.site, a.kind, a.detail) <
           std::tie(b.t, b.site, b.kind, b.detail);
  });
  return out;
}

ChaosEngine::LatencyTotals ChaosEngine::latency_totals() const {
  LatencyTotals t;
  for (const auto& [name, p] : channels_) t.channel_stall_cycles += p.stall_events();
  for (const auto& [name, p] : crossings_) t.crossing_holds += p.holds();
  for (const auto& [name, p] : retimers_) t.retimer_delays += p.delays();
  for (const auto& [name, p] : clocks_) t.wakeup_deferrals += p.deferrals();
  return t;
}

ChaosChannelPoint::Commit ChaosChannelPoint::OnCommit(unsigned* bit) {
  const std::uint64_t idx = commit_seq_++;
  while (next_fault_ < faults_.size() && faults_[next_fault_].commit_index < idx) {
    ++next_fault_;
  }
  if (next_fault_ >= faults_.size() || faults_[next_fault_].commit_index != idx) {
    return Commit::kNone;
  }
  const CorruptionFault& f = faults_[next_fault_++];
  ++corruptions_applied_;
  engine_->ReportInjection(name_, ToString(f.kind),
                           "commit #" + std::to_string(idx) +
                               (f.kind == CorruptionFault::Kind::kBitFlip
                                    ? ", bit " + std::to_string(f.bit)
                                    : std::string()));
  switch (f.kind) {
    case CorruptionFault::Kind::kBitFlip:
      *bit = f.bit;
      return Commit::kBitFlip;
    case CorruptionFault::Kind::kDrop:
      return Commit::kDrop;
    case CorruptionFault::Kind::kDuplicate:
      return Commit::kDuplicate;
  }
  return Commit::kNone;
}

}  // namespace craft
