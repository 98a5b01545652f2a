#include "kernel/cover.hpp"

#include "kernel/report.hpp"
#include "kernel/simulator.hpp"
#include "kernel/stats.hpp"

namespace craft {

void CoverRegistry::Enable(const CoverConfig& cfg) {
  CRAFT_ASSERT(sim_ != nullptr, "CoverRegistry is not attached to a Simulator");
  CRAFT_ASSERT(!sim_->started(),
               "sim.cover().Enable() must run before the first Run()");
  CRAFT_ASSERT(channels_.empty() && packetizers_.empty(),
               "sim.cover().Enable() must run before elaborating the design");
  CRAFT_ASSERT(cfg.high_den > 0 && cfg.high_num > 0 &&
                   cfg.high_num <= cfg.high_den,
               "cover high-band threshold must be a fraction in (0, 1]");
  enabled_ = true;
  cfg_ = cfg;
  // The collector derives most bins from the stats counters (rejects,
  // stall cycles, latency histograms, crossing pauses), so coverage
  // implies telemetry — both are pre-elaboration switches.
  sim_->stats().Enable();
}

CoverChannelPoint* CoverRegistry::RegisterChannel(const std::string& name,
                                                  std::size_t capacity) {
  if (!enabled_) return nullptr;
  CoverChannelPoint& p = channels_[name];
  p.capacity_ = capacity == 0 ? 1 : capacity;
  // Smallest occupancy counting as "high": ceil(cap * num / den), clamped
  // into [1, cap] so every capacity yields a well-formed band order.
  std::size_t thr =
      (p.capacity_ * cfg_.high_num + cfg_.high_den - 1) / cfg_.high_den;
  if (thr == 0) thr = 1;
  if (thr > p.capacity_) thr = p.capacity_;
  p.high_threshold_ = thr;
  return &p;
}

CoverPacketizerPoint* CoverRegistry::RegisterPacketizer(
    const std::string& name, std::size_t flits_per_message,
    bool is_packetizer) {
  if (!enabled_) return nullptr;
  CoverPacketizerPoint& p = packetizers_[name];
  p.flits_per_message_ = flits_per_message == 0 ? 1 : flits_per_message;
  p.is_packetizer_ = is_packetizer;
  return &p;
}

}  // namespace craft
