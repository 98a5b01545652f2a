#include "kernel/pulse.hpp"

#include <cinttypes>

#include "kernel/parallel.hpp"
#include "kernel/process.hpp"
#include "kernel/report.hpp"
#include "kernel/simulator.hpp"
#include "kernel/stats.hpp"

namespace craft {

void PulseRegistry::Enable(const PulseConfig& cfg) {
  CRAFT_ASSERT(sim_ != nullptr, "PulseRegistry is not attached to a Simulator");
  CRAFT_ASSERT(!sim_->started(),
               "sim.pulse().Enable() must run before the first Run()");
  CRAFT_ASSERT(cfg.period_ps > 0, "pulse period must be positive");
  CRAFT_ASSERT(cfg.capacity > 0, "pulse ring capacity must be positive");
  enabled_ = true;
  cfg_ = cfg;
  period_ = cfg.period_ps;
  // The sampler reads the stats counters; without them every window would be
  // empty, so Enable() implies stats().Enable() (both pre-elaboration).
  sim_->stats().Enable();
  windows_.Init(cfg_.capacity);
  kernel_.commits.Init(cfg_.capacity);
  kernel_.stall_cycles.Init(cfg_.capacity);
  kernel_.delta_cycles.Init(cfg_.capacity);
  kernel_.timed_events.Init(cfg_.capacity);
  kernel_.dispatches.Init(cfg_.capacity);
  engine_.window_wall_ns.Init(cfg_.capacity);
  engine_.windows_run.Init(cfg_.capacity);
  // First boundary strictly after "now" (time 0 pre-run): boundaries are
  // absolute multiples of the period, so resuming a simulator mid-run keeps
  // the same grid.
  const Time now = sim_->now();
  next_boundary_ = (now / period_ + 1) * period_;
}

void PulseRegistry::ArmThroughput(
    const std::map<std::string, double>& bounds_tokens_per_ps,
    const std::string& critical_cycle) {
  CRAFT_ASSERT(enabled_, "ArmThroughput requires sim.pulse().Enable() first");
  for (const auto& [name, bound] : bounds_tokens_per_ps) {
    if (bound <= 0.0) continue;
    throughput_[name].bound_tokens_per_ps = bound;
  }
  critical_cycle_ = critical_cycle;
}

void PulseRegistry::SampleWindows(Time limit) {
  // First pending boundary always gets a real sample.
  SampleWindowAt(next_boundary_);
  next_boundary_ += period_;
  if (next_boundary_ >= limit) return;

  // Idle gap: every further boundary below `limit` is zero-delta (no event
  // fired between them — we are inside one scheduler step). Materialize at
  // most `capacity` of the newest ones (the older ones would be evicted
  // immediately anyway) and account the rest as dropped-idle. Zero-delta
  // windows never advance a watchdog streak (commits == 0 AND stalls == 0
  // leaves the progress streak unchanged; throughput skips windows with no
  // global commits), so dropping them is watchdog-neutral.
  std::uint64_t n = (limit - 1 - next_boundary_) / period_ + 1;
  const std::uint64_t keep =
      n < static_cast<std::uint64_t>(cfg_.capacity)
          ? n
          : static_cast<std::uint64_t>(cfg_.capacity);
  const std::uint64_t drop = n - keep;
  windows_dropped_idle_ += drop;
  windows_total_ += drop;
  next_boundary_ += drop * period_;
  for (std::uint64_t i = 0; i < keep; ++i) {
    SampleWindowAt(next_boundary_);
    next_boundary_ += period_;
  }
}

void PulseRegistry::SampleWindowAt(Time b) {
  const StatsRegistry& st = sim_->stats();
  std::uint64_t commits = 0;
  std::uint64_t stalls = 0;

  for (const auto& [name, ch] : st.channels()) {
    auto [it, inserted] = channels_.try_emplace(name);
    PulseChannelSeries& s = it->second;
    if (inserted) {
      s.start_window = windows_total_;
      s.kind = ch.kind;
      s.capacity = ch.capacity;
      s.period_ps = ch.period_ps;
      s.enqueues.Init(cfg_.capacity);
      s.dequeues.Init(cfg_.capacity);
      s.full_stall_cycles.Init(cfg_.capacity);
      s.empty_stall_cycles.Init(cfg_.capacity);
      s.rejects.Init(cfg_.capacity);
      s.occupancy_high_water.Init(cfg_.capacity);
    }
    s.enqueues.Append(ch.enqueues);
    s.dequeues.Append(ch.dequeues);
    s.full_stall_cycles.Append(ch.full_stall_cycles);
    s.empty_stall_cycles.Append(ch.empty_stall_cycles);
    s.rejects.Append(ch.push_rejects + ch.pop_rejects);
    s.occupancy_high_water.Append(ch.occupancy_high_water);
    commits += ch.dequeues;
    stalls += ch.full_stall_cycles + ch.empty_stall_cycles;
  }

  for (const auto& [name, cr] : st.crossings()) {
    auto [it, inserted] = crossings_.try_emplace(name);
    PulseCrossingSeries& s = it->second;
    if (inserted) {
      s.start_window = windows_total_;
      s.transfers.Init(cfg_.capacity);
      s.enq_sync_wait_cycles.Init(cfg_.capacity);
      s.deq_sync_wait_cycles.Init(cfg_.capacity);
      s.pause_events.Init(cfg_.capacity);
    }
    s.transfers.Append(cr.transfers);
    s.enq_sync_wait_cycles.Append(cr.enq_sync_wait_cycles);
    s.deq_sync_wait_cycles.Append(cr.deq_sync_wait_cycles);
    s.pause_events.Append(cr.enq_pause_events + cr.deq_pause_events);
    commits += cr.transfers;
  }

  for (const auto& [name, f] : st.fifos()) {
    auto [it, inserted] = fifos_.try_emplace(name);
    PulseFifoSeries& s = it->second;
    if (inserted) {
      s.start_window = windows_total_;
      s.pushes.Init(cfg_.capacity);
      s.pops.Init(cfg_.capacity);
      s.high_water.Init(cfg_.capacity);
    }
    s.pushes.Append(f.pushes);
    s.pops.Append(f.pops);
    s.high_water.Append(f.high_water);
  }

  for (const auto& p : sim_->processes()) {
    auto [it, inserted] = processes_.try_emplace(p->name());
    PulseProcessSeries& s = it->second;
    if (inserted) {
      s.start_window = windows_total_;
      s.dispatches.Init(cfg_.capacity);
    }
    s.dispatches.Append(p->stat_dispatches);
  }

  const std::uint64_t commits_delta = commits - kernel_.commits.last();
  const std::uint64_t stalls_delta = stalls - kernel_.stall_cycles.last();
  kernel_.commits.Append(commits);
  kernel_.stall_cycles.Append(stalls);
  kernel_.delta_cycles.Append(sim_->delta_count());
  kernel_.timed_events.Append(sim_->timed_fired());
  kernel_.dispatches.Append(sim_->dispatch_count());

  if (par::Engine* eng = sim_->engine_.get()) {
    if (engine_.worker_busy_ns.size() < eng->worker_count()) {
      engine_.worker_busy_ns.resize(eng->worker_count());
      for (auto& ws : engine_.worker_busy_ns) ws.Init(cfg_.capacity);
    }
    for (unsigned w = 0; w < eng->worker_count(); ++w)
      engine_.worker_busy_ns[w].Append(eng->WorkerBusyNs(w));
    engine_.window_wall_ns.Append(eng->window_wall_ns());
    engine_.windows_run.Append(eng->windows_run());
  }

  windows_.Append(PulseWindow{windows_total_, b});

  if (cfg_.heartbeat != nullptr) {
    std::fprintf(cfg_.heartbeat,
                 "craft-pulse[%s] w=%" PRIu64 " t=%" PRIu64
                 " ps commits=+%" PRIu64 " stalls=+%" PRIu64 " alerts=%zu\n",
                 cfg_.heartbeat_label.c_str(), windows_total_,
                 static_cast<std::uint64_t>(b), commits_delta, stalls_delta,
                 alerts_.size());
    std::fflush(cfg_.heartbeat);
  }

  EvalWatchdogs(b, commits_delta, stalls_delta);
  ++windows_total_;
}

void PulseRegistry::EvalWatchdogs(Time b, std::uint64_t commits_delta,
                                  std::uint64_t stalls_delta) {
  // Progress: windows with commits reset the streak; windows with only
  // stall-cycle growth extend it (someone is blocked and spinning); fully
  // quiet windows (idle phase between workloads) leave it unchanged.
  if (cfg_.progress_windows > 0) {
    if (commits_delta > 0) {
      progress_streak_ = 0;
      progress_stalls_ = 0;
    } else if (stalls_delta > 0) {
      ++progress_streak_;
      progress_stalls_ += stalls_delta;
      if (progress_streak_ >= cfg_.progress_windows) {
        std::ostringstream os;
        os << "craft-pulse progress watchdog: no channel commits for "
           << progress_streak_ << " consecutive windows ending at w="
           << windows_total_ << " (t=" << b << " ps); blocked endpoints accrued "
           << progress_stalls_ << " stall cycles over the stalled span";
        alerts_.push_back(
            PulseAlert{windows_total_, b, "progress", "", os.str()});
        std::string blame;
        if (blame_provider_) blame = blame_provider_(*sim_);
        if (cfg_.heartbeat != nullptr) {
          std::fprintf(cfg_.heartbeat, "craft-pulse[%s] ALERT %s\n",
                       cfg_.heartbeat_label.c_str(),
                       alerts_.back().message.c_str());
          std::fflush(cfg_.heartbeat);
        }
        // Fault deterministically. The blame chains ride in the error text
        // only (trace span wall-details vary), keeping alerts n-invariant.
        if (blame.empty()) {
          CRAFT_ERROR(os.str());
        } else {
          CRAFT_ERROR(os.str() << "\nbackpressure blame:\n" << blame);
        }
      }
    }
  }

  // Throughput: per armed channel, compare the windowed dequeue rate with
  // the static bound. Windows with no global commits are skipped (a stalled
  // run is the progress watchdog's jurisdiction); channels that have never
  // moved a token are skipped (not warmed up yet).
  if (cfg_.throughput_windows > 0 && commits_delta > 0) {
    for (auto& [name, arm] : throughput_) {
      auto it = channels_.find(name);
      if (it == channels_.end()) continue;
      const PulseChannelSeries& s = it->second;
      if (s.dequeues.last() == 0) continue;  // no traffic yet
      const std::uint64_t n = s.dequeues.size();
      const std::uint64_t delta = s.dequeues.DeltaAt(n - 1);
      const double rate = static_cast<double>(delta) / static_cast<double>(period_);
      if (rate < cfg_.throughput_fraction * arm.bound_tokens_per_ps) {
        if (++arm.streak >= cfg_.throughput_windows && !arm.fired) {
          arm.fired = true;
          std::ostringstream os;
          os.precision(6);
          os << "craft-pulse throughput watchdog: channel '" << name
             << "' windowed rate " << rate << " tokens/ps < "
             << cfg_.throughput_fraction << " x bound "
             << arm.bound_tokens_per_ps << " tokens/ps for " << arm.streak
             << " consecutive windows ending at w=" << windows_total_
             << " (t=" << b << " ps); critical cycle: " << critical_cycle_;
          alerts_.push_back(
              PulseAlert{windows_total_, b, "throughput", name, os.str()});
          if (cfg_.heartbeat != nullptr) {
            std::fprintf(cfg_.heartbeat, "craft-pulse[%s] ALERT %s\n",
                         cfg_.heartbeat_label.c_str(),
                         alerts_.back().message.c_str());
            std::fflush(cfg_.heartbeat);
          }
        }
      } else {
        arm.streak = 0;
      }
    }
  }
}

}  // namespace craft
