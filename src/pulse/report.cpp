#include "pulse/report.hpp"

#include <sstream>

#include "kernel/pulse.hpp"
#include "kernel/simulator.hpp"
#include "kernel/stats.hpp"
#include "support/json.hpp"

namespace craft::pulse {

namespace {

using json::Escape;
using stats::OpenMetricsEscape;

void EmitSeries(std::ostringstream& os, const char* key, const PulseSeries& s,
                bool trailing_comma = true) {
  os << "\"" << key << "\": {\"base\": " << s.base() << ", \"v\": [";
  for (std::size_t i = 0; i < s.size(); ++i) os << (i ? "," : "") << s.at(i);
  os << "]}" << (trailing_comma ? ", " : "");
}

// ---- fingerprint ----

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

struct Fnv {
  std::uint64_t h = kFnvOffset;
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    }
  }
  void Str(const std::string& s) {
    for (char c : s) h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
    U64(s.size());
  }
  void Series(const PulseSeries& s) {
    U64(s.base());
    for (std::size_t i = 0; i < s.size(); ++i) U64(s.at(i));
  }
};

}  // namespace

std::string FormatTimelineJson(const Simulator& sim) {
  const PulseRegistry& reg = sim.pulse();
  std::ostringstream os;
  os << "{\n  \"schema\": \"craft-pulse-v1\",\n";
  os << "  \"enabled\": " << (reg.enabled() ? "true" : "false") << ",\n";
  os << "  \"period_ps\": " << reg.config().period_ps << ",\n";
  os << "  \"capacity\": " << reg.config().capacity << ",\n";
  os << "  \"windows_total\": " << reg.windows_total() << ",\n";
  os << "  \"windows_dropped_idle\": " << reg.windows_dropped_idle() << ",\n";
  os << "  \"parallel\": {\"workers\": " << sim.parallelism() << "},\n";

  os << "  \"windows\": [";
  const PulseWindowRing& wr = reg.windows();
  for (std::size_t i = 0; i < wr.size(); ++i) {
    os << (i ? ", " : "") << "{\"index\": " << wr.at(i).index
       << ", \"t_ps\": " << wr.at(i).t_ps << "}";
  }
  os << "],\n";

  os << "  \"channels\": [";
  bool first = true;
  for (const auto& [name, s] : reg.channels()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"kind\": \"" << Escape(s.kind)
       << "\", \"capacity\": " << s.capacity
       << ", \"period_ps\": " << s.period_ps
       << ", \"start_window\": " << s.start_window << ", ";
    EmitSeries(os, "enqueues", s.enqueues);
    EmitSeries(os, "dequeues", s.dequeues);
    EmitSeries(os, "full_stall_cycles", s.full_stall_cycles);
    EmitSeries(os, "empty_stall_cycles", s.empty_stall_cycles);
    EmitSeries(os, "rejects", s.rejects);
    EmitSeries(os, "occupancy_high_water", s.occupancy_high_water,
               /*trailing_comma=*/false);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"crossings\": [";
  first = true;
  for (const auto& [name, s] : reg.crossings()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"start_window\": " << s.start_window << ", ";
    EmitSeries(os, "transfers", s.transfers);
    EmitSeries(os, "enq_sync_wait_cycles", s.enq_sync_wait_cycles);
    EmitSeries(os, "deq_sync_wait_cycles", s.deq_sync_wait_cycles);
    EmitSeries(os, "pause_events", s.pause_events, /*trailing_comma=*/false);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"fifos\": [";
  first = true;
  for (const auto& [name, s] : reg.fifos()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"start_window\": " << s.start_window << ", ";
    EmitSeries(os, "pushes", s.pushes);
    EmitSeries(os, "pops", s.pops);
    EmitSeries(os, "high_water", s.high_water, /*trailing_comma=*/false);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"kernel\": {";
  EmitSeries(os, "commits", reg.kernel().commits);
  EmitSeries(os, "stall_cycles", reg.kernel().stall_cycles,
             /*trailing_comma=*/false);
  os << "},\n";

  os << "  \"kernel_n_variant\": {";
  EmitSeries(os, "delta_cycles", reg.kernel().delta_cycles);
  EmitSeries(os, "timed_events", reg.kernel().timed_events);
  EmitSeries(os, "dispatches", reg.kernel().dispatches,
             /*trailing_comma=*/false);
  os << "},\n";

  os << "  \"processes_n_variant\": [";
  first = true;
  for (const auto& [name, s] : reg.processes()) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << Escape(name)
       << "\", \"start_window\": " << s.start_window << ", ";
    EmitSeries(os, "dispatches", s.dispatches, /*trailing_comma=*/false);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";

  os << "  \"engine_n_variant\": {\"worker_busy_ns\": [";
  for (std::size_t w = 0; w < reg.engine_series().worker_busy_ns.size(); ++w) {
    os << (w ? ", " : "") << "{";
    EmitSeries(os, "busy_ns", reg.engine_series().worker_busy_ns[w],
               /*trailing_comma=*/false);
    os << "}";
  }
  os << "], ";
  EmitSeries(os, "window_wall_ns", reg.engine_series().window_wall_ns);
  EmitSeries(os, "windows_run", reg.engine_series().windows_run,
             /*trailing_comma=*/false);
  os << "},\n";

  os << "  \"alerts\": [";
  first = true;
  for (const PulseAlert& a : reg.alerts()) {
    os << (first ? "\n" : ",\n") << "    {\"window\": " << a.window
       << ", \"t_ps\": " << a.t_ps << ", \"watchdog\": \"" << Escape(a.watchdog)
       << "\", \"site\": \"" << Escape(a.site) << "\", \"message\": \""
       << Escape(a.message) << "\"}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "],\n";
  os << "  \"critical_cycle\": \"" << Escape(reg.critical_cycle()) << "\"\n";
  os << "}\n";
  return os.str();
}

std::string FormatOpenMetrics(const Simulator& sim) {
  const PulseRegistry& reg = sim.pulse();
  std::ostringstream os;

  os << "# TYPE craft_pulse_windows counter\n"
     << "# HELP craft_pulse_windows Sampled pulse windows\n"
     << "craft_pulse_windows_total " << reg.windows_total() << "\n";
  os << "# TYPE craft_pulse_windows_dropped_idle counter\n"
     << "# HELP craft_pulse_windows_dropped_idle Idle windows skipped by the ring\n"
     << "craft_pulse_windows_dropped_idle_total " << reg.windows_dropped_idle()
     << "\n";
  os << "# TYPE craft_pulse_alerts counter\n"
     << "# HELP craft_pulse_alerts Watchdog firings\n";
  std::size_t progress = 0, throughput = 0;
  for (const PulseAlert& a : reg.alerts()) {
    (a.watchdog == "progress" ? progress : throughput) += 1;
  }
  os << "craft_pulse_alerts_total{watchdog=\"progress\"} " << progress << "\n";
  os << "craft_pulse_alerts_total{watchdog=\"throughput\"} " << throughput << "\n";

  // Cumulative counters as of the newest window, plus the last-window rate
  // (tokens per second of simulated time) as a gauge — the pair a scrape
  // needs to draw both totals and live trends.
  const double period_s = static_cast<double>(reg.config().period_ps) * 1e-12;
  const auto last_rate = [&](const PulseSeries& s) {
    if (s.size() == 0 || period_s <= 0.0) return 0.0;
    return static_cast<double>(s.DeltaAt(s.size() - 1)) / period_s;
  };

  os << "# TYPE craft_pulse_channel_dequeues counter\n"
     << "# HELP craft_pulse_channel_dequeues Messages delivered, as of the newest window\n";
  for (const auto& [name, s] : reg.channels())
    os << "craft_pulse_channel_dequeues_total{channel=\""
       << OpenMetricsEscape(name) << "\"} " << s.dequeues.last() << "\n";
  os << "# TYPE craft_pulse_channel_rate_hz gauge\n"
     << "# HELP craft_pulse_channel_rate_hz Last-window dequeue rate, tokens per simulated second\n";
  for (const auto& [name, s] : reg.channels())
    os << "craft_pulse_channel_rate_hz{channel=\"" << OpenMetricsEscape(name)
       << "\"} " << last_rate(s.dequeues) << "\n";
  os << "# TYPE craft_pulse_channel_stall_cycles counter\n"
     << "# HELP craft_pulse_channel_stall_cycles Full+empty stall cycles, as of the newest window\n";
  for (const auto& [name, s] : reg.channels())
    os << "craft_pulse_channel_stall_cycles_total{channel=\""
       << OpenMetricsEscape(name) << "\"} "
       << s.full_stall_cycles.last() + s.empty_stall_cycles.last() << "\n";

  os << "# TYPE craft_pulse_crossing_transfers counter\n"
     << "# HELP craft_pulse_crossing_transfers Crossing tokens, as of the newest window\n";
  for (const auto& [name, s] : reg.crossings())
    os << "craft_pulse_crossing_transfers_total{crossing=\""
       << OpenMetricsEscape(name) << "\"} " << s.transfers.last() << "\n";
  os << "# TYPE craft_pulse_crossing_rate_hz gauge\n"
     << "# HELP craft_pulse_crossing_rate_hz Last-window transfer rate, tokens per simulated second\n";
  for (const auto& [name, s] : reg.crossings())
    os << "craft_pulse_crossing_rate_hz{crossing=\"" << OpenMetricsEscape(name)
       << "\"} " << last_rate(s.transfers) << "\n";

  os << "# TYPE craft_pulse_kernel_commits counter\n"
     << "# HELP craft_pulse_kernel_commits Channel+crossing commits, as of the newest window\n"
     << "craft_pulse_kernel_commits_total " << reg.kernel().commits.last() << "\n";
  os << "# TYPE craft_pulse_kernel_stall_cycles counter\n"
     << "# HELP craft_pulse_kernel_stall_cycles Blocking-endpoint stall cycles, as of the newest window\n"
     << "craft_pulse_kernel_stall_cycles_total " << reg.kernel().stall_cycles.last()
     << "\n";

  os << "# EOF\n";
  return os.str();
}

std::uint64_t Fingerprint(const Simulator& sim) {
  const PulseRegistry& reg = sim.pulse();
  Fnv f;
  f.U64(reg.config().period_ps);
  f.U64(reg.windows_total());
  f.U64(reg.windows_dropped_idle());
  const PulseWindowRing& wr = reg.windows();
  for (std::size_t i = 0; i < wr.size(); ++i) {
    f.U64(wr.at(i).index);
    f.U64(wr.at(i).t_ps);
  }
  for (const auto& [name, s] : reg.channels()) {
    f.Str(name);
    f.U64(s.start_window);
    f.Series(s.enqueues);
    f.Series(s.dequeues);
    f.Series(s.full_stall_cycles);
    f.Series(s.empty_stall_cycles);
    f.Series(s.rejects);
    f.Series(s.occupancy_high_water);
  }
  for (const auto& [name, s] : reg.crossings()) {
    f.Str(name);
    f.U64(s.start_window);
    f.Series(s.transfers);
    f.Series(s.enq_sync_wait_cycles);
    f.Series(s.deq_sync_wait_cycles);
    f.Series(s.pause_events);
  }
  for (const auto& [name, s] : reg.fifos()) {
    f.Str(name);
    f.U64(s.start_window);
    f.Series(s.pushes);
    f.Series(s.pops);
    f.Series(s.high_water);
  }
  f.Series(reg.kernel().commits);
  f.Series(reg.kernel().stall_cycles);
  for (const PulseAlert& a : reg.alerts()) {
    f.U64(a.window);
    f.U64(a.t_ps);
    f.Str(a.watchdog);
    f.Str(a.site);
    f.Str(a.message);
  }
  return f.h;
}

}  // namespace craft::pulse
