// craft-par randomized stall-injection fuzz (the nightly CI campaign).
//
// Each seed arms a craft-chaos latency-only FaultPlan (channel stalls, GALS
// pause storms, deferred wakeups — DESIGN.md §11) making a distinct timing
// universe for the GALS prototype SoC running vecmul. Every universe is
// simulated twice — n=1 and n=4 workers — and the two runs must agree
// exactly (golden check, controller cycles, channel
// transfers). Any disagreement is a determinism bug in the parallel engine;
// the failing seed is printed for replay, together with the craft-trace
// backpressure blame chains of the parallel run to localize where the two
// timelines diverged.
//
//   par_fuzz [--seed-start S] [--seed-count N] [--stall P]
#include <cstdio>
#include <string>

#include "soc/workloads.hpp"
#include "support/cli.hpp"
#include "trace/trace.hpp"

namespace craft::soc {
namespace {

using namespace craft::literals;

struct Outcome {
  bool ok = false;
  std::uint64_t cycles = 0;
  std::uint64_t transfers = 0;
  std::string error;
};

Outcome RunUniverse(unsigned parallelism, double stall_prob, std::uint64_t seed,
                    Simulator* sim_out_owner) {
  Simulator& sim = *sim_out_owner;
  sim.trace_events().Enable();  // for blame chains on mismatch
  sim.stats().Enable();         // per-channel dequeue counts
  // Each seed is one timing universe drawn by craft-chaos: channel stalls,
  // GALS pause storms and deferred wakeups. Armed before elaboration so
  // every site snapshots its fault point.
  sim.chaos().Enable({.seed = seed,
                      .channel_valid_stall_prob = stall_prob,
                      .channel_ready_stall_prob = stall_prob / 2,
                      .crossing_pause_prob = stall_prob / 2,
                      .crossing_pause_max_cycles = 4,
                      .wakeup_delay_prob = stall_prob / 8});
  SocConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.gals = true;
  cfg.parallelism = parallelism;
  SocTop soc(sim, cfg);
  const Workload w = SixSocTests()[0];  // vecmul exercises DMA + compute
  w.setup(soc);
  Outcome o;
  o.cycles = soc.RunCommands(w.commands(soc), 500_ms);
  o.ok = w.check(soc, &o.error);
  for (const auto& [name, c] : sim.stats().channels()) o.transfers += c.dequeues;
  return o;
}

constexpr const char kUsage[] =
    "usage: par_fuzz [--seed-start S] [--seed-count N] [--stall P]\n"
    "\n"
    "  --seed-start S  first chaos seed (default 1)\n"
    "  --seed-count N  number of seeds, at least 1 (default 3)\n"
    "  --stall P       channel valid-stall probability in [0, 1] (default 0.25)\n";

}  // namespace
}  // namespace craft::soc

int main(int argc, char** argv) {
  using namespace craft::soc;
  std::uint64_t seed_start = 1;
  unsigned seed_count = 3;
  double stall = 0.25;
  craft::cli::Parser p("par_fuzz", kUsage);
  p.U64("--seed-start", &seed_start);
  p.U32("--seed-count", &seed_count);
  p.F64("--stall", &stall);
  if (auto st = p.Parse(argc, argv); st != craft::cli::Status::kContinue)
    return craft::cli::ExitCode(st);
  if (seed_count == 0)
    return craft::cli::ExitCode(p.UsageError("--seed-count must be at least 1"));
  if (stall > 1.0)
    return craft::cli::ExitCode(p.UsageError("--stall must be a probability in [0, 1]"));

  std::printf("craft-par stall-injection fuzz: vecmul on the GALS 2x2 SoC, "
              "stall=%.2f, seeds [%llu, %llu]\n\n",
              stall, (unsigned long long)seed_start,
              (unsigned long long)(seed_start + seed_count - 1));
  std::printf("%10s %8s %12s %12s %12s %8s\n", "seed", "mode", "cycles",
              "transfers", "golden", "verdict");

  unsigned failures = 0;
  for (std::uint64_t seed = seed_start; seed < seed_start + seed_count; ++seed) {
    Outcome o1, o4;
    {
      craft::Simulator sim;
      o1 = RunUniverse(1, stall, seed, &sim);
    }
    bool mismatch = false;
    {
      craft::Simulator sim;
      o4 = RunUniverse(4, stall, seed, &sim);
      mismatch = o1.cycles != o4.cycles || o1.transfers != o4.transfers ||
                 o1.ok != o4.ok || !o1.ok;
      if (mismatch) {
        ++failures;
        std::printf("\nMISMATCH at seed %llu — replay with: par_fuzz "
                    "--seed-start %llu --seed-count 1 --stall %.2f\n",
                    (unsigned long long)seed, (unsigned long long)seed, stall);
        std::printf("  n=1: cycles=%llu transfers=%llu ok=%d %s\n",
                    (unsigned long long)o1.cycles, (unsigned long long)o1.transfers,
                    o1.ok, o1.error.c_str());
        std::printf("  n=4: cycles=%llu transfers=%llu ok=%d %s\n",
                    (unsigned long long)o4.cycles, (unsigned long long)o4.transfers,
                    o4.ok, o4.error.c_str());
        std::printf("\nBackpressure blame chains of the n=4 run:\n%s\n",
                    craft::trace::FormatTable(
                        craft::trace::AttributeBackpressure(sim, 10))
                        .c_str());
      }
    }
    std::printf("%10llu %8s %12llu %12llu %12s %8s\n",
                (unsigned long long)seed, "n=1", (unsigned long long)o1.cycles,
                (unsigned long long)o1.transfers, o1.ok ? "PASS" : "FAIL", "");
    std::printf("%10s %8s %12llu %12llu %12s %8s\n", "", "n=4",
                (unsigned long long)o4.cycles, (unsigned long long)o4.transfers,
                o4.ok ? "PASS" : "FAIL", mismatch ? "FAIL" : "OK");
  }

  if (failures != 0) {
    std::printf("\n%u of %u seeds diverged between n=1 and n=4\n", failures,
                seed_count);
    return 1;
  }
  std::printf("\nall %u seeds bit-identical between n=1 and n=4\n", seed_count);
  return 0;
}
