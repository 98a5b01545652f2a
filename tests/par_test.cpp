// craft-par tests: the determinism guarantee (results, stats and trace span
// sets identical for every worker count), the domain partitioner, the
// cross-domain wake assert, and stop/resume semantics under the engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gals/async_channel.hpp"
#include "kernel/kernel.hpp"
#include "soc/workloads.hpp"

namespace craft {
namespace {

using namespace craft::literals;
using connections::Buffer;

// ---------------- three-domain GALS chain harness ----------------
//
// prod(clk A) -> AsyncChannel -> relay(clk B) -> AsyncChannel -> sink(clk C).
// Every module is single-clock, so the partitioner sees three groups cut at
// the two crossings.

struct Producer : Module {
  Producer(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& out_ch,
           unsigned count)
      : Module(parent, "prod") {
    out.Bind(out_ch);
    Thread("main", clk, [this, count] {
      for (unsigned i = 0; i < count; ++i) out.Push(i * 2654435761u);
    });
  }
  connections::Out<std::uint32_t> out;
};

struct Relay : Module {
  Relay(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& in_ch,
        connections::Channel<std::uint32_t>& out_ch, unsigned count)
      : Module(parent, "relay") {
    in.Bind(in_ch);
    out.Bind(out_ch);
    Thread("main", clk, [this, count] {
      for (unsigned i = 0; i < count; ++i) {
        const std::uint32_t v = in.Pop();
        out.Push(v ^ (v >> 7));
      }
    });
  }
  connections::In<std::uint32_t> in;
  connections::Out<std::uint32_t> out;
};

struct Sink : Module {
  Sink(Module& parent, Clock& clk, connections::Channel<std::uint32_t>& in_ch,
       unsigned count)
      : Module(parent, "sink") {
    in.Bind(in_ch);
    Thread("main", clk, [this, count] {
      for (unsigned i = 0; i < count; ++i) {
        checksum = checksum * 31 + in.Pop();
        ++received;
      }
    });
  }
  connections::In<std::uint32_t> in;
  std::uint64_t checksum = 0;
  unsigned received = 0;
};

struct ChainTop : Module {
  ChainTop(Simulator& sim, Clock& a, Clock& b, Clock& c, unsigned count)
      : Module(sim, "top"),
        ab(*this, "ab", a, b),
        bc(*this, "bc", b, c),
        prod(*this, a, ab.producer_end(), count),
        relay(*this, b, ab.consumer_end(), bc.producer_end(), count),
        sink(*this, c, bc.consumer_end(), count) {}
  gals::AsyncChannel<std::uint32_t> ab;
  gals::AsyncChannel<std::uint32_t> bc;
  Producer prod;
  Relay relay;
  Sink sink;
};

/// Everything a run can be compared on. Stats lines carrying wall-clock or
/// delta-batching telemetry are filtered out: both are documented as
/// worker-count-variant (DESIGN.md §9); everything else must match exactly.
struct Fingerprint {
  std::uint64_t checksum = 0;
  unsigned received = 0;
  std::uint64_t transfers = 0;
  std::string stats_json;
  std::string trace_fp;
};

std::string FilterStatsJson(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("wall") != std::string::npos) continue;
    if (line.find("delta") != std::string::npos) continue;
    out << line << "\n";
  }
  return out.str();
}

std::string TraceFingerprint(const Simulator& sim) {
  std::ostringstream os;
  sim.trace_events().ForEachEvent([&os](const TraceEvent& e) {
    os << e.ts << ":" << e.track << ":" << static_cast<int>(e.kind) << ":"
       << e.span << ":" << e.arg << "\n";
  });
  return os.str();
}

constexpr unsigned kTokens = 200;

Fingerprint RunChain(unsigned n, std::uint64_t stall_seed) {
  Simulator sim;
  sim.stats().Enable();
  sim.trace_events().Enable();
  sim.chaos().Enable({.seed = stall_seed,
                      .channel_valid_stall_prob = 0.15,
                      .channel_ready_stall_prob = 0.10});
  sim.SetParallelism(n);
  Clock a(sim, "clk_a", 997);
  Clock b(sim, "clk_b", 1361);
  Clock c(sim, "clk_c", 731);
  ChainTop top(sim, a, b, c, kTokens);
  sim.Run(3_us);  // fixed horizon: no Stop(), so every run covers the same window
  Fingerprint f;
  f.checksum = top.sink.checksum;
  f.received = top.sink.received;
  f.transfers = top.ab.transfer_count() + top.bc.transfer_count();
  f.stats_json = FilterStatsJson(stats::FormatJson(sim));
  f.trace_fp = TraceFingerprint(sim);
  return f;
}

// The tentpole guarantee: bit-identical results, stats and trace spans for
// n = 1, 2, 4, across three stall-injection seeds (three timing universes).
TEST(ParDeterminism, IdenticalAcrossWorkerCountsAndSeeds) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Fingerprint f1 = RunChain(1, seed);
    ASSERT_EQ(f1.received, kTokens) << "seed " << seed << ": run under-provisioned";
    for (unsigned n : {2u, 4u}) {
      const Fingerprint fn = RunChain(n, seed);
      EXPECT_EQ(fn.checksum, f1.checksum) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(fn.received, f1.received) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(fn.transfers, f1.transfers) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(fn.stats_json, f1.stats_json) << "n=" << n << " seed=" << seed;
      EXPECT_EQ(fn.trace_fp, f1.trace_fp) << "n=" << n << " seed=" << seed;
    }
  }
}

// A single-clock design has one group: four requested workers must degrade
// to the one inline worker and match n = 1.
TEST(ParPartition, SingleClockDesignForcesSingleWorker) {
  auto run = [](unsigned n) {
    Simulator sim;
    sim.SetParallelism(n);
    Clock clk(sim, "clk", 1000);
    // Same chain, one domain: AsyncChannel requires two clocks, so build a
    // buffer-only pipeline instead.
    struct Local : Module {
      Local(Simulator& s, Clock& c)
          : Module(s, "loc"), x(*this, "x", c, 2), y(*this, "y", c, 2),
            prod(*this, c, x, 100), relay(*this, c, x, y, 100),
            sink(*this, c, y, 100) {}
      Buffer<std::uint32_t> x;
      Buffer<std::uint32_t> y;
      Producer prod;
      Relay relay;
      Sink sink;
    } l(sim, clk);
    sim.Run(1_ms);
    std::pair<unsigned, unsigned> shape = sim.parallel_shape();
    return std::tuple<std::uint64_t, unsigned, unsigned, unsigned>(
        l.sink.checksum, l.sink.received, shape.first, shape.second);
  };
  const auto one = run(1);
  const auto par = run(4);
  EXPECT_EQ(par, one);
  EXPECT_EQ(std::get<1>(par), 100u);
  EXPECT_EQ(std::get<2>(par), 1u);  // one worker
  EXPECT_EQ(std::get<3>(par), 1u);  // one group
}

// GALS SoC: four nodes, four domains, four workers.
TEST(ParPartition, GalsSocPartitionsPerNode) {
  Simulator sim;
  soc::SocConfig cfg;
  cfg.mesh_width = 2;
  cfg.mesh_height = 2;
  cfg.gals = true;
  cfg.parallelism = 4;
  soc::SocTop soc(sim, cfg);
  sim.Run(10_us);
  const auto [workers, groups] = sim.parallel_shape();
  EXPECT_EQ(groups, 4u);
  EXPECT_EQ(workers, 4u);
}

// The six-workload harness end to end: same controller cycle count, same
// golden-check outcome, same (filtered) stats at n = 1, 2, 4.
TEST(ParDeterminism, SocWorkloadIdenticalAcrossWorkerCounts) {
  auto run = [](unsigned n) {
    Simulator sim;
    sim.stats().Enable();
    soc::SocConfig cfg;
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    cfg.gals = true;
    cfg.parallelism = n;
    soc::SocTop soc(sim, cfg);
    const soc::Workload w = soc::SixSocTests()[0];  // vecmul: DMA + compute
    const soc::WorkloadRun r = soc::RunWorkload(soc, w, 500_ms);
    EXPECT_TRUE(r.ok) << "n=" << n << ": " << r.error;
    return std::pair<std::uint64_t, std::string>(
        r.cycles, FilterStatsJson(stats::FormatJson(sim)));
  };
  const auto r1 = run(1);
  for (unsigned n : {2u, 4u}) {
    const auto rn = run(n);
    EXPECT_EQ(rn.first, r1.first) << "controller cycles diverged at n=" << n;
    EXPECT_EQ(rn.second, r1.second) << "stats diverged at n=" << n;
  }
}

// ---------------- cross-domain wake assert ----------------

struct Notifier : Module {
  Notifier(Module& parent, Clock& clk, Event& e) : Module(parent, "notifier") {
    Thread("main", clk, [this, &e] {
      wait(4);
      e.Notify();
    });
  }
};

struct EventWaiter : Module {
  EventWaiter(Module& parent, Clock& clk, Event& e) : Module(parent, "waiter") {
    Thread("main", clk, [this, &e] {
      wait(e);
      woke = true;
    });
  }
  bool woke = false;
};

// An Event shared across two domains is invisible to the partitioner (it is
// not a port/channel coupling), so the domains stay separate — and the wake
// from the notifier's worker onto the waiter's shard must fault loudly
// instead of racing.
TEST(ParAffinity, CrossDomainEventWakeFaults) {
  Simulator sim;
  sim.SetParallelism(2);
  Clock a(sim, "clk_a", 1000);
  Clock b(sim, "clk_b", 1300);
  Event e(sim);
  struct Top : Module {
    Top(Simulator& s, Clock& a, Clock& b, Event& e)
        : Module(s, "top"), n(*this, a, e), w(*this, b, e) {}
    Notifier n;
    EventWaiter w;
  } top(sim, a, b, e);
  EXPECT_THROW(sim.Run(100_us), SimError);
}

// Same design, one worker: legal (everything runs inline on one shard).
TEST(ParAffinity, CrossDomainEventWakeLegalWithoutEngine) {
  Simulator sim;
  sim.SetParallelism(1);  // pinned even under CRAFT_PARALLELISM
  Clock a(sim, "clk_a", 1000);
  Clock b(sim, "clk_b", 1300);
  Event e(sim);
  struct Top : Module {
    Top(Simulator& s, Clock& a, Clock& b, Event& e)
        : Module(s, "top"), n(*this, a, e), w(*this, b, e) {}
    Notifier n;
    EventWaiter w;
  } top(sim, a, b, e);
  sim.Run(100_us);
  EXPECT_TRUE(top.w.woke);
}

// ---------------- stop / resume under the engine ----------------

struct Stopper : Module {
  Stopper(Simulator& sim, Clock& clk, std::uint64_t stop_at)
      : Module(sim, "stopper") {
    Thread("main", clk, [this, stop_at] {
      for (;;) {
        wait();
        ++ticks;
        if (ticks == stop_at) Simulator::Current().Stop();
      }
    });
  }
  std::uint64_t ticks = 0;
};

TEST(ParStop, StopAndResumeUnderEngine) {
  Simulator sim;
  sim.SetParallelism(4);
  Clock clk(sim, "clk", 1000);
  Stopper s(sim, clk, 100);
  sim.Run(1_ms);  // would be 1e6 cycles; Stop() cuts it short
  EXPECT_EQ(s.ticks, 100u);
  const Time t_stop = sim.now();
  EXPECT_LT(t_stop, 1_ms);
  sim.Run(100 * 1000);  // resume for 100 more cycles
  EXPECT_EQ(s.ticks, 200u);
  EXPECT_GT(sim.now(), t_stop);
}

}  // namespace
}  // namespace craft
