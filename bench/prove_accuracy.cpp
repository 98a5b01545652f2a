// craft-prove accuracy characterization: how tight are the static
// sustainable-rate bounds against measured (craft-stats) throughput on
// saturating benches? Three representative cases:
//
//   buffer_pipeline   a saturated single-clock Buffer chain — the structural
//                     one-token-per-cycle bound should be met almost exactly
//   gals_pipeline     the shipped three-domain reference pipeline — both
//                     crossings are predicted to saturate at the slowest
//                     domain's rate (1/1300 ps)
//   sync_limited      a crossing whose synchronizer window (4 ns each way)
//                     is the limiter — predicted depth/(2 x sync_delay)
//
// The accuracy ratios land in README.md's craft-prove quickstart and are
// archived by CI as BENCH_prove_accuracy.json.
#include <cstdio>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "bench_json.hpp"
#include "connections/connections.hpp"
#include "gals/gals.hpp"
#include "kernel/kernel.hpp"
#include "kernel/stats.hpp"
#include "session/session.hpp"

namespace craft::analyze {
namespace {

using namespace craft::literals;

struct Pusher : Module {
  connections::Out<int> out;
  Pusher(Module& parent, Clock& clk) : Module(parent, "prod") {
    Thread("run", clk, [this] {
      for (int i = 0;; ++i) out.Push(i);
    });
  }
};
struct Popper : Module {
  connections::In<int> in;
  Popper(Module& parent, Clock& clk) : Module(parent, "cons") {
    Thread("run", clk, [this] {
      for (;;) (void)in.Pop();
    });
  }
};

struct Row {
  std::string name;
  double predicted_tokens_per_ns = 0.0;
  double measured_tokens_per_ns = 0.0;
  double accuracy() const {
    return predicted_tokens_per_ns > 0.0
               ? measured_tokens_per_ns / predicted_tokens_per_ns
               : 0.0;
  }
};

Row BufferPipeline() {
  Simulator sim;
  sim.stats().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<int> ch(top, "ch", clk, 4);
  Pusher prod(top, clk);
  Popper cons(top, clk);
  prod.out(ch);
  cons.in(ch);
  const Analysis a = Analyze(sim.design_graph());
  sim.Run(100_us);
  Row r{"buffer_pipeline"};
  r.predicted_tokens_per_ns = FindChannelBound(a, "top.ch")->tokens_per_ps * 1000.0;
  r.measured_tokens_per_ns =
      stats::MeasuredChannelRates(sim).at("top.ch").tokens_per_ps * 1000.0;
  return r;
}

std::vector<Row> GalsPipeline() {
  session::Session s(session::Spec{.design = "gals_pipeline", .horizon = 1_ms, .stats = true});
  const Analysis a = Analyze(s.sim().design_graph());
  s.Run();
  std::vector<Row> rows;
  for (const auto& [name, m] : stats::MeasuredCrossingRates(s.sim())) {
    Row r{"gals_pipeline:" + name};
    r.predicted_tokens_per_ns = FindCrossingBound(a, name)->tokens_per_ps * 1000.0;
    r.measured_tokens_per_ns = m.tokens_per_ps * 1000.0;
    rows.push_back(r);
  }
  return rows;
}

Row SyncLimited() {
  Simulator sim;
  sim.stats().Enable();
  Clock pclk(sim, "p", 1_ns);
  Clock cclk(sim, "c", 1_ns);
  Module top(sim, "top");
  connections::Buffer<int> in_ch(top, "in", pclk, 2);
  connections::Buffer<int> out_ch(top, "out", cclk, 2);
  gals::PausibleBisyncFifo<int, 4> fifo(top, "fifo", pclk, cclk,
                                        /*sync_delay=*/4000);
  fifo.in(in_ch);
  fifo.out(out_ch);
  Pusher prod(top, pclk);
  Popper cons(top, cclk);
  prod.out(in_ch);
  cons.in(out_ch);
  const Analysis a = Analyze(sim.design_graph());
  sim.Run(1_ms);
  Row r{"sync_limited"};
  r.predicted_tokens_per_ns =
      FindCrossingBound(a, "top.fifo")->tokens_per_ps * 1000.0;
  r.measured_tokens_per_ns =
      stats::MeasuredCrossingRates(sim).at("top.fifo").tokens_per_ps * 1000.0;
  return r;
}

}  // namespace
}  // namespace craft::analyze

int main() {
  using namespace craft::analyze;
  std::printf("craft-prove: static bound vs measured throughput\n\n");
  std::printf("%-28s %16s %16s %10s\n", "case", "predicted t/ns", "measured t/ns",
              "meas/pred");
  std::vector<Row> rows;
  rows.push_back(BufferPipeline());
  for (const Row& r : GalsPipeline()) rows.push_back(r);
  rows.push_back(SyncLimited());
  std::vector<craft::bench::Metric> metrics;
  for (const Row& r : rows) {
    std::printf("%-28s %16.4f %16.4f %10.3f\n", r.name.c_str(),
                r.predicted_tokens_per_ns, r.measured_tokens_per_ns,
                r.accuracy());
    std::string key = r.name;
    for (char& c : key) {
      if (c == ':' || c == '.') c = '_';
    }
    metrics.push_back(craft::bench::Num(key + "_predicted", r.predicted_tokens_per_ns));
    metrics.push_back(craft::bench::Num(key + "_measured", r.measured_tokens_per_ns));
    metrics.push_back(craft::bench::Num(key + "_accuracy", r.accuracy()));
  }
  craft::bench::EmitJson("prove_accuracy", metrics);
  return 0;
}
