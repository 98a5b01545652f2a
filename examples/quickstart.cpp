// Quickstart: the OOHLS front end in ~80 lines.
//
// Builds a tiny latency-insensitive pipeline — producer -> MatchLib
// arbitrated scratchpad -> consumer — entirely from Connections ports and
// channels, runs it cycle-accurately, and shows the two headline features
// of the Connections library: performance-accurate simulation and
// zero-code-change stall injection.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <cstdlib>

#include "connections/connections.hpp"
#include "kernel/kernel.hpp"
#include "lint/lint.hpp"
#include "matchlib/mem_msgs.hpp"
#include "matchlib/scratchpad.hpp"

using namespace craft;
using namespace craft::literals;
using namespace craft::connections;
using craft::matchlib::MemReq;
using craft::matchlib::MemResp;

namespace {

/// A block with unified In/Out ports — the channel kind is chosen by
/// whoever wires it up (Table 1 of the paper).
struct Writer : Module {
  Out<MemReq> req;
  In<MemResp> resp;
  Out<bool> done;  ///< LI token: tells the reader the data is in place
  Writer(Module& parent, Clock& clk, int n) : Module(parent, "writer") {
    Thread("run", clk, [this, n] {
      for (int i = 0; i < n; ++i) {
        req.Push({.is_write = true, .addr = std::uint32_t(i), .wdata = std::uint64_t(i * i),
                  .id = 0});
        (void)resp.Pop();
      }
      std::printf("[%6llu ps] writer: stored %d squares\n",
                  (unsigned long long)Simulator::Current().now(), n);
      done.Push(true);
    });
  }
};

struct Reader : Module {
  Out<MemReq> req;
  In<MemResp> resp;
  In<bool> start;
  std::uint64_t checksum = 0;
  Reader(Module& parent, Clock& clk, int n) : Module(parent, "reader") {
    Thread("run", clk, [this, n] {
      (void)start.Pop();  // synchronize through a channel, not through time
      for (int i = 0; i < n; ++i) {
        req.Push({.is_write = false, .addr = std::uint32_t(i), .wdata = 0, .id = 0});
        checksum += resp.Pop().rdata;
      }
      std::printf("[%6llu ps] reader: checksum=%llu (cycle %llu)\n",
                  (unsigned long long)Simulator::Current().now(),
                  (unsigned long long)checksum, (unsigned long long)this_cycle());
      Simulator::Current().Stop();
    });
  }
};

std::uint64_t RunOnce(double stall_probability) {
  Simulator sim;  // sim-accurate Connections model by default
  // Stall injection: a seeded fault plan, armed before elaboration, perturbs
  // every channel's timing without touching any of the code below.
  sim.chaos().Enable({.seed = 42, .channel_valid_stall_prob = stall_probability});
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");

  // A 4-bank scratchpad with two LI request/response port pairs.
  matchlib::Scratchpad<4, 256, 2> spad(top, "spad", clk);
  Buffer<MemReq> wreq(top, "wreq", clk, 2), rreq(top, "rreq", clk, 2);
  Buffer<MemResp> wresp(top, "wresp", clk, 2), rresp(top, "rresp", clk, 2);
  spad.req_in[0](wreq);
  spad.resp_out[0](wresp);
  spad.req_in[1](rreq);
  spad.resp_out[1](rresp);

  Writer writer(top, clk, 64);
  Reader reader(top, clk, 64);
  Buffer<bool> done_ch(top, "done", clk, 1);
  writer.req(wreq);
  writer.resp(wresp);
  writer.done(done_ch);
  reader.req(rreq);
  reader.resp(rresp);
  reader.start(done_ch);

  // Elaboration done: run the design-rule checks before simulating.
  const auto findings = lint::CheckDesignGraph(sim.design_graph());
  if (lint::ErrorCount(findings) > 0) {
    std::fputs(lint::FormatText("quickstart", findings).c_str(), stderr);
    std::exit(1);
  }

  sim.Run(100_us);
  return reader.checksum;
}

}  // namespace

int main() {
  std::printf("-- clean run --\n");
  const std::uint64_t a = RunOnce(0.0);
  std::printf("-- 30%% stall injection (same design, same testbench) --\n");
  const std::uint64_t b = RunOnce(0.3);
  std::printf("\nchecksums %s: latency-insensitive design is timing-independent\n",
              a == b ? "match" : "DIFFER (bug!)");
  return a == b ? 0 : 1;
}
