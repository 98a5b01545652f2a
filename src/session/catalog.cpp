// The design catalog: every design a craft_* tool can name, built into a
// Session's simulator.
#include "session/session.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "connections/retimer.hpp"
#include "gals/gals.hpp"
#include "kernel/kernel.hpp"
#include "matchlib/routers.hpp"

namespace craft::session {

using namespace craft::literals;

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) { return (h ^ v) * kFnvPrime; }

/// A prototype SoC configuration; the digest covers the global-memory image.
class SocDesign : public Design {
 public:
  SocDesign(Simulator& sim, const soc::SocConfig& cfg) : top_(sim, cfg) {}
  soc::SocTop* soc() override { return &top_; }
  std::uint64_t digest() override {
    std::uint64_t d = kFnvOffset;
    for (std::uint32_t w = 0; w < soc::SocTop::Gm::SizeWords(); ++w)
      d = Mix(d, top_.PeekGm(w));
    return d;
  }

 private:
  soc::SocTop top_;
};

/// The fine-grained GALS pipeline of examples/gals_multiclock: three
/// partitions, two pausible crossings, fully bound endpoints, endless
/// traffic.
struct GalsPipeline : Design {
  struct Stage : Module {
    connections::In<int> in;
    connections::Out<int> out;
    Stage(Module& parent, Clock& clk) : Module(parent, "stage") {
      Thread("run", clk, [this] {
        for (;;) out.Push(in.Pop() + 1);
      });
    }
  };
  struct Source : Module {
    connections::Out<int> out;
    Source(Module& parent, Clock& clk) : Module(parent, "feed") {
      Thread("run", clk, [this] {
        for (int i = 0;; ++i) out.Push(i);
      });
    }
  };
  struct Sink : Module {
    connections::In<int> in;
    Sink(Module& parent, Clock& clk) : Module(parent, "drain") {
      Thread("run", clk, [this] {
        for (;;) (void)in.Pop();
      });
    }
  };

  explicit GalsPipeline(Simulator& sim)
      : top(sim, "pipe"),
        p0(top, "src", {.nominal_period = 1000, .seed = 1}),
        p1(top, "mid", {.nominal_period = 1300, .seed = 2}),
        p2(top, "snk", {.nominal_period = 800, .seed = 3}),
        c01(top, "c01", p0.clk(), p1.clk()),
        c12(top, "c12", p1.clk(), p2.clk()),
        feed(p0, p0.clk()),
        mid(p1, p1.clk()),
        drain(p2, p2.clk()) {
    feed.out(c01.producer_end());
    mid.in(c01.consumer_end());
    mid.out(c12.producer_end());
    drain.in(c12.consumer_end());
  }

  Module top;
  gals::Partition p0, p1, p2;
  gals::AsyncChannel<int> c01, c12;
  Source feed;
  Stage mid;
  Sink drain;
};

/// The value the harness sends at position i: position-dependent with bits
/// spread over the whole word, so any flip, loss or reordering shows up in
/// both the payload oracle and the stream digest.
std::uint32_t Payload(unsigned i) {
  return (static_cast<std::uint32_t>(i) * 0x9E3779B9u) ^ 0xC3A5C85Cu;
}

/// The LI pipeline harness: every fault-hosting component in one bounded
/// design. Source and sink know the full expected stream, so the sink is
/// itself a detection site (payload oracle).
///
///   src -> src_q -> Retimer<2> -> rt_q -> Packetizer<u32,16> -> link(Flit)
///       -> DePacketizer -> AsyncChannel (1000ps -> 1300ps) -> snk
///
/// 16-bit flits give 2 flits per message, so the depacketizer's framing
/// checks see structure worth checking, and every payload bit of a flit
/// lands in the reassembled message (no silently-ignored flip targets).
struct LiHarness : Design {
  struct Source : Module {
    connections::Out<std::uint32_t> out;
    Source(Module& parent, Clock& clk, unsigned n) : Module(parent, "src") {
      Thread("run", clk, [this, n] {
        for (unsigned i = 0; i < n; ++i) out.Push(Payload(i));
        for (;;) wait();
      });
    }
  };

  struct Sink : Module {
    connections::In<std::uint32_t> in;
    std::uint64_t digest = kFnvOffset;
    std::uint64_t received = 0;
    bool done = false;
    Sink(Module& parent, Clock& clk, unsigned n) : Module(parent, "snk") {
      Thread("run", clk, [this, n] {
        unsigned mismatches = 0;
        for (unsigned i = 0; i < n; ++i) {
          const std::uint32_t v = in.Pop();
          if (v != Payload(i) && ++mismatches <= 4) {
            sim().chaos().ReportDetection(
                full_name(), "payload-mismatch",
                "position " + std::to_string(i) + ": got 0x" + ToHex(v) +
                    ", expected 0x" + ToHex(Payload(i)));
          }
          digest = Mix(digest, v);
          ++received;
        }
        done = true;
        sim().Stop();
        for (;;) wait();
      });
    }

   private:
    static std::string ToHex(std::uint32_t v) {
      std::ostringstream os;
      os << std::hex << v;
      return os.str();
    }
  };

  LiHarness(Simulator& sim, unsigned messages)
      : top(sim, "li"),
        clk_a(sim, "clk_a", 1000),
        clk_b(sim, "clk_b", 1300),
        src(top, clk_a, messages),
        src_q(top, "src_q", clk_a),
        rt(top, "rt", clk_a),
        rt_q(top, "rt_q", clk_a),
        pack(top, "pack", clk_a),
        link(top, "link", clk_a),
        depack(top, "depack", clk_a),
        cross(top, "cross", clk_a, clk_b),
        snk(top, clk_b, messages) {
    src.out(src_q);
    rt.in(src_q);
    rt.out(rt_q);
    pack.in(rt_q);
    pack.out(link);
    depack.in(link);
    depack.out(cross.producer_end());
    snk.in(cross.consumer_end());
  }

  std::uint64_t delivered() const override { return snk.received; }
  bool done() const override { return snk.done; }
  std::uint64_t cycles() const override { return clk_b.cycle(); }
  std::uint64_t digest() override { return snk.digest; }

  Module top;
  Clock clk_a, clk_b;
  Source src;
  connections::Buffer<std::uint32_t> src_q;
  connections::Retimer<std::uint32_t, 2> rt;
  connections::Buffer<std::uint32_t> rt_q;
  connections::Packetizer<std::uint32_t, kLiFlitBits> pack;
  connections::Buffer<connections::Flit> link;
  connections::DePacketizer<std::uint32_t, kLiFlitBits> depack;
  gals::AsyncChannel<std::uint32_t> cross;
  Sink snk;
};

/// A saturating 4-hop wormhole NoC chain (the bench/noc_routers topology
/// with endless traffic): source floods 8-flit packets, sink drains, every
/// link runs near its structural 1-flit-per-cycle bound.
struct NocChain : Design {
  static constexpr unsigned kHops = 4;
  static constexpr unsigned kFlitsPerPacket = 8;
  using Router = matchlib::WHVCRouter<2, 1>;

  struct Tb : Module {
    Tb(Module& parent, Clock& clk, connections::Buffer<connections::Flit>& inj,
       connections::Buffer<connections::Flit>& ej)
        : Module(parent, "tb") {
      Thread("src", clk, [&inj] {
        for (std::uint64_t pkt = 0;; ++pkt) {
          for (unsigned i = 0; i < kFlitsPerPacket; ++i) {
            connections::Flit f;
            f.payload = (pkt << 8) | i;
            f.first = (i == 0);
            f.last = (i + 1 == kFlitsPerPacket);
            f.dest = 0;
            inj.Push(f);
          }
        }
      });
      Thread("dst", clk, [&ej] {
        for (;;) (void)ej.Pop();
      });
    }
  };

  explicit NocChain(Simulator& sim)
      : clk(sim, "clk", 1_ns),
        top(sim, "top"),
        inj(top, "inj", clk, 4),
        ej(top, "ej", clk, 4) {
    for (unsigned h = 0; h < kHops; ++h) {
      const bool last = (h + 1 == kHops);
      routers.push_back(std::make_unique<Router>(
          top, "r" + std::to_string(h), clk,
          [last](std::uint8_t) { return last ? 0u : 1u; }));
    }
    routers[0]->in[0][0](inj);
    for (unsigned h = 0; h + 1 < kHops; ++h) {
      links.push_back(std::make_unique<connections::Buffer<connections::Flit>>(
          top, "l" + std::to_string(h), clk, 2));
      routers[h]->out[1][0](*links.back());
      routers[h + 1]->in[1][0](*links.back());
    }
    routers[kHops - 1]->out[0][0](ej);
    tb = std::make_unique<Tb>(top, clk, inj, ej);
  }

  Clock clk;
  Module top;
  connections::Buffer<connections::Flit> inj, ej;
  std::vector<std::unique_ptr<Router>> routers;
  std::vector<std::unique_ptr<connections::Buffer<connections::Flit>>> links;
  std::unique_ptr<Tb> tb;
};

Entry SocEntry(std::string name, soc::SocConfig cfg) {
  return Entry{std::move(name), Kind::kSocWorkload,
               [cfg](Simulator& sim, const Spec&) -> std::unique_ptr<Design> {
                 return std::make_unique<SocDesign>(sim, cfg);
               },
               cfg};
}

template <typename D>
Entry StreamEntry(std::string name) {
  return Entry{std::move(name), Kind::kEndlessStream,
               [](Simulator& sim, const Spec&) -> std::unique_ptr<Design> {
                 return std::make_unique<D>(sim);
               },
               std::nullopt};
}

std::vector<Entry> MakeCatalog() {
  std::vector<Entry> out;
  soc::SocConfig gals_2x2;  // 2x2 GALS mesh: ctrl + gm + 2 PEs
  out.push_back(SocEntry("soc_gals_2x2", gals_2x2));
  soc::SocConfig sync_2x2;
  sync_2x2.gals = false;
  out.push_back(SocEntry("soc_sync_2x2", sync_2x2));
  soc::SocConfig io_2x2;
  io_2x2.with_io = true;
  out.push_back(SocEntry("soc_gals_io_2x2", io_2x2));
  soc::SocConfig gals_3x3;
  gals_3x3.mesh_width = 3;
  gals_3x3.mesh_height = 3;
  out.push_back(SocEntry("soc_gals_3x3", gals_3x3));
  out.push_back(StreamEntry<GalsPipeline>("gals_pipeline"));
  out.push_back(Entry{"li_pipeline", Kind::kBoundedHarness,
                      [](Simulator& sim, const Spec& spec) -> std::unique_ptr<Design> {
                        return std::make_unique<LiHarness>(sim, spec.messages);
                      },
                      std::nullopt});
  out.push_back(StreamEntry<NocChain>("noc_chain"));
  return out;
}

}  // namespace

FaultPlan LatencyPlan(Kind kind, std::uint64_t seed) {
  FaultPlan p;
  p.seed = seed;
  if (kind == Kind::kBoundedHarness) {
    p.channel_valid_stall_prob = 0.15;
    p.channel_ready_stall_prob = 0.10;
    p.crossing_pause_prob = 0.25;
    p.crossing_pause_max_cycles = 6;
    p.retimer_delay_prob = 0.30;
    p.retimer_delay_max_cycles = 4;
    p.wakeup_delay_prob = 0.05;
    return p;
  }
  // Milder rates: the SoC runs real workloads with a deadline, and every
  // channel of the NoC rolls independently, so even a few percent per cycle
  // yields thousands of injected stall cycles per run.
  p.channel_valid_stall_prob = 0.04;
  p.channel_ready_stall_prob = 0.03;
  p.crossing_pause_prob = 0.10;
  p.crossing_pause_max_cycles = 4;
  p.retimer_delay_prob = 0.20;
  p.retimer_delay_max_cycles = 3;
  p.wakeup_delay_prob = 0.02;
  return p;
}

const std::vector<Entry>& Catalog() {
  static const std::vector<Entry> catalog = MakeCatalog();
  return catalog;
}

const Entry* Find(const std::string& name) {
  for (const Entry& e : Catalog())
    if (e.name == name) return &e;
  return nullptr;
}

}  // namespace craft::session
