// Tests for craft-trace: the opt-in TraceEventSink, span propagation across
// channels / relays / packetizers, residency-slice accounting under
// Simulator::Stop, the Chrome trace-event exporter, the backpressure blame
// chains, and the VCD Tracer header/initial-value fixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "kernel/kernel.hpp"
#include "soc/workloads.hpp"
#include "trace/trace.hpp"

namespace craft {

struct PMsg {
  std::uint32_t addr = 0;
  std::uint16_t data = 0;
  bool operator==(const PMsg&) const = default;
};

template <>
struct Marshal<PMsg> {
  static constexpr unsigned kWidth = 48;
  static void Write(BitStream& s, const PMsg& m) {
    s.PutBits(m.addr, 32);
    s.PutBits(m.data, 16);
  }
  static PMsg Read(BitStream& s) {
    PMsg m;
    m.addr = static_cast<std::uint32_t>(s.GetBits(32));
    m.data = static_cast<std::uint16_t>(s.GetBits(16));
    return m;
  }
};

namespace {

using namespace craft::literals;
using connections::Buffer;
using connections::Flit;

std::uint64_t CountSubstr(const std::string& hay, const std::string& needle) {
  std::uint64_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// Pops `in`, pushes to `out`, forever — the span-extension pattern.
class Relay : public Module {
 public:
  Relay(Module& parent, const std::string& name, Clock& clk, Buffer<int>& in,
        Buffer<int>& out)
      : Module(parent, name) {
    Thread("run", clk, [&in, &out] {
      for (;;) out.Push(in.Pop());
    });
  }
};

// ---------- registry basics ----------

TEST(TraceSink, DisabledByDefaultRegistersNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.trace_events().enabled());
  EXPECT_EQ(sim.trace_events().RegisterTrack("x", "Buffer", "clk"), nullptr);
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 20; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch, this] {
        for (int i = 0; i < 20; ++i) got.push_back(ch.Pop());
      });
    }
    std::vector<int> got;
  } b(top, clk, ch);
  sim.Run(1000_ns);
  EXPECT_EQ(b.got.size(), 20u);
  EXPECT_TRUE(sim.trace_events().tracks().empty());
  EXPECT_EQ(sim.trace_events().event_count(), 0u);
  EXPECT_EQ(sim.trace_events().spans_allocated(), 0u);
}

TEST(TraceSink, BasicSpanFlowBalances) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 2);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 20; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch] {
        for (int i = 0; i < 20; ++i) (void)ch.Pop();
      });
    }
  } b(top, clk, ch);
  sim.Run(1000_ns);
  const TraceTrack* t = sim.trace_events().FindTrack("top.ch");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->begins(), 20u);
  EXPECT_EQ(t->ends(), 20u);
  EXPECT_TRUE(t->resident_spans().empty());
  // One root span per message: the producer thread had no context.
  EXPECT_EQ(sim.trace_events().spans_allocated(), 20u);
  EXPECT_EQ(sim.trace_events().open_slices(), 0u);
}

TEST(TraceSink, SpanPropagatesAcrossRelay) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> a(top, "a", clk, 2);
  Buffer<int> b(top, "b", clk, 2);
  Relay relay(top, "relay", clk, a, b);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& b) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 15; ++i) a.Push(i);
      });
      Thread("dst", clk, [&b] {
        for (int i = 0; i < 15; ++i) (void)b.Pop();
      });
    }
  } tb(top, clk, a, b);
  sim.Run(1000_ns);
  // The relay extends each message's span from channel a to channel b: both
  // channels saw 15 slices but only 15 spans exist in total.
  EXPECT_EQ(sim.trace_events().FindTrack("top.a")->begins(), 15u);
  EXPECT_EQ(sim.trace_events().FindTrack("top.b")->begins(), 15u);
  EXPECT_EQ(sim.trace_events().spans_allocated(), 15u);
  // Every span got exactly one begin and one end per channel.
  std::set<std::uint64_t> spans_a, spans_b;
  const std::uint32_t track_a = sim.trace_events().FindTrack("top.a")->id();
  sim.trace_events().ForEachEvent([&](const TraceEvent& e) {
    if (e.kind != TraceEventKind::kBegin) return;
    (e.track == track_a ? spans_a : spans_b).insert(e.span);
  });
  EXPECT_EQ(spans_a, spans_b);
}

/// A Buffer with an endless producer and consumer on `clk`.
struct Stream : Module {
  Stream(Module& p, const char* name, Clock& clk)
      : Module(p, name), ch(*this, "ch", clk, 1) {
    Thread("src", clk, [this] {
      for (int i = 0;; ++i) ch.Push(i);
    });
    Thread("dst", clk, [this] {
      for (;;) (void)ch.Pop();
    });
  }
  Buffer<int> ch;
};

// The first Run's partition sizes the per-group recording, so tracing
// switched on later would record into groups the sink does not have.
TEST(TraceSink, EnableAfterTheFirstRunRaises) {
  Simulator sim;
  Clock a(sim, "a", 1_ns);
  Clock b(sim, "b", 1_ns);
  Module top(sim, "top");
  Stream sa(top, "sa", a);
  Stream sb(top, "sb", b);
  sim.Run(10_ns);
  ASSERT_EQ(sim.parallel_shape().second, 2u);
  EXPECT_THROW(sim.trace_events().Enable(), SimError);
  EXPECT_FALSE(sim.trace_events().enabled());
}

// The event cap is split evenly over the clock-domain groups, but never to
// nothing: a cap of one on two groups still records a begin in each.
TEST(TraceSink, CapBelowTheGroupCountKeepsABeginPerGroup) {
  Simulator sim;
  sim.trace_events().Enable();
  sim.trace_events().set_max_events(1);
  Clock a(sim, "a", 1_ns);
  Clock b(sim, "b", 1_ns);
  Module top(sim, "top");
  Stream sa(top, "sa", a);
  Stream sb(top, "sb", b);
  sim.Run(10_ns);
  const TraceEventSink& sink = sim.trace_events();
  ASSERT_EQ(sink.group_count(), 2u);
  for (std::size_t g = 0; g < 2; ++g) {
    const std::vector<TraceEvent>& ev = sink.group_events(g);
    EXPECT_EQ(std::count_if(ev.begin(), ev.end(),
                            [](const TraceEvent& e) {
                              return e.kind == TraceEventKind::kBegin;
                            }),
              1)
        << "group " << g;
  }
  EXPECT_GT(sink.dropped_events(), 0u);
}

// ---------- packetizer parent/child spans ----------

TEST(TracePacketizer, FlitSpansAreChildrenOfMessageSpan) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<PMsg> in_ch(top, "in_ch", clk, 2);
  Buffer<Flit> flit_ch(top, "flit_ch", clk, 2);
  Buffer<PMsg> out_ch(top, "out_ch", clk, 2);
  connections::Packetizer<PMsg, 16> pk(top, "pk", clk, /*dest=*/3);
  connections::DePacketizer<PMsg, 16> dpk(top, "dpk", clk);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);
  constexpr int kMsgs = 10;
  std::vector<PMsg> sent, got;
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<PMsg>& in_ch, Buffer<PMsg>& out_ch,
      std::vector<PMsg>& sent, std::vector<PMsg>& got)
        : Module(p, "b") {
      Thread("src", clk, [&] {
        for (std::uint32_t i = 0; i < kMsgs; ++i) {
          PMsg m{0x1000 + i, static_cast<std::uint16_t>(i * 7)};
          sent.push_back(m);
          in_ch.Push(m);
        }
      });
      Thread("dst", clk, [&] {
        for (int i = 0; i < kMsgs; ++i) got.push_back(out_ch.Pop());
      });
    }
  } b(top, clk, in_ch, out_ch, sent, got);
  sim.Run(2000_ns);
  ASSERT_EQ(got, sent);

  const TraceEventSink& sink = sim.trace_events();
  const TraceTrack* tin = sink.FindTrack("top.in_ch");
  const TraceTrack* tflit = sink.FindTrack("top.flit_ch");
  const TraceTrack* tout = sink.FindTrack("top.out_ch");
  ASSERT_NE(tin, nullptr);
  ASSERT_NE(tflit, nullptr);
  ASSERT_NE(tout, nullptr);
  constexpr unsigned kFlits = 3;  // 48-bit message over 16-bit flits
  EXPECT_EQ(tflit->begins(), kMsgs * kFlits);
  EXPECT_EQ(tflit->ends(), kMsgs * kFlits);

  std::set<std::uint64_t> msg_spans, reassembled_spans;
  sink.ForEachEvent([&](const TraceEvent& e) {
    if (e.kind != TraceEventKind::kBegin) return;
    if (e.track == tin->id()) msg_spans.insert(e.span);
    if (e.track == tout->id()) reassembled_spans.insert(e.span);
    if (e.track == tflit->id()) {
      const TraceSpanInfo* si = sink.SpanInfoOf(e.span);
      ASSERT_NE(si, nullptr);
      EXPECT_NE(si->parent, 0u) << "flit span must have a parent";
      EXPECT_LT(si->flit_index, kFlits);
      EXPECT_TRUE(msg_spans.count(si->parent))
          << "flit parent must be a message span";
    }
  });
  // The DePacketizer resumes the ORIGINAL message span for the reassembled
  // push: the out channel carries the same spans as the in channel.
  EXPECT_EQ(reassembled_spans, msg_spans);
}

// ---------- Stop() consistency ----------

TEST(TraceStop, MidRunStopLeavesSinkConsistentAndResumable) {
  Simulator sim;
  sim.stats().Enable();
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 4);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& ch) : Module(p, "b") {
      Thread("src", clk, [&ch] {
        for (int i = 0; i < 60; ++i) ch.Push(i);
      });
      Thread("dst", clk, [&ch, this] {
        for (int i = 0; i < 60; ++i) {
          wait(2);  // slower than the producer: the buffer stays occupied
          got.push_back(ch.Pop());
        }
      });
      Thread("watchdog", clk, [this] {
        wait(10);
        sim().Stop();
      });
    }
    std::vector<int> got;
  } b(top, clk, ch);

  sim.RunUntil(10'000_ns);  // the watchdog stops this run early
  const TraceEventSink& sink = sim.trace_events();
  EXPECT_LT(b.got.size(), 60u);
  // Accounting must be consistent at the stop point: every opened slice is
  // either closed or still resident — nothing half-open or lost.
  EXPECT_EQ(sink.total_begins(), sink.total_ends() + sink.open_slices());
  EXPECT_GT(sink.open_slices(), 0u) << "messages should be in flight";
  // The export is balanced even with open slices (synthesized closes).
  const std::string doc = trace::FormatChromeJson(sim);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), CountSubstr(doc, "\"ph\":\"e\""));
  EXPECT_GT(CountSubstr(doc, "\"truncated\":true"), 0u);

  // The stop must not corrupt the sink: resuming completes the run and
  // drains every slice.
  sim.Run(10'000_ns);
  EXPECT_EQ(b.got.size(), 60u);
  EXPECT_EQ(sink.total_begins(), sink.total_ends());
  EXPECT_EQ(sink.open_slices(), 0u);
}

// ---------- blame chains ----------

TEST(TraceBlame, ChainFollowsBackpressureToRootCause) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  // prod -> a -> relay1 -> b -> relay2 -> c -> slow consumer. The slow
  // consumer is the root cause of backpressure on all three channels.
  Buffer<int> a(top, "a", clk, 1);
  Buffer<int> b(top, "b", clk, 1);
  Buffer<int> c(top, "c", clk, 1);
  Relay relay1(top, "relay1", clk, a, b);
  Relay relay2(top, "relay2", clk, b, c);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& c) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 500; ++i) a.Push(i);
      });
      Thread("slow", clk, [&c] {
        for (;;) {
          wait(16);
          (void)c.Pop();
        }
      });
    }
  } tb(top, clk, a, c);
  sim.Run(2000_ns);

  const auto chains = trace::AttributeBackpressure(sim, 10);
  ASSERT_FALSE(chains.empty());
  const trace::BlameChain* for_a = nullptr;
  for (const auto& ch : chains) {
    if (ch.start == "top.a") for_a = &ch;
  }
  ASSERT_NE(for_a, nullptr) << "channel a must appear among stalled channels";
  ASSERT_GE(for_a->links.size(), 2u);
  EXPECT_EQ(for_a->links[0].track, "top.b");
  EXPECT_TRUE(for_a->links[0].push_block);
  EXPECT_EQ(for_a->links[1].track, "top.c");
  EXPECT_TRUE(for_a->links[1].push_block);
  EXPECT_EQ(for_a->root_track(), "top.c");
  EXPECT_NE(for_a->root_cause.find("consumer busy"), std::string::npos)
      << "actual root cause: " << for_a->root_cause;

  // Determinism: a second attribution pass gives the identical report.
  const auto again = trace::AttributeBackpressure(sim, 10);
  EXPECT_EQ(trace::FormatTable(chains), trace::FormatTable(again));
}

// ---------- Chrome JSON export ----------

TEST(TraceChromeJson, StructureAndMetadata) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  Buffer<int> a(top, "a", clk, 2);
  Buffer<int> b(top, "b", clk, 2);
  Relay relay(top, "relay", clk, a, b);
  struct B : Module {
    B(Module& p, Clock& clk, Buffer<int>& a, Buffer<int>& b) : Module(p, "b") {
      Thread("src", clk, [&a] {
        for (int i = 0; i < 8; ++i) a.Push(i);
      });
      Thread("dst", clk, [&b] {
        for (int i = 0; i < 8; ++i) (void)b.Pop();
      });
    }
  } tb(top, clk, a, b);
  sim.Run(1000_ns);
  const std::string doc = trace::FormatChromeJson(sim);
  EXPECT_NE(doc.find("\"craft-trace-v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  // Both channels live under module "top": one process, two threads.
  EXPECT_EQ(CountSubstr(doc, "\"process_name\""), 1u);
  EXPECT_EQ(CountSubstr(doc, "\"thread_name\""), 2u);
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), 16u);  // 8 msgs x 2 channels
  EXPECT_EQ(CountSubstr(doc, "\"ph\":\"b\""), CountSubstr(doc, "\"ph\":\"e\""));
}

// ---------- Chrome JSON golden pins ----------

/// A small traced design that reaches every branch of FormatChromeJson: two
/// owner modules, a track name full of bytes JSON must escape, tracks with
/// and without a clock, Packetizer flit spans (`flit`, `parent`), an
/// activity span with `arg`, both stall instants, truncated closes after a
/// Stop(), a begin dropped by the event cap that is still open at the stop
/// (skipped), and timestamps past 1 us with a picosecond remainder.
std::string GoldenDesignDoc(unsigned parallelism) {
  Simulator sim;
  sim.SetParallelism(parallelism);
  sim.trace_events().Enable();
  sim.trace_events().set_max_events(16);
  Clock clk(sim, "clk", 1'250, /*first_edge=*/1'000'250);
  Module top(sim, "top");
  Buffer<PMsg> in_ch(top, "in_ch", clk, 1);
  Buffer<Flit> flit_ch(top, "flit_ch", clk, 1);
  Buffer<PMsg> out_ch(top, "out_ch", clk, 1);
  connections::Packetizer<PMsg, 16> pk(top, "pk", clk, /*dest=*/3);
  connections::DePacketizer<PMsg, 16> dpk(top, "dpk", clk);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);
  TraceTrack* lane = sim.trace_events().RegisterTrack(
      "top.s\"u\\b.l\ta\nn\x01" "e", "activity", "");
  struct Tb : Module {
    Tb(Module& p, Clock& clk, Buffer<PMsg>& in_ch, Buffer<PMsg>& out_ch,
       TraceTrack& lane)
        : Module(p, "tb") {
      Thread("src", clk, [&in_ch] {
        for (std::uint32_t i = 0;; ++i) {
          in_ch.Push(PMsg{0x100 + i, static_cast<std::uint16_t>(i)});
        }
      });
      Thread("dst", clk, [&out_ch] {
        for (;;) (void)out_ch.Pop();
      });
      Thread("script", clk, [&lane, this] {
        lane.BeginActivity(42);  // never ended: closed as truncated
        const std::uint64_t brief = lane.BeginActivity();
        wait(2);
        lane.EndActivity(brief);
        wait(2);                // the event cap is reached by now
        lane.BeginActivity(7);  // dropped, still open at the stop
        sim().Stop();
      });
    }
  } tb(top, clk, in_ch, out_ch, *lane);
  sim.RunUntil(1_ms);

  EXPECT_GT(sim.trace_events().dropped_events(), 0u);
  const auto& resident = lane->resident_spans();
  EXPECT_TRUE(!resident.empty() && (resident.back() >> 63) != 0)
      << "dropped begin not open";
  return trace::FormatChromeJson(sim);
}

/// FNV-1a, 64 bit: a fingerprint for documents too large to pin inline.
std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// One clock is one group at any worker count: the document is the same
// for every n, with group 0's unprefixed span ids.
TEST(TraceChromeJsonGolden, SmallDesignByteForByte) {
  const std::string doc = GoldenDesignDoc(1);
  for (unsigned n : {2u, 4u}) EXPECT_EQ(GoldenDesignDoc(n), doc) << "n=" << n;
  EXPECT_EQ(doc, R"json({
"traceEvents": [
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"top"}},
{"ph":"M","name":"process_name","pid":2,"tid":0,"args":{"name":"top.s\"u\\b"}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"in_ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"flit_ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":1,"tid":3,"args":{"name":"out_ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"l\ta\nn\u0001e [activity]"}},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":1,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":2,"ts":0.000000},
{"ph":"b","cat":"span","id":"0x1","name":"top.in_ch","pid":1,"tid":1,"ts":0.000000,"args":{"kind":"Buffer","clock":"clk"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":1,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":3,"ts":0.000000},
{"ph":"b","cat":"span","id":"0x2","name":"top.s\"u\\b.l\ta\nn\u0001e","pid":2,"tid":1,"ts":0.000000,"args":{"kind":"activity","arg":42}},
{"ph":"b","cat":"span","id":"0x3","name":"top.s\"u\\b.l\ta\nn\u0001e","pid":2,"tid":1,"ts":0.000000,"args":{"kind":"activity"}},
{"ph":"e","cat":"span","id":"0x1","name":"top.in_ch","pid":1,"tid":1,"ts":1.000250},
{"ph":"b","cat":"span","id":"0x4","name":"top.flit_ch","pid":1,"tid":2,"ts":1.000250,"args":{"kind":"Buffer","clock":"clk","flit":0,"parent":"0x1"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":2,"ts":1.000250},
{"ph":"b","cat":"span","id":"0x6","name":"top.in_ch","pid":1,"tid":1,"ts":1.000250,"args":{"kind":"Buffer","clock":"clk"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":1,"ts":1.000250},
{"ph":"e","cat":"span","id":"0x4","name":"top.flit_ch","pid":1,"tid":2,"ts":1.001500},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":2,"ts":1.001500},
{"ph":"e","cat":"span","id":"0x3","name":"top.s\"u\\b.l\ta\nn\u0001e","pid":2,"tid":1,"ts":1.001500},
{"ph":"b","cat":"span","id":"0x5","name":"top.flit_ch","pid":1,"tid":2,"ts":1.002750,"args":{"kind":"Buffer","clock":"clk","flit":1,"parent":"0x1"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":2,"ts":1.002750},
{"ph":"e","cat":"span","id":"0x5","name":"top.flit_ch","pid":1,"tid":2,"ts":1.004000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":2,"ts":1.004000},
{"ph":"e","cat":"span","id":"0x6","name":"top.in_ch","pid":1,"tid":1,"ts":1.004000,"args":{"truncated":true}},
{"ph":"e","cat":"span","id":"0x2","name":"top.s\"u\\b.l\ta\nn\u0001e","pid":2,"tid":1,"ts":1.004000,"args":{"truncated":true}}
],
"displayTimeUnit": "ms",
"otherData": {"schema": "craft-trace-v1", "tracks": 4, "spans": 8, "begins": 7, "ends": 4, "truncated": 2, "dropped_events": 1}
}
)json");
}

/// Two clock-domain groups with the same edges and no crossing: `clk`
/// (group 0) runs one Buffer, `clk2` (group 1) a Packetizer path, so the
/// same-timestamp events of both groups interleave.
std::string TwoGroupDesignDoc(unsigned parallelism) {
  Simulator sim;
  sim.SetParallelism(parallelism);
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1'250, /*first_edge=*/1'000'250);
  Clock clk2(sim, "clk2", 1'250, /*first_edge=*/1'000'250);
  Module top(sim, "top");
  Buffer<int> ch(top, "ch", clk, 1);
  Buffer<PMsg> in_ch(top, "in_ch", clk2, 1);
  Buffer<Flit> flit_ch(top, "flit_ch", clk2, 1);
  Buffer<PMsg> out_ch(top, "out_ch", clk2, 1);
  connections::Packetizer<PMsg, 16> pk(top, "pk", clk2, /*dest=*/3);
  connections::DePacketizer<PMsg, 16> dpk(top, "dpk", clk2);
  pk.in(in_ch);
  pk.out(flit_ch);
  dpk.in(flit_ch);
  dpk.out(out_ch);
  struct Tb : Module {
    Tb(Module& p, const char* name, Clock& clk, std::function<void()> src,
       std::function<void()> dst)
        : Module(p, name) {
      Thread("src", clk, std::move(src));
      Thread("dst", clk, std::move(dst));
    }
  };
  Tb tb0(top, "tb0", clk, [&ch] { for (int i = 0;; ++i) ch.Push(i); },
         [&ch] { for (;;) (void)ch.Pop(); });
  Tb tb1(top, "tb1", clk2,
         [&in_ch] {
           for (std::uint32_t i = 0;; ++i) {
             in_ch.Push(PMsg{0x100 + i, static_cast<std::uint16_t>(i)});
           }
         },
         [&out_ch] { for (;;) (void)out_ch.Pop(); });
  sim.RunUntil(1'004'000);
  EXPECT_EQ(sim.trace_events().group_count(), 2u);
  return trace::FormatChromeJson(sim);
}

// Group 1's span ids are 1 << 40 | index: the hex path past 2^40, in a
// span's id and in a flit's parent. Same-timestamp events are ordered by
// group, so the document is the same for every worker count.
TEST(TraceChromeJsonGolden, ShardedSpanIdsByteForByte) {
  const std::string doc = TwoGroupDesignDoc(1);
  for (unsigned n : {2u, 4u}) EXPECT_EQ(TwoGroupDesignDoc(n), doc) << "n=" << n;
  EXPECT_EQ(doc, R"json({
"traceEvents": [
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"top"}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"in_ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":1,"tid":3,"args":{"name":"flit_ch [Buffer]"}},
{"ph":"M","name":"thread_name","pid":1,"tid":4,"args":{"name":"out_ch [Buffer]"}},
{"ph":"b","cat":"span","id":"0x1","name":"top.ch","pid":1,"tid":1,"ts":0.000000,"args":{"kind":"Buffer","clock":"clk"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":1,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":1,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":2,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":3,"ts":0.000000},
{"ph":"b","cat":"span","id":"0x10000000001","name":"top.in_ch","pid":1,"tid":2,"ts":0.000000,"args":{"kind":"Buffer","clock":"clk2"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":2,"ts":0.000000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":4,"ts":0.000000},
{"ph":"e","cat":"span","id":"0x1","name":"top.ch","pid":1,"tid":1,"ts":1.000250},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":1,"ts":1.000250},
{"ph":"e","cat":"span","id":"0x10000000001","name":"top.in_ch","pid":1,"tid":2,"ts":1.000250},
{"ph":"b","cat":"span","id":"0x10000000002","name":"top.flit_ch","pid":1,"tid":3,"ts":1.000250,"args":{"kind":"Buffer","clock":"clk2","flit":0,"parent":"0x10000000001"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":3,"ts":1.000250},
{"ph":"b","cat":"span","id":"0x10000000004","name":"top.in_ch","pid":1,"tid":2,"ts":1.000250,"args":{"kind":"Buffer","clock":"clk2"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":2,"ts":1.000250},
{"ph":"b","cat":"span","id":"0x2","name":"top.ch","pid":1,"tid":1,"ts":1.001500,"args":{"kind":"Buffer","clock":"clk"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":1,"ts":1.001500},
{"ph":"e","cat":"span","id":"0x10000000002","name":"top.flit_ch","pid":1,"tid":3,"ts":1.001500},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":3,"ts":1.001500},
{"ph":"e","cat":"span","id":"0x2","name":"top.ch","pid":1,"tid":1,"ts":1.002750},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":1,"ts":1.002750},
{"ph":"b","cat":"span","id":"0x10000000003","name":"top.flit_ch","pid":1,"tid":3,"ts":1.002750,"args":{"kind":"Buffer","clock":"clk2","flit":1,"parent":"0x10000000001"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":3,"ts":1.002750},
{"ph":"b","cat":"span","id":"0x3","name":"top.ch","pid":1,"tid":1,"ts":1.004000,"args":{"kind":"Buffer","clock":"clk"}},
{"ph":"i","s":"t","cat":"stall","name":"full_stall","pid":1,"tid":1,"ts":1.004000},
{"ph":"e","cat":"span","id":"0x10000000003","name":"top.flit_ch","pid":1,"tid":3,"ts":1.004000},
{"ph":"i","s":"t","cat":"stall","name":"empty_stall","pid":1,"tid":3,"ts":1.004000},
{"ph":"e","cat":"span","id":"0x3","name":"top.ch","pid":1,"tid":1,"ts":1.004000,"args":{"truncated":true}},
{"ph":"e","cat":"span","id":"0x10000000004","name":"top.in_ch","pid":1,"tid":2,"ts":1.004000,"args":{"truncated":true}}
],
"displayTimeUnit": "ms",
"otherData": {"schema": "craft-trace-v1", "tracks": 4, "spans": 8, "begins": 7, "ends": 5, "truncated": 2, "dropped_events": 0}
}
)json");
}

TEST(TraceChromeJsonGolden, Conv2dGalsSocLengthAndHash) {
  Simulator sim;
  sim.stats().Enable();
  sim.trace_events().Enable();
  soc::SocTop soc(sim, soc::SocConfig{});
  const auto all = soc::AllWorkloads();
  const auto conv2d = std::find_if(all.begin(), all.end(),
                                   [](const soc::Workload& w) { return w.name == "conv2d"; });
  ASSERT_NE(conv2d, all.end());
  ASSERT_TRUE(soc::RunWorkload(soc, *conv2d, 50_ms).ok);
  const std::string doc = trace::FormatChromeJson(sim);
  // The document `craft_trace --workload conv2d` writes.
  EXPECT_EQ(doc.size(), 7'376'831u);
  EXPECT_EQ(Fnv1a(doc), 0x182228078742fe92ull);
}

// ---------- VCD Tracer fixes ----------

TEST(Tracer, SanitizesHostileNamesAndEmitsHeaderAndInitialValues) {
  const std::string path = ::testing::TempDir() + "/craft_trace_vcd_test.vcd";
  {
    Simulator sim;
    Clock clk(sim, "clk", 1_ns);
    Signal<std::uint8_t> evil(sim, "bus[3]\tnasty\nname", 0xA5);
    Signal<bool> flag(sim, "flag", true);
    Tracer tracer(sim, path);
    tracer.Trace(evil, 8);
    tracer.Trace(flag, 1);
    tracer.Start();
    Module top(sim, "top");
    struct B : Module {
      B(Module& p, Clock& clk, Signal<std::uint8_t>& s) : Module(p, "b") {
        Thread("t", clk, [&s] {
          wait();
          s.write(0x3C);
        });
      }
    } b(top, clk, evil);
    sim.Run(10_ns);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool in_dumpvars = false;
  unsigned var_lines = 0, initial_values = 0;
  bool saw_date = false, saw_version = false, saw_change = false;
  while (std::getline(in, line)) {
    if (line.rfind("$date", 0) == 0) saw_date = true;
    if (line.rfind("$version", 0) == 0) saw_version = true;
    if (line.rfind("$var", 0) == 0) {
      ++var_lines;
      // The identifier must be one whitespace-free token without brackets:
      // "$var wire <w> <id> <name> $end" is exactly 6 tokens.
      std::istringstream ts(line);
      std::vector<std::string> tok;
      std::string t;
      while (ts >> t) tok.push_back(t);
      ASSERT_EQ(tok.size(), 6u) << line;
      EXPECT_EQ(tok.back(), "$end");
      EXPECT_EQ(tok[4].find('['), std::string::npos);
      EXPECT_EQ(tok[4].find(']'), std::string::npos);
    }
    if (line == "$dumpvars") {
      in_dumpvars = true;
      continue;
    }
    if (in_dumpvars) {
      if (line == "$end") {
        in_dumpvars = false;
      } else {
        ++initial_values;
        // Scalar ("1!") or vector ("b10100101 !") value change syntax.
        EXPECT_TRUE(line[0] == '0' || line[0] == '1' || line[0] == 'b') << line;
      }
    }
    if (line == "b10100101 !") saw_change = false;  // value seen below instead
    if (line.rfind("b00111100", 0) == 0) saw_change = true;  // 0x3C written at runtime
  }
  EXPECT_TRUE(saw_date);
  EXPECT_TRUE(saw_version);
  EXPECT_EQ(var_lines, 2u);
  EXPECT_EQ(initial_values, 2u) << "every var needs an initial value";
  EXPECT_TRUE(saw_change);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace craft
