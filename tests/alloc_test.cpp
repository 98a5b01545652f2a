// Heap-allocation gate for the kernel hot path and the trace export. The
// counts are exact, so the bounds sit far from noise: a steady-state clock
// edge allocates nothing, a channel transfer allocates almost nothing, and
// the Chrome trace export allocates per track, not per event. This binary
// replaces global operator new with a counting one, which is why it is not
// part of kernel_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "connections/connections.hpp"
#include "connections/packetizer.hpp"
#include "kernel/kernel.hpp"
#include "trace/trace.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line, so GCC's -Wmismatched-new-delete analysis does not pair
// an inlined malloc() or free() with the other side's operator. The nothrow
// form is replaced too (std::stable_sort's temporary buffer uses it), so
// every block the operator delete below frees came from malloc.
[[gnu::noinline]] void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace craft {
namespace {

using namespace craft::literals;

constexpr Time kWarmUp = 2_us;
constexpr Time kWindow = 20_us;

/// Heap allocations made while `sim` runs for `window`.
std::uint64_t AllocsDuring(Simulator& sim, Time window) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  sim.Run(window);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// Every design here has one clock, so the engine runs one worker inline
// whatever CRAFT_PARALLELISM says (the TSan job sets 4).

TEST(Alloc, ClockOnlyRunAllocatesNothing) {
  Simulator sim;
  Clock clk(sim, "clk", 1_ns);
  sim.Run(kWarmUp);
  EXPECT_EQ(AllocsDuring(sim, kWindow), 0u);
}

class AllocPerTransfer : public ::testing::TestWithParam<SimMode> {};

TEST_P(AllocPerTransfer, BufferTransfersStayUnderOneAllocationInTwenty) {
  std::uint64_t popped = 0;
  Simulator sim;
  sim.set_mode(GetParam());
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<int> ch(top, "ch", clk, 4);
  struct Tb : Module {
    Tb(Module& p, Clock& clk, connections::Buffer<int>& ch, std::uint64_t& popped)
        : Module(p, "tb") {
      Thread("prod", clk, [&ch] {
        for (int i = 0;; ++i) ch.Push(i);
      });
      Thread("cons", clk, [&ch, &popped] {
        for (;;) {
          ch.Pop();
          ++popped;
        }
      });
    }
  } tb(top, clk, ch, popped);
  sim.Run(kWarmUp);
  const std::uint64_t popped_before = popped;
  const std::uint64_t allocs = AllocsDuring(sim, kWindow);
  const std::uint64_t transfers = popped - popped_before;
  ASSERT_GT(transfers, 1000u);
  // What remains is std::deque chunk churn in Channel::q_: one chunk per 128
  // ints pushed through, about 0.008 per transfer. It is left as it is; the
  // scheduler, fiber and channel paths themselves allocate nothing.
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(transfers), 0.05)
      << allocs << " allocations over " << transfers << " transfers";
}

TEST_P(AllocPerTransfer, PacketizerLinkStaysUnderOneAllocationInFourMessages) {
  std::uint64_t received = 0;
  Simulator sim;
  sim.set_mode(GetParam());
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "top");
  connections::Buffer<std::uint64_t> src(top, "src", clk, 4);
  connections::Buffer<connections::Flit> link(top, "link", clk, 4);
  connections::Buffer<std::uint64_t> dst(top, "dst", clk, 4);
  connections::Packetizer<std::uint64_t> pk(top, "pk", clk);
  connections::DePacketizer<std::uint64_t> dp(top, "dp", clk);
  pk.in(src);
  pk.out(link);
  dp.in(link);
  dp.out(dst);
  struct Tb : Module {
    Tb(Module& p, Clock& clk, connections::Buffer<std::uint64_t>& src,
       connections::Buffer<std::uint64_t>& dst, std::uint64_t& received)
        : Module(p, "tb") {
      Thread("prod", clk, [&src] {
        for (std::uint64_t i = 0;; ++i) src.Push(i * 0x9E3779B97F4A7C15ull);
      });
      Thread("cons", clk, [&dst, &received] {
        for (std::uint64_t i = 0;; ++i) {
          if (dst.Pop() != i * 0x9E3779B97F4A7C15ull) return;  // stops the count
          ++received;
        }
      });
    }
  } tb(top, clk, src, dst, received);
  sim.Run(kWarmUp);
  const std::uint64_t received_before = received;
  const std::uint64_t allocs = AllocsDuring(sim, kWindow);
  const std::uint64_t messages = received - received_before;
  ASSERT_GT(messages, 500u);
  // The packetizer and depacketizer keep their bit buffers across messages;
  // what remains is the channels' std::deque chunk churn.
  EXPECT_LT(static_cast<double>(allocs) / static_cast<double>(messages), 0.25)
      << allocs << " allocations over " << messages << " messages";
}

INSTANTIATE_TEST_SUITE_P(BothModels, AllocPerTransfer,
                         ::testing::Values(SimMode::kSimAccurate, SimMode::kSignalAccurate),
                         [](const ::testing::TestParamInfo<SimMode>& info) {
                           return info.param == SimMode::kSimAccurate ? "SimAccurate"
                                                                      : "SignalAccurate";
                         });

struct ExportAllocs {
  std::uint64_t allocs = 0;
  std::size_t tracks = 0;
  std::size_t events = 0;
};

/// Traces a producer -> relay -> consumer chain for `window`, then counts the
/// heap allocations FormatChromeJson makes. The track names are longer than
/// 15 characters, so a per-event copy of a name cannot hide in std::string's
/// inline buffer.
ExportAllocs AllocsToExportAfter(Time window) {
  Simulator sim;
  sim.trace_events().Enable();
  Clock clk(sim, "clk", 1_ns);
  Module top(sim, "traced_pipeline");
  connections::Buffer<int> ingress(top, "ingress_channel", clk, 2);
  connections::Buffer<int> egress(top, "egress_channel", clk, 2);
  struct Tb : Module {
    Tb(Module& p, Clock& clk, connections::Buffer<int>& ingress,
       connections::Buffer<int>& egress)
        : Module(p, "tb") {
      Thread("prod", clk, [&ingress] {
        for (int i = 0;; ++i) ingress.Push(i);
      });
      Thread("relay", clk, [&ingress, &egress] {
        for (;;) egress.Push(ingress.Pop());
      });
      Thread("cons", clk, [&egress] {
        for (;;) egress.Pop();
      });
    }
  } tb(top, clk, ingress, egress);
  sim.Run(window);
  ExportAllocs r;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const std::string doc = trace::FormatChromeJson(sim);
  r.allocs = g_allocs.load(std::memory_order_relaxed) - before;
  r.tracks = sim.trace_events().tracks().size();
  r.events = sim.trace_events().event_count();
  return r;
}

TEST(Alloc, TraceExportAllocatesPerTrackNotPerEvent) {
  constexpr Time kTraced = 2_us;
  const ExportAllocs shorter = AllocsToExportAfter(kTraced);
  const ExportAllocs longer = AllocsToExportAfter(4 * kTraced);
  ASSERT_GT(shorter.events, 1000u);
  ASSERT_GT(longer.events, 3 * shorter.events);
  // Equal for four times the events, give or take one final buffer growth.
  EXPECT_LE(longer.allocs, shorter.allocs + 1)
      << shorter.allocs << " allocations for " << shorter.events << " events, "
      << longer.allocs << " for " << longer.events;
  EXPECT_LE(shorter.allocs, longer.allocs + 1);
  EXPECT_LE(longer.allocs, 16 * longer.tracks)
      << longer.allocs << " allocations for " << longer.tracks << " tracks";
}

}  // namespace
}  // namespace craft
