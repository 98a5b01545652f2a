// Packetizer / DePacketizer network channels (paper Table 1, Fig. 2e).
//
// A Packetizer converts messages into a stream of fixed-width flits suitable
// for transport over a NoC; a DePacketizer reassembles them. Together they
// let the *same* producer/consumer code run over a dedicated channel or
// across a network — the physical implementation of an LI channel may
// "include packetize/depacketize logic to send data between a producer and a
// consumer across a NoC" (§2.3).
#pragma once

#include <cstdint>
#include <vector>

#include "connections/connections.hpp"
#include "kernel/bits.hpp"

namespace craft::connections {

/// One network flit: a fixed-width payload slice plus first/last framing.
struct Flit {
  std::uint64_t payload = 0;
  bool first = false;
  bool last = false;
  std::uint8_t dest = 0;  ///< routing tag, used by NoC routers
  std::uint8_t vc = 0;    ///< virtual channel, used by WHVC routers

  bool operator==(const Flit&) const = default;
};

}  // namespace craft::connections

namespace craft {

template <>
struct Marshal<connections::Flit> {
  static constexpr unsigned kWidth = 64 + 2 + 8 + 8;
  static void Write(BitStream& s, const connections::Flit& f) {
    s.PutBits(f.payload, 64);
    s.PutBits(f.first, 1);
    s.PutBits(f.last, 1);
    s.PutBits(f.dest, 8);
    s.PutBits(f.vc, 8);
  }
  static connections::Flit Read(BitStream& s) {
    connections::Flit f;
    f.payload = s.GetBits(64);
    f.first = s.GetBits(1);
    f.last = s.GetBits(1);
    f.dest = static_cast<std::uint8_t>(s.GetBits(8));
    f.vc = static_cast<std::uint8_t>(s.GetBits(8));
    return f;
  }
};

/// craft-chaos corruption support: flits are the unit a marginal physical
/// link corrupts, so flit channels may host bit-flips. Only payload bits are
/// flipped — framing/routing upsets are modeled by drop/duplicate faults
/// (losing or repeating the whole flit), not by forging first/last/dest.
template <>
struct ChaosFlip<connections::Flit> {
  static constexpr bool kSupported = true;
  static void Flip(connections::Flit& f, unsigned bit) {
    f.payload ^= 1ull << (bit % 64);
  }
};

}  // namespace craft

namespace craft::connections {

/// Packetizer: pops T messages, pushes FlitBits-wide flits (one per cycle).
/// T must provide a Marshal<T> specialization.
template <typename T, unsigned kFlitBits = 32>
class Packetizer : public Module {
 public:
  static_assert(kFlitBits >= 1 && kFlitBits <= 64);

  In<T> in;
  Out<Flit> out;

  /// `dest` tags every flit of every packet (static route); use the functor
  /// overload for per-message routing.
  Packetizer(Module& parent, const std::string& name, Clock& clk, std::uint8_t dest = 0)
      : Packetizer(parent, name, clk, [dest](const T&) { return dest; }) {}

  Packetizer(Module& parent, const std::string& name, Clock& clk,
             std::function<std::uint8_t(const T&)> route)
      : Module(parent, name), route_(std::move(route)) {
    sim().design_graph().AddPacketizer(DesignGraph::PacketizerNode{
        full_name(), DemangleTypeName(typeid(T).name()), Marshal<T>::kWidth,
        kFlitBits, /*is_packetizer=*/true});
    if (sim().trace_events().enabled()) trace_sink_ = &sim().trace_events();
    // craft-cover flit-count bins; nullptr (never-taken branch) unless
    // enabled before elaboration.
    cover_ = sim().cover().RegisterPacketizer(full_name(), FlitsPerMessage(),
                                              /*is_packetizer=*/true);
    Thread("run", clk, [this] { Run(); });
  }

  static constexpr unsigned FlitsPerMessage() {
    return DivCeil(Marshal<T>::kWidth, kFlitBits);
  }

 private:
  void Run() {
    // One bit buffer and one flit vector for the thread's lifetime: after the
    // first message, marshalling allocates nothing.
    BitStream bits;
    std::vector<std::uint64_t> flits;
    for (;;) {
      const T msg = in.Pop();
      // craft-trace: the pop deposited the message's span in this thread's
      // context; take it as the PARENT and give every flit its own child
      // span, so a flit's whole NoC journey hangs off the message span.
      const std::uint64_t parent =
          trace_sink_ != nullptr ? trace_sink_->TakeContextOrNew() : 0;
      bits.Clear();
      Marshal<T>::Write(bits, msg);
      bits.ToFlits(kFlitBits, flits);
      if (cover_ != nullptr) cover_->OnMessage(flits.size());
      const std::uint8_t dest = route_(msg);
      for (std::size_t i = 0; i < flits.size(); ++i) {
        Flit f;
        f.payload = flits[i];
        f.first = (i == 0);
        f.last = (i + 1 == flits.size());
        f.dest = dest;
        if (trace_sink_ != nullptr) {
          trace_sink_->SetContext(
              trace_sink_->NewSpan(parent, static_cast<std::uint32_t>(i)));
        }
        out.Push(f);
      }
    }
  }

  std::function<std::uint8_t(const T&)> route_;
  TraceEventSink* trace_sink_ = nullptr;  // craft-trace; nullptr unless enabled
  CoverPacketizerPoint* cover_ = nullptr;  // craft-cover; nullptr unless enabled
};

/// DePacketizer: pops flits, reassembles and pushes T messages.
template <typename T, unsigned kFlitBits = 32>
class DePacketizer : public Module {
 public:
  static_assert(kFlitBits >= 1 && kFlitBits <= 64);

  In<Flit> in;
  Out<T> out;

  DePacketizer(Module& parent, const std::string& name, Clock& clk)
      : Module(parent, name) {
    sim().design_graph().AddPacketizer(DesignGraph::PacketizerNode{
        full_name(), DemangleTypeName(typeid(T).name()), Marshal<T>::kWidth,
        kFlitBits, /*is_packetizer=*/false});
    if (sim().trace_events().enabled()) trace_sink_ = &sim().trace_events();
    if (sim().chaos().enabled()) chaos_ = &sim().chaos();
    // craft-cover assembly-outcome bins. This makes the framing-check
    // discard paths observable without a chaos plan armed (the checks
    // themselves always run; only the detection *reporting* needs chaos).
    cover_ = sim().cover().RegisterPacketizer(full_name(), FlitsPerMessage(),
                                              /*is_packetizer=*/false);
    Thread("run", clk, [this] { Run(); });
  }

  static constexpr unsigned FlitsPerMessage() {
    return DivCeil(Marshal<T>::kWidth, kFlitBits);
  }

 private:
  void Run() {
    // Flit payloads accumulate straight into one bit buffer kept for the
    // thread's lifetime, so after the first packet reassembly allocates
    // nothing.
    BitStream bits;
    std::size_t buffered = 0;  // flits of the open packet
    std::uint64_t parent = 0;
    for (;;) {
      const Flit f = in.Pop();
      // craft-chaos framing checks: the fixed flits-per-message framing is
      // this reassembler's checksum. A dropped or duplicated flit anywhere
      // upstream desynchronizes first/last against the accumulator, which is
      // the detection the corruption oracle requires (a flip is caught by
      // the payload oracle downstream instead).
      if (f.first && buffered != 0) {
        if (cover_ != nullptr) cover_->OnHeadResync();
        if (chaos_ != nullptr) {
          chaos_->ReportDetection(full_name(), "framing-head",
                                  "head flit arrived mid-assembly (" +
                                      std::to_string(buffered) + " of " +
                                      std::to_string(FlitsPerMessage()) +
                                      " flits buffered)");
        }
      } else if (!f.first && buffered == 0) {
        if (cover_ != nullptr) cover_->OnOrphan();
        if (chaos_ != nullptr) {
          chaos_->ReportDetection(full_name(), "framing-orphan",
                                  "mid-packet flit with no packet open");
        }
      }
      if (f.first) {
        bits.Clear();
        buffered = 0;
      }
      if (trace_sink_ != nullptr && f.first) {
        // The popped head flit left its child span in the thread context;
        // resume the original message span for the reassembled push.
        parent = trace_sink_->ParentOf(trace_sink_->PeekContext());
      }
      bits.PutBits(f.payload, kFlitBits);
      ++buffered;
      if (f.last) {
        if (buffered != FlitsPerMessage()) {
          // Malformed packet: discard instead of unmarshalling (a short
          // packet would underflow the bit stream). The missing message is
          // then caught by the end-to-end oracle (shortfall or hang).
          if (cover_ != nullptr) cover_->OnDiscard();
          if (chaos_ != nullptr) {
            chaos_->ReportDetection(full_name(), "framing-count",
                                    "packet closed with " +
                                        std::to_string(buffered) +
                                        " flits, expected " +
                                        std::to_string(FlitsPerMessage()));
          }
          bits.Clear();
          buffered = 0;
          continue;
        }
        if (cover_ != nullptr) cover_->OnAssembled();
        if (trace_sink_ != nullptr) trace_sink_->SetContext(parent);
        out.Push(Marshal<T>::Read(bits));
        bits.Clear();
        buffered = 0;
      }
    }
  }

  TraceEventSink* trace_sink_ = nullptr;  // craft-trace; nullptr unless enabled
  ChaosEngine* chaos_ = nullptr;          // craft-chaos; nullptr unless enabled
  CoverPacketizerPoint* cover_ = nullptr;  // craft-cover; nullptr unless enabled
};

}  // namespace craft::connections
