// MatchLib Serializer/Deserializer: N-bit packets to/from M cycles of
// (N/M)-bit packets (paper Table 2). Used in the PE router interface to
// narrow wide datapath messages onto NoC link widths.
#pragma once

#include <cstdint>
#include <vector>

#include "connections/connections.hpp"
#include "kernel/bits.hpp"

namespace craft::matchlib {

/// Serializer: pops T (width Marshal<T>::kWidth), pushes kSliceBits-wide
/// slices, one per cycle, most message bits in FlitCount() cycles.
template <typename T, unsigned kSliceBits>
class Serializer : public Module {
 public:
  static_assert(kSliceBits >= 1 && kSliceBits <= 64);

  connections::In<T> in;
  connections::Out<std::uint64_t> out;

  Serializer(Module& parent, const std::string& name, Clock& clk) : Module(parent, name) {
    Thread("run", clk, [this] { Run(); });
  }

  static constexpr unsigned SliceCount() {
    return DivCeil(Marshal<T>::kWidth, kSliceBits);
  }

 private:
  void Run() {
    BitStream bits;
    std::vector<std::uint64_t> slices;
    for (;;) {
      const T msg = in.Pop();
      bits.Clear();
      Marshal<T>::Write(bits, msg);
      bits.ToFlits(kSliceBits, slices);
      for (std::uint64_t slice : slices) out.Push(slice);
    }
  }
};

/// Deserializer: pops kSliceBits-wide slices, reassembles T messages.
template <typename T, unsigned kSliceBits>
class Deserializer : public Module {
 public:
  static_assert(kSliceBits >= 1 && kSliceBits <= 64);

  connections::In<std::uint64_t> in;
  connections::Out<T> out;

  Deserializer(Module& parent, const std::string& name, Clock& clk) : Module(parent, name) {
    Thread("run", clk, [this] { Run(); });
  }

  static constexpr unsigned SliceCount() {
    return DivCeil(Marshal<T>::kWidth, kSliceBits);
  }

 private:
  void Run() {
    BitStream bits;
    unsigned slices = 0;
    for (;;) {
      bits.PutBits(in.Pop(), kSliceBits);
      if (++slices == SliceCount()) {
        out.Push(Marshal<T>::Read(bits));
        bits.Clear();
        slices = 0;
      }
    }
  }
};

}  // namespace craft::matchlib
