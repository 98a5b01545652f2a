// Bit-level marshalling utilities, standing in for sc_uint/sc_bv.
//
// Packetizer/DePacketizer channels and the Serializer/Deserializer module
// need to flatten arbitrary message structs into bit streams and recover
// them on the far side. Types participate by specializing Marshal<T> (or by
// being integral, which is handled generically).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "kernel/report.hpp"

namespace craft {

/// A little-endian (bit 0 first) dynamic bit vector with a cursor-based
/// reader/writer interface.
class BitStream {
 public:
  BitStream() = default;

  std::size_t size_bits() const { return bits_.size(); }

  void PutBits(std::uint64_t value, unsigned width) {
    CRAFT_ASSERT(width <= 64, "PutBits width > 64");
    for (unsigned i = 0; i < width; ++i) bits_.push_back((value >> i) & 1);
  }

  std::uint64_t GetBits(unsigned width) {
    CRAFT_ASSERT(width <= 64, "GetBits width > 64");
    CRAFT_ASSERT(cursor_ + width <= bits_.size(), "BitStream underflow");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(bits_[cursor_ + i]) << i;
    }
    cursor_ += width;
    return v;
  }

  void ResetCursor() { cursor_ = 0; }
  bool exhausted() const { return cursor_ >= bits_.size(); }

  /// Empties the stream and rewinds the cursor, keeping the capacity, so a
  /// stream reused message after message stops allocating.
  void Clear() {
    bits_.clear();
    cursor_ = 0;
  }

  /// Splits into fixed-width flits (last one zero-padded), replacing the
  /// contents of `flits` and keeping its capacity.
  void ToFlits(unsigned flit_bits, std::vector<std::uint64_t>& flits) const {
    CRAFT_ASSERT(flit_bits >= 1 && flit_bits <= 64, "flit width must be 1..64");
    flits.clear();
    for (std::size_t i = 0; i < bits_.size(); i += flit_bits) {
      std::uint64_t f = 0;
      for (unsigned b = 0; b < flit_bits && i + b < bits_.size(); ++b) {
        f |= static_cast<std::uint64_t>(bits_[i + b]) << b;
      }
      flits.push_back(f);
    }
    if (flits.empty()) flits.push_back(0);
  }

 private:
  std::vector<bool> bits_;
  std::size_t cursor_ = 0;
};

/// Marshalling trait: specialize for struct message types.
///   static constexpr unsigned kWidth;                 // total bits
///   static void Write(BitStream&, const T&);
///   static T Read(BitStream&);
template <typename T, typename Enable = void>
struct Marshal;

template <typename T>
struct Marshal<T, std::enable_if_t<std::is_integral_v<T>>> {
  static constexpr unsigned kWidth = 8 * sizeof(T);
  static void Write(BitStream& s, const T& v) {
    s.PutBits(static_cast<std::uint64_t>(std::make_unsigned_t<T>(v)), kWidth);
  }
  static T Read(BitStream& s) { return static_cast<T>(s.GetBits(kWidth)); }
};

/// Convenience: bit width of a marshalable type.
template <typename T>
constexpr unsigned BitWidthOf() {
  return Marshal<T>::kWidth;
}

/// Ceiling division for flit counts.
constexpr unsigned DivCeil(unsigned a, unsigned b) { return (a + b - 1) / b; }

}  // namespace craft
