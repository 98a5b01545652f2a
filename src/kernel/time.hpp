// Simulated time representation for the CRAFT-flow kernel.
//
// Time is an absolute simulated timestamp in picoseconds. Picosecond
// resolution lets GALS clock generators express sub-percent frequency
// modulation (supply-noise tracking) without accumulating rounding error
// over millions of cycles.
#pragma once

#include <cstdint>

namespace craft {

/// Absolute simulated time in picoseconds.
using Time = std::uint64_t;

/// Sentinel for "no scheduled time".
inline constexpr Time kTimeNever = ~static_cast<Time>(0);

/// t + d, saturating at kTimeNever: a horizon past the end of time is never.
constexpr Time SaturatingAdd(Time t, Time d) {
  return d >= kTimeNever - t ? kTimeNever : t + d;
}

namespace literals {

constexpr Time operator""_ps(unsigned long long v) { return static_cast<Time>(v); }
constexpr Time operator""_ns(unsigned long long v) { return static_cast<Time>(v) * 1000; }
constexpr Time operator""_us(unsigned long long v) { return static_cast<Time>(v) * 1000 * 1000; }
constexpr Time operator""_ms(unsigned long long v) {
  return static_cast<Time>(v) * 1000 * 1000 * 1000;
}

}  // namespace literals

/// Converts a frequency in MHz to a clock period in picoseconds.
constexpr Time PeriodFromMhz(double mhz) { return static_cast<Time>(1.0e6 / mhz); }

}  // namespace craft
