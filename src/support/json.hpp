// craft::json — the one JSON layer every craft_* tool shares.
//
// Emission: the appending `EscapeTo`, `Escape`/`Quote` over it, and a
// byte-exact `Writer`. The repo's report documents (craft-lint-v1,
// craft-chaos-v1, craft-cover-v1, ...) are golden-tested byte for byte and
// diffed across runs/shards, so the Writer does NOT impose a layout of its
// own: callers keep full control of whitespace via Raw(), while all string
// quoting/escaping funnels through one escaper.
//
// Parsing: a small recursive-descent parser for the subset the repo emits
// (objects, arrays, strings with the escapes Escape produces, integers,
// doubles, bools, null) preserving object field order. Used by craft_cover's
// merge round-trip and craft_farm's manifest aggregation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace craft::json {

/// Appends `s` escaped for inclusion inside a JSON string literal to *out:
/// `"` `\` `\n` `\t` `\r` get two-character escapes, every other control
/// byte < 0x20 becomes \u00xx, and everything else (including UTF-8
/// multibyte sequences) passes through untouched. The one escaper; the
/// functions below wrap it.
void EscapeTo(std::string* out, std::string_view s);

/// EscapeTo into a fresh string.
std::string Escape(std::string_view s);

/// `"` + Escape(s) + `"` — the quoted form every emitter wants.
std::string Quote(std::string_view s);

/// Byte-exact document builder. Layout (newlines, indentation, separators)
/// stays with the caller via Raw(); the Writer owns correctness-critical
/// pieces: string escaping, number/bool formatting, and the "comma before
/// every element but the first" idiom via Sep().
class Writer {
 public:
  Writer() = default;

  Writer& Raw(std::string_view text) {
    out_.append(text);
    return *this;
  }
  /// Appends the quoted, escaped string literal.
  Writer& String(std::string_view s);
  /// Appends `"key": ` (quoted key, colon, one space).
  Writer& Key(std::string_view key);
  Writer& U64(std::uint64_t v);
  Writer& I64(std::int64_t v);
  Writer& Bool(bool v) { return Raw(v ? "true" : "false"); }
  Writer& Null() { return Raw("null"); }
  /// Shortest round-trip double formatting ("%.17g" trimmed via %g).
  Writer& Double(double v);

  /// The repo-wide separator idiom: emits `if_first` on the first call
  /// (clearing *first), `otherwise` after. Replaces the hand-rolled
  /// `os << (first ? "\n" : ",\n")` scattered across the emitters.
  Writer& Sep(bool* first, std::string_view if_first,
              std::string_view otherwise) {
    Raw(*first ? if_first : otherwise);
    *first = false;
    return *this;
  }

  /// Reserves room for `bytes` of document, so appends up to that size
  /// never reallocate.
  void Reserve(std::size_t bytes) { out_.reserve(bytes); }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// A parsed JSON value. Objects preserve field order (`fields`), numbers
/// keep their source text (`text`) so integer counters round-trip exactly.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< number source text or decoded string contents
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  bool IsString() const { return kind == Kind::kString; }
  bool IsNumber() const { return kind == Kind::kNumber; }

  /// Number → u64; 0 for non-numbers, negatives and fractional forms.
  std::uint64_t AsU64() const;
};

/// Parses `text` into `*out`. Returns "" on success, else a one-line error
/// with a byte offset.
std::string Parse(const std::string& text, Value* out);

}  // namespace craft::json
