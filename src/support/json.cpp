#include "support/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace craft::json {

void EscapeTo(std::string* out, std::string_view s) {
  // Bytes that need no escape are appended in runs, not one at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out->append(u, sizeof u);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string Escape(std::string_view s) {
  std::string out;
  EscapeTo(&out, s);
  return out;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  EscapeTo(&out, s);
  out += '"';
  return out;
}

Writer& Writer::String(std::string_view s) {
  out_ += '"';
  EscapeTo(&out_, s);
  out_ += '"';
  return *this;
}

Writer& Writer::Key(std::string_view key) {
  String(key);
  out_ += ": ";
  return *this;
}

Writer& Writer::U64(std::uint64_t v) {
  char buf[20];  // UINT64_MAX has 20 digits
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return Raw({buf, static_cast<std::size_t>(end - buf)});
}

Writer& Writer::I64(std::int64_t v) {
  char buf[20];  // INT64_MIN: a sign and 19 digits
  const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return Raw({buf, static_cast<std::size_t>(end - buf)});
}

Writer& Writer::Double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return Raw(buf);
}

const Value* Value::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t Value::AsU64() const {
  if (kind != Kind::kNumber || text.empty() || text[0] == '-') return 0;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // Fractional/exponent forms are not produced for counters; reject them.
  if (errno != 0 || end == text.c_str() || *end != '\0') return 0;
  return static_cast<std::uint64_t>(v);
}

namespace {

class Parser {
 public:
  Parser(const std::string& s) : s_(s) {}

  std::string Run(Value* out) {
    SkipWs();
    if (!ParseValue(out)) return error_;
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing data"), error_;
    return "";
  }

 private:
  bool Fail(const std::string& why) {
    if (error_.empty())
      error_ = why + " at byte " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool Literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (s_.compare(pos_, n, lit) != 0) return Fail("bad literal");
    pos_ += n;
    return true;
  }

  bool ParseValue(Value* out) {
    if (pos_ >= s_.size()) return Fail("unexpected end");
    switch (s_[pos_]) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->kind = Value::Kind::kString;
        return ParseString(&out->text);
      case 't':
        out->kind = Value::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = Value::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = Value::Kind::kNull;
        return Literal("null");
      default: return ParseNumber(out);
    }
  }

  bool ParseObject(Value* out) {
    out->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      Value v;
      if (!ParseValue(&v)) return false;
      out->fields.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(Value* out) {
    out->kind = Value::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      Value v;
      if (!ParseValue(&v)) return false;
      out->items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return Fail("bad escape");
        const char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Fail("bad \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_ + static_cast<std::size_t>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail("bad \\u escape");
            }
            pos_ += 4;
            // Emit UTF-8. The emitters only \u-escape control characters
            // (< 0x20), but decode the full BMP for robustness; surrogate
            // pairs are passed through as-is (never emitted by this repo).
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default: return Fail("bad escape");
        }
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return Fail("expected value");
    out->kind = Value::Kind::kNumber;
    out->text = s_.substr(start, pos_ - start);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::string Parse(const std::string& text, Value* out) {
  return Parser(text).Run(out);
}

}  // namespace craft::json
