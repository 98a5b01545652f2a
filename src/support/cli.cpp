#include "support/cli.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace craft::cli {

bool WriteFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

bool Emit(const std::string& tool, const std::string& path, std::string_view doc) {
  if (path.empty() || path == "-") {
    std::fwrite(doc.data(), 1, doc.size(), stdout);
    return true;
  }
  if (WriteFile(path, doc)) return true;
  std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(), path.c_str());
  return false;
}

std::FILE* OpenLog(const std::string& tool, const std::string& path,
                   const char* mode) {
  if (path.empty()) return stderr;
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr)
    std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(), path.c_str());
  return f;
}

void CloseLog(std::FILE* log) {
  if (log != nullptr && log != stderr) std::fclose(log);
}

namespace {

/// Strict unsigned decimal: the whole text must be digits (leading zeros
/// included) whose value fits in T. No sign, no base prefix, no blanks.
template <typename T>
bool ParseDecimal(std::string_view text, T* out) {
  T v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) return false;
  *out = v;
  return true;
}

}  // namespace

bool EnvParallelism(unsigned* n, std::string* error) {
  const char* env = std::getenv("CRAFT_PARALLELISM");
  if (env == nullptr) {
    *n = 1;
    return true;
  }
  const std::string_view text(env);
  unsigned v = 0;
  if (!ParseDecimal(text, &v) || v == 0) {
    *error = "CRAFT_PARALLELISM='" + std::string(text) +
             "' is not a decimal integer from 1 to " +
             std::to_string(std::numeric_limits<unsigned>::max());
    return false;
  }
  *n = v;
  return true;
}

Parser::Parser(std::string tool, std::string usage)
    : tool_(std::move(tool)), usage_(std::move(usage)) {}

void Parser::Flag(const std::string& name, bool* out) {
  Spec s;
  s.name = name;
  s.kind = Kind::kFlag;
  s.flag = out;
  specs_.push_back(std::move(s));
}

void Parser::Str(const std::string& name, std::string* out) {
  Spec s;
  s.name = name;
  s.kind = Kind::kStr;
  s.str = out;
  specs_.push_back(std::move(s));
}

void Parser::StrList(const std::string& name, std::vector<std::string>* out) {
  Spec s;
  s.name = name;
  s.kind = Kind::kStrList;
  s.list = out;
  specs_.push_back(std::move(s));
}

void Parser::OptStr(const std::string& name, bool* present, std::string* value) {
  Spec s;
  s.name = name;
  s.kind = Kind::kOptStr;
  s.present = present;
  s.str = value;
  specs_.push_back(std::move(s));
}

void Parser::U64(const std::string& name, std::uint64_t* out, bool* seen) {
  Spec s;
  s.name = name;
  s.kind = Kind::kU64;
  s.u64 = out;
  s.seen = seen;
  specs_.push_back(std::move(s));
}

void Parser::U32(const std::string& name, unsigned* out, bool* seen) {
  Spec s;
  s.name = name;
  s.kind = Kind::kU32;
  s.u32 = out;
  s.seen = seen;
  specs_.push_back(std::move(s));
}

void Parser::U64List(const std::string& name, std::vector<std::uint64_t>* out) {
  Spec s;
  s.name = name;
  s.kind = Kind::kU64List;
  s.u64_list = out;
  specs_.push_back(std::move(s));
}

void Parser::F64(const std::string& name, double* out) {
  Spec s;
  s.name = name;
  s.kind = Kind::kF64;
  s.f64 = out;
  specs_.push_back(std::move(s));
}

void Parser::Choice(const std::string& name, std::string* out,
                    std::vector<std::string> allowed) {
  Spec s;
  s.name = name;
  s.kind = Kind::kChoice;
  s.str = out;
  s.allowed = std::move(allowed);
  specs_.push_back(std::move(s));
}

void Parser::Action(const std::string& name, std::function<void()> fn) {
  Spec s;
  s.name = name;
  s.kind = Kind::kAction;
  s.action = std::move(fn);
  specs_.push_back(std::move(s));
}

void Parser::Alias(const std::string& short_name, const std::string& long_name) {
  aliases_.emplace_back(short_name, long_name);
}

void Parser::Positionals(std::vector<std::string>* out) { positionals_ = out; }

Parser::Spec* Parser::FindSpec(const std::string& name) {
  for (Spec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

Status Parser::UsageError(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
  std::fputs(usage_.c_str(), stderr);
  return Status::kExitUsage;
}

namespace {

bool ParseF64(const std::string& v, double* out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double n = std::strtod(v.c_str(), &end);
  if (errno != 0 || end == v.c_str() || *end != '\0' || n < 0.0) return false;
  *out = n;
  return true;
}

std::string JoinAllowed(const std::vector<std::string>& allowed) {
  std::string s;
  for (std::size_t i = 0; i < allowed.size(); ++i)
    s += (i ? "|" : "") + allowed[i];
  return s;
}

}  // namespace

bool Parser::ApplyValue(Spec& s, const std::string& value, std::string* error) {
  switch (s.kind) {
    case Kind::kStr:
      *s.str = value;
      return true;
    case Kind::kStrList:
      s.list->push_back(value);
      return true;
    case Kind::kOptStr:
      *s.present = true;
      *s.str = value;
      return true;
    case Kind::kU64:
    case Kind::kU64List: {
      std::uint64_t v = 0;
      if (!ParseDecimal(value, &v)) {
        *error = s.name + " wants an unsigned integer, got '" + value + "'";
        return false;
      }
      if (s.kind == Kind::kU64List) s.u64_list->push_back(v);
      else *s.u64 = v;
      if (s.seen != nullptr) *s.seen = true;
      return true;
    }
    case Kind::kU32:
      if (!ParseDecimal(value, s.u32)) {
        *error = s.name + " wants an unsigned integer, got '" + value + "'";
        return false;
      }
      if (s.seen != nullptr) *s.seen = true;
      return true;
    case Kind::kF64:
      if (!ParseF64(value, s.f64)) {
        *error = s.name + " wants a non-negative number, got '" + value + "'";
        return false;
      }
      return true;
    case Kind::kChoice:
      for (const std::string& a : s.allowed) {
        if (value == a) {
          *s.str = value;
          return true;
        }
      }
      *error = "unknown " + s.name + " value '" + value + "' (expected " +
               JoinAllowed(s.allowed) + ")";
      return false;
    case Kind::kFlag:
    case Kind::kAction:
      *error = s.name + " takes no value";
      return false;
  }
  return false;
}

Status Parser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];

    // Built-ins first, so every tool gets them for free.
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage_.c_str(), stdout);
      return Status::kExitOk;
    }
    if (arg == "--version") {
      std::printf("%s %s\n", tool_.c_str(), kToolVersion);
      return Status::kExitOk;
    }

    // Positional: not flag-shaped, or the conventional "-" (stdin/stdout).
    if (arg.empty() || arg[0] != '-' || arg == "-") {
      if (positionals_ == nullptr)
        return UsageError("unexpected argument '" + arg + "'");
      positionals_->push_back(arg);
      continue;
    }

    for (const auto& [short_name, long_name] : aliases_) {
      if (arg == short_name) {
        arg = long_name;
        break;
      }
    }

    // Split --name=value.
    std::string name = arg;
    std::string value;
    bool has_eq = false;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_eq = true;
    }

    Spec* s = FindSpec(name);
    if (s == nullptr) return UsageError("unknown flag '" + name + "'");

    if (s->kind == Kind::kFlag || s->kind == Kind::kAction) {
      if (has_eq) return UsageError(name + " takes no value");
      if (s->kind == Kind::kAction) {
        s->action();
        return Status::kExitOk;
      }
      *s->flag = true;
      continue;
    }

    if (s->kind == Kind::kOptStr && !has_eq) {
      *s->present = true;  // bare `--json`: value stays at its default
      continue;
    }

    if (!has_eq) {
      if (i + 1 >= argc) return UsageError(name + " wants a value");
      value = argv[++i];
    }

    std::string error;
    if (!ApplyValue(*s, value, &error)) return UsageError(error);
  }
  unsigned workers = 0;
  if (std::string error; !EnvParallelism(&workers, &error)) {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), error.c_str());
    return Status::kExitUsage;
  }
  return Status::kContinue;
}

}  // namespace craft::cli
