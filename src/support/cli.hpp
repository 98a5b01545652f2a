// craft::cli — the shared argument parser behind every craft_* entrypoint.
//
// All eight tools accept the same flag grammar: `--name`, `--name VALUE`,
// `--name=VALUE`, optional-value flags (`--json` vs `--json=FILE`),
// repeatable list flags, registered short aliases (`-o` → `--output`), and
// bare positionals where a command takes input files. The parser owns the
// repo-wide conventions so no main() re-implements them:
//
//  * `--help` prints the usage block to stdout and exits 0;
//  * `--version` prints "<tool> <version>" and exits 0;
//  * unknown flags, malformed numbers and out-of-set choice values are a
//    one-line stderr diagnostic followed by the usage block, exit 2;
//  * every craft_* tool exits 0 on success, 1 on a gated finding (lint
//    error, oracle failure, coverage regression, trial failure), 2 on
//    usage/IO errors — see README "Exit codes".
//
// main() shape:
//
//   cli::Parser p("craft_foo", kUsage);
//   p.Flag("--quiet", &quiet);
//   p.U64("--seed", &seed);
//   if (auto s = p.Parse(argc, argv); s != cli::Status::kContinue)
//     return cli::ExitCode(s);
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace craft::cli {

/// The version every tool reports via --version (and stamps into SARIF).
inline constexpr const char* kToolVersion = "1.0.0";

enum class Status {
  kContinue,   ///< parsed cleanly; run the tool
  kExitOk,     ///< --help / --version / an action flag handled; exit 0
  kExitUsage,  ///< bad flag or value; diagnostic printed; exit 2
};

/// Maps a terminal Status to the process exit code.
inline int ExitCode(Status s) { return s == Status::kExitOk ? 0 : 2; }

/// Writes `text` to `path`, replacing it, and closes the file. False on any
/// failure: open, write, or the flush at close (where a full disk shows).
/// Mains print one "cannot write PATH" line and exit 2 on false.
bool WriteFile(const std::string& path, std::string_view text);

/// Reads CRAFT_PARALLELISM, the worker count of every Simulator that does
/// not call SetParallelism(): *n = 1 while it is unset. Only a decimal
/// integer from 1 to UINT_MAX is a count; any other value leaves *n alone
/// and returns false with a one-line *error naming the variable and value.
/// Parser::Parse checks it too, so every tool rejects a bad value as a
/// usage error before it elaborates anything.
bool EnvParallelism(unsigned* n, std::string* error);

class Parser {
 public:
  /// `usage` is the full usage block (one or more lines, each ending in
  /// '\n'), printed verbatim on --help and after any usage error.
  Parser(std::string tool, std::string usage);

  /// `--name` (no value).
  void Flag(const std::string& name, bool* out);
  /// `--name VALUE` / `--name=VALUE`, last one wins.
  void Str(const std::string& name, std::string* out);
  /// Repeatable `--name VALUE` / `--name=VALUE`, appended in order.
  void StrList(const std::string& name, std::vector<std::string>* out);
  /// `--name[=VALUE]`: sets *present always, *value only for the `=` form.
  void OptStr(const std::string& name, bool* present, std::string* value);
  /// Unsigned integers; a malformed or out-of-range value is a usage error.
  void U64(const std::string& name, std::uint64_t* out, bool* seen = nullptr);
  void U32(const std::string& name, unsigned* out, bool* seen = nullptr);
  /// Non-negative decimal (e.g. `--timeout 2.5`).
  void F64(const std::string& name, double* out);
  /// `--name VALUE` restricted to `allowed`; anything else is a one-line
  /// "unknown --name value 'v' (expected a|b|c)" usage error.
  void Choice(const std::string& name, std::string* out,
              std::vector<std::string> allowed);
  /// A no-value flag that runs `fn` and stops parsing with kExitOk
  /// (e.g. `--list`).
  void Action(const std::string& name, std::function<void()> fn);
  /// Registers `-x` as a synonym for a registered long flag.
  void Alias(const std::string& short_name, const std::string& long_name);
  /// Accepts bare (non-flag) arguments into *out; without this call any
  /// positional is a usage error. A lone "-" counts as a positional.
  void Positionals(std::vector<std::string>* out);

  Status Parse(int argc, char** argv);

  /// One-line `tool: message` to stderr followed by the usage block;
  /// returns kExitUsage. Mains reuse it for their own post-parse
  /// validation so every usage diagnostic reads the same.
  Status UsageError(const std::string& message) const;

 private:
  enum class Kind { kFlag, kStr, kStrList, kOptStr, kU64, kU32, kF64, kChoice, kAction };
  struct Spec {
    std::string name;
    Kind kind;
    bool* flag = nullptr;
    std::string* str = nullptr;
    std::vector<std::string>* list = nullptr;
    bool* present = nullptr;
    std::uint64_t* u64 = nullptr;
    unsigned* u32 = nullptr;
    double* f64 = nullptr;
    bool* seen = nullptr;
    std::vector<std::string> allowed;
    std::function<void()> action;
  };

  Spec* FindSpec(const std::string& name);
  bool ApplyValue(Spec& s, const std::string& value, std::string* error);

  std::string tool_;
  std::string usage_;
  std::vector<Spec> specs_;
  std::vector<std::pair<std::string, std::string>> aliases_;
  std::vector<std::string>* positionals_ = nullptr;
};

}  // namespace craft::cli
