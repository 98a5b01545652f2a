// craft::cli / craft::json unit tests: the shared CLI grammar every
// craft_* entrypoint parses with, the one JSON layer all craft-*-v1
// emitters funnel through (hostile-string escaping included), and the
// checked file write behind every tool's output flag.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "support/cli.hpp"
#include "support/json.hpp"

namespace craft {
namespace {

// ---------------------------------------------------------------------------
// json::Escape / Quote

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json::Escape("plain.name_0"), "plain.name_0");
  EXPECT_EQ(json::Escape(""), "");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::Escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesWhitespaceControls) {
  EXPECT_EQ(json::Escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
}

TEST(JsonEscape, EscapesOtherControlBytesAsUnicode) {
  EXPECT_EQ(json::Escape(std::string("a\x01z")), "a\\u0001z");
  EXPECT_EQ(json::Escape(std::string("\x1f")), "\\u001f");
  // NUL in the middle must not truncate the escape.
  std::string s = "x";
  s.push_back('\0');
  s += "y";
  EXPECT_EQ(json::Escape(s), "x\\u0000y");
}

TEST(JsonEscape, LeavesUtf8MultibyteAlone) {
  const std::string utf8 = "caf\xc3\xa9";  // café
  EXPECT_EQ(json::Escape(utf8), utf8);
}

TEST(JsonEscape, HostileNameRoundTripsThroughParse) {
  // A hierarchical name trying to break out of the string literal and forge
  // sibling keys. After Escape it must parse back to the same bytes.
  const std::string hostile = "a\",\n \"forged\": 1, \"b\\\"";
  json::Value v;
  ASSERT_EQ(json::Parse("{\"k\": " + json::Quote(hostile) + "}", &v), "");
  const json::Value* k = v.Find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_TRUE(k->IsString());
  EXPECT_EQ(k->text, hostile);
  EXPECT_EQ(v.fields.size(), 1u);  // no forged member appeared
}

TEST(JsonQuote, WrapsAndEscapes) {
  EXPECT_EQ(json::Quote("a\"b"), "\"a\\\"b\"");
}

/// The escaper as it was written before EscapeTo: one byte at a time, with
/// snprintf for the \u00xx forms. The reference the appending one must match.
std::string ReferenceEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscapeTo, AppendsWhatEscapeReturnsForEveryByte) {
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    std::string out = "prefix";
    json::EscapeTo(&out, s);
    EXPECT_EQ(out, "prefix" + ReferenceEscape(s)) << "byte " << b;
    EXPECT_EQ(json::Escape(s), ReferenceEscape(s)) << "byte " << b;
  }
}

TEST(JsonEscapeTo, AppendsWhatEscapeReturnsForUtf8AndMixedRuns) {
  const std::string sample =
      "caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x9a\x80 \"q\" a\\b\tc\nd\re\x01\x1f";
  std::string out = "x";
  json::EscapeTo(&out, sample);
  EXPECT_EQ(out, "x" + ReferenceEscape(sample));
  EXPECT_EQ(json::Escape(sample), ReferenceEscape(sample));
}

TEST(JsonQuote, QuoteStringAndKeyOutputIsUnchanged) {
  const std::string hostile = "a\"b\\c\nd\te\rf\x01g";
  const std::string quoted = "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"";
  EXPECT_EQ(json::Quote(hostile), quoted);
  json::Writer w;
  w.String(hostile).Raw(" ").Key(hostile);
  EXPECT_EQ(w.str(), quoted + " " + quoted + ": ");
}

// ---------------------------------------------------------------------------
// json::Writer

TEST(JsonWriter, ComposesByteExactDocuments) {
  json::Writer w;
  bool first = true;
  w.Raw("{").Key("xs").Raw("[");
  for (int i = 0; i < 3; ++i) w.Sep(&first, "", ", ").U64(i);
  w.Raw("], ").Key("name").String("a\"b");
  w.Raw(", ").Key("on").Bool(true);
  w.Raw(", ").Key("off").Null();
  w.Raw(", ").Key("d").I64(-5);
  w.Raw("}");
  EXPECT_EQ(w.str(),
            "{\"xs\": [0, 1, 2], \"name\": \"a\\\"b\", \"on\": true, "
            "\"off\": null, \"d\": -5}");
}

TEST(JsonWriter, SepEmitsFirstFormOnce) {
  json::Writer w;
  bool first = true;
  w.Sep(&first, "\n", ",\n").Raw("a");
  w.Sep(&first, "\n", ",\n").Raw("b");
  EXPECT_EQ(w.str(), "\na,\nb");
  EXPECT_FALSE(first);
}

TEST(JsonWriter, IntegersMatchSnprintf) {
  const auto u64_text = [](std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return std::string(buf);
  };
  const auto i64_text = [](std::int64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    return std::string(buf);
  };
  for (const std::uint64_t v : {std::uint64_t{0}, std::numeric_limits<std::uint64_t>::max()}) {
    json::Writer w;
    EXPECT_EQ(w.U64(v).str(), u64_text(v));
  }
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{-1},
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()}) {
    json::Writer w;
    EXPECT_EQ(w.I64(v).str(), i64_text(v));
  }
}

TEST(JsonWriter, DocumentParsesBack) {
  json::Writer w;
  w.Raw("{").Key("n").U64(18446744073709551615ull).Raw(", ");
  w.Key("s").String("x\ty").Raw("}");
  json::Value v;
  ASSERT_EQ(json::Parse(w.str(), &v), "");
  EXPECT_EQ(v.Find("n")->AsU64(), 18446744073709551615ull);
  EXPECT_EQ(v.Find("s")->text, "x\ty");
}

// ---------------------------------------------------------------------------
// json::Parse

TEST(JsonParse, PreservesObjectFieldOrder) {
  json::Value v;
  ASSERT_EQ(json::Parse("{\"z\": 1, \"a\": 2, \"m\": 3}", &v), "");
  ASSERT_EQ(v.fields.size(), 3u);
  EXPECT_EQ(v.fields[0].first, "z");
  EXPECT_EQ(v.fields[1].first, "a");
  EXPECT_EQ(v.fields[2].first, "m");
}

TEST(JsonParse, KeepsNumberSourceText) {
  json::Value v;
  ASSERT_EQ(json::Parse("[18446744073709551615, -3, 1.5]", &v), "");
  ASSERT_EQ(v.items.size(), 3u);
  EXPECT_EQ(v.items[0].text, "18446744073709551615");
  EXPECT_EQ(v.items[0].AsU64(), 18446744073709551615ull);
  EXPECT_EQ(v.items[1].AsU64(), 0u);  // negatives clamp to 0
  EXPECT_EQ(v.items[2].AsU64(), 0u);  // fractional forms clamp to 0
}

TEST(JsonParse, RejectsMalformedDocuments) {
  json::Value v;
  EXPECT_NE(json::Parse("{\"a\": }", &v), "");
  EXPECT_NE(json::Parse("{} trailing", &v), "");
  EXPECT_NE(json::Parse("", &v), "");
}

// ---------------------------------------------------------------------------
// cli::Parser

using Argv = std::vector<std::string>;

cli::Status ParseArgs(cli::Parser& p, const Argv& args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive per call
  storage = args;
  storage.insert(storage.begin(), "tool");
  argv.reserve(storage.size());
  for (std::string& s : storage) argv.push_back(s.data());
  return p.Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParser, ParsesFlagsAndValues) {
  bool quiet = false;
  std::string out;
  std::uint64_t seed = 1;
  unsigned jobs = 0;
  double timeout = 0.0;
  cli::Parser p("t", "usage: t\n");
  p.Flag("--quiet", &quiet);
  p.Str("--out", &out);
  p.U64("--seed", &seed);
  p.U32("--jobs", &jobs);
  p.F64("--timeout", &timeout);
  EXPECT_EQ(ParseArgs(p, {"--quiet", "--out", "x.json", "--seed=7", "--jobs",
                          "4", "--timeout", "2.5"}),
            cli::Status::kContinue);
  EXPECT_TRUE(quiet);
  EXPECT_EQ(out, "x.json");
  EXPECT_EQ(seed, 7u);
  EXPECT_EQ(jobs, 4u);
  EXPECT_DOUBLE_EQ(timeout, 2.5);
}

TEST(CliParser, OptStrSupportsBareAndValuedForms) {
  bool json = false;
  std::string path = "unset";
  cli::Parser p("t", "usage: t\n");
  p.OptStr("--json", &json, &path);
  EXPECT_EQ(ParseArgs(p, {"--json"}), cli::Status::kContinue);
  EXPECT_TRUE(json);
  EXPECT_EQ(path, "unset");  // bare form leaves the value alone

  json = false;
  EXPECT_EQ(ParseArgs(p, {"--json=f.json"}), cli::Status::kContinue);
  EXPECT_TRUE(json);
  EXPECT_EQ(path, "f.json");
}

TEST(CliParser, ListFlagsAppendInOrder) {
  std::vector<std::string> xs;
  cli::Parser p("t", "usage: t\n");
  p.StrList("--x", &xs);
  EXPECT_EQ(ParseArgs(p, {"--x", "a", "--x=b", "--x", "c"}),
            cli::Status::kContinue);
  EXPECT_EQ(xs, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CliParser, ChoiceRejectsUnknownValues) {
  std::string fmt = "text";
  cli::Parser p("t", "usage: t\n");
  p.Choice("--format", &fmt, {"text", "json"});
  EXPECT_EQ(ParseArgs(p, {"--format", "json"}), cli::Status::kContinue);
  EXPECT_EQ(fmt, "json");
  EXPECT_EQ(ParseArgs(p, {"--format", "yaml"}), cli::Status::kExitUsage);
}

TEST(CliParser, RejectsMalformedNumbers) {
  std::uint64_t seed = 0;
  unsigned jobs = 0;
  cli::Parser p("t", "usage: t\n");
  p.U64("--seed", &seed);
  p.U32("--jobs", &jobs);
  EXPECT_EQ(ParseArgs(p, {"--seed", "12x"}), cli::Status::kExitUsage);
  EXPECT_EQ(ParseArgs(p, {"--seed", "-3"}), cli::Status::kExitUsage);
  EXPECT_EQ(ParseArgs(p, {"--jobs", "4294967296"}), cli::Status::kExitUsage);
  EXPECT_EQ(ParseArgs(p, {"--seed"}), cli::Status::kExitUsage);  // no value
}

TEST(CliParser, RejectsUnknownFlagsAndStrayPositionals) {
  cli::Parser p("t", "usage: t\n");
  EXPECT_EQ(ParseArgs(p, {"--nope"}), cli::Status::kExitUsage);
  EXPECT_EQ(ParseArgs(p, {"stray"}), cli::Status::kExitUsage);
}

TEST(CliParser, CollectsPositionalsWhenRegistered) {
  std::vector<std::string> pos;
  bool flag = false;
  cli::Parser p("t", "usage: t\n");
  p.Flag("--f", &flag);
  p.Positionals(&pos);
  EXPECT_EQ(ParseArgs(p, {"a.json", "--f", "-", "b.json"}),
            cli::Status::kContinue);
  EXPECT_TRUE(flag);
  EXPECT_EQ(pos, (std::vector<std::string>{"a.json", "-", "b.json"}));
}

TEST(CliParser, AliasesResolveToLongFlags) {
  std::string out;
  cli::Parser p("t", "usage: t\n");
  p.Str("--output", &out);
  p.Alias("-o", "--output");
  EXPECT_EQ(ParseArgs(p, {"-o", "f.json"}), cli::Status::kContinue);
  EXPECT_EQ(out, "f.json");
}

TEST(CliParser, ActionRunsAndStopsParsing) {
  int runs = 0;
  bool after = false;
  cli::Parser p("t", "usage: t\n");
  p.Action("--list", [&runs] { ++runs; });
  p.Flag("--after", &after);
  EXPECT_EQ(ParseArgs(p, {"--list", "--after"}), cli::Status::kExitOk);
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(after);  // parsing stopped at the action
}

TEST(CliParser, HelpAndVersionExitOk) {
  cli::Parser p("t", "usage: t\n");
  EXPECT_EQ(ParseArgs(p, {"--help"}), cli::Status::kExitOk);
  EXPECT_EQ(ParseArgs(p, {"--version"}), cli::Status::kExitOk);
}

// A tool that would elaborate a design under a malformed CRAFT_PARALLELISM
// stops at parse time with a usage error instead of a SimError.
TEST(CliParser, RejectsAMalformedParallelismEnvironment) {
  std::optional<std::string> saved;
  if (const char* old = std::getenv("CRAFT_PARALLELISM")) saved = old;
  cli::Parser p("t", "usage: t\n");
  unsigned n = 0;
  std::string error;
  ::setenv("CRAFT_PARALLELISM", "0", 1);
  EXPECT_EQ(ParseArgs(p, {}), cli::Status::kExitUsage);
  EXPECT_EQ(ParseArgs(p, {"--help"}), cli::Status::kExitOk);
  EXPECT_FALSE(cli::EnvParallelism(&n, &error));
  EXPECT_EQ(error, "CRAFT_PARALLELISM='0' is not a decimal integer from 1 to 4294967295");
  ::setenv("CRAFT_PARALLELISM", "3", 1);
  EXPECT_EQ(ParseArgs(p, {}), cli::Status::kContinue);
  EXPECT_TRUE(cli::EnvParallelism(&n, &error));
  EXPECT_EQ(n, 3u);
  ::unsetenv("CRAFT_PARALLELISM");
  EXPECT_TRUE(cli::EnvParallelism(&n, &error));
  EXPECT_EQ(n, 1u);
  if (saved.has_value()) ::setenv("CRAFT_PARALLELISM", saved->c_str(), 1);
}

TEST(CliParser, ExitCodeMapping) {
  EXPECT_EQ(cli::ExitCode(cli::Status::kExitOk), 0);
  EXPECT_EQ(cli::ExitCode(cli::Status::kExitUsage), 2);
}

// ---------------------------------------------------------------------------
// cli::WriteFile

TEST(CliWriteFile, WritesAndReplacesTheFile) {
  const std::string path = ::testing::TempDir() + "/craft_write_file_test.txt";
  ASSERT_TRUE(cli::WriteFile(path, "a longer first version\n"));
  ASSERT_TRUE(cli::WriteFile(path, std::string("x\0y", 3)));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), std::string("x\0y", 3));
  std::remove(path.c_str());
}

TEST(CliWriteFile, FailsWhenTheFileCannotBeOpened) {
  EXPECT_FALSE(cli::WriteFile(::testing::TempDir() + "/no/such/dir/f.json", "{}"));
}

// /dev/full accepts the open and the buffered write, and fails the flush at
// close: the failure an unchecked `std::ofstream << doc` lets through.
TEST(CliWriteFile, FailsWhenTheFlushAtCloseFails) {
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no writable /dev/full";
  EXPECT_FALSE(cli::WriteFile("/dev/full", "{}\n"));
  EXPECT_FALSE(cli::WriteFile("/dev/full", std::string(1 << 20, 'x')));
}

}  // namespace
}  // namespace craft
