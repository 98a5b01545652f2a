// craft_farm: multi-process campaign orchestrator (DESIGN.md §14). Expands
// a matrix spec — designs × seeds × parallelism levels × chaos plans, per
// instrument — into trials, runs them across a --jobs N pool of forked
// craft_* tool processes, merges the per-trial craft-cover shards via the
// commutative cover::Merge, aggregates chaos verdicts, and writes one
// craft-farm-v1 manifest.
//
// Determinism: trials are expanded, indexed and merged in spec order, and
// the default manifest contains nothing wall-clock-dependent — so the
// manifest and the merged cover database are byte-identical for any --jobs
// under the keep-going policy (fail-fast cancellation depends on completion
// order by design). Durations stream to the --progress log; --timing embeds
// them under an explicitly n-variant manifest section, excluded from the
// byte-identity contract like the kernel's *_n_variant series.
//
// Exit codes: 0 all trials passed (or were waived), 1 any unwaived trial or
// chaos-oracle failure, 2 usage / IO / merge errors.
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cover/cover.hpp"
#include "farm/farm.hpp"
#include "kernel/report.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace {

using namespace craft;

constexpr const char kUsage[] =
    "usage: craft_farm [--design NAME]... [--seed N]... [--parallelism N]...\n"
    "                  [--chaos none|latency|corrupt]...\n"
    "                  [--instrument cover|chaos]... [--messages N]\n"
    "                  [--jobs N] [--timeout S] [--retries N] [--backoff S]\n"
    "                  [--fail-fast] [--waive ID]... [--out-dir DIR]\n"
    "                  [--manifest FILE] [--cover-out FILE]\n"
    "                  [--cover-bin PATH] [--chaos-bin PATH]\n"
    "                  [--progress[=FILE]] [--timing] [--quiet]\n"
    "\n"
    "  --design NAME     cover-instrument workload axis (repeatable;\n"
    "                    default li_pipeline + gals_pipeline)\n"
    "  --seed N          seed axis (repeatable; default 1)\n"
    "  --parallelism N   kernel parallelism axis (repeatable; default 1)\n"
    "  --chaos MODE      fault-plan axis: none, latency or corrupt\n"
    "                    (repeatable; default none)\n"
    "  --instrument SET  which tool instruments the matrix: cover expands\n"
    "                    the full axis product into craft_cover runs; chaos\n"
    "                    adds one craft_chaos campaign per seed\n"
    "                    (repeatable; default cover)\n"
    "  --messages N      per-trial traffic volume (default 16)\n"
    "  --jobs N          worker pool width (default 1)\n"
    "  --timeout S       per-attempt wall-clock limit in seconds (0 = off)\n"
    "  --retries N       extra attempts after a failed/timed-out trial\n"
    "  --backoff S       sleep S*k seconds before retry k\n"
    "  --fail-fast       first failure cancels every queued trial\n"
    "  --waive ID        don't gate on this trial id (repeatable;\n"
    "                    trailing '*' matches a prefix)\n"
    "  --out-dir DIR     artifact directory (default farm-out)\n"
    "  --manifest FILE   craft-farm-v1 manifest (default DIR/farm.json)\n"
    "  --cover-out FILE  merged cover db (default DIR/cover.json)\n"
    "  --cover-bin PATH  craft_cover binary (default: next to craft_farm)\n"
    "  --chaos-bin PATH  craft_chaos binary (default: next to craft_farm)\n"
    "  --progress        one line per attempt to stderr, craft-pulse style\n"
    "  --progress=FILE   ... or appended to FILE\n"
    "  --timing          embed per-trial durations as timing_n_variant\n"
    "                    (breaks --jobs byte-identity, by design)\n"
    "  --quiet           suppress the human-readable summary\n";

/// Directory of the running craft_farm binary, for sibling-tool resolution.
std::string SelfDir() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

/// Resolves a sibling craft_* binary: same directory first (installed
/// layout), then the build-tree sibling src/<dir>/<tool>.
std::string FindTool(const std::string& dir_hint, const std::string& tool) {
  const std::string self = SelfDir();
  for (const std::string& cand :
       {self + "/" + tool, self + "/../" + dir_hint + "/" + tool}) {
    if (access(cand.c_str(), X_OK) == 0) return cand;
  }
  return tool;  // fall back to PATH lookup in execvp
}

std::string PathSafe(const std::string& s) {
  std::string out;
  for (const char c : s)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
            c == '-')
               ? c
               : '_';
  return out;
}

bool Waived(const std::string& id, const std::vector<std::string>& waivers) {
  for (const std::string& w : waivers) {
    if (!w.empty() && w.back() == '*') {
      if (id.rfind(w.substr(0, w.size() - 1), 0) == 0) return true;
    } else if (id == w) {
      return true;
    }
  }
  return false;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

struct ChaosTotals {
  std::uint64_t campaigns = 0;
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
};

/// Pulls the campaign/run/failure counts out of one craft-chaos-v1 report.
bool AggregateChaos(const std::string& text, ChaosTotals* t) {
  json::Value root;
  if (!json::Parse(text, &root).empty()) return false;
  const json::Value* failures = root.Find("failures");
  const json::Value* campaigns = root.Find("campaigns");
  if (failures == nullptr || campaigns == nullptr ||
      campaigns->kind != json::Value::Kind::kArray)
    return false;
  t->failures += failures->AsU64();
  for (const json::Value& c : campaigns->items) {
    ++t->campaigns;
    if (const json::Value* runs = c.Find("runs");
        runs != nullptr && runs->kind == json::Value::Kind::kArray)
      t->runs += runs->items.size();
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) try {
  std::vector<std::string> designs;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> pars;
  std::vector<std::string> chaos_modes;
  std::vector<std::string> instruments;
  std::vector<std::string> waivers;
  unsigned messages = 16;
  farm::Policy policy;
  bool fail_fast = false;
  bool progress = false;
  bool timing = false;
  bool quiet = false;
  std::string progress_path;
  std::string out_dir = "farm-out";
  std::string manifest_path;
  std::string cover_out;
  std::string cover_bin;
  std::string chaos_bin;

  cli::Parser p("craft_farm", kUsage);
  p.StrList("--design", &designs);
  p.U64List("--seed", &seeds);
  p.U64List("--parallelism", &pars);
  p.StrList("--chaos", &chaos_modes);
  p.StrList("--instrument", &instruments);
  p.U32("--messages", &messages);
  p.U32("--jobs", &policy.jobs);
  p.F64("--timeout", &policy.timeout_s);
  p.U32("--retries", &policy.retries);
  p.F64("--backoff", &policy.backoff_s);
  p.Flag("--fail-fast", &fail_fast);
  p.StrList("--waive", &waivers);
  p.Str("--out-dir", &out_dir);
  p.Str("--manifest", &manifest_path);
  p.Str("--cover-out", &cover_out);
  p.Str("--cover-bin", &cover_bin);
  p.Str("--chaos-bin", &chaos_bin);
  p.OptStr("--progress", &progress, &progress_path);
  p.Flag("--timing", &timing);
  p.Flag("--quiet", &quiet);
  if (auto st = p.Parse(argc, argv); st != cli::Status::kContinue)
    return cli::ExitCode(st);

  // Axis defaults.
  if (designs.empty()) designs = {"li_pipeline", "gals_pipeline"};
  if (seeds.empty()) seeds = {1};
  if (pars.empty()) pars = {1};
  if (chaos_modes.empty()) chaos_modes = {"none"};
  if (instruments.empty()) instruments = {"cover"};
  for (const std::uint64_t n : pars)
    if (n == 0 || n > 64)
      return cli::ExitCode(p.UsageError("--parallelism wants 1..64, got '" +
                                        std::to_string(n) + "'"));
  for (const std::string& m : chaos_modes)
    if (m != "none" && m != "latency" && m != "corrupt")
      return cli::ExitCode(p.UsageError(
          "unknown --chaos value '" + m + "' (expected none|latency|corrupt)"));
  for (const std::string& i : instruments)
    if (i != "cover" && i != "chaos")
      return cli::ExitCode(p.UsageError("unknown --instrument value '" + i +
                                        "' (expected cover|chaos)"));
  policy.fail_fast = fail_fast;

  if (manifest_path.empty()) manifest_path = out_dir + "/farm.json";
  if (cover_out.empty()) cover_out = out_dir + "/cover.json";
  if (cover_bin.empty()) cover_bin = FindTool("cover", "craft_cover");
  if (chaos_bin.empty()) chaos_bin = FindTool("chaos", "craft_chaos");

  if (progress) {
    policy.progress = cli::OpenLog("craft_farm", progress_path, "a");
    if (policy.progress == nullptr) return 2;
  }

  // mkdir -p for the artifact dir (one level is enough for the default).
  {
    std::string partial;
    std::istringstream segs(out_dir);
    for (std::string seg; std::getline(segs, seg, '/');) {
      partial += seg + "/";
      if (!seg.empty()) mkdir(partial.c_str(), 0777);
    }
  }

  // Expand the matrix in nested-loop spec order: this order IS the merge
  // order and the manifest order, independent of scheduling.
  std::vector<farm::TrialSpec> trials;
  for (const std::string& inst : instruments) {
    if (inst == "cover") {
      for (const std::string& d : designs)
        for (const std::uint64_t seed : seeds)
          for (const std::uint64_t par : pars)
            for (const std::string& mode : chaos_modes) {
              farm::TrialSpec t;
              t.kind = "cover";
              t.id = "cover/" + d + "/s" + std::to_string(seed) + "/n" +
                     std::to_string(par) + "/" + mode;
              t.artifact = out_dir + "/" + PathSafe(t.id) + ".json";
              t.log = out_dir + "/" + PathSafe(t.id) + ".log";
              t.argv = {cover_bin,
                        "run",
                        "--design",
                        d,
                        "--seed",
                        std::to_string(seed),
                        "--parallelism",
                        std::to_string(par),
                        "--messages",
                        std::to_string(messages),
                        "-o",
                        t.artifact};
              if (mode != "none") {
                t.argv.push_back("--chaos");
                t.argv.push_back(mode);
              }
              trials.push_back(std::move(t));
            }
    } else {  // chaos campaigns: seeded, one per seed
      for (const std::uint64_t seed : seeds) {
        farm::TrialSpec t;
        t.kind = "chaos";
        t.id = "chaos/s" + std::to_string(seed);
        t.artifact = out_dir + "/" + PathSafe(t.id) + ".json";
        t.log = out_dir + "/" + PathSafe(t.id) + ".log";
        t.argv = {chaos_bin, "--quick", "--quiet",
                  "--seed", std::to_string(seed), "--json=" + t.artifact};
        trials.push_back(std::move(t));
      }
    }
  }

  const std::vector<farm::TrialResult> results = farm::Run(trials, policy);
  cli::CloseLog(policy.progress);

  // Aggregate: merge cover shards in spec order; fold chaos verdicts.
  cover::Database merged;
  std::uint64_t shards_merged = 0;
  ChaosTotals chaos_totals;
  bool have_cover = false;
  bool have_chaos = false;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (results[i].status != farm::TrialStatus::kOk) continue;
    std::string text;
    if (!ReadFile(trials[i].artifact, &text)) {
      std::fprintf(stderr, "craft_farm: missing artifact %s\n",
                   trials[i].artifact.c_str());
      return 2;
    }
    if (trials[i].kind == "cover") {
      have_cover = true;
      cover::Database shard;
      if (const std::string err = cover::Parse(text, &shard); !err.empty()) {
        std::fprintf(stderr, "craft_farm: %s: %s\n", trials[i].artifact.c_str(),
                     err.c_str());
        return 2;
      }
      if (const std::string err = cover::Merge(shard, &merged); !err.empty()) {
        std::fprintf(stderr, "craft_farm: merging %s: %s\n",
                     trials[i].artifact.c_str(), err.c_str());
        return 2;
      }
      ++shards_merged;
    } else {
      have_chaos = true;
      if (!AggregateChaos(text, &chaos_totals)) {
        std::fprintf(stderr, "craft_farm: %s: not a craft-chaos-v1 report\n",
                     trials[i].artifact.c_str());
        return 2;
      }
    }
  }
  if (have_cover && !cli::Emit("craft_farm", cover_out, cover::FormatJson(merged)))
    return 2;

  // Tally + gate. Waived trials are reported but never gate the exit code.
  std::uint64_t n_ok = 0, n_failed = 0, n_timeout = 0, n_cancelled = 0;
  std::uint64_t attempts_total = 0, n_waived = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    attempts_total += results[i].attempts;
    switch (results[i].status) {
      case farm::TrialStatus::kOk: ++n_ok; break;
      case farm::TrialStatus::kFailed: ++n_failed; break;
      case farm::TrialStatus::kTimeout: ++n_timeout; break;
      case farm::TrialStatus::kCancelled: ++n_cancelled; break;
    }
    if (results[i].status != farm::TrialStatus::kOk &&
        Waived(trials[i].id, waivers))
      ++n_waived;
  }
  bool gated = chaos_totals.failures > 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (results[i].status != farm::TrialStatus::kOk &&
        !Waived(trials[i].id, waivers))
      gated = true;
  }

  // The craft-farm-v1 manifest. Spec-ordered and free of wall-clock data,
  // so it is byte-identical across --jobs (keep-going policy); --timing
  // appends the n-variant duration section on request.
  json::Writer w;
  w.Raw("{\n  ").Key("schema").Raw("\"craft-farm-v1\",\n  ");
  w.Key("matrix").Raw("{\n    ");
  auto string_list = [&w](const char* key, const std::vector<std::string>& v) {
    w.Key(key).Raw("[");
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) w.Raw(", ");
      w.String(v[i]);
    }
    w.Raw("]");
  };
  string_list("instruments", instruments);
  w.Raw(",\n    ");
  string_list("designs", designs);
  w.Raw(",\n    ").Key("seeds").Raw("[");
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (i != 0) w.Raw(", ");
    w.U64(seeds[i]);
  }
  w.Raw("],\n    ").Key("parallelism").Raw("[");
  for (std::size_t i = 0; i < pars.size(); ++i) {
    if (i != 0) w.Raw(", ");
    w.U64(pars[i]);
  }
  w.Raw("],\n    ");
  string_list("chaos", chaos_modes);
  w.Raw(",\n    ").Key("messages").U64(messages);
  w.Raw("\n  },\n  ");
  w.Key("policy").Raw("{");
  w.Key("timeout_s").Double(policy.timeout_s).Raw(", ");
  w.Key("retries").U64(policy.retries).Raw(", ");
  w.Key("backoff_s").Double(policy.backoff_s).Raw(", ");
  w.Key("fail_fast").Bool(policy.fail_fast);
  w.Raw("},\n  ");
  w.Key("trials").Raw("[\n");
  for (std::size_t i = 0; i < trials.size(); ++i) {
    w.Raw(i == 0 ? "" : ",\n");
    w.Raw("    {").Key("id").String(trials[i].id).Raw(", ");
    w.Key("kind").String(trials[i].kind).Raw(", ");
    w.Key("status").String(farm::ToString(results[i].status)).Raw(", ");
    w.Key("exit_code").I64(results[i].exit_code).Raw(", ");
    w.Key("attempts").U64(results[i].attempts).Raw(", ");
    w.Key("timed_out").Bool(results[i].timed_out).Raw(", ");
    w.Key("waived")
        .Bool(results[i].status != farm::TrialStatus::kOk &&
              Waived(trials[i].id, waivers))
        .Raw(", ");
    w.Key("artifact").String(trials[i].artifact).Raw("}");
  }
  w.Raw("\n  ],\n  ");
  w.Key("summary").Raw("{");
  w.Key("trials").U64(trials.size()).Raw(", ");
  w.Key("ok").U64(n_ok).Raw(", ");
  w.Key("failed").U64(n_failed).Raw(", ");
  w.Key("timeout").U64(n_timeout).Raw(", ");
  w.Key("cancelled").U64(n_cancelled).Raw(", ");
  w.Key("waived").U64(n_waived).Raw(", ");
  w.Key("attempts").U64(attempts_total);
  w.Raw("}");
  if (have_cover) {
    const cover::Summary cs = cover::Summarize(merged);
    w.Raw(",\n  ").Key("cover").Raw("{");
    w.Key("merged").String(cover_out).Raw(", ");
    w.Key("shards_merged").U64(shards_merged).Raw(", ");
    w.Key("runs").U64(cs.runs).Raw(", ");
    w.Key("groups").U64(cs.groups).Raw(", ");
    w.Key("bins").U64(cs.bins).Raw(", ");
    w.Key("bins_hit").U64(cs.bins_hit);
    w.Raw("}");
  }
  if (have_chaos) {
    w.Raw(",\n  ").Key("chaos").Raw("{");
    w.Key("campaigns").U64(chaos_totals.campaigns).Raw(", ");
    w.Key("runs").U64(chaos_totals.runs).Raw(", ");
    w.Key("failures").U64(chaos_totals.failures);
    w.Raw("}");
  }
  if (timing) {
    // Wall-clock data is n-variant by definition — same carve-out as the
    // kernel's *_n_variant pulse series, excluded from byte-identity.
    double total_s = 0.0;
    for (const farm::TrialResult& r : results) total_s += r.duration_s;
    w.Raw(",\n  ").Key("timing_n_variant").Raw("{");
    w.Key("jobs").U64(policy.jobs).Raw(", ");
    w.Key("total_trial_s").Double(total_s).Raw(", ");
    w.Key("trials").Raw("[");
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (i != 0) w.Raw(", ");
      w.Raw("{").Key("id").String(trials[i].id).Raw(", ");
      w.Key("s").Double(results[i].duration_s).Raw("}");
    }
    w.Raw("]}");
  }
  w.Raw(",\n  ").Key("gated").Bool(gated);
  w.Raw("\n}\n");

  if (!cli::Emit("craft_farm", manifest_path, w.str())) return 2;

  if (!quiet) {
    std::fprintf(stderr,
                 "craft_farm: %zu trials: %llu ok, %llu failed, %llu timeout, "
                 "%llu cancelled (%llu waived), %llu attempts\n",
                 trials.size(), static_cast<unsigned long long>(n_ok),
                 static_cast<unsigned long long>(n_failed),
                 static_cast<unsigned long long>(n_timeout),
                 static_cast<unsigned long long>(n_cancelled),
                 static_cast<unsigned long long>(n_waived),
                 static_cast<unsigned long long>(attempts_total));
    if (have_cover) {
      const cover::Summary cs = cover::Summarize(merged);
      std::fprintf(stderr,
                   "craft_farm: cover: %llu runs, %llu/%llu bins hit (%.1f%%) "
                   "-> %s\n",
                   static_cast<unsigned long long>(cs.runs),
                   static_cast<unsigned long long>(cs.bins_hit),
                   static_cast<unsigned long long>(cs.bins), cs.pct(),
                   cover_out.c_str());
    }
    if (have_chaos) {
      std::fprintf(stderr,
                   "craft_farm: chaos: %llu campaigns, %llu runs, %llu "
                   "failures\n",
                   static_cast<unsigned long long>(chaos_totals.campaigns),
                   static_cast<unsigned long long>(chaos_totals.runs),
                   static_cast<unsigned long long>(chaos_totals.failures));
    }
    std::fprintf(stderr, "craft_farm: manifest -> %s\n", manifest_path.c_str());
  }
  return gated ? 1 : 0;
} catch (const craft::SimError& e) {
  // A SimError the run raised is a finding: one line, exit 1 (README "Exit codes").
  std::fprintf(stderr, "craft_farm: %s\n", e.what());
  return 1;
}
