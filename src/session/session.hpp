// craft::session — the one design catalog and the one run path behind every
// craft_* tool (DESIGN.md §15).
//
// Catalog() lists every design a tool can name: the prototype SoC
// configurations (paper Fig. 5), the fine-grained GALS pipeline, the LI
// pipeline harness and the saturating NoC chain. A Session turns a Spec into
// a configured Simulator: it sets the mode, the worker count and every
// requested instrument, then elaborates the entry. Instruments are therefore
// always armed before elaboration, as every registry requires, without the
// caller having to know the order. Run() runs the entry by its kind:
//
//   * SoC workload   — soc::RunWorkload against a deadline (default 50 ms);
//   * bounded harness — finite traffic, run until it quiesces;
//   * endless stream — saturating traffic, RunUntil(horizon), default 300 us.
//
// The Session keeps the Simulator (and the SoC top) alive after Run() so a
// tool can format whatever it measured: stats tables, trace export and
// blame, coverage, pulse cross-checks, lint and static analysis.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/chaos.hpp"
#include "kernel/pulse.hpp"
#include "kernel/simulator.hpp"
#include "kernel/time.hpp"
#include "soc/soc.hpp"

namespace craft::session {

/// How a catalog entry runs, and so what a run of it can promise.
enum class Kind {
  kSocWorkload,     ///< a SoC configuration running one workload to its check
  kBoundedHarness,  ///< finite, self-checking traffic; runs to quiescence
  kEndlessStream,   ///< saturating traffic with no end; runs to a horizon
};

/// The LI pipeline harness's flit link: the channel its corruption faults
/// target, and the flit width (16 bits, so 2 flits per 32-bit message).
inline constexpr const char* kLiLinkChannel = "li.link";
inline constexpr unsigned kLiFlitBits = 16;

/// The latency-only fault plan for an entry of `kind`: aggressive on the
/// bounded harness (every fault class at once), milder on SoC workloads and
/// streams so faulted runs stay within the workload deadline.
FaultPlan LatencyPlan(Kind kind, std::uint64_t seed);

/// One elaborated catalog design. The handle owns the module tree; the
/// queries read the design's own outputs after a run.
class Design {
 public:
  virtual ~Design() = default;
  /// SoC entries: the top, for workload runs and the metrics report.
  virtual soc::SocTop* soc() { return nullptr; }
  /// Bounded harness: messages delivered so far, and whether all arrived.
  virtual std::uint64_t delivered() const { return 0; }
  virtual bool done() const { return false; }
  /// Bounded harness: cycles of the clock the sink runs on.
  virtual std::uint64_t cycles() const { return 0; }
  /// FNV-1a over the outputs: the sink stream or the global-memory image.
  virtual std::uint64_t digest() { return 0; }
};

struct Spec;

struct Entry {
  std::string name;
  Kind kind;
  /// Elaborates the design into `sim` (instruments already armed).
  std::function<std::unique_ptr<Design>(Simulator&, const Spec&)> build;
  /// SoC entries: the configuration `build` elaborates.
  std::optional<soc::SocConfig> soc;
};

/// Every design a tool can name, in report order: soc_gals_2x2,
/// soc_sync_2x2, soc_gals_io_2x2, soc_gals_3x3, gals_pipeline, li_pipeline,
/// noc_chain.
const std::vector<Entry>& Catalog();

/// The catalog entry called `name`, or nullptr.
const Entry* Find(const std::string& name);

/// What to run and what to measure.
struct Spec {
  std::string design = {};    ///< a Catalog() name
  std::string workload = {};  ///< SoC entries: a soc::AllWorkloads() name ("" = the first)
  SimMode mode = SimMode::kSimAccurate;
  unsigned parallelism = 0;  ///< workers; 0 keeps CRAFT_PARALLELISM (default 1)
  /// SoC entries: the workload deadline (0 = 50 ms). Endless streams: the
  /// sim time to run until (0 = 300 us). Unused by the bounded harness.
  Time horizon = 0;
  unsigned messages = 64;  ///< bounded-harness traffic
  bool stats = false;
  bool trace = false;
  bool cover = false;
  std::optional<FaultPlan> faults = {};
  std::optional<PulseConfig> pulse = {};
};

/// "" when `spec` names a catalog design (and, for SoC entries, a known
/// workload; other entries take none); else a one-line reason.
std::string Validate(const Spec& spec);

/// What a run of the entry produced.
struct Outcome {
  bool ok = false;
  std::uint64_t cycles = 0;  ///< workload controller cycles / harness sink cycles
  std::uint64_t digest = 0;  ///< Design::digest() after the run
  /// Why !ok: the text of a SimError the run raised, a failed golden check,
  /// or a harness shortfall.
  std::string error;
  bool raised = false;  ///< `error` is a SimError's text
};

class Session {
 public:
  /// Arms everything `spec` asks for and elaborates the design. A spec that
  /// fails Validate() raises a SimError.
  explicit Session(const Spec& spec);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the entry by its kind. A SimError raised by the run lands in the
  /// outcome. Under a corrupting fault plan a failed run is itself a
  /// detection, reported to the chaos engine at the "campaign" site.
  Outcome Run();

  /// The spec as run: for SoC entries `workload` names the resolved workload.
  const Spec& spec() const { return spec_; }
  const Entry& entry() const { return *entry_; }
  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  /// SoC entries: the top; nullptr for every other kind.
  soc::SocTop* soc() { return design_->soc(); }

 private:
  Spec spec_;
  const Entry* entry_ = nullptr;
  Simulator sim_;
  std::unique_ptr<Design> design_;
};

}  // namespace craft::session
