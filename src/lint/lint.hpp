// craft-lint: elaboration-time design-rule checks for latency-insensitive
// designs.
//
// The checks run over the Simulator's DesignGraph (populated passively
// during elaboration — see kernel/design_graph.hpp) after a design has been
// constructed and before it is simulated. They catch the interface bugs
// that otherwise surface only as a hung simulation:
//
//   unbound-port            In<T>/Out<T> constructed but never bound
//   multi-driver            more than one Out<T> bound to one channel
//   multi-consumer          more than one In<T> bound to one channel
//   comb-cycle              a cycle of zero-buffer (Combinational) channels:
//                           the classic LI deadlock-susceptibility rule
//   cdc-channel-clock       a channel inside a clock-domain scope clocked by
//                           a foreign clock (raw signal into the domain)
//   cdc-partition-crossing  a port in one GALS partition bound to a channel
//                           in another without an AsyncChannel between them
//   cdc-clock-mismatch      a single-clock module bound to a channel on a
//                           different clock outside any designated CDC element
//   pkt-flit-mismatch       Packetizer/DePacketizer pairs for the same
//                           message type with different flit widths
//
// HLS IR legality (CheckSchedule) validates a scheduler result against its
// dataflow graph and constraints: dependency order, per-cycle resource
// limits, initiation-interval lower bound, and unreachable operations.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "kernel/design_graph.hpp"

namespace craft::hls {
class DataflowGraph;
struct ScheduleResult;
struct ScheduleConstraints;
}  // namespace craft::hls

namespace craft::lint {

enum class Severity { kInfo, kWarning, kError };

const char* ToString(Severity s);

struct Finding {
  std::string rule;      ///< rule id, e.g. "unbound-port"
  Severity severity = Severity::kError;
  std::string path;      ///< hierarchical name of the offending object
  std::string message;   ///< human-readable explanation
};

/// Suppression entry: findings whose rule matches `rule_glob` AND whose path
/// matches `path_glob` are dropped. Globs support '*' (any run) and '?'.
struct Suppression {
  std::string rule_glob;
  std::string path_glob;
};

struct LintOptions {
  std::vector<Suppression> suppressions;
  /// Per-rule severity overrides (rule id -> severity).
  std::map<std::string, Severity> severity_overrides;
};

/// Minimal glob matcher ('*' and '?'), used for suppressions.
bool GlobMatch(const std::string& pattern, const std::string& text);

/// Parses "rule@path-glob" (or just "rule", matching every path).
Suppression ParseSuppression(const std::string& spec);

// ---- individual design-graph rules (exposed for targeted tests) ----
//
// `ports` is g.ports(), the live ports sorted by registration id: a copy
// CheckDesignGraph builds once per lint run and hands to every rule.

using PortList = std::vector<DesignGraph::PortNode>;

std::vector<Finding> CheckUnboundPorts(const PortList& ports);
std::vector<Finding> CheckMultiDriver(const PortList& ports);
std::vector<Finding> CheckCombCycles(const DesignGraph& g, const PortList& ports);
std::vector<Finding> CheckCdc(const DesignGraph& g, const PortList& ports);
std::vector<Finding> CheckPacketizers(const DesignGraph& g, const PortList& ports);

/// Runs every design-graph rule, then applies suppressions and severity
/// overrides. Findings are sorted by (rule, path) for determinism. If
/// `used_suppressions` is non-null it is resized to opts.suppressions.size()
/// and marks which suppressions matched at least one finding (callers OR the
/// flags across designs to warn about globally-unused suppressions).
std::vector<Finding> CheckDesignGraph(const DesignGraph& g,
                                      const LintOptions& opts = {},
                                      std::vector<bool>* used_suppressions = nullptr);

/// HLS IR / schedule legality for one scheduled design.
std::vector<Finding> CheckSchedule(const hls::DataflowGraph& g,
                                   const hls::ScheduleResult& r,
                                   const hls::ScheduleConstraints& c);

/// Applies suppressions + severity overrides and sorts. See CheckDesignGraph
/// for the `used_suppressions` contract.
std::vector<Finding> ApplyOptions(std::vector<Finding> findings,
                                  const LintOptions& opts,
                                  std::vector<bool>* used_suppressions = nullptr);

/// One kWarning finding (rule "unused-suppression") per suppression whose
/// `used` flag is false — a suppression that matched nothing is either stale
/// or a glob typo, and silently honoring it hides real findings.
std::vector<Finding> UnusedSuppressionFindings(
    const std::vector<Suppression>& suppressions, const std::vector<bool>& used);

/// Number of error-severity findings.
int ErrorCount(const std::vector<Finding>& findings);

/// Number of findings at severity `s` or worse.
int CountAtOrAbove(const std::vector<Finding>& findings, Severity s);

/// Parses a --fail-on value: "error", "warning", "info" or "none". Returns
/// false (leaving `out` untouched) on anything else. "none" maps through
/// `*fail_none = true` since no Severity encodes it.
bool ParseFailOn(const std::string& text, Severity* out, bool* fail_none);

// ---- reporting ----

/// Human-readable report block for one design.
std::string FormatText(const std::string& design,
                       const std::vector<Finding>& findings);

/// Machine-readable JSON: {"designs": [{"name": ..., "findings": [...]}],
/// "errors": N, "warnings": N}.
std::string FormatJson(
    const std::vector<std::pair<std::string, std::vector<Finding>>>& reports);

/// SARIF 2.1.0 log for CI code-scanning upload (github/codeql-action/
/// upload-sarif). One run; rules are collected from the findings; each
/// result carries the design and hierarchical path as logical locations
/// (elaborated designs have no source file/line to anchor a region on, so a
/// stable pseudo-artifact URI per design is used instead).
std::string FormatSarif(
    const std::string& tool_name, const std::string& tool_version,
    const std::vector<std::pair<std::string, std::vector<Finding>>>& reports);

}  // namespace craft::lint
