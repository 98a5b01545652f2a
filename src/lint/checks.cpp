#include "lint/lint.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "lint/graph_utils.hpp"

namespace craft::lint {

bool GlobMatch(const std::string& pattern, const std::string& text) {
  // Iterative '*'/'?' matcher with backtracking over the last star.
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

Suppression ParseSuppression(const std::string& spec) {
  const std::size_t at = spec.find('@');
  if (at == std::string::npos) return Suppression{spec, "*"};
  return Suppression{spec.substr(0, at), spec.substr(at + 1)};
}

namespace {

std::string JoinOwners(const std::vector<const DesignGraph::PortNode*>& ps) {
  std::set<std::string> names;
  for (const auto* p : ps) names.insert(p->owner);
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

std::vector<Finding> CheckUnboundPorts(const PortList& ports) {
  std::vector<Finding> out;
  for (const auto& p : ports) {
    if (!p.channel.empty() || p.optional_ok) continue;
    out.push_back(Finding{
        "unbound-port", Severity::kError, p.owner,
        "dangling " + p.type + " port: constructed by module '" + p.owner +
            "' but never bound to a channel (any Pop/Push on it asserts; if "
            "the port is intentionally unconnected, call MarkOptional())"});
  }
  return out;
}

std::vector<Finding> CheckMultiDriver(const PortList& ports) {
  std::vector<Finding> out;
  for (const auto& [name, use] : GroupByChannel(ports)) {
    if (use.drivers.size() > 1) {
      out.push_back(Finding{
          "multi-driver", Severity::kError, name,
          "channel has " + std::to_string(use.drivers.size()) +
              " Out ports bound to it (drivers: " + JoinOwners(use.drivers) +
              "); tokens from independent producers interleave "
              "nondeterministically"});
    }
    if (use.consumers.size() > 1) {
      out.push_back(Finding{
          "multi-consumer", Severity::kWarning, name,
          "channel has " + std::to_string(use.consumers.size()) +
              " In ports bound to it (consumers: " + JoinOwners(use.consumers) +
              "); each token is delivered to whichever consumer pops first"});
    }
  }
  return out;
}

std::vector<Finding> CheckCombCycles(const DesignGraph& g, const PortList& ports) {
  // Graph over module/channel names with edges only through zero-buffer
  // channels: owner --Out--> channel --In--> owner. Any SCC with >= 2 nodes
  // is a cycle with no storage anywhere on it — the LI deadlock-
  // susceptibility rule (a rendezvous loop cannot make progress).
  const auto& channels = g.channels();
  NameGraph adj;
  for (const auto& p : ports) {
    if (p.channel.empty()) continue;
    auto it = channels.find(p.channel);
    if (it == channels.end() || !it->second.zero_storage) continue;
    if (p.is_input) {
      AddEdge(adj, p.channel, p.owner);
    } else {
      AddEdge(adj, p.owner, p.channel);
    }
  }
  std::vector<std::vector<std::string>> sccs = CyclicSccs(adj);

  std::vector<Finding> out;
  for (auto& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    // Anchor the finding on the first channel in the cycle.
    std::string anchor = scc.front();
    for (const std::string& n : scc) {
      if (channels.count(n) != 0) {
        anchor = n;
        break;
      }
    }
    std::string members;
    for (const std::string& n : scc) {
      if (!members.empty()) members += " -> ";
      members += n;
    }
    out.push_back(Finding{
        "comb-cycle", Severity::kError, anchor,
        "cycle through zero-buffer (Combinational) channels with no storage "
        "anywhere on the loop — deadlock-susceptible: " + members});
  }
  return out;
}

std::vector<Finding> CheckCdc(const DesignGraph& g, const PortList& ports) {
  std::vector<Finding> out;
  const auto& channels = g.channels();
  const auto& modules = g.modules();

  // Rule a: a channel physically inside a clock-domain scope must be clocked
  // by that domain's clock (or sit inside a designated CDC element).
  for (const auto& [name, ch] : channels) {
    const DesignGraph::DomainScope* scope = g.ScopeOf(name);
    if (scope == nullptr || scope->clock == ch.clock || g.IsCdcSafe(name)) continue;
    out.push_back(Finding{
        "cdc-channel-clock", Severity::kError, name,
        "channel inside clock domain '" + scope->path + "' (clock " +
            scope->clock_name + ") is clocked by foreign clock " + ch.clock_name +
            "; route cross-domain traffic through an AsyncChannel"});
  }

  // Walks from `module` up the tree to the nearest module that registered
  // thread processes; returns nullptr if none.
  auto governing = [&](const std::string& module) -> const DesignGraph::ModuleNode* {
    std::string cur = module;
    while (!cur.empty()) {
      auto it = modules.find(cur);
      if (it == modules.end()) break;
      if (!it->second.thread_clocks.empty()) return &it->second;
      cur = it->second.parent;
    }
    return nullptr;
  };

  for (const auto& p : ports) {
    if (p.channel.empty()) continue;
    auto cit = channels.find(p.channel);
    if (cit == channels.end()) continue;
    const DesignGraph::ChannelNode& ch = cit->second;
    if (g.IsCdcSafe(p.owner) || g.IsCdcSafe(p.channel)) continue;

    // Rule b: a binding that spans two clock-domain scopes is a raw
    // partition crossing.
    const DesignGraph::DomainScope* oscope = g.ScopeOf(p.owner);
    const DesignGraph::DomainScope* cscope = g.ScopeOf(p.channel);
    if (oscope != nullptr && cscope != nullptr && oscope->path != cscope->path) {
      out.push_back(Finding{
          "cdc-partition-crossing", Severity::kError, p.owner,
          p.type + " port in partition '" + oscope->path +
              "' is bound to channel '" + p.channel + "' in partition '" +
              cscope->path +
              "' without an AsyncChannel/PausibleBisyncFifo crossing"});
      continue;  // don't double-report the same binding under rule c
    }

    // Rule c: a module whose threads all run on one clock must not touch a
    // channel on a different clock. Modules with threads on several clocks
    // are designated CDC elements and exempt.
    const DesignGraph::ModuleNode* gov = governing(p.owner);
    if (gov != nullptr && gov->thread_clocks.size() == 1 &&
        gov->thread_clocks[0] != ch.clock) {
      out.push_back(Finding{
          "cdc-clock-mismatch", Severity::kError, p.owner,
          p.type + " port of module '" + gov->name + "' (clock " +
              gov->thread_clock_names[0] + ") is bound to channel '" + p.channel +
              "' on clock " + ch.clock_name +
              " — a raw clock-domain crossing; use an AsyncChannel"});
    }
  }
  return out;
}

std::vector<Finding> CheckPacketizers(const DesignGraph& g, const PortList& ports) {
  const auto& pks = g.packetizers();
  if (pks.empty()) return {};

  // Union-find over module/channel names: everything connected through
  // channel bindings lands in one component, so a Packetizer and the
  // DePacketizer that reassembles its flits (possibly across a NoC) meet.
  std::unordered_map<std::string, std::string> parent;
  std::function<std::string(const std::string&)> find =
      [&](const std::string& x) -> std::string {
    auto it = parent.find(x);
    if (it == parent.end()) {
      parent.emplace(x, x);
      return x;
    }
    if (it->second == x) return x;
    const std::string root = find(it->second);
    parent[x] = root;  // path compression (re-lookup: recursion may rehash)
    return root;
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    const std::string ra = find(a), rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };
  for (const auto& p : ports) {
    if (!p.channel.empty()) unite(p.owner, p.channel);
  }

  // Group endpoints by (component, message type); flag mixed flit widths.
  std::map<std::pair<std::string, std::string>,
           std::vector<const DesignGraph::PacketizerNode*>>
      groups;
  for (const auto& pk : pks) {
    groups[{find(pk.module), pk.msg_type}].push_back(&pk);
  }

  std::vector<Finding> out;
  for (const auto& [key, nodes] : groups) {
    std::set<unsigned> widths;
    for (const auto* n : nodes) widths.insert(n->flit_bits);
    if (widths.size() <= 1) continue;
    std::string detail;
    for (const auto* n : nodes) {
      if (!detail.empty()) detail += ", ";
      detail += n->module + " (" + (n->is_packetizer ? "pk" : "dpk") + ", " +
                std::to_string(n->flit_bits) + "b flits)";
    }
    out.push_back(Finding{
        "pkt-flit-mismatch", Severity::kError, nodes.front()->module,
        "connected (de)packetizers for message type '" + key.second +
            "' disagree on flit width — reassembly produces garbage: " + detail});
  }
  return out;
}

std::vector<Finding> ApplyOptions(std::vector<Finding> findings,
                                  const LintOptions& opts,
                                  std::vector<bool>* used_suppressions) {
  if (used_suppressions != nullptr) {
    used_suppressions->resize(opts.suppressions.size(), false);
  }
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool suppressed = false;
    for (std::size_t i = 0; i < opts.suppressions.size(); ++i) {
      const Suppression& s = opts.suppressions[i];
      if (GlobMatch(s.rule_glob, f.rule) && GlobMatch(s.path_glob, f.path)) {
        suppressed = true;
        if (used_suppressions != nullptr) (*used_suppressions)[i] = true;
        // No break: later suppressions covering the same finding still count
        // as used, so the unused-suppression warning stays precise.
        if (used_suppressions == nullptr) break;
      }
    }
    if (suppressed) continue;
    auto sev = opts.severity_overrides.find(f.rule);
    if (sev != opts.severity_overrides.end()) f.severity = sev->second;
    kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return a.rule != b.rule ? a.rule < b.rule : a.path < b.path;
  });
  return kept;
}

std::vector<Finding> UnusedSuppressionFindings(
    const std::vector<Suppression>& suppressions, const std::vector<bool>& used) {
  std::vector<Finding> out;
  for (std::size_t i = 0; i < suppressions.size(); ++i) {
    if (i < used.size() && used[i]) continue;
    const Suppression& s = suppressions[i];
    out.push_back(Finding{
        "unused-suppression", Severity::kWarning, s.rule_glob + "@" + s.path_glob,
        "suppression '" + s.rule_glob + "@" + s.path_glob +
            "' matched no finding — stale after a fix, or a typo in the glob"});
  }
  return out;
}

std::vector<Finding> CheckDesignGraph(const DesignGraph& g, const LintOptions& opts,
                                      std::vector<bool>* used_suppressions) {
  // One sorted copy of the ports for every rule: each copy allocates per
  // port.
  const PortList ports = g.ports();
  std::vector<Finding> all;
  for (auto&& chunk : {CheckUnboundPorts(ports), CheckMultiDriver(ports),
                       CheckCombCycles(g, ports), CheckCdc(g, ports),
                       CheckPacketizers(g, ports)}) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return ApplyOptions(std::move(all), opts, used_suppressions);
}

}  // namespace craft::lint
