// Design-graph registry: an elaboration-time record of the design's static
// structure — the module tree, port -> channel bindings, channel kinds and
// depths, clock-domain tags, and packetizer endpoints.
//
// Every Simulator owns one DesignGraph. Kernel and Connections components
// register themselves as they elaborate (Module constructors, Channel
// constructors, In<T>/Out<T> construction and binding, gals::Partition clock
// domains, Packetizer/DePacketizer endpoints). The graph is purely passive:
// it costs a few map insertions during elaboration and nothing at simulation
// time. Static analysis passes — src/lint's design-rule checks, and future
// observability tooling — consume it after elaboration, before simulation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace craft {

/// Returns the human-readable form of a (typeid) mangled type name.
std::string DemangleTypeName(const char* mangled);

/// True if `path` equals `prefix` or is hierarchically beneath it
/// ("soc.pe3.dp" is under "soc.pe3" but not under "soc.pe").
bool PathIsUnder(const std::string& path, const std::string& prefix);

class DesignGraph {
 public:
  struct ModuleNode {
    std::string name;    ///< hierarchical name
    std::string parent;  ///< hierarchical name of the parent ("" for roots)
    /// Distinct clocks of the thread processes registered by this module
    /// (identity + name). A module with threads on two clocks is a
    /// designated clock-domain-crossing element.
    std::vector<const void*> thread_clocks;
    std::vector<std::string> thread_clock_names;
  };

  struct ChannelNode {
    std::string name;
    std::string kind;          ///< Combinational / Bypass / Pipeline / Buffer
    unsigned capacity = 0;
    bool zero_storage = false; ///< no internal buffering (Combinational)
    const void* clock = nullptr;
    std::string clock_name;
    /// Nominal period of `clock` in picoseconds (0 if unknown). Recorded so
    /// static analysis can convert per-cycle rates into time units without
    /// holding live Clock pointers.
    std::uint64_t period_ps = 0;
    /// Minimum enqueue-to-dequeue latency in cycles of `clock`: 0 for
    /// same-cycle kinds (Combinational, Bypass via the bypass path), 1 for
    /// kinds that commit at the posedge (Pipeline, Buffer).
    unsigned latency_cycles = 0;
  };

  struct PortNode {
    std::uint64_t id = 0;      ///< registration order, for deterministic reports
    std::string owner;         ///< best-effort owning module (see note below)
    std::string type;          ///< demangled message type
    bool is_input = false;
    bool optional_ok = false;  ///< component tolerates this port being unbound
    std::string channel;       ///< bound channel name; "" while dangling
  };

  struct DomainScope {
    std::string path;          ///< module subtree governed by this clock
    const void* clock = nullptr;
    std::string clock_name;
  };

  struct PacketizerNode {
    std::string module;
    std::string msg_type;      ///< demangled message type
    unsigned msg_width = 0;    ///< Marshal<T>::kWidth
    unsigned flit_bits = 0;
    bool is_packetizer = false; ///< false = depacketizer
  };

  /// A declared GALS clock-domain crossing (PausibleBisyncFifo). Mirrors the
  /// Simulator's CrossingDecl but carries the quantitative parameters the
  /// static throughput analysis (src/analyze) needs: ring depth, synchronizer
  /// grace window, and both nominal clock periods.
  struct CrossingNode {
    std::string path;                     ///< fifo's hierarchical name
    const void* producer_clock = nullptr;
    const void* consumer_clock = nullptr;
    std::string producer_clock_name;
    std::string consumer_clock_name;
    std::uint64_t producer_period_ps = 0;
    std::uint64_t consumer_period_ps = 0;
    std::uint64_t sync_delay_ps = 0;      ///< grace window per direction
    unsigned depth = 0;                   ///< ring slots (kDepth)
  };

  // ---- registration (called during elaboration) ----

  /// Registers a module and makes it the "current" module for subsequent
  /// port registrations. Owner attribution for ports is best-effort: a port
  /// constructed as a direct member of its module (the overwhelmingly common
  /// case) is attributed exactly; a port declared after a child-module member
  /// is attributed to that child's subtree. The true owner is always an
  /// ancestor-or-self of the attributed module, which is what the scoping
  /// rules (clock domains, suppressions) rely on.
  void AddModule(const std::string& full_name, const std::string& parent);

  /// Records that `module` registered a thread process clocked by `clk`.
  void AddThreadClock(const std::string& module, const void* clk,
                      const std::string& clk_name);

  void AddChannel(const ChannelNode& ch);

  /// Tags the module subtree at `path` as a clock domain (GALS partition).
  void AddDomainScope(const std::string& path, const void* clk,
                      const std::string& clk_name);

  /// Marks the subtree at `path` as a designated CDC element (e.g. an
  /// AsyncChannel): cross-domain traffic through it is correct by
  /// construction and exempt from the CDC rules.
  void MarkCdcSafe(const std::string& path);

  void AddPacketizer(const PacketizerNode& p);

  /// Declares a GALS crossing (called by PausibleBisyncFifo alongside
  /// Simulator::RegisterCrossing, which keeps only what the parallel engine
  /// needs; this record keeps what static analysis needs).
  void AddCrossing(const CrossingNode& c);

  // Port lifecycle, keyed by the port object's address.
  void RegisterPort(const void* key, bool is_input, std::string type);
  /// Copy/move: the new port inherits the source's attribution and binding.
  void ClonePort(const void* key, const void* from);
  void RemovePort(const void* key);
  /// Records (or clears, with "") the port's bound channel.
  void BindPort(const void* key, const std::string& channel_name);
  void MarkPortOptional(const void* key);

  // ---- queries (for analysis passes) ----

  const std::map<std::string, ModuleNode>& modules() const { return modules_; }
  const std::map<std::string, ChannelNode>& channels() const { return channels_; }
  const std::vector<DomainScope>& domain_scopes() const { return scopes_; }
  const std::vector<PacketizerNode>& packetizers() const { return packetizers_; }
  const std::vector<CrossingNode>& crossings() const { return crossings_; }

  /// Crossing registered at `path`, or nullptr.
  const CrossingNode* CrossingAt(const std::string& path) const;

  /// All live ports, sorted by registration id (deterministic).
  std::vector<PortNode> ports() const;
  /// The same ports unordered and uncopied, for passes whose result does
  /// not depend on the order.
  const std::unordered_map<const void*, PortNode>& port_map() const { return ports_; }

  /// Nearest enclosing domain scope of `path`, or nullptr.
  const DomainScope* ScopeOf(const std::string& path) const;

  /// True if `path` lies inside a subtree marked CDC-safe.
  bool IsCdcSafe(const std::string& path) const;

  /// The module registered most recently (elaboration context).
  const std::string& current_module() const { return current_module_; }

 private:
  std::map<std::string, ModuleNode> modules_;
  std::map<std::string, ChannelNode> channels_;
  std::unordered_map<const void*, PortNode> ports_;
  std::vector<DomainScope> scopes_;
  std::vector<std::string> cdc_safe_;
  std::vector<PacketizerNode> packetizers_;
  std::vector<CrossingNode> crossings_;
  std::string current_module_;
  std::uint64_t next_port_id_ = 0;
};

}  // namespace craft
