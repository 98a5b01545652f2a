// Connections: latency-insensitive channels with ports decoupled from
// channel kinds (paper §2.3, Table 1, Fig. 2).
//
//   Port   | Functions            Channel          | Description
//   -------+-----------           -----------------+---------------------------
//   In<T>  | Pop(), PopNB()       Combinational<T> | combinationally connects
//   Out<T> | Push(), PushNB()     Bypass<T>        | enables DEQ when empty
//                                 Pipeline<T>      | enables ENQ when full
//                                 Buffer<T>        | FIFO channel
//                                 Packetizer<T>... | network channels (see
//                                                  | packetizer.hpp)
//
// Every channel has two interchangeable implementations selected by the
// simulator-wide SimMode:
//
//  * signal-accurate (SimMode::kSignalAccurate): the channel is real RTL —
//    msg/valid/ready signals, a combinational method and a sequential
//    (posedge) method. Port operations perform the paper's delayed
//    operations: assert valid, wait() one cycle, deassert, sample ready.
//    Faithful to what HLS synthesizes, but a loop touching P ports costs ~P
//    cycles because the SystemC-style simulator serializes the waits — the
//    source of the growing cycles-per-transaction error in Fig. 3.
//
//  * sim-accurate (SimMode::kSimAccurate): port operations stage
//    transactions into channel-internal buffers; a per-posedge hook commits
//    them with RTL-equivalent timing (at most one token per port per cycle,
//    correct occupancy-based backpressure, correct enqueue-to-visible
//    latency). All non-blocking operations in one loop iteration overlap in
//    a single cycle, matching the HLS-scheduled RTL — so elapsed cycles
//    match RTL while simulation runs orders of magnitude faster.
//
// Semantics notes (documented deviations, both mode-consistent):
//  * Combinational<T> transfers require a same-cycle rendezvous. A
//    non-blocking push "offers" the value (models holding valid); the offer
//    stays until consumed. Blocking Push returns once the consumer has taken
//    the value.
//  * Pipeline<T>'s enqueue-when-full needs same-cycle knowledge of the
//    consumer's dequeue; in sim-accurate mode the enqueue is accepted when
//    full only if a pop has already been observed in the same cycle.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <typeinfo>
#include <utility>

#include "kernel/chaos.hpp"
#include "kernel/clock.hpp"
#include "kernel/design_graph.hpp"
#include "kernel/event.hpp"
#include "kernel/module.hpp"
#include "kernel/probe.hpp"
#include "kernel/report.hpp"
#include "kernel/signal.hpp"

namespace craft::connections {

/// Channel kinds of Table 1 / Fig. 2.
enum class ChannelKind { kCombinational, kBypass, kPipeline, kBuffer };

inline const char* ToString(ChannelKind k) {
  switch (k) {
    case ChannelKind::kCombinational: return "Combinational";
    case ChannelKind::kBypass: return "Bypass";
    case ChannelKind::kPipeline: return "Pipeline";
    case ChannelKind::kBuffer: return "Buffer";
  }
  return "?";
}

/// A latency-insensitive channel carrying messages of type T.
/// T must be default-constructible and equality-comparable.
template <typename T>
class Channel : public Module {
 public:
  Channel(Module& parent, const std::string& name, Clock& clk, ChannelKind kind,
          unsigned capacity)
      : Module(parent, name),
        clk_(clk),
        kind_(kind),
        capacity_(capacity),
        data_event_(sim()),
        space_event_(sim()) {
    CRAFT_ASSERT(capacity_ >= 1 || kind_ == ChannelKind::kCombinational,
                 "channel capacity must be >= 1");
    // Minimum enqueue-to-dequeue latency: kinds that commit at the posedge
    // make a token visible one cycle after the push; Combinational transfers
    // and the Bypass empty-queue path are same-cycle. craft-prove's
    // throughput analysis consumes this together with capacity and period.
    const unsigned latency_cycles =
        (kind_ == ChannelKind::kCombinational || kind_ == ChannelKind::kBypass) ? 0
                                                                                : 1;
    const DesignGraph::ChannelNode node{
        full_name(), ToString(kind_), capacity_,
        /*zero_storage=*/kind_ == ChannelKind::kCombinational, &clk_, clk_.name(),
        clk_.period(), latency_cycles};
    sim().design_graph().AddChannel(node);
    // nullptr unless an instrument enabled before elaboration wants this
    // channel, so with none on each operation pays one never-taken branch.
    // Only payload types with a ChaosFlip (e.g. Flit) can host bit-flips.
    probe_ = ChannelProbe::Make(sim(), node, ChaosFlip<T>::kSupported);
    if (sim().mode() == SimMode::kSignalAccurate) {
      BuildSignalAccurate();
    } else {
      clk_.AddEdgeHook([this] { CommitEdge(); }, /*priority=*/0);
    }
  }

  Clock& clk() const { return clk_; }
  ChannelKind kind() const { return kind_; }

  /// Completed transfers (dequeues) so far.
  std::uint64_t transfer_count() const { return transfers_; }
  /// Tokens currently held (committed queue + staged).
  std::size_t occupancy() const { return q_.size() + (staged_.has_value() ? 1 : 0); }

  // ---- Producer interface (called via Out<T>) ----

  /// Non-blocking push: attempts to hand `v` to the channel this cycle.
  bool PushNB(const T& v) {
    CheckAffinity();
    return sim().mode() == SimMode::kSignalAccurate ? SigPushNB(v) : SimPushNB(v);
  }

  /// Blocking push: returns once the channel has accepted `v`.
  void Push(const T& v) {
    CheckAffinity();
    if (sim().mode() == SimMode::kSignalAccurate) {
      SigPush(v);
    } else {
      SimPush(v);
    }
  }

  // ---- Consumer interface (called via In<T>) ----

  /// Non-blocking pop: attempts to take a message this cycle.
  bool PopNB(T& out) {
    CheckAffinity();
    return sim().mode() == SimMode::kSignalAccurate ? SigPopNB(out) : SimPopNB(out);
  }

  /// Blocking pop.
  T Pop() {
    CheckAffinity();
    return sim().mode() == SimMode::kSignalAccurate ? SigPop() : SimPop();
  }

  /// True if a pop could succeed this cycle (peek; sim-accurate mode only).
  bool PeekAvailable() const {
    if (kind_ == ChannelKind::kCombinational || kind_ == ChannelKind::kBypass) {
      return !q_.empty() || staged_.has_value();
    }
    return !q_.empty();
  }

 private:
  // craft-par thread-affinity guard: every channel endpoint belongs to the
  // channel's clock-domain group, so a worker may only touch channels whose
  // group it owns. One inline worker never sets tl_sched_shard, so the
  // check is vacuous there; under worker threads a violation means the
  // design routes cross-domain traffic outside any registered crossing — a
  // data race, flagged instead of silently tolerated.
  void CheckAffinity() const {
    CRAFT_ASSERT(
        tl_sched_shard == nullptr ||
            sim().ShardForGroupOrNull(clk_.par_group()) == tl_sched_shard,
        "channel '" << full_name()
                    << "' accessed from a foreign clock-domain group; "
                       "cross-domain traffic must go through a registered "
                       "GALS crossing (PausibleBisyncFifo / AsyncChannel)");
  }

  // ================= sim-accurate implementation =================

  /// Edge hook: commits the producer's staged token into the queue, exactly
  /// as RTL registers the transfer at the clock edge. This commit is the
  /// craft-chaos corruption point: a bit-flip mutates the token in the
  /// register, a drop loses it (the producer believes it was accepted), and
  /// a duplicate commits a copy while leaving the staged token to commit
  /// again at the next edge — the three failure modes of a physically
  /// marginal link.
  void CommitEdge() {
    if (kind_ == ChannelKind::kCombinational) {
      // No storage: an unconsumed offer simply persists (producer holds
      // valid). Nothing to commit.
      return;
    }
    if (staged_.has_value() && q_.size() < capacity_) {
      bool keep_staged = false;
      if (probe_ != nullptr) {
        unsigned bit = 0;
        switch (probe_->Committing(&bit)) {
          case ChannelProbe::Corruption::kNone:
            break;
          case ChannelProbe::Corruption::kBitFlip:
            ChaosFlip<T>::Flip(*staged_, bit);
            break;
          case ChannelProbe::Corruption::kDrop:
            staged_.reset();
            space_event_.Notify();
            return;
          case ChannelProbe::Corruption::kDuplicate:
            keep_staged = true;
            break;
        }
      }
      if (keep_staged) {
        q_.push_back(*staged_);
      } else {
        q_.push_back(std::move(*staged_));
        staged_.reset();
      }
      data_event_.Notify();
      space_event_.Notify();
    }
  }

  bool SimPushNB(const T& v) {
    const bool ok = SimPushNBImpl(v);
    if (probe_ != nullptr) {
      if (ok) {
        probe_->Enqueued(sim().now(), occupancy());
      } else {
        // A reject is one cycle of link-level backpressure for a polling
        // producer (router switch traversal) — same blame sample as a
        // blocking-push stall cycle.
        probe_->PushRefused();
        probe_->ProducerBlocked();
      }
    }
    return ok;
  }

  bool SimPushNBImpl(const T& v) {
    const std::uint64_t c = clk_.cycle();
    if (last_push_cycle_ == c) return false;  // at most one token per cycle
    if (probe_ != nullptr && probe_->ReadyStalled(c)) return false;
    switch (kind_) {
      case ChannelKind::kCombinational:
        if (staged_.has_value()) return false;  // previous offer not yet taken
        staged_ = v;
        last_push_cycle_ = c;
        data_event_.Notify();
        return true;
      case ChannelKind::kBypass:
      case ChannelKind::kBuffer:
        // RTL ready: committed occupancy (incl. in-flight staged token) < cap.
        if (q_.size() + (staged_.has_value() ? 1 : 0) >= capacity_) return false;
        staged_ = v;
        last_push_cycle_ = c;
        if (kind_ == ChannelKind::kBypass) data_event_.Notify();  // same-cycle DEQ
        return true;
      case ChannelKind::kPipeline:
        // ENQ-when-full allowed if the consumer already dequeued this cycle.
        if (q_.size() + (staged_.has_value() ? 1 : 0) >= capacity_ &&
            last_pop_cycle_ != c) {
          return false;
        }
        if (staged_.has_value()) return false;
        staged_ = v;
        last_push_cycle_ = c;
        return true;
    }
    return false;
  }

  void SimPush(const T& v) {
    wait_until([&] {
      if (SimPushNBImpl(v)) return true;
      if (probe_ != nullptr) {
        probe_->FullStallCycle();
        probe_->ProducerBlocked();
      }
      return false;
    });
    if (probe_ != nullptr) probe_->Enqueued(sim().now(), occupancy());
    if (kind_ == ChannelKind::kCombinational) {
      // Rendezvous: hold the offer until the consumer takes it.
      while (staged_.has_value()) wait(consumed_event());
    }
  }

  bool SimPopNB(T& out) {
    const bool ok = SimPopNBImpl(out);
    if (probe_ != nullptr) {
      // Failed polls of an empty channel are not starvation evidence
      // (routers scan all inputs every cycle), so a reject is no blame
      // sample.
      if (ok) {
        probe_->Dequeued(sim().now(), occupancy());
      } else {
        probe_->PopRefused();
      }
    }
    return ok;
  }

  bool SimPopNBImpl(T& out) {
    const std::uint64_t c = clk_.cycle();
    if (last_pop_cycle_ == c) return false;  // one token per cycle
    if (probe_ != nullptr && probe_->ValidStalled(c)) return false;
    switch (kind_) {
      case ChannelKind::kCombinational:
        if (!staged_.has_value()) return false;
        out = std::move(*staged_);
        staged_.reset();
        last_pop_cycle_ = c;
        ++transfers_;
        consumed_event().Notify();
        return true;
      case ChannelKind::kBypass:
        if (!q_.empty()) {
          out = std::move(q_.front());
          q_.pop_front();
        } else if (staged_.has_value()) {
          out = std::move(*staged_);  // bypass path: DEQ when empty
          staged_.reset();
        } else {
          return false;
        }
        last_pop_cycle_ = c;
        ++transfers_;
        space_event_.Notify();
        return true;
      case ChannelKind::kPipeline:
      case ChannelKind::kBuffer:
        if (q_.empty()) return false;
        out = std::move(q_.front());
        q_.pop_front();
        last_pop_cycle_ = c;
        ++transfers_;
        space_event_.Notify();
        return true;
    }
    return false;
  }

  T SimPop() {
    T out{};
    // A failed pop retries at the next posedge, checked by the scheduler
    // without resuming this thread. The exception is an empty Combinational
    // or Bypass channel: for same-cycle visibility the predicate then ends
    // the clock wait and the thread wakes on an offer within this timestep.
    const bool same_cycle =
        kind_ == ChannelKind::kCombinational || kind_ == ChannelKind::kBypass;
    bool popped = false;
    for (;;) {
      wait_until([&] {
        popped = SimPopNBImpl(out);
        if (popped) return true;
        const bool empty = !PeekAvailable();
        if (empty && probe_ != nullptr) {
          probe_->EmptyStallCycle();
          probe_->ConsumerStarved();
        }
        return same_cycle && empty;
      });
      if (popped) break;
      wait(data_event_);
    }
    if (probe_ != nullptr) probe_->Dequeued(sim().now(), occupancy());
    return out;
  }

  Event& consumed_event() { return space_event_; }

  // ================= signal-accurate implementation =================
  //
  // The channel elaborates real RTL: producer-side signals (p_*),
  // consumer-side signals (c_*), a combinational method and a sequential
  // method, per the schematics of Fig. 2.

  void BuildSignalAccurate() {
    sig_ = std::make_unique<Signals>(sim(), full_name());
    MethodProcess& comb = Method("comb", [this] { SigComb(); });
    // Signal-sensitive only — declare the clock domain for the craft-par
    // partitioner explicitly (SensitiveTo would add an unwanted edge trigger).
    comb.SetAffinity(clk_);
    sig_->p_valid.AddSensitive(comb);
    sig_->p_msg.AddSensitive(comb);
    sig_->c_ready.AddSensitive(comb);
    sig_->state_change.AddSensitive(comb);
    // The register is dispatched only on the edges where it has work.
    const EdgeGuard seq_due = [](const void* ch) {
      return static_cast<const Channel*>(ch)->SigSeqDue();
    };
    Method("seq", [this] { SigSeq(); }).SensitiveTo(clk_, seq_due, this);
    if (probe_ != nullptr && probe_->has_faults()) {
      // craft-chaos stalls: retrigger comb at every edge so each cycle's
      // stall mask applies even when no input changed. Comb's first read in
      // a cycle rolls the mask, so every cycle rolls exactly once.
      clk_.AddEdgeHook(
          [this] { sig_->state_change.write(sig_->state_change.read() + 1); },
          /*priority=*/-10);
    }
  }

  struct Signals {
    Signals(Simulator& sim, const std::string& n)
        : p_msg(sim, n + ".p_msg"),
          p_valid(sim, n + ".p_valid", false),
          p_ready(sim, n + ".p_ready", false),
          c_msg(sim, n + ".c_msg"),
          c_valid(sim, n + ".c_valid", false),
          c_ready(sim, n + ".c_ready", false),
          state_change(sim, n + ".state", 0) {}
    Signal<T> p_msg;
    Signal<bool> p_valid;
    Signal<bool> p_ready;
    Signal<T> c_msg;
    Signal<bool> c_valid;
    Signal<bool> c_ready;
    Signal<std::uint32_t> state_change;  // bumps when q_ mutates, retriggers comb
  };

  /// Combinational outputs as a function of registered state and inputs.
  void SigComb() {
    const std::uint64_t c = clk_.cycle();
    const bool stall_valid = probe_ != nullptr && probe_->ValidStalled(c);
    const bool stall_ready = probe_ != nullptr && probe_->ReadyStalled(c);
    switch (kind_) {
      case ChannelKind::kCombinational: {
        // No storage: a stall of either signal must kill the handshake on
        // BOTH sides in the same cycle, or a message would be lost (producer
        // sees ready) / duplicated (consumer sees valid).
        const bool stall_any = stall_valid || stall_ready;
        sig_->c_valid.write(sig_->p_valid.read() && !stall_any);
        sig_->c_msg.write(sig_->p_msg.read());
        sig_->p_ready.write(sig_->c_ready.read() && !stall_any);
        break;
      }
      case ChannelKind::kBypass:
        if (q_.empty()) {
          sig_->c_valid.write(sig_->p_valid.read() && !stall_valid);
          sig_->c_msg.write(sig_->p_msg.read());
        } else {
          sig_->c_valid.write(!stall_valid);
          sig_->c_msg.write(q_.front());
        }
        sig_->p_ready.write(q_.size() < capacity_ && !stall_ready);
        break;
      case ChannelKind::kPipeline: {
        const bool cv = !q_.empty() && !stall_valid;
        sig_->c_valid.write(cv);
        if (!q_.empty()) sig_->c_msg.write(q_.front());
        // ENQ-when-full is only safe when the (post-stall) output handshake
        // drains an entry in the same cycle.
        sig_->p_ready.write(
            (q_.size() < capacity_ || (cv && sig_->c_ready.read())) && !stall_ready);
        break;
      }
      case ChannelKind::kBuffer:
        sig_->c_valid.write(!q_.empty() && !stall_valid);
        if (!q_.empty()) sig_->c_msg.write(q_.front());
        sig_->p_ready.write(q_.size() < capacity_ && !stall_ready);
        break;
    }
  }

  /// seq's edge guard: true on an edge where SigSeq has work, i.e. a
  /// handshake completes on either side, or the trace track has a stall to
  /// sample. On any other edge SigSeq would change nothing. It reads only
  /// committed signals, which nothing can change between the edge and seq's
  /// dispatch slot (no update phase runs in between).
  bool SigSeqDue() const {
    const bool p_valid = sig_->p_valid.read();
    const bool c_ready = sig_->c_ready.read();
    return (p_valid && sig_->p_ready.read()) || (c_ready && sig_->c_valid.read()) ||
           (probe_ != nullptr && probe_->traced() && (p_valid || c_ready));
  }

  /// Sequential state update at the posedge, sampling committed signals.
  /// Dispatched only where SigSeqDue() holds, and retriggers comb only on an
  /// edge that pushed or popped q_: comb reads nothing else but its input
  /// signals and, on a channel with a chaos point, the stall mask, which the
  /// edge hook retriggers it for.
  void SigSeq() {
    const bool p_valid = sig_->p_valid.read();
    const bool p_ready = sig_->p_ready.read();
    const bool c_valid = sig_->c_valid.read();
    const bool c_ready = sig_->c_ready.read();
    bool enq = p_valid && p_ready;
    bool deq = c_valid && c_ready;
    bool q_changed = false;
    switch (kind_) {
      case ChannelKind::kCombinational:
        enq = deq = enq && deq;
        if (enq) ++transfers_;
        break;
      case ChannelKind::kBypass: {
        const bool bypassed = deq && q_.empty();
        if (deq && !q_.empty()) q_.pop_front();
        if (enq && !bypassed) q_.push_back(sig_->p_msg.read());
        if (deq) ++transfers_;
        q_changed = (enq || deq) && !bypassed;
        break;
      }
      case ChannelKind::kPipeline:
      case ChannelKind::kBuffer:
        if (deq) {
          q_.pop_front();
          ++transfers_;
        }
        if (enq) {
          CRAFT_ASSERT(q_.size() < capacity_, full_name() << ": FIFO overflow");
          q_.push_back(sig_->p_msg.read());
        }
        q_changed = enq || deq;
        break;
    }
    // Enqueue before dequeue, so a same-edge (bypassed or rendezvous)
    // transfer records latency 0; a rendezvous enters at occupancy 1 and
    // drains to 0, as the sim-accurate staging sequence does. Stall cycles
    // are counted by the blocked endpoint (see SigPush), blame samples here.
    // seq runs in no thread process, so each hop gets a fresh root span.
    if (probe_ != nullptr) {
      const std::size_t occ = q_.size();
      if (enq) probe_->Enqueued(sim().now(), kind_ == ChannelKind::kCombinational ? 1 : occ);
      if (deq) probe_->Dequeued(sim().now(), occ);
      if (p_valid && !p_ready) probe_->ProducerBlocked();
      if (c_ready && !c_valid) probe_->ConsumerStarved();
    }
    if (q_changed) sig_->state_change.write(sig_->state_change.read() + 1);
  }

  // Port protocols: the paper's delayed operations (§2.3 code snippet).
  // Handshakes are counted at the edge by SigSeq, stall cycles here by the
  // blocked endpoint: with the endpoint thread on the channel's clock (every
  // design in the tree) each edge with p_valid (c_ready) high is one check
  // of the committed p_ready (c_valid) seq sees, so the counts equal
  // per-edge sampling (DESIGN.md §5).

  bool SigPushNB(const T& v) {
    sig_->p_msg.write(v);     // write data bits
    sig_->p_valid.write(true);  // set valid bit
    wait();                   // one cycle delay
    sig_->p_valid.write(false);  // clear valid bit (delayed operation)
    const bool ok = sig_->p_ready.read();
    if (!ok && probe_ != nullptr) {
      probe_->PushRefused();
      probe_->FullStallCycle();
    }
    return ok;
  }

  void SigPush(const T& v) {
    sig_->p_msg.write(v);
    sig_->p_valid.write(true);
    this_thread().WaitUntil([this] {
      if (sig_->p_ready.read()) return true;
      if (probe_ != nullptr) probe_->FullStallCycle();
      return false;
    });
    sig_->p_valid.write(false);
  }

  bool SigPopNB(T& out) {
    sig_->c_ready.write(true);
    wait();
    sig_->c_ready.write(false);  // delayed operation
    if (sig_->c_valid.read()) {
      out = sig_->c_msg.read();
      return true;
    }
    if (probe_ != nullptr) {
      probe_->PopRefused();
      probe_->EmptyStallCycle();
    }
    return false;
  }

  T SigPop() {
    sig_->c_ready.write(true);
    this_thread().WaitUntil([this] {
      if (sig_->c_valid.read()) return true;
      if (probe_ != nullptr) probe_->EmptyStallCycle();
      return false;
    });
    sig_->c_ready.write(false);
    return sig_->c_msg.read();
  }

  // ---- common state ----
  Clock& clk_;
  ChannelKind kind_;
  unsigned capacity_;

  std::deque<T> q_;             // committed storage (both modes)
  std::optional<T> staged_;     // sim-accurate: producer's in-flight token
  std::uint64_t last_push_cycle_ = ~0ull;
  std::uint64_t last_pop_cycle_ = ~0ull;
  Event data_event_;
  Event space_event_;

  std::uint64_t transfers_ = 0;

  // The channel's instruments (stats, trace, chaos, cover), or nullptr.
  std::unique_ptr<ChannelProbe> probe_;

  std::unique_ptr<Signals> sig_;  // signal-accurate mode only
};

// ---- Table 1 channel aliases ----

/// Combinationally connects ports (Fig. 2a).
template <typename T>
class Combinational : public Channel<T> {
 public:
  Combinational(Module& parent, const std::string& name, Clock& clk)
      : Channel<T>(parent, name, clk, ChannelKind::kCombinational, 1) {}
};

/// Enables DEQ when empty (Fig. 2b).
template <typename T>
class Bypass : public Channel<T> {
 public:
  Bypass(Module& parent, const std::string& name, Clock& clk)
      : Channel<T>(parent, name, clk, ChannelKind::kBypass, 1) {}
};

/// Enables ENQ when full (Fig. 2c).
template <typename T>
class Pipeline : public Channel<T> {
 public:
  Pipeline(Module& parent, const std::string& name, Clock& clk)
      : Channel<T>(parent, name, clk, ChannelKind::kPipeline, 1) {}
};

/// FIFO channel (Fig. 2d).
template <typename T>
class Buffer : public Channel<T> {
 public:
  Buffer(Module& parent, const std::string& name, Clock& clk, unsigned capacity = 2)
      : Channel<T>(parent, name, clk, ChannelKind::kBuffer, capacity) {}
};

// ---- Ports (Table 1): unified endpoints usable with any channel kind ----
//
// Ports register themselves in the simulator's DesignGraph on construction
// and record their channel on binding, so elaboration-time design-rule
// checks (src/lint) can find dangling ports, double drivers, and raw
// clock-domain crossings without any runtime cost.

/// Input terminal. Bind to any channel, then Pop()/PopNB() from a thread.
template <typename T>
class In {
 public:
  In() { RegisterSelf(); }
  In(const In& o) : ch_(o.ch_), dg_(o.dg_) {
    if (dg_) dg_->ClonePort(this, &o);
  }
  In(In&& o) noexcept : ch_(o.ch_), dg_(o.dg_) {
    if (dg_) dg_->ClonePort(this, &o);
  }
  In& operator=(const In& o) {
    ch_ = o.ch_;
    SyncBinding();
    return *this;
  }
  In& operator=(In&& o) noexcept {
    ch_ = o.ch_;
    SyncBinding();
    return *this;
  }
  ~In() {
    if (dg_) dg_->RemovePort(this);
  }

  /// Binds this port to a channel (operator() mirrors SystemC port binding).
  void operator()(Channel<T>& ch) { Bind(ch); }
  void Bind(Channel<T>& ch) {
    ch_ = &ch;
    SyncBinding();
  }
  bool bound() const { return ch_ != nullptr; }

  /// Declares that this port may legitimately stay unbound (e.g. edge ports
  /// of a mesh router); the dangling-port lint rule then skips it.
  void MarkOptional() {
    if (dg_) dg_->MarkPortOptional(this);
  }

  /// Blocking pop: returns the next message, waiting as needed.
  T Pop() {
    CRAFT_ASSERT(ch_ != nullptr, "In<T>::Pop on unbound port");
    return ch_->Pop();
  }

  /// Non-blocking pop: true and fills `out` if a message was available.
  bool PopNB(T& out) {
    CRAFT_ASSERT(ch_ != nullptr, "In<T>::PopNB on unbound port");
    return ch_->PopNB(out);
  }

  /// Peek: true if a pop could succeed this cycle (sim-accurate mode).
  bool Available() const { return ch_ != nullptr && ch_->PeekAvailable(); }

  Channel<T>* channel() const { return ch_; }

 private:
  void RegisterSelf() {
    if (Simulator* s = Simulator::CurrentOrNull()) {
      dg_ = s->design_graph_ptr();
      dg_->RegisterPort(this, /*is_input=*/true,
                        "In<" + DemangleTypeName(typeid(T).name()) + ">");
    }
  }
  void SyncBinding() {
    if (dg_) dg_->BindPort(this, ch_ != nullptr ? ch_->full_name() : std::string());
  }

  Channel<T>* ch_ = nullptr;
  std::shared_ptr<DesignGraph> dg_;
};

/// Output terminal. Bind to any channel, then Push()/PushNB() from a thread.
template <typename T>
class Out {
 public:
  Out() { RegisterSelf(); }
  Out(const Out& o) : ch_(o.ch_), dg_(o.dg_) {
    if (dg_) dg_->ClonePort(this, &o);
  }
  Out(Out&& o) noexcept : ch_(o.ch_), dg_(o.dg_) {
    if (dg_) dg_->ClonePort(this, &o);
  }
  Out& operator=(const Out& o) {
    ch_ = o.ch_;
    SyncBinding();
    return *this;
  }
  Out& operator=(Out&& o) noexcept {
    ch_ = o.ch_;
    SyncBinding();
    return *this;
  }
  ~Out() {
    if (dg_) dg_->RemovePort(this);
  }

  void operator()(Channel<T>& ch) { Bind(ch); }
  void Bind(Channel<T>& ch) {
    ch_ = &ch;
    SyncBinding();
  }
  bool bound() const { return ch_ != nullptr; }

  /// See In<T>::MarkOptional().
  void MarkOptional() {
    if (dg_) dg_->MarkPortOptional(this);
  }

  /// Blocking push.
  void Push(const T& v) {
    CRAFT_ASSERT(ch_ != nullptr, "Out<T>::Push on unbound port");
    ch_->Push(v);
  }

  /// Non-blocking push: true if the channel accepted `v` this cycle.
  bool PushNB(const T& v) {
    CRAFT_ASSERT(ch_ != nullptr, "Out<T>::PushNB on unbound port");
    return ch_->PushNB(v);
  }

  Channel<T>* channel() const { return ch_; }

 private:
  void RegisterSelf() {
    if (Simulator* s = Simulator::CurrentOrNull()) {
      dg_ = s->design_graph_ptr();
      dg_->RegisterPort(this, /*is_input=*/false,
                        "Out<" + DemangleTypeName(typeid(T).name()) + ">");
    }
  }
  void SyncBinding() {
    if (dg_) dg_->BindPort(this, ch_ != nullptr ? ch_->full_name() : std::string());
  }

  Channel<T>* ch_ = nullptr;
  std::shared_ptr<DesignGraph> dg_;
};

}  // namespace craft::connections
