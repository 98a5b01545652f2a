#include "kernel/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

#include "kernel/clock.hpp"
#include "kernel/design_graph.hpp"
#include "kernel/process.hpp"

namespace craft::par {

namespace {
std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

namespace {

/// Plain union-find over dense clock indices.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

Engine::Engine(Simulator& sim, unsigned requested) : sim_(sim) {
  measure_windows_ = sim.pulse().enabled();
  Partition(requested);
  if (threaded()) StartThreads();
}

Engine::~Engine() {
  if (threaded()) {
    quit_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }
  sim_.group_shards_.clear();
}

void Engine::Partition(unsigned requested) {
  const auto& clocks = sim_.clocks();
  const DesignGraph& graph = sim_.design_graph();

  // Dense index per clock, in registration order (deterministic across
  // runs, machines and worker counts — everything downstream keys off it).
  std::unordered_map<const void*, std::size_t> clock_index;
  clock_index.reserve(clocks.size());
  for (std::size_t i = 0; i < clocks.size(); ++i) clock_index.emplace(clocks[i], i);

  Dsu dsu(clocks.size());
  const auto index_of = [&](const void* clk) -> const std::size_t* {
    auto it = clock_index.find(clk);
    return it != clock_index.end() ? &it->second : nullptr;
  };

  // Crossing paths are the designated cuts: the only module subtrees whose
  // multi-clock contents must NOT merge their clock domains.
  std::vector<const std::string*> cuts;
  for (const auto& c : sim_.crossings()) cuts.push_back(&c.path);
  const auto under_cut = [&](const std::string& path) {
    for (const std::string* cut : cuts) {
      if (PathIsUnder(path, *cut)) return true;
    }
    return false;
  };

  // 1. A module running threads on several clocks couples those domains
  //    (its threads share state without any crossing) — unless the module
  //    is a crossing itself.
  for (const auto& [name, mod] : graph.modules()) {
    if (mod.thread_clocks.size() < 2 || under_cut(name)) continue;
    const std::size_t* first = nullptr;
    for (const void* clk : mod.thread_clocks) {
      const std::size_t* idx = index_of(clk);
      if (idx == nullptr) continue;
      if (first == nullptr) {
        first = idx;
      } else {
        dsu.Union(*first, *idx);
      }
    }
  }

  // 2. A port binds its owner's processes to the channel's clock domain:
  //    the channel's commit hook (on its clock) wakes the owner's blocked
  //    threads. Walk the attributed owner up to the nearest module that
  //    actually runs threads (owner attribution is ancestor-or-self exact).
  //    Unions commute, so the unordered port map serves.
  for (const auto& [key, port] : graph.port_map()) {
    if (port.channel.empty()) continue;
    const auto ch = graph.channels().find(port.channel);
    if (ch == graph.channels().end() || ch->second.clock == nullptr) continue;
    const std::size_t* ch_idx = index_of(ch->second.clock);
    if (ch_idx == nullptr) continue;
    const std::string* owner = &port.owner;
    const DesignGraph::ModuleNode* mod = nullptr;
    while (!owner->empty()) {
      const auto it = graph.modules().find(*owner);
      if (it == graph.modules().end()) break;
      if (!it->second.thread_clocks.empty()) {
        mod = &it->second;
        break;
      }
      owner = &it->second.parent;
    }
    if (mod == nullptr || under_cut(mod->name)) continue;
    for (const void* clk : mod->thread_clocks) {
      const std::size_t* idx = index_of(clk);
      if (idx != nullptr) dsu.Union(*ch_idx, *idx);
    }
  }

  // 3. Method processes: triggers and declared affinities couple their
  //    clocks. A method with no clock at all is unplaceable — fall back to
  //    one group (correct, just not concurrent) rather than guess.
  for (const auto& p : sim_.processes()) {
    const auto* m = dynamic_cast<const MethodProcess*>(p.get());
    if (m == nullptr) continue;
    if (m->affinity_clocks().empty()) {
      single_group_forced_ = true;
      continue;
    }
    const std::size_t* first = index_of(m->affinity_clocks().front());
    for (const Clock* clk : m->affinity_clocks()) {
      const std::size_t* idx = index_of(clk);
      if (idx == nullptr) continue;
      if (first == nullptr) {
        first = idx;
      } else {
        dsu.Union(*first, *idx);
      }
    }
  }

  // Dense group ids, ordered by first appearance over clock registration
  // order — identical for every worker count by construction.
  num_groups_ = 0;
  if (single_group_forced_ || clocks.empty()) {
    num_groups_ = 1;
    for (Clock* c : clocks) c->set_par_group(0);
  } else {
    constexpr unsigned kUnseen = ~0u;
    std::vector<unsigned> root_group(clocks.size(), kUnseen);
    for (std::size_t i = 0; i < clocks.size(); ++i) {
      unsigned& g = root_group[dsu.Find(i)];
      if (g == kUnseen) g = num_groups_++;
      clocks[i]->set_par_group(g);
    }
  }

  // Conservative lookahead: the tightest synchronizer grace window over all
  // crossings bounds how far any worker may run ahead of the global minimum.
  for (const auto& c : sim_.crossings()) {
    lookahead_ = std::min(lookahead_, std::max<Time>(1, c.sync_delay));
  }

  // Stamp every process with its owning group.
  std::vector<std::uint64_t> group_load(num_groups_, 0);
  for (const auto& p : sim_.processes()) {
    unsigned g = 0;
    if (const auto* t = dynamic_cast<const ThreadProcess*>(p.get())) {
      g = t->clock().par_group();
    } else if (const auto* m = dynamic_cast<const MethodProcess*>(p.get())) {
      if (!m->affinity_clocks().empty()) g = m->affinity_clocks().front()->par_group();
    }
    p->par_group = g;
    ++group_load[g];
  }

  if (sim_.trace_events().enabled()) sim_.trace_events().SetGroupCount(num_groups_);

  const unsigned n_workers = std::max(1u, std::min(requested, num_groups_));
  workers_.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i) workers_.push_back(std::make_unique<Worker>());
  if (n_workers == 1) {
    // One worker runs inline on the main shard, where everything queued so
    // far already waits: no routing table, nothing to redistribute.
    workers_[0]->shard = &sim_.main_shard_;
    return;
  }

  // Greedy least-loaded assignment of groups to workers, heaviest group
  // first (process count is the best static load proxy available).
  std::vector<unsigned> order(num_groups_);
  for (unsigned g = 0; g < num_groups_; ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return group_load[a] != group_load[b] ? group_load[a] > group_load[b]
                                          : a < b;
  });
  std::vector<std::uint64_t> worker_load(n_workers, 0);
  sim_.group_shards_.assign(num_groups_, nullptr);
  for (unsigned g : order) {
    unsigned best = 0;
    for (unsigned w = 1; w < n_workers; ++w) {
      if (worker_load[w] < worker_load[best]) best = w;
    }
    worker_load[best] += group_load[g];
    sim_.group_shards_[g] = &workers_[best]->owned;
  }

  for (auto& w : workers_) {
    w->shard = &w->owned;
    w->shard->now = sim_.main_shard_.now;
  }
}

void Engine::Redistribute() {
  SchedShard& main = sim_.main_shard_;

  // Updates queued outside any window (elaboration-time signal writes)
  // commit here on the main thread; the process wakes they trigger route to
  // the owning shards through the now-populated group table.
  while (!main.updates.empty()) {
    std::vector<Updatable*> ups;
    ups.swap(main.updates);
    for (Updatable* u : ups) u->Update();
  }

  // Runnable processes move to their group's shard in queue order; `queued`
  // stays set (they are still queued, just elsewhere).
  if (!main.runnable.empty()) {
    std::vector<ProcessBase*> batch;
    batch.swap(main.runnable);
    for (ProcessBase* p : batch) {
      sim_.group_shards_[p->par_group]->runnable.push_back(p);
    }
  }

  // Both heaps drain in merged (t, seq) order and every entry is
  // re-sequenced on its target shard, preserving each shard's relative
  // firing order. Clock edges go to their clock's group; generic entries
  // (delayed notifications issued from the main thread) go to group 0.
  while (main.HasTimed()) {
    if (main.EdgeIsNext()) {
      EdgeEntry e = main.edges.top();
      main.edges.pop();
      SchedShard& target = *sim_.group_shards_[e.clock->par_group()];
      e.seq = target.seq++;
      target.edges.push(e);
    } else {
      SchedShard& target = *sim_.group_shards_[0];
      TimedEntry e{main.timed.top().t, target.seq++,
                   std::move(const_cast<TimedEntry&>(main.timed.top()).fn)};
      main.timed.pop();
      target.timed.push(std::move(e));
    }
  }
}

void Engine::StartThreads() {
  for (auto& w : workers_) {
    Worker* wp = w.get();
    wp->thread = std::thread([this, wp] {
      // The shard the affinity checks compare against. One inline worker
      // never installs one, so on the main thread they stay vacuous.
      tl_sched_shard = wp->shard;
      WorkerLoop(*wp);
    });
  }
}

Time Engine::NextEventTime(const SchedShard& s) {
  if (!s.runnable.empty() || !s.updates.empty()) return s.now;
  return s.HasTimed() ? s.NextTimed() : kTimeNever;
}

void Engine::RunWindow(Worker& w) {
  SchedShard& s = *w.shard;
  const std::uint64_t t0 = measure_windows_ ? NowNs() : 0;
  try {
    sim_.SettleDeltas(s);
    // HasTimed() ends the loop once both heaps drain, also when the horizon
    // is kTimeNever, which no entry's time exceeds.
    while (!s.local_stop && s.HasTimed() && s.NextTimed() <= horizon_) {
      sim_.FireTimestep(s);
      sim_.SettleDeltas(s);
    }
  } catch (...) {
    w.error = std::current_exception();
  }
  if (measure_windows_) w.busy_ns += NowNs() - t0;
}

void Engine::WorkerLoop(Worker& w) {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t e = epoch_.load(std::memory_order_acquire);
    while (e == seen) {
      epoch_.wait(e, std::memory_order_acquire);
      e = epoch_.load(std::memory_order_acquire);
    }
    seen = e;
    if (quit_.load(std::memory_order_acquire)) return;
    RunWindow(w);
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    arrived_.notify_all();
  }
}

void Engine::RunUntil(Time t) {
  if (threaded()) Redistribute();
  for (auto& w : workers_) w->shard->local_stop = false;

  while (!sim_.stopped()) {
    Time m = kTimeNever;
    for (const auto& w : workers_) m = std::min(m, NextEventTime(*w->shard));
    if (m == kTimeNever || m > t) break;
    // craft-pulse: every shard has fired everything below m, so boundaries
    // strictly before m are complete — sample them here, at a point where
    // the previous window's barrier ordered all counter writes.
    sim_.pulse().SampleBefore(m);
    // Window [m, h]. One worker has no other worker to race with, so only
    // t bounds it. Worker threads get a conservative window: nothing
    // published at >= m can be observed before m + lookahead, so every
    // event at <= h is safe to fire without cross-worker synchronization.
    // No crossings at all means the groups are fully independent (anything
    // that couples domains either merged them during partitioning or
    // faults in MakeRunnable), so the whole run is one window.
    horizon_ = (!threaded() || lookahead_ == kTimeNever || lookahead_ - 1 >= t - m)
                   ? t
                   : m + lookahead_ - 1;
    // ... clamped to the next pulse boundary B (>= m after the sample
    // above): windows never straddle a boundary, so after this window
    // exactly the events at <= B have fired, for any worker count.
    horizon_ = std::min(horizon_, sim_.pulse().next_boundary());
    const std::uint64_t w0 = measure_windows_ ? NowNs() : 0;
    if (!threaded()) {
      RunWindow(*workers_[0]);
    } else {
      epoch_.fetch_add(1, std::memory_order_release);
      epoch_.notify_all();
      std::uint64_t a = arrived_.load(std::memory_order_acquire);
      while (a != workers_.size()) {
        arrived_.wait(a, std::memory_order_acquire);
        a = arrived_.load(std::memory_order_acquire);
      }
      arrived_.store(0, std::memory_order_relaxed);
    }
    if (measure_windows_) {
      window_wall_ns_ += NowNs() - w0;
      ++windows_run_;
    }
    for (auto& w : workers_) {
      if (w->error != nullptr) {
        std::exception_ptr e = w->error;
        w->error = nullptr;
        std::rethrow_exception(e);
      }
    }
  }

  if (!sim_.stopped()) {
    for (auto& w : workers_) {
      if (w->shard->now < t) w->shard->now = t;
    }
    // Boundaries in (last event, t] complete when the run reaches t (Stop()
    // carve-out documented in DESIGN.md §12).
    sim_.pulse().SampleBefore(SaturatingAdd(t, 1));
  }
  Time max_now = sim_.main_shard_.now;
  for (const auto& w : workers_) max_now = std::max(max_now, w->shard->now);
  sim_.main_shard_.now = max_now;
  // Trace events recorded between runs (testbench code on the main thread)
  // belong to group 0, whichever group an inline worker dispatched last.
  tl_sched_group = 0;
}

std::uint64_t Engine::TotalDeltaCount() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->shard->delta_count;
  return n;
}

std::uint64_t Engine::TotalDispatchCount() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->shard->dispatch_count;
  return n;
}

std::uint64_t Engine::TotalTimedFired() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->shard->timed_fired;
  return n;
}

}  // namespace craft::par
