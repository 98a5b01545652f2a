#include "kernel/trace_events.hpp"

#include <algorithm>

#include "kernel/process.hpp"
#include "kernel/simulator.hpp"

namespace craft {

namespace {
constexpr std::uint64_t kSpanGroupShift = 40;
constexpr std::uint64_t kSpanIndexMask = (1ull << kSpanGroupShift) - 1;
constexpr std::uint64_t kSpanDroppedBit = 1ull << 63;
}  // namespace

// ---- TraceEventSink ----

void TraceEventSink::Enable() {
  CRAFT_ASSERT(!sim_->started(),
               "sim.trace_events().Enable() must run before the first Run()");
  enabled_ = true;
  if (groups_.empty()) SetGroupCount(1);
}

TraceTrack* TraceEventSink::RegisterTrack(const std::string& name,
                                          const std::string& kind,
                                          const std::string& clock) {
  if (!enabled_) return nullptr;
  auto t = std::make_unique<TraceTrack>();
  t->sink_ = this;
  t->name_ = name;
  t->kind_ = kind;
  t->clock_ = clock;
  t->id_ = static_cast<std::uint32_t>(tracks_.size());
  tracks_.push_back(std::move(t));
  return tracks_.back().get();
}

std::uint64_t TraceEventSink::NewSpan(std::uint64_t parent,
                                      std::uint32_t flit_index) {
  const unsigned g = tl_sched_group;
  Group& grp = groups_[g];
  std::lock_guard<std::mutex> lock(*grp.spans_mu);
  grp.spans.push_back(TraceSpanInfo{parent, flit_index});
  return (static_cast<std::uint64_t>(g) << kSpanGroupShift) | grp.spans.size();
}

const TraceSpanInfo* TraceEventSink::SpanInfoOf(std::uint64_t span) const {
  span &= ~kSpanDroppedBit;
  const std::uint64_t g = span >> kSpanGroupShift;
  const std::uint64_t idx = span & kSpanIndexMask;
  if (g >= groups_.size() || idx == 0 || idx > groups_[g].spans.size()) return nullptr;
  return &groups_[g].spans[idx - 1];
}

std::uint64_t TraceEventSink::ParentOf(std::uint64_t span) const {
  const std::uint64_t g = (span & ~kSpanDroppedBit) >> kSpanGroupShift;
  if (g >= groups_.size()) return 0;
  std::lock_guard<std::mutex> lock(*groups_[g].spans_mu);
  const TraceSpanInfo* info = SpanInfoOf(span);
  return info != nullptr ? info->parent : 0;
}

std::uint64_t TraceEventSink::spans_allocated() const {
  std::uint64_t n = 0;
  for (const Group& grp : groups_) n += grp.spans.size();
  return n;
}

void TraceEventSink::SetGroupCount(unsigned n) {
  groups_.resize(n);
  SplitEventCap();
  // A first chunk per group skips the small doublings, which would
  // otherwise cost every group as many reallocations as one whole trace.
  for (Group& grp : groups_) {
    grp.events.reserve(1024);
    grp.spans.reserve(256);
  }
}

void TraceEventSink::set_max_events(std::size_t n) {
  max_events_ = n;
  SplitEventCap();
}

void TraceEventSink::SplitEventCap() {
  // An even share per group, but never none: a cap below the group count
  // still lets every group record a begin. Only a cap of 0 records none.
  const std::size_t groups = std::max<std::size_t>(1, groups_.size());
  group_cap_ = max_events_ == 0 ? 0 : std::max<std::size_t>(1, max_events_ / groups);
}

std::size_t TraceEventSink::event_count() const {
  std::size_t n = 0;
  for (const Group& grp : groups_) n += grp.events.size();
  return n;
}

void TraceEventSink::SetContext(std::uint64_t span) {
  if (ThreadProcess* t = ThreadProcess::Current()) t->trace_ctx = span;
}

std::uint64_t TraceEventSink::PeekContext() const {
  ThreadProcess* t = ThreadProcess::Current();
  return t ? t->trace_ctx : 0;
}

std::uint64_t TraceEventSink::TakeContextOrNew() {
  if (ThreadProcess* t = ThreadProcess::Current()) {
    if (t->trace_ctx != 0) {
      const std::uint64_t s = t->trace_ctx;
      t->trace_ctx = 0;
      return s;
    }
  }
  return NewSpan();
}

bool TraceEventSink::Record(TraceEventKind kind, std::uint32_t track,
                            std::uint64_t span, std::uint64_t arg) {
  // Only begins are capped: an end for a begin that made it in must also
  // make it in, or the exported b/e pairs would be unbalanced. Instants are
  // episode-start markers, bounded by the begins they interleave with.
  Group& grp = groups_[tl_sched_group];
  if (kind == TraceEventKind::kBegin && grp.events.size() >= group_cap_) {
    ++grp.dropped;
    return false;
  }
  grp.events.push_back(TraceEvent{kind, track, span, now(), arg});
  return true;
}

std::uint64_t TraceEventSink::dropped_events() const {
  std::uint64_t n = 0;
  for (const Group& grp : groups_) n += grp.dropped;
  return n;
}

ProcessBase* TraceEventSink::CurrentProcess() const {
  return ThreadProcess::Current();
}

const TraceTrack* TraceEventSink::FindTrack(const std::string& name) const {
  for (const auto& t : tracks_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

std::uint64_t TraceEventSink::total_begins() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->begins();
  return n;
}

std::uint64_t TraceEventSink::total_ends() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->ends();
  return n;
}

std::uint64_t TraceEventSink::open_slices() const {
  std::uint64_t n = 0;
  for (const auto& t : tracks_) n += t->resident_spans().size();
  return n;
}

Time TraceEventSink::now() const { return sim_ != nullptr ? sim_->now() : 0; }

// ---- TraceTrack ----

void TraceTrack::Enqueue() {
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    // A successful push ends whatever blocked-state this process was in.
    self->trace_blocked_track.store(kNoTraceTrack, std::memory_order_relaxed);
    producer_.store(self, std::memory_order_relaxed);
  }
  in_full_stall_ = false;
  const std::uint64_t span = sink_->TakeContextOrNew();
  ++begins_;
  const bool recorded = sink_->Record(TraceEventKind::kBegin, id_, span);
  std::lock_guard<std::mutex> lock(span_q_mu_);
  span_q_.push_back(recorded ? span : (span | kDroppedBit));
}

void TraceTrack::Dequeue() {
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(kNoTraceTrack, std::memory_order_relaxed);
    consumer_.store(self, std::memory_order_relaxed);
  }
  in_empty_stall_ = false;
  std::uint64_t raw = 0;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    if (span_q_.empty()) return;  // defensive: nothing resident
    raw = span_q_.front();
    span_q_.pop_front();
  }
  const std::uint64_t span = raw & ~kDroppedBit;
  ++ends_;
  if ((raw & kDroppedBit) == 0) {
    sink_->Record(TraceEventKind::kEnd, id_, span);
  }
  sink_->SetContext(span);
}

void TraceTrack::PushStall() {
  ++full_stall_samples_;
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(id_, std::memory_order_relaxed);
    self->trace_blocked_is_push.store(true, std::memory_order_relaxed);
  }
  if (!in_full_stall_) {
    in_full_stall_ = true;
    sink_->Record(TraceEventKind::kInstant, id_, 0, /*arg=*/0);
  }
  // Blame edge: what is my consumer blocked on right now? If it is blocked
  // on another track, that track is the downstream cause of this stall
  // cycle; otherwise the consumer is simply busy (or absent) — the chain
  // root cause. Across a GALS crossing the sample is a relaxed racy read
  // of the other worker's state: blame shares are diagnostics, not part of
  // the determinism guarantee (DESIGN.md §9).
  ProcessBase* cons = consumer_.load(std::memory_order_relaxed);
  if (cons != nullptr && cons != self) {
    const std::uint32_t bt = cons->trace_blocked_track.load(std::memory_order_relaxed);
    if (bt != kNoTraceTrack && bt != id_) {
      ++blame_full_[BlameKey(bt, cons->trace_blocked_is_push.load(
                                     std::memory_order_relaxed))];
      return;
    }
  }
  ++blame_busy_;
}

void TraceTrack::PopStall() {
  ++empty_stall_samples_;
  ProcessBase* self = sink_->CurrentProcess();
  if (self != nullptr) {
    self->trace_blocked_track.store(id_, std::memory_order_relaxed);
    self->trace_blocked_is_push.store(false, std::memory_order_relaxed);
    consumer_.store(self, std::memory_order_relaxed);  // a blocked popper is
                                                       // still the consumer
  }
  if (!in_empty_stall_) {
    in_empty_stall_ = true;
    sink_->Record(TraceEventKind::kInstant, id_, 0, /*arg=*/1);
  }
  ProcessBase* prod = producer_.load(std::memory_order_relaxed);
  if (prod != nullptr && prod != self) {
    const std::uint32_t bt = prod->trace_blocked_track.load(std::memory_order_relaxed);
    if (bt != kNoTraceTrack && bt != id_) {
      ++blame_empty_[BlameKey(bt, prod->trace_blocked_is_push.load(
                                      std::memory_order_relaxed))];
      return;
    }
  }
  ++starve_idle_;
}

void TraceTrack::PrimeContext() {
  std::uint64_t raw = 0;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    if (span_q_.empty()) return;
    raw = span_q_.front();
  }
  sink_->SetContext(raw & ~kDroppedBit);
}

std::uint64_t TraceTrack::BeginActivity(std::uint64_t arg) {
  const std::uint64_t span = sink_->NewSpan();
  ++begins_;
  const bool recorded = sink_->Record(TraceEventKind::kBegin, id_, span, arg);
  std::lock_guard<std::mutex> lock(span_q_mu_);
  span_q_.push_back(recorded ? span : (span | kDroppedBit));
  return span;
}

void TraceTrack::EndActivity(std::uint64_t span) {
  bool found = false;
  bool recorded = false;
  {
    std::lock_guard<std::mutex> lock(span_q_mu_);
    for (auto it = span_q_.begin(); it != span_q_.end(); ++it) {
      if ((*it & ~kDroppedBit) == span) {
        recorded = (*it & kDroppedBit) == 0;
        span_q_.erase(it);
        found = true;
        break;
      }
    }
  }
  if (!found) return;
  ++ends_;
  if (recorded) sink_->Record(TraceEventKind::kEnd, id_, span);
}

std::string TraceTrack::producer_name() const {
  ProcessBase* p = producer_.load(std::memory_order_relaxed);
  return p != nullptr ? p->name() : std::string();
}

std::string TraceTrack::consumer_name() const {
  ProcessBase* c = consumer_.load(std::memory_order_relaxed);
  return c != nullptr ? c->name() : std::string();
}

}  // namespace craft
