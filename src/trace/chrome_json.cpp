// Chrome trace-event JSON exporter (schema craft-trace-v1, DESIGN.md §8).
//
// Layout: every track's OWNER MODULE (its hierarchical name minus the last
// component) becomes one trace "process" (pid); each track becomes one
// "thread" (tid) inside it, labelled with the track's local name and kind.
// Residency slices are nestable async events (`b`/`e`) whose id is the span
// id, so Perfetto stitches a message's hops into one async lane; stall
// episodes are thread-scoped instants. Spans still resident when the
// simulation stopped get a synthesized `e` at sim.now() tagged
// "truncated": the document is always balanced.
//
// Cost: everything an event repeats from its track (escaped name, pid, tid,
// kind, clock) is rendered once per track before the event loop, and the
// event loop appends those fragments and stack-formatted numbers to one
// buffer reserved up front. Heap allocations grow with tracks, not events.
#include <charconv>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kernel/simulator.hpp"
#include "support/json.hpp"
#include "trace/trace.hpp"

namespace craft::trace {

namespace {

std::string_view OwnerOf(std::string_view track_name) {
  const std::size_t dot = track_name.rfind('.');
  return dot == std::string_view::npos ? track_name : track_name.substr(0, dot);
}

std::string_view LocalOf(std::string_view track_name) {
  const std::size_t dot = track_name.rfind('.');
  return dot == std::string_view::npos ? track_name : track_name.substr(dot + 1);
}

/// Timestamps: simulation picoseconds -> trace microseconds, `%llu.%06llu`
/// (fractional microseconds keep full ps resolution). Formatted on the
/// stack; converts to the text for Writer::Raw.
class TsUs {
 public:
  explicit TsUs(Time ps) {
    char* const end = buf_ + sizeof buf_;
    char* const point = std::to_chars(buf_, end, ps / 1'000'000).ptr;
    // 1'000'000 + the remainder prints as "1dddddd": the remainder padded to
    // six digits behind a leading 1, which the point then overwrites.
    len_ = static_cast<std::size_t>(
        std::to_chars(point, end, ps % 1'000'000 + 1'000'000).ptr - buf_);
    *point = '.';
  }
  operator std::string_view() const { return {buf_, len_}; }

 private:
  char buf_[28];  // 20 digits, the point, 7 digits
  std::size_t len_;
};

/// A span id as the quoted hex string async events key on, `"0x%llx"`.
class SpanId {
 public:
  explicit SpanId(std::uint64_t span) {
    char* const end = buf_ + sizeof buf_;
    char* p = std::to_chars(buf_ + 3, end - 1, span, 16).ptr;
    *p++ = '"';
    len_ = static_cast<std::size_t>(p - buf_);
  }
  operator std::string_view() const { return {buf_, len_}; }

 private:
  char buf_[20] = {'"', '0', 'x'};  // quote, 0x, 16 hex digits, quote
  std::size_t len_;
};

/// One track's pre-rendered text. `head` is `,"name":"…","pid":P,"tid":T,"ts":`
/// and its tail from `pid_at` serves the stall instants, whose name is
/// fixed. `args` opens a begin event's arguments:
/// `,"args":{"kind":"…"[,"clock":"…"]`.
struct TrackText {
  int pid = 0;
  int tid = 0;
  std::string head;
  std::size_t pid_at = 0;
  std::string args;
};

TrackText RenderTrack(const TraceTrack& t, int pid, int tid) {
  TrackText x;
  x.pid = pid;
  x.tid = tid;
  json::Writer head;
  head.Raw(",\"name\":").String(t.name());
  x.pid_at = head.str().size();
  head.Raw(",\"pid\":").I64(pid).Raw(",\"tid\":").I64(tid).Raw(",\"ts\":");
  x.head = head.Take();
  json::Writer args;
  args.Raw(",\"args\":{\"kind\":").String(t.kind());
  if (!t.clock().empty()) args.Raw(",\"clock\":").String(t.clock());
  x.args = args.Take();
  return x;
}

/// An upper bound on the document's size, so its buffer is allocated once.
/// Pages of the reservation the document does not reach are never touched.
std::size_t DocumentBound(const TraceEventSink& sink,
                          const std::vector<TrackText>& text, Time now) {
  // Event text outside the track's fragments, with the widest span id and
  // the separator; then the widest `flit`, `parent` and `arg` of a begin.
  constexpr std::size_t kEventBytes = 80;
  constexpr std::size_t kBeginArgBytes = 80;
  const std::size_t ts_bytes = std::string_view(TsUs(now)).size();
  std::size_t bytes = 512;  // header and trailer
  for (const auto& t : sink.tracks()) {
    const TrackText& x = text[t->id()];
    // Process and thread metadata, then the truncated closes.
    bytes += 2 * (kEventBytes + x.head.size()) + x.args.size();
    bytes += t->resident_spans().size() * (kEventBytes + x.head.size() + ts_bytes);
  }
  // A sum needs no order: walk the groups' vectors as they are.
  for (std::size_t g = 0; g < sink.group_count(); ++g) {
    for (const TraceEvent& e : sink.group_events(g)) {
      const TrackText& x = text[e.track];
      bytes += kEventBytes + x.head.size() + ts_bytes;
      if (e.kind == TraceEventKind::kBegin) bytes += x.args.size() + kBeginArgBytes;
    }
  }
  return bytes;
}

}  // namespace

std::string FormatChromeJson(const Simulator& sim) {
  const TraceEventSink& sink = sim.trace_events();

  // pid per owner module, tid per track — assigned in track-registration
  // order (elaboration order), so the document is deterministic. Track
  // names outlive the export, so the map keys view them.
  std::map<std::string_view, int> pid_of;  // owner -> pid
  std::vector<int> tids_in_pid;            // pid - 1 -> tracks so far
  std::vector<TrackText> text;             // indexed by track id
  text.reserve(sink.tracks().size());
  for (const auto& t : sink.tracks()) {
    const auto [it, fresh] =
        pid_of.emplace(OwnerOf(t->name()), static_cast<int>(pid_of.size()) + 1);
    if (fresh) tids_in_pid.push_back(0);
    text.push_back(RenderTrack(*t, it->second, ++tids_in_pid[it->second - 1]));
  }

  json::Writer w;
  w.Reserve(DocumentBound(sink, text, sim.now()));
  w.Raw("{\n\"traceEvents\": [\n");
  bool first = true;
  auto sep = [&]() -> json::Writer& { return w.Sep(&first, "", ",\n"); };

  // Metadata: process names (modules) and thread names (tracks).
  for (const auto& [owner, pid] : pid_of) {
    sep().Raw(R"({"ph":"M","name":"process_name","pid":)").I64(pid)
        .Raw(R"(,"tid":0,"args":{"name":)").String(owner).Raw("}}");
  }
  std::string label;
  for (const auto& t : sink.tracks()) {
    const TrackText& x = text[t->id()];
    label.assign(LocalOf(t->name())).append(" [").append(t->kind()).append("]");
    sep().Raw(R"({"ph":"M","name":"thread_name","pid":)").I64(x.pid)
        .Raw(",\"tid\":").I64(x.tid).Raw(R"(,"args":{"name":)").String(label)
        .Raw("}}");
  }

  sink.ForEachEvent([&](const TraceEvent& e) {
    const TrackText& x = text[e.track];
    switch (e.kind) {
      case TraceEventKind::kBegin: {
        sep().Raw(R"({"ph":"b","cat":"span","id":)").Raw(SpanId(e.span))
            .Raw(x.head).Raw(TsUs(e.ts)).Raw(x.args);
        if (const TraceSpanInfo* si = sink.SpanInfoOf(e.span)) {
          if (si->flit_index != kNoFlitIndex) w.Raw(",\"flit\":").U64(si->flit_index);
          if (si->parent != 0) w.Raw(",\"parent\":").Raw(SpanId(si->parent));
        }
        if (e.arg != 0) w.Raw(",\"arg\":").U64(e.arg);
        w.Raw("}}");
        break;
      }
      case TraceEventKind::kEnd:
        sep().Raw(R"({"ph":"e","cat":"span","id":)").Raw(SpanId(e.span))
            .Raw(x.head).Raw(TsUs(e.ts)).Raw("}");
        break;
      case TraceEventKind::kInstant:
        sep().Raw(e.arg == 0 ? R"({"ph":"i","s":"t","cat":"stall","name":"full_stall")"
                             : R"({"ph":"i","s":"t","cat":"stall","name":"empty_stall")")
            .Raw(std::string_view(x.head).substr(x.pid_at)).Raw(TsUs(e.ts)).Raw("}");
        break;
    }
  });

  // Balance the document: a synthesized end for every span still resident
  // somewhere when the simulation stopped (begins dropped by the event cap
  // never got a `b`, so they are skipped — bit 63 marks them).
  const TsUs now_us(sim.now());
  std::uint64_t truncated = 0;
  for (const auto& t : sink.tracks()) {
    const TrackText& x = text[t->id()];
    for (std::uint64_t raw : t->resident_spans()) {
      if (raw & (1ull << 63)) continue;
      ++truncated;
      sep().Raw(R"({"ph":"e","cat":"span","id":)").Raw(SpanId(raw)).Raw(x.head)
          .Raw(now_us).Raw(R"(,"args":{"truncated":true}})");
    }
  }

  w.Raw("\n],\n\"displayTimeUnit\": \"ms\",\n");
  w.Raw("\"otherData\": {\"schema\": \"craft-trace-v1\", \"tracks\": ")
      .U64(sink.tracks().size()).Raw(", \"spans\": ").U64(sink.spans_allocated())
      .Raw(", \"begins\": ").U64(sink.total_begins())
      .Raw(", \"ends\": ").U64(sink.total_ends())
      .Raw(", \"truncated\": ").U64(truncated)
      .Raw(", \"dropped_events\": ").U64(sink.dropped_events()).Raw("}\n}\n");
  return w.Take();
}

}  // namespace craft::trace
