#include "obs/tracer.h"

#include <algorithm>

#include "core/alloc_probe.h"
#include "core/splitmix.h"

namespace diknn {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery: return "query";
    case SpanKind::kQueue: return "queue";
    case SpanKind::kRoute: return "route";
    case SpanKind::kSector: return "sector";
    case SpanKind::kHop: return "hop";
    case SpanKind::kCollection: return "collection";
    case SpanKind::kReplyRoute: return "reply-route";
  }
  return "?";
}

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kReply: return "reply";
    case TraceEventKind::kRendezvous: return "rendezvous";
    case TraceEventKind::kBoundaryExtended: return "boundary-extended";
    case TraceEventKind::kBoundaryTruncated: return "boundary-truncated";
    case TraceEventKind::kAssuranceExpanded: return "assurance-expanded";
    case TraceEventKind::kVoidSkip: return "void-skip";
    case TraceEventKind::kDeadNodeDrop: return "dead-node-drop";
    case TraceEventKind::kRetry: return "retry";
    case TraceEventKind::kReroute: return "reroute";
    case TraceEventKind::kPerimeterEnter: return "perimeter-enter";
    case TraceEventKind::kCollision: return "collision";
    case TraceEventKind::kFrameLost: return "frame-lost";
    case TraceEventKind::kMacRetry: return "mac-retry";
    case TraceEventKind::kCsmaFailure: return "csma-failure";
    case TraceEventKind::kFaultDrop: return "fault-drop";
    case TraceEventKind::kFaultDuplicate: return "fault-duplicate";
    case TraceEventKind::kTimeout: return "timeout";
    case TraceEventKind::kDeadlineMissed: return "deadline-missed";
    case TraceEventKind::kCacheHit: return "cache-hit";
    case TraceEventKind::kCoalesced: return "coalesced";
    case TraceEventKind::kFanOut: return "fan-out";
    case TraceEventKind::kShed: return "shed";
  }
  return "?";
}

Tracer::Tracer(double sample_rate, uint64_t seed)
    : sample_rate_(std::clamp(sample_rate, 0.0, 1.0)), seed_(seed) {
  if (sample_rate_ >= 1.0) {
    sample_threshold_ = ~0ULL;
  } else {
    sample_threshold_ = static_cast<uint64_t>(
        sample_rate_ * 18446744073709551616.0 /* 2^64 */);
  }
}

TraceContext Tracer::StartQuery(SimTime now) {
  ++stats_.queries_seen;
  const uint64_t counter = arrivals_++;
  const bool sampled =
      sample_rate_ >= 1.0 ||
      (sample_rate_ > 0.0 && SplitMix64(counter ^ seed_) < sample_threshold_);
  if (!sampled) return TraceContext{};

  // Span storage is observability overhead, not protocol work: suspend
  // attribution so traced runs publish the same subsystem counters as
  // untraced ones (obs_noop_test).
  AllocScopePause pause;
  ++stats_.queries_sampled;
  const TraceId trace = next_trace_id_++;
  Span root;
  root.trace_id = trace;
  root.id = static_cast<SpanId>(spans_.size() + 1);
  root.kind = SpanKind::kQuery;
  root.start = now;
  spans_.push_back(root);
  open_[trace].push_back(root.id);
  ++stats_.spans;
  return TraceContext{trace, root.id};
}

SpanId Tracer::BeginSpan(const TraceContext& parent, SpanKind kind,
                         SimTime now, int32_t sector, int32_t node) {
  if (!parent.sampled()) return 0;
  AllocScopePause pause;
  Span span;
  span.trace_id = parent.trace_id;
  span.id = static_cast<SpanId>(spans_.size() + 1);
  span.parent = parent.span_id;
  span.kind = kind;
  span.sector = sector;
  span.node = node;
  span.start = now;
  spans_.push_back(span);
  open_[parent.trace_id].push_back(span.id);
  ++stats_.spans;
  return span.id;
}

void Tracer::EndSpan(TraceId trace, SpanId span, SimTime now) {
  if (trace == 0 || span == 0 || span > spans_.size()) return;
  AllocScopePause pause;
  Span& s = spans_[span - 1];
  if (s.trace_id != trace || s.closed()) return;
  s.end = std::max(now, s.start);
  auto it = open_.find(trace);
  if (it != open_.end()) {
    auto& ids = it->second;
    auto pos = std::find(ids.begin(), ids.end(), span);
    if (pos != ids.end()) {
      *pos = ids.back();
      ids.pop_back();
    }
    if (ids.empty()) open_.erase(it);
  }
}

void Tracer::AddEvent(const TraceContext& ctx, TraceEventKind kind,
                      SimTime now, int32_t node, double value) {
  if (!ctx.sampled()) return;
  AllocScopePause pause;
  SpanEvent ev;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.kind = kind;
  ev.time = now;
  ev.node = node;
  ev.value = value;
  events_.push_back(ev);
  ++stats_.events;
}

void Tracer::RecordFrame(const FrameRecord& frame) {
  AllocScopePause pause;
  frames_.push_back(frame);
}

void Tracer::CloseTrace(TraceId trace, SimTime now) {
  if (trace == 0) return;
  AllocScopePause pause;
  auto it = open_.find(trace);
  if (it == open_.end()) return;
  for (const SpanId id : it->second) {
    Span& s = spans_[id - 1];
    if (!s.closed()) s.end = std::max(now, s.start);
  }
  open_.erase(it);
}

SpanId Tracer::ParentOf(TraceId trace, SpanId span) const {
  const Span* s = FindSpan(span);
  return (s != nullptr && s->trace_id == trace) ? s->parent : 0;
}

TraceData Tracer::Snapshot() const {
  TraceData data;
  data.sample_rate = sample_rate_;
  data.stats = stats_;
  data.spans = spans_;
  data.events = events_;
  data.frames = frames_;
  return data;
}

}  // namespace diknn
