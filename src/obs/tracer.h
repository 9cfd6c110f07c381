// Causal, per-query tracing for the simulated stack.
//
// The Tracer records typed spans (query lifecycle phases: route-to-home,
// per-sector itineraries, per-hop Q-node visits, collection windows,
// reply routing) and point events (retries, reroutes, collisions on a
// traced query's frames, fault injections) into flat append-only vectors.
// Spans carry parent ids so each query's execution forms a tree rooted at
// its kQuery span; the TraceSink renders those trees as Chrome trace
// JSON, critical-path summaries, and CSV.
//
// A Tracer attached to the Channel also keeps the frame log: one
// FrameRecord per transmitted frame, sampled or not — the analogue of
// the paper's modified ns-2 trace format ("the trace format of ns-2 is
// modified so that the query execution can be visualized", Section 5.2).
// TraceSink::WriteFrameCsv exports it.
//
// Determinism contract: the tracer must never perturb the simulation.
// It draws no RNG shared with the sim (sampling hashes its own arrival
// counter), schedules no events, and every recording call on an
// unsampled TraceContext is a cheap early-return — so a run traced at any
// rate is bit-identical to the same run with tracing off.

#ifndef DIKNN_OBS_TRACER_H_
#define DIKNN_OBS_TRACER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/geometry.h"
#include "obs/trace_context.h"
#include "sim/event_queue.h"

namespace diknn {

/// Span taxonomy — one entry per query-lifecycle phase. See
/// docs/OBSERVABILITY.md for the nesting rules.
enum class SpanKind : uint8_t {
  kQuery = 0,      ///< Root: query issue -> completion.
  kQueue,          ///< Workload admission queue wait.
  kRoute,          ///< GPSR bootstrap routing, sink -> home node.
  kSector,         ///< One itinerary sector, spawn -> result at sink.
  kHop,            ///< One Q-node visit within a sector.
  kCollection,     ///< Probe broadcast -> collection window close.
  kReplyRoute,     ///< Sector result geo-routing back to the sink.
};

/// Point events attached to a span.
enum class TraceEventKind : uint8_t {
  kReply = 0,          ///< Candidate data reply received in a collection.
  kRendezvous,         ///< Dynamic boundary adjustment message sent.
  kBoundaryExtended,   ///< Itinerary extended outward (KNNB under-estimate).
  kBoundaryTruncated,  ///< Itinerary truncated (boundary adjustment).
  kAssuranceExpanded,  ///< Mobility-assurance window expansion.
  kVoidSkip,           ///< No Q-node candidate; itinerary skipped forward.
  kDeadNodeDrop,       ///< Forward target found dead; rerouted.
  kRetry,              ///< Protocol-level forward retry after MAC failure.
  kReroute,            ///< GPSR link failure; next-best neighbor chosen.
  kPerimeterEnter,     ///< GPSR greedy -> perimeter mode switch.
  kCollision,          ///< A frame of this query collided at a receiver.
  kFrameLost,          ///< A frame of this query was randomly lost.
  kMacRetry,           ///< MAC retransmission of a frame of this query.
  kCsmaFailure,        ///< MAC channel-access failure (backoffs exhausted).
  kFaultDrop,          ///< Fault injection dropped a frame of this query.
  kFaultDuplicate,     ///< Fault injection duplicated a frame.
  kTimeout,            ///< Query gave up at its protocol timeout.
  kDeadlineMissed,     ///< Completed after its workload deadline.
  kCacheHit,           ///< Answered from the serving result cache.
  kCoalesced,          ///< Attached as follower to an in-flight leader.
  kFanOut,             ///< Follower answer delivered from its leader.
  kShed,               ///< Dropped by deadline-aware admission.
};

const char* SpanKindName(SpanKind kind);
const char* TraceEventKindName(TraceEventKind kind);

/// One recorded span. `end < start` means the span was still open when
/// recorded (it is closed by EndSpan or CloseTrace).
struct Span {
  TraceId trace_id = 0;
  SpanId id = 0;       ///< 1-based position in the tracer's span vector.
  SpanId parent = 0;   ///< 0 for the root span.
  SpanKind kind = SpanKind::kQuery;
  int32_t sector = -1; ///< Sector index, or -1 for sink-side spans.
  int32_t node = -1;   ///< Node the span executes on, or -1.
  SimTime start = 0.0;
  SimTime end = -1.0;

  bool closed() const { return end >= start; }
};

/// One recorded point event.
struct SpanEvent {
  TraceId trace_id = 0;
  SpanId span_id = 0;  ///< Span the event is attached to (may be 0).
  TraceEventKind kind = TraceEventKind::kReply;
  SimTime time = 0.0;
  int32_t node = -1;
  double value = 0.0;  ///< Kind-specific payload (retry count, rings, ...).
};

/// One transmitted frame, recorded when it goes on the air (fault-dropped
/// frames included: the sender did transmit).
struct FrameRecord {
  SimTime time = 0.0;
  Point position;            ///< Sender position at transmit time.
  const char* type = "";     ///< MessageTypeName (a static string).
  int32_t sender = -1;
  uint32_t bytes = 0;        ///< Over-the-air size, MAC header included.
};

struct TracerStats {
  uint64_t queries_seen = 0;     ///< StartQuery calls (sampling decisions).
  uint64_t queries_sampled = 0;  ///< Traces actually recorded.
  uint64_t spans = 0;
  uint64_t events = 0;
};

/// Copyable snapshot of everything a tracer recorded; consumed by the
/// TraceSink and by tests.
struct TraceData {
  double sample_rate = 0.0;
  TracerStats stats;
  std::vector<Span> spans;
  std::vector<SpanEvent> events;
  std::vector<FrameRecord> frames;
};

class Tracer {
 public:
  /// `sample_rate` in [0,1] is the fraction of queries traced; the
  /// decision hashes (arrival counter, seed), so it is deterministic and
  /// independent of every simulation RNG stream.
  explicit Tracer(double sample_rate = 1.0, uint64_t seed = 0);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Sampling decision for a newly issued query. Returns a sampled root
  /// context (trace_id != 0, span_id = root span) or an unsampled one.
  TraceContext StartQuery(SimTime now);

  /// Opens a child span of `parent`. Returns 0 (and records nothing)
  /// when the parent context is unsampled.
  SpanId BeginSpan(const TraceContext& parent, SpanKind kind, SimTime now,
                   int32_t sector = -1, int32_t node = -1);

  /// Closes an open span; ignores span id 0, unknown ids, and spans
  /// already closed (so straggler paths can call it safely).
  void EndSpan(TraceId trace, SpanId span, SimTime now);
  void EndSpan(const TraceContext& ctx, SimTime now) {
    EndSpan(ctx.trace_id, ctx.span_id, now);
  }

  /// Records a point event attached to `ctx`'s span. No-op when
  /// unsampled.
  void AddEvent(const TraceContext& ctx, TraceEventKind kind, SimTime now,
                int32_t node = -1, double value = 0.0);

  /// Appends one frame to the frame log (called by the Channel for every
  /// transmission while this tracer is attached).
  void RecordFrame(const FrameRecord& frame);

  /// Closes every span of `trace` still open (root included) at `now`.
  /// Idempotent; used at query completion / teardown so timed-out
  /// queries still yield well-formed trees.
  void CloseTrace(TraceId trace, SimTime now);

  /// Parent span id of `span` within `trace`, or 0.
  SpanId ParentOf(TraceId trace, SpanId span) const;

  /// Ambient context: lets an instrumented caller (the workload driver)
  /// hand its root context to a callee (Diknn::IssueQuery) across an
  /// uninstrumented interface. Scope-bound; a null tracer is fine.
  class AmbientScope {
   public:
    AmbientScope(Tracer* tracer, const TraceContext& ctx) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->SetAmbient(ctx);
    }
    ~AmbientScope() {
      if (tracer_ != nullptr) tracer_->ClearAmbient();
    }
    AmbientScope(const AmbientScope&) = delete;
    AmbientScope& operator=(const AmbientScope&) = delete;

   private:
    Tracer* tracer_;
  };

  bool has_ambient() const { return has_ambient_; }
  const TraceContext& ambient() const { return ambient_; }

  const TracerStats& stats() const { return stats_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SpanEvent>& events() const { return events_; }
  const std::vector<FrameRecord>& frames() const { return frames_; }

  /// Span lookup by id (1-based); nullptr for 0 / out of range.
  const Span* FindSpan(SpanId id) const {
    if (id == 0 || id > spans_.size()) return nullptr;
    return &spans_[id - 1];
  }

  TraceData Snapshot() const;

 private:
  friend class AmbientScope;
  void SetAmbient(const TraceContext& ctx) {
    ambient_ = ctx;
    has_ambient_ = true;
  }
  void ClearAmbient() {
    ambient_ = TraceContext{};
    has_ambient_ = false;
  }

  double sample_rate_;
  uint64_t seed_;
  uint64_t sample_threshold_;  ///< sample_rate scaled to the u64 range.
  uint64_t arrivals_ = 0;      ///< Sampling-decision counter.
  TraceId next_trace_id_ = 1;

  bool has_ambient_ = false;
  TraceContext ambient_;

  std::vector<Span> spans_;
  std::vector<SpanEvent> events_;
  std::vector<FrameRecord> frames_;
  // Open spans per live trace, so CloseTrace never scans the full span
  // vector (erased when the trace closes; bounded by in-flight queries).
  std::unordered_map<TraceId, std::vector<SpanId>> open_;
  TracerStats stats_;
};

}  // namespace diknn

#endif  // DIKNN_OBS_TRACER_H_
