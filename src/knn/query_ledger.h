// The sink-side ledger of in-flight queries, shared by DIKNN, the
// itinerary sweeps and the four baselines. A query completes exactly
// once: on its result, a grace timer or its timeout, whichever is first.
// Completion erases the entry and cancels its timers before the engine's
// teardown and then the handler run, so neither can find the finished
// query again, and a handler may issue the next one.

#ifndef DIKNN_KNN_QUERY_LEDGER_H_
#define DIKNN_KNN_QUERY_LEDGER_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "core/flat_map.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace diknn {

/// No engine-specific per-query fields.
struct NoQueryFields {};

/// In-flight queries of one engine, keyed by query id. `Result` is what
/// a handler receives (KnnResult, WindowResult, AggregateResult);
/// `Fields` are the engine's own per-query fields.
template <typename Result, typename Fields = NoQueryFields>
class QueryLedger {
 public:
  using Handler = std::function<void(const Result&)>;

  struct Entry : Fields {
    Handler handler;
    NodeId sink = kInvalidNodeId;
    SimTime issued_at = 0;
    EventId timeout_event = 0;
    EventId grace_event = 0;
  };

  explicit QueryLedger(Simulator* sim) : sim_(sim) {}

  QueryLedger(const QueryLedger&) = delete;
  QueryLedger& operator=(const QueryLedger&) = delete;

  /// The next query id: ids start at 1 and only increase.
  uint64_t NextId() { return next_id_++; }

  /// Opens query `id`, issued now from `sink`, and arms its timeout:
  /// `on_timeout` runs after `timeout` unless the query completed first.
  /// Entry references stay valid until the next Open or Complete.
  template <typename OnTimeout>
  Entry& Open(uint64_t id, NodeId sink, Handler handler, SimTime timeout,
              OnTimeout on_timeout) {
    Entry entry;
    entry.handler = std::move(handler);
    entry.sink = sink;
    entry.issued_at = sim_->Now();
    entry.timeout_event = sim_->ScheduleAfter(timeout, std::move(on_timeout));
    return entries_.TryEmplace(id, std::move(entry)).first->second;
  }

  bool Contains(uint64_t id) const { return entries_.contains(id); }
  size_t size() const { return entries_.size(); }
  Entry* Find(uint64_t id) { return entries_.find(id); }

  /// The entry of `id` if `node` is its sink, else null: a result that
  /// lands elsewhere (the sink moved out of reach) is left to the
  /// timeout.
  Entry* AtSink(uint64_t id, NodeId node) {
    Entry* entry = entries_.find(id);
    return entry != nullptr && entry->sink == node ? entry : nullptr;
  }

  /// (Re)arms the grace timer of a pending `entry`: the previous grace
  /// is cancelled, and `on_grace` runs after `delay`.
  template <typename OnGrace>
  void ArmGrace(Entry* entry, SimTime delay, OnGrace on_grace) {
    sim_->Cancel(entry->grace_event);
    entry->grace_event = sim_->ScheduleAfter(delay, std::move(on_grace));
  }

  /// Completes query `id`; false if it already completed. The entry is
  /// erased and its timers cancelled first. `finish(entry, result)` then
  /// gets the result with its id, times and `timed_out` stamped, adds the
  /// payload and tears down the engine's state. The handler runs last.
  template <typename Finish>
  bool Complete(uint64_t id, bool timed_out, Finish&& finish) {
    Entry* found = entries_.find(id);
    if (found == nullptr) return false;
    Entry entry = std::move(*found);
    entries_.erase(id);
    sim_->Cancel(entry.timeout_event);
    sim_->Cancel(entry.grace_event);

    Result result;
    result.query_id = id;
    result.issued_at = entry.issued_at;
    result.completed_at = sim_->Now();
    result.timed_out = timed_out;
    finish(entry, result);
    if (entry.handler) entry.handler(result);
    return true;
  }

 private:
  Simulator* sim_;
  uint64_t next_id_ = 1;
  FlatMap<uint64_t, Entry> entries_;
};

}  // namespace diknn

#endif  // DIKNN_KNN_QUERY_LEDGER_H_
