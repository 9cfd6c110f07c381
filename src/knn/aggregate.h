// Itinerary-based in-network aggregation.
//
// The itinerary concept also descends from serial data fusion along
// space-filling curves (Patil, Das & Nasipuri, SECON 2004 — the paper's
// reference [28]): instead of hauling every reading to the sink, the
// query carries a constant-size aggregate (count / sum / min / max) along
// the sweep and folds each D-node's sample into it. Forward messages stay
// tiny no matter how many nodes contribute — the fusion advantage this
// module exists to demonstrate next to the collect-everything window
// query. The sweep is the ItinerarySweep engine of sweep.h; only the
// payload below differs from the window query.

#ifndef DIKNN_KNN_AGGREGATE_H_
#define DIKNN_KNN_AGGREGATE_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "knn/sweep.h"
#include "net/sensor_field.h"

namespace diknn {

/// Constant-size decomposable aggregate over sensor samples.
struct AggregateValue {
  uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Fold(double sample) {
    ++count;
    sum += sample;
    min = std::min(min, sample);
    max = std::max(max, sample);
  }

  void Merge(const AggregateValue& other) {
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
};

/// Final answer of an aggregate query.
struct AggregateResult {
  uint64_t query_id = 0;
  AggregateValue value;
  SimTime issued_at = 0;
  SimTime completed_at = 0;
  bool timed_out = false;

  double Latency() const { return completed_at - issued_at; }
};

/// Sweep payload of the aggregate query: D-nodes report a SensorField
/// sample, and every hop carries the same fixed-size AggregateValue.
struct AggregatePayload {
  using Value = AggregateValue;
  using Reading = double;
  using Result = AggregateResult;

  static constexpr MessageType kQuery = MessageType::kAggQuery;
  static constexpr MessageType kProbe = MessageType::kAggProbe;
  static constexpr MessageType kReply = MessageType::kAggReply;
  static constexpr MessageType kForward = MessageType::kAggForward;
  static constexpr MessageType kResult = MessageType::kAggResult;
  static constexpr size_t kBootstrapBytes = 24;
  static constexpr size_t kReplyBytes = 6;
  /// A count cannot dedup by id, so a reply is offered at most once.
  static constexpr bool kReofferFailedReplies = false;

  // Constant wire sizes: the whole point of fusion.
  static size_t CarriedBytes(const Value&) { return 24 + 20; }
  static size_t ResultBytes(const Value&) { return 26; }

  Reading Read(Node* node, SimTime now) const {
    return field->Sample(node->Position(), now);
  }
  static void Add(Value* v, Reading sample) { v->Fold(sample); }
  static void Merge(Value* v, const Value& other) { v->Merge(other); }
  static void Clear(Value* v) { *v = Value{}; }
  static void Deliver(const Value& v, const Rect&, Result* out) {
    out->value = v;
  }

  SensorField* field = nullptr;  ///< Provides the samples; must outlive
                                 ///< the sweep.
};

/// Serpentine-sweep aggregation over a rectangular region. Shares the
/// tunables of the window query (the sweep geometry is identical); only
/// the payload differs: a constant-size AggregateValue instead of a
/// growing candidate list.
class ItineraryAggregateQuery : public ItinerarySweep<AggregatePayload> {
 public:
  /// `field` provides the samples D-nodes report; must outlive this.
  ItineraryAggregateQuery(Network* network, GpsrRouting* gpsr,
                          SensorField* field, WindowQueryParams params = {})
      : ItinerarySweep(network, gpsr, AggregatePayload{field}, params) {}
};

}  // namespace diknn

#endif  // DIKNN_KNN_AGGREGATE_H_
