#include "obs/trace_sink.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>

namespace diknn {

namespace {

// Fixed-precision number formatting keeps the JSON deterministic.
std::string Num(double v, const char* fmt = "%.3f") {
  char buf[40];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return std::string(buf);
}

double Duration(const Span& s) { return s.closed() ? s.end - s.start : 0.0; }

// Chrome trace "thread" row of a span within its query's track group.
int TidOf(const Span& s) { return s.sector >= 0 ? s.sector + 1 : 0; }

// Counter tracks live far above any query pid so the synthetic
// "timeseries" processes never collide with a trace id.
constexpr int64_t kCounterPidBase = 1000000;

// psim.shardK.* series get their own process row (pid base+1+K); every
// other series shares the run-level row (pid base).
int64_t CounterPidOf(const std::string& series_name) {
  constexpr const char* kPrefix = "psim.shard";
  const size_t plen = std::char_traits<char>::length(kPrefix);
  if (series_name.compare(0, plen, kPrefix) != 0) return kCounterPidBase;
  size_t i = plen;
  int64_t shard = 0;
  bool any = false;
  while (i < series_name.size() && series_name[i] >= '0' &&
         series_name[i] <= '9') {
    shard = shard * 10 + (series_name[i] - '0');
    any = true;
    ++i;
  }
  if (!any || i >= series_name.size() || series_name[i] != '.') {
    return kCounterPidBase;
  }
  return kCounterPidBase + 1 + shard;
}

}  // namespace

const char* CriticalPath::DominantPhase() const {
  const char* name = "queue";
  double best = queue;
  const auto consider = [&](double v, const char* n) {
    if (v > best) {
      best = v;
      name = n;
    }
  };
  consider(route, "route");
  consider(collection, "collection");
  consider(forwarding, "forwarding");
  consider(reply_route, "reply-route");
  consider(sink_wait, "sink-wait");
  return name;
}

TraceSink::TraceSink(TraceData data) : data_(std::move(data)) {
  ComputeCriticalPaths();
}

void TraceSink::ComputeCriticalPaths() {
  // Group span indices by trace; span vectors are append-only so children
  // always follow parents.
  std::map<TraceId, std::vector<const Span*>> by_trace;
  for (const Span& s : data_.spans) by_trace[s.trace_id].push_back(&s);

  for (const auto& [trace_id, spans] : by_trace) {
    const Span* root = nullptr;
    for (const Span* s : spans) {
      if (s->kind == SpanKind::kQuery && s->parent == 0) {
        root = s;
        break;
      }
    }
    if (root == nullptr || !root->closed()) continue;

    CriticalPath path;
    path.trace_id = trace_id;
    path.total = Duration(*root);
    const Span* critical_sector = nullptr;
    for (const Span* s : spans) {
      switch (s->kind) {
        case SpanKind::kQueue: path.queue += Duration(*s); break;
        case SpanKind::kRoute: path.route += Duration(*s); break;
        case SpanKind::kSector:
          if (s->closed() && (critical_sector == nullptr ||
                              s->end > critical_sector->end)) {
            critical_sector = s;
          }
          break;
        default: break;
      }
    }
    if (critical_sector != nullptr) {
      path.critical_sector = critical_sector->sector;
      // The critical sector's subtree: hops (and their collections) plus
      // the reply route. Membership is by sector index, which the
      // instrumentation stamps on every span below the sector span.
      double hop_total = 0.0;
      double reply = 0.0;
      for (const Span* s : spans) {
        if (s->sector != critical_sector->sector) continue;
        switch (s->kind) {
          case SpanKind::kHop:
            hop_total += Duration(*s);
            ++path.hops;
            break;
          case SpanKind::kCollection: path.collection += Duration(*s); break;
          case SpanKind::kReplyRoute: reply += Duration(*s); break;
          default: break;
        }
      }
      const double sector_dur = Duration(*critical_sector);
      path.reply_route = reply;
      path.forwarding = std::max(0.0, sector_dur - hop_total - reply);
      path.sink_wait = std::max(
          0.0, path.total - path.queue - path.route - sector_dur);
    } else {
      path.sink_wait =
          std::max(0.0, path.total - path.queue - path.route);
    }
    paths_.push_back(path);
  }

  std::sort(paths_.begin(), paths_.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              if (a.total != b.total) return a.total > b.total;
              return a.trace_id < b.trace_id;
            });
}

std::vector<CriticalPath> TraceSink::TailCriticalPaths(
    double fraction) const {
  if (paths_.empty()) return {};
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(fraction * paths_.size())));
  return std::vector<CriticalPath>(paths_.begin(),
                                   paths_.begin() + std::min(n, paths_.size()));
}

std::string TraceSink::FormatCriticalPath(const CriticalPath& p) {
  std::string out = "query " + std::to_string(p.trace_id) + ": total " +
                    Num(p.total) + "s, dominant " + p.DominantPhase() +
                    "; queue " + Num(p.queue) + "s route " + Num(p.route) +
                    "s collection " + Num(p.collection) + "s forwarding " +
                    Num(p.forwarding) + "s reply " + Num(p.reply_route) +
                    "s sink-wait " + Num(p.sink_wait) + "s";
  if (p.critical_sector >= 0) {
    out += " (sector " + std::to_string(p.critical_sector) + ", " +
           std::to_string(p.hops) + " hops)";
  }
  return out;
}

void TraceSink::WriteChromeTrace(std::ostream& os) const {
  os << "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  const auto sep = [&]() {
    os << (first ? "\n" : ",\n");
    first = false;
  };

  // Track naming: one "process" per query, one "thread" per sector.
  std::set<TraceId> traces;
  std::set<std::pair<TraceId, int>> tids;
  for (const Span& s : data_.spans) {
    traces.insert(s.trace_id);
    tids.insert({s.trace_id, TidOf(s)});
  }
  for (const TraceId t : traces) {
    sep();
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << t
       << ", \"tid\": 0, \"args\": {\"name\": \"query " << t << "\"}}";
  }
  for (const auto& [t, tid] : tids) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": " << t
       << ", \"tid\": " << tid << ", \"args\": {\"name\": \""
       << (tid == 0 ? std::string("sink") :
                      "sector " + std::to_string(tid - 1))
       << "\"}}";
  }

  // Complete ("X") slices; ts/dur in microseconds. Spans are emitted in
  // creation order so parents precede their children at equal timestamps.
  for (const Span& s : data_.spans) {
    if (!s.closed()) continue;
    sep();
    os << "{\"name\": \"" << SpanKindName(s.kind) << "\", \"cat\": \"span\""
       << ", \"ph\": \"X\", \"ts\": " << Num(s.start * 1e6)
       << ", \"dur\": " << Num((s.end - s.start) * 1e6)
       << ", \"pid\": " << s.trace_id << ", \"tid\": " << TidOf(s)
       << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
       << ", \"node\": " << s.node << "}}";
  }

  // Instant events on the row of the span they belong to.
  for (const SpanEvent& e : data_.events) {
    int tid = 0;
    if (e.span_id != 0 && e.span_id <= data_.spans.size()) {
      tid = TidOf(data_.spans[e.span_id - 1]);
    }
    sep();
    os << "{\"name\": \"" << TraceEventKindName(e.kind)
       << "\", \"cat\": \"event\", \"ph\": \"i\", \"s\": \"t\", \"ts\": "
       << Num(e.time * 1e6) << ", \"pid\": " << e.trace_id
       << ", \"tid\": " << tid << ", \"args\": {\"node\": " << e.node
       << ", \"value\": " << Num(e.value, "%.6g") << "}}";
  }
  // Flight-recorder counter tracks: one ph "C" track per series, plus
  // instant annotations (fault edges) on the run-level row.
  if (timeseries_ != nullptr && !timeseries_->empty()) {
    std::set<int64_t> counter_pids;
    for (const TimeSeries& ts : timeseries_->series()) {
      counter_pids.insert(CounterPidOf(ts.name()));
    }
    if (!timeseries_->annotations().empty()) {
      counter_pids.insert(kCounterPidBase);
    }
    for (const int64_t pid : counter_pids) {
      sep();
      os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << pid
         << ", \"tid\": 0, \"args\": {\"name\": \"timeseries";
      if (pid != kCounterPidBase) {
        os << " shard " << (pid - kCounterPidBase - 1);
      }
      os << "\"}}";
    }
    for (const TimeSeries& ts : timeseries_->series()) {
      const int64_t pid = CounterPidOf(ts.name());
      const std::string name = JsonEscape(ts.name());
      for (size_t i = 0; i < ts.size(); ++i) {
        sep();
        os << "{\"name\": \"" << name << "\", \"cat\": \"timeseries\""
           << ", \"ph\": \"C\", \"ts\": " << Num(ts.TimeAt(i) * 1e6)
           << ", \"pid\": " << pid << ", \"tid\": 0, \"args\": {\"value\": "
           << Num(ts.ValueAt(i), "%.6g") << "}}";
      }
    }
    for (const TimeSeriesAnnotation& a : timeseries_->annotations()) {
      sep();
      os << "{\"name\": \"" << JsonEscape(a.label)
         << "\", \"cat\": \"annotation\", \"ph\": \"i\", \"s\": \"p\""
         << ", \"ts\": " << Num(a.t * 1e6) << ", \"pid\": "
         << kCounterPidBase << ", \"tid\": 0, \"args\": {\"value\": "
         << Num(a.value, "%.6g") << "}}";
    }
  }
  os << "\n],\n\"criticalPaths\": [";
  for (size_t i = 0; i < paths_.size(); ++i) {
    const CriticalPath& p = paths_[i];
    os << (i > 0 ? ",\n" : "\n") << "{\"query\": " << p.trace_id
       << ", \"total_s\": " << Num(p.total, "%.6f") << ", \"dominant\": \""
       << p.DominantPhase() << "\", \"queue_s\": " << Num(p.queue, "%.6f")
       << ", \"route_s\": " << Num(p.route, "%.6f")
       << ", \"collection_s\": " << Num(p.collection, "%.6f")
       << ", \"forwarding_s\": " << Num(p.forwarding, "%.6f")
       << ", \"reply_route_s\": " << Num(p.reply_route, "%.6f")
       << ", \"sink_wait_s\": " << Num(p.sink_wait, "%.6f")
       << ", \"critical_sector\": " << p.critical_sector
       << ", \"hops\": " << p.hops << "}";
  }
  os << "\n]}\n";
}

void TraceSink::WriteCsv(std::ostream& os) const {
  os << "trace,span,parent,kind,sector,node,start,end\n";
  for (const Span& s : data_.spans) {
    os << s.trace_id << ',' << s.id << ',' << s.parent << ','
       << SpanKindName(s.kind) << ',' << s.sector << ',' << s.node << ','
       << Num(s.start, "%.6f") << ',' << Num(s.end, "%.6f") << '\n';
  }
}

void TraceSink::WriteFrameCsv(std::ostream& os) const {
  // Numbers use the stream's own formatting (6 significant digits by
  // default), the format existing frame-log consumers parse.
  os << "time,sender,x,y,type,bytes\n";
  for (const FrameRecord& f : data_.frames) {
    os << f.time << ',' << f.sender << ',' << f.position.x << ','
       << f.position.y << ',' << f.type << ',' << f.bytes << '\n';
  }
}

}  // namespace diknn
