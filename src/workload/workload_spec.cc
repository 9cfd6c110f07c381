#include "workload/workload_spec.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <vector>

namespace diknn {

namespace {

/// Splits `s` on `sep`, dropping empty pieces (tolerates ";;" and
/// trailing separators).
std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

/// Finite numbers only: NaN would slip past every range check below.
bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str() &&
         std::isfinite(*out);
}

bool ParseInt(const std::string& s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
  *out = static_cast<int>(v);
  return true;
}

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

/// Key/value list of one clause body ("key=val,key=val").
bool ParseKv(const std::string& body,
             std::unordered_map<std::string, std::string>* kv,
             std::string* error) {
  for (const std::string& pair : Split(body, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Fail(error, "'" + pair + "': expected key=value");
    }
    (*kv)[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return true;
}

struct KvReader {
  std::unordered_map<std::string, std::string> kv;
  std::string* error;

  bool TakeDouble(const char* key, double* slot) {
    auto it = kv.find(key);
    if (it == kv.end()) return true;
    if (!ParseDouble(it->second, slot)) {
      return Fail(error, std::string("bad number for '") + key + "'");
    }
    kv.erase(it);
    return true;
  }

  bool TakeInt(const char* key, int* slot) {
    auto it = kv.find(key);
    if (it == kv.end()) return true;
    if (!ParseInt(it->second, slot)) {
      return Fail(error, std::string("bad integer for '") + key + "'");
    }
    kv.erase(it);
    return true;
  }

  bool TakeString(const char* key, std::string* slot) {
    auto it = kv.find(key);
    if (it == kv.end()) return true;
    *slot = it->second;
    kv.erase(it);
    return true;
  }

  bool Done(const std::string& clause) {
    if (kv.empty()) return true;
    return Fail(error, "unknown key '" + kv.begin()->first + "' in '" +
                           clause + "'");
  }
};

bool ParseClause(const std::string& clause, WorkloadSpec* out,
                 std::string* error) {
  const size_t split = clause.find('@');
  if (split == std::string::npos) {
    return Fail(error, "'" + clause + "': expected section@key=value,...");
  }
  const std::string section = clause.substr(0, split);
  KvReader r{{}, error};
  if (!ParseKv(clause.substr(split + 1), &r.kv, error)) return false;

  if (section == "arrival") {
    std::string kind;
    if (!r.TakeString("kind", &kind)) return false;
    if (kind == "poisson" || kind.empty()) {
      out->arrival = ArrivalKind::kPoisson;
    } else if (kind == "fixed") {
      out->arrival = ArrivalKind::kFixedRate;
    } else if (kind == "closed") {
      out->arrival = ArrivalKind::kClosedLoop;
    } else {
      return Fail(error, "unknown arrival kind '" + kind + "'");
    }
    if (!r.TakeDouble("rate", &out->rate)) return false;
    if (!r.TakeInt("sessions", &out->sessions)) return false;
    if (!r.TakeDouble("think", &out->think_time)) return false;
    if (out->arrival != ArrivalKind::kClosedLoop && out->rate <= 0.0) {
      return Fail(error, "open-loop arrival needs rate>0");
    }
    if (out->arrival == ArrivalKind::kClosedLoop && out->sessions <= 0) {
      return Fail(error, "closed-loop arrival needs sessions>0");
    }
    if (out->think_time < 0.0) return Fail(error, "think must be >= 0");
  } else if (section == "mix") {
    out->mix.fill(0.0);
    for (int c = 0; c < kNumQueryClasses; ++c) {
      if (!r.TakeDouble(QueryClassName(static_cast<QueryClass>(c)),
                        &out->mix[c])) {
        return false;
      }
      if (out->mix[c] < 0.0) return Fail(error, "mix weights must be >= 0");
    }
    if (out->TotalWeight() <= 0.0) {
      return Fail(error, "mix needs at least one positive weight");
    }
  } else if (section == "k") {
    if (!r.TakeInt("lo", &out->k_lo)) return false;
    out->k_hi = out->k_lo;  // lo alone pins k.
    if (!r.TakeInt("hi", &out->k_hi)) return false;
    if (out->k_lo <= 0 || out->k_hi < out->k_lo) {
      return Fail(error, "k needs 0 < lo <= hi");
    }
  } else if (section == "space") {
    std::string kind;
    if (!r.TakeString("kind", &kind)) return false;
    if (kind == "uniform" || kind.empty()) {
      out->spatial = SpatialKind::kUniform;
    } else if (kind == "hotspot") {
      out->spatial = SpatialKind::kHotspot;
    } else {
      return Fail(error, "unknown space kind '" + kind + "'");
    }
    if (!r.TakeInt("n", &out->hotspots)) return false;
    if (!r.TakeDouble("sigma", &out->hotspot_sigma)) return false;
    if (!r.TakeDouble("skew", &out->hotspot_skew)) return false;
    if (out->hotspots <= 0) return Fail(error, "space needs n>0");
    if (out->hotspot_sigma <= 0.0) return Fail(error, "space needs sigma>0");
  } else if (section == "deadline") {
    if (!r.TakeDouble("s", &out->deadline)) return false;
    if (out->deadline < 0.0) return Fail(error, "deadline must be >= 0");
  } else if (section == "admit") {
    if (!r.TakeInt("inflight", &out->max_inflight)) return false;
    if (!r.TakeInt("queue", &out->queue_capacity)) return false;
    int shed = out->admit_shed ? 1 : 0;
    if (!r.TakeInt("shed", &shed)) return false;
    if (shed != 0 && shed != 1) {
      return Fail(error, "admit shed must be 0 or 1");
    }
    out->admit_shed = shed == 1;
    if (out->max_inflight < 0 || out->queue_capacity < 0) {
      return Fail(error, "admit bounds must be >= 0");
    }
  } else if (section == "cache") {
    if (!r.TakeDouble("ttl", &out->cache_ttl)) return false;
    if (!r.TakeInt("cells", &out->cache_cells)) return false;
    if (out->cache_ttl <= 0.0) {
      return Fail(error, "cache needs ttl>0 (seconds; the validity-time "
                         "cap)");
    }
    if (out->cache_cells <= 0) {
      return Fail(error, "cache needs cells>0 (grid cells per field axis)");
    }
  } else if (section == "coalesce") {
    if (!r.TakeDouble("window", &out->coalesce_window)) return false;
    if (!r.TakeInt("kslack", &out->coalesce_kslack)) return false;
    if (out->coalesce_window <= 0.0) {
      return Fail(error, "coalesce needs window>0 (seconds; max leader "
                         "age a follower may attach to)");
    }
    if (out->coalesce_kslack < 0) {
      return Fail(error, "coalesce kslack must be >= 0");
    }
  } else if (section == "window") {
    if (!r.TakeDouble("side", &out->window_side)) return false;
    if (out->window_side <= 0.0) return Fail(error, "window needs side>0");
  } else if (section == "continuous") {
    if (!r.TakeDouble("period", &out->continuous_period)) return false;
    if (!r.TakeInt("rounds", &out->continuous_rounds)) return false;
    if (out->continuous_period <= 0.0 || out->continuous_rounds <= 0) {
      return Fail(error, "continuous needs period>0 and rounds>0");
    }
  } else if (section == "trace") {
    if (!r.TakeDouble("rate", &out->trace_sample)) return false;
    if (out->trace_sample < 0.0 || out->trace_sample > 1.0) {
      return Fail(error, "trace rate must be in [0,1]");
    }
  } else if (section == "timeseries") {
    if (!r.TakeDouble("interval", &out->ts_interval)) return false;
    if (!r.TakeInt("capacity", &out->ts_capacity)) return false;
    if (out->ts_interval <= 0.0) {
      return Fail(error, "timeseries needs interval>0 (sim-seconds "
                         "between samples)");
    }
    if (out->ts_capacity < 0) {
      return Fail(error, "timeseries capacity must be >= 0 (0 = default)");
    }
  } else {
    return Fail(error, "unknown section '" + section + "'");
  }
  return r.Done(clause);
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kKnn:
      return "knn";
    case QueryClass::kKnnBoundary:
      return "knnb";
    case QueryClass::kWindow:
      return "window";
    case QueryClass::kContinuous:
      return "continuous";
    case QueryClass::kAggregate:
      return "aggregate";
  }
  return "?";
}

double WorkloadSpec::TotalWeight() const {
  double total = 0.0;
  for (double w : mix) total += w;
  return total;
}

std::optional<WorkloadSpec> WorkloadSpec::Parse(const std::string& spec,
                                                std::string* error) {
  WorkloadSpec out;
  bool admit = false;
  for (const std::string& clause : Split(spec, ';')) {
    if (!ParseClause(clause, &out, error)) return std::nullopt;
    admit = admit || clause.rfind("admit@", 0) == 0;
  }
  // The session count already bounds a closed loop's concurrency, and a
  // session that admission turned away would never come back: only a
  // resolution re-arms it.
  if (admit && out.arrival == ArrivalKind::kClosedLoop) {
    Fail(error, "closed-loop arrival takes no admit@ clause (sessions=N "
                "already bounds concurrency)");
    return std::nullopt;
  }
  return out;
}

std::string WorkloadSpec::ToSpec() const {
  std::ostringstream os;
  os << "arrival@kind=";
  switch (arrival) {
    case ArrivalKind::kPoisson:
      os << "poisson,rate=" << rate;
      break;
    case ArrivalKind::kFixedRate:
      os << "fixed,rate=" << rate;
      break;
    case ArrivalKind::kClosedLoop:
      os << "closed,sessions=" << sessions << ",think=" << think_time;
      break;
  }
  os << ";mix@";
  bool first = true;
  for (int c = 0; c < kNumQueryClasses; ++c) {
    if (mix[c] <= 0.0) continue;
    if (!first) os << ',';
    first = false;
    os << QueryClassName(static_cast<QueryClass>(c)) << '=' << mix[c];
  }
  os << ";k@lo=" << k_lo << ",hi=" << k_hi;
  os << ";space@kind=";
  if (spatial == SpatialKind::kUniform) {
    os << "uniform";
  } else {
    os << "hotspot,n=" << hotspots << ",sigma=" << hotspot_sigma
       << ",skew=" << hotspot_skew;
  }
  if (deadline > 0.0) os << ";deadline@s=" << deadline;
  if (max_inflight > 0 || admit_shed) {
    os << ";admit@inflight=" << max_inflight
       << ",queue=" << queue_capacity;
    if (admit_shed) os << ",shed=1";
  }
  if (cache_ttl > 0.0) {
    os << ";cache@ttl=" << cache_ttl << ",cells=" << cache_cells;
  }
  if (coalesce_window > 0.0) {
    os << ";coalesce@window=" << coalesce_window
       << ",kslack=" << coalesce_kslack;
  }
  if (mix[static_cast<int>(QueryClass::kWindow)] > 0.0 ||
      mix[static_cast<int>(QueryClass::kAggregate)] > 0.0 ||
      mix[static_cast<int>(QueryClass::kKnnBoundary)] > 0.0) {
    os << ";window@side=" << window_side;
  }
  if (mix[static_cast<int>(QueryClass::kContinuous)] > 0.0) {
    os << ";continuous@period=" << continuous_period
       << ",rounds=" << continuous_rounds;
  }
  if (trace_sample > 0.0) os << ";trace@rate=" << trace_sample;
  if (ts_interval > 0.0) {
    os << ";timeseries@interval=" << ts_interval;
    if (ts_capacity > 0) os << ",capacity=" << ts_capacity;
  }
  return os.str();
}

}  // namespace diknn
