#include "faults/fault_plan.h"

#include <sstream>

#include "core/spec_reader.h"

namespace diknn {

namespace {

using spec::Fail;
using spec::Split;

std::optional<FaultEvent::Kind> KindFromName(const std::string& name) {
  using Kind = FaultEvent::Kind;
  if (name == "kill") return Kind::kKill;
  if (name == "revive") return Kind::kRevive;
  if (name == "churn") return Kind::kChurn;
  if (name == "ackloss") return Kind::kAckLoss;
  if (name == "drop") return Kind::kFrameLoss;
  if (name == "dup") return Kind::kDuplicate;
  if (name == "freeze") return Kind::kFreeze;
  if (name == "teleport") return Kind::kTeleport;
  return std::nullopt;
}

/// Parses one "kind@t=..,k=v,.." clause into `out`.
bool ParseEvent(const std::string& clause, FaultEvent* out,
                std::string* error) {
  const size_t split = clause.find('@');
  if (split == std::string::npos) {
    return Fail(error, "'" + clause + "': expected kind@t=...");
  }
  const auto kind = KindFromName(clause.substr(0, split));
  if (!kind) {
    return Fail(error,
                "unknown fault kind '" + clause.substr(0, split) + "'");
  }
  out->kind = *kind;

  spec::ClauseReader kv(error);
  if (!kv.Read(clause.substr(split + 1))) return false;
  if (!kv.Has("t")) {
    return Fail(error, "'" + clause + "': every event needs t=SECONDS");
  }
  const bool has_xy = kv.Has("x") && kv.Has("y");
  if (!kv.TakeDouble("t", &out->at)) return false;
  if (!kv.TakeDouble("dur", &out->duration)) return false;
  if (!kv.TakeInt("node", &out->node)) return false;
  if (!kv.TakeInt("count", &out->count)) return false;
  if (!kv.TakeDouble("prob", &out->probability)) return false;
  if (!kv.TakeInt("src", &out->src)) return false;
  if (!kv.TakeInt("dst", &out->dst)) return false;
  if (!kv.TakeDouble("x", &out->position.x)) return false;
  if (!kv.TakeDouble("y", &out->position.y)) return false;
  if (!kv.TakeDouble("up", &out->mean_up)) return false;
  if (!kv.TakeDouble("down", &out->mean_down)) return false;
  if (!kv.TakeDouble("frac", &out->dead_fraction)) return false;
  if (!kv.Done(clause)) return false;

  if (out->at < 0.0) return Fail(error, "t must be >= 0");
  if (out->probability < 0.0 || out->probability > 1.0) {
    return Fail(error, "prob must be in [0, 1]");
  }

  using Kind = FaultEvent::Kind;
  switch (out->kind) {
    case Kind::kKill:
      if (out->node == kInvalidNodeId && out->count <= 0) {
        return Fail(error, "kill needs node=ID or count>0");
      }
      break;
    case Kind::kRevive:
    case Kind::kFreeze:
      if (out->node == kInvalidNodeId) {
        return Fail(error, std::string(FaultKindName(out->kind)) +
                               " needs node=ID");
      }
      break;
    case Kind::kTeleport:
      if (out->node == kInvalidNodeId || !has_xy) {
        return Fail(error, "teleport needs node=ID,x=X,y=Y");
      }
      break;
    case Kind::kAckLoss:
    case Kind::kFrameLoss:
    case Kind::kDuplicate:
      if (out->duration <= 0.0) {
        return Fail(error, std::string(FaultKindName(out->kind)) +
                               " needs dur>0");
      }
      break;
    case Kind::kChurn:
      if (out->mean_up <= 0.0) return Fail(error, "churn needs up>0");
      break;
  }
  return true;
}

}  // namespace

const char* FaultKindName(FaultEvent::Kind kind) {
  using Kind = FaultEvent::Kind;
  switch (kind) {
    case Kind::kKill:
      return "kill";
    case Kind::kRevive:
      return "revive";
    case Kind::kChurn:
      return "churn";
    case Kind::kAckLoss:
      return "ackloss";
    case Kind::kFrameLoss:
      return "drop";
    case Kind::kDuplicate:
      return "dup";
    case Kind::kFreeze:
      return "freeze";
    case Kind::kTeleport:
      return "teleport";
  }
  return "?";
}

std::optional<FaultPlan> FaultPlan::Parse(const std::string& spec,
                                          std::string* error) {
  FaultPlan plan;
  for (const std::string& clause : Split(spec, ';')) {
    FaultEvent event;
    if (!ParseEvent(clause, &event, error)) return std::nullopt;
    plan.events.push_back(event);
  }
  return plan;
}

std::string FaultPlan::ToSpec() const {
  std::ostringstream os;
  bool first = true;
  for (const FaultEvent& e : events) {
    if (!first) os << ';';
    first = false;
    os << FaultKindName(e.kind) << "@t=" << e.at;
    if (e.duration > 0.0) os << ",dur=" << e.duration;
    if (e.node != kInvalidNodeId) os << ",node=" << e.node;
    using Kind = FaultEvent::Kind;
    if (e.kind == Kind::kKill && e.node == kInvalidNodeId) {
      os << ",count=" << e.count;
    }
    if (e.probability != 1.0) os << ",prob=" << e.probability;
    if (e.src != kInvalidNodeId) os << ",src=" << e.src;
    if (e.dst != kInvalidNodeId) os << ",dst=" << e.dst;
    if (e.kind == Kind::kTeleport) {
      os << ",x=" << e.position.x << ",y=" << e.position.y;
    }
    if (e.kind == Kind::kChurn) {
      os << ",up=" << e.mean_up << ",down=" << e.mean_down;
      if (e.dead_fraction > 0.0) os << ",frac=" << e.dead_fraction;
    }
  }
  return os.str();
}

}  // namespace diknn
