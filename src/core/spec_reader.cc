#include "core/spec_reader.h"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace diknn::spec {

namespace {

bool ParseDouble(const std::string& s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& s, int* out) {
  char* end = nullptr;
  // strtoll saturates on overflow, which the range check then rejects.
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

bool ClauseReader::Read(const std::string& body) {
  for (const std::string& pair : Split(body, ',')) {
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return Fail(error_, "'" + pair + "': expected key=value");
    }
    kv_[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return true;
}

bool ClauseReader::TakeDouble(const char* key, double* slot) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  if (!ParseDouble(it->second, slot)) {
    return Fail(error_, std::string("bad number for '") + key + "'");
  }
  kv_.erase(it);
  return true;
}

bool ClauseReader::TakeInt(const char* key, int* slot) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  if (!ParseInt(it->second, slot)) {
    return Fail(error_, std::string("bad integer for '") + key + "'");
  }
  kv_.erase(it);
  return true;
}

bool ClauseReader::TakeString(const char* key, std::string* slot) {
  auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  *slot = it->second;
  kv_.erase(it);
  return true;
}

bool ClauseReader::Done(const std::string& clause) const {
  if (kv_.empty()) return true;
  return Fail(error_, "unknown key '" + kv_.begin()->first + "' in '" +
                          clause + "'");
}

}  // namespace diknn::spec
