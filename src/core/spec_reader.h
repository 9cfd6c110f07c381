// The reader both clause grammars share: fault plans
// ("kill@t=5,count=2;...", faults/fault_plan.h) and workload specs
// ("arrival@kind=poisson,rate=4;...", workload/workload_spec.h). A spec
// is a ';'-separated list of clauses, a clause is "name@body", and a
// body is a ','-separated list of key=value pairs. Numbers parse
// strictly: the value must be the whole number, doubles must be finite
// and integers must fit an int, so neither a NaN nor a wrapped integer
// reaches a grammar's range checks.

#ifndef DIKNN_CORE_SPEC_READER_H_
#define DIKNN_CORE_SPEC_READER_H_

#include <string>
#include <unordered_map>
#include <vector>

namespace diknn::spec {

/// Splits `s` on `sep`, dropping empty pieces (tolerates ";;" and
/// trailing separators).
std::vector<std::string> Split(const std::string& s, char sep);

/// Sets `*error` (when non-null) to `reason` and returns false.
bool Fail(std::string* error, const std::string& reason);

/// The key=value pairs of one clause body, taken key by key. A failing
/// call sets the error and returns false.
class ClauseReader {
 public:
  explicit ClauseReader(std::string* error) : error_(error) {}

  /// Reads `body`; fails on a pair without '='. A repeated key keeps its
  /// last value.
  bool Read(const std::string& body);

  bool Has(const char* key) const { return kv_.contains(key); }

  /// Moves the value of `key` into `slot` when present. TakeDouble fails
  /// unless the value is a whole finite number, TakeInt unless it is a
  /// whole integer in int range.
  bool TakeDouble(const char* key, double* slot);
  bool TakeInt(const char* key, int* slot);
  bool TakeString(const char* key, std::string* slot);

  /// Fails, naming `clause`, if a key was never taken.
  bool Done(const std::string& clause) const;

 private:
  std::unordered_map<std::string, std::string> kv_;
  std::string* error_;
};

}  // namespace diknn::spec

#endif  // DIKNN_CORE_SPEC_READER_H_
