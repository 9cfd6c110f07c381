#include "serving/coalescer.h"

#include <utility>

namespace diknn {

std::optional<uint64_t> QueryCoalescer::TryAttach(uint64_t key,
                                                  uint64_t ticket, int k,
                                                  SimTime now) {
  const uint64_t* leader_ticket = by_key_.find(key);
  if (leader_ticket == nullptr) return std::nullopt;
  const uint32_t* slot = by_ticket_.find(*leader_ticket);
  if (slot == nullptr) return std::nullopt;
  Leader& leader = leaders_[*slot];
  if (now - leader.launched_at > window_) return std::nullopt;
  if (k > leader.k + kslack_) return std::nullopt;
  PushBackRetained(&leader.followers, Follower{ticket, k});
  return leader.ticket;
}

void QueryCoalescer::RegisterLeader(uint64_t key, uint64_t ticket, int k,
                                    SimTime now) {
  // A replaced leader (too old or too small a k to attach to) keeps its
  // followers in by_ticket_ and still fans out on completion; it just
  // stops being the key's attach target.
  by_key_.InsertOrAssign(key, ticket);
  auto [entry, inserted] = by_ticket_.TryEmplace(ticket, 0u);
  if (inserted) {
    if (free_slots_.empty()) {
      entry->second = static_cast<uint32_t>(leaders_.size());
      PushBackRetained(&leaders_, Leader{});
    } else {
      entry->second = free_slots_.back();
      free_slots_.pop_back();
    }
  }
  Leader& leader = leaders_[entry->second];
  leader.ticket = ticket;
  leader.key = key;
  leader.k = k;
  leader.launched_at = now;
  leader.followers.clear();
}

const std::vector<QueryCoalescer::Follower>& QueryCoalescer::OnLeaderResolved(
    uint64_t ticket) {
  resolved_.clear();
  const uint32_t* found = by_ticket_.find(ticket);
  if (found == nullptr) return resolved_;
  const uint32_t slot = *found;
  Leader& leader = leaders_[slot];
  // Swap rather than copy: the slot keeps the old answer's (now empty)
  // buffer, so both lists retain their capacity.
  std::swap(resolved_, leader.followers);
  const uint64_t* current = by_key_.find(leader.key);
  if (current != nullptr && *current == ticket) by_key_.erase(leader.key);
  by_ticket_.erase(ticket);
  PushBackRetained(&free_slots_, slot);
  return resolved_;
}

}  // namespace diknn
