#include "net/channel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/drift_band.h"
#include "net/node.h"
#include "obs/tracer.h"

namespace diknn {

Channel::Channel(Simulator* sim, ChannelParams params, Rng rng)
    : sim_(sim), params_(params), rng_(rng) {}

void Channel::Attach(Node* node) {
  nodes_.push_back(node);
  // A new node can raise the fleet's speed bound and therefore the cell
  // size; rebuild the grid lazily on the next transmission.
  grid_dirty_ = true;
}

void Channel::PruneAir() { air_.Compact(sim_->Now()); }

void Channel::SweepReceptions(SimTime now) {
  for (ReceptionLane& lane : active_receptions_) lane.Compact(now);
}

void Channel::PlaceNode(Node* node, const Point& position) {
  AllocScopePause capacity;  // Cell membership lists grow to high water.
  const int32_t index = CellIndexOf(position);
  const size_t slot = static_cast<size_t>(node->id());
  if (slot >= node_cell_of_.size()) {
    node_cell_of_.resize(slot + 1, -1);
    node_entry_of_.resize(slot + 1, 0);
  }
  const int32_t old_index = node_cell_of_[slot];
  if (old_index == index) {  // Common case: same cell.
    node_cells_[index][node_entry_of_[slot]].at = position;
    return;
  }
  if (old_index >= 0) {
    // Erase in place, keeping the cell's order (the scan order), and
    // renumber the entries that moved up.
    auto& old_cell = node_cells_[old_index];
    const uint32_t gone = node_entry_of_[slot];
    old_cell.erase(old_cell.begin() + gone);
    for (uint32_t j = gone; j < old_cell.size(); ++j) {
      node_entry_of_[static_cast<size_t>(old_cell[j].node->id())] = j;
    }
  }
  auto& cell = node_cells_[index];
  node_cell_of_[slot] = index;
  node_entry_of_[slot] = static_cast<uint32_t>(cell.size());
  cell.push_back(BucketEntry{position, node});
}

void Channel::RebucketNode(Node* node, const Point& position) {
  if (!params_.use_spatial_grid || grid_dirty_) return;
  const size_t slot = static_cast<size_t>(node->id());
  // Not attached (test rigs) or not yet bucketed: ignore.
  if (slot >= node_cell_of_.size() || node_cell_of_[slot] < 0) return;
  PlaceNode(node, position);
}

void Channel::PeriodicSweep() {
  const SimTime now = sim_->Now();
  const bool rebuild = params_.use_spatial_grid && grid_dirty_;
  if (!rebuild && now < next_sweep_) return;
  next_sweep_ = now + params_.grid_refresh_interval_s;

  if (params_.use_spatial_grid) {
    if (rebuild) {
      // Cell size = radio range + the farthest any node can drift from
      // its bucketed position before the next refresh. This keeps the
      // 3x3 neighborhood a superset of the true radio disk.
      speed_bound_ = 0.0;
      for (const Node* n : nodes_) {
        speed_bound_ = std::max(speed_bound_, n->MaxSpeed());
      }
      cell_size_ = std::max(params_.radio_range_m, 1e-3) +
                   speed_bound_ * params_.grid_refresh_interval_s;
      // Fit the cell array to the fleet's current bounding box. Nodes
      // that later wander outside it are clamped to the border cells,
      // which preserves the 3x3 superset property (clamping never
      // increases distances).
      grid_min_x_ = 0.0;
      grid_min_y_ = 0.0;
      double max_x = 0.0;
      double max_y = 0.0;
      bool first = true;
      for (Node* n : nodes_) {
        const Point p = n->Position();
        if (first) {
          grid_min_x_ = max_x = p.x;
          grid_min_y_ = max_y = p.y;
          first = false;
        } else {
          grid_min_x_ = std::min(grid_min_x_, p.x);
          grid_min_y_ = std::min(grid_min_y_, p.y);
          max_x = std::max(max_x, p.x);
          max_y = std::max(max_y, p.y);
        }
      }
      grid_nx_ = static_cast<int32_t>(
                     std::floor((max_x - grid_min_x_) / cell_size_)) + 1;
      grid_ny_ = static_cast<int32_t>(
                     std::floor((max_y - grid_min_y_) / cell_size_)) + 1;
      // Collect live air frames before the geometry changes under them.
      AirLane live_air;
      for (const AirLane& lane : air_cells_) {
        for (size_t i = 0; i < lane.end_times.size(); ++i) {
          if (lane.end_times[i] > now) {
            live_air.Add(lane.origins[i], lane.end_times[i]);
          }
        }
      }
      node_cells_.assign(static_cast<size_t>(grid_nx_) * grid_ny_, {});
      air_cells_.assign(static_cast<size_t>(grid_nx_) * grid_ny_, {});
      std::fill(node_cell_of_.begin(), node_cell_of_.end(), -1);
      std::fill(node_entry_of_.begin(), node_entry_of_.end(), 0);
      for (size_t i = 0; i < live_air.end_times.size(); ++i) {
        air_cells_[CellIndexOf(live_air.origins[i])].Add(
            live_air.origins[i], live_air.end_times[i]);
      }
      grid_dirty_ = false;
    }
    // Refresh every bucket from true positions; dead nodes keep moving
    // (their radio is off, not their legs) and may be revived by churn,
    // so they stay tracked.
    for (Node* n : nodes_) PlaceNode(n, n->Position());
    last_refresh_ = now;
    for (AirLane& lane : air_cells_) lane.Compact(now);
  }
  SweepReceptions(now);
}

bool Channel::IsBusyAt(const Point& pos) const {
  const SimTime now = sim_->Now();
  const double range2 = params_.radio_range_m * params_.radio_range_m;

  if (!params_.use_spatial_grid) return air_.AnyAudible(pos, now, range2);

  if (grid_nx_ <= 0) return false;  // No transmission yet.
  const CellCoord c = CellCoordOf(pos);
  const int32_t x0 = std::max(c.cx - 1, 0);
  const int32_t x1 = std::min(c.cx + 1, grid_nx_ - 1);
  const int32_t y0 = std::max(c.cy - 1, 0);
  const int32_t y1 = std::min(c.cy + 1, grid_ny_ - 1);
  for (int32_t cy = y0; cy <= y1; ++cy) {
    for (int32_t cx = x0; cx <= x1; ++cx) {
      // Expired frames are skipped here and reclaimed by PeriodicSweep.
      if (air_cells_[cy * grid_nx_ + cx].AnyAudible(pos, now, range2)) {
        return true;
      }
    }
  }
  return false;
}

void Channel::Transmit(Node* sender, const Packet& packet) {
  AllocScope alloc_scope(&net_allocs_);
  const SimTime now = sim_->Now();
  const double duration = FrameDuration(packet.size_bytes);
  const SimTime end = now + duration;
  const Point origin = sender->Position();

  FrameFault fault;
  if (fault_hook_ && !replaying_fault_) {
    fault = fault_hook_(packet, sender->id());
  }
  if (tracer_ != nullptr && packet.trace.sampled()) {
    if (fault.drop) {
      tracer_->AddEvent(packet.trace, TraceEventKind::kFaultDrop, now,
                        sender->id());
    }
    if (fault.duplicate) {
      tracer_->AddEvent(packet.trace, TraceEventKind::kFaultDuplicate, now,
                        sender->id());
    }
  }

  ++stats_.frames_sent;
  stats_.airtime_s += duration;
  sender->energy().ChargeTx(packet.size_bytes, params_.radio_range_m,
                            packet.category);
  if (tracer_ != nullptr) {
    tracer_->RecordFrame(FrameRecord{now, origin, MessageTypeName(packet.type),
                                     sender->id(),
                                     static_cast<uint32_t>(packet.size_bytes)});
  }

  PeriodicSweep();
  {
    // Air-cell occupancy lanes compact in place and only ever grow to the
    // cell's busiest instant: capacity, not per-frame churn.
    AllocScopePause capacity;
    if (params_.use_spatial_grid) {
      air_cells_[CellIndexOf(origin)].Add(origin, end);
    } else {
      PruneAir();
      air_.Add(origin, end);
    }
  }

  if (fault.duplicate) {
    // Re-air an identical copy (same uid) right after this frame clears
    // the air. The replay bypasses the fault hook so a duplicate cannot
    // spawn further duplicates. The copy is parked in a pooled slot so
    // the event captures only {this, sender, handle}. Both copies are
    // marked re-aired before either reaches a receiver, so even a
    // broadcast's second copy meets the receiver MAC's duplicate window.
    const FrameHandle dup = frames_.Acquire();
    Packet& copy = frames_.Get(dup)->packet;
    copy = packet;
    copy.reaired = true;
    sim_->ScheduleAt(end, [this, sender, dup]() {
      ReplayDuplicate(sender, dup);
    });
  }
  if (fault.drop) return;  // On the air but heard by nobody.

  // All of a frame's receptions complete at the same instant, so they are
  // delivered by one batched event whose only captured state is the
  // frame's pool handle. Receivers are appended in ascending id order,
  // which the batch preserves — the same firing order as scheduling one
  // event per receiver. The slot's flags vector carries every receiver's
  // corruption bit for this frame; batch[i] pairs with flags[i].
  const FrameHandle handle = frames_.Acquire();
  InFlightFrame* frame = frames_.Get(handle);
  frame->packet = packet;
  if (fault.duplicate) frame->packet.reaired = true;
  {
    // Everything below appends to recycled storage — the receiver list,
    // the slot's flags/batch vectors and the per-receiver reception lanes
    // — so any allocation here is high-water capacity growth, not
    // per-frame churn.
    AllocScopePause capacity;

    // Audible receivers first. Every candidate is counted; only the
    // survivors are sorted by id, before any per-receiver work or RNG
    // draw, so grid and brute-force runs stay bit-identical. A grid
    // candidate is judged from its bucketed position first, and only
    // one in the drift band takes the exact range check.
    const double range2 = params_.radio_range_m * params_.radio_range_m;
    receivers_.clear();
    if (params_.use_spatial_grid) {
      const DriftBand band(params_.radio_range_m,
                           speed_bound_ * (now - last_refresh_));
      const CellCoord c = CellCoordOf(origin);
      const int32_t x0 = std::max(c.cx - 1, 0);
      const int32_t x1 = std::min(c.cx + 1, grid_nx_ - 1);
      const int32_t y0 = std::max(c.cy - 1, 0);
      const int32_t y1 = std::min(c.cy + 1, grid_ny_ - 1);
      for (int32_t cy = y0; cy <= y1; ++cy) {
        for (int32_t cx = x0; cx <= x1; ++cx) {
          for (const BucketEntry& candidate :
               node_cells_[cy * grid_nx_ + cx]) {
            ++stats_.candidates_scanned;
            const Reach reach = band.Classify(candidate.at, origin);
            if (reach == Reach::kOut) continue;
            Node* receiver = candidate.node;
            if (receiver == sender || !receiver->alive()) continue;
            if (reach == Reach::kCheck &&
                SquaredDistance(receiver->Position(), origin) > range2) {
              continue;
            }
            receivers_.emplace_back(receiver->id(), receiver);
          }
        }
      }
    } else {
      for (Node* receiver : nodes_) {
        ++stats_.candidates_scanned;
        if (receiver == sender || !receiver->alive()) continue;
        if (SquaredDistance(receiver->Position(), origin) > range2) continue;
        receivers_.emplace_back(receiver->id(), receiver);
      }
    }
    std::sort(receivers_.begin(), receivers_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    for (const auto& [id, receiver] : receivers_) {
      ++stats_.receptions_attempted;

      // Collision check: any reception still in progress at this
      // receiver overlaps the new frame, corrupting both.
      const uint32_t index = static_cast<uint32_t>(frame->flags.size());
      frame->flags.push_back(0);
      const size_t slot = static_cast<size_t>(id);
      if (slot >= active_receptions_.size()) {
        active_receptions_.resize(slot + 1);
      }
      ReceptionLane& lane = active_receptions_[slot];
      lane.Compact(now);
      for (const Reception& other_reception : lane.receptions) {
        frame->flags[index] = 1;
        // A reception still in progress always refers to a live slot (its
        // delivery event has not fired yet).
        InFlightFrame* other = frames_.Get(other_reception.frame);
        assert(other != nullptr);
        other->flags[other_reception.flag_index] = 1;
      }
      lane.receptions.push_back(Reception{end, handle, index});

      // Independent random loss (fading, external interference).
      const bool randomly_lost = rng_.Bernoulli(params_.loss_rate);
      frame->batch.push_back(Delivery{receiver, randomly_lost});
    }
  }
  if (frame->batch.empty()) {
    frames_.Release(handle);
    return;
  }

  sim_->ScheduleAt(end, [this, handle]() { DeliverFrame(handle); });
}

void Channel::ReplayDuplicate(Node* sender, FrameHandle handle) {
  InFlightFrame* frame = frames_.Get(handle);
  assert(frame != nullptr);
  // Copy out and release first: Transmit acquires a slot, which may grow
  // the slab under `frame`.
  const Packet packet = frame->packet;
  frames_.Release(handle);
  if (!sender->alive()) return;
  replaying_fault_ = true;
  Transmit(sender, packet);
  replaying_fault_ = false;
}

void Channel::DeliverFrame(FrameHandle handle) {
  AllocScope alloc_scope(&net_allocs_);
  InFlightFrame* frame = frames_.Get(handle);
  assert(frame != nullptr);
  // Stack copy: receivers' protocol handlers may transmit re-entrantly
  // through deep call chains someday; the pool slot must not be assumed
  // stable across them. The flags/batch arrays are re-resolved instead of
  // copied — they are only read between handler invocations.
  const Packet packet = frame->packet;
  const EnergyCategory category = packet.category;
  const size_t batch_size = frame->batch.size();
  for (size_t i = 0; i < batch_size; ++i) {
    frame = frames_.Get(handle);
    const Delivery d = frame->batch[i];
    // The radio listened for the whole frame either way.
    d.receiver->energy().ChargeRx(packet.size_bytes, category);
    if (frame->flags[i] != 0) {
      ++stats_.receptions_collided;
      if (tracer_ != nullptr && packet.trace.sampled()) {
        tracer_->AddEvent(packet.trace, TraceEventKind::kCollision,
                          sim_->Now(), d.receiver->id());
      }
      continue;
    }
    if (d.randomly_lost) {
      ++stats_.receptions_lost;
      if (tracer_ != nullptr && packet.trace.sampled()) {
        tracer_->AddEvent(packet.trace, TraceEventKind::kFrameLost,
                          sim_->Now(), d.receiver->id());
      }
      continue;
    }
    ++stats_.receptions_delivered;
    d.receiver->HandlePhyReceive(packet);
  }
  frames_.Release(handle);
}

}  // namespace diknn
