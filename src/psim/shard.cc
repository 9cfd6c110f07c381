#include "psim/shard.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "core/splitmix.h"
#include "net/beacon.h"
#include "net/packet.h"

namespace diknn {

namespace {

// How often the sweep runs an ownership audit probe: one owned node is
// spot-checked every 1-in-8 sweeps on average (shard RNG; never affects
// traffic).
constexpr uint32_t kAuditProbeMask = 7;

}  // namespace

PsimStats& PsimStats::operator+=(const PsimStats& o) {
  frames_sent += o.frames_sent;
  csma_attempts += o.csma_attempts;
  csma_busy += o.csma_busy;
  csma_failures += o.csma_failures;
  receptions_attempted += o.receptions_attempted;
  receptions_delivered += o.receptions_delivered;
  receptions_collided += o.receptions_collided;
  receptions_lost += o.receptions_lost;
  candidates_scanned += o.candidates_scanned;
  neighbor_updates += o.neighbor_updates;
  boundary_frames += o.boundary_frames;
  foreign_frames += o.foreign_frames;
  migrations_out += o.migrations_out;
  migrations_in += o.migrations_in;
  sweeps += o.sweeps;
  windows += o.windows;
  audit_probes += o.audit_probes;
  audit_mismatches += o.audit_mismatches;
  qp += o.qp;
  steady_allocs += o.steady_allocs;
  steady_alloc_bytes += o.steady_alloc_bytes;
  busy_s += o.busy_s;
  barrier_wait_s += o.barrier_wait_s;
  frames_mailbox_hwm = std::max(frames_mailbox_hwm, o.frames_mailbox_hwm);
  queries_mailbox_hwm =
      std::max(queries_mailbox_hwm, o.queries_mailbox_hwm);
  migrations_mailbox_hwm =
      std::max(migrations_mailbox_hwm, o.migrations_mailbox_hwm);
  return *this;
}

uint64_t PsimShard::ShardSeed(uint64_t run_seed, int shard_id) {
  return SplitMix64(run_seed ^
                    SplitMix64(0x51A2Dull + static_cast<uint64_t>(shard_id)));
}

uint64_t PsimShard::NodeSeed(uint64_t run_seed, uint32_t node,
                             uint32_t lane) {
  return SplitMix64(run_seed ^ SplitMix64((uint64_t{node} << 8) | lane));
}

PsimShard::PsimShard(PsimWorld* world, int id)
    : world_(world),
      id_(id),
      shard_rng_(ShardSeed(world->config.seed, id)) {
  // Pre-size every container the window loop grows, so the steady-state
  // halves of even short runs perform zero allocations (the net.allocs
  // gate). Frames per window are bounded by the tile population plus
  // mailed boundary traffic; scratch vectors by one cell neighborhood.
  const size_t frame_bound = std::max<size_t>(
      1024, 2 * static_cast<size_t>(world_->config.node_count) /
                static_cast<size_t>(world_->partition.shards()));
  for (WindowSlot& slot : slots_) {
    slot.cell_head.assign(
        static_cast<size_t>(world_->partition.cell_count()), -1);
    slot.frames.reserve(frame_bound);
    slot.next.reserve(frame_bound);
  }
  owned_.reserve(static_cast<size_t>(world_->config.node_count));
  migrated_out_.reserve(static_cast<size_t>(world_->config.node_count));
  delivery_order_.reserve(frame_bound);
  interferers_.reserve(4096);
  receivers_.reserve(4096);
  if (world_->config.query.enabled) {
    // Query slots grow to their per-window high water early in the run
    // (arrival rates are steady), so a modest reserve suffices for the
    // steady-state allocation gate.
    for (std::vector<PsimQueryFrame>& slot : qslots_) slot.reserve(64);
    qorder_.reserve(256);
    // Pre-warm the itinerary scratch at the workload's largest radius so
    // per-hop Rebuild calls never grow its segment buffers.
    ItineraryParams params;
    params.radius = std::max<double>(world_->query.max_radius, 1.0);
    params.num_sectors =
        std::max(1, world_->query.config.diknn.num_sectors);
    params.width = std::max(world_->query.itinerary_width, 1e-3);
    itinerary_scratch_.Rebuild(params);
  }
}

PsimShard::NeighborInbox* PsimShard::CreateInbox(int from) {
  inboxes_.push_back(std::make_unique<NeighborInbox>(
      from, world_->FrameMailboxCapacity(),
      world_->MigrationMailboxCapacity(),
      world_->QueryMailboxCapacity()));
  return inboxes_.back().get();
}

PsimShard::NeighborInbox* PsimShard::InboxFrom(int from) {
  for (const auto& box : inboxes_) {
    if (box->from == from) return box.get();
  }
  return nullptr;
}

void PsimShard::AddOutbox(int to, NeighborInbox* inbox) {
  outboxes_.emplace_back(to, inbox);
}

PsimShard::NeighborInbox* PsimShard::OutboxFor(int shard) {
  for (const auto& [to, box] : outboxes_) {
    if (to == shard) return box;
  }
  return nullptr;
}

PsimShard::NeighborInbox* PsimShard::RequireOutbox(int shard) {
  NeighborInbox* box = OutboxFor(shard);
  if (box == nullptr) std::abort();  // Partition adjacency violated.
  return box;
}

void PsimShard::AdoptNode(uint32_t i) {
  PsimNode& n = world_->nodes[i];
  assert(world_->partition.OwnerOfCell(n.cell) == id_);
  owned_.push_back(i);
  n.phase = PsimNode::Phase::kIdle;
  ScheduleNode(i, n.next_beacon);
}

void PsimShard::ScheduleNode(uint32_t i, SimTime t) {
  PsimNode& n = world_->nodes[i];
  n.event_time = t;
  n.event = sim_.ScheduleAt(t, [this, i] { OnNodeEvent(i); });
}

void PsimShard::OnNodeEvent(uint32_t i) {
  PsimNode& n = world_->nodes[i];
  n.event = 0;
  const SimTime now = sim_.Now();
  switch (n.phase) {
    case PsimNode::Phase::kIdle:
      StartCsma(i, now);
      break;
    case PsimNode::Phase::kBackoff:
      CsmaAttempt(i, now);
      break;
  }
}

void PsimShard::StartCsma(uint32_t i, SimTime now) {
  PsimNode& n = world_->nodes[i];
  n.backoffs = 0;
  n.be = static_cast<uint8_t>(world_->config.mac.min_be);
  n.phase = PsimNode::Phase::kBackoff;
  ScheduleBackoff(i, now);
}

void PsimShard::ScheduleBackoff(uint32_t i, SimTime now) {
  PsimNode& n = world_->nodes[i];
  const int slots = n.rng.UniformInt(0, (1 << n.be) - 1);
  ScheduleNode(i, now + slots * world_->config.mac.backoff_slot_s);
}

void PsimShard::CsmaAttempt(uint32_t i, SimTime now) {
  PsimNode& n = world_->nodes[i];
  ++stats_.csma_attempts;
  const Point pos = n.mobility.PositionAt(now);
  if (!SenseBusy(pos, now)) {
    Transmit(i, now, pos);
    return;
  }
  ++stats_.csma_busy;
  ++n.backoffs;
  if (n.backoffs > world_->config.mac.max_csma_backoffs) {
    ++stats_.csma_failures;
    ScheduleNextBeacon(i);  // Skip this beacon round entirely.
    return;
  }
  n.be = static_cast<uint8_t>(
      std::min<int>(n.be + 1, world_->config.mac.max_be));
  ScheduleBackoff(i, now);
}

bool PsimShard::SenseBusy(const Point& pos, SimTime now) const {
  // Carrier sense is quantized to the previous window: only frames
  // transmitted in window k-1 can still be on the air (duration <= L),
  // and — uniformly for local and foreign traffic — frames of the
  // current window are not yet visible. The quantization is what gives
  // the conservative sync a full window of lookahead (docs/ENGINE.md).
  if (current_window_ == 0) return false;
  const WindowSlot& slot = slots_[(current_window_ - 1) & 3];
  const FieldPartition& part = world_->partition;
  const double range2 =
      world_->config.radio_range_m * world_->config.radio_range_m;
  const int32_t center = part.CellOf(pos);
  const int cx = part.ColumnOf(center);
  const int cy = static_cast<int>(center) / part.nx();
  for (int dy = -1; dy <= 1; ++dy) {
    const int y = cy + dy;
    if (y < 0 || y >= part.ny()) continue;
    for (int dx = -1; dx <= 1; ++dx) {
      const int x = cx + dx;
      if (x < 0 || x >= part.nx()) continue;
      const int32_t head =
          slot.cell_head[static_cast<size_t>(y * part.nx() + x)];
      for (int32_t f = head; f >= 0; f = slot.next[f]) {
        const PsimFrame& g = slot.frames[f];
        if (g.end > now && SquaredDistance(g.origin, pos) <= range2) {
          return true;
        }
      }
    }
  }
  return false;
}

void PsimShard::Transmit(uint32_t i, SimTime now, const Point& pos) {
  PsimNode& n = world_->nodes[i];
  PsimFrame f;
  f.origin = pos;
  f.t = now;
  f.end = now + world_->frame_air_time;
  f.sender = i;
  f.seq = n.seq++;
  f.cell = world_->partition.CellOf(pos);
  f.window = static_cast<uint32_t>(current_window_);
  ++stats_.frames_sent;
  AppendFrame(f);

  // Hand a copy to each adjacent tile the frame's 2-cell interference
  // reach touches. The origin can drift one cell outside this shard's
  // tile, but never further (the bucket drift bound), and tiles are
  // >= kMinTileSpan cells per axis, so the owner's immediate neighbors
  // always suffice.
  std::array<int, 8> recipients;
  const int nrec =
      world_->partition.FrameRecipients(f.cell, id_, &recipients);
  for (int r = 0; r < nrec; ++r) {
    RequireOutbox(recipients[r])->frames.Push(f);
    ++stats_.boundary_frames;
  }
  ScheduleNextBeacon(i);
}

void PsimShard::AppendFrame(const PsimFrame& f) {
  WindowSlot& slot = Slot(f.window);
  const int32_t index = static_cast<int32_t>(slot.frames.size());
  slot.frames.push_back(f);
  int32_t& head = slot.cell_head[static_cast<size_t>(f.cell)];
  slot.next.push_back(head);
  head = index;
}

void PsimShard::ScheduleNextBeacon(uint32_t i) {
  PsimNode& n = world_->nodes[i];
  n.next_beacon += world_->config.beacon_interval;
  n.phase = PsimNode::Phase::kIdle;
  ScheduleNode(i, n.next_beacon);
}

void PsimShard::SweepIfDue(uint64_t k) {
  const FieldPartition& part = world_->partition;
  if (k % static_cast<uint64_t>(part.refresh_windows()) != 0) return;
  ++stats_.sweeps;
  const SimTime now = k * part.lookahead();
  last_sweep_ = now;
  migrated_out_.clear();
  const bool query_enabled = world_->config.query.enabled;
  for (const uint32_t i : owned_) {
    PsimNode& n = world_->nodes[i];
    if (!world_->alive[i]) continue;
    if (!world_->kill_window.empty() && world_->kill_window[i] <= k) {
      // Node fault: silence it in place. The bucket entry stays (the
      // corpse keeps its last cell), but no event ever fires again and
      // receivers/collectors skip it via the alive flag.
      world_->alive[i] = 0;
      if (n.event != 0) {
        sim_.Cancel(n.event);
        n.event = 0;
      }
      continue;
    }
    n.neighbors.Expire(now);
    const Point pos = n.mobility.PositionAt(now);
    n.at = pos;
    const int32_t cell = part.CellOf(pos);
    if (cell == n.cell) continue;
    // Re-bucket: remove from the old cell; insert locally or mail the
    // node to the new owner (always this shard or an adjacent one — a
    // node drifts at most one cell per sweep).
    std::vector<uint32_t>& old_bucket = world_->cell_nodes[n.cell];
    old_bucket.erase(std::find(old_bucket.begin(), old_bucket.end(), i));
    n.cell = cell;
    const int owner = part.OwnerOfCell(cell);
    if (owner == id_) {
      PushBackRetained(&world_->cell_nodes[cell], i);
      continue;
    }
    NeighborInbox* box = RequireOutbox(owner);
    sim_.Cancel(n.event);
    n.event = 0;
    if (query_enabled && world_->query.roles[i] > 0) {
      // The node carries live query state (home merge state or the sink
      // front end); the mailbox's release/acquire pair hands every prior
      // write to the new owner before its first read.
      ++stats_.qp.state_migrations;
    }
    box->migrations.Push(i);
    ++stats_.migrations_out;
    migrated_out_.push_back(i);
  }
  if (!migrated_out_.empty()) {
    owned_.erase(std::remove_if(owned_.begin(), owned_.end(),
                                [this](uint32_t i) {
                                  return std::find(migrated_out_.begin(),
                                                   migrated_out_.end(),
                                                   i) != migrated_out_.end();
                                }),
                 owned_.end());
    if (query_enabled) {
      // A migrating node's pending query frames travel with it. The new
      // owner's drain of this same window files them, and no frame
      // applies *on* a sweep window (SkipSweepWindow), so every
      // forwarded frame is re-filed strictly before its apply window —
      // application timing stays a pure function of the traffic.
      for (auto& slot : qslots_) {
        size_t kept = 0;
        for (const PsimQueryFrame& f : slot) {
          if (std::find(migrated_out_.begin(), migrated_out_.end(),
                        f.dest) == migrated_out_.end()) {
            slot[kept++] = f;
            continue;
          }
          RequireOutbox(part.OwnerOfCell(world_->nodes[f.dest].cell))
              ->queries.Push(f);
          ++stats_.qp.boundary_frames;
        }
        slot.resize(kept);
      }
    }
  }
  // Ownership audit probe: a shard-RNG spot check that the partition
  // mapping and the owned list agree. Uses the per-shard stream forked
  // from (seed, shard id) — the draw count depends on the partitioning,
  // which is why traffic decisions must never touch this stream.
  if (!owned_.empty() &&
      (shard_rng_.NextUint32() & kAuditProbeMask) == 0) {
    const uint32_t pick = static_cast<uint32_t>(shard_rng_.UniformInt(
        0, static_cast<int>(owned_.size()) - 1));
    ++stats_.audit_probes;
    if (part.OwnerOfCell(world_->nodes[owned_[pick]].cell) != id_) {
      ++stats_.audit_mismatches;
    }
  }
}

void PsimShard::DrainMailboxes(uint64_t k) {
  // The slot for window k held window k-4, which was fully decided at
  // window k-2; clear it before any early window-k frame lands in it.
  Slot(k).Clear();

  const auto adopt = [this](uint32_t i) {
    PsimNode& n = world_->nodes[i];
    PushBackRetained(&world_->cell_nodes[n.cell], i);
    owned_.push_back(i);
    ++stats_.migrations_in;
    // The pending event was cancelled by the previous owner; re-arm it
    // at the same absolute time. The sweep ran at this window's start,
    // so event_time >= the window start = this shard's clock.
    ScheduleNode(i, n.event_time);
  };
  // Inboxes drain in creation order (ascending producer id), so the
  // adoption order — and every downstream scan — is deterministic.
  for (const auto& box : inboxes_) {
    stats_.migrations_mailbox_hwm = std::max(
        stats_.migrations_mailbox_hwm, box->migrations.SizeApprox());
    box->migrations.Drain(adopt);
  }

  const auto chain = [this](const PsimFrame& f) {
    AppendFrame(f);
    ++stats_.foreign_frames;
  };
  for (const auto& box : inboxes_) {
    // High-water sampling at drain start. Racy against the producer's
    // current process phase by design — bench-only observability, never
    // part of the obs snapshot or the invariant comparison.
    stats_.frames_mailbox_hwm =
        std::max(stats_.frames_mailbox_hwm, box->frames.SizeApprox());
    box->frames.Drain(chain);
  }

  if (world_->config.query.enabled) {
    const auto file = [this](const PsimQueryFrame& f) {
      ++stats_.qp.foreign_frames;
      // The destination may have migrated in this window's sweep while
      // the frame sat in the mailbox; pass it straight on. The current
      // owner drains it no later than next window, still ahead of the
      // frame's apply window (never a sweep window), so the relay costs
      // no simulated time.
      const int owner =
          world_->partition.OwnerOfCell(world_->nodes[f.dest].cell);
      if (owner != id_) {
        RequireOutbox(owner)->queries.Push(f);
        ++stats_.qp.boundary_frames;
        return;
      }
      qslots_[f.window % kQuerySlotCount].push_back(f);
    };
    for (const auto& box : inboxes_) {
      stats_.queries_mailbox_hwm =
          std::max(stats_.queries_mailbox_hwm, box->queries.SizeApprox());
      box->queries.Drain(file);
    }
  }
}

void PsimShard::DrainRemaining() {
  // Frames mailed during the final windows never get a drain pass of
  // their own; consume them (after the engine's final barrier) so every
  // boundary frame is accounted for exactly once — boundary_frames ==
  // foreign_frames summed over shards, deterministically, even though
  // *when* a frame is drained can race benignly against the producer's
  // process phase.
  const auto count = [this](const PsimFrame&) { ++stats_.foreign_frames; };
  const auto count_query = [this](const PsimQueryFrame&) {
    ++stats_.qp.foreign_frames;
  };
  for (const auto& box : inboxes_) {
    box->frames.Drain(count);
    box->queries.Drain(count_query);
  }
}

void PsimShard::ProcessWindow(uint64_t k) {
  current_window_ = k;
  ++stats_.windows;
  if (k >= 2) DeliverWindow(k - 2);
  if (world_->config.query.enabled) ProcessQueryWindow(k);
  sim_.RunBefore((k + 1) * world_->partition.lookahead());
}

void PsimShard::DeliverWindow(uint64_t window) {
  WindowSlot& slot = Slot(window);
  if (slot.frames.empty()) return;
  // Deliveries happen in (t, sender, seq) order so each receiver's
  // neighbor-table insertion order — and therefore every downstream scan
  // — is a pure function of the traffic, not of the shard count. Sort a
  // permutation: the cell chains must survive for the k-1/k+1 collision
  // prefilter of later windows.
  delivery_order_.resize(slot.frames.size());
  for (uint32_t i = 0; i < delivery_order_.size(); ++i) {
    delivery_order_[i] = i;
  }
  std::sort(delivery_order_.begin(), delivery_order_.end(),
            [&slot](uint32_t a, uint32_t b) {
              const PsimFrame& fa = slot.frames[a];
              const PsimFrame& fb = slot.frames[b];
              if (fa.t != fb.t) return fa.t < fb.t;
              if (fa.sender != fb.sender) return fa.sender < fb.sender;
              return fa.seq < fb.seq;
            });
  const SimTime now = current_window_ * world_->partition.lookahead();
  for (const uint32_t index : delivery_order_) {
    DeliverFrame(slot.frames[index], now);
  }
}

void PsimShard::DeliverFrame(const PsimFrame& f, SimTime now) {
  const FieldPartition& part = world_->partition;
  const double range = world_->config.radio_range_m;
  const double range2 = range * range;
  const int fx = part.ColumnOf(f.cell);
  const int fy = static_cast<int>(f.cell) / part.nx();

  // Candidate interferers: every known frame within two cells of the
  // origin in the three windows that can overlap f. Any transmission
  // within radio range of one of f's receivers is within 2r of f's
  // origin, hence within this 5x5 block — frames this shard doesn't
  // hold are provably out of range of every receiver it owns.
  interferers_.clear();
  for (uint64_t w = f.window == 0 ? 0 : f.window - 1;
       w <= f.window + 1; ++w) {
    const WindowSlot& ws = slots_[w & 3];
    if (ws.frames.empty()) continue;
    for (int dy = -2; dy <= 2; ++dy) {
      const int y = fy + dy;
      if (y < 0 || y >= part.ny()) continue;
      for (int dx = -2; dx <= 2; ++dx) {
        const int x = fx + dx;
        if (x < 0 || x >= part.nx()) continue;
        const int32_t head =
            ws.cell_head[static_cast<size_t>(y * part.nx() + x)];
        for (int32_t gi = head; gi >= 0; gi = ws.next[gi]) {
          const PsimFrame& g = ws.frames[gi];
          if (g.sender == f.sender && g.seq == f.seq) continue;
          if (g.t < f.end && g.end > f.t &&
              SquaredDistance(g.origin, f.origin) <= 4.0 * range2) {
            interferers_.push_back(&g);
          }
        }
      }
    }
  }

  // Receivers: nodes bucketed in the 3x3 block around the origin *in
  // this shard's cells* — neighbor shards deliver their own copy of f
  // to their own cells, so the union over shards is exactly the serial
  // receiver set, with no cell visited twice. A reception touches only
  // its receiver's table and a stateless loss draw, so candidates are
  // taken in bucket order. Every node is within D of its sweep position
  // (net/drift_band.h).
  //
  // Two passes. The first judges every candidate from its sweep position
  // and prefetches the start of the id lane its table update scans, so
  // those cache misses overlap instead of stalling one reception at a
  // time. The second delivers. The first reads only `at` and `alive`,
  // which only the sweep writes, and the prefetch is a hint, so the
  // receptions and their order are those of a single pass.
  const DriftBand band(range,
                       world_->config.max_speed * (now - last_sweep_));
  receivers_.clear();
  for (int dy = -1; dy <= 1; ++dy) {
    const int y = fy + dy;
    if (y < 0 || y >= part.ny()) continue;
    for (int dx = -1; dx <= 1; ++dx) {
      const int x = fx + dx;
      if (x < 0 || x >= part.nx()) continue;
      if (part.OwnerAt(x, y) != id_) continue;
      for (const uint32_t r : world_->cell_nodes[y * part.nx() + x]) {
        // Dead nodes keep their bucket entry but never receive.
        if (r == f.sender || !world_->alive[r]) continue;
        ++stats_.candidates_scanned;
        const PsimNode& node = world_->nodes[r];
        const Reach reach = band.Classify(node.at, f.origin);
        if (reach == Reach::kOut) continue;
        receivers_.push_back(Receiver{r, reach});
        __builtin_prefetch(node.neighbors.FirstProbe());
      }
    }
  }
  for (const Receiver& rx : receivers_) {
    DeliverTo(f, rx.node, rx.reach, band, now);
  }
}

void PsimShard::DeliverTo(const PsimFrame& f, uint32_t r, Reach reach,
                          const DriftBand& band, SimTime now) {
  PsimNode& node = world_->nodes[r];
  // The exact position decides a candidate in the drift band, and the
  // collision test of an in-range one that an interferer might reach.
  const auto exposed = [&] {
    return std::any_of(interferers_.begin(), interferers_.end(),
                       [&](const PsimFrame* g) {
                         return band.Classify(node.at, g->origin) !=
                                Reach::kOut;
                       });
  };
  bool collided = false;
  if (reach == Reach::kCheck || exposed()) {
    const double range2 =
        world_->config.radio_range_m * world_->config.radio_range_m;
    const Point pos = node.mobility.PositionAt(now);
    if (SquaredDistance(pos, f.origin) > range2) return;
    collided = std::any_of(interferers_.begin(), interferers_.end(),
                           [&](const PsimFrame* g) {
                             return SquaredDistance(g->origin, pos) <=
                                    range2;
                           });
  }
  ++stats_.receptions_attempted;
  if (collided) {
    ++stats_.receptions_collided;
    return;
  }
  if (world_->config.loss_rate > 0.0 && LossDraw(f, r)) {
    ++stats_.receptions_lost;
    return;
  }
  ++stats_.receptions_delivered;
  node.neighbors.Update(static_cast<NodeId>(f.sender), f.origin, now);
  ++stats_.neighbor_updates;
}

bool PsimShard::LossDraw(const PsimFrame& f, uint32_t receiver) const {
  // Stateless per-(frame, receiver) Bernoulli draw: hashing instead of a
  // shared RNG stream makes the outcome independent of delivery order
  // and of which shard performs it.
  const uint64_t uid = (uint64_t{f.sender} << 32) | f.seq;
  const uint64_t h = SplitMix64(world_->config.seed ^ SplitMix64(uid) ^
                                SplitMix64(0xD1CEull + receiver));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return u < world_->config.loss_rate;
}

void PsimShard::FinalizeStats() {
  stats_.steady_allocs = allocs_.allocations;
  stats_.steady_alloc_bytes = allocs_.bytes;
}

bool PsimShard::OwnershipInvariantHolds() const {
  for (const uint32_t i : owned_) {
    const PsimNode& n = world_->nodes[i];
    if (world_->partition.OwnerOfCell(n.cell) != id_) return false;
    // Dead nodes hold no event but stay bucketed at their last cell.
    if (world_->alive[i] && (n.event == 0 || !sim_.IsPending(n.event))) {
      return false;
    }
    const std::vector<uint32_t>& bucket = world_->cell_nodes[n.cell];
    if (std::count(bucket.begin(), bucket.end(), i) != 1) return false;
  }
  return true;
}

}  // namespace diknn
