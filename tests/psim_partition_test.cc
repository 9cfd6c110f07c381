// Partition-plane unit tests for the parallel engine: tile ownership
// must be total and disjoint (strips or 2-D tilings alike), the
// lookahead window must follow the frame-air-time formula, the frame
// recipient / neighbor-shard geometry must match tile adjacency, the
// SPSC mailboxes must preserve FIFO order under same-timestamp storms
// and concurrent production, and mobility must hand nodes between
// partitions without breaking the ownership invariant.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "psim/engine.h"
#include "psim/mailbox.h"
#include "psim/partition.h"
#include "psim/shard.h"
#include "sim/simulator.h"

namespace diknn {
namespace {

PsimNetParams WideParams(double width, double height) {
  PsimNetParams net;
  net.field = Rect::Field(width, height);
  return net;
}

// --- Ownership: every (column, row) cell has exactly one owner, the
// --- tiles cover the grid, and partitioned axes respect the minimum
// --- tile span.

TEST(FieldPartitionTest, OwnershipTotalAndDisjoint) {
  for (int requested : {1, 2, 3, 4, 8, 16}) {
    FieldPartition part(WideParams(560.0, 115.0), requested);
    ASSERT_GE(part.shards(), 1);
    ASSERT_LE(part.shards(), requested);
    ASSERT_EQ(part.shards(), part.tiles_x() * part.tiles_y());
    std::set<std::pair<int, int>> covered;
    for (int s = 0; s < part.shards(); ++s) {
      const auto [first_col, last_col] = part.ColumnRange(s);
      const auto [first_row, last_row] = part.RowRange(s);
      ASSERT_LE(first_col, last_col);
      ASSERT_LE(first_row, last_row);
      if (part.tiles_x() > 1) {
        EXPECT_GE(last_col - first_col + 1, FieldPartition::kMinTileSpan);
      }
      if (part.tiles_y() > 1) {
        EXPECT_GE(last_row - first_row + 1, FieldPartition::kMinTileSpan);
      }
      for (int r = first_row; r <= last_row; ++r) {
        for (int c = first_col; c <= last_col; ++c) {
          EXPECT_TRUE(covered.insert({c, r}).second)
              << "cell (" << c << ", " << r << ") owned twice";
          EXPECT_EQ(part.OwnerAt(c, r), s);
          EXPECT_EQ(part.OwnerOfCell(r * part.nx() + c), s);
        }
      }
    }
    EXPECT_EQ(static_cast<int>(covered.size()), part.cell_count());
  }
}

TEST(FieldPartitionTest, ShardCountClampedToTileGeometry) {
  // The paper's 115 m field is only 6 cells on a side: strips top out at
  // 2, but a 2x2 tiling of 3-cell tiles grants 4 — and nothing more.
  FieldPartition part(WideParams(115.0, 115.0), 64);
  EXPECT_EQ(part.requested_shards(), 64);
  const int max_tiles =
      std::max(1, part.nx() / FieldPartition::kMinTileSpan) *
      std::max(1, part.ny() / FieldPartition::kMinTileSpan);
  EXPECT_LE(part.shards(), max_tiles);
  EXPECT_GT(part.shards(),
            std::max(1, part.nx() / FieldPartition::kMinTileSpan))
      << "square fields must tile the second axis, not stay strips";
  FieldPartition one(WideParams(30.0, 30.0), 8);
  EXPECT_EQ(one.shards(), 1);
}

TEST(FieldPartitionTest, StripsPreferredWhenSufficient) {
  // A wide field satisfies 4 shards with column strips alone; the
  // partition must not grow a second axis it does not need.
  FieldPartition part(WideParams(560.0, 115.0), 4);
  EXPECT_EQ(part.shards(), 4);
  EXPECT_EQ(part.tiles_x(), 4);
  EXPECT_EQ(part.tiles_y(), 1);
}

TEST(FieldPartitionTest, NeighborShardsMatchTileAdjacency) {
  // 115 x 115 at 4 shards is a 2x2 tiling: everyone borders everyone.
  FieldPartition grid(WideParams(115.0, 115.0), 4);
  ASSERT_EQ(grid.tiles_x(), 2);
  ASSERT_EQ(grid.tiles_y(), 2);
  EXPECT_EQ(grid.NeighborShards(0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(grid.NeighborShards(3), (std::vector<int>{0, 1, 2}));
  // Strip mode: interior strips have exactly their two flanks.
  FieldPartition strips(WideParams(560.0, 115.0), 4);
  ASSERT_EQ(strips.tiles_y(), 1);
  EXPECT_EQ(strips.NeighborShards(0), (std::vector<int>{1}));
  EXPECT_EQ(strips.NeighborShards(1), (std::vector<int>{0, 2}));
  EXPECT_EQ(strips.NeighborShards(3), (std::vector<int>{2}));
}

TEST(FieldPartitionTest, FrameRecipientsFollowInterferenceReach) {
  FieldPartition grid(WideParams(115.0, 115.0), 4);
  ASSERT_EQ(grid.shards(), 4);
  std::array<int, 8> out;
  // Far corner of shard 0's tile: the 2-cell reach stays inside.
  const auto [c0, cl] = grid.ColumnRange(0);
  const auto [r0, rl] = grid.RowRange(0);
  EXPECT_EQ(grid.FrameRecipients(r0 * grid.nx() + c0, 0, &out), 0);
  // Inner corner: reach crosses into the east, south, and diagonal
  // neighbors, reported in ascending shard order.
  const int inner = rl * grid.nx() + cl;
  ASSERT_EQ(grid.FrameRecipients(inner, 0, &out), 3);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
  // Strip mode: an interior cell of a wide strip mails nobody.
  FieldPartition strips(WideParams(560.0, 115.0), 4);
  const auto [sc0, scl] = strips.ColumnRange(1);
  const int mid = (sc0 + scl) / 2;
  EXPECT_EQ(strips.FrameRecipients(mid, 1, &out), 0);
  // Its westmost column mails exactly the west flank.
  ASSERT_EQ(strips.FrameRecipients(sc0, 1, &out), 1);
  EXPECT_EQ(out[0], 0);
}

TEST(FieldPartitionTest, CellOfClampsAndMapsToOwner) {
  FieldPartition part(WideParams(560.0, 115.0), 4);
  // Points outside the field clamp onto the border cells.
  EXPECT_EQ(part.CellOf({-5.0, -5.0}), part.CellOf({0.0, 0.0}));
  EXPECT_EQ(part.ColumnOf(part.CellOf({1e9, 0.0})), part.nx() - 1);
  for (double x : {0.0, 100.0, 280.0, 430.0, 559.9}) {
    const int32_t cell = part.CellOf({x, 57.0});
    const auto [first, last] = part.ColumnRange(part.OwnerOfCell(cell));
    EXPECT_GE(part.ColumnOf(cell), first);
    EXPECT_LE(part.ColumnOf(cell), last);
  }
}

// --- Lookahead: max(air time of the largest frame, one backoff slot),
// --- and the sweep period is a whole, positive number of windows.

TEST(FieldPartitionTest, LookaheadFollowsAirTimeFormula) {
  PsimNetParams net;  // 23 bytes at 250 kbps -> 736 us > 320 us slot.
  EXPECT_DOUBLE_EQ(FieldPartition::Lookahead(net),
                   23.0 * 8.0 / 250e3);

  PsimNetParams fast = net;  // At 10 Mbps the backoff slot dominates.
  fast.bit_rate_bps = 10e6;
  EXPECT_DOUBLE_EQ(FieldPartition::Lookahead(fast), fast.backoff_slot_s);
}

TEST(FieldPartitionTest, RefreshPeriodIsWholeWindows) {
  PsimNetParams net;
  FieldPartition part(net, 4);
  EXPECT_GE(part.refresh_windows(), 1);
  EXPECT_DOUBLE_EQ(part.effective_refresh_s(),
                   part.refresh_windows() * part.lookahead());
  // The effective period can only differ from the target by rounding to
  // a whole window.
  EXPECT_NEAR(part.effective_refresh_s(), net.grid_refresh_interval_s,
              part.lookahead());

  PsimNetParams slow = net;  // Refresh shorter than one window clamps up.
  slow.grid_refresh_interval_s = 1e-9;
  EXPECT_EQ(FieldPartition(slow, 2).refresh_windows(), 1);
}

// --- Boundary mailing: only frames within the drift-extended border
// --- band reach a neighbor shard, and edge shards never mail off the
// --- field. Checked through FrameRecipients, the rule the engine runs.

TEST(FieldPartitionTest, BoundaryPredicateCoversDriftBand) {
  FieldPartition part(WideParams(560.0, 115.0), 4);
  ASSERT_EQ(part.shards(), 4);
  ASSERT_EQ(part.tiles_y(), 1);
  // The shards a frame from `column` (row 0) of shard s's strip reaches.
  const auto recipients = [&part](int column, int s) {
    std::array<int, 8> out;
    const int n = part.FrameRecipients(column, s, &out);
    return std::set<int>(out.begin(), out.begin() + n);
  };
  const int last_shard = part.shards() - 1;
  for (int s = 0; s < part.shards(); ++s) {
    const auto [first, last] = part.ColumnRange(s);
    // The first two columns reach the west neighbor, the last two the
    // east one; a frame drifted one column outside the strip still does.
    for (int c = s > 0 ? first - 1 : first; c <= first + 1; ++c) {
      EXPECT_EQ(recipients(c, s).count(s - 1), s > 0 ? 1u : 0u) << c;
    }
    for (int c = last - 1; c <= (s < last_shard ? last + 1 : last); ++c) {
      EXPECT_EQ(recipients(c, s).count(s + 1), s < last_shard ? 1u : 0u)
          << c;
    }
    for (int c = first; c <= last; ++c) {
      for (int r : recipients(c, s)) {
        EXPECT_TRUE(r == s - 1 || r == s + 1) << "shard " << s << " -> " << r;
      }
    }
    // Interior columns of a wide-enough strip stay local.
    if (last - first >= 4) {
      EXPECT_TRUE(recipients((first + last) / 2, s).empty());
    }
  }
}

// --- SPSC mailbox: FIFO under a same-timestamp storm, capacity
// --- behavior, and order survival with a live producer thread.

TEST(SpscMailboxTest, FifoUnderSameTimestampStorm) {
  SpscMailbox<PsimFrame> box(256);
  // Every frame shares one transmit time; only (sender, seq) tell them
  // apart — exactly the worst case for an ordering bug.
  for (uint32_t i = 0; i < 200; ++i) {
    PsimFrame f;
    f.t = 1.0;
    f.end = 1.000736;
    f.sender = i % 7;
    f.seq = i;
    box.Push(f);
  }
  uint32_t expected = 0;
  const size_t drained = box.Drain([&](const PsimFrame& f) {
    EXPECT_EQ(f.seq, expected);
    EXPECT_EQ(f.sender, expected % 7);
    ++expected;
  });
  EXPECT_EQ(drained, 200u);
  EXPECT_EQ(box.SizeApprox(), 0u);
}

TEST(SpscMailboxTest, CapacityRoundsUpAndTryPushBoundsFill) {
  SpscMailbox<uint32_t> box(100);
  EXPECT_EQ(box.capacity(), 128u);  // Next power of two.
  for (uint32_t i = 0; i < 128; ++i) EXPECT_TRUE(box.TryPush(i));
  EXPECT_FALSE(box.TryPush(999));  // Full ring refuses, never wraps.
  uint32_t expected = 0;
  box.Drain([&](uint32_t v) { EXPECT_EQ(v, expected++); });
  EXPECT_TRUE(box.TryPush(999));  // Space again after the drain.
}

TEST(SpscMailboxTest, FifoSurvivesConcurrentProducer) {
  constexpr uint32_t kTotal = 200000;
  SpscMailbox<uint32_t> box(1024);
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (uint32_t i = 0; i < kTotal; ++i) {
      while (!box.TryPush(i)) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });
  uint32_t expected = 0;
  while (expected < kTotal) {
    box.Drain([&](uint32_t v) {
      ASSERT_EQ(v, expected);
      ++expected;
    });
    if (done.load(std::memory_order_acquire) && box.SizeApprox() == 0 &&
        expected < kTotal) {
      box.Drain([&](uint32_t v) {
        ASSERT_EQ(v, expected);
        ++expected;
      });
    }
  }
  producer.join();
  EXPECT_EQ(expected, kTotal);
}

// --- Seed derivation: deterministic, lane-separated, and distinct
// --- across shards/nodes (a collision would correlate streams).

TEST(PsimSeedTest, SeedsDeterministicAndDistinct) {
  EXPECT_EQ(PsimShard::ShardSeed(42, 3), PsimShard::ShardSeed(42, 3));
  EXPECT_EQ(PsimShard::NodeSeed(42, 7, 0), PsimShard::NodeSeed(42, 7, 0));
  std::set<uint64_t> seen;
  for (int s = 0; s < 16; ++s) {
    EXPECT_TRUE(seen.insert(PsimShard::ShardSeed(42, s)).second);
  }
  for (uint32_t n = 0; n < 256; ++n) {
    for (uint32_t lane : {0u, 1u}) {
      EXPECT_TRUE(seen.insert(PsimShard::NodeSeed(42, n, lane)).second);
    }
  }
  // A different run seed moves every stream.
  EXPECT_NE(PsimShard::ShardSeed(42, 0), PsimShard::ShardSeed(43, 0));
  EXPECT_NE(PsimShard::NodeSeed(42, 0, 0), PsimShard::NodeSeed(43, 0, 0));
}

// --- RunBefore: the half-open window run the shards are built on.

TEST(SimulatorRunBeforeTest, RunsStrictlyBeforeAndAdvancesClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.ScheduleAt(0.5, [&] { fired.push_back(1); });
  sim.ScheduleAt(1.0, [&] { fired.push_back(2); });  // On the boundary.
  sim.ScheduleAt(1.5, [&] { fired.push_back(3); });
  EXPECT_EQ(sim.RunBefore(1.0), 1u);
  EXPECT_EQ(fired, std::vector<int>({1}));
  EXPECT_DOUBLE_EQ(sim.Now(), 1.0);  // Clock lands on the boundary...
  EXPECT_EQ(sim.RunBefore(2.0), 2u);  // ...and the boundary event fires
  EXPECT_EQ(fired, std::vector<int>({1, 2, 3}));  // in the next window.
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  EXPECT_EQ(sim.RunBefore(1.5), 0u);  // Never runs the clock backwards.
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
}

// --- Mobility handoff: a fast-mobility sharded run must migrate nodes
// --- between partitions and keep the ownership invariant afterwards.

TEST(PsimHandoffTest, MobilityMigratesNodesAcrossPartitions) {
  PsimConfig config;
  config.node_count = 384;
  config.field = Rect::Field(560.0, 115.0);
  config.max_speed = 10.0;
  config.beacon_interval = 0.25;
  config.duration = 1.5;
  config.shards = 4;
  config.seed = 7;

  PsimEngine engine(config);
  ASSERT_EQ(engine.shards(), 4);
  const PsimResult result = RunPsim(config);
  ASSERT_EQ(result.shards, 4);

  // At 10 m/s over 1.5 s across 22.5 m cells, some nodes must cross a
  // strip boundary; every departure is someone's arrival.
  EXPECT_GT(result.totals.migrations_out, 0u);
  EXPECT_EQ(result.totals.migrations_out, result.totals.migrations_in);
  EXPECT_GT(result.totals.boundary_frames, 0u);
  EXPECT_EQ(result.totals.audit_mismatches, 0u);
  EXPECT_GT(result.totals.audit_probes, 0u);

  // Post-run, every node sits in a bucket its owner maps back to, with
  // a live pending event, and the owned lists cover all nodes.
  PsimEngine checked(config);
  (void)checked.Run();
  EXPECT_TRUE(checked.OwnershipInvariantHolds());
}

TEST(PsimHandoffTest, StaticNodesNeverMigrate) {
  PsimConfig config;
  config.node_count = 256;
  config.field = Rect::Field(560.0, 115.0);
  config.max_speed = 0.0;  // Static mobility.
  config.duration = 1.0;
  config.shards = 4;
  const PsimResult result = RunPsim(config);
  EXPECT_EQ(result.totals.migrations_out, 0u);
  EXPECT_EQ(result.totals.migrations_in, 0u);
  EXPECT_GT(result.totals.frames_sent, 0u);
}

}  // namespace
}  // namespace diknn
