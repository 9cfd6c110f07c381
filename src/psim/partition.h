// Spatial field partition for the conservative parallel engine.
//
// The field is covered by the same kind of cell grid the serial channel
// uses (cell side = radio range + worst-case drift between bucket
// refreshes) and split into rectangular tiles, one tile per shard. The
// tiling is a rows x cols grid over the cell axes: column strips
// (tiles_y == 1) remain the layout whenever strips alone can satisfy the
// requested shard count — they minimize the number of neighbor links —
// and the partition only grows a second tiled axis when the field is too
// narrow for that many strips (square fields at 8+ shards), which keeps
// the perimeter/area ratio of each shard sane instead of degenerating
// into 1-cell slivers.
//
// Cells are the partition unit because the radio's interference
// neighborhood is a fixed number of cells wide: a frame transmitted from
// cell c can only be sensed, received, or collided with by nodes
// bucketed within two cells of c (see docs/SIMULATOR.md for the
// derivation), so with tiles at least kMinTileSpan cells wide on every
// partitioned axis, every frame concerns at most the owning shard and
// its 8 immediate neighbors — cross-shard traffic flows only between
// adjacent tiles.
//
// Lookahead: all synchronization happens on a fixed window of length
// Lookahead() = max(air time of the largest substrate frame, one CSMA
// backoff slot). Because every frame's duration is <= the window, a
// frame transmitted in window k can overlap transmissions only from
// windows k-1..k+1 and is fully decided by window k+2 — that bound is
// what lets shards run a whole window ahead of their neighbors between
// barriers (docs/ENGINE.md). The same bound covers unicast query hops:
// a GPSR/DIKNN hop is at least one frame air time, so the window
// protocol already orders multi-hop causality.

#ifndef DIKNN_PSIM_PARTITION_H_
#define DIKNN_PSIM_PARTITION_H_

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/geometry.h"

namespace diknn {

/// The substrate parameters the partition geometry depends on.
struct PsimNetParams {
  Rect field = Rect::Field(115.0, 115.0);
  double radio_range_m = 20.0;
  double bit_rate_bps = 250e3;
  double max_speed = 10.0;               ///< mu_max (m/s).
  double grid_refresh_interval_s = 0.25; ///< Target re-bucket period.
  double backoff_slot_s = 320e-6;        ///< aUnitBackoffPeriod.
  size_t max_frame_bytes = 23;           ///< Largest frame on the air.
};

class FieldPartition {
 public:
  /// Tiles narrower than this on a partitioned axis could leak
  /// interference past an adjacent shard (a frame drifts one cell out of
  /// its tile and its 2-cell interference reach would cross a 2-cell
  /// neighbor entirely), so the effective shard count is clamped to what
  /// (nx / kMinTileSpan) x (ny / kMinTileSpan) tiles can grant.
  static constexpr int kMinTileSpan = 3;

  FieldPartition(const PsimNetParams& params, int requested_shards);

  /// Conservative window length (s): the largest frame air time, never
  /// below one CSMA backoff slot.
  static double Lookahead(const PsimNetParams& params);

  int shards() const { return shards_; }
  int requested_shards() const { return requested_shards_; }
  double lookahead() const { return lookahead_; }
  double cell_size() const { return cell_size_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int cell_count() const { return nx_ * ny_; }
  /// Tiling shape: shards() == tiles_x() * tiles_y(). Column strips have
  /// tiles_y() == 1.
  int tiles_x() const { return tiles_x_; }
  int tiles_y() const { return tiles_y_; }
  /// Windows between bucket-refresh sweeps; sweeps fire on windows k with
  /// k % refresh_windows() == 0, so the effective refresh period is
  /// refresh_windows() * lookahead().
  int refresh_windows() const { return refresh_windows_; }
  double effective_refresh_s() const { return refresh_windows_ * lookahead_; }

  /// Grid cell containing `p` (clamped into the field).
  int32_t CellOf(const Point& p) const {
    int ix = static_cast<int>(p.x / cell_size_);
    int iy = static_cast<int>(p.y / cell_size_);
    if (ix < 0) ix = 0;
    if (ix >= nx_) ix = nx_ - 1;
    if (iy < 0) iy = 0;
    if (iy >= ny_) iy = ny_ - 1;
    return iy * nx_ + ix;
  }

  int ColumnOf(int32_t cell) const { return static_cast<int>(cell) % nx_; }
  int RowOf(int32_t cell) const { return static_cast<int>(cell) / nx_; }

  /// Owner shard of the tile containing (column, row).
  int OwnerAt(int column, int row) const {
    return row_tile_[row] * tiles_x_ + col_tile_[column];
  }
  int OwnerOfCell(int32_t cell) const {
    return OwnerAt(ColumnOf(cell), RowOf(cell));
  }

  /// Inclusive column range [first, last] of `shard`'s tile.
  std::pair<int, int> ColumnRange(int shard) const {
    const int tx = shard % tiles_x_;
    return {tile_first_col_[tx], tile_first_col_[tx] + tile_cols_[tx] - 1};
  }
  /// Inclusive row range [first, last] of `shard`'s tile.
  std::pair<int, int> RowRange(int shard) const {
    const int ty = shard / tiles_x_;
    return {tile_first_row_[ty], tile_first_row_[ty] + tile_rows_[ty] - 1};
  }

  /// Adjacent shards of `shard` (8-neighborhood over tiles), in ascending
  /// shard-id order. The partition guarantees every cross-shard exchange —
  /// boundary frames, node migrations, unicast query hops — stays within
  /// this set (tiles are >= kMinTileSpan cells wide per partitioned axis,
  /// and every reach is <= 2 cells + 1 cell of bucket drift).
  const std::vector<int>& NeighborShards(int shard) const {
    return neighbors_[static_cast<size_t>(shard)];
  }

  /// Fills `out` with the neighbor shards (ascending id order) whose tile
  /// the 2-cell interference reach of a frame bucketed at `cell` touches;
  /// returns the count. `owner` is the sending shard; `cell` may drift
  /// one cell outside its tile, never further.
  int FrameRecipients(int32_t cell, int owner,
                      std::array<int, 8>* out) const {
    const int cx = ColumnOf(cell);
    const int cy = RowOf(cell);
    const int ox = owner % tiles_x_;
    const int oy = owner / tiles_x_;
    int count = 0;
    for (int dy = -1; dy <= 1; ++dy) {
      const int ty = oy + dy;
      if (ty < 0 || ty >= tiles_y_) continue;
      const int row_lo = tile_first_row_[ty];
      const int row_hi = row_lo + tile_rows_[ty] - 1;
      if (cy + 2 < row_lo || cy - 2 > row_hi) continue;
      for (int dx = -1; dx <= 1; ++dx) {
        const int tx = ox + dx;
        if (tx < 0 || tx >= tiles_x_) continue;
        if (dx == 0 && dy == 0) continue;
        const int col_lo = tile_first_col_[tx];
        const int col_hi = col_lo + tile_cols_[tx] - 1;
        if (cx + 2 < col_lo || cx - 2 > col_hi) continue;
        (*out)[static_cast<size_t>(count++)] = ty * tiles_x_ + tx;
      }
    }
    return count;
  }

 private:
  int requested_shards_ = 1;
  int shards_ = 1;
  double lookahead_ = 0.0;
  double cell_size_ = 0.0;
  int nx_ = 1;
  int ny_ = 1;
  int tiles_x_ = 1;
  int tiles_y_ = 1;
  int refresh_windows_ = 1;
  std::vector<int> col_tile_;        ///< nx entries: column -> tile x.
  std::vector<int> row_tile_;        ///< ny entries: row -> tile y.
  std::vector<int> tile_first_col_;  ///< Per tile column.
  std::vector<int> tile_cols_;
  std::vector<int> tile_first_row_;  ///< Per tile row.
  std::vector<int> tile_rows_;
  std::vector<std::vector<int>> neighbors_;  ///< Per shard, ascending.
};

}  // namespace diknn

#endif  // DIKNN_PSIM_PARTITION_H_
