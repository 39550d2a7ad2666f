// Uniform-grid spatial index for neighbor queries.
//
// The index is a snapshot: rebuild() bins every node at the position it
// has *then*, and keeps that position next to the node's id.  Callers
// whose nodes keep moving (the radio, DESIGN.md §12) classify each
// candidate from its snapshot position and the largest distance it can
// have drifted since, and consult the mobility oracle only where that
// leaves the answer open.
//
// Storage is CSR (compressed sparse row): one flat `indices_` array of
// node ids grouped by cell, plus an `offsets_` array where cell c's
// members live at [offsets_[c], offsets_[c+1]); `points_` holds each
// member's snapshot position in the same order.  rebuild() is a
// counting sort — count per cell, prefix-sum, stable placement in
// ascending node id — and the steady state allocates nothing: every
// buffer is size-stable across rebuilds once capacity is reached.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/geometry.hpp"

namespace precinct::net {

class SpatialGrid {
 public:
  /// `cell_m` should be about the radio range; queries then touch O(9)
  /// cells.
  SpatialGrid(const geo::Rect& area, double cell_m);

  /// Replace the index contents with nodes 0..n-1 at (x[id], y[id]):
  /// parallel coordinate columns, as the SoA node state keeps them.
  /// Every node is indexed; callers judge liveness at query time.
  void rebuild(const double* x, const double* y, std::size_t n);

  /// Call `fn(id, x, y)` with the snapshot position of every indexed
  /// node binned into a cell that the box [center ± reach] touches.  The
  /// box corners are binned with the same arithmetic as the nodes, and
  /// binning is monotone in each coordinate, so every node whose snapshot
  /// lies inside the box is visited — on a cell edge, on the area's max
  /// edge, or outside the area (clamped into an edge cell) alike.
  template <typename Fn>
  void for_each_near(geo::Point center, double reach, Fn&& fn) const {
    const std::size_t x0 = bin(center.x - reach, area_.min.x, nx_);
    const std::size_t x1 = bin(center.x + reach, area_.min.x, nx_);
    const std::size_t y0 = bin(center.y - reach, area_.min.y, ny_);
    const std::size_t y1 = bin(center.y + reach, area_.min.y, ny_);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      // Cells x0..x1 of one row are contiguous in CSR order.
      const std::size_t row = cy * nx_;
      const std::uint32_t end = offsets_[row + x1 + 1];
      for (std::uint32_t k = offsets_[row + x0]; k < end; ++k) {
        fn(indices_[k], points_[k].x, points_[k].y);
      }
    }
  }

  /// Append to `out` the ids for_each_near(center, radius) visits: a
  /// superset of the nodes whose snapshot lies within `radius` of
  /// `center`.  Does not clear `out`.
  void query(geo::Point center, double radius,
             std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::size_t indexed_count() const noexcept { return count_; }

 private:
  /// Cell column (or row) of coordinate `v`: monotone non-decreasing in
  /// `v`, clamped into [0, n).
  [[nodiscard]] std::size_t bin(double v, double origin,
                                std::size_t n) const noexcept {
    return static_cast<std::size_t>(std::clamp(
        (v - origin) * inv_cell_m_, 0.0, static_cast<double>(n - 1)));
  }
  [[nodiscard]] std::size_t cell_of(geo::Point p) const noexcept {
    return bin(p.y, area_.min.y, ny_) * nx_ + bin(p.x, area_.min.x, nx_);
  }

  geo::Rect area_;
  double inv_cell_m_;
  std::size_t nx_;
  std::size_t ny_;
  // CSR storage: cell c holds indices_/points_[offsets_[c] .. offsets_[c+1]).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> indices_;
  std::vector<geo::Point> points_;
  // Counting-sort scratch, retained across rebuilds: each node's cell id
  // (pass 1), placement cursors (pass 3).
  std::vector<std::uint32_t> scratch_cells_;
  std::vector<std::uint32_t> cursor_;
  std::size_t count_ = 0;
};

}  // namespace precinct::net
