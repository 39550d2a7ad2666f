#include "net/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace precinct::net {

SpatialGrid::SpatialGrid(const geo::Rect& area, double cell_m)
    : area_(area), cell_m_(cell_m) {
  if (cell_m <= 0.0 || area.width() <= 0.0 || area.height() <= 0.0) {
    throw std::invalid_argument("SpatialGrid: bad area/cell size");
  }
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(area.width() / cell_m)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(area.height() / cell_m)));
  inv_cell_m_ = 1.0 / cell_m_;
  offsets_.assign(nx_ * ny_ + 1, 0);
  cursor_.assign(nx_ * ny_, 0);
}

template <typename PointAt, typename IsAlive>
void SpatialGrid::rebuild_impl(std::size_t n, PointAt&& point_at,
                               IsAlive&& is_alive) {
  const std::size_t n_cells = nx_ * ny_;
  std::fill(offsets_.begin(), offsets_.end(), 0u);

  // Scratch stays at its high-water size so the hot loop writes through
  // raw pointers with no capacity checks; only growth ever allocates.
  if (scratch_ids_.size() < n) {
    scratch_ids_.resize(n);
    scratch_cells_.resize(n);
  }
  std::uint32_t* const ids = scratch_ids_.data();
  std::uint32_t* const cells = scratch_cells_.data();

  // Pass 1: bin each live node once, counting per cell.  Ids and cell
  // ids are kept so placement never recomputes cell_of.
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_alive(i)) continue;
    const auto c = static_cast<std::uint32_t>(cell_of(point_at(i)));
    ids[k] = static_cast<std::uint32_t>(i);
    cells[k] = c;
    ++k;
    ++offsets_[c + 1];
  }
  count_ = k;

  // Pass 2: prefix-sum counts into cell start offsets.
  for (std::size_t c = 0; c < n_cells; ++c) offsets_[c + 1] += offsets_[c];

  // Pass 3: stable placement in ascending node id.
  if (indices_.size() < count_) {
    indices_.resize(n);
    points_.resize(n);
  }
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor_.begin());
  std::uint32_t* const out = indices_.data();
  std::uint32_t* const cur = cursor_.data();
  for (std::size_t j = 0; j < count_; ++j) {
    out[cur[cells[j]]++] = ids[j];
  }
  // Pass 4: gather each placed node's snapshot position.  Sequential
  // writes here cost less than scattering the points in pass 3.
  geo::Point* const pts = points_.data();
  for (std::size_t s = 0; s < count_; ++s) pts[s] = point_at(out[s]);
}

void SpatialGrid::rebuild(const std::vector<geo::Point>& positions,
                          const std::vector<char>& alive) {
  rebuild_impl(
      positions.size(), [&](std::size_t i) { return positions[i]; },
      [&](std::size_t i) { return i >= alive.size() || alive[i]; });
}

void SpatialGrid::rebuild(const double* x, const double* y,
                          const std::uint8_t* alive, std::size_t n) {
  rebuild_impl(
      n, [&](std::size_t i) { return geo::Point{x[i], y[i]}; },
      [&](std::size_t i) { return alive == nullptr || alive[i]; });
}

void SpatialGrid::query(geo::Point center, double radius,
                        std::vector<std::uint32_t>& out) const {
  for_each_near(center, radius,
                [&](std::uint32_t id, double, double) { out.push_back(id); });
}

}  // namespace precinct::net
