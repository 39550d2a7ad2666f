#include "net/spatial_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace precinct::net {

SpatialGrid::SpatialGrid(const geo::Rect& area, double cell_m)
    : area_(area) {
  if (cell_m <= 0.0 || area.width() <= 0.0 || area.height() <= 0.0) {
    throw std::invalid_argument("SpatialGrid: bad area/cell size");
  }
  nx_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(area.width() / cell_m)));
  ny_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(area.height() / cell_m)));
  inv_cell_m_ = 1.0 / cell_m;
  offsets_.assign(nx_ * ny_ + 1, 0);
  cursor_.assign(nx_ * ny_, 0);
}

void SpatialGrid::rebuild(const double* x, const double* y, std::size_t n) {
  const std::size_t n_cells = nx_ * ny_;
  std::fill(offsets_.begin(), offsets_.end(), 0u);

  // Scratch and index stay at their high-water size so the hot loops
  // write through raw pointers with no capacity checks; only growth ever
  // allocates.
  if (scratch_cells_.size() < n) {
    scratch_cells_.resize(n);
    indices_.resize(n);
    points_.resize(n);
  }
  std::uint32_t* const cells = scratch_cells_.data();

  // Pass 1: bin each node once, counting per cell.  Cell ids are kept so
  // placement never recomputes cell_of.
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::uint32_t>(cell_of({x[i], y[i]}));
    cells[i] = c;
    ++offsets_[c + 1];
  }
  count_ = n;

  // Pass 2: prefix-sum counts into cell start offsets.
  for (std::size_t c = 0; c < n_cells; ++c) offsets_[c + 1] += offsets_[c];

  // Pass 3: stable placement in ascending node id.
  std::copy(offsets_.begin(), offsets_.end() - 1, cursor_.begin());
  std::uint32_t* const out = indices_.data();
  std::uint32_t* const cur = cursor_.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[cur[cells[i]]++] = static_cast<std::uint32_t>(i);
  }
  // Pass 4: gather each placed node's snapshot position.  Sequential
  // writes here cost less than scattering the points in pass 3.
  geo::Point* const pts = points_.data();
  for (std::size_t s = 0; s < n; ++s) pts[s] = {x[out[s]], y[out[s]]};
}

void SpatialGrid::query(geo::Point center, double radius,
                        std::vector<std::uint32_t>& out) const {
  for_each_near(center, radius,
                [&](std::uint32_t id, double, double) { out.push_back(id); });
}

}  // namespace precinct::net
