#include "geo/shard_partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace precinct::geo {

ShardPartition partition_grid(std::uint32_t n_domains,
                              std::uint32_t n_shards) {
  if (n_domains == 0) {
    throw std::invalid_argument("partition_grid: no domains");
  }
  ShardPartition p;
  p.n_shards = std::clamp<std::uint32_t>(n_shards, 1, n_domains);
  p.shard_of.resize(n_domains);
  // Contiguous runs of size ceil(n/K) for the first (n % K) shards and
  // floor(n/K) for the rest: balanced within one, adjacent in order.
  const std::uint32_t base = n_domains / p.n_shards;
  const std::uint32_t extra = n_domains % p.n_shards;
  std::uint32_t next = 0;
  for (std::uint32_t s = 0; s < p.n_shards; ++s) {
    const std::uint32_t count = base + (s < extra ? 1 : 0);
    for (std::uint32_t i = 0; i < count; ++i) p.shard_of[next++] = s;
  }
  return p;
}

std::uint32_t world_column_of(double x, double min_x, double width,
                              std::uint32_t nx) {
  if (nx == 0 || width <= 0.0) {
    throw std::invalid_argument("world_column_of: empty world");
  }
  const double cell = width / static_cast<double>(nx);
  const auto col = static_cast<std::int64_t>((x - min_x) / cell);
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(col, 0, static_cast<std::int64_t>(nx) - 1));
}

}  // namespace precinct::geo
