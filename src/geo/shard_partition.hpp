// Domain -> shard partitioning for world sharding (DESIGN.md §11, §13).
//
// One world is cut into domains, one per region column (a vertical strip
// of regions running the protocol for the nodes that start there); the
// partitioner assigns each domain to one of K worker shards.  Two
// properties matter:
//
//   * balance — shard populations differ by at most one domain, so no
//     worker is structurally starved or overloaded;
//   * adjacency — each shard's domains form one contiguous run of
//     columns, which keeps neighboring strips on the same shard.
//
// The partition is a pure function of (n_domains, n_shards): every run
// with the same configuration produces the same assignment, which the
// determinism gate depends on.
#pragma once

#include <cstdint>
#include <vector>

namespace precinct::geo {

struct ShardPartition {
  std::uint32_t n_shards = 1;
  /// Domain index -> owning shard.
  std::vector<std::uint32_t> shard_of;
};

/// Partition `n_domains` domains into `n_shards` contiguous, balanced
/// runs.  n_shards is clamped to [1, n_domains] (a shard with zero
/// domains would be a dead worker).  Throws std::invalid_argument when
/// there are no domains.
[[nodiscard]] ShardPartition partition_grid(std::uint32_t n_domains,
                                            std::uint32_t n_shards);

/// The region column (0..nx-1) that x-coordinate `x` falls in on a plane
/// spanning [min_x, min_x + width) — the ownership function: a node
/// belongs to the domain of the column its t=0 position falls in.
/// Clamped at both edges so nodes exactly on (or numerically past) the
/// plane boundary stay inside.
[[nodiscard]] std::uint32_t world_column_of(double x, double min_x,
                                            double width, std::uint32_t nx);

}  // namespace precinct::geo
