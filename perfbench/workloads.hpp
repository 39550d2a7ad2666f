// The benchmark's four workloads.  Each is one PrecinctConfig made from
// the benchmark seed; the simulator receives only that config.  Why each
// workload exists (which layer it exercises, which it bypasses) is
// recorded in BENCHMARK.json and perfbench/README.md.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"

namespace perfbench {

enum class Shape {
  kSerial,  ///< one Scenario on one thread
  kWorld,   ///< WorldShardedScenario on 2 ShardExecutor workers
  kFleet,   ///< 2 NodeDaemons in threads over loopback UDP
};

struct Workload {
  std::string name;
  Shape shape = Shape::kSerial;
  precinct::core::PrecinctConfig config;
};

/// The workload `name` seeded with `seed`.  `short_horizon` divides warm-up
/// and measurement by 20 (self-tests).  Throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool short_horizon);

}  // namespace perfbench
