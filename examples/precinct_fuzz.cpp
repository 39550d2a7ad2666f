// precinct_fuzz — property-based scenario fuzzing driver (DESIGN.md §10).
//
// Draws random valid scenarios, runs each with every invariant category
// enabled, and asserts the six rotating metamorphic properties
// (determinism replay, null-fault channel equivalence, no-retry means no
// resend, world-shard invariance, wire-codec fixed point, heterogeneous-
// fleet equivalence).  A failing case
// writes a repro config that `precinct_sim --config <file>` replays in one
// command; wire-codec failures also print the datagram as hex.
//
//   ./precinct_fuzz --scenarios 64 --seed 1 --repro-dir fuzz_repros
//   ./precinct_fuzz --replay 17            # re-run one case by its seed
//   ./precinct_fuzz --packet-hex 0a1b...   # re-judge one dumped datagram
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "check/scenario_fuzz.hpp"
#include "core/config_io.hpp"

namespace {

int usage() {
  std::printf(
      "precinct_fuzz — property-based scenario fuzzing\n\n"
      "  --scenarios N   cases to run                    (default 64)\n"
      "  --seed N        first case seed                 (default 1)\n"
      "  --repro-dir D   where failing cases are written (default fuzz_repros)\n"
      "  --replay N      run exactly one case seed and exit\n"
      "  --packet-hex H  decode/re-encode one hex-dumped datagram (from a\n"
      "                  wire-codec failure) and judge the fixed point\n"
      "  --help          this text\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace precinct;
  std::uint64_t scenarios = 64;
  std::uint64_t first_seed = 1;
  std::string repro_dir = "fuzz_repros";
  std::string packet_hex;
  bool replay_one = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A bad count or seed is a usage error naming its flag: it must never
    // run as 0 cases, which would pass vacuously.
    const auto integer = [&]() -> std::uint64_t {
      try {
        return core::parse_integer<std::uint64_t>(value(), arg);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    };
    if (arg == "--help") return usage();
    if (arg == "--scenarios") {
      scenarios = integer();
    } else if (arg == "--seed") {
      first_seed = integer();
    } else if (arg == "--repro-dir") {
      repro_dir = value();
    } else if (arg == "--replay") {
      first_seed = integer();
      scenarios = 1;
      replay_one = true;
    } else if (arg == "--packet-hex") {
      packet_hex = value();
    } else {
      std::fprintf(stderr, "error: unknown argument %s (try --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  if (!packet_hex.empty()) {
    const check::FuzzVerdict verdict = check::replay_packet_hex(packet_hex);
    if (verdict.ok) {
      std::printf("packet-hex ok: %s\n", verdict.detail.c_str());
      return 0;
    }
    std::fprintf(stderr, "packet-hex FAILED\n%s\n", verdict.detail.c_str());
    return 1;
  }

  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const std::uint64_t case_seed = first_seed + i;
    check::FuzzCase fc;
    try {
      fc = check::draw_scenario(case_seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "case %llu: draw failed: %s\n",
                   static_cast<unsigned long long>(case_seed), e.what());
      ++failures;
      continue;
    }
    const check::FuzzVerdict verdict = check::run_fuzz_case(fc);
    if (verdict.ok) {
      std::printf("case %llu [%s] ok (%d draws rejected)\n",
                  static_cast<unsigned long long>(case_seed),
                  check::to_string(fc.property), fc.draws_rejected);
      continue;
    }
    ++failures;
    std::string repro = "(repro write failed)";
    try {
      repro = check::write_repro(fc, repro_dir, verdict.detail);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "case %llu: %s\n",
                   static_cast<unsigned long long>(case_seed), e.what());
    }
    std::fprintf(stderr,
                 "case %llu [%s] FAILED\n%s\nrepro: %s\n"
                 "replay: precinct_fuzz --replay %llu\n",
                 static_cast<unsigned long long>(case_seed),
                 check::to_string(fc.property), verdict.detail.c_str(),
                 repro.c_str(), static_cast<unsigned long long>(case_seed));
    if (replay_one) break;
  }

  if (failures == 0) {
    std::printf("all %llu cases passed\n",
                static_cast<unsigned long long>(scenarios));
    return 0;
  }
  std::fprintf(stderr, "%llu of %llu cases failed\n",
               static_cast<unsigned long long>(failures),
               static_cast<unsigned long long>(scenarios));
  return 1;
}
