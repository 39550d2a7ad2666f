// Property-based scenario fuzzing (DESIGN.md §10).
//
// A seeded generator draws random-but-valid PrecinctConfigs (every draw
// is filtered through PrecinctConfig::validate(); rejected combinations
// are redrawn), runs short simulations with the invariant checker on,
// and asserts one metamorphic property per case:
//
//   * replay-identical     — the same seed reruns to a byte-identical
//                            metrics fingerprint (determinism, DESIGN.md §7);
//   * null-fault-identical — a lossy channel model configured to drop
//                            nothing (bernoulli loss 0, scripted with no
//                            windows, gilbert-elliott with zero loss) is
//                            byte-identical to the perfect channel;
//   * no-retry-no-resend   — with request_retries = 0 and push_retries = 0
//                            no frame is ever retransmitted (the paper's
//                            fire-and-escalate timing path), and the run
//                            still replays byte-identically;
//   * world-shard-invariant — ONE world cut into region-column domains
//                            (WorldShardedScenario, boundary-heavy
//                            mobility so nodes keep straddling the cut)
//                            produces a byte-identical world fingerprint
//                            for shards = K and shards = 1 (the
//                            conservative parallel executor's determinism
//                            contract, DESIGN.md §11, §13), conservation
//                            audit included;
//   * wire-codec           — encode -> decode -> encode is a byte-level
//                            fixed point for random packets of every
//                            PacketKind (hostile doubles included), every
//                            strict truncation and any wrong-version or
//                            corrupt-magic envelope is rejected without
//                            crashing (the transport codec contract,
//                            DESIGN.md §14);
//   * hetero-equivalent    — wrapping the whole fleet in a single node
//                            class with no attribute overrides (and, when
//                            mobile, with speed pinned to the scenario's
//                            v_max) is byte-identical to the homogeneous
//                            config: the heterogeneous-fleet machinery
//                            (ClassMix routing, per-class cache sizing,
//                            custody tiering) must be an exact no-op when
//                            it has nothing to express (DESIGN.md §15).
//
// A failed case serializes a minimal repro config (config_to_file schema,
// seed included) so `precinct_sim --config <file>` replays it one-command;
// wire-codec failures additionally dump the offending datagram as hex,
// replayable with `precinct_fuzz --packet-hex <hex>`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/config.hpp"

namespace precinct::check {

/// The metamorphic property a fuzz case asserts.
enum class Property : std::uint8_t {
  kReplayIdentical = 0,
  kNullFaultIdentical,
  kNoRetryNoResend,
  kWorldShardInvariant,
  kWireCodec,
  kHeterogeneousEquivalent,
};

inline constexpr std::size_t kPropertyCount = 6;

[[nodiscard]] const char* to_string(Property p) noexcept;

/// One generated scenario: a validated config (check = "all" baked in,
/// plus any property-specific constraints, e.g. zeroed retry budgets for
/// kNoRetryNoResend) and the property it must satisfy.
struct FuzzCase {
  core::PrecinctConfig config;
  Property property = Property::kReplayIdentical;
  std::uint64_t case_seed = 0;
  int draws_rejected = 0;  ///< validate() rejections before this config
};

/// Outcome of one case; `detail` names what diverged when !ok.
struct FuzzVerdict {
  bool ok = true;
  std::string detail;
};

/// Deterministically draw the scenario for `case_seed` (same seed, same
/// case — the repro contract).  The property rotates with the seed so a
/// batch covers all three.
[[nodiscard]] FuzzCase draw_scenario(std::uint64_t case_seed);

/// Run `fc` (invariant checks on) and judge its property.  Invariant
/// violations and any other exception surface as a failed verdict, never
/// as a throw.
[[nodiscard]] FuzzVerdict run_fuzz_case(const FuzzCase& fc);

/// Serialize the case to `<dir>/fuzz_<case_seed>.conf` (directory created
/// if missing): a commented failure header plus the full config in the
/// reader's schema.  Returns the path written.
std::string write_repro(const FuzzCase& fc, const std::string& dir,
                        const std::string& reason);

/// Replay one hex-dumped datagram body from a wire-codec fuzz failure:
/// decode it, re-encode, and judge the byte-level fixed point.  Used by
/// `precinct_fuzz --packet-hex <hex>`.
[[nodiscard]] FuzzVerdict replay_packet_hex(const std::string& hex);

}  // namespace precinct::check
