// Configuration file loading: map a key=value KvFile onto PrecinctConfig.
//
// Keys mirror precinct_sim's flag names (without dashes, using
// underscores); unknown keys are an error so typos fail loudly.  See
// `examples/scenario.conf.example` for a complete annotated file.
#pragma once

#include <charconv>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "core/config.hpp"
#include "support/kv_file.hpp"

namespace precinct::core {

/// Parse `value` as a plain decimal integer of the field's own type T.
/// Throws std::invalid_argument naming `key` for anything else: a sign
/// on an unsigned type, a fraction, an exponent, NaN, surrounding
/// whitespace, or a value outside T's range.  Every integer config key
/// and precinct_sim's integer flags read through this.
template <typename T>
[[nodiscard]] T parse_integer(const std::string& value,
                              const std::string& key) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument(
        "'" + key + "' needs an integer in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "], got '" + value +
        "'");
  }
  return out;
}

/// Apply every key in `kv` on top of `base`.  Throws
/// std::invalid_argument for unknown keys or unparsable values.  The
/// result is not validated; call validate() (Scenario does).
[[nodiscard]] PrecinctConfig config_from_kv(const support::KvFile& kv,
                                            const PrecinctConfig& base = {});

/// Convenience: load a file and apply it (throws on I/O errors too).
[[nodiscard]] PrecinctConfig config_from_file(const std::string& path,
                                              const PrecinctConfig& base = {});

/// precinct_sim's config flags are the key schema spelled as flags: value
/// flag `--speed-max 4` is key `speed_max = 4`, and a switch
/// (`--updates`, `--dynamic-regions`) sets its boolean key to true.
/// Removes every config flag from `args` and applies them through
/// config_from_kv on top of `base`, so an unflagged field keeps exactly
/// the value `base` (say, a loaded config file) gave it.  Other arguments
/// stay in `args`.  Throws std::invalid_argument like config_from_kv, and
/// for a value flag without a value.
[[nodiscard]] PrecinctConfig config_from_flags(std::vector<std::string>& args,
                                               const PrecinctConfig& base);

/// Serialize `c` back into the key schema the reader accepts.  Every key
/// is emitted (so reloading over any base reproduces `c` exactly), and
/// doubles use their shortest round-trip form, making write -> read ->
/// write a fixed point.  Throws std::invalid_argument for configurations
/// the schema cannot express (non-square area or region grid, partition
/// windows).
[[nodiscard]] std::map<std::string, std::string> config_to_kv(
    const PrecinctConfig& c);

/// config_to_kv rendered as `key = value` lines in sorted key order —
/// directly parseable by KvFile / config_from_kv.
[[nodiscard]] std::string config_to_string(const PrecinctConfig& c);

/// Write config_to_string(c) to `path`; throws std::runtime_error on I/O
/// failure.  The file is a one-command repro: `precinct_sim --config
/// <path>` replays the exact scenario.
void config_to_file(const PrecinctConfig& c, const std::string& path);

}  // namespace precinct::core
