// Minimal key=value configuration file parsing (for precinct_sim's
// --config and for experiment scripts).
//
// Format: one `key = value` per line; `#` starts a comment; blank lines
// and surrounding whitespace ignored.  Keys are free-form strings; value
// interpretation is the caller's job (core::parse_integer, parse_number
// and parse_bool for config keys).  Duplicate keys keep the *last*
// occurrence, so files can layer overrides naturally.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace precinct::support {

class KvFile {
 public:
  /// Parse text; throws std::invalid_argument (with a line number) on a
  /// malformed line.
  static KvFile parse(const std::string& text);

  /// Read and parse a file; throws std::runtime_error if unreadable.
  static KvFile load(const std::string& path);

  /// Set (or replace) one key.
  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] const std::map<std::string, std::string>& values()
      const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace precinct::support
