#include "support/kv_file.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace precinct::support {

namespace {
std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}
}  // namespace

KvFile KvFile::parse(const std::string& text) {
  KvFile kv;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("KvFile: line " + std::to_string(line_no) +
                                  ": expected 'key = value'");
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument("KvFile: line " + std::to_string(line_no) +
                                  ": empty key");
    }
    kv.values_[key] = value;  // last occurrence wins
  }
  return kv;
}

KvFile KvFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("KvFile: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool KvFile::has(const std::string& key) const {
  return values_.find(key) != values_.end();
}

std::optional<std::string> KvFile::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string KvFile::get_string(const std::string& key,
                               const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double KvFile::get_number(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  // std::stod also reads nan and inf, which no key means: reject them
  // here, where the message can name the key.
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument("trailing junk");
    if (!std::isfinite(parsed)) throw std::invalid_argument("not finite");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("KvFile: key '" + key +
                                "' is not a finite number: " + *v);
  }
}

bool KvFile::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v.has_value()) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("KvFile: key '" + key +
                              "' is not a boolean: " + *v);
}

}  // namespace precinct::support
