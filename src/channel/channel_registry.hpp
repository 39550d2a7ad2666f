// ChannelRegistry — config-driven construction of channel models: models
// register by name, configs select them with `channel=` keys, and
// validation checks names here.
//
// The singleton is mutex-guarded: Scenario::run_seeds constructs radios
// (and therefore channel models) concurrently from worker threads.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"

namespace precinct::channel {

class ChannelRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ChannelModel>(const ChannelConfig&)>;

  /// The process-wide registry, with the built-in models registered.
  [[nodiscard]] static ChannelRegistry& instance();

  /// Register a model under `name`.  Throws std::logic_error if the name
  /// is already taken (names identify models in configs; silent
  /// replacement would repoint existing configs).
  void register_model(const std::string& name, Factory factory);

  /// Construct the model `config.model` names.  Throws
  /// std::invalid_argument naming the unknown model and listing what is
  /// registered.
  [[nodiscard]] std::unique_ptr<ChannelModel> make(
      const ChannelConfig& config) const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  ChannelRegistry();  // registers the built-ins

  mutable std::mutex mutex_;
  std::map<std::string, Factory> models_;
};

}  // namespace precinct::channel
