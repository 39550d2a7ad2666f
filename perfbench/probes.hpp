// Observe-only decorators on the simulator's two public seams, used by the
// traced serial run.  Each forwards every call unchanged to a model built
// from the public class and only counts, so the decorated stack must
// reproduce the plain stack's fingerprint byte for byte (run.py checks).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/channel_model.hpp"
#include "mobility/mobility_model.hpp"

namespace perfbench {

/// Counts oracle calls and records the first `record_cap` of them, so the
/// call stream can be replayed against a fresh same-seed model and timed
/// as one batch (a clock read per call would cost more than the call).
class CountingMobility final : public precinct::mobility::MobilityModel {
 public:
  struct Call {
    double t = 0.0;
    std::uint32_t node = 0;
    bool speed = false;  ///< speed_at, else position_at
  };

  CountingMobility(std::unique_ptr<precinct::mobility::MobilityModel> inner,
                   std::size_t record_cap)
      : inner_(std::move(inner)), record_cap_(record_cap) {
    stream_.reserve(record_cap);
  }

  [[nodiscard]] precinct::geo::Point position_at(std::size_t node,
                                                 double t) override {
    note(node, t, false);
    return inner_->position_at(node, t);
  }
  [[nodiscard]] double speed_at(std::size_t node, double t) override {
    note(node, t, true);
    return inner_->speed_at(node, t);
  }
  [[nodiscard]] std::size_t node_count() const noexcept override {
    return inner_->node_count();
  }
  /// Forwarded: the radio snapshots time-invariant worlds once and never
  /// consults the oracle again, which is the bypass static_crowd measures.
  [[nodiscard]] bool time_invariant() const noexcept override {
    return inner_->time_invariant();
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] const std::vector<Call>& recorded() const noexcept {
    return stream_;
  }

 private:
  void note(std::size_t node, double t, bool speed) {
    ++calls_;
    if (stream_.size() < record_cap_) {
      stream_.push_back({t, static_cast<std::uint32_t>(node), speed});
    }
  }

  std::unique_ptr<precinct::mobility::MobilityModel> inner_;
  std::size_t record_cap_;
  std::uint64_t calls_ = 0;
  std::vector<Call> stream_;
};

/// Counts channel consultations and drops.  Registered in the
/// ChannelRegistry under its own name per wrapped model; the factory
/// builds the inner model from its public class, never through
/// ChannelRegistry::make, which holds the registry mutex while a factory
/// runs and would deadlock.
class CountingChannel final : public precinct::channel::ChannelModel {
 public:
  explicit CountingChannel(
      std::unique_ptr<precinct::channel::ChannelModel> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::optional<precinct::channel::DropCause> filter(
      const precinct::channel::Link& link,
      precinct::support::Rng& rng) override {
    ++consults_;
    const std::optional<precinct::channel::DropCause> cause =
        inner_->filter(link, rng);
    if (cause) ++drops_;
    return cause;
  }
  /// Forwarded: a lossless model keeps the radio on its fast path, where
  /// the channel is never consulted.
  [[nodiscard]] bool lossless() const noexcept override {
    return inner_->lossless();
  }

  [[nodiscard]] std::uint64_t consults() const noexcept { return consults_; }
  [[nodiscard]] std::uint64_t drops() const noexcept { return drops_; }

 private:
  std::unique_ptr<precinct::channel::ChannelModel> inner_;
  std::uint64_t consults_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace perfbench
