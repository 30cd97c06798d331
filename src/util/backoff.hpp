// CreditFlow: capped exponential backoff with seeded jitter.
//
// The retry policy shared by every reconnect/poll loop in the sweep farm
// (worker connect, WAIT polling, coordinator reattach). Deterministic by
// construction: the delay sequence is a pure function of the seed and the
// retry count, so a test that pins a seed replays the exact same waits —
// the same discipline the simulation core applies to every other random
// stream.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace creditflow::util {

/// Capped exponential backoff: delay k is `initial * 2^k`, capped at `max`,
/// multiplied by a jitter factor drawn uniformly from [1 - jitter, 1].
/// Jitter pulls delays *down* from the exponential envelope, so the cap is
/// a hard ceiling and a fleet of workers sharing a restart moment spreads
/// out instead of reconnecting in lockstep.
class Backoff {
 public:
  struct Options {
    double initial_seconds = 0.05;  ///< first delay (pre-jitter)
    double max_seconds = 1.0;       ///< hard ceiling on any delay
    double jitter = 0.25;           ///< fraction of the delay jitter may shave
    std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  };

  Backoff() : Backoff(Options{}) {}
  explicit Backoff(Options options)
      : options_(options), rng_(options.seed) {}

  /// The next delay in seconds; each call advances the schedule.
  [[nodiscard]] double next() {
    double delay = options_.initial_seconds;
    // Doubling with a multiplicative cap instead of pow(): retries_ is
    // unbounded and the loop exits as soon as the cap is reached.
    for (std::uint64_t k = 0; k < retries_ && delay < options_.max_seconds;
         ++k) {
      delay *= 2.0;
    }
    delay = std::min(delay, options_.max_seconds);
    ++retries_;
    const double shave = options_.jitter * rng_.uniform();
    return delay * (1.0 - shave);
  }

  /// Forget the history: the next delay starts from initial_seconds again.
  /// Call after a successful attempt.
  void reset() { retries_ = 0; }

 private:
  Options options_;
  Rng rng_;
  std::uint64_t retries_ = 0;
};

}  // namespace creditflow::util
