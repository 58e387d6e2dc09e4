// Quality-of-service vocabulary for the serving engine.
//
// One engine serves many models to heterogeneous clients: a chat-style
// front-end wants each small request back in microseconds, a bulk
// scoring job wants maximum coalescing, and best-effort analytics just
// want to finish eventually.  QoS expresses that as a per-model service
// class plus a weight:
//
//   * Priority (kInteractive > kBatch > kBackground) orders classes
//     strictly: whenever a higher class has queued work, it is claimed
//     first.  A starvation bound keeps strictness from turning into
//     lockout -- a backlogged lower class is served at least once every
//     `starvation_bound + 1` claims (see serve/batcher.hpp).
//   * weight divides capacity *within* a class by weighted-deficit
//     round-robin: over a backlogged interval, models of one class
//     receive input rows proportional to their weights.
//   * max_delay / max_batch_rows can be overridden per model, so an
//     interactive model can run with a tiny coalescing window while
//     batch traffic keeps the big one.
//
// Resolution order for the knobs: the per-model QosPolicy value if
// set, else the engine-wide default (EngineOptions).  kUnsetDelay /
// 0 rows mean "inherit".  A model's QosPolicy plus the engine defaults
// is therefore the whole policy it is served under.
#pragma once

#include <chrono>
#include <cstddef>

#include "sparse/types.hpp"

namespace radix::serve {

/// Service class of a model's traffic; lower value = served first.
enum class Priority : std::uint8_t {
  kInteractive = 0,  ///< latency-sensitive; claimed before all others
  kBatch = 1,        ///< throughput traffic (the default)
  kBackground = 2,   ///< best-effort; protected only by the starvation bound
};

inline constexpr std::size_t kNumPriorities = 3;

inline constexpr const char* to_string(Priority p) noexcept {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBatch: return "batch";
    case Priority::kBackground: return "background";
  }
  return "?";
}

/// Sentinel for "inherit the engine max_delay".
inline constexpr std::chrono::microseconds kUnsetDelay{-1};

/// Per-model service policy passed to add_model().  Unset fields
/// (kUnsetDelay / 0 rows) inherit the engine-wide defaults.
struct QosPolicy {
  Priority priority = Priority::kBatch;
  /// Weighted-deficit share within the class; must be >= 1 once resolved.
  unsigned weight = 1;
  /// Coalescing window override for this model; kUnsetDelay inherits.
  std::chrono::microseconds max_delay = kUnsetDelay;
  /// Batch row budget override for this model; 0 inherits.
  index_t max_batch_rows = 0;
};

}  // namespace radix::serve
