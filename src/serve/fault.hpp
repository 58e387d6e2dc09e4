// Fault injection seam for the serving worker path.
//
// Overload and failure behavior cannot be tested (or benchmarked)
// against a stack that never misbehaves.  FaultInjector is the
// controlled misbehavior: installed through EngineOptions::fault, it is
// invoked by every worker right before a claimed batch runs forward and
// can
//
//   * add latency -- the batch waits `added_latency` on the engine's
//     injected ClockSource before running, modelling a slow shard, a
//     cold cache or a noisy neighbor.  With a FakeClock the wait is
//     virtual (the worker parks until the test advances time), so
//     slow-shard scenarios stay fully deterministic; with the steady
//     clock it is a real timed wait.
//   * fail batches -- with probability `fail_probability` the hook
//     throws FaultInjectedError instead of returning, and the worker
//     completes every request of the batch with that error (the normal
//     forward-error path).
//
// Per-shard targeting composes at the layer above: each Engine takes
// its own injector pointer, and ShardRouterOptions::tune_shard lets a
// test give shard 2 a 5 ms injector while its siblings run clean.
//
// Lifecycle: the injector must outlive every engine it is installed in.
// With a FakeClock, advance virtual time past any pending injected
// latency before shutting the engine down (or call cancel()) so workers
// parked in the latency wait can exit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "support/error.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {

/// Completion error of a batch killed by fault injection.  Derived from
/// Error (not AbortedError): an injected failure happened mid-service,
/// so -- exactly like a real forward error -- it must NOT be retried by
/// the failover layer.
class FaultInjectedError : public Error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : Error("fault injected: " + what) {}
};

struct FaultInjectorOptions {
  /// Wall (or virtual) time added before each claimed batch runs.
  std::chrono::microseconds added_latency{0};
  /// Probability in [0, 1] that a batch fails with FaultInjectedError.
  double fail_probability = 0.0;
  /// Seed of the deterministic per-batch failure draws.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultInjectorOptions options = {})
      : options_(options) {
    RADIX_REQUIRE(options_.fail_probability >= 0.0 &&
                      options_.fail_probability <= 1.0,
                  "FaultInjector: fail_probability must be in [0, 1]");
    RADIX_REQUIRE(options_.added_latency.count() >= 0,
                  "FaultInjector: added_latency must be >= 0");
  }

  ~FaultInjector() {
    // A fake clock remembers monitors of past waiters; detach before
    // the Monitor member dies.
    if (ClockSource* c = clock_.load(std::memory_order_acquire)) {
      c->forget(monitor_);
    }
  }

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Worker-path hook: waits out added_latency on `clock`, then throws
  /// FaultInjectedError with the configured probability.  Called with
  /// no locks held; several workers may be inside concurrently.
  void on_batch(ClockSource& clock) {
    if (options_.added_latency.count() > 0 && !cancelled()) {
      clock_.store(&clock, std::memory_order_release);
      std::unique_lock lock(monitor_.mutex);
      const auto deadline = clock.now() + options_.added_latency;
      while (clock.now() < deadline && !cancelled()) {
        clock.wait_until(monitor_, lock, deadline);
      }
      delayed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (options_.fail_probability > 0.0) {
      const std::uint64_t n = draws_.fetch_add(1, std::memory_order_relaxed);
      if (u01(options_.seed + n) < options_.fail_probability) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        throw FaultInjectedError("injected batch failure");
      }
    }
  }

  /// Stop delaying: wakes workers parked in the latency wait and makes
  /// subsequent on_batch calls skip it.  For FakeClock teardown where
  /// advancing virtual time past the pending waits is inconvenient.
  void cancel() {
    {
      std::scoped_lock lock(monitor_.mutex);
      cancelled_.store(true, std::memory_order_release);
    }
    monitor_.cv.notify_all();
  }

  /// Batches that served the injected latency (the slow-shard signal
  /// tests rendezvous on).
  std::uint64_t delayed_batches() const noexcept {
    return delayed_.load(std::memory_order_acquire);
  }

  /// Batches killed with FaultInjectedError.
  std::uint64_t injected_failures() const noexcept {
    return failures_.load(std::memory_order_acquire);
  }

 private:
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  // SplitMix64 finalizer -> uniform double in [0, 1).
  static double u01(std::uint64_t z) noexcept {
    return static_cast<double>(mix64(z) >> 11) * 0x1.0p-53;
  }

  FaultInjectorOptions options_;
  Monitor monitor_;
  std::atomic<ClockSource*> clock_{nullptr};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> draws_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace radix::serve
