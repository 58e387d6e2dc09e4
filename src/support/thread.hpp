// std::thread-level utilities for the serving layer.
//
// The kernel substrate parallelizes *inside* one call via OpenMP
// (support/parallel.hpp); the serving layer instead runs long-lived
// std::threads that block on condition variables between batches.  These
// helpers keep that layer dependency-free and uniform:
//
//   * Monitor      -- a mutex + condition variable pair.  The micro-
//                     batcher guards every model's queue with one
//                     Monitor, so a consumer waits for "any model has
//                     work" with a single wait (serve/batcher.hpp).
//   * ThreadGroup  -- an RAII bundle of joinable threads: join_all() is
//                     idempotent and the destructor always joins, so a
//                     throwing constructor or early return can never leak
//                     a running thread.
//   * Snapshot     -- a copy-on-write slot: readers copy the current
//                     shared_ptr, a writer swaps in the next one (the
//                     engine's model registry, the router's fleet).
//   * ClockSource  -- injectable time for anything that mixes condition-
//                     variable waits with deadlines (the micro-batcher's
//                     coalescing window, bounded-wait admission).
//                     SteadyClockSource is the production implementation;
//                     FakeClock advances only when a test says so, which
//                     turns "did the batcher honor max_delay" from a
//                     sleep-and-hope race into a deterministic assertion.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace radix {

/// A mutex + condition variable pair meant to be *shared* between
/// cooperating structures (e.g. all per-model request queues of one
/// serving engine), so one consumer wait covers all of them.  All state
/// guarded by `mutex` must only be touched with it held; wake-ups use
/// notify_all because waiters wait for heterogeneous conditions
/// (space / items / close) on the same variable.
struct Monitor {
  std::mutex mutex;
  std::condition_variable cv;
};

/// RAII group of worker threads.  Threads are joined (never detached) on
/// destruction; the owner is responsible for making its thread functions
/// return (e.g. by closing the queue they consume).
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { join_all(); }

  template <typename Fn, typename... Args>
  void spawn(Fn&& fn, Args&&... args) {
    threads_.emplace_back(std::forward<Fn>(fn), std::forward<Args>(args)...);
  }

  std::size_t size() const noexcept { return threads_.size(); }

  /// Join every thread that is still joinable; safe to call repeatedly
  /// and from the destructor.
  void join_all() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

/// A copy-on-write snapshot slot.  load() copies the current value and
/// store() swaps in the next; the mutex is held only for that pointer
/// copy or swap, never while a writer builds the next value, so a reader
/// never waits on a writer's work.  Not std::atomic<std::shared_ptr>:
/// libstdc++ 12's load() ends with a relaxed unlock, so a load does not
/// happen-before the next store and ThreadSanitizer reports the pair.
template <typename T>
class Snapshot {
 public:
  std::shared_ptr<const T> load() const {
    std::scoped_lock lock(mutex_);
    return value_;
  }

  /// `next` takes the previous value, which is therefore released only
  /// after the mutex is unlocked.
  void store(std::shared_ptr<const T> next) {
    std::scoped_lock lock(mutex_);
    value_.swap(next);
  }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> value_;
};

/// Worker-count default for thread pools: the hardware concurrency, with
/// a floor of 1 (hardware_concurrency() may legally return 0).
inline unsigned default_worker_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

/// Injectable time source for deadline-bearing condition-variable waits.
///
/// wait_until() couples the clock to the wait: with the steady clock it
/// is a plain cv.wait_until, while a fake clock parks the waiter on the
/// Monitor's cv and reports a timeout only once *virtual* time has been
/// advanced past the deadline.  The caller must hold `lock` on
/// m.mutex (the usual cv contract) and, as with any condition variable,
/// treat a no_timeout return as possibly spurious and recheck state.
class ClockSource {
 public:
  using time_point = std::chrono::steady_clock::time_point;
  using duration = std::chrono::steady_clock::duration;

  virtual ~ClockSource() = default;

  virtual time_point now() const noexcept = 0;

  /// Wait on m.cv until notified or `deadline` passes by this clock.
  virtual std::cv_status wait_until(Monitor& m,
                                    std::unique_lock<std::mutex>& lock,
                                    time_point deadline) = 0;

  /// Drop any internal reference to `m` (fake clocks remember waiters'
  /// monitors so advance() can wake them); call before destroying a
  /// Monitor that ever waited on this clock.
  virtual void forget(Monitor& m) { (void)m; }
};

/// Production clock: std::chrono::steady_clock, real cv timed waits.
class SteadyClockSource final : public ClockSource {
 public:
  time_point now() const noexcept override {
    return std::chrono::steady_clock::now();
  }
  std::cv_status wait_until(Monitor& m, std::unique_lock<std::mutex>& lock,
                            time_point deadline) override {
    return m.cv.wait_until(lock, deadline);
  }
};

/// Shared process-wide steady clock (stateless, so one suffices).
inline ClockSource& steady_clock_source() noexcept {
  static SteadyClockSource clock;
  return clock;
}

/// Manually advanced clock for deterministic tests.  now() starts at an
/// arbitrary positive epoch and moves only via advance(), which also
/// wakes every Monitor that has ever waited on this clock so blocked
/// wait_until() calls re-evaluate their deadlines against the new time.
/// Thread-safe; must outlive anything it is injected into (or call
/// forget() first).
class FakeClock final : public ClockSource {
 public:
  time_point now() const noexcept override {
    return time_point(std::chrono::duration_cast<duration>(
        std::chrono::nanoseconds(nanos_.load(std::memory_order_acquire))));
  }

  std::cv_status wait_until(Monitor& m, std::unique_lock<std::mutex>& lock,
                            time_point deadline) override {
    // Register before the deadline check: an advance() that crosses the
    // deadline between the two only notifies already-watched monitors,
    // so checking first could park this thread past its deadline with
    // no wake ever coming.
    watch(m);
    if (now() >= deadline) return std::cv_status::timeout;
    // Releases m.mutex while parked; advance() locks m.mutex before
    // notifying, so a wake between the deadline check above and this
    // wait cannot be lost (the caller still holds m.mutex here).
    parked_.fetch_add(1, std::memory_order_acq_rel);
    m.cv.wait(lock);
    parked_.fetch_sub(1, std::memory_order_acq_rel);
    return now() >= deadline ? std::cv_status::timeout
                             : std::cv_status::no_timeout;
  }

  /// Threads currently parked inside wait_until().  Tests spin on this
  /// to rendezvous with a waiter that computes its deadline from now()
  /// *before* parking (e.g. bounded-wait admission), so an advance()
  /// cannot land between the two and shift the deadline under the test.
  int parked() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  /// Move virtual time forward and wake all watched monitors.
  void advance(duration d) {
    std::vector<Monitor*> watched;
    {
      std::scoped_lock lock(mutex_);
      nanos_.fetch_add(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
          std::memory_order_acq_rel);
      watched = watched_;
      ++advances_in_flight_;
    }
    for (Monitor* m : watched) {
      // Lock/unlock pairs the notify with any waiter between its
      // deadline check and cv.wait (both under m->mutex): the wake can
      // land only before the check (new time visible) or while parked.
      // The monitor's mutex cannot be taken while holding mutex_
      // (waiters call watch() under it -- lock inversion), so the
      // notify loop runs outside mutex_ over a snapshot; forget()
      // waits out in-flight advances before letting a Monitor go.
      { std::scoped_lock lock(m->mutex); }
      m->cv.notify_all();
    }
    {
      std::scoped_lock lock(mutex_);
      --advances_in_flight_;
    }
    advance_done_.notify_all();
  }

  /// Advance to an absolute virtual instant (no-op when `tp` is not in
  /// the future).  Arrival-process drivers (e.g. the serving chaos
  /// tests' inhomogeneous-Poisson load) work in absolute event times;
  /// this saves each call site the now()-subtraction and makes a
  /// replayed schedule idempotent under repeated advances.
  void advance_to(time_point tp) {
    const auto current = now();
    if (tp > current) advance(tp - current);
  }

  void forget(Monitor& m) override {
    std::unique_lock lock(mutex_);
    // An advance() may still be notifying from a snapshot that contains
    // this Monitor; wait it out so the caller can destroy the Monitor
    // the moment forget() returns.
    advance_done_.wait(lock, [&] { return advances_in_flight_ == 0; });
    watched_.erase(std::remove(watched_.begin(), watched_.end(), &m),
                   watched_.end());
  }

 private:
  void watch(Monitor& m) {
    std::scoped_lock lock(mutex_);
    if (std::find(watched_.begin(), watched_.end(), &m) == watched_.end()) {
      watched_.push_back(&m);
    }
  }

  // Start well above the epoch so deadline arithmetic near t0 cannot
  // underflow the (unsigned-rep-free but still finite) time_point.
  std::atomic<std::int64_t> nanos_{std::int64_t(1) << 40};  // ~18 minutes
  std::atomic<int> parked_{0};
  mutable std::mutex mutex_;          // guards watched_ / advances_in_flight_
  std::vector<Monitor*> watched_;
  int advances_in_flight_ = 0;
  std::condition_variable advance_done_;
};

}  // namespace radix
