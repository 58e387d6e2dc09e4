// In-process serving engine: dynamic micro-batching over the fused
// sparse inference path, with per-model QoS.
//
// radix::serve::Engine turns SparseDnn + InferenceWorkspace (PR 2's
// single-call fast path) into a traffic-serving subsystem: many client
// threads submit small asynchronous requests; the engine coalesces them
// into large contiguous batches (serve/batcher.hpp) and runs each batch
// through the fused forward pass on a worker pool, so per-request
// traffic reaches the edges/second the Graph-Challenge batch benchmarks
// demonstrate -- while latency-sensitive models stay fast under mixed
// load via priority classes (serve/qos.hpp).
//
// Engine is one shard of a ShardRouter (serve/router.hpp), which drives
// it: the router is the Backend (serve/backend.hpp) callers see, and
// its registry is the only place a model has a name or a version.  An
// engine knows its models by dense id alone -- the router keeps every
// shard's id space in lockstep -- and its submit surface is the one
// entry point over the front-end types of serve/request.hpp.
//
//   Engine engine({.workers = 2, .max_batch_rows = 64,
//                  .max_delay = std::chrono::microseconds(200)});
//   auto chat = engine.add_model(chat_dnn,
//       {.priority = Priority::kInteractive, .weight = 4,
//        .max_delay = std::chrono::microseconds(50)});
//   auto fut = engine.submit(InferenceRequest::borrowed(chat, row, 1))
//                  .take_future();
//   ... fut.get() ...                   // [1 x output_width]
//   engine.submit(InferenceRequest::owned(chat, std::move(buf), n),
//                 {.admission = Admission::kFailFast, .done = cb});
//   engine.stats(chat);                 // per-model edges/s, p99s
//   engine.class_stats(Priority::kInteractive);  // merge over the class
//   engine.shutdown();                  // drains in-flight requests
//
// Design notes
// ------------
//   * One engine serves multiple models: per-model bounded request
//     queues (backpressure on submit), shared worker pool, QoS claim
//     policy across models (strict priority between classes, weighted
//     fairness within a class, starvation bound for background work --
//     see serve/batcher.hpp).
//   * Admission is SubmitOptions::admission: kBlock parks the caller on
//     a full queue (backpressure), kFailFast rejects immediately and
//     kBoundedWait gives up after `timeout` -- so a latency-sensitive
//     caller is never parked indefinitely behind a backlogged model.
//     Rejection (including after shutdown) is reported through
//     SubmitResult::admitted(), never thrown; exceptions are reserved
//     for caller bugs (unknown model, input size mismatch).
//   * Each worker owns a persistent InferenceWorkspace and a growth-only
//     batch staging buffer, so the steady-state serving path performs no
//     heap allocation beyond the per-request future/callback plumbing.
//   * Each admitted request is stored once (its model's queue in the
//     batcher), recorded once (its model's StatsCollector -- the class
//     view is a merge of those) and completed once: by the worker that
//     served it, or through the one unserved exit (pressure shed,
//     expired deadline, abort orphan).  A throwing DoneFn is swallowed
//     at the one place completions run.
//   * Completion runs on the worker thread: callback completion
//     (SubmitOptions::done) gets a zero-copy span into the batch output
//     panel; future completion copies the request's rows out.  Batch
//     rows are independent under the challenge forward rule, so results
//     are bit-identical to a direct forward of the same rows regardless
//     of how requests coalesce.
//   * shutdown() (and the destructor) closes the queues, lets workers
//     drain every queued request, then joins -- no request is ever
//     dropped: once submit() has reported admitted, completion is
//     guaranteed.  abort() is the crash-shaped stop for failover
//     layers: queued-but-unclaimed requests complete exceptionally with
//     AbortedError (so a router can resubmit them elsewhere), claimed
//     batches still finish.
//   * The model registry is copy-on-write: submit()/stats()/workers
//     copy a snapshot pointer (support/thread.hpp's Snapshot), so the
//     lifecycle calls -- add_model, remove_model, swap_model -- publish
//     under a mutation mutex without ever blocking the submit hot
//     path.  A batch is always served whole by one version (workers
//     resolve the snapshot once per claimed batch).
//   * Time is injectable (EngineOptions::clock): tests drive the
//     coalescing deadlines and latency stats with a FakeClock.
//   * The engine keeps ledgers and live gauges but exports nothing
//     itself: the ShardRouter (serve/router.hpp) is the one metrics
//     exporter, and builds each shard's series from class_stats(),
//     pending(), num_workers() and busy_workers().
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "serve/batcher.hpp"
#include "serve/fault.hpp"
#include "serve/qos.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "serve/trace.hpp"
#include "support/thread.hpp"

namespace radix::serve {

struct EngineOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned workers = 0;
  /// Default row budget of one coalesced batch.  Large batches amortize
  /// kernel and dispatch overhead (the challenge regime); a lone larger
  /// request still runs in one piece.
  index_t max_batch_rows = 64;
  /// Default coalescing window: how long a claimed request may wait for
  /// co-batched company, from its enqueue time.  0 disables coalescing
  /// waits (ship what's queued).
  std::chrono::microseconds max_delay{200};
  /// Pending-request bound per model; what a full queue does to submit
  /// is SubmitOptions::admission.
  std::size_t queue_capacity = 1024;
  /// A backlogged lower class is served after being passed over this
  /// many consecutive claims (>= 1).
  std::uint64_t starvation_bound = 16;
  /// Time source for deadlines and latency stats; nullptr = steady
  /// clock.  Tests inject a FakeClock for deterministic assertions.
  ClockSource* clock = nullptr;
  /// Overload bound on TOTAL queued requests across this engine's
  /// models (0 = unbounded, the pre-PR-7 behavior).  When an admission
  /// would exceed it, the batcher sheds the newest queued request of
  /// the lowest-priority backlogged class below the incoming one (the
  /// incoming request itself when no such class is backlogged); shed
  /// requests complete with DeadlineExceededError and count into the
  /// per-model / per-class `shed` counters.  See serve/batcher.hpp.
  std::size_t shed_capacity = 0;
  /// Fault-injection seam: when set, every worker calls
  /// fault->on_batch(clock) after claiming a batch and before running
  /// it -- added latency models a slow shard, injected failures
  /// complete the batch's requests with FaultInjectedError.  The
  /// injector must outlive the engine.  See serve/fault.hpp.
  FaultInjector* fault = nullptr;
  /// Request-tracing sink (serve/trace.hpp); nullptr (the default)
  /// disables tracing at the cost of one pointer test per would-be
  /// event.  A ShardRouter shares ONE tracer across its shards; the
  /// tracer must outlive the engine and should stamp with the same
  /// clock as `clock` or timelines mix epochs.
  Tracer* tracer = nullptr;
  /// Shard label stamped into every trace event this engine emits; a
  /// ShardRouter sets it to the shard's fleet index.
  std::uint16_t shard_index = 0;
};

class Engine final {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();  // shutdown() if still running

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a model under the next dense id, which addresses
  /// submit()/stats().  `qos` sets its service class / weight / knob
  /// overrides (unset fields inherit the engine defaults).  Safe to
  /// call while traffic is served.
  ModelId add_model(std::shared_ptr<const infer::SparseDnn> model,
                    QosPolicy qos = {});

  /// Retire a model without dropping traffic: admission for `id` closes
  /// immediately (subsequent submits are rejected as a value, blocked
  /// submitters wake rejected), everything already admitted is served,
  /// and on return the model's weights are released.  The id is never
  /// reused and keeps answering stats() with the model's history.  Safe
  /// while traffic is served.
  void remove_model(ModelId id);

  /// Cut `id` over to a new version of the model without a gap in
  /// service.  The new version must have the same input/output widths
  /// (queued requests were validated against them).  The copy-on-write
  /// publish never blocks submit: requests claimed after swap_model
  /// returns are served by the new version, batches claimed earlier
  /// finish on the version they started with -- a batch is never split
  /// across versions.
  void swap_model(ModelId id, std::shared_ptr<const infer::SparseDnn> dnn);

  /// Burn one model id: appends a permanently retired slot (no model,
  /// rejects submits) and returns its id.  The router uses this to keep
  /// per-shard id spaces in lockstep: when a multi-shard registration
  /// fails partway and is rolled back (see ShardRouter::add_model), and
  /// when a rebuilt shard replays a retired id.
  ModelId add_tombstone();

  /// Crash-shaped stop for failover layers: close admission, fail every
  /// queued-but-unclaimed request with AbortedError (recorded as errors
  /// in the stats), let claimed batches finish, join the workers.  The
  /// orphaned requests' completions run inside this call -- a router
  /// resubmits them to healthy shards before abort() returns.  Returns
  /// how many requests it orphaned.  Idempotent with shutdown():
  /// whichever runs first wins (a later call orphans nothing).
  std::size_t abort();

  /// True until remove_model(id) (add_tombstone slots are born retired).
  bool model_retired(ModelId id) const;

  /// Block until every queue is empty and every claimed batch has
  /// completed.  Does not stop admission -- an ops-level "wait for the
  /// backlog to clear" used by graceful shard drain.
  void quiesce();

  unsigned num_workers() const noexcept;
  const infer::SparseDnn& model(ModelId id) const;

  /// The fully resolved QoS policy a model is served under: each
  /// QosPolicy field the model set, else the engine default.
  QosPolicy model_policy(ModelId id) const;

  /// Aggregate counters for one service class: the merge of stats(id)
  /// over every id of that class, removed ones included.
  ServeStats class_stats(Priority p) const;

  /// Workers currently inside a claimed batch (fault seam + forward +
  /// completion delivery), over num_workers() = the busy fraction.
  unsigned busy_workers() const noexcept;

  /// THE submit entry point (see serve/request.hpp for the request /
  /// options vocabulary and the admission semantics).
  SubmitResult submit(InferenceRequest req, SubmitOptions opts = {});

  /// Current counters for one model (cheap, thread-safe).
  ServeStats stats(ModelId id) const;

  /// Requests queued (not yet claimed) for one model.  Takes only the
  /// batcher monitor -- no registry snapshot -- because ShardRouter's
  /// two-choice pick calls it twice per routed request.
  std::size_t pending(ModelId id) const;

  /// Stop accepting requests, serve everything already queued, join the
  /// workers.  Idempotent; called by the destructor.
  void shutdown();

  bool accepting() const;

 private:
  // One model VERSION.  Instances are immutable once published (the
  // stats collector is internally synchronized and shared across
  // versions of the same id), so snapshot readers never need a lock.
  struct ModelState {
    std::shared_ptr<const infer::SparseDnn> dnn;  // null once retired
    index_t input_width = 0;
    index_t output_width = 0;
    std::shared_ptr<StatsCollector> stats;  // survives swap/remove
    bool retired = false;
    /// Service class, duplicated from the batcher policy so trace
    /// stamping and class_stats read it off the registry snapshot
    /// instead of taking the batcher monitor.
    Priority priority = Priority::kBatch;
  };

  // The copy-on-write registry: readers load the current snapshot
  // (submit hot path, workers, observers); mutators copy the
  // vector under models_mutex_, edit one slot, and publish.  ModelId is
  // the slot index and is never reused.
  using Registry = std::vector<std::shared_ptr<const ModelState>>;

  std::shared_ptr<const ModelState> state(ModelId id) const;
  /// Copy-edit-publish helper; caller holds models_mutex_.
  void publish_locked(ModelId id, std::shared_ptr<const ModelState> st);

  /// Why an admitted request leaves without being served.
  enum class Unserved : std::uint8_t {
    kShed,     ///< pressure-shed at admission (DeadlineExceededError)
    kExpired,  ///< deadline passed before claim (DeadlineExceededError)
    kAborted,  ///< queued when abort() ran (AbortedError)
  };
  /// The one exit for unserved requests: record `r` on its model's
  /// ledger (queue wait == e2e == now - submitted), trace kShed /
  /// kExpired (aborts leave no event), then run its completion with the
  /// reason's error.  Runs outside the batcher monitor.
  void complete_unserved(Unserved why, std::size_t model, const Request& r,
                         ClockSource::time_point now);
  /// Shared body of shutdown() / abort(); returns the orphan count.
  std::size_t stop(bool abort_queued);
  void worker_loop(std::size_t worker_index);

  EngineOptions options_;
  MicroBatcher batcher_;

  mutable std::mutex models_mutex_;  // serializes registry mutations
  Snapshot<Registry> models_;

  // Live gauge behind busy_workers(): workers inside a claimed batch.
  std::atomic<unsigned> busy_workers_{0};

  ThreadGroup workers_;
  unsigned worker_count_ = 0;
  std::once_flag shutdown_once_;
};

}  // namespace radix::serve
