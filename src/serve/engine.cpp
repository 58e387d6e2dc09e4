#include "serve/engine.hpp"

#include <exception>
#include <utility>

#include "support/error.hpp"

namespace radix::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t nanos_of(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

// The one place a DoneFn runs: an exception escaping a completion
// callback is the caller's bug, and must not take down the worker (and
// with it every other in-flight request) or the sweep delivering it.
void deliver(const DoneFn& done, std::span<const float> output,
             const RequestTiming& timing, std::exception_ptr error) noexcept {
  if (!done) return;
  try {
    done(output, timing, std::move(error));
  } catch (...) {
  }
}

BatcherOptions batcher_options(const EngineOptions& o) {
  BatcherOptions b;
  b.queue_capacity = o.queue_capacity;
  b.max_batch_rows = o.max_batch_rows;
  b.max_delay = o.max_delay;
  b.starvation_bound = o.starvation_bound;
  b.clock = o.clock;
  b.shed_capacity = o.shed_capacity;
  return b;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options), batcher_(batcher_options(options)) {
  RADIX_REQUIRE(options_.max_batch_rows > 0,
                "Engine: max_batch_rows must be > 0");
  models_.store(std::make_shared<const Registry>());
  worker_count_ =
      options_.workers == 0 ? default_worker_count() : options_.workers;
  try {
    for (unsigned i = 0; i < worker_count_; ++i) {
      workers_.spawn([this, i] { worker_loop(i); });
    }
  } catch (...) {
    // A failed spawn (e.g. thread-resource exhaustion) unwinds the
    // constructor, so ~Engine will not run: close the batcher here so
    // the already-started workers exit and ~ThreadGroup's joins return
    // instead of deadlocking.
    batcher_.close();
    throw;
  }
}

Engine::~Engine() { shutdown(); }

void Engine::publish_locked(ModelId id, std::shared_ptr<const ModelState> st) {
  const auto current = models_.load();
  auto next = std::make_shared<Registry>(*current);  // shallow slot copy
  if (id == next->size()) {
    next->push_back(std::move(st));
  } else {
    (*next)[id] = std::move(st);
  }
  models_.store(std::move(next));
}

ModelId Engine::add_model(std::shared_ptr<const infer::SparseDnn> model,
                          QosPolicy qos) {
  RADIX_REQUIRE(model != nullptr, "Engine: model must not be null");
  auto st = std::make_shared<ModelState>();
  st->dnn = std::move(model);
  st->input_width = st->dnn->input_width();
  st->output_width = st->dnn->output_width();
  st->stats = std::make_shared<StatsCollector>();
  // Registry publish and batcher queue creation must be one atomic
  // step: concurrent add_model calls interleaving between them would
  // hand out mismatched ids and route one model's traffic to another's
  // queue.  Lock order is models_mutex_ -> batcher monitor; no other
  // path nests the two.
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  // Batcher slot first: its validation (priority, weight, closed) can
  // throw, and throwing *after* the registry publish would leave the
  // two permanently desynced.  The reverse failure (publish throwing
  // after the slot exists) only leaves an unreachable empty queue,
  // which the scheduler skips.  The batcher resolves unset knobs to
  // the engine defaults.
  const ModelId id = reg->size();
  st->priority = qos.priority;
  const ModelId batcher_id = batcher_.add_model(qos);
  RADIX_ASSERT(batcher_id == id,
               "Engine: model registry and batcher out of sync");
  publish_locked(id, std::move(st));
  return id;
}

void Engine::remove_model(ModelId id) {
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  const auto& old = (*reg)[id];
  RADIX_REQUIRE(!old->retired, "Engine: model already removed");
  // Close admission for this model only, then serve out its backlog.
  // Workers make progress without models_mutex_ (they read the
  // snapshot), so holding it across the drain only serializes other
  // lifecycle calls -- exactly the intent.
  batcher_.retire_model(id);
  batcher_.drain_model(id);
  // Tombstone: weights released, stats retained so the id keeps
  // answering stats() with its history.
  auto st = std::make_shared<ModelState>(*old);
  st->dnn = nullptr;
  st->retired = true;
  publish_locked(id, std::move(st));
}

void Engine::swap_model(ModelId id,
                        std::shared_ptr<const infer::SparseDnn> dnn) {
  RADIX_REQUIRE(dnn != nullptr, "Engine: model must not be null");
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  const auto& old = (*reg)[id];
  RADIX_REQUIRE(!old->retired, "Engine: cannot swap a removed model");
  // Queued requests were size-validated against the current widths; a
  // version with different widths is a different model, not a swap.
  RADIX_REQUIRE_DIM(dnn->input_width() == old->input_width &&
                        dnn->output_width() == old->output_width,
                    "Engine::swap_model: version widths differ");
  auto st = std::make_shared<ModelState>(*old);  // shares the stats
  st->dnn = std::move(dnn);
  publish_locked(id, std::move(st));
  // Batches claimed from here on resolve the new snapshot; batches
  // already claimed finish on the version they resolved.  The old
  // version's weights free once its last in-flight batch drops them.
}

ModelId Engine::add_tombstone() {
  auto st = std::make_shared<ModelState>();
  st->stats = std::make_shared<StatsCollector>();
  st->retired = true;
  std::scoped_lock lock(models_mutex_);
  const auto reg = models_.load();
  const ModelId id = reg->size();
  const ModelId batcher_id = batcher_.add_model(QosPolicy{});
  RADIX_ASSERT(batcher_id == id,
               "Engine: model registry and batcher out of sync");
  batcher_.retire_model(id);
  publish_locked(id, std::move(st));
  return id;
}

bool Engine::model_retired(ModelId id) const { return state(id)->retired; }

void Engine::quiesce() { batcher_.quiesce(); }

unsigned Engine::num_workers() const noexcept { return worker_count_; }

std::shared_ptr<const Engine::ModelState> Engine::state(ModelId id) const {
  const auto reg = models_.load();
  RADIX_REQUIRE(id < reg->size(), "Engine: unknown model id");
  return (*reg)[id];
}

const infer::SparseDnn& Engine::model(ModelId id) const {
  const auto st = state(id);
  RADIX_REQUIRE(st->dnn != nullptr, "Engine: model was removed");
  return *st->dnn;
}

QosPolicy Engine::model_policy(ModelId id) const {
  (void)state(id);  // validates the id
  return batcher_.policy(id);
}

SubmitResult Engine::submit(InferenceRequest req, SubmitOptions opts) {
  // Id resolution is one snapshot load, never the registry mutex --
  // lifecycle publishes never stall the hot path.
  auto st = state(req.model);  // validates the id
  // A removed model is a known id whose service ended: rejection is a
  // value (like shutdown), not a caller bug.  The batcher's retired
  // flag is the race-free authority; this check just short-circuits.
  if (st->retired) return SubmitResult::rejected();
  RADIX_REQUIRE(req.rows == 0 || req.input.data() != nullptr,
                "Engine::submit: null input with rows > 0");
  RADIX_REQUIRE_DIM(
      req.input.size() ==
          static_cast<std::size_t>(req.rows) * st->input_width,
      "Engine::submit: input size != rows * input_width");

  const bool callback = static_cast<bool>(opts.done);
  // Every admitted request carries a process-wide trace identity: a
  // relay (router failover capsule) passes the one it already assigned
  // so all hops record under one id; direct callers get a fresh one.
  const RequestId rid =
      opts.trace_id != 0 ? opts.trace_id : next_request_id();
  Tracer* const tracer = options_.tracer;
  if (req.rows == 0) {
    // Nothing to batch: complete inline.  Admission still applies --
    // after shutdown the engine serves nothing, not even empties.
    if (!accepting() || batcher_.model_retired(req.model)) {
      return SubmitResult::rejected();
    }
    if (tracer) {
      const std::int64_t t = tracer->now_ns();
      tracer->record_at(t, rid, TraceEventKind::kSubmitted,
                        options_.shard_index,
                        static_cast<std::uint32_t>(req.model), st->priority,
                        0);
      tracer->record_at(t, rid, TraceEventKind::kCompleted,
                        options_.shard_index,
                        static_cast<std::uint32_t>(req.model), st->priority,
                        0);
    }
    RequestTiming timing;
    timing.request_id = rid;
    if (callback) {
      opts.done({}, timing, nullptr);
      return SubmitResult::admitted_callback(rid);
    }
    std::promise<std::vector<float>> p;
    p.set_value({});
    return SubmitResult::admitted_future(p.get_future(), rid);
  }

  Request r;
  r.id = rid;
  r.rows = req.rows;
  std::future<std::vector<float>> future;
  if (callback) {
    r.done = std::move(opts.done);
  } else {
    auto promise = std::make_shared<std::promise<std::vector<float>>>();
    future = promise->get_future();
    r.done = detail::promise_done(std::move(promise));
  }
  if (!req.storage.empty()) {
    r.owned = std::move(req.storage);
    r.input = r.owned.data();
  } else {
    r.input = req.input.data();
  }
  if (opts.deadline.count() != 0) {
    // Absolute end-to-end deadline, anchored at submit entry.  A
    // non-positive remaining budget (a failover relay that already
    // spent it) stamps a deadline in the past: admitted, then shed at
    // the first claim.
    r.deadline = batcher_.clock().now() + opts.deadline;
  }

  if (tracer) {
    tracer->record(rid, TraceEventKind::kSubmitted, options_.shard_index,
                   static_cast<std::uint32_t>(req.model), st->priority,
                   static_cast<std::uint32_t>(req.rows));
  }

  // Pressure-shed victims are handed back here and completed OUTSIDE
  // the batcher monitor -- the batcher never runs completions.
  MicroBatcher::ShedList shed;
  bool admitted = false;
  switch (opts.admission) {
    case Admission::kBlock:
      admitted = batcher_.submit(req.model, std::move(r), &shed);
      break;
    case Admission::kFailFast:
      admitted = batcher_.try_submit(req.model, std::move(r), &shed);
      break;
    case Admission::kBoundedWait: {
      // The admission wait composes with the e2e deadline: waiting past
      // the deadline could only admit a request that is already dead,
      // so the wait budget is capped at the remaining deadline.  A
      // pre-expired deadline (negative -- a relay with a spent budget)
      // degrades to try_submit: still admitted when there is space
      // (then shed at claim, preserving exactly-one-completion), but
      // never waited for.
      auto wait = opts.timeout;
      if (opts.deadline.count() < 0) {
        wait = std::chrono::microseconds{0};
      } else if (opts.deadline.count() > 0 && opts.deadline < wait) {
        wait = opts.deadline;
      }
      admitted = batcher_.submit_for(req.model, std::move(r), wait, &shed);
      break;
    }
  }
  if (tracer && admitted) {
    tracer->record(rid, TraceEventKind::kAdmitted, options_.shard_index,
                   static_cast<std::uint32_t>(req.model), st->priority,
                   static_cast<std::uint32_t>(req.rows));
  }
  if (!shed.empty()) {
    const auto now = batcher_.clock().now();
    for (auto& [model, victim] : shed) {
      complete_unserved(Unserved::kShed, model, victim, now);
    }
  }
  if (!admitted) return SubmitResult::rejected();
  return callback ? SubmitResult::admitted_callback(rid)
                  : SubmitResult::admitted_future(std::move(future), rid);
}

void Engine::complete_unserved(Unserved why, std::size_t model,
                               const Request& r, ClockSource::time_point now) {
  const auto st = state(model);
  RequestTiming timing;
  timing.queue_seconds = seconds_between(r.submitted, now);
  timing.total_seconds = timing.queue_seconds;
  timing.request_id = r.id;
  // An unserved request IS a completed request of this engine: it counts
  // into requests and errors, and its wait lands in the latency tails.
  // Recorded before the completion runs, like a served one.
  std::exception_ptr error;
  switch (why) {
    case Unserved::kShed:
      st->stats->record_shed(timing.queue_seconds, timing.total_seconds,
                             /*expired=*/false);
      error = std::make_exception_ptr(
          DeadlineExceededError("request shed under queue pressure"));
      break;
    case Unserved::kExpired:
      st->stats->record_shed(timing.queue_seconds, timing.total_seconds,
                             /*expired=*/true);
      error = std::make_exception_ptr(DeadlineExceededError(
          "end-to-end deadline passed before the request was claimed"));
      break;
    case Unserved::kAborted:
      // The shard's own ledger records the abort as an error even when a
      // router retry later serves the request elsewhere: per-shard stats
      // count what THIS engine did with its admissions.  No trace event:
      // the router's kFailover (or the caller's error) tells that story.
      st->stats->record_request(timing.queue_seconds, timing.total_seconds,
                                /*error=*/true);
      error = std::make_exception_ptr(
          AbortedError("engine aborted before the request was claimed"));
      break;
  }
  if (options_.tracer && why != Unserved::kAborted) {
    options_.tracer->record_at(
        nanos_of(now), r.id,
        why == Unserved::kShed ? TraceEventKind::kShed
                               : TraceEventKind::kExpired,
        options_.shard_index, static_cast<std::uint32_t>(model),
        st->priority, static_cast<std::uint32_t>(r.rows));
  }
  deliver(r.done, {}, timing, std::move(error));
}

ServeStats Engine::stats(ModelId id) const {
  return state(id)->stats->snapshot();
}

ServeStats Engine::class_stats(Priority p) const {
  RADIX_REQUIRE(static_cast<std::size_t>(p) < kNumPriorities,
                "Engine: invalid priority class");
  // Derived from the per-model ledgers: retired slots keep their
  // collectors, so a removed model's history stays in its class.
  const auto reg = models_.load();
  ServeStats merged;
  for (const auto& st : *reg) {
    if (st->priority == p) merged.merge(st->stats->snapshot());
  }
  return merged;
}

std::size_t Engine::pending(ModelId id) const {
  return batcher_.pending(id);  // validates id under the monitor alone
}

std::size_t Engine::stop(bool abort_queued) {
  std::size_t orphaned = 0;
  std::call_once(shutdown_once_, [&] {
    if (!abort_queued) {
      batcher_.close();     // refuse new work; queued stays claimable
      workers_.join_all();  // workers exit once every queue has drained
      return;
    }
    // Crash-shaped stop: extract everything still queued, fail it with
    // AbortedError so a failover layer can resubmit, and let claimed
    // batches finish.  Orphans are completed BEFORE joining the
    // workers: their completions (a router's resubmit-elsewhere) must
    // not wait on in-flight forward passes here.
    auto orphans = batcher_.abort();
    orphaned = orphans.size();
    const auto now = batcher_.clock().now();
    for (auto& [model, r] : orphans) {
      complete_unserved(Unserved::kAborted, model, r, now);
    }
    workers_.join_all();
  });
  return orphaned;
}

void Engine::shutdown() { stop(false); }

std::size_t Engine::abort() { return stop(true); }

bool Engine::accepting() const { return !batcher_.closed(); }

void Engine::worker_loop(std::size_t worker_index) {
  (void)worker_index;  // worker identity only matters for debugging now
  infer::InferenceWorkspace workspace;
  BatchAssembly assembly;
  MicroBatcher::Batch batch;
  ClockSource& clock = batcher_.clock();

  Tracer* const tracer = options_.tracer;
  const std::uint16_t shard = options_.shard_index;

  while (batcher_.next(batch)) {
    // One snapshot resolve per claimed batch: every row of this batch
    // is served by this version, so a swap can never split a batch.
    const auto st = state(batch.model);
    const auto claimed = clock.now();
    const std::uint32_t model32 = static_cast<std::uint32_t>(batch.model);
    // The claim timestamp is taken once and reused for every member
    // request's claim-stage events.
    const std::int64_t t_claim = tracer ? nanos_of(claimed) : 0;

    // Requests whose end-to-end deadline passed before this claim are
    // completed FIRST -- before any injected latency or forward work --
    // with DeadlineExceededError.  They never touch a workspace; their
    // only cost was queue residency.
    for (const Request& r : batch.expired) {
      complete_unserved(Unserved::kExpired, batch.model, r, claimed);
    }
    if (batch.rows == 0) {
      // Pure-expired claim: nothing live to serve.
      batcher_.batch_complete(batch.model);
      continue;
    }
    if (tracer) {
      for (const Request& r : batch.requests) {
        tracer->record_at(t_claim, r.id, TraceEventKind::kClaimed, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(r.rows));
        // kBatched carries the COALESCED size: the batch this request
        // rode in, not its own rows.
        tracer->record_at(t_claim, r.id, TraceEventKind::kBatched, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(batch.rows));
      }
    }
    busy_workers_.fetch_add(1, std::memory_order_relaxed);

    const float* input = assembly.assemble(batch, st->input_width);
    if (tracer) {
      // One stamp for the whole batch: every member request entered
      // the forward pass at the same instant.
      const std::int64_t t_fwd = tracer->now_ns();
      for (const Request& r : batch.requests) {
        tracer->record_at(t_fwd, r.id, TraceEventKind::kForwardBegin, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(batch.rows));
      }
    }
    infer::InferenceStats fstats;
    std::span<const float> y;
    std::exception_ptr error;
    // Fault-injection seam: added latency (a virtual wait under a
    // FakeClock) models a slow shard; an injected throw fails the whole
    // batch through the normal forward-error path below.
    if (options_.fault) {
      try {
        options_.fault->on_batch(clock);
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (!error) {
      try {
        y = st->dnn->forward(input, batch.rows, workspace, &fstats);
      } catch (...) {
        error = std::current_exception();
      }
    }
    const auto finished = clock.now();
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    const std::int64_t t_done = tracer ? nanos_of(finished) : 0;

    // Record stats BEFORE delivering completions: a caller that wakes
    // on its future and immediately reads stats() must already see its
    // own request counted.  The model's collector is the one ledger;
    // class_stats() is derived from it.
    if (!error) {
      st->stats->record_batch(batch.rows, fstats.edges_processed,
                              fstats.wall_seconds);
    }
    // Latencies anchor at `submitted` (submit entry), not `enqueued`
    // (admission), so time spent blocked on a full queue is reported.
    for (const Request& r : batch.requests) {
      st->stats->record_request(seconds_between(r.submitted, claimed),
                                seconds_between(r.submitted, finished),
                                error != nullptr);
    }

    // Scatter per-request output rows back to callers: requests were
    // concatenated in FIFO order, so request i's rows are a contiguous
    // sub-span of the batch output.
    std::size_t row0 = 0;
    for (Request& r : batch.requests) {
      if (tracer) {
        tracer->record_at(t_done, r.id, TraceEventKind::kForwardEnd, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(batch.rows));
        tracer->record_at(t_done, r.id, TraceEventKind::kCompleted, shard,
                          model32, batch.priority,
                          static_cast<std::uint32_t>(r.rows));
      }
      RequestTiming timing;
      timing.queue_seconds = seconds_between(r.submitted, claimed);
      timing.total_seconds = seconds_between(r.submitted, finished);
      timing.batch_rows = batch.rows;
      timing.request_id = r.id;
      std::span<const float> rows_out;
      if (!error) {
        rows_out = y.subspan(row0 * st->output_width,
                             static_cast<std::size_t>(r.rows) *
                                 st->output_width);
      }
      deliver(r.done, rows_out, timing, error);
      row0 += r.rows;
    }
    // Claim retired: what remove_model's drain and quiesce() wait on.
    batcher_.batch_complete(batch.model);
  }
}

unsigned Engine::busy_workers() const noexcept {
  return busy_workers_.load(std::memory_order_relaxed);
}

}  // namespace radix::serve
