#include "serve/router.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <span>
#include <utility>

#include "support/error.hpp"

namespace radix::serve {

namespace {

constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

// splitmix64 finalizer: one multiply-shift mix per draw, statistically
// ample for shard picks and cheap enough to sit on the submit path.
inline std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Draw i of a (thread, seed) stream: mixing the router seed into every
// draw (rather than into thread-local seeded-once state) keeps two
// routers with different seeds on different sequences even when one
// thread submits through both, and concurrent submitters never contend
// on shared RNG state.
std::uint64_t thread_random(std::uint64_t seed) noexcept {
  static std::atomic<std::uint64_t> stream{0};
  thread_local const std::uint64_t thread_salt =
      mix64(stream.fetch_add(1, std::memory_order_relaxed) +
            0x9e3779b97f4a7c15ull);
  thread_local std::uint64_t counter = 0;
  counter += 0x9e3779b97f4a7c15ull;
  return mix64(seed ^ thread_salt ^ counter);
}

}  // namespace

// The failover capsule: one heap object per routed request, shared by
// the submit path and every retry.  It pins the input rows (owning them
// outright when the caller submitted an owned request) so the shards
// can always be handed a borrowed view -- a resubmit after shard death
// needs the bytes to still exist.  `tried` is a bitmap of shard indices
// this request has been offered to (hence the <= 64 shard bound): a
// request is offered to each shard at most once, which bounds the retry
// chain and guarantees failover terminates.  No lock: the bitmap is
// only touched by whichever single thread currently owns the capsule
// (the submitter, then at most one completion at a time), with the
// shard queue's monitor ordering the handoffs.
struct ShardRouter::Relay {
  ModelId model = 0;
  index_t rows = 0;
  /// The request's trace identity, assigned ONCE at router submit and
  /// handed to every shard tried (SubmitOptions::trace_id), so the
  /// events of all failover hops land under one timeline.
  RequestId id = 0;
  std::vector<float> owned;      // backs `input` for owned submissions
  std::span<const float> input;  // what every shard sees (borrowed)
  DoneFn done;                   // the caller's completion, run exactly once
  // The caller's ORIGINAL budgets, anchored at `t0` (router submit
  // entry).  Each dispatch -- first try and every failover resubmission
  // alike -- deducts the elapsed time and hands the shard only what
  // remains: a request that already burned 80 of its 100 ms on a shard
  // that died must not get a fresh 100 ms elsewhere.
  std::chrono::microseconds timeout{0};
  std::chrono::microseconds deadline{0};
  ClockSource::time_point t0{};
  std::uint64_t tried = 0;
};

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)) {
  RADIX_REQUIRE(options_.shards >= 1 && options_.shards <= 64,
                "ShardRouter: shards must be in [1, 64]");
  clock_ = options_.engine.clock ? options_.engine.clock
                                 : &steady_clock_source();
  auto f = std::make_shared<Fleet>();
  f->engines.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    f->engines.push_back(std::make_shared<Engine>(shard_options(s)));
  }
  f->health.assign(options_.shards, ShardHealth::kUp);
  f->healthy.resize(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) f->healthy[s] = s;
  fleet_.store(std::move(f), std::memory_order_release);
}

ShardRouter::~ShardRouter() { shutdown(); }

std::shared_ptr<const ShardRouter::Fleet> ShardRouter::fleet() const {
  return fleet_.load(std::memory_order_acquire);
}

std::shared_ptr<ShardRouter::Fleet> ShardRouter::clone_fleet_locked() const {
  return std::make_shared<Fleet>(*fleet());
}

void ShardRouter::publish_locked(std::shared_ptr<Fleet> next) {
  next->healthy.clear();
  for (std::size_t s = 0; s < next->health.size(); ++s) {
    if (next->health[s] == ShardHealth::kUp) next->healthy.push_back(s);
  }
  fleet_.store(std::shared_ptr<const Fleet>(std::move(next)),
               std::memory_order_release);
}

ModelId ShardRouter::add_model(std::shared_ptr<const infer::SparseDnn> model,
                               std::string name, QosPolicy qos) {
  RADIX_REQUIRE(model != nullptr, "ShardRouter: model must not be null");
  // Run every validation that can legitimately throw BEFORE the
  // registration loop; the shards re-check, but by then a throw means
  // rollback work instead of a clean refusal.
  RADIX_REQUIRE(static_cast<std::size_t>(qos.priority) < kNumPriorities,
                "ShardRouter: invalid priority class");
  RADIX_REQUIRE(qos.weight >= 1, "ShardRouter: weight must be >= 1");
  // The router names the model itself (rather than letting each shard
  // generate a default) so every shard registers the SAME name and
  // find_model agrees between router and shards.  admin_mutex_ makes
  // concurrent add_model calls atomic across shards -- ids stay in
  // lockstep.
  std::scoped_lock lock(admin_mutex_);
  RADIX_REQUIRE(!shutdown_, "ShardRouter: add_model after shutdown");
  const ModelId id = registry_.size();
  name = detail::resolve_model_name(
      std::move(name), id,
      [&](const std::string& n) {
        for (const auto& e : registry_) {
          if (!e.retired && e.name == n) return true;
        }
        return false;
      },
      "ShardRouter");
  // Down shards are skipped: restart_shard replays the registry into
  // their replacements, so they pick this model up then.
  const auto f = fleet();  // engines are stable under admin_mutex_
  std::vector<std::size_t> registered;
  registered.reserve(f->engines.size());
  try {
    for (std::size_t s = 0; s < f->engines.size(); ++s) {
      if (f->health[s] == ShardHealth::kDown) continue;
      if (options_.registration_hook) options_.registration_hook(s, id);
      const ModelId shard_id = f->engines[s]->add_model(model, name, qos);
      RADIX_ASSERT(shard_id == id, "ShardRouter: shard ids out of sync");
      registered.push_back(s);
    }
  } catch (...) {
    // All-or-nothing: unwind the shards that did register and burn the
    // id on the ones that did not, so every shard's next id is the same
    // again.  remove_model leaves a tombstone at `id` (engine ids are
    // never reused); add_tombstone creates the same tombstone on the
    // untouched shards.  The registry records the burned id so restart
    // replays it too.
    for (std::size_t s = 0; s < f->engines.size(); ++s) {
      if (f->health[s] == ShardHealth::kDown) continue;
      const bool got = std::find(registered.begin(), registered.end(), s) !=
                       registered.end();
      if (got) {
        f->engines[s]->remove_model(id);
      } else {
        const ModelId t = f->engines[s]->add_tombstone();
        RADIX_ASSERT(t == id, "ShardRouter: shard ids out of sync");
      }
    }
    ModelEntry burned;
    burned.retired = true;
    registry_.push_back(std::move(burned));
    throw;
  }
  ModelEntry entry;
  entry.dnn = std::move(model);
  entry.name = std::move(name);
  entry.qos = qos;
  registry_.push_back(std::move(entry));
  return id;
}

void ShardRouter::remove_model(ModelId id) {
  std::scoped_lock lock(admin_mutex_);
  RADIX_REQUIRE(id < registry_.size(), "ShardRouter: unknown model id");
  RADIX_REQUIRE(!registry_[id].retired, "ShardRouter: model already removed");
  const auto f = fleet();
  for (std::size_t s = 0; s < f->engines.size(); ++s) {
    if (f->health[s] == ShardHealth::kDown) continue;
    f->engines[s]->remove_model(id);
  }
  registry_[id].retired = true;
  registry_[id].dnn = nullptr;  // release the weights
}

void ShardRouter::swap_model(ModelId id,
                             std::shared_ptr<const infer::SparseDnn> dnn) {
  RADIX_REQUIRE(dnn != nullptr, "ShardRouter: model must not be null");
  // One prewarm before ANY shard cuts over: the transpose caches live
  // on the shared SparseDnn, so each shard's own prewarm (inside
  // Engine::swap_model) finds them already built.
  dnn->prewarm();
  std::scoped_lock lock(admin_mutex_);
  RADIX_REQUIRE(id < registry_.size(), "ShardRouter: unknown model id");
  RADIX_REQUIRE(!registry_[id].retired,
                "ShardRouter: cannot swap a removed model");
  const auto f = fleet();
  for (std::size_t s = 0; s < f->engines.size(); ++s) {
    if (f->health[s] == ShardHealth::kDown) continue;
    // The first shard validates the version's shape; with one dnn for
    // every shard a later-shard failure is impossible, so the cutover
    // is all-or-nothing in practice.
    f->engines[s]->swap_model(id, dnn);
  }
  registry_[id].dnn = std::move(dnn);
  ++registry_[id].version;
}

ShardRouter::ModelEntry ShardRouter::model_entry(ModelId id) const {
  std::scoped_lock lock(admin_mutex_);
  RADIX_REQUIRE(id < registry_.size(), "ShardRouter: unknown model id");
  return registry_[id];
}

std::vector<ShardRouter::ModelEntry> ShardRouter::models() const {
  std::scoped_lock lock(admin_mutex_);
  return registry_;
}

std::size_t ShardRouter::num_shards() const noexcept {
  return fleet()->engines.size();
}

const Engine& ShardRouter::shard(std::size_t index) const {
  const auto f = fleet();
  RADIX_REQUIRE(index < f->engines.size(), "ShardRouter: unknown shard");
  return *f->engines[index];
}

ShardHealth ShardRouter::shard_health(std::size_t index) const {
  const auto f = fleet();
  RADIX_REQUIRE(index < f->health.size(), "ShardRouter: unknown shard");
  return f->health[index];
}

void ShardRouter::drain_shard(std::size_t index) {
  std::scoped_lock lock(admin_mutex_);
  const auto f = fleet();
  RADIX_REQUIRE(index < f->engines.size(), "ShardRouter: unknown shard");
  RADIX_REQUIRE(f->health[index] != ShardHealth::kDown,
                "ShardRouter: cannot drain a down shard");
  if (f->health[index] == ShardHealth::kUp) {
    auto next = clone_fleet_locked();
    next->health[index] = ShardHealth::kDraining;
    publish_locked(std::move(next));
  }
  // Out of rotation; now wait out the backlog.  Submitters holding a
  // pre-publish snapshot can still land one more request each -- drain
  // empties what has arrived, it does not fence the route.
  f->engines[index]->quiesce();
}

void ShardRouter::kill_shard(std::size_t index) {
  std::scoped_lock lock(admin_mutex_);
  const auto f = fleet();
  RADIX_REQUIRE(index < f->engines.size(), "ShardRouter: unknown shard");
  if (f->health[index] == ShardHealth::kDown) return;  // idempotent
  // Out of rotation FIRST: the failover resubmissions triggered by the
  // abort below load the fleet snapshot and must not route back onto
  // the shard being killed.
  auto next = clone_fleet_locked();
  next->health[index] = ShardHealth::kDown;
  publish_locked(std::move(next));
  // Orphaned requests complete inside abort() with AbortedError; the
  // capsule completion catches it and resubmits on a healthy shard, so
  // by the time abort returns every orphan is queued elsewhere.
  f->engines[index]->abort();
  // abort() has joined the workers, so the dead engine's stats are
  // final: fold them into the carried accumulator.  From here on the
  // router reads only live engines -- a killed engine never learns of
  // models added after its death and must not be asked about them.
  std::scoped_lock stats_lock(carried_mutex_);
  if (carried_.size() < registry_.size()) carried_.resize(registry_.size());
  for (ModelId m = 0; m < registry_.size(); ++m) {
    carried_[m].merge(f->engines[index]->stats(m));
  }
}

void ShardRouter::restart_shard(std::size_t index) {
  std::scoped_lock lock(admin_mutex_);
  const auto f = fleet();
  RADIX_REQUIRE(index < f->engines.size(), "ShardRouter: unknown shard");
  switch (f->health[index]) {
    case ShardHealth::kUp:
      return;  // idempotent
    case ShardHealth::kDraining: {
      // The engine never stopped; just put it back in rotation.
      auto next = clone_fleet_locked();
      next->health[index] = ShardHealth::kUp;
      publish_locked(std::move(next));
      return;
    }
    case ShardHealth::kDown:
      break;
  }
  // kill_shard already carried the dead engine's stats; drop it.
  auto engine = std::make_shared<Engine>(shard_options(index));
  replay_registry_locked(*engine);
  auto next = clone_fleet_locked();
  next->engines[index] = std::move(engine);
  next->health[index] = ShardHealth::kUp;
  publish_locked(std::move(next));
}

EngineOptions ShardRouter::shard_options(std::size_t index) const {
  EngineOptions eo = options_.engine;
  if (options_.tune_shard) options_.tune_shard(index, eo);
  RADIX_REQUIRE(eo.clock == options_.engine.clock,
                "ShardRouter: tune_shard must not change the clock");
  RADIX_REQUIRE(eo.tracer == options_.engine.tracer,
                "ShardRouter: tune_shard must not change the tracer");
  // The router owns shard identity: events and metric labels from this
  // engine carry its fleet index regardless of the template's value.
  eo.shard_index = static_cast<std::uint16_t>(index);
  return eo;
}

void ShardRouter::replay_registry_locked(Engine& engine) const {
  for (ModelId id = 0; id < registry_.size(); ++id) {
    const ModelEntry& e = registry_[id];
    if (e.retired) {
      // Removed models and rollback-burned ids alike: the slot exists,
      // rejects traffic, and keeps the id space in lockstep.
      const ModelId t = engine.add_tombstone();
      RADIX_ASSERT(t == id, "ShardRouter: replayed ids out of sync");
      continue;
    }
    const ModelId got = engine.add_model(e.dnn, e.name, e.qos);
    RADIX_ASSERT(got == id, "ShardRouter: replayed ids out of sync");
    // Replay the swap count so the rebuilt shard reports the same
    // model_version as its siblings (the dnn is already the current
    // version; the transpose caches are shared, so this is cheap).
    for (std::uint32_t v = 1; v < e.version; ++v) {
      engine.swap_model(id, e.dnn);
    }
  }
}

std::uint64_t ShardRouter::failovers() const noexcept {
  return failovers_.load(std::memory_order_relaxed);
}

std::size_t ShardRouter::pick_shard(const Fleet& fleet, ModelId model) const {
  const auto& h = fleet.healthy;
  if (h.empty()) return kNoShard;
  if (h.size() == 1) return h.front();
  // Power of two choices over the in-rotation shards: probe two
  // DISTINCT random shards, take the one with the shorter queue for
  // this model (ties go to the first).  Both positions come from
  // bias-free bounded draws (detail::bounded_draw); the second draw
  // re-mixes the first so the pair is decorrelated without a second
  // RNG stream.  Engine::pending takes only the probed shard's batcher
  // monitor -- a brief acquisition, but still the lock workers and
  // submitters of that shard use; a lock-free per-model depth gauge is
  // the next step if probe traffic ever shows up in a profile.
  const std::uint64_t r = thread_random(options_.seed);
  const std::size_t m = h.size();
  const std::size_t ai = static_cast<std::size_t>(detail::bounded_draw(r, m));
  std::size_t bi = static_cast<std::size_t>(
      detail::bounded_draw(mix64(r + 0x9e3779b97f4a7c15ull), m - 1));
  if (bi >= ai) ++bi;
  const std::size_t a = h[ai];
  const std::size_t b = h[bi];
  return fleet.engines[b]->pending(model) < fleet.engines[a]->pending(model)
             ? b
             : a;
}

std::size_t ShardRouter::untried_shard(const Fleet& fleet,
                                       std::uint64_t tried) {
  for (const std::size_t s : fleet.healthy) {
    if (((tried >> s) & 1u) == 0) return s;
  }
  return kNoShard;
}

bool ShardRouter::dispatch(const Fleet& fleet, std::size_t index,
                           const std::shared_ptr<Relay>& relay,
                           Admission admission) {
  relay->tried |= (std::uint64_t{1} << index);
  SubmitOptions opts;
  opts.admission = admission;
  opts.trace_id = relay->id;  // every hop records under the router's id
  // Deduct what the request has already spent since router entry: a
  // resubmission (or a re-pick after a racing kill) carries only the
  // REMAINING admission budget and end-to-end deadline, never a fresh
  // copy of the originals.
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      clock_->now() - relay->t0);
  if (relay->timeout.count() > 0) {
    opts.timeout = std::max(relay->timeout - elapsed,
                            std::chrono::microseconds{0});
  }
  if (relay->deadline.count() != 0) {
    auto remaining = relay->deadline - elapsed;
    // 0 means "no deadline" in SubmitOptions; an exactly exhausted
    // budget is expressed as already-expired instead.
    if (remaining.count() == 0) remaining = std::chrono::microseconds{-1};
    opts.deadline = remaining;
  }
  opts.done = [this, relay](std::span<const float> out,
                            const RequestTiming& timing,
                            std::exception_ptr err) {
    if (err) {
      // AbortedError -- and exactly AbortedError -- proves the request
      // was never executed (see serve/request.hpp), so resubmitting it
      // cannot double-serve.  Any other error is a deterministic
      // serving failure a retry would only repeat: deliver it.
      try {
        std::rethrow_exception(err);
      } catch (const AbortedError&) {
        if (failover(relay)) return;  // the retry owns completion now
      } catch (...) {
      }
    }
    relay->done(out, timing, err);
  };
  // Always a borrowed view: the capsule pins the bytes until the final
  // completion, across any number of resubmissions.
  return fleet.engines[index]
      ->submit(InferenceRequest::borrowed(relay->model, relay->input,
                                          relay->rows),
               std::move(opts))
      .admitted();
}

bool ShardRouter::failover(const std::shared_ptr<Relay>& relay) {
  // Runs on the thread that observed the abort (kill_shard's caller,
  // inside Engine::abort's orphan sweep).  Retries use kBlock
  // regardless of the original admission mode: the caller was already
  // told "admitted", so rejection is no longer expressible -- the
  // request must complete, and waiting out backpressure on the healthy
  // shard is the only sane way to keep the admission promise.  kBlock
  // rejects only when the target shard is itself closed, in which case
  // the loop moves on; with every shard tried, the AbortedError reaches
  // the caller.
  for (;;) {
    const auto f = fleet();
    const std::size_t index = untried_shard(*f, relay->tried);
    if (index == kNoShard) return false;
    if (dispatch(*f, index, relay, Admission::kBlock)) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      // The trace attributes the hop to the shard that ACCEPTED the
      // resubmission -- the destination, where the request now lives.
      if (Tracer* const tracer = options_.engine.tracer) {
        tracer->record(relay->id, TraceEventKind::kFailover,
                       static_cast<std::uint16_t>(index),
                       static_cast<std::uint32_t>(relay->model),
                       f->engines[index]->model_priority(relay->model),
                       static_cast<std::uint32_t>(relay->rows));
      }
      return true;
    }
  }
}

SubmitResult ShardRouter::submit(InferenceRequest req, SubmitOptions opts) {
  // One atomic snapshot load, no lock: lifecycle publishes (kill,
  // drain, restart, swap) never stall the hot path.  No id pre-check
  // either -- the shard engine validates req.model and throws the same
  // unknown-model error.
  auto f = fleet();
  auto relay = std::make_shared<Relay>();
  relay->model = req.model;
  relay->rows = req.rows;
  // Honor a caller-assigned trace id (a front-end relaying its own);
  // otherwise mint the identity every hop will serve under.
  relay->id = opts.trace_id != 0 ? opts.trace_id : next_request_id();
  relay->timeout = opts.timeout;
  relay->deadline = opts.deadline;
  relay->t0 = clock_->now();
  if (!req.storage.empty()) {
    relay->owned = std::move(req.storage);
    relay->input = std::span<const float>(relay->owned);
  } else {
    relay->input = req.input;
  }
  const bool callback = static_cast<bool>(opts.done);
  std::future<std::vector<float>> future;
  if (callback) {
    relay->done = std::move(opts.done);
  } else {
    auto promise = std::make_shared<std::promise<std::vector<float>>>();
    future = promise->get_future();
    relay->done = detail::promise_done(std::move(promise));
  }
  std::size_t index = pick_shard(*f, req.model);
  while (index != kNoShard) {
    if (dispatch(*f, index, relay, opts.admission)) {
      return callback
                 ? SubmitResult::admitted_callback(relay->id)
                 : SubmitResult::admitted_future(std::move(future), relay->id);
    }
    // Rejected.  A full queue under kFailFast/kBoundedWait is the
    // chosen shard's legitimate answer -- deliver it.  A shard that is
    // no longer accepting is a kill racing the pick: re-pick among the
    // in-rotation shards this request has not tried yet.
    if (f->engines[index]->accepting()) break;
    f = fleet();
    index = untried_shard(*f, relay->tried);
  }
  return SubmitResult::rejected();
}

ServeStats ShardRouter::stats(ModelId model) const {
  ServeStats merged;
  {
    std::scoped_lock lock(carried_mutex_);
    if (model < carried_.size()) merged = carried_[model];
  }
  const auto f = fleet();
  for (std::size_t s = 0; s < f->engines.size(); ++s) {
    if (f->health[s] != ShardHealth::kDown) {
      merged.merge(f->engines[s]->stats(model));
    }
  }
  return merged;
}

ServeStats ShardRouter::class_stats(Priority p) const {
  RADIX_REQUIRE(static_cast<std::size_t>(p) < kNumPriorities,
                "ShardRouter: invalid priority class");
  // The class's ids (registry_ keeps a removed model's QoS), copied
  // under the lock; stats() then brings each id's live shards and
  // carried history, so killed shards stay in their class.
  std::vector<ModelId> ids;
  {
    std::scoped_lock lock(admin_mutex_);
    for (ModelId m = 0; m < registry_.size(); ++m) {
      if (registry_[m].qos.priority == p) ids.push_back(m);
    }
  }
  ServeStats merged;
  for (const ModelId m : ids) merged.merge(stats(m));
  return merged;
}

void ShardRouter::export_metrics(MetricsRegistry& registry) const {
  const auto f = fleet();
  for (std::size_t s = 0; s < f->engines.size(); ++s) {
    registry.set_gauge(
        "radix_serve_shard_health",
        {{"shard", std::to_string(s)}},
        static_cast<double>(static_cast<std::uint8_t>(f->health[s])),
        "Shard lifecycle state: 0 up, 1 draining, 2 down");
    // A down shard's engine is stopped; its history lives on in the
    // carried accumulator and the siblings' series.  Only live shards
    // contribute engine series.
    if (f->health[s] == ShardHealth::kDown) continue;
    f->engines[s]->export_metrics(registry);
  }
  registry.set_counter("radix_serve_failovers_total", {},
                       static_cast<double>(failovers()),
                       "Requests resubmitted on another shard after an abort");
}

std::size_t ShardRouter::pending(ModelId model) const {
  const auto f = fleet();
  std::size_t total = 0;
  for (std::size_t s = 0; s < f->engines.size(); ++s) {
    if (f->health[s] != ShardHealth::kDown) {
      total += f->engines[s]->pending(model);
    }
  }
  return total;
}

std::size_t ShardRouter::num_models() const {
  std::scoped_lock lock(admin_mutex_);
  std::size_t live = 0;
  for (const auto& e : registry_) {
    if (!e.retired) ++live;
  }
  return live;
}

std::optional<ModelId> ShardRouter::find_model(std::string_view name) const {
  std::scoped_lock lock(admin_mutex_);
  for (ModelId id = 0; id < registry_.size(); ++id) {
    if (!registry_[id].retired && registry_[id].name == name) return id;
  }
  return std::nullopt;
}

void ShardRouter::shutdown() {
  {
    std::scoped_lock lock(admin_mutex_);
    shutdown_ = true;
  }
  // Engine::shutdown is idempotent and drains before joining, so a
  // plain sweep gives the router the same guarantee per shard; down
  // shards are already stopped.
  const auto f = fleet();
  for (const auto& engine : f->engines) engine->shutdown();
}

bool ShardRouter::accepting() const {
  // The all-shards view: the router accepts work while ANY in-rotation
  // shard does.  (Consulting only shard 0 -- the old behavior -- went
  // wrong in both directions once shards could die independently.)
  const auto f = fleet();
  for (const std::size_t s : f->healthy) {
    if (f->engines[s]->accepting()) return true;
  }
  return false;
}

}  // namespace radix::serve
