// ShardRouter: one model sharded across N independent serving engines,
// behind the same Backend interface as a single Engine -- with per-shard
// health, live lifecycle, and request-level failover on shard loss.
//
// One Engine scales until its monitor, queues and worker pool saturate
// one socket's worth of contention; the Graph-Challenge regime wants
// the whole host (and, eventually, several hosts) saturated.  The
// ShardRouter takes the cheap route there: it owns N fully independent
// Engine instances -- each with its own worker pool, request queues and
// monitor, so shards share *nothing* on the hot path -- and routes each
// incoming request to one of them:
//
//   * add_model registers the model (same shared SparseDnn, same QoS
//     policy, same name) on every live shard; ids are identical across
//     shards and across the router.  remove_model / swap_model apply
//     the Engine lifecycle fleet-wide (see engine.hpp).  The router's
//     own registry is the one authority on what is registered:
//     model_entry() and models() answer from it, never from a shard,
//     so they stay right while any shard is down.
//   * submit picks the shard by power-of-two-choices on queue depth:
//     two random in-rotation shards are probed and the request goes to
//     the one with fewer pending requests for its model.  That is one
//     RNG draw and two briefly locked depth reads per request
//     (Engine::pending, batcher monitor only) -- no global
//     balancing state -- yet keeps the maximum queue imbalance
//     exponentially better than random placement (Mitzenmacher's
//     classic result).
//   * A request is served whole on one shard (rows are never split),
//     and batch rows are independent under the challenge forward rule,
//     so outputs are bit-identical to a direct fused forward of the
//     same rows no matter which shard serves them or how they coalesce.
//   * stats() merges the live shards' snapshots with ServeStats::merge
//     (bucket-wise Log2Histogram::merge) -- plus the carried history
//     of shards that have since been killed -- so the aggregate
//     percentiles equal those of a histogram fed every shard's samples;
//     pending() sums live shards; shutdown() drains every shard
//     (admitted requests all complete).
//
// Health and failover
// -------------------
// Each shard is kUp (in rotation), kDraining (alive, serving its
// backlog, receiving no new routed traffic) or kDown (crashed or
// killed).  The ops surface:
//
//   * drain_shard(i): take shard i out of rotation and wait for its
//     backlog to clear -- the preparation step for maintenance.
//   * kill_shard(i): crash-shaped stop (fault injection, emergency
//     excision): the shard aborts; every request it had admitted but
//     not yet claimed fails over -- the router resubmits it on a
//     healthy shard before kill_shard returns.  The dead engine's
//     stats are then folded into a carried accumulator, and from there
//     on the router reads only live engines -- kills never lose
//     history from stats().
//   * restart_shard(i): return a drained shard to rotation, or replace
//     a down shard with a fresh engine carrying the full model registry
//     (including removed-model tombstones and swap version counters, so
//     id spaces and versions stay in lockstep fleet-wide).
//
// A one-shard router is the degenerate fleet radix-served runs with
// --shards 1: drain_shard takes its only shard out of rotation, and
// kill_shard / restart_shard work as on any fleet.
//
// Failover is request-level and transparent: the router wraps every
// submission's completion, and a completion carrying AbortedError --
// the one error that proves the request was never executed (see
// serve/request.hpp) -- is resubmitted on a shard not yet tried, rather
// than delivered.  Outputs are deterministic functions of the inputs,
// so the retry is idempotent by construction; the caller's future or
// callback observes a single completion either way.  Only when every
// shard has been tried (or none is in rotation) does the error reach
// the caller.  failovers() counts successful resubmissions.
//
// The routing state (engine pointers + health) is a copy-on-write
// snapshot behind an atomic shared_ptr, exactly like the Engine model
// registry: the submit hot path loads it without taking any lock, and
// the admin calls publish new snapshots under a mutation mutex.
//
// The cost of independence: coalescing quality.  Traffic that one
// engine would merge into a single 32-row batch lands on N shards as N
// smaller batches, so lightly loaded routers batch worse than a single
// engine -- the router pays off when offered load saturates more
// workers than one engine's lock can feed (see bench_serving's
// BM_ServeSharded sweep).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "serve/backend.hpp"
#include "serve/engine.hpp"
#include "serve/qos.hpp"

namespace radix::serve {

namespace detail {

/// Map a uniform 64-bit draw `r` onto [0, n) without modulo bias:
/// Lemire's widening multiply, (r * n) >> 64.  `r % n` over-weights the
/// low residues whenever n does not divide 2^64 -- a tiny skew for
/// small n, but a measurable one, and the fix is one mulx instead of a
/// divide.  The bias of THIS map (from truncating the fractional part)
/// is < n / 2^64, unmeasurable for any realistic shard count; the
/// router does not bother with the rejection loop that would remove it
/// entirely.  Exposed for the distribution tests.
inline std::uint64_t bounded_draw(std::uint64_t r, std::uint64_t n) noexcept {
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint64_t>(
      (static_cast<u128>(r) * static_cast<u128>(n)) >> 64);
}

}  // namespace detail

/// Lifecycle state of one shard (see the file comment).
enum class ShardHealth : std::uint8_t {
  kUp = 0,        ///< in rotation, receiving routed traffic
  kDraining = 1,  ///< alive, out of rotation, serving its backlog
  kDown = 2,      ///< aborted; restart_shard replaces it
};

struct ShardRouterOptions {
  /// Independent engines behind the router (1..64; the failover
  /// retry-tracking bitmap bounds the count).
  std::size_t shards = 2;
  /// Applied to every shard.  Note workers == 0 gives EVERY shard one
  /// worker per hardware thread -- set an explicit per-shard count
  /// (e.g. cores / shards) unless oversubscription is intended.
  EngineOptions engine{};
  /// Seed of the power-of-two-choices shard picks (deterministic
  /// per-thread sequences; any value is fine).
  std::uint64_t seed = 0x2545f4914f6cdd1dull;
  /// Test seam: when set, invoked as (shard index, model id) right
  /// before add_model registers the model on that shard.  A throwing
  /// hook simulates a shard failing mid-registration, exercising the
  /// rollback path.  Leave empty in production.
  std::function<void(std::size_t shard, ModelId id)> registration_hook{};
  /// Per-shard EngineOptions tuning: when set, invoked with a copy of
  /// `engine` before each shard's Engine is constructed (including the
  /// replacement engine built by restart_shard).  The fault-injection
  /// scenario harness targets one shard with this -- e.g. install a
  /// FaultInjector on shard 2 only, or give shards asymmetric worker
  /// counts.  Must not change `clock`: the router derives its own
  /// failover time source from the shared `engine.clock`.
  std::function<void(std::size_t shard, EngineOptions& options)> tune_shard{};
};

class ShardRouter final : public Backend {
 public:
  explicit ShardRouter(ShardRouterOptions options = {});
  ~ShardRouter() override;  // shutdown() if still running

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Register a model on every live shard; returns the router-wide id
  /// (equal on every shard).  `name` must be unique within the router
  /// (empty generates "model-<id>").  Safe to call while traffic is
  /// served.  All-or-nothing: if any shard fails to register, the
  /// shards that did are rolled back and the id is burned fleet-wide
  /// with tombstones (ids are never reused, so the per-shard id spaces
  /// stay in lockstep), then the error is rethrown -- the router keeps
  /// serving its existing models and accepts further add_model calls.
  ModelId add_model(std::shared_ptr<const infer::SparseDnn> model,
                    std::string name = "", QosPolicy qos = {});

  /// Retire a model fleet-wide: Engine::remove_model on every live
  /// shard (admission closes, backlogs are served, weights released).
  /// The id keeps answering stats(); the name becomes reusable.
  void remove_model(ModelId id);

  /// Cut a model over to a new same-shape version fleet-wide:
  /// Engine::swap_model on every live shard.  The version is prewarmed
  /// once before the first shard cuts over; each shard's cutover is
  /// atomic (a batch is never split across versions) and the submit
  /// hot path is never blocked.
  void swap_model(ModelId id, std::shared_ptr<const infer::SparseDnn> dnn);

  std::size_t num_shards() const noexcept;

  /// Read access to one shard (e.g. per-shard stats in benches).
  /// Deliberately const-only: mutating a shard directly (add_model,
  /// shutdown) would desync it from the router's registry and its
  /// siblings.  restart_shard of a DOWN shard replaces the engine --
  /// references obtained before that point dangle after it.
  const Engine& shard(std::size_t index) const;

  /// Current health of one shard (lock-free snapshot read).
  ShardHealth shard_health(std::size_t index) const;

  /// One row of the router's model registry.
  struct ModelEntry {
    std::shared_ptr<const infer::SparseDnn> dnn;  // current version
    std::string name;
    QosPolicy qos;
    /// 1 after add_model, +1 per swap_model cutover; a rebuilt shard
    /// replays the count so it reports the same model_version.
    std::uint32_t version = 1;
    bool retired = false;  // removed, or burned by a rollback
  };

  /// Registry row of `id` (retired ids included; dnn is null for them).
  ModelEntry model_entry(ModelId id) const;

  /// The whole registry, indexed by id: live and retired ids alike.
  std::vector<ModelEntry> models() const;

  /// Take shard `index` out of rotation and wait for its backlog to
  /// clear (queues empty, claimed batches completed).  The shard stays
  /// alive -- restart_shard puts it back in rotation.  No-op when the
  /// shard is already draining; a down shard cannot be drained.
  void drain_shard(std::size_t index);

  /// Crash-shaped stop of shard `index` (fault injection, emergency
  /// excision).  The shard is taken out of rotation FIRST, then
  /// aborted: requests it had admitted but not claimed fail over to
  /// healthy shards inside this call (see the file comment); claimed
  /// batches finish.  Its stats then move into the carried
  /// accumulator.  Idempotent; restart_shard brings a replacement.
  void kill_shard(std::size_t index);

  /// Return shard `index` to rotation.  A draining shard simply
  /// re-enters rotation.  A down shard is replaced by a fresh engine
  /// that re-registers the full model registry -- ids, names, QoS,
  /// removed-model tombstones and swap version counters all match its
  /// siblings.  No-op when the shard is already up.
  void restart_shard(std::size_t index);

  /// Requests successfully resubmitted on another shard after their
  /// first shard aborted them.
  std::uint64_t failovers() const noexcept;

  /// The merge of stats(m) over every registry id of class `p`, removed
  /// ids included -- so it carries killed shards' history exactly as
  /// stats() does.  The overload harness reads interactive vs
  /// background shed counts through this.
  ServeStats class_stats(Priority p) const;

  /// Merged fleet view for the export surface: every live shard's
  /// Engine::export_metrics series (distinguished by their `shard`
  /// label), plus per-shard radix_serve_shard_health gauges (the
  /// ShardHealth enum value: 0 up, 1 draining, 2 down) and the
  /// router-level radix_serve_failovers_total counter.  Down shards
  /// contribute their health gauge but no engine series.
  void export_metrics(MetricsRegistry& registry) const;

  // -- Backend interface --------------------------------------------------

  /// Route to an in-rotation shard by power-of-two-choices on pending
  /// depth, then submit there under `opts` unchanged.  Admission is
  /// decided by the chosen shard: kBlock waits out backpressure on that
  /// shard even if another happens to have space (the depth-aware pick
  /// makes that rare).  If the chosen shard turns out to be shutting
  /// down (a kill racing the pick), the router transparently re-picks
  /// among the remaining shards; rejection reaches the caller only on a
  /// genuinely full queue (kFailFast/kBoundedWait) or when no shard is
  /// in rotation.
  SubmitResult submit(InferenceRequest req, SubmitOptions opts = {}) override;

  /// Aggregate view across live shards (histograms merged bucket-wise),
  /// including the carried history of killed shards.  While kill_shard
  /// runs, the dying shard's share is briefly in neither place.
  ServeStats stats(ModelId model) const override;

  /// Sum of the live shards' pending requests for `model`.
  std::size_t pending(ModelId model) const override;

  std::size_t num_models() const override;

  std::optional<ModelId> find_model(std::string_view name) const override;

  /// Drain and join every shard (down shards are already stopped).
  /// Idempotent; called by the destructor.
  void shutdown() override;

  /// True while at least one in-rotation shard accepts work.
  bool accepting() const override;

 private:
  // The copy-on-write routing snapshot: everything the submit hot path
  // needs, behind one atomic load.  `healthy` lists the kUp shard
  // indices so the pick never scans or allocates.  Engines are held by
  // shared_ptr so a snapshot taken just before a restart keeps the old
  // engine alive until its last in-flight submit returns.
  struct Fleet {
    std::vector<std::shared_ptr<Engine>> engines;
    std::vector<ShardHealth> health;
    std::vector<std::size_t> healthy;
  };

  struct Relay;  // failover capsule; defined in router.cpp

  std::shared_ptr<const Fleet> fleet() const;
  /// Copy the current fleet for editing; caller holds admin_mutex_.
  std::shared_ptr<Fleet> clone_fleet_locked() const;
  /// Recompute `healthy` and publish; caller holds admin_mutex_.
  void publish_locked(std::shared_ptr<Fleet> next);
  /// Register registry_ (tombstones, versions and all) on a new engine.
  void replay_registry_locked(Engine& engine) const;
  /// Two-choice pick among fleet.healthy; SIZE_MAX when none.
  std::size_t pick_shard(const Fleet& fleet, ModelId model) const;
  /// First of fleet.healthy not set in the `tried` bitmap; SIZE_MAX
  /// when every in-rotation shard has been tried.
  static std::size_t untried_shard(const Fleet& fleet, std::uint64_t tried);
  /// Submit the capsule on shard `index` of `fleet`; false = rejected.
  bool dispatch(const Fleet& fleet, std::size_t index,
                const std::shared_ptr<Relay>& relay, Admission admission);
  /// Resubmit an aborted capsule on an untried in-rotation shard.
  bool failover(const std::shared_ptr<Relay>& relay);

  /// The shard's EngineOptions: the fleet-wide template with tune_shard
  /// applied.  Used at construction and by restart_shard's rebuild.
  EngineOptions shard_options(std::size_t index) const;

  ShardRouterOptions options_;
  /// Failover/relay time source: options_.engine.clock, or the shared
  /// steady clock.  Budget deductions on resubmission read this, so
  /// FakeClock tests observe deterministic remaining budgets.
  ClockSource* clock_ = nullptr;

  std::atomic<std::shared_ptr<const Fleet>> fleet_;

  mutable std::mutex admin_mutex_;  // serializes lifecycle + registry
  // The registry authority; restart_shard rebuilds a shard from it.
  std::vector<ModelEntry> registry_;
  bool shutdown_ = false;

  // Stats of engines that kill_shard stopped, merged per model id; its
  // own mutex so stats() never waits on a drain holding admin_mutex_.
  mutable std::mutex carried_mutex_;
  std::vector<ServeStats> carried_;

  std::atomic<std::uint64_t> failovers_{0};
};

}  // namespace radix::serve
