// Serving-engine benchmark: does dynamic micro-batching recover the
// paper's batch-benchmark edges/second from small asynchronous
// requests?
//
// Google Benchmark harness, three views over one RadiX-Net challenge
// preset (1024 neurons x 12 layers unless swept):
//
//   BM_ServeDirect      -- the in-harness upper bound: one thread
//       calling the fused SparseDnn::forward directly at the serving
//       batch size (no queueing, no coalescing, no copies).  Matches
//       bench_inference_scaling's BM_InferFused shape.
//   BM_ServeClosedLoop  -- offered-load sweep: N closed-loop client
//       threads (->Threads), each submitting `rows_per_req`-row
//       requests through one Engine (one worker) and blocking on the
//       future.  At saturating load the micro-batcher coalesces
//       requests up to the 32-row budget, and edges/second should
//       approach BM_ServeDirect (acceptance: >= 0.7x).
//   BM_ServeLatencyVsDelay -- the batching knob's latency cost: a
//       single closed-loop client against max_delay in {0, 200, 2000}
//       microseconds; per-iteration time IS the end-to-end request
//       latency, and the engine's p95 e2e / mean batch rows are
//       reported as counters.
//
// plus the PR-4 mixed-priority QoS sweep (one engine, an interactive-
// class and a batch-class model with per-class max_delay/max_batch_rows
// overrides):
//
//   BM_ServeInteractiveSolo -- the interactive client alone: its
//       solo-load e2e p99 is the yardstick.
//   BM_ServeBatchOnly       -- batch-class clients only: the single-
//       class serving throughput the mixed aggregate is graded against.
//   BM_ServeMixedQoS        -- thread 0 is the interactive client, all
//       other threads are closed-loop batch clients saturating the
//       worker.  QoS acceptance (recorded in BENCH_pr4.json): the
//       interactive class's p99 stays within ~2x its solo p99 while
//       aggregate edges/s stays >= 0.9x BM_ServeBatchOnly.
//
// and the PR-5 sharded-scaling sweep over the unified Backend API:
//
//   BM_ServeSharded -- N closed-loop clients against a ShardRouter of
//       {1, 2, 4} single-worker engine shards (power-of-two-choices
//       routing).  Aggregate edges/s versus the shard count is the
//       scaling curve recorded in BENCH_pr5.json.  NOTE the limiter on
//       a small host: every shard worker is CPU-bound in the fused
//       forward, so aggregate throughput scales with shards only while
//       free cores remain.  On a 1-core host the curve is flat-to-
//       slightly-negative (shards add scheduling concurrency but no
//       compute) -- that is the expected shape, not a router defect;
//       on an M-core host expect growth up to about min(shards, M-ish).
//
// All submissions go through the single Backend::submit entry point
// (serve/request.hpp).  items_per_second is the challenge metric
// (edges/s = rows x total nnz per wall second);
// scripts/check_perf_smoke.py sanity-checks this bench's output shape
// in CI.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

constexpr index_t kNeurons = 1024;
constexpr std::size_t kLayers = 12;
constexpr index_t kMaxBatchRows = 32;
constexpr double kInputDensity = 0.4;

const gc::Network& cached_network() {
  static const gc::Network net = [] {
    Rng rng(99);
    return gc::network(kNeurons, kLayers, &rng);
  }();
  return net;
}

std::shared_ptr<infer::SparseDnn> make_dnn() {
  const auto& net = cached_network();
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

const std::vector<float>& cached_input(index_t rows) {
  static std::map<index_t, std::vector<float>> cache;
  auto it = cache.find(rows);
  if (it == cache.end()) {
    Rng rng(7);
    it = cache
             .emplace(rows, gc::synthetic_input(rows, kNeurons,
                                                kInputDensity, rng))
             .first;
  }
  return it->second;
}

// One engine per benchmark run, built in Setup (single-threaded) so the
// threaded benchmark body only submits.
std::unique_ptr<serve::Engine> g_engine;
serve::ModelId g_model = 0;

void SetupEngine(const benchmark::State& state) {
  serve::EngineOptions opts;
  opts.workers = 1;  // measure batching efficiency, not core count
  opts.max_batch_rows = kMaxBatchRows;
  opts.max_delay = std::chrono::microseconds(state.range(1));
  opts.queue_capacity = 4096;
  g_engine = std::make_unique<serve::Engine>(opts);
  g_model = g_engine->add_model(make_dnn(), "bench");
  (void)cached_input(static_cast<index_t>(state.range(0)));
}

void TeardownEngine(const benchmark::State&) {
  g_engine->shutdown();
  g_engine.reset();
}

// Tracing-overhead twin: the same engine with a Tracer attached, so
// BM_ServeClosedLoopTraced / BM_ServeClosedLoop measures what the
// always-on event stream costs the hot path (check_perf_smoke.py gates
// the ratio at >= 0.95).
std::unique_ptr<serve::Tracer> g_tracer;

void SetupTracedEngine(const benchmark::State& state) {
  serve::EngineOptions opts;
  opts.workers = 1;
  opts.max_batch_rows = kMaxBatchRows;
  opts.max_delay = std::chrono::microseconds(state.range(1));
  opts.queue_capacity = 4096;
  g_tracer = std::make_unique<serve::Tracer>();
  opts.tracer = g_tracer.get();
  g_engine = std::make_unique<serve::Engine>(opts);
  g_model = g_engine->add_model(make_dnn(), "bench");
  (void)cached_input(static_cast<index_t>(state.range(0)));
}

void TeardownTracedEngine(const benchmark::State&) {
  g_engine->shutdown();
  g_engine.reset();
  g_tracer.reset();
}

// Direct fused path at the serving batch size: the throughput ceiling
// the engine is graded against.
void BM_ServeDirect(benchmark::State& state) {
  const index_t batch = static_cast<index_t>(state.range(0));
  const auto dnn = make_dnn();
  const auto& x = cached_input(batch);
  infer::InferenceWorkspace ws;
  dnn->prewarm({.max_batch = batch, .workspace = &ws});
  for (auto _ : state) {
    auto y = dnn->forward(x.data(), batch, ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch * static_cast<std::int64_t>(dnn->total_nnz()));
}

// Args: {rows_per_request, max_delay_us}; ->Threads(N) is the offered
// load (N closed-loop clients, one outstanding request each).
void BM_ServeClosedLoop(benchmark::State& state) {
  const index_t rows = static_cast<index_t>(state.range(0));
  const auto& x = cached_input(rows);
  const std::uint64_t nnz = g_engine->model(g_model).total_nnz();

  for (auto _ : state) {
    auto fut = g_engine
                   ->submit(serve::InferenceRequest::borrowed(g_model, x, rows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * static_cast<std::int64_t>(nnz));

  if (state.thread_index() == 0) {
    const auto s = g_engine->stats(g_model);
    state.counters["mean_batch_rows"] =
        benchmark::Counter(s.mean_batch_rows);
    state.counters["queue_p95_us"] =
        benchmark::Counter(s.queue_wait_p95 * 1e6);
    state.counters["e2e_p95_us"] = benchmark::Counter(s.e2e_p95 * 1e6);
  }
}

// Identical body to BM_ServeClosedLoop; only the Setup differs (tracer
// attached).  Kept as a separate family so baseline tooling can pair
// the two by name and compute the tracing-overhead ratio.
void BM_ServeClosedLoopTraced(benchmark::State& state) {
  const index_t rows = static_cast<index_t>(state.range(0));
  const auto& x = cached_input(rows);
  const std::uint64_t nnz = g_engine->model(g_model).total_nnz();

  for (auto _ : state) {
    auto fut = g_engine
                   ->submit(serve::InferenceRequest::borrowed(g_model, x, rows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * static_cast<std::int64_t>(nnz));

  if (state.thread_index() == 0) {
    const auto s = g_engine->stats(g_model);
    state.counters["mean_batch_rows"] =
        benchmark::Counter(s.mean_batch_rows);
    state.counters["queue_p95_us"] =
        benchmark::Counter(s.queue_wait_p95 * 1e6);
    state.counters["e2e_p95_us"] = benchmark::Counter(s.e2e_p95 * 1e6);
    state.counters["trace_events"] =
        benchmark::Counter(static_cast<double>(g_tracer->recorded()));
  }
}

// Args: {rows_per_request, max_delay_us}, always one client: the
// per-iteration wall time is the end-to-end latency a lone request pays
// for the coalescing window.
void BM_ServeLatencyVsDelay(benchmark::State& state) {
  const index_t rows = static_cast<index_t>(state.range(0));
  const auto& x = cached_input(rows);
  for (auto _ : state) {
    auto fut = g_engine
                   ->submit(serve::InferenceRequest::borrowed(g_model, x, rows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  const auto s = g_engine->stats(g_model);
  state.counters["mean_batch_rows"] = benchmark::Counter(s.mean_batch_rows);
  state.counters["e2e_p95_us"] = benchmark::Counter(s.e2e_p95 * 1e6);
}

// --- Mixed-priority QoS sweep -------------------------------------------

// Both QoS classes run 4-row requests against an 8-row budget: the
// batch class keeps a generous coalescing window while the interactive
// class's small window and budget bound how long a worker can be
// head-of-line blocked in front of it.
constexpr index_t kQosRows = 4;
constexpr index_t kQosBudget = 8;

std::unique_ptr<serve::Engine> g_qos_engine;
serve::ModelId g_qos_inter = 0;
serve::ModelId g_qos_batch = 0;

void SetupQosEngine(const benchmark::State&) {
  serve::EngineOptions opts;
  opts.workers = 1;  // measure scheduling policy, not core count
  opts.max_batch_rows = kQosBudget;
  opts.max_delay = std::chrono::microseconds(200);
  opts.queue_capacity = 4096;
  opts.class_policy[static_cast<std::size_t>(
      serve::Priority::kInteractive)] = {
      .max_delay = std::chrono::microseconds(50),
      .max_batch_rows = kQosBudget};
  g_qos_engine = std::make_unique<serve::Engine>(opts);
  g_qos_inter = g_qos_engine->add_model(
      make_dnn(), "interactive",
      {.priority = serve::Priority::kInteractive, .weight = 4});
  g_qos_batch = g_qos_engine->add_model(
      make_dnn(), "batch", {.priority = serve::Priority::kBatch});
  (void)cached_input(kQosRows);
}

void TeardownQosEngine(const benchmark::State&) {
  g_qos_engine->shutdown();
  g_qos_engine.reset();
}

void RunQosClient(benchmark::State& state, serve::ModelId id) {
  const auto& x = cached_input(kQosRows);
  const std::uint64_t nnz = g_qos_engine->model(id).total_nnz();
  for (auto _ : state) {
    auto fut = g_qos_engine
                   ->submit(serve::InferenceRequest::borrowed(id, x, kQosRows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kQosRows * static_cast<std::int64_t>(nnz));
}

// The interactive client alone: its e2e p99 under solo load is the
// yardstick the mixed-load p99 is compared against.
void BM_ServeInteractiveSolo(benchmark::State& state) {
  RunQosClient(state, g_qos_inter);
  const auto s = g_qos_engine->class_stats(serve::Priority::kInteractive);
  state.counters["interactive_p99_us"] = benchmark::Counter(s.e2e_p99 * 1e6);
  state.counters["interactive_p50_us"] = benchmark::Counter(s.e2e_p50 * 1e6);
}

// Batch-class clients only: the single-class serving throughput.
void BM_ServeBatchOnly(benchmark::State& state) {
  RunQosClient(state, g_qos_batch);
  if (state.thread_index() == 0) {
    const auto s = g_qos_engine->class_stats(serve::Priority::kBatch);
    state.counters["batch_p99_us"] = benchmark::Counter(s.e2e_p99 * 1e6);
    state.counters["batch_mean_rows"] = benchmark::Counter(s.mean_batch_rows);
  }
}

// Thread 0 is the interactive client; every other thread saturates the
// worker with batch-class traffic.
void BM_ServeMixedQoS(benchmark::State& state) {
  const bool interactive = state.thread_index() == 0;
  RunQosClient(state, interactive ? g_qos_inter : g_qos_batch);
  if (interactive) {
    const auto si =
        g_qos_engine->class_stats(serve::Priority::kInteractive);
    const auto sb = g_qos_engine->class_stats(serve::Priority::kBatch);
    state.counters["interactive_p99_us"] =
        benchmark::Counter(si.e2e_p99 * 1e6);
    state.counters["interactive_p50_us"] =
        benchmark::Counter(si.e2e_p50 * 1e6);
    state.counters["batch_p99_us"] = benchmark::Counter(sb.e2e_p99 * 1e6);
    state.counters["batch_mean_rows"] =
        benchmark::Counter(sb.mean_batch_rows);
  }
}

BENCHMARK(BM_ServeDirect)
    ->Args({kMaxBatchRows, 0})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServeClosedLoop)
    ->Args({1, 200})
    ->Setup(SetupEngine)
    ->Teardown(TeardownEngine)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_ServeClosedLoopTraced)
    ->Args({1, 200})
    ->Setup(SetupTracedEngine)
    ->Teardown(TeardownTracedEngine)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_ServeLatencyVsDelay)
    ->Args({1, 0})
    ->Args({1, 200})
    ->Args({1, 2000})
    ->Setup(SetupEngine)
    ->Teardown(TeardownEngine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_ServeInteractiveSolo)
    ->Setup(SetupQosEngine)
    ->Teardown(TeardownQosEngine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

BENCHMARK(BM_ServeBatchOnly)
    ->Setup(SetupQosEngine)
    ->Teardown(TeardownQosEngine)
    ->Threads(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_ServeMixedQoS)
    ->Setup(SetupQosEngine)
    ->Teardown(TeardownQosEngine)
    ->Threads(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Sharded-scaling sweep ----------------------------------------------

// Requests are kShardedRows rows so the router (not request size)
// dominates scheduling; each shard keeps the standard 32-row budget.
constexpr index_t kShardedRows = 4;

std::unique_ptr<serve::ShardRouter> g_router;
serve::ModelId g_router_model = 0;

// Arg: {shards}.  One worker per shard: the sweep varies shard count,
// not total thread budget knobs.
void SetupRouter(const benchmark::State& state) {
  serve::ShardRouterOptions opts;
  opts.shards = static_cast<std::size_t>(state.range(0));
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = kMaxBatchRows;
  opts.engine.max_delay = std::chrono::microseconds(200);
  opts.engine.queue_capacity = 4096;
  g_router = std::make_unique<serve::ShardRouter>(opts);
  g_router_model = g_router->add_model(make_dnn(), "sharded");
  (void)cached_input(kShardedRows);
}

void TeardownRouter(const benchmark::State&) {
  g_router->shutdown();
  g_router.reset();
}

// ->Threads(N) closed-loop clients saturate the router; aggregate
// edges/s versus state.range(0) = shard count is the scaling curve.
void BM_ServeSharded(benchmark::State& state) {
  const auto& x = cached_input(kShardedRows);
  const std::uint64_t nnz =
      g_router->model_entry(g_router_model).dnn->total_nnz();
  for (auto _ : state) {
    auto fut = g_router
                   ->submit(serve::InferenceRequest::borrowed(
                       g_router_model, x, kShardedRows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kShardedRows * static_cast<std::int64_t>(nnz));

  if (state.thread_index() == 0) {
    const auto merged = g_router->stats(g_router_model);
    state.counters["mean_batch_rows"] =
        benchmark::Counter(merged.mean_batch_rows);
    state.counters["e2e_p95_us"] = benchmark::Counter(merged.e2e_p95 * 1e6);
    // Load-spread check: the busiest shard's share of requests (1.0
    // means the router funneled everything to one shard).  Numerator
    // and denominator come from ONE read pass over the shards -- other
    // client threads are still completing requests here, and mixing
    // these reads with the merged snapshot above could report > 1.
    std::uint64_t busiest = 0, total = 0;
    for (std::size_t i = 0; i < g_router->num_shards(); ++i) {
      const std::uint64_t r = g_router->shard(i).stats(g_router_model).requests;
      busiest = std::max(busiest, r);
      total += r;
    }
    state.counters["busiest_shard_share"] = benchmark::Counter(
        total == 0 ? 0.0
                   : static_cast<double>(busiest) / static_cast<double>(total));
  }
}

BENCHMARK(BM_ServeSharded)
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->Setup(SetupRouter)
    ->Teardown(TeardownRouter)
    ->Threads(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Networked front-end sweep (PR 9) ------------------------------------

// BM_ServeClosedLoop's twin THROUGH the socket: the same engine behind
// an in-process net::Server, driven by closed-loop clients sharing one
// net::RemoteBackend over loopback.  The ratio
// BM_ServeRemoteClosedLoop / BM_ServeClosedLoop at matching thread
// counts is the wire tax -- framing, one syscall round-trip each way,
// and the single-connection demux -- which scripts/check_perf_smoke.py
// gates at >= 0.5x for 32 clients.
std::unique_ptr<net::Server> g_net_server;
std::unique_ptr<net::RemoteBackend> g_remote;

void SetupRemoteEngine(const benchmark::State& state) {
  SetupEngine(state);
  net::ServerOptions opts;
  opts.submit_workers = 2;
  g_net_server = std::make_unique<net::Server>(*g_engine, opts);
  g_remote = std::make_unique<net::RemoteBackend>(g_net_server->port());
}

void TeardownRemoteEngine(const benchmark::State& state) {
  g_remote->shutdown();
  g_remote.reset();
  g_net_server->stop();
  g_net_server.reset();
  TeardownEngine(state);
}

// Args: {rows_per_request, max_delay_us}; ->Threads(N) closed-loop
// remote clients, one outstanding request each, all multiplexed on one
// TCP connection.
void BM_ServeRemoteClosedLoop(benchmark::State& state) {
  const index_t rows = static_cast<index_t>(state.range(0));
  const auto& x = cached_input(rows);
  const std::uint64_t nnz = g_engine->model(g_model).total_nnz();

  for (auto _ : state) {
    auto fut = g_remote
                   ->submit(serve::InferenceRequest::borrowed(g_model, x, rows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * static_cast<std::int64_t>(nnz));

  if (state.thread_index() == 0) {
    // Stats fetched OVER THE WIRE: the bench doubles as a smoke test of
    // the remote stats path under concurrent submit traffic.
    const auto s = g_remote->stats(g_model);
    state.counters["mean_batch_rows"] =
        benchmark::Counter(s.mean_batch_rows);
    state.counters["queue_p95_us"] =
        benchmark::Counter(s.queue_wait_p95 * 1e6);
    state.counters["e2e_p95_us"] = benchmark::Counter(s.e2e_p95 * 1e6);
  }
}

BENCHMARK(BM_ServeRemoteClosedLoop)
    ->Args({1, 200})
    ->Setup(SetupRemoteEngine)
    ->Teardown(TeardownRemoteEngine)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Failover sweep (PR 6 live operations) ------------------------------

// The cost of shard churn in the serving path: closed-loop clients keep
// the fleet saturated while thread 0 doubles as the chaos actor,
// periodically killing one shard (orphans fail over to its siblings)
// and restarting it (fresh engine, registry replayed).  Throughput is
// the aggregate edges/s the fleet sustains THROUGH the churn; the
// `failovers` counter reports how many queued requests the kills
// actually moved (low on an unloaded fleet: killing an idle shard
// orphans nothing).  Arg: {shards}; never fewer than 2 so a kill
// always leaves rotation non-empty.
void BM_ServeFailover(benchmark::State& state) {
  const auto& x = cached_input(kShardedRows);
  const std::uint64_t nnz =
      g_router->model_entry(g_router_model).dnn->total_nnz();
  const bool chaos = state.thread_index() == 0;
  const auto shards = g_router->num_shards();
  std::size_t victim = 0;
  std::uint64_t kills = 0;
  std::int64_t i = 0;
  for (auto _ : state) {
    auto fut = g_router
                   ->submit(serve::InferenceRequest::borrowed(
                       g_router_model, x, kShardedRows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
    // First kill lands on the very first iteration: even the shortest
    // CI sample (scripts/check_perf_smoke.py) observes churn.
    if (chaos && ++i % 16 == 1) {
      g_router->kill_shard(victim);    // orphans fail over to siblings
      g_router->restart_shard(victim); // replay registry, rejoin rotation
      victim = (victim + 1) % shards;
      ++kills;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kShardedRows * static_cast<std::int64_t>(nnz));
  if (chaos) {
    state.counters["kills"] = benchmark::Counter(static_cast<double>(kills));
    state.counters["failovers"] =
        benchmark::Counter(static_cast<double>(g_router->failovers()));
    const auto merged = g_router->stats(g_router_model);
    state.counters["e2e_p95_us"] = benchmark::Counter(merged.e2e_p95 * 1e6);
  }
}

BENCHMARK(BM_ServeFailover)
    ->Args({2})
    ->Args({4})
    ->Setup(SetupRouter)
    ->Teardown(TeardownRouter)
    ->Threads(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace radix
