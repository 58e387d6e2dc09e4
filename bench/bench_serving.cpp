// Serving-engine benchmark: closed-loop micro-batched serving of one
// RadiX-Net challenge preset (1024 neurons x 12 layers), in process and
// through the wire, with and without a tracer.
//
// Google Benchmark harness.  The three families share one shape:
// 1-row requests, a 200 us coalescing window and a 32-row budget on one
// worker, offered by 1, 4, 16 and 32 closed-loop client threads, each
// with one outstanding request.
//
//   BM_ServeClosedLoop       -- the clients submit through one Engine
//       and block on the future.
//   BM_ServeClosedLoopTraced -- the same engine with a Tracer attached.
//   BM_ServeRemoteClosedLoop -- the same EngineOptions as a one-shard
//       router (what radix-served runs with --shards 1) behind a
//       net::Server, driven over loopback through one
//       net::RemoteBackend.
//
// items_per_second is the challenge metric (edges/s = rows x total nnz
// per wall second).  scripts/check_perf_smoke.py pairs the families by
// shape: traced/untraced (geomean >= 0.95) and remote/in-process at 32
// clients (>= 0.5).
#include <benchmark/benchmark.h>

#include <chrono>
#include <map>
#include <memory>
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

// Args: {rows_per_request, max_delay_us}.  Shared by the in-process
// closed loop and its remote twin, so the two differ only by the wire.
serve::EngineOptions closed_loop_options(const benchmark::State& state) {
  serve::EngineOptions opts;
  opts.workers = 1;  // measure batching efficiency, not core count
  opts.max_batch_rows = kMaxBatchRows;
  opts.max_delay = std::chrono::microseconds(state.range(1));
  opts.queue_capacity = 4096;
  return opts;
}

void SetupEngine(const benchmark::State& state) {
  g_engine = std::make_unique<serve::Engine>(closed_loop_options(state));
  g_model = g_engine->add_model(make_dnn());
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
  serve::EngineOptions opts = closed_loop_options(state);
  g_tracer = std::make_unique<serve::Tracer>();
  opts.tracer = g_tracer.get();
  g_engine = std::make_unique<serve::Engine>(opts);
  g_model = g_engine->add_model(make_dnn());
  (void)cached_input(static_cast<index_t>(state.range(0)));
}

void TeardownTracedEngine(const benchmark::State&) {
  g_engine->shutdown();
  g_engine.reset();
  g_tracer.reset();
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
// attached).  Kept as a separate family so check_perf_smoke.py can pair
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

// BM_ServeClosedLoop's twin THROUGH the socket.  The ratio
// BM_ServeRemoteClosedLoop / BM_ServeClosedLoop at matching thread
// counts is the wire tax -- framing, one syscall round-trip each way,
// the single-connection demux, and the router's one-shard pick.
std::unique_ptr<serve::ShardRouter> g_router;
serve::ModelId g_router_model = 0;
std::unique_ptr<net::Server> g_net_server;
std::unique_ptr<net::RemoteBackend> g_remote;

void SetupRemoteRouter(const benchmark::State& state) {
  g_router = std::make_unique<serve::ShardRouter>(serve::ShardRouterOptions{
      .shards = 1, .engine = closed_loop_options(state)});
  g_router_model = g_router->add_model(make_dnn(), "bench");
  (void)cached_input(static_cast<index_t>(state.range(0)));
  net::ServerOptions opts;
  opts.submit_workers = 2;
  g_net_server = std::make_unique<net::Server>(*g_router, opts);
  g_remote = std::make_unique<net::RemoteBackend>(g_net_server->port());
}

void TeardownRemoteRouter(const benchmark::State&) {
  g_remote->shutdown();
  g_remote.reset();
  g_net_server->stop();
  g_net_server.reset();
  g_router->shutdown();
  g_router.reset();
}

// Args: {rows_per_request, max_delay_us}; ->Threads(N) closed-loop
// remote clients, one outstanding request each, all multiplexed on one
// TCP connection.
void BM_ServeRemoteClosedLoop(benchmark::State& state) {
  const index_t rows = static_cast<index_t>(state.range(0));
  const auto& x = cached_input(rows);
  const std::uint64_t nnz =
      g_router->model_entry(g_router_model).dnn->total_nnz();

  for (auto _ : state) {
    auto fut = g_remote
                   ->submit(serve::InferenceRequest::borrowed(g_router_model,
                                                              x, rows))
                   .take_future();
    benchmark::DoNotOptimize(fut.get().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows * static_cast<std::int64_t>(nnz));

  if (state.thread_index() == 0) {
    // Stats fetched OVER THE WIRE: the bench doubles as a smoke test of
    // the remote stats path under concurrent submit traffic.
    const auto s = g_remote->stats(g_router_model);
    state.counters["mean_batch_rows"] =
        benchmark::Counter(s.mean_batch_rows);
    state.counters["queue_p95_us"] =
        benchmark::Counter(s.queue_wait_p95 * 1e6);
    state.counters["e2e_p95_us"] = benchmark::Counter(s.e2e_p95 * 1e6);
  }
}

BENCHMARK(BM_ServeRemoteClosedLoop)
    ->Args({1, 200})
    ->Setup(SetupRemoteRouter)
    ->Teardown(TeardownRemoteRouter)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->Threads(32)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace radix
