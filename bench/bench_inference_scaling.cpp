// E8 -- Graph-Challenge-style sparse inference throughput ([2], [11]).
//
// Google Benchmark harness sweeping batch size and depth over real
// RadiX-Net preset topologies (radix::gc::network).  Two paths run on
// identical networks and inputs:
//
//   BM_InferReference  -- the historical engine: copies the input batch,
//       reallocates + zero-fills the output panel every layer, runs the
//       unfused scatter SpMM, then a second full read-modify-write sweep
//       for bias/ReLU/clamp, and a final count_if for the stats.
//   BM_InferFused      -- SparseDnn::forward with a reused
//       InferenceWorkspace: zero steady-state allocations, fused
//       epilogue, batch tiling, adaptive scatter/gather dispatch.
//
// items_per_second is the challenge metric: edges processed per second
// = batch * sum_k nnz(W_k) / wall.  scripts/check_perf_smoke.py gates
// CI on fused >= reference.
//
// Args: {neurons, layers, batch}.  Depths obey each width's preset
// period (2 for 1024, 3 for 4096).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/spmm.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

constexpr double kInputDensity = 0.4;

// Networks are expensive to synthesize (per-layer shuffle SpGEMM);
// build each (neurons, layers) configuration once per process.
const gc::Network& cached_network(index_t neurons, std::size_t layers) {
  static std::map<std::pair<index_t, std::size_t>, gc::Network> cache;
  const auto key = std::make_pair(neurons, layers);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(99);
    it = cache.emplace(key, gc::network(neurons, layers, &rng)).first;
  }
  return it->second;
}

const std::vector<float>& cached_input(index_t batch, index_t neurons) {
  static std::map<std::pair<index_t, index_t>, std::vector<float>> cache;
  const auto key = std::make_pair(batch, neurons);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(7);
    it = cache
             .emplace(key, gc::synthetic_input(batch, neurons,
                                               kInputDensity, rng))
             .first;
  }
  return it->second;
}

// The seed engine's forward pass, kept verbatim as the in-harness
// reference: per-layer allocation + zero-fill, unfused scatter SpMM, a
// second full sweep for the epilogue, and a trailing nonzero count.
std::vector<float> reference_forward(const std::vector<Csr<float>>& layers,
                                     float bias, float clamp,
                                     const std::vector<float>& input,
                                     index_t batch,
                                     std::uint64_t* nonzero_outputs) {
  std::vector<float> cur = input;
  std::vector<float> next;
  for (const auto& w : layers) {
    next.assign(static_cast<std::size_t>(batch) * w.cols(), 0.0f);
    spmm_dense_csr(cur.data(), batch, w.rows(), w, next.data());
    parallel_for(
        0, static_cast<std::int64_t>(next.size()),
        [&](std::int64_t i) {
          float v = next[i] + bias;
          if (v < 0.0f) v = 0.0f;
          if (clamp > 0.0f && v > clamp) v = clamp;
          next[i] = v;
        });
    cur.swap(next);
  }
  *nonzero_outputs = static_cast<std::uint64_t>(
      std::count_if(cur.begin(), cur.end(),
                    [](float v) { return v != 0.0f; }));
  return cur;
}

void BM_InferReference(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  const index_t batch = static_cast<index_t>(state.range(2));
  const auto& net = cached_network(neurons, layers);
  const auto& x = cached_input(batch, neurons);
  std::uint64_t total_nnz = 0;
  for (const auto& w : net.layers) total_nnz += w.nnz();

  std::uint64_t nz = 0;
  for (auto _ : state) {
    auto y = reference_forward(net.layers, net.bias, gc::kClamp, x, batch,
                               &nz);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch * total_nnz);
  state.counters["nonzero_outputs"] = static_cast<double>(nz);
}

void BM_InferFused(benchmark::State& state) {
  const index_t neurons = static_cast<index_t>(state.range(0));
  const std::size_t layers = static_cast<std::size_t>(state.range(1));
  const index_t batch = static_cast<index_t>(state.range(2));
  const auto& net = cached_network(neurons, layers);
  const auto& x = cached_input(batch, neurons);

  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  // Warm-up: sizes the workspace, so the loop measures the steady
  // (zero-allocation) state.
  (void)dnn.forward(x.data(), batch, ws, nullptr);

  for (auto _ : state) {
    auto y = dnn.forward(x.data(), batch, ws, &stats);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch *
      dnn.total_nnz());
  state.counters["nonzero_outputs"] =
      static_cast<double>(stats.nonzero_outputs);
  std::size_t gather_layers = 0;
  for (const auto& d : ws.last_dispatch()) {
    if (d.chosen == infer::Kernel::kGather) ++gather_layers;
  }
  state.counters["gather_layers"] = static_cast<double>(gather_layers);
}

// Sweep batch at fixed shape, depth at fixed batch, and one wider net.
#define INFER_ARGS                                          \
  Args({1024, 12, 4})->Args({1024, 12, 32})                 \
      ->Args({1024, 6, 32})->Args({1024, 24, 32})           \
      ->Args({4096, 12, 32})

BENCHMARK(BM_InferReference)->INFER_ARGS->Unit(benchmark::kMillisecond);
BENCHMARK(BM_InferFused)->INFER_ARGS->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radix
