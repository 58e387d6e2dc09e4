// batch-dense: one closed-loop caller, back-to-back 64-row forwards.
#include <cstdio>
#include <cstring>
#include <memory>

#include "layers.hpp"
#include "radixnet/graph_challenge.hpp"
#include "support/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using radix::index_t;
using radix::infer::SparseDnn;

constexpr index_t kNeurons = 4096;
constexpr std::size_t kLayers = 24;
constexpr index_t kBatch = 64;
constexpr double kDensity = 0.4;
constexpr int kPoolBatches = 4;
// p99 is that of the quietest of this many equal time windows.
constexpr int kWindows = 5;
// Latency limit of one 64-row forward (about 6x its time on a 4-core
// Xeon), used for slo_attainment and max_rate_in_slo_rps.
constexpr double kSloMs = 250.0;

}  // namespace

Result run_batch_dense(const RunOptions& options, SpanLog& log) {
  // Set-up, repeated: build the shuffled network (radixnet), wrap it in
  // the engine and prewarm it with the caller's workspace (infer).
  std::vector<double> setup_s, build_s, prewarm_ms;
  std::shared_ptr<const SparseDnn> dnn;
  auto ws = std::make_unique<radix::infer::InferenceWorkspace>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ScopedSpan setup(log, "perfbench.setup");
    const std::int64_t t0 = now_ns();
    radix::Rng rng(options.seed);
    radix::gc::Network net = radix::gc::network(kNeurons, kLayers, &rng);
    const std::int64_t t1 = now_ns();
    auto fresh = std::make_shared<const SparseDnn>(std::move(net.layers),
                                                   net.bias, radix::gc::kClamp);
    const std::int64_t t2 = now_ns();
    ws = std::make_unique<radix::infer::InferenceWorkspace>();
    fresh->prewarm({kBatch, ws.get()});
    const std::int64_t t3 = now_ns();
    log.record("radixnet.build", 0, t0, t1);
    log.record("infer.construct", 0, t1, t2);
    log.record("infer.prewarm", 0, t2, t3);
    setup_s.push_back(ms_between(t0, t3) * 1e-3);
    build_s.push_back(ms_between(t0, t1) * 1e-3);
    prewarm_ms.push_back(ms_between(t2, t3));
    dnn = std::move(fresh);
  }

  // Model-to-ready from built layers (engine construction + prewarm):
  // what a swap to a new version of this model costs.
  const auto model_to_ready = [&] {
    std::vector<radix::Csr<float>> layers;
    for (std::size_t k = 0; k < dnn->depth(); ++k) {
      layers.push_back(dnn->layer_view(k).to_csr());
    }
    radix::infer::InferenceWorkspace ready_ws;
    ScopedSpan ready(log, "perfbench.model_to_ready");
    const SparseDnn version(std::move(layers), dnn->biases(), dnn->clamp());
    version.prewarm({kBatch, &ready_ws});
    return ready.elapsed_ms();
  };

  // Inputs and their expected outputs from the straight-line reference.
  radix::Rng in_rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::vector<float>> pool, expected;
  for (int j = 0; j < kPoolBatches; ++j) {
    pool.push_back(radix::gc::synthetic_input(kBatch, kNeurons, kDensity, in_rng));
    expected.push_back(reference_forward(*dnn, pool.back().data(), kBatch));
  }

  Result r;
  for (int j = 0; j < 2; ++j) (void)dnn->forward(pool[j].data(), kBatch, *ws);
  std::vector<double> lat_ms;
  std::vector<std::pair<double, double>> timed_ms;  // start s, latency ms
  std::uint64_t within = 0;  // correct and inside the SLO
  double forward_s = 0.0;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  // The model-to-ready samples are spread over the loop, between
  // forwards, so their median does not rest on one instant of the host.
  std::vector<double> ready_ms;
  for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
    if (static_cast<int>(ready_ms.size()) <
        static_cast<double>(now_ns() - start) / static_cast<double>(deadline - start) * kReadyReps) {
      ready_ms.push_back(model_to_ready());
    }
    const std::size_t j = i % kPoolBatches;
    const std::int64_t t0 = now_ns();
    const std::span<const float> y = dnn->forward(pool[j].data(), kBatch, *ws);
    const std::int64_t t1 = now_ns();
    const bool ok = y.size() == expected[j].size() &&
                    std::memcmp(y.data(), expected[j].data(),
                                y.size() * sizeof(float)) == 0;
    log.record("infer.forward", 0, t0, t1,
               "\"batch\": 64, \"pool\": " + std::to_string(j) +
                   ", \"ok\": " + (ok ? "true" : "false"));
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      r.correct = false;
    }
    lat_ms.push_back(ms_between(t0, t1));
    timed_ms.push_back({ms_between(start, t0) * 1e-3, lat_ms.back()});
    within += ok && lat_ms.back() <= kSloMs;
    forward_s += ms_between(t0, t1) * 1e-3;
  }
  const double loop_s = ms_between(start, now_ns()) * 1e-3;

  std::vector<std::vector<double>> windows(kWindows);
  for (const auto& [t, ms] : timed_ms) {
    windows[std::min<std::size_t>(kWindows - 1, t / loop_s * kWindows)].push_back(ms);
  }
  const double p99 = quietest(windows, 0.99);
  const double edges = static_cast<double>(r.attempted) * kBatch *
                       static_cast<double>(dnn->total_nnz());
  std::printf("INFO batch-dense: forwards=%zu p50_ms=%.4f "
              "quietest_window_p99_ms=%.4f (%d windows of about %zu) "
              "all_p99_ms=%.4f model_to_ready n=%zu total_nnz=%llu\n",
              lat_ms.size(), percentile(lat_ms, 0.5), p99, kWindows,
              lat_ms.size() / kWindows, percentile(lat_ms, 0.99), ready_ms.size(),
              static_cast<unsigned long long>(dnn->total_nnz()));

  auto& e = r.end_to_end;
  e.push_back({"setup_s", percentile(setup_s, 0.5), "s"});
  e.push_back({"edges_per_s", edges / forward_s, "1/s"});
  e.push_back({"latency_p50_ms", percentile(lat_ms, 0.5), "ms"});
  e.push_back({"latency_p99_ms", p99, "ms"});
  // One closed-loop caller is always at this workload's peak load.
  e.push_back({"peak_latency_p99_ms", p99, "ms"});
  e.push_back({"slo_attainment",
               static_cast<double>(within) / static_cast<double>(r.attempted),
               "fraction"});
  e.push_back({"max_rate_in_slo_rps",
               p99 <= kSloMs ? static_cast<double>(r.attempted) / forward_s : 0.0,
               "1/s"});
  e.push_back({"swap_p50_ms", percentile(ready_ms, 0.5), "ms"});
  e.push_back({"swap_tail_ms", percentile(ready_ms, 0.9), "ms"});

  if (options.trace) {
    auto& l = r.per_layer;
    l.push_back({"radixnet.build_s", percentile(build_s, 0.5), "s"});
    l.push_back({"infer.prewarm_ms", percentile(prewarm_ms, 0.5), "ms"});
    if (!profile_inference(*dnn, pool[0].data(), kBatch, log, l)) {
      r.correct = false;
    }
  }
  return r;
}

}  // namespace perfbench
