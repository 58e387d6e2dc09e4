// Property tests for the fused, zero-allocation inference path: both
// adaptive-dispatch arms (scatter / gather), forced and automatic, must
// be bit-exact against a straight-line reference over randomized
// RadiX-Net stacks, batches, biases and clamp values -- automatic
// dispatch included, which runs no kernel on a layer whose input batch
// is all zero -- and repeated forward calls through one
// InferenceWorkspace must perform zero heap allocations.
#include "infer/sparse_dnn.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

// The replacement operator new below is malloc-backed, so pairing it
// with free() is correct; GCC cannot see that and warns at every
// allocator call site in this TU.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include "radixnet/graph_challenge.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "support/random.hpp"

// ---------------------------------------------------------------------------
// Global operator new/delete replacement counting allocations, so the
// steady-state zero-allocation contract of the workspace API is a test,
// not a comment.  Counting is off except inside the measured region.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void note_alloc() noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size > 0 ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace radix {
namespace {

// Straight-line reference of the challenge rule.  Walks each output's
// inputs in ascending index order via the transposed layer -- the same
// accumulation order both fused arms use -- and mirrors the engine's
// uniform-weight detection ((sum x) * w rounds differently from
// sum(x * w), exactly as the specialized kernels do).
std::vector<float> straight_forward(const std::vector<Csr<float>>& layers,
                                    const std::vector<float>& biases,
                                    float clamp,
                                    const std::vector<float>& input,
                                    index_t batch) {
  std::vector<float> cur = input;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Csr<float> wt = layers[l].transpose();
    const index_t m = layers[l].rows();
    const index_t n = layers[l].cols();
    const auto& vals = layers[l].values();
    const bool uniform =
        std::all_of(vals.begin(), vals.end(),
                    [&](float v) { return v == vals.front(); });
    const float scale = uniform && !vals.empty() ? vals.front() : 1.0f;
    std::vector<float> next(static_cast<std::size_t>(batch) * n);
    for (index_t b = 0; b < batch; ++b) {
      const float* xb = cur.data() + static_cast<std::size_t>(b) * m;
      for (index_t c = 0; c < n; ++c) {
        float acc = 0.0f;
        for (offset_t k = wt.rowptr()[c]; k < wt.rowptr()[c + 1]; ++k) {
          if (uniform) {
            acc += xb[wt.colind()[k]];
          } else {
            acc += xb[wt.colind()[k]] * wt.values()[k];
          }
        }
        float v = acc * scale + biases[l];
        if (v < 0.0f) v = 0.0f;
        if (clamp > 0.0f && v > clamp) v = clamp;
        next[static_cast<std::size_t>(b) * n + c] = v;
      }
    }
    cur = std::move(next);
  }
  return cur;
}

// Per-edge weights for a challenge net's layers: none of them then gets
// a layout, so every gather runs the CSR gather form over the layer's
// transpose.
void randomize_weights(std::vector<Csr<float>>& layers, Rng& rng) {
  for (auto& l : layers) {
    l = l.map<float>([&](float) {
      return static_cast<float>(rng.uniform(0.03, 0.09));
    });
  }
}

Csr<float> random_layer(index_t rows, index_t cols, double density,
                        Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

// Nonnegative input with a controlled zero fraction; some rows fully
// dead ("empty-ish batches" exercise the scatter arm's row skip).
std::vector<float> random_input(index_t batch, index_t width,
                                double nonzero_fraction, Rng& rng) {
  std::vector<float> x(static_cast<std::size_t>(batch) * width, 0.0f);
  for (index_t b = 0; b < batch; ++b) {
    if (b % 4 == 3) continue;  // every fourth row all-zero
    for (index_t c = 0; c < width; ++c) {
      if (rng.bernoulli(nonzero_fraction)) {
        x[static_cast<std::size_t>(b) * width + c] =
            static_cast<float>(rng.uniform(0.0, 2.0));
      }
    }
  }
  return x;
}

void expect_bit_exact(std::span<const float> got,
                      const std::vector<float>& want, const char* tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << tag << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Run both forced arms and auto dispatch against the reference.  Auto
// dispatch skips a layer exactly when its input holds no nonzero (layer
// 0's counted here, a later layer's from the previous layer's
// epilogue); a forced arm never skips.  Returns auto's dispatch trace.
std::vector<infer::LayerDispatch> check_all_arms(
    const std::vector<Csr<float>>& layers, const std::vector<float>& biases,
    float clamp, const std::vector<float>& x, index_t batch) {
  infer::SparseDnn dnn(layers, biases, clamp);
  const auto want = straight_forward(layers, biases, clamp, x, batch);
  const auto input_nz = static_cast<std::uint64_t>(std::count_if(
      x.begin(), x.end(), [](float v) { return v != 0.0f; }));
  infer::InferenceWorkspace ws;
  for (infer::Kernel arm : {infer::Kernel::kScatter, infer::Kernel::kGather,
                            infer::Kernel::kAuto}) {
    if (arm == infer::Kernel::kAuto) {
      // Leave another input's activations in the panels, so a skipped
      // layer that does not write what a later reader needs shows up.
      const std::vector<float> ones(x.size(), 1.0f);
      ws.force_kernel(infer::Kernel::kGather);
      (void)dnn.forward(ones.data(), batch, ws);
    }
    ws.force_kernel(arm);
    const auto got = dnn.forward(x.data(), batch, ws);
    const char* tag = arm == infer::Kernel::kScatter  ? "scatter"
                      : arm == infer::Kernel::kGather ? "gather"
                                                      : "auto";
    expect_bit_exact(got, want, tag);
    const auto& trace = ws.last_dispatch();
    EXPECT_EQ(trace.size(), layers.size());
    if (trace.size() != layers.size()) return {};
    for (std::size_t k = 0; k < trace.size(); ++k) {
      if (arm != infer::Kernel::kAuto) {
        EXPECT_EQ(trace[k].chosen, arm) << tag << " layer " << k;
        EXPECT_FALSE(trace[k].skipped) << tag << " layer " << k;
      } else {
        const std::uint64_t in_nz =
            k == 0 ? input_nz : trace[k - 1].nonzero_outputs;
        EXPECT_EQ(trace[k].skipped, in_nz == 0) << "auto layer " << k;
      }
    }
  }
  return ws.last_dispatch();
}

TEST(SparseDnnFused, RandomStacksBitExactAcrossArms) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    // Random chained widths, depth 2..4, mixed densities.
    const std::size_t depth = 2 + static_cast<std::size_t>(rng.uniform(3));
    std::vector<index_t> widths(depth + 1);
    for (auto& w : widths) w = 3 + static_cast<index_t>(rng.uniform(30));
    std::vector<Csr<float>> layers;
    std::vector<float> biases;
    for (std::size_t l = 0; l < depth; ++l) {
      layers.push_back(
          random_layer(widths[l], widths[l + 1], 0.35, rng));
      biases.push_back(static_cast<float>(rng.uniform(-0.5, 0.5)));
    }
    for (float clamp : {0.0f, 0.01f, 2.0f}) {
      for (index_t batch : {index_t{1}, index_t{9}, index_t{17}}) {
        const auto x = random_input(batch, widths[0], 0.5, rng);
        check_all_arms(layers, biases, clamp, x, batch);
      }
    }
  }
}

TEST(SparseDnnFused, RadixNetStacksBitExactAcrossArms) {
  // Real RadiX-Net topology, randomized (non-uniform) weights and
  // biases; batch 9 exercises the remainder tile (9 = 8 + 1).
  Rng rng(11);
  const Fnnt topo = gc::topology(1024, 4);
  std::vector<Csr<float>> layers;
  std::vector<float> biases;
  for (std::size_t l = 0; l < topo.depth(); ++l) {
    layers.push_back(topo.layer(l).map<float>(
        [&](pattern_t) { return static_cast<float>(rng.uniform(-0.2, 0.4)); }));
    biases.push_back(static_cast<float>(rng.uniform(-0.3, 0.1)));
  }
  Rng irng(5);
  const index_t batch = 9;
  const auto x = gc::synthetic_input(batch, 1024, 0.3, irng);
  for (float clamp : {0.0f, gc::kClamp}) {
    check_all_arms(layers, biases, clamp, x, batch);
  }
}

TEST(SparseDnnFused, UniformWeightNetworkBitExactAcrossArms) {
  // Challenge preset: every layer stores one repeated weight, so the
  // engine takes the uniform-specialized kernels; both arms and the
  // uniform-aware reference must still agree bitwise.
  Rng rng(4);
  const auto net = gc::network(1024, 4, &rng);
  std::vector<float> biases(net.layers.size(), net.bias);
  Rng irng(6);
  for (index_t batch : {index_t{1}, index_t{8}, index_t{13}}) {
    const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);
    check_all_arms(net.layers, biases, gc::kClamp, x, batch);
  }

  // The serving shape: the unshuffled 1024 x 12 net at input density
  // 0.1.  Every row dies at layer 1's epilogue, so layers 2-11 run no
  // kernel under auto dispatch and only the last one writes its fill.
  const auto served = gc::network(1024, 12, nullptr);
  const std::vector<float> served_biases(served.layers.size(), served.bias);
  Rng srng(902);
  for (index_t batch : {index_t{1}, index_t{2}, index_t{3}, index_t{8},
                        index_t{13}}) {
    const auto x = gc::synthetic_input(batch, 1024, 0.1, srng);
    const auto trace =
        check_all_arms(served.layers, served_biases, gc::kClamp, x, batch);
    ASSERT_EQ(trace.size(), 12u);
    for (std::size_t k = 0; k < trace.size(); ++k) {
      EXPECT_EQ(trace[k].skipped, k >= 2) << "batch " << batch << " layer "
                                           << k;
    }
  }

  // Weight -1/16 with bias -0.0 on an all-zero input: +0 * -1/16 + -0.0
  // is -0.0, which counts as zero, so every layer skips and the last
  // writes -0.0 everywhere.
  auto negated = net.layers;
  for (auto& l : negated) {
    l = l.map<float>([](float) { return -1.0f / 16.0f; });
  }
  const std::vector<float> minus_zero(negated.size(), -0.0f);
  const std::vector<float> zeros(static_cast<std::size_t>(5) * 1024, 0.0f);
  {
    infer::SparseDnn dnn(negated, minus_zero, gc::kClamp);
    infer::InferenceWorkspace ws;
    const auto y = dnn.forward(zeros.data(), 5, ws);
    ASSERT_EQ(y.size(), zeros.size());
    for (const float v : y) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(v), 0x80000000u);
    }
  }
  for (const auto& d : check_all_arms(negated, minus_zero, gc::kClamp, zeros,
                                      5)) {
    EXPECT_TRUE(d.skipped);
  }

  // Bias +0.25 on an all-zero input: layer 0 skips and fills 0.25, which
  // revives every row, so layer 1 runs its kernel on constant rows.
  const std::vector<float> positive(net.layers.size(), 0.25f);
  const auto trace = check_all_arms(net.layers, positive, gc::kClamp, zeros, 5);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_TRUE(trace[0].skipped);
  EXPECT_EQ(trace[0].nonzero_outputs, 5u * 1024u);
  EXPECT_FALSE(trace[1].skipped);
  EXPECT_DOUBLE_EQ(trace[1].input_density, 1.0);
}

TEST(SparseDnnFused, SaturatingClampAndEmptyBatch) {
  Rng rng(7);
  std::vector<Csr<float>> layers = {random_layer(10, 12, 0.5, rng),
                                    random_layer(12, 8, 0.5, rng)};
  std::vector<float> biases = {5.0f, 5.0f};  // drive everything positive
  // clamp well below the bias: every active output saturates.
  check_all_arms(layers, biases, /*clamp=*/0.25f,
                 random_input(6, 10, 0.8, rng), 6);
  // Empty batch: all arms must return an empty span and record stats.
  // It holds no nonzero, so auto dispatch runs no kernel on any layer.
  infer::SparseDnn dnn(layers, biases, 0.25f);
  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  const auto y = dnn.forward(nullptr, 0, ws, &stats);
  EXPECT_TRUE(y.empty());
  EXPECT_EQ(stats.edges_processed, 0u);
  EXPECT_EQ(stats.nonzero_outputs, 0u);
  ASSERT_EQ(ws.last_dispatch().size(), 2u);
  for (const auto& d : ws.last_dispatch()) {
    EXPECT_TRUE(d.skipped);
    EXPECT_EQ(d.nonzero_outputs, 0u);
  }
}

TEST(SparseDnnFused, RejectsInputAliasingWorkspacePanels) {
  // A span returned by forward aliases a panel; feeding it back while
  // the kernels rewrite (or reserve() reallocates) those panels would
  // corrupt the pass, so the engine must refuse it.
  Rng rng(31);
  std::vector<Csr<float>> layers = {random_layer(8, 8, 0.6, rng)};
  infer::SparseDnn dnn(layers, 0.1f);
  infer::InferenceWorkspace ws;
  const auto x = random_input(2, 8, 0.8, rng);
  const auto y = dnn.forward(x.data(), 2, ws);
  EXPECT_THROW((void)dnn.forward(y.data(), 2, ws), Error);
}

TEST(SparseDnnFused, VectorOverloadMatchesSpanOverload) {
  Rng rng(9);
  std::vector<Csr<float>> layers = {random_layer(14, 9, 0.4, rng)};
  infer::SparseDnn dnn(layers, std::vector<float>{-0.1f}, 2.0f);
  const auto x = random_input(5, 14, 0.6, rng);
  infer::InferenceWorkspace ws;
  const auto span_y = dnn.forward(x.data(), 5, ws);
  const auto vec_y = dnn.forward(x, 5);
  expect_bit_exact(span_y, vec_y, "vector-vs-span");
}

TEST(SparseDnnFused, AutoDispatchTracksActivationDensity) {
  Rng rng(13);
  std::vector<Csr<float>> layers = {random_layer(64, 64, 0.3, rng),
                                    random_layer(64, 64, 0.3, rng)};
  infer::SparseDnn dnn(layers, std::vector<float>{0.0f, 0.0f});
  infer::InferenceWorkspace ws;

  // All-zero input: density 0 -> the scatter arm's row skip wins, and
  // with nothing to skip over, no kernel runs: the bias-0 fill is +0, so
  // layer 1's input is all zero too.
  std::vector<float> zeros(64 * 4, 0.0f);
  (void)dnn.forward(zeros.data(), 4, ws);
  ASSERT_EQ(ws.last_dispatch().size(), 2u);
  EXPECT_EQ(ws.last_dispatch()[0].chosen, infer::Kernel::kScatter);
  EXPECT_DOUBLE_EQ(ws.last_dispatch()[0].input_density, 0.0);
  EXPECT_EQ(ws.last_dispatch()[0].nonzero_outputs, 0u);
  EXPECT_TRUE(ws.last_dispatch()[0].skipped);
  EXPECT_TRUE(ws.last_dispatch()[1].skipped);

  // Fully dense input: density 1 -> gather.
  std::vector<float> ones(64 * 4, 1.0f);
  (void)dnn.forward(ones.data(), 4, ws);
  EXPECT_EQ(ws.last_dispatch()[0].chosen, infer::Kernel::kGather);
  EXPECT_DOUBLE_EQ(ws.last_dispatch()[0].input_density, 1.0);
  EXPECT_FALSE(ws.last_dispatch()[0].skipped);

  // Each gather form has its own crossover.  At input density 0.1 a
  // challenge layer, which gathers through its layout, is past the
  // structured crossover; the same topology with per-edge weights has
  // no layout and stays below the CSR form's.
  Rng crng(14);
  const std::vector<Csr<float>> structured = {
      gc::network(1024, 2, &crng).layers[0]};
  auto weighted = structured;
  weighted[0] = weighted[0].map<float>(
      [&](float) { return static_cast<float>(crng.uniform(0.03, 0.09)); });
  const auto x = gc::synthetic_input(4, 1024, 0.1, crng);
  for (const auto& [one_layer, arm] :
       {std::pair{structured, infer::Kernel::kGather},
        std::pair{weighted, infer::Kernel::kScatter}}) {
    const infer::SparseDnn one(one_layer, -0.3f);
    ASSERT_EQ(one.layout(0) != nullptr, arm == infer::Kernel::kGather);
    (void)one.forward(x.data(), 4, ws);
    ASSERT_EQ(ws.last_dispatch().size(), 1u);
    EXPECT_GT(ws.last_dispatch()[0].input_density,
              infer::kStructuredGatherDensityThreshold);
    EXPECT_LE(ws.last_dispatch()[0].input_density,
              infer::kGatherDensityThreshold);
    EXPECT_EQ(ws.last_dispatch()[0].chosen, arm);
  }
}

TEST(SparseDnnFused, WorkspaceReuseIsZeroAllocation) {
  Rng rng(21);
  const auto net = gc::network(1024, 4, &rng);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  Rng irng(3);
  const index_t batch = 16;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);

  infer::InferenceWorkspace ws;
  infer::InferenceStats stats;
  // Warm-up sizes the panels.
  const auto y1 = dnn.forward(x.data(), batch, ws, &stats);
  const std::vector<float> first(y1.begin(), y1.end());
  const float* panel_before = ws.panel_data();
  const std::size_t cap_before = ws.capacity();
  EXPECT_EQ(cap_before, static_cast<std::size_t>(batch) * 1024);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y2 = dnn.forward(x.data(), batch, ws, &stats);
  g_count_allocs.store(false);
  const std::uint64_t allocs = g_alloc_count.load();

  EXPECT_EQ(allocs, 0u) << "steady-state forward must not allocate";
  EXPECT_EQ(ws.panel_data(), panel_before);
  EXPECT_EQ(ws.capacity(), cap_before);
  expect_bit_exact(y2, first, "steady-state reuse");
}

TEST(SparseDnnFused, SkippedLayersAllocateNothingAfterPrewarm) {
  // The serving shape: after layer 1 every row is dead, so layers 2-11
  // run no kernel.  Their fills use the prewarmed panels only.
  const auto net = gc::network(1024, 12, nullptr);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  Rng irng(903);
  const index_t batch = 8;
  const auto x = gc::synthetic_input(batch, 1024, 0.1, irng);

  infer::InferenceWorkspace ws;
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y = dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "a forward with skipped layers must not allocate";
  const auto skipped = std::count_if(
      ws.last_dispatch().begin(), ws.last_dispatch().end(),
      [](const infer::LayerDispatch& d) { return d.skipped; });
  EXPECT_EQ(skipped, 10);

  infer::InferenceWorkspace scatter_ws;
  scatter_ws.force_kernel(infer::Kernel::kScatter);
  expect_bit_exact(dnn.forward(x.data(), batch, scatter_ws),
                   std::vector<float>(y.begin(), y.end()), "skip-vs-scatter");
}

TEST(SparseDnnFused, PrewarmMakesFirstForwardZeroAllocation) {
  // Without prewarm, the first forward through a workspace pays its
  // one-time costs: panel sizing and the dispatch-trace reserve.
  // prewarm(WorkspaceHint) pays them up front, so even the *first*
  // forward through the hinted workspace is allocation-free.
  // Non-uniform weights keep every layer off the structured gather
  // kernel, so the CSR gather form's pack panel is sized too.
  Rng rng(25);
  auto net = gc::network(1024, 4, &rng);
  randomize_weights(net.layers, rng);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    ASSERT_EQ(dnn.layout(k), nullptr) << "layer " << k;
  }
  Rng irng(4);
  const index_t batch = 8;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);

  infer::InferenceWorkspace ws;
  // Force the gather arm, the one that reads the pack panel (auto
  // dispatch would also be covered, but this pins the worst case).
  ws.force_kernel(infer::Kernel::kGather);
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  EXPECT_EQ(ws.capacity(), static_cast<std::size_t>(batch) * 1024);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y1 = dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "first forward after prewarm must not allocate";

  // Bit-exact against an un-prewarmed engine: prewarm changes when the
  // workspace is sized, never what the pass computes.
  infer::SparseDnn cold(net.layers, net.bias, gc::kClamp);
  infer::InferenceWorkspace cold_ws;
  cold_ws.force_kernel(infer::Kernel::kGather);
  const auto y2 = cold.forward(x.data(), batch, cold_ws);
  expect_bit_exact(y1, std::vector<float>(y2.begin(), y2.end()), "prewarm");

  // Idempotent, and a null-workspace hint (a no-op) is allowed.
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  dnn.prewarm();
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  (void)dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u);
}

TEST(SparseDnnFused, FreshInstanceFirstGatherForwardAllocatesNothing) {
  // Every layer's gather structure is built at construction, so the
  // first forced-gather forward of a fresh instance without layouts
  // allocates nothing once its workspace is sized.  The workspace is
  // sized through another instance's prewarm, so the fresh one never
  // calls prewarm itself.
  Rng rng(28);
  auto net = gc::network(1024, 4, &rng);
  randomize_weights(net.layers, rng);
  Rng irng(9);
  const index_t batch = 8;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);

  infer::InferenceWorkspace ws;
  ws.force_kernel(infer::Kernel::kGather);
  const infer::SparseDnn sizer(net.layers, net.bias, gc::kClamp);
  sizer.prewarm({.max_batch = batch, .workspace = &ws});

  const infer::SparseDnn fresh(net.layers, net.bias, gc::kClamp);
  for (std::size_t k = 0; k < fresh.depth(); ++k) {
    ASSERT_EQ(fresh.layout(k), nullptr) << "layer " << k;
  }
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y = fresh.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "first gather forward of a fresh instance must not allocate";
  for (const auto& d : ws.last_dispatch()) {
    EXPECT_EQ(d.chosen, infer::Kernel::kGather);
  }

  infer::InferenceWorkspace scatter_ws;
  scatter_ws.force_kernel(infer::Kernel::kScatter);
  expect_bit_exact(fresh.forward(x.data(), batch, scatter_ws),
                   std::vector<float>(y.begin(), y.end()),
                   "fresh gather-vs-scatter");
}

TEST(SparseDnnFused, PrewarmBuildsNothingForStructuredNet) {
  // Every layer of a challenge net has a layout, so its gather arm reads
  // no transpose and a workspace prewarmed for it gets no pack panel,
  // which only the CSR gather form reads.  A prewarm without a
  // workspace allocates nothing.
  Rng rng(26);
  const auto net = gc::network(1024, 4, &rng);
  const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    ASSERT_NE(dnn.layout(k), nullptr) << "layer " << k;
  }
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  dnn.prewarm();
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "a prewarm without a workspace must not allocate";

  infer::InferenceWorkspace ws;
  dnn.prewarm({.max_batch = 64, .workspace = &ws});
  EXPECT_EQ(ws.capacity(), 64u * 1024u);
  EXPECT_EQ(ws.pack_capacity(), 0u);
}

TEST(SparseDnnFused, PackPanelCoversWidestLayerInput) {
  // The gather arm packs each layer's input rows into the workspace's
  // pack panel.  In a funnel stack layer 0's input (256) is wider than
  // every output (64), so a pack panel sized by max_width() would be
  // too small for layer 0 (an out-of-bounds write under ASan).  Batch
  // 13 = 8 + 4 + 1 packs an 8-row and a 4-row block at rows 0 and 8.
  Rng rng(41);
  std::vector<Csr<float>> layers = {random_layer(256, 64, 0.1, rng),
                                    random_layer(64, 64, 0.3, rng),
                                    random_layer(64, 64, 0.3, rng)};
  infer::SparseDnn dnn(layers, std::vector<float>{0.05f, 0.02f, 0.01f},
                       2.0f);
  ASSERT_EQ(dnn.max_width(), 64u);
  Rng irng(42);
  const index_t batch = 13;
  const auto x = random_input(batch, 256, 0.6, irng);

  infer::InferenceWorkspace ws;
  ws.force_kernel(infer::Kernel::kGather);
  dnn.prewarm({.max_batch = batch, .workspace = &ws});
  EXPECT_EQ(ws.pack_capacity(), static_cast<std::size_t>(batch) * 256);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto y = dnn.forward(x.data(), batch, ws);
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "first forward after prewarm must not allocate";
  for (const auto& d : ws.last_dispatch()) {
    EXPECT_EQ(d.chosen, infer::Kernel::kGather);
  }
  const std::vector<float> gathered(y.begin(), y.end());
  EXPECT_GT(std::count_if(gathered.begin(), gathered.end(),
                          [](float v) { return v != 0.0f; }),
            0);

  infer::InferenceWorkspace scatter_ws;
  scatter_ws.force_kernel(infer::Kernel::kScatter);
  expect_bit_exact(dnn.forward(x.data(), batch, scatter_ws), gathered,
                   "gather-vs-scatter");
  expect_bit_exact(gathered,
                   straight_forward(layers, dnn.biases(), 2.0f, x, batch),
                   "gather-vs-reference");
}

TEST(SparseDnnFused, WorkspaceGrowsMonotonically) {
  Rng rng(23);
  std::vector<Csr<float>> layers = {random_layer(8, 32, 0.5, rng)};
  infer::SparseDnn dnn(layers, 0.0f);
  infer::InferenceWorkspace ws;
  (void)dnn.forward(std::vector<float>(2 * 8, 1.0f).data(), 2, ws);
  EXPECT_EQ(ws.capacity(), 2u * 32u);
  (void)dnn.forward(std::vector<float>(6 * 8, 1.0f).data(), 6, ws);
  EXPECT_EQ(ws.capacity(), 6u * 32u);
  // Shrinking batch keeps the larger panels (no thrash).
  (void)dnn.forward(std::vector<float>(1 * 8, 1.0f).data(), 1, ws);
  EXPECT_EQ(ws.capacity(), 6u * 32u);
}

}  // namespace
}  // namespace radix
