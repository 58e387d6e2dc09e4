// E10 -- "Building a brain" ([18], unpublished): RadiX-Nets at brain-like
// size and sparsity, as a *timed* Google Benchmark harness.
//
// The human brain has ~8.6e10 neurons with average synaptic degree
// ~1e3-1e4, i.e. layer densities of order 1e-7 at cortical scale.  The
// measured tier constructs RadiX-Nets of growing width at brain-like
// per-neuron degree (degree 32 per transition, widths 2^10..2^16 via
// power-of-two filler radices) and reports build throughput in
// edges/second plus density/storage counters -- the construction-cost
// curve toward the regime [18] targets.  The analytic tier times the
// closed-form path-count/storage extrapolation (exact by E4/E6, the
// substitution DESIGN.md documents for [18]) at depths whose widths
// reach 3.4e10-neuron layers (d=7) and beyond (d=8): brain scale is
// *analyzed*, not built, and the BigUInt arithmetic that replaces
// construction is what gets timed.
//
// Each tier's density and storage figures are counters on its timed
// benchmark (`--benchmark_format=json` carries them).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/properties.hpp"
#include "radixnet/analytics.hpp"
#include "radixnet/builder.hpp"
#include "support/biguint.hpp"

namespace radix {
namespace {

// Measured tier: widths 2^10 .. 2^16, degree 32 per transition.
const std::vector<std::vector<std::uint32_t>>& tiers() {
  static const std::vector<std::vector<std::uint32_t>> t = {
      {32, 32},      // 2^10
      {16, 16, 16},  // 2^12
      {16, 32, 32},  // 2^14
      {32, 32, 64},  // 2^16
  };
  return t;
}

void BM_BrainScaleBuild(benchmark::State& state) {
  const auto& radices = tiers()[static_cast<std::size_t>(state.range(0))];
  std::uint64_t width = 1;
  for (auto r : radices) width *= r;
  const RadixNetSpec spec = RadixNetSpec::extended({MixedRadix(radices)});

  std::uint64_t edges = 0;
  double dens = 0.0;
  for (auto _ : state) {
    const Fnnt g = build_radix_net(spec);
    benchmark::DoNotOptimize(g.num_edges());
    edges = g.num_edges();
    dens = density(g);
  }
  // Build throughput in the challenge's own currency: edges materialized
  // per second of construction time.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(edges));
  state.counters["width"] = static_cast<double>(width);
  state.counters["edges"] = static_cast<double>(edges);
  state.counters["density"] = dens;
  state.counters["csr_bytes"] = static_cast<double>(edges * 5 + width * 8);
}

// Analytic tier: uniform radix 32, 4 systems, depth d; width 32^d
// approaches brain scale at d=7 (3.4e10) and exceeds it at d=8.  Timed:
// the closed-form path-count (BigUInt) and storage extrapolation.
void BM_BrainScaleAnalytics(benchmark::State& state) {
  const std::size_t d = static_cast<std::size_t>(state.range(0));

  std::size_t path_digits = 0;
  for (auto _ : state) {
    std::vector<MixedRadix> systems(4, MixedRadix::uniform(32, d));
    const auto spec = RadixNetSpec::extended(std::move(systems));
    const BigUInt paths = predicted_path_count(spec);
    path_digits = paths.to_decimal().size();
    benchmark::DoNotOptimize(path_digits);
  }

  const double width = std::pow(32.0, static_cast<double>(d));
  const double transitions = 4.0 * static_cast<double>(d);
  const double synapses = transitions * width * 32.0;
  const double neurons = (transitions + 1.0) * width;
  state.counters["width"] = width;
  state.counters["neurons"] = neurons;
  state.counters["synapses"] = synapses;
  state.counters["density"] = 32.0 / width;
  state.counters["storage_tb"] = (synapses * 5.0 + neurons * 8.0) / 1e12;
  state.counters["paths_digits"] = static_cast<double>(path_digits);
}

BENCHMARK(BM_BrainScaleBuild)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_BrainScaleAnalytics)
    ->DenseRange(4, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radix
