// E16 -- extension: fault tolerance of path-connectedness.
//
// The paper's guarantees are exact properties of the undamaged topology.
// A natural systems question the construction raises: how robust is
// path-connectedness to random edge failures?  Symmetry distributes
// paths evenly, so RadiX-Nets should degrade gracefully compared with an
// ER control of the same density whose path mass is uneven.  We delete a
// growing fraction of edges and measure the surviving fraction of
// connected input/output pairs (mean over seeds).
//
// Google Benchmark harness (converted from the original untimed stdout
// reproduction): one family per topology, swept over the drop fraction
// in percent --
//
//   BM_SurvivalRadixNet/<drop_pct>
//   BM_SurvivalCayleyXNet/<drop_pct>
//   BM_SurvivalErRandom/<drop_pct>
//
// The timed body is the damage analysis itself (drop_edges +
// connected_pair_fraction over kSeeds seeds) and each run reports the
// mean `survival` fraction as a counter, so the scientific content of
// the old table rides the JSON output.  The E16 headline reads off the
// counters: RadiX-Net survival at 50% edge loss at or above the ER
// control's.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "graph/analysis.hpp"
#include "graph/properties.hpp"
#include "radixnet/builder.hpp"
#include "xnet/cayley.hpp"
#include "xnet/er_sparse.hpp"

namespace radix {
namespace {

constexpr int kSeeds = 5;

// Width 64, in-degree 8, 4 transitions, matched edge budgets.
const Fnnt& radix_topology() {
  static const Fnnt g = build_radix_net(
      {{8, 8}, {8, 8}}, std::vector<std::uint32_t>{1, 1, 1, 1, 1});
  return g;
}

const Fnnt& cayley_topology() {
  static const Fnnt g = cayley_xnet(64, 8, 4);
  return g;
}

const Fnnt& er_topology() {
  static const Fnnt g = [] {
    Rng rng(5);
    return er_fnnt({64, 64, 64, 64, 64}, 8.0 / 64.0, rng);
  }();
  return g;
}

double mean_survival(const Fnnt& g, double p) {
  double total = 0.0;
  for (int s = 0; s < kSeeds; ++s) {
    total += connected_pair_fraction(
        drop_edges(g, p, 1000 + static_cast<std::uint64_t>(s)));
  }
  return total / kSeeds;
}

// Arg: drop fraction in percent.  The iteration measures the damage
// sweep itself; `survival` carries the science.
void run_survival(benchmark::State& state, const Fnnt& g) {
  const double p = static_cast<double>(state.range(0)) / 100.0;
  double survival = 0.0;
  for (auto _ : state) {
    survival = mean_survival(g, p);
    benchmark::DoNotOptimize(survival);
  }
  state.counters["survival"] = benchmark::Counter(survival);
}

void BM_SurvivalRadixNet(benchmark::State& state) {
  run_survival(state, radix_topology());
}

void BM_SurvivalCayleyXNet(benchmark::State& state) {
  run_survival(state, cayley_topology());
}

void BM_SurvivalErRandom(benchmark::State& state) {
  run_survival(state, er_topology());
}

#define RADIX_SURVIVAL_SWEEP(fn) \
  BENCHMARK(fn)->Arg(0)->Arg(10)->Arg(30)->Arg(50)->Arg(70)->Unit( \
      benchmark::kMillisecond)

RADIX_SURVIVAL_SWEEP(BM_SurvivalRadixNet);
RADIX_SURVIVAL_SWEEP(BM_SurvivalCayleyXNet);
RADIX_SURVIVAL_SWEEP(BM_SurvivalErRandom);

#undef RADIX_SURVIVAL_SWEEP

}  // namespace
}  // namespace radix
