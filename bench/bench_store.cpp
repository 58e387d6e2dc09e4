// Model-store load-path benchmark (store/artifact.hpp).
//
// Two ways to get the same Graph-Challenge model from disk into a ready
// SparseDnn, measured end to end:
//
//   BM_StoreLoadMmap -- RADIXART full-CSR artifact: mmap + validate +
//       zero-copy views (no deserialize pass; the only per-load heap
//       work is the section table and the view vector).
//   BM_StoreLoadTsv  -- the legacy path: parse the TSV layer stack,
//       apply weights, build owned CSR layers.
//
// scripts/check_perf_smoke.py gates mmap load at >= 10x the TSV parse at
// equal depth.  Arg: {layers}.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/io.hpp"
#include "store/artifact.hpp"

namespace radix {
namespace {

constexpr index_t kNeurons = 1024;

struct StoreFiles {
  std::string artifact;    // full-CSR RADIXART
  std::string tsv_prefix;  // TSV layer stack
  std::uint64_t artifact_bytes = 0;
};

// One on-disk copy of each format per depth, written once per process
// into a scratch dir under the bench's working directory.
const StoreFiles& files_for(std::size_t layers) {
  static std::map<std::size_t, StoreFiles> cache;
  auto it = cache.find(layers);
  if (it != cache.end()) return it->second;

  static const std::string dir = [] {
    std::string d = "radixnet_bench_store_" + std::to_string(getpid());
    std::system(("rm -rf " + d + " && mkdir -p " + d).c_str());
    std::atexit([] {
      std::system(("rm -rf radixnet_bench_store_" +
                   std::to_string(getpid()))
                      .c_str());
    });
    return d;
  }();

  // Plain (unshuffled) network: the TSV stack is written from the
  // unshuffled topology, so both formats carry the same model.
  const gc::Network net = gc::network(kNeurons, layers, nullptr);
  const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);

  StoreFiles f;
  const std::string stem = dir + "/model_" + std::to_string(layers);
  f.artifact = stem + ".radixart";
  store::save_artifact(f.artifact, dnn, "bench");
  f.artifact_bytes = store::ArtifactReader(f.artifact).file_size();

  f.tsv_prefix = stem + "_tsv";
  write_layer_stack(f.tsv_prefix, gc::topology(kNeurons, layers).layers());

  return cache.emplace(layers, std::move(f)).first->second;
}

infer::SparseDnn load_tsv(const StoreFiles& f) {
  std::vector<Csr<float>> layers;
  for (const auto& l : read_layer_stack(f.tsv_prefix)) {
    layers.push_back(
        l.map<float>([](pattern_t) { return gc::kWeight; }));
  }
  return infer::SparseDnn(std::move(layers), gc::bias_for_width(kNeurons),
                          gc::kClamp);
}

void BM_StoreLoadMmap(benchmark::State& state) {
  const StoreFiles& f = files_for(static_cast<std::size_t>(state.range(0)));
  std::uint64_t nnz = 0;
  for (auto _ : state) {
    store::ArtifactReader reader(f.artifact);
    infer::SparseDnn dnn = reader.instantiate();
    nnz = dnn.total_nnz();
    benchmark::DoNotOptimize(nnz);
  }
  state.counters["artifact_bytes"] =
      static_cast<double>(f.artifact_bytes);
  state.counters["nnz"] = static_cast<double>(nnz);
}
BENCHMARK(BM_StoreLoadMmap)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

void BM_StoreLoadTsv(benchmark::State& state) {
  const StoreFiles& f = files_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    infer::SparseDnn dnn = load_tsv(f);
    benchmark::DoNotOptimize(dnn.total_nnz());
  }
}
BENCHMARK(BM_StoreLoadTsv)->Arg(12)->Arg(24)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace radix
