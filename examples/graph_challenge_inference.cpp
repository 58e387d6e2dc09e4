// Graph-Challenge-style sparse DNN inference on a RadiX-Net preset.
//
//   $ ./graph_challenge_inference [neurons] [layers] [batch] [repeats]
//
// Builds the preset network (shuffled neuron ids, uniform 1/16 weights,
// published bias), then runs a synthetic activation batch through the
// challenge rule Y <- min(32, ReLU(Y W + b)) repeatedly through ONE
// reused InferenceWorkspace -- the steady-state zero-allocation API the
// fused engine is built around.  Reports the standard edges/second
// metric (first call vs steady state), the structured gather kernel's
// lane count on this host and the per-layer kernel choices of the
// adaptive dispatch.
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "sparse/spmm.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace radix;

  const index_t neurons =
      argc > 1 ? static_cast<index_t>(std::atoi(argv[1])) : 1024;
  const std::size_t layers =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 12;
  const index_t batch =
      argc > 3 ? static_cast<index_t>(std::atoi(argv[3])) : 64;
  const int repeats = argc > 4 ? std::atoi(argv[4]) : 8;

  if (!gc::is_supported_width(neurons)) {
    std::fprintf(stderr,
                 "unsupported width %u (choose 1024/4096/16384/65536)\n",
                 neurons);
    return 2;
  }

  std::printf("building RadiX-Net challenge network: %u neurons x %zu "
              "layers\n",
              neurons, layers);
  Rng rng(2019);  // challenge year
  const auto net = gc::network(neurons, layers, &rng);
  infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
  std::printf("total weights: %llu, bias %.2f, weight %.4f\n\n",
              static_cast<unsigned long long>(dnn.total_nnz()), net.bias,
              gc::kWeight);

  Rng input_rng(7);
  const auto x = gc::synthetic_input(batch, neurons, 0.4, input_rng);

  // One workspace for every call: the first forward sizes its ping-pong
  // panels; every later call is allocation-free.
  infer::InferenceWorkspace ws;
  infer::InferenceStats first;
  const auto y = dnn.forward(x.data(), batch, ws, &first);
  // The span aliases workspace memory, so read it before the steady
  // loop rewrites the panels.
  const auto active = infer::SparseDnn::active_rows(y, batch, neurons);

  Timer steady;
  infer::InferenceStats stats;
  for (int i = 0; i < repeats; ++i) {
    (void)dnn.forward(x.data(), batch, ws, &stats);
  }
  const double steady_eps =
      repeats > 0 && steady.seconds() > 0.0
          ? static_cast<double>(first.edges_processed) * repeats /
                steady.seconds()
          : 0.0;

  Table t({"metric", "value"});
  t.add_row({"batch", std::to_string(batch)});
  t.add_row({"edges processed / call",
             std::to_string(first.edges_processed)});
  t.add_row({"edges/s (first call)",
             Table::fmt_sci(first.edges_per_second, 3)});
  t.add_row({"edges/s (steady state, " + std::to_string(repeats) +
                 " reused-workspace calls)",
             Table::fmt_sci(steady_eps, 3)});
  t.add_row({"workspace floats / panel", std::to_string(ws.capacity())});
  t.add_row({"active rows at output",
             std::to_string(active.size()) + " / " + std::to_string(batch)});
  t.add_row({"nonzero outputs", std::to_string(first.nonzero_outputs)});
  t.print(std::cout);

  std::printf("\nstructured gather lanes: %d\n", structured_gather_lanes());
  std::printf("adaptive dispatch (density -> kernel):\n");
  const auto& trace = ws.last_dispatch();
  for (std::size_t k = 0; k < trace.size(); ++k) {
    const char* arm = trace[k].skipped ? "skip"
                      : trace[k].chosen == infer::Kernel::kScatter
                          ? "scatter"
                          : "gather";
    std::printf("  layer %2zu: density %.3f -> %s\n", k,
                trace[k].input_density, arm);
  }
  return 0;
}
