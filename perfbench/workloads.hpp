// The three workloads of the benchmark.  Each builds its inputs from the
// seed, measures for the given seconds, checks every output, and returns
// its end-to-end metrics (and, in traced runs, its per-layer metrics).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for artifacts the workloads save and load.
  std::string work_dir = ".";
};

/// Closed loop of 64-row SparseDnn::forward calls on the shuffled
/// 4096 x 24 challenge network at input density 0.4.
Result run_batch_dense(const RunOptions& options, SpanLog& log);

/// Open-loop Poisson ladder of 1-row requests over loopback into a
/// 2-shard router serving the 1024 x 12 network at input density 0.1.
Result run_serve_wire(const RunOptions& options, SpanLog& log);

/// One fixed rate of the same wire traffic at input density 0.4 while a
/// control loop swaps the served model between its full-CSR and
/// spec-only artifacts and adds and removes a second model.
Result run_model_churn(const RunOptions& options, SpanLog& log);

}  // namespace perfbench
