// Per-layer profile of the inference path, measured from outside the
// program: a timed SparseDnn::forward, its dispatch record, and a replay
// of every layer through the public fused kernel on the arm the
// dispatch chose, next to a stream-bandwidth ceiling measured in the
// same run.
#pragma once

#include <vector>

#include "common.hpp"
#include "infer/sparse_dnn.hpp"

namespace perfbench {

/// Profile one forward of `batch` rows at `input`.  Appends the infer.*
/// and sparse.* per-layer metrics to `out` (sparse.<arm>.* only for an
/// arm some layer took), one detail line per layer
/// (index, arm, input density, time, computed bytes) to `log`, and
/// returns false when the replay disagrees with the forward it replays
/// (a correctness failure).
bool profile_inference(const radix::infer::SparseDnn& dnn, const float* input,
                       radix::index_t batch, SpanLog& log,
                       std::vector<Metric>& out);

}  // namespace perfbench
