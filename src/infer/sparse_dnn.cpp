#include "infer/sparse_dnn.hpp"

#include <algorithm>

#include "sparse/spmm.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace radix::infer {

SparseDnn::SparseDnn(std::vector<Csr<float>> layers,
                     std::vector<float> biases, float clamp)
    : layers_(std::move(layers)), biases_(std::move(biases)),
      clamp_(clamp) {
  views_.assign(layers_.begin(), layers_.end());
  validate_and_index();
}

SparseDnn::SparseDnn(std::vector<Csr<float>> layers, float bias, float clamp)
    : layers_(std::move(layers)), clamp_(clamp) {
  // Not a delegating constructor: evaluating layers.size() in the same
  // argument list that moves `layers` is indeterminately sequenced.
  views_.assign(layers_.begin(), layers_.end());
  biases_.assign(layers_.size(), bias);
  validate_and_index();
}

SparseDnn::SparseDnn(std::vector<CsrFloatView> layers,
                     std::vector<float> biases, float clamp,
                     std::shared_ptr<const void> storage)
    : views_(std::move(layers)), storage_(std::move(storage)),
      biases_(std::move(biases)), clamp_(clamp) {
  validate_and_index();
}

void SparseDnn::validate_and_index() {
  RADIX_REQUIRE(!views_.empty(), "SparseDnn: need at least one layer");
  RADIX_REQUIRE(biases_.size() == views_.size(),
                "SparseDnn: one bias per layer required");
  for (std::size_t i = 0; i + 1 < views_.size(); ++i) {
    RADIX_REQUIRE_DIM(views_[i].cols() == views_[i + 1].rows(),
                      "SparseDnn: layer shapes do not chain");
  }
  layer_uniform_.reserve(views_.size());
  uniform_weight_.reserve(views_.size());
  layouts_.reserve(views_.size());
  transposes_.reserve(views_.size());
  for (const auto& l : views_) {
    const auto vals = l.values();
    const bool uniform =
        std::all_of(vals.begin(), vals.end(),
                    [&](float v) { return v == vals.front(); });
    layer_uniform_.push_back(uniform ? 1 : 0);
    uniform_weight_.push_back(uniform && !vals.empty() ? vals.front()
                                                       : 0.0f);
    layouts_.push_back(uniform ? detect_radix_layout(l) : std::nullopt);
    // A layer without a layout gathers over its transpose instead.
    transposes_.push_back(layouts_.back() ? std::nullopt
                                          : std::optional(l.transpose()));
  }
}

index_t SparseDnn::input_width() const { return views_.front().rows(); }
index_t SparseDnn::output_width() const { return views_.back().cols(); }

std::uint64_t SparseDnn::total_nnz() const noexcept {
  std::uint64_t n = 0;
  for (const auto& l : views_) n += l.nnz();
  return n;
}

index_t SparseDnn::max_width() const noexcept {
  // Activation panels only ever hold layer *outputs*; the input batch is
  // read from the caller's buffer in place and never copied into one.
  index_t w = 0;
  for (const auto& l : views_) w = std::max(w, l.cols());
  return w;
}

index_t SparseDnn::pack_width() const noexcept {
  // Only the CSR gather form packs; a layer with a layout gathers from
  // its input rows in place.
  index_t w = 0;
  for (std::size_t k = 0; k < views_.size(); ++k) {
    if (!layouts_[k]) w = std::max(w, views_[k].rows());
  }
  return w;
}

void SparseDnn::prewarm(const WorkspaceHint& hint) const {
  if (hint.workspace != nullptr) {
    hint.workspace->reserve(hint.max_batch, max_width(), pack_width(),
                            depth());
  }
}

std::span<const float> SparseDnn::forward(const float* input, index_t batch,
                                          InferenceWorkspace& workspace,
                                          InferenceStats* stats) const {
  Timer timer;
  // Layer 0 reads `input` while the kernels rewrite the panels -- and
  // reserve() below may even reallocate them -- so an input aliasing
  // the workspace (e.g. a span returned by a previous forward) is
  // unsupported; copy it out first.
  RADIX_REQUIRE(!workspace.owns(input),
                "SparseDnn::forward: input must not alias the workspace "
                "panels");
  workspace.reserve(batch, max_width(), pack_width(), depth());
  workspace.dispatch_.clear();

  // Input nonzero count seeds the density signal for the first layer's
  // dispatch; every later layer gets it free from the fused epilogue.
  std::uint64_t nz = count_nonzeros(
      input, static_cast<std::size_t>(batch) * views_.front().rows());

  const float* cur = input;  // layer 0 reads the caller's batch in place
  int out_panel = 0;
  for (std::size_t k = 0; k < views_.size(); ++k) {
    const CsrFloatView w = views_[k];
    const std::size_t in_elems =
        static_cast<std::size_t>(batch) * w.rows();
    const double density =
        in_elems > 0 ? static_cast<double>(nz) /
                           static_cast<double>(in_elems)
                     : 0.0;
    Kernel choice = workspace.forced_;
    const bool automatic = choice == Kernel::kAuto;
    if (automatic) {
      const double threshold = layouts_[k] ? kStructuredGatherDensityThreshold
                                           : kGatherDensityThreshold;
      choice = density <= threshold ? Kernel::kScatter : Kernel::kGather;
    }
    float* dst = workspace.panel(out_panel);
    const bool skipped = automatic && nz == 0;
    if (skipped) {
      // An all-zero input batch: every arm outputs the epilogue of +0
      // (spmm_fused_zero_input_output), so run none.  A +-0 fill leaves
      // the next layer's count at 0, and that layer skips without
      // reading the panel; so write it only when something reads it.
      const std::size_t out_elems =
          static_cast<std::size_t>(batch) * w.cols();
      const float fill = spmm_fused_zero_input_output(
          layer_uniform_[k] != 0 ? uniform_weight_[k] : 1.0f, biases_[k],
          clamp_);
      nz = fill != 0.0f ? out_elems : 0;
      if (nz != 0 || k + 1 == views_.size()) {
        std::fill_n(dst, out_elems, fill);
      }
    } else if (layer_uniform_[k] != 0) {
      if (choice == Kernel::kScatter) {
        nz = spmm_dense_csr_fused_uniform(cur, batch, w.rows(), w,
                                          uniform_weight_[k], dst,
                                          biases_[k], clamp_);
      } else if (layouts_[k]) {
        nz = spmm_dense_radix_fused_uniform(cur, batch, *layouts_[k],
                                            uniform_weight_[k], dst,
                                            biases_[k], clamp_);
      } else {
        nz = spmm_dense_csrT_fused_uniform(cur, batch, w.rows(),
                                           *transposes_[k],
                                           uniform_weight_[k], dst,
                                           biases_[k], clamp_,
                                           workspace.pack());
      }
    } else {
      nz = choice == Kernel::kScatter
               ? spmm_dense_csr_fused(cur, batch, w.rows(), w, dst,
                                      biases_[k], clamp_)
               : spmm_dense_csrT_fused(cur, batch, w.rows(), *transposes_[k],
                                       dst, biases_[k], clamp_,
                                       workspace.pack());
    }
    workspace.dispatch_.push_back({choice, density, nz, skipped});
    cur = dst;
    out_panel ^= 1;
  }

  if (stats != nullptr) {
    stats->wall_seconds = timer.seconds();
    stats->edges_processed = static_cast<std::uint64_t>(batch) * total_nnz();
    stats->edges_per_second =
        stats->wall_seconds > 0.0
            ? static_cast<double>(stats->edges_processed) /
                  stats->wall_seconds
            : 0.0;
    stats->nonzero_outputs = nz;  // fused-epilogue byproduct, no extra pass
  }
  return {cur, static_cast<std::size_t>(batch) * output_width()};
}

std::vector<float> SparseDnn::forward(const std::vector<float>& input,
                                      index_t batch,
                                      InferenceStats* stats) const {
  RADIX_REQUIRE_DIM(
      input.size() ==
          static_cast<std::size_t>(batch) * views_.front().rows(),
      "SparseDnn::forward: input size mismatch");
  InferenceWorkspace workspace;
  const auto y = forward(input.data(), batch, workspace, stats);
  return std::vector<float>(y.begin(), y.end());
}

std::vector<index_t> SparseDnn::active_rows(std::span<const float> y,
                                            index_t batch, index_t width) {
  RADIX_REQUIRE_DIM(y.size() == static_cast<std::size_t>(batch) * width,
                    "SparseDnn::active_rows: size mismatch");
  std::vector<index_t> rows;
  for (index_t b = 0; b < batch; ++b) {
    const float* row = y.data() + static_cast<std::size_t>(b) * width;
    for (index_t c = 0; c < width; ++c) {
      if (row[c] > 0.0f) {
        rows.push_back(b);
        break;
      }
    }
  }
  return rows;
}

}  // namespace radix::infer
