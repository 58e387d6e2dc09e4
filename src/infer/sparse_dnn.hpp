// Graph-Challenge-style sparse DNN inference engine.
//
// Executes the challenge's forward rule layer by layer over a dense
// batch of activations:
//     Y_{k+1} = min(clamp, ReLU(Y_k * W_k + b_k))
// where W_k are CSR float layers (e.g. from radix::gc::network or any
// weighted FNNT) and b_k is a per-layer scalar bias applied to every
// *active* output unit (the challenge adds bias before ReLU).
//
// Hot path
// --------
// The engine runs each layer through one *fused* SpMM kernel
// (sparse/spmm.hpp): bias, ReLU and clamp are applied in the same pass
// that produces the activations, the batch is processed in
// cache-resident tiles, and the kernel returns the nonzero-output count
// as a free byproduct.  That count drives the adaptive dispatch for the
// next layer:
//
//   * a count of 0 (the whole input batch is zero, as it is once every
//     row has died under the challenge's negative bias) -> no kernel.
//     Every arm outputs the epilogue of +0 there
//     (spmm_fused_zero_input_output), so the layer takes that value
//     without reading a weight.  It writes the value to its output panel
//     only when something reads it: the last layer's caller, or the next
//     layer's kernel when the value is nonzero (a positive bias revives
//     the rows).  A +-0 value leaves the next count at 0, so that layer
//     skips too;
//   * density <= the layer's threshold -> CSR *scatter* arm, which
//     skips a layer row's weights outright whenever the activation
//     feeding it is zero (post-ReLU activations are mostly zero deep in
//     a challenge stack).  The threshold is
//     kStructuredGatherDensityThreshold for a layer with a RadixLayout
//     and kGatherDensityThreshold for any other;
//   * denser inputs -> row-*gather* arm, which accumulates each output
//     in a register instead of scattering read-modify-write traffic.
//     It takes one of two forms:
//       - a uniform-weight RadiX-Net layer (outputs possibly relabeled,
//         as gc::network's shuffle does) gets a RadixLayout at
//         construction (sparse/radix_layout.hpp).  Its gather needs no
//         weight arrays: within a wrap range every output reads its
//         inputs at the same offsets, so the structured kernel adds four
//         consecutive outputs per vector register;
//       - every other layer gathers along its transpose (also built at
//         construction), streaming the weights sequentially with four
//         batch rows per vector register in blocks of 4 or 8 rows.
//     Both forms stay bit-identical to the scatter arm.
//
// The skip is part of the automatic dispatch: a workspace pinned to one
// arm (InferenceWorkspace::force_kernel) runs that arm's kernel on every
// layer, which lets tests hold the skip against both arms.
//
// Activations live in a caller-provided InferenceWorkspace: two
// ping-pong panels sized once to batch x max_layer_width, plus the CSR
// gather form's pack panel (batch x widest input of a layer without a
// layout; empty when every layer has one), so a forward pass performs
// zero heap allocations once its workspace is sized.  Layer 0 reads the
// caller's batch in place; the only copies of activations are the CSR
// gather form's packs, which re-lay each block of up to 8 input rows
// batch-interleaved so a W^T entry costs one contiguous load and one
// packed add per four rows (sparse/spmm.hpp).
// Nothing in a SparseDnn changes after construction, so concurrent
// forward calls on one instance are safe as long as each caller brings
// its own workspace.
//
// Layer storage
// -------------
// Internally every layer is a CsrFloatView; the kernels only ever see
// views.  A SparseDnn either owns its layers (the Csr<float>
// constructors -- views point into the owned vectors) or borrows them
// from external storage such as an mmap'd model artifact
// (store/artifact.hpp): the view constructor takes a
// shared_ptr<const void> keep-alive that pins the backing memory for
// the engine's lifetime.  Borrowed layers are never copied -- the fused
// kernels stream the mapped arrays directly; only each layer's gather
// structure is materialized on the heap, at construction: its
// RadixLayout (O(width)) or, for a layer without one, its transpose
// (O(nnz)).
// SparseDnn is move-only: views into owned layers stay valid across
// moves (vector heap buffers are stable) but would dangle in a copy.
//
// The engine reports the standard challenge throughput metric: edges
// processed per second = batch * sum_k nnz(W_k) / wall time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "infer/workspace.hpp"
#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/radix_layout.hpp"

namespace radix::infer {

/// Activation-density crossover of the adaptive dispatch for a layer
/// without a RadixLayout, whose gather arm runs the CSR gather form.
/// Below it the scatter arm's zero-activation row skip saves more weight
/// traffic than the gather arm's sequential streaming recovers; above it
/// the gather arm wins.  Re-measured on a 4-core Xeon with the gather arm's
/// 4-float vector blocks: each layer of a Graph-Challenge net run alone
/// with each arm forced at a set input density, times summed over the
/// net.  The gather/scatter time ratio reaches 1 at these input
/// densities:
///
///                batch 1      batch 8      batch 64
///   1024 x 12    0.30-0.40    0.05         0.05
///   4096 x 24    0.30-0.40    0.03-0.05    0.03-0.05
///
/// So 0.25 sits between the two crossovers: one-row batches would be
/// served best by about 0.3-0.4, batched ones by about 0.05.
inline constexpr double kGatherDensityThreshold = 0.25;

/// Crossover for a layer with a RadixLayout, which every
/// Graph-Challenge layer has: its gather arm runs the structured kernel.
/// Measured as above on the same host (shuffled nets, medians of 11
/// calls, 3 runs at 1 thread and 2 at 4 threads), the structured
/// gather/scatter ratio reaches 1 at:
///
///                batch 1      batch 8      batch 64
///   1024 x 12    0.01-0.02    0.03-0.05    0.02-0.05
///   4096 x 24    below 0.01   0.01-0.02    0.01-0.02
///
/// At 0.25 the structured gather takes 0.19-0.37x the scatter time.
/// At serving batch sizes the same probe gave these structured
/// gather/scatter time ratios (the 1024 rows cover the unshuffled and
/// the shuffled net; 3 runs at 4 threads and 2 at 1 thread, which read
/// alike):
///
///                  density   batch 1     batch 2     batch 4     batch 8
///   1024 x 12      0.02      0.79-0.89   0.82-1.02   0.94-1.14   0.98-1.21
///                  0.05      0.59-0.70   0.63-0.74   0.67-0.83   0.75-0.93
///                  0.10      0.45-0.51   0.46-0.58   0.51-0.63   0.51-0.67
///   4096 x 24      0.02      0.63-0.69   0.64-0.79   0.74-0.84   0.76-0.98
///                  0.05      0.45-0.55   0.50-0.60   0.54-0.66   0.56-0.72
///                  0.10      0.35-0.41   0.36-0.47   0.36-0.46   0.36-0.47
///
/// So at 0.05 the structured gather was faster in every case measured,
/// while at 0.02 a batched 1024-wide layer was not.  Requests at input
/// density 0.1 (serve-wire's) gather their live layers.
inline constexpr double kStructuredGatherDensityThreshold = 0.05;

/// The workspace SparseDnn::prewarm should size ahead of the first
/// forward call (see prewarm below).
struct WorkspaceHint {
  /// Largest batch (rows) the caller expects to run; used to size the
  /// workspace panels.
  index_t max_batch = 0;
  /// Workspace to pre-size; null makes prewarm a no-op.
  InferenceWorkspace* workspace = nullptr;
};

struct InferenceStats {
  double wall_seconds = 0.0;
  // batch * total nnz, skipped layers included: the challenge's count.
  std::uint64_t edges_processed = 0;
  double edges_per_second = 0.0;
  std::uint64_t nonzero_outputs = 0;  // nnz of the final activation
};

class SparseDnn {
 public:
  /// Layers must chain (cols of k == rows of k+1); bias is per layer.
  SparseDnn(std::vector<Csr<float>> layers, std::vector<float> biases,
            float clamp = 0.0f /* 0 = no clamp */);

  /// Convenience: uniform bias across layers.
  SparseDnn(std::vector<Csr<float>> layers, float bias, float clamp = 0.0f);

  /// Borrowed-storage constructor: the layer views point into memory
  /// owned elsewhere (e.g. an mmap'd artifact); `storage` keeps that
  /// memory alive for the engine's lifetime.  The caller vouches for
  /// the views' CSR invariants (the artifact reader validates before
  /// constructing); shapes are still chain-checked here.
  SparseDnn(std::vector<CsrFloatView> layers, std::vector<float> biases,
            float clamp, std::shared_ptr<const void> storage);

  // Views into owned layers_ survive a move -- vector heap buffers are
  // stable.  Moving while another thread runs forward is as undefined as
  // for any container.
  SparseDnn(SparseDnn&&) = default;
  SparseDnn& operator=(SparseDnn&&) = default;
  SparseDnn(const SparseDnn&) = delete;
  SparseDnn& operator=(const SparseDnn&) = delete;

  index_t input_width() const;
  index_t output_width() const;
  std::size_t depth() const noexcept { return views_.size(); }
  std::uint64_t total_nnz() const noexcept;

  /// Per-layer weight view (borrowed or into the owned layers) and the
  /// epilogue parameters -- the surface the artifact writer serializes.
  CsrFloatView layer_view(std::size_t k) const { return views_[k]; }
  const std::vector<float>& biases() const noexcept { return biases_; }
  float clamp() const noexcept { return clamp_; }
  /// True when layer k stores one repeated weight value (Graph-Challenge
  /// layers); uniform_weight(k) is that value.
  bool layer_uniform(std::size_t k) const { return layer_uniform_[k] != 0; }
  float uniform_weight(std::size_t k) const { return uniform_weight_[k]; }
  /// Mixed-radix layout of layer k when it is a uniform-weight RadiX-Net
  /// layer, whose gather arm then runs spmm_dense_radix_fused_uniform;
  /// null for a layer whose gather arm runs over its CSR transpose.
  const RadixLayout* layout(std::size_t k) const {
    return layouts_[k] ? &*layouts_[k] : nullptr;
  }

  /// Widest activation panel a forward pass writes: the max over layer
  /// output widths.  The input batch is read in place, never staged in
  /// an activation panel, so the input width does not participate (it
  /// does size the pack panel when layer 0 has no layout).
  index_t max_width() const noexcept;

  /// Size the hint's workspace up front -- its panels for
  /// hint.max_batch rows and its dispatch trace -- so the *first*
  /// forward call through it is already allocation-free.  Every layer's
  /// gather structure is built at construction, so there is nothing
  /// else to pay; without a workspace this does nothing.
  void prewarm(const WorkspaceHint& hint = {}) const;

  /// Zero-allocation forward: runs the full stack over the row-major
  /// [batch x input_width] batch at `input` using the workspace's
  /// ping-pong panels (and its pack panel on gather layers).  The
  /// returned span of final activations [batch x output_width] aliases
  /// workspace memory and stays valid until the workspace is next
  /// written.  The input batch is read in place, never staged in an
  /// activation panel.
  std::span<const float> forward(const float* input, index_t batch,
                                 InferenceWorkspace& workspace,
                                 InferenceStats* stats = nullptr) const;

  /// Convenience overload owning a transient workspace; validates the
  /// input size and copies the result out.  Use the span overload with a
  /// long-lived workspace on hot paths.
  std::vector<float> forward(const std::vector<float>& input, index_t batch,
                             InferenceStats* stats = nullptr) const;

  /// Rows of the final activation whose max entry is positive
  /// ("categories" in challenge terms).
  static std::vector<index_t> active_rows(std::span<const float> y,
                                          index_t batch, index_t width);

 private:
  void validate_and_index();
  /// Widest input of a layer without a layout (layer 0's included): the
  /// width of the CSR gather form's pack panel, 0 when every layer has a
  /// layout.
  index_t pack_width() const noexcept;

  // Owned layers (empty when borrowing); views_ is the single source of
  // truth the hot path iterates -- one view per layer, pointing either
  // into layers_ or into storage_-pinned external memory.
  std::vector<Csr<float>> layers_;
  std::vector<CsrFloatView> views_;
  std::shared_ptr<const void> storage_;
  std::vector<float> biases_;
  float clamp_;
  // Graph-Challenge layers store one repeated weight; the constructor
  // detects that per layer so the kernels can drop the per-edge value
  // load + multiply (spmm_dense_csr*_fused_uniform).
  std::vector<char> layer_uniform_;
  std::vector<float> uniform_weight_;
  // Per layer, exactly one gather structure: the RadixLayout of a
  // uniform RadiX-Net layer, else the layer's transpose.  Both are built
  // at construction and immutable after it.
  std::vector<std::optional<RadixLayout>> layouts_;
  std::vector<std::optional<Csr<float>>> transposes_;
};

}  // namespace radix::infer
