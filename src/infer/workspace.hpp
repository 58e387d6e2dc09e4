// Reusable activation workspace for the sparse DNN inference engine.
//
// A forward pass needs two activation panels of batch x max_layer_width
// floats: layer k reads one panel (or, for the first layer, the caller's
// input batch directly) and writes the other, ping-ponging down the
// stack.  A third panel, of batch x the widest input of a layer without
// a RadixLayout (layer 0's input width included), is the CSR gather
// form's pack space: that kernel copies each block of up to 8 input
// rows into it batch-interleaved before streaming the layer (see
// spmm_dense_csrT_fused).  The structured gather kernel needs none, so
// a net whose layers all have a layout leaves it empty.
// InferenceWorkspace owns all three and grows them monotonically, so a
// caller that reuses one workspace across repeated forward calls of the
// same shape performs zero heap allocations in steady state -- the
// property the Graph-Challenge edges/second metric rewards.
//
// The workspace also records, per layer of the last forward pass, which
// kernel the adaptive dispatch chose, the activation density that drove
// the choice and whether the layer ran no kernel at all (see
// sparse_dnn.hpp for the dispatch policy), and lets tests pin the
// dispatch to one arm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sparse/types.hpp"

namespace radix::infer {

/// Which SpMM arm executes a layer.
enum class Kernel : std::uint8_t {
  kAuto,     ///< let the per-layer density heuristic decide
  kScatter,  ///< CSR scatter with zero-activation row skip
  kGather,   ///< row-gather: structured over the layer's RadixLayout,
             ///< else over the layer's transpose
};

/// Per-layer record of the last forward pass's dispatch decisions.
struct LayerDispatch {
  Kernel chosen = Kernel::kAuto;   ///< kScatter or kGather after a pass
  double input_density = 0.0;      ///< nonzero fraction of the layer input
  std::uint64_t nonzero_outputs = 0;  ///< epilogue byproduct
  /// True when the layer ran no kernel: under automatic dispatch, its
  /// whole input batch was zero, and it took the one value every arm
  /// outputs there (spmm_fused_zero_input_output).  `chosen` still names
  /// the arm the density rule picks, kScatter at density 0, and a
  /// forced arm never skips.
  bool skipped = false;
};

class InferenceWorkspace {
 public:
  InferenceWorkspace() = default;

  /// Floats per activation panel currently allocated.
  std::size_t capacity() const noexcept { return buf_[0].size(); }

  /// Floats in the CSR gather form's pack panel currently allocated.
  std::size_t pack_capacity() const noexcept { return pack_size_; }

  /// Pin every layer to one kernel arm (tests / benchmarking); kAuto
  /// restores the density heuristic.
  void force_kernel(Kernel k) noexcept { forced_ = k; }

  /// Dispatch trace of the most recent forward pass (one entry per
  /// layer, front == first layer).
  const std::vector<LayerDispatch>& last_dispatch() const noexcept {
    return dispatch_;
  }

  /// Stable address of panel 0; tests use it to prove buffer reuse.
  const float* panel_data() const noexcept { return buf_[0].data(); }

  /// True when p points into one of the activation panels (used to
  /// reject inputs that alias memory the kernels are about to rewrite).
  bool owns(const float* p) const noexcept {
    const auto q = reinterpret_cast<std::uintptr_t>(p);
    for (const auto& b : buf_) {
      const auto lo = reinterpret_cast<std::uintptr_t>(b.data());
      if (q >= lo && q < lo + b.size() * sizeof(float)) return true;
    }
    return false;
  }

 private:
  friend class SparseDnn;

  /// Ensure capacity for two batch x max_width activation panels, a
  /// batch x pack_width pack panel and a dispatch trace of `layers`
  /// entries.  Growth-only: shrinking requests keep the larger buffers,
  /// so alternating shapes never thrash the allocator.
  void reserve(index_t batch, index_t max_width, index_t pack_width,
               std::size_t layers);

  float* panel(int i) noexcept { return buf_[i].data(); }
  float* pack() noexcept { return pack_.get(); }

  std::vector<float> buf_[2];
  // The kernels write every pack entry before reading it, so the pack
  // panel skips the zero-fill a vector would do.
  std::unique_ptr<float[]> pack_;
  std::size_t pack_size_ = 0;
  std::vector<LayerDispatch> dispatch_;
  Kernel forced_ = Kernel::kAuto;
};

}  // namespace radix::infer
