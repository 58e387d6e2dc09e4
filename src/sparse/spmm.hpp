// Sparse x dense and dense x sparse multiply kernels.
//
// These are the inner loops of both the inference engine (infer/) and the
// sparse NN layers (nn/):
//
//   spmm_dense_csr:  Y[b x n] = X[b x m] * W[m x n]   (W sparse)
//     -- forward pass of a sparse linear layer: iterate W's rows r,
//        scatter X[:, r] * w(r, c) into Y[:, c].  Parallel over batch.
//
//   spmm_dense_csrT: Y[b x m] = X[b x n] * W^T         (W sparse, m x n)
//     -- backward pass (dX = dY * W^T) without materializing W^T:
//        gather along W's rows.
//
// Dense operands are row-major float arrays (batch-major), matching
// nn::Tensor's layout.
//
// Fused variants
// --------------
// The *_fused kernels own the whole per-layer pipeline of the inference
// engine: they zero / overwrite the output panel themselves, apply the
// Graph-Challenge epilogue  y = min(clamp, ReLU(y + bias))  in the same
// pass that produces y (while the tile is still cache-resident, instead
// of a second full read-modify-write sweep of the activation matrix),
// and return the number of nonzero outputs as a free byproduct -- the
// activation-density signal the engine's adaptive kernel dispatch and
// InferenceStats consume.  Both accumulate contributions to each output
// in ascending input-index order, so the scatter and gather forms are
// bit-identical to each other and to a straight-line reference.
//
// Both fused kernels process the batch in tiles sized so a tile's input
// and output panels stay cache-resident while the weight matrix streams
// through exactly once per tile (instead of once per batch row).
//
// The fused kernels take the weight matrix as a CsrFloatView (implicitly
// constructible from Csr<float>, so owning call sites are unchanged):
// the inner loops only ever stream the three CSR arrays, so they run
// equally over heap-owned layers and mmap'd artifact sections -- the
// zero-copy load path of store/artifact.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sparse/csr.hpp"
#include "sparse/csr_view.hpp"
#include "sparse/radix_layout.hpp"

namespace radix {

/// y[b*n + c] += sum_r x[b*m + r] * w(r, c);  y must be zero-initialized
/// by the caller (or hold an accumuland).
void spmm_dense_csr(const float* x, index_t batch, index_t m,
                    const Csr<float>& w, float* y);

/// y[b*m + r] += sum_c x[b*n + c] * w(r, c)   -- multiply by W^T.
void spmm_dense_csrT(const float* x, index_t batch, index_t n,
                     const Csr<float>& w, float* y);

/// Fused scatter kernel: y[b x n] = epilogue(X[b x m] * W[m x n]) with
/// epilogue(v) = min(clamp, max(0, v + bias)); clamp <= 0 disables the
/// ceiling.  y is written unconditionally (no zero-init required) and
/// rows of W whose activation x[b*m + r] is zero are skipped entirely,
/// which is what makes this arm win on sparse (post-ReLU) activations.
/// Returns the number of nonzero outputs.
std::uint64_t spmm_dense_csr_fused(const float* x, index_t batch, index_t m,
                                   CsrFloatView w, float* y,
                                   float bias, float clamp);

/// Fused gather kernel over a pre-transposed layer: given wt = W^T
/// (n x m), computes y[b x n] = epilogue(X[b x m] * W) by accumulating
/// each output in registers along wt's rows (pure sequential streaming,
/// no scatter read-modify-write), then applies the same epilogue before
/// the single write.  Wins once activations are dense.  Returns the
/// number of nonzero outputs.
///
/// The kernel works on blocks of up to 8 batch rows.  Before a block's
/// row loop it packs the block's input rows batch-interleaved
/// (xp[c*J + j] = x[(b0 + j)*m + c] for a J-row block at row b0), so
/// each W^T entry costs one contiguous J-float load instead of J loads
/// m floats apart.  Blocks of 4 and 8 rows add each slice as 4-float
/// vectors and apply the epilogue lane-wise with selects, bit-identical
/// to the scalar form (-0.0, NaN and Inf included).  `pack` is that
/// space: at least batch x m floats, float-aligned, contents ignored and
/// overwritten; block rows [b0, b0+J) use pack[b0*m, (b0+J)*m), so
/// concurrent tiles never overlap.  One-row blocks read x in place and
/// leave pack untouched, so pack may be null when batch is 1.  The
/// overload without `pack` allocates it per call (uninitialized); hot
/// paths pass workspace memory instead (infer::InferenceWorkspace).
std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt,
                                    float* y, float bias, float clamp,
                                    float* pack);
std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt,
                                    float* y, float bias, float clamp);

/// Uniform-weight specializations: Graph-Challenge layers store one
/// repeated nonzero value (1/16 at in-degree 32), so the inner loop can
/// accumulate plain activation sums -- no per-edge value load, no
/// per-edge multiply -- and fold the weight into the epilogue as
/// y = min(clamp, max(0, sum * uniform_weight + bias)).  The scatter and
/// gather forms accumulate in the same order and stay bit-identical to
/// each other (not to the general kernels: (sum x) * w rounds once where
/// sum(x * w) rounds per term).
std::uint64_t spmm_dense_csr_fused_uniform(const float* x, index_t batch,
                                           index_t m, CsrFloatView w,
                                           float uniform_weight, float* y,
                                           float bias, float clamp);

std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp,
                                            float* pack);
std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp);

/// Structured gather kernel for a uniform-weight mixed-radix layer
/// (sparse/radix_layout.hpp): y[b x N] = epilogue(X[b x N] * W) for the
/// layer whose layout is `layout`, reading no W arrays at all -- no
/// transpose, no per-edge index.  Inside one wrap range every output
/// reads its R inputs at the same offsets, so the kernel adds 4-float
/// slices of the input row across 4 consecutive outputs (16 at a time
/// in four accumulators; ranges or range tails shorter than 4 outputs
/// go scalar) and stores each lane to y[b*N + layout.store[c]].  Each
/// output sums from +0 in ascending input order, as the CSR arms do, so
/// the result and the returned nonzero count are bit-identical to
/// spmm_dense_csr_fused_uniform and spmm_dense_csrT_fused_uniform over
/// the same layer (-0.0, NaN and Inf included).  Parallel over tiles of
/// 8 batch rows, as the CSR arms are, so a batch of up to 8 rows never
/// forks.  Needs no pack space.
std::uint64_t spmm_dense_radix_fused_uniform(const float* x, index_t batch,
                                             const RadixLayout& layout,
                                             float uniform_weight, float* y,
                                             float bias, float clamp);

/// The value the fused scatter kernels above write to every output of a
/// batch whose inputs are all zero (-0.0 counts as zero, NaN does not):
/// they zero-fill, skip every zero activation and apply the epilogue to
/// +0, so each output is min(clamp, max(0, +0 * scale + bias)), computed
/// here by the kernels' own epilogue.  `scale` is the layer's uniform
/// weight for the *_uniform kernels and 1.0f for the general ones.  The
/// gather kernels give the same bits, except on a general layer with a
/// non-finite weight, where their 0 x Inf is NaN.  The value may be -0.0
/// (a negative scale and bias -0.0), NaN (a non-finite uniform weight)
/// or positive (a positive bias); a caller counting nonzero outputs
/// counts all of a batch's outputs or none.
float spmm_fused_zero_input_output(float scale, float bias, float clamp);

/// Number of nonzero entries of a dense float array (parallel reduction).
std::uint64_t count_nonzeros(const float* v, std::size_t n);

/// Sparse matrix times dense vector: y[r] = sum_c w(r,c) * x[c].
void spmv(const Csr<float>& w, const float* x, float* y);

/// Accumulate the outer-product gradient restricted to W's pattern:
/// grad(r, c) += sum_b x[b*m + r] * dy[b*n + c] for every stored (r, c).
/// `grad` must have the same pattern as `w` (values are written into the
/// parallel value array `grad_values`).
void sddmm_pattern(const float* x, const float* dy, index_t batch,
                   index_t m, index_t n, const Csr<float>& w,
                   float* grad_values);

}  // namespace radix
