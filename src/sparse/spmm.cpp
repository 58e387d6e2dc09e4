#include "sparse/spmm.hpp"

#include <algorithm>
#include <memory>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace radix {
namespace {

// Batch-tile width of the fused kernels.  Each weight-matrix row entry
// (colind + value) is loaded once per tile of kBatchTile batch rows
// instead of once per batch row, and the tile's kBatchTile accumulator
// chains are independent, so out-of-order execution hides the FP-add
// latency that serializes a one-row-at-a-time kernel.  The tile's
// activations stay register/L1-resident across the inner row loop.
// 8 was measured fastest on the bench host while the gather arm loaded
// each entry's activations from kBatchTile separate rows (4 leaves
// add-latency unhidden, 16 spills accumulators).  That note no longer
// describes the gather arm, which now reads one batch-interleaved slice
// per entry (csrT_fused_block): on a 4-core Xeon a 16-row gather tile
// ran one 4096-wide Graph-Challenge layer at batch 64 in about half
// the time of the 8-row tile.  Both arms share this width; it stays 8
// until the scatter arm is re-measured with it.
constexpr index_t kBatchTile = 8;

// The Graph-Challenge epilogue.  Kept as two independent ifs (not
// else-if) so the generated code is identical to the historical
// two-pass implementation and results stay bit-exact; scale == 1.0f is
// an exact IEEE identity, so the general path is unaffected by it.
inline float epilogue(float v, float scale, float bias, float clamp) {
  v = v * scale + bias;
  if (v < 0.0f) v = 0.0f;
  if (clamp > 0.0f && v > clamp) v = clamp;
  return v;
}

// Shared body of the fused scatter kernels.  kUniform drops the
// per-edge value load + multiply and defers the weight to the epilogue
// scale (see spmm.hpp).  The batch is processed in kBatchTile-row tiles:
// each W row's entries are loaded once per tile and scattered into every
// active tile row, after compacting the tile's nonzero activations so
// ReLU-dead rows cost nothing in the inner loop.
template <bool kUniform>
std::uint64_t csr_fused_impl(const float* x, index_t batch, index_t m,
                             CsrFloatView w, float scale, float* y,
                             float bias, float clamp) {
  RADIX_REQUIRE_DIM(w.rows() == m,
                    "spmm_dense_csr_fused: inner dim mismatch");
  const index_t n = w.cols();
  const auto rowptr = w.rowptr();
  const auto colind = w.colind();
  const auto vals = w.values();
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  const std::int64_t ops_per_tile =
      static_cast<std::int64_t>(kBatchTile) *
      static_cast<std::int64_t>(w.nnz() + n);
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        const index_t b0 = static_cast<index_t>(t) * kBatchTile;
        const index_t b1 = std::min(batch, b0 + kBatchTile);
        // Zero the tile's output panel while it is about to become hot.
        std::fill(y + static_cast<std::size_t>(b0) * n,
                  y + static_cast<std::size_t>(b1) * n, 0.0f);
        for (index_t r = 0; r < m; ++r) {
          const offset_t lo = rowptr[r], hi = rowptr[r + 1];
          if (lo == hi) continue;
          // Compact the tile's active (nonzero) activations for input
          // row r; skip the row's weights entirely if the whole tile is
          // dead.  Accumulation per output stays in ascending-r order,
          // bit-identical to the unblocked kernel.
          float xv[kBatchTile];
          float* yb[kBatchTile];
          int na = 0;
          for (index_t b = b0; b < b1; ++b) {
            const float v = x[static_cast<std::size_t>(b) * m + r];
            if (v != 0.0f) {
              xv[na] = v;
              yb[na] = y + static_cast<std::size_t>(b) * n;
              ++na;
            }
          }
          if (na == 0) continue;
          for (offset_t k = lo; k < hi; ++k) {
            const index_t c = colind[k];
            if constexpr (kUniform) {
              for (int j = 0; j < na; ++j) yb[j][c] += xv[j];
            } else {
              const float v = vals[k];
              for (int j = 0; j < na; ++j) yb[j][c] += xv[j] * v;
            }
          }
        }
        // Fused epilogue over the still-resident tile.
        std::uint64_t nz = 0;
        for (index_t b = b0; b < b1; ++b) {
          float* row = y + static_cast<std::size_t>(b) * n;
          for (index_t c = 0; c < n; ++c) {
            const float v = epilogue(row[c], scale, bias, clamp);
            row[c] = v;
            nz += v != 0.0f ? 1 : 0;
          }
        }
        return nz;
      },
      grain_for_cost(ops_per_tile));
}

// One J-row block of the fused gather kernel: J independent accumulator
// chains over W^T's row r, epilogue applied in registers.  J is a
// compile-time constant so the inner loops fully unroll.  For J > 1 the
// block's input rows are first packed batch-interleaved into
// pack[b0*m ...] as xp[c*J + j] = x[(b0 + j)*m + c], so each W^T entry
// reads one contiguous J-float slice instead of J rows m floats apart;
// J = 1 reads x in place (the two layouts coincide).  Each lane still
// sums in ascending k order, so the packing never changes a bit.
template <bool kUniform, int J>
std::uint64_t csrT_fused_block(const float* x, index_t b0, index_t m,
                               index_t n, std::span<const offset_t> rowptr,
                               std::span<const index_t> colind,
                               std::span<const float> vals, float scale,
                               float* y, float bias, float clamp,
                               float* pack) {
  const float* xp = x + static_cast<std::size_t>(b0) * m;
  if constexpr (J > 1) {
    float* p = pack + static_cast<std::size_t>(b0) * m;
    for (index_t c = 0; c < m; ++c) {
      for (int j = 0; j < J; ++j) {
        p[static_cast<std::size_t>(c) * J + j] =
            xp[static_cast<std::size_t>(j) * m + c];
      }
    }
    xp = p;
  }
  std::uint64_t nz = 0;
  for (index_t r = 0; r < n; ++r) {
    float acc[J] = {};
    for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      const float* xc = xp + static_cast<std::size_t>(colind[k]) * J;
      if constexpr (kUniform) {
        for (int j = 0; j < J; ++j) acc[j] += xc[j];
      } else {
        const float v = vals[k];
        for (int j = 0; j < J; ++j) acc[j] += xc[j] * v;
      }
    }
    for (int j = 0; j < J; ++j) {
      const float v = epilogue(acc[j], scale, bias, clamp);
      y[static_cast<std::size_t>(b0 + j) * n + r] = v;
      nz += v != 0.0f ? 1 : 0;
    }
  }
  return nz;
}

// Shared body of the fused gather kernels over a pre-transposed layer.
// Each W^T row entry is loaded once per kBatchTile batch rows, feeding
// kBatchTile independent accumulator chains (out-of-order execution
// hides the FP-add latency a single chain serializes on); partial tiles
// step down through 4/2/1-row blocks rather than collapsing to the
// serial chain.  Every accumulator sums in ascending input-index order
// -- the same order the scatter arm adds contributions -- so both arms
// are bit-identical.  Block rows [b, b+J) pack at pack[b*m ...], so
// concurrent tiles never share pack space.
template <bool kUniform>
std::uint64_t csrT_fused_impl(const float* x, index_t batch, index_t m,
                              CsrFloatView wt, float scale, float* y,
                              float bias, float clamp, float* pack) {
  RADIX_REQUIRE_DIM(wt.cols() == m,
                    "spmm_dense_csrT_fused: inner dim mismatch");
  const index_t n = wt.rows();  // output width
  const auto rowptr = wt.rowptr();
  const auto colind = wt.colind();
  const auto vals = wt.values();
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  const std::int64_t ops_per_tile =
      static_cast<std::int64_t>(kBatchTile) *
      static_cast<std::int64_t>(wt.nnz() + n);
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        index_t b = static_cast<index_t>(t) * kBatchTile;
        const index_t b1 = std::min(batch, b + kBatchTile);
        std::uint64_t nz = 0;
        while (b1 - b >= 8) {
          nz += csrT_fused_block<kUniform, 8>(x, b, m, n, rowptr, colind,
                                              vals, scale, y, bias, clamp,
                                              pack);
          b += 8;
        }
        if (b1 - b >= 4) {
          nz += csrT_fused_block<kUniform, 4>(x, b, m, n, rowptr, colind,
                                              vals, scale, y, bias, clamp,
                                              pack);
          b += 4;
        }
        if (b1 - b >= 2) {
          nz += csrT_fused_block<kUniform, 2>(x, b, m, n, rowptr, colind,
                                              vals, scale, y, bias, clamp,
                                              pack);
          b += 2;
        }
        if (b1 - b == 1) {
          nz += csrT_fused_block<kUniform, 1>(x, b, m, n, rowptr, colind,
                                              vals, scale, y, bias, clamp,
                                              pack);
        }
        return nz;
      },
      grain_for_cost(ops_per_tile));
}

// Per-call pack space for the overloads that take none: batch x m
// floats, left uninitialized (every block writes its slice before
// reading it).  Batches of one row never pack, so they allocate nothing.
std::unique_ptr<float[]> gather_pack(index_t batch, index_t m) {
  if (batch < 2) return nullptr;
  return std::make_unique_for_overwrite<float[]>(
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(m));
}

}  // namespace

void spmm_dense_csr(const float* x, index_t batch, index_t m,
                    const Csr<float>& w, float* y) {
  RADIX_REQUIRE_DIM(w.rows() == m, "spmm_dense_csr: inner dim mismatch");
  const index_t n = w.cols();
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  // Each batch row touches up to nnz(W) entries.
  const std::int64_t grain =
      grain_for_cost(static_cast<std::int64_t>(w.nnz()));
  parallel_for(
      0, batch,
      [&](std::int64_t b) {
        const float* xb = x + static_cast<std::size_t>(b) * m;
        float* yb = y + static_cast<std::size_t>(b) * n;
        for (index_t r = 0; r < m; ++r) {
          const float xv = xb[r];
          if (xv == 0.0f) continue;  // activations are often sparse (ReLU)
          for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
            yb[colind[k]] += xv * vals[k];
          }
        }
      },
      grain);
}

void spmm_dense_csrT(const float* x, index_t batch, index_t n,
                     const Csr<float>& w, float* y) {
  RADIX_REQUIRE_DIM(w.cols() == n, "spmm_dense_csrT: inner dim mismatch");
  const index_t m = w.rows();
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  const std::int64_t grain =
      grain_for_cost(static_cast<std::int64_t>(w.nnz()));
  parallel_for(
      0, batch,
      [&](std::int64_t b) {
        const float* xb = x + static_cast<std::size_t>(b) * n;
        float* yb = y + static_cast<std::size_t>(b) * m;
        for (index_t r = 0; r < m; ++r) {
          float acc = yb[r];
          for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
            acc += xb[colind[k]] * vals[k];
          }
          yb[r] = acc;
        }
      },
      grain);
}

std::uint64_t spmm_dense_csr_fused(const float* x, index_t batch, index_t m,
                                   CsrFloatView w, float* y,
                                   float bias, float clamp) {
  return csr_fused_impl<false>(x, batch, m, w, /*scale=*/1.0f, y, bias,
                               clamp);
}

std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt,
                                    float* y, float bias, float clamp,
                                    float* pack) {
  return csrT_fused_impl<false>(x, batch, m, wt, /*scale=*/1.0f, y, bias,
                                clamp, pack);
}

std::uint64_t spmm_dense_csrT_fused(const float* x, index_t batch,
                                    index_t m, CsrFloatView wt,
                                    float* y, float bias, float clamp) {
  const auto pack = gather_pack(batch, m);
  return spmm_dense_csrT_fused(x, batch, m, wt, y, bias, clamp, pack.get());
}

std::uint64_t spmm_dense_csr_fused_uniform(const float* x, index_t batch,
                                           index_t m, CsrFloatView w,
                                           float uniform_weight, float* y,
                                           float bias, float clamp) {
  return csr_fused_impl<true>(x, batch, m, w, uniform_weight, y, bias,
                              clamp);
}

std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp,
                                            float* pack) {
  return csrT_fused_impl<true>(x, batch, m, wt, uniform_weight, y, bias,
                               clamp, pack);
}

std::uint64_t spmm_dense_csrT_fused_uniform(const float* x, index_t batch,
                                            index_t m, CsrFloatView wt,
                                            float uniform_weight, float* y,
                                            float bias, float clamp) {
  const auto pack = gather_pack(batch, m);
  return spmm_dense_csrT_fused_uniform(x, batch, m, wt, uniform_weight, y,
                                       bias, clamp, pack.get());
}

std::uint64_t count_nonzeros(const float* v, std::size_t n) {
  return parallel_reduce_sum<std::uint64_t>(
      0, static_cast<std::int64_t>(n),
      [&](std::int64_t i) -> std::uint64_t {
        return v[i] != 0.0f ? 1 : 0;
      },
      grain_for_cost(1));
}

void spmv(const Csr<float>& w, const float* x, float* y) {
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const auto& vals = w.values();
  const std::int64_t avg_row_nnz =
      w.rows() > 0 ? static_cast<std::int64_t>(w.nnz() / w.rows()) : 0;
  parallel_for(
      0, w.rows(),
      [&](std::int64_t r) {
        float acc = 0.0f;
        for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
          acc += vals[k] * x[colind[k]];
        }
        y[r] = acc;
      },
      grain_for_cost(std::max<std::int64_t>(1, avg_row_nnz)));
}

void sddmm_pattern(const float* x, const float* dy, index_t batch,
                   index_t m, index_t n, const Csr<float>& w,
                   float* grad_values) {
  RADIX_REQUIRE_DIM(w.rows() == m && w.cols() == n,
                    "sddmm_pattern: shape mismatch");
  const auto& rowptr = w.rowptr();
  const auto& colind = w.colind();
  const std::int64_t avg_row_cost =
      m > 0 ? static_cast<std::int64_t>(w.nnz()) * batch / m : 0;
  // Parallel over pattern rows: each stored entry is written exactly once.
  parallel_for(
      0, m,
      [&](std::int64_t r) {
        for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
          const index_t c = colind[k];
          float acc = 0.0f;
          for (index_t b = 0; b < batch; ++b) {
            acc += x[static_cast<std::size_t>(b) * m + r] *
                   dy[static_cast<std::size_t>(b) * n + c];
          }
          grad_values[k] += acc;
        }
      },
      grain_for_cost(std::max<std::int64_t>(1, avg_row_cost)));
}

}  // namespace radix
