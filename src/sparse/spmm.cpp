#include "sparse/spmm.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace radix {
namespace {

// Batch-tile width of the fused kernels.  Each weight-matrix row entry
// (colind + value) is loaded once per tile of kBatchTile batch rows
// instead of once per batch row, and the tile's accumulator chains are
// independent, so out-of-order execution hides the FP-add latency that
// serializes a one-row-at-a-time kernel.  The tile's activations stay
// register/L1-resident across the inner row loop.  Re-measured with the
// gather arm's vector blocks (csrT_fused_block) on a 4-core Xeon: a
// 16-row tile, one block of four 4-float accumulators, read 0.72-0.97x
// the 8-row tile's gather edges/s over a 4096 x 24 Graph-Challenge net
// at batch 64 (6 runs).  Both arms share this width.
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

// Float lanes, and the lane masks their comparisons yield.  GCC and
// Clang lower arithmetic, comparisons and ?: on these to packed SIMD
// with no intrinsics.  Every host runs 16-byte vectors, packed SSE at
// the baseline x86-64 ISA.  32-byte vectors run only inside
// radix_rows_avx2, the one function compiled for AVX2: at the baseline
// ISA a 32-byte vector compiles to pairs of 16-byte operations (the
// 8-lane structured gather took 1.8-2.7x the 4-lane form's time that
// way), and an 8-row CSR gather block to a stack load-add-store per W^T
// entry.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef float f32x8 __attribute__((vector_size(32)));

// The float vector of L lanes, L = 4 or 8.
template <int L>
using f32xL = std::conditional_t<L == 8, f32x8, f32x4>;

// The lane helpers below take vectors by reference and are always
// inlined: no function takes or returns a 32-byte vector (its ABI
// differs with and without AVX), and their 8-lane instantiations are
// compiled inside radix_rows_avx2 rather than at the baseline ISA.

// v = the lanes at p.  A caller's pack is only float-aligned, so slices
// load through memcpy (an unaligned packed load).
template <class V>
[[gnu::always_inline]] inline void load_lanes(V& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

// epilogue() on every lane, bit for bit, with selects in place of its
// branches.  The ReLU select keeps -0.0 and NaN lanes, as `v < 0` does.
// A disabled clamp becomes a ceiling of +Inf, which no lane, NaN
// included, compares greater than.
template <class V>
[[gnu::always_inline]] inline void epilogue_lanes(V& v, float scale,
                                                  float bias, float clamp) {
  const float top =
      clamp > 0.0f ? clamp : std::numeric_limits<float>::infinity();
  const V zero = {}, ceiling = zero + top;
  v = v * scale + bias;
  v = v < zero ? zero : v;
  v = v > ceiling ? ceiling : v;
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

// One J-row block of the fused gather kernel: J accumulator lanes over
// W^T's row r, epilogue applied in registers.  J is a compile-time
// constant so the inner loops fully unroll.  For J > 1 the block's input
// rows are first packed batch-interleaved into pack[b0*m ...] as
// xp[c*J + j] = x[(b0 + j)*m + c], so each W^T entry reads one
// contiguous J-float slice instead of J rows m floats apart; J = 1 reads
// x in place (the two layouts coincide).  The 4- and 8-row blocks add
// that slice as J/4 packed 4-float adds and run the epilogue as lane
// selects, with no per-lane branch; the 1- and 2-row blocks keep J
// scalar chains.  Each lane still sums in ascending k order, so neither
// the packing nor the vectors change a bit.
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
  if constexpr (J % 4 == 0) {
    for (index_t r = 0; r < n; ++r) {
      // Lane j of acc[q] sums block row b0 + 4q + j.
      f32x4 acc[J / 4] = {};
      for (offset_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
        const float* xc = xp + static_cast<std::size_t>(colind[k]) * J;
        for (int q = 0; q < J / 4; ++q) {
          f32x4 v = {};
          load_lanes(v, xc + 4 * q);
          if constexpr (kUniform) {
            acc[q] += v;
          } else {
            acc[q] += v * vals[k];
          }
        }
      }
      i32x4 live = {};  // nonzero outputs per lane, at most J / 4
      for (int q = 0; q < J / 4; ++q) {
        epilogue_lanes(acc[q], scale, bias, clamp);
        live -= acc[q] != f32x4{};  // a true lane compares as -1
        for (int j = 0; j < 4; ++j) {
          y[static_cast<std::size_t>(b0 + 4 * q + j) * n + r] = acc[q][j];
        }
      }
      nz += static_cast<std::uint64_t>(live[0] + live[1] + live[2] +
                                       live[3]);
    }
  } else {
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
  }
  return nz;
}

// Shared body of the fused gather kernels over a pre-transposed layer.
// Each W^T row entry is loaded once per kBatchTile batch rows and feeds
// kBatchTile accumulator lanes: two 4-float vectors in an 8-row block,
// whose independent chains out-of-order execution overlaps (a single
// chain serializes on the FP-add latency).  Partial tiles step down
// through 4/2/1-row blocks rather than collapsing to the serial chain.
// Every accumulator sums in ascending input-index order -- the same
// order the scatter arm adds contributions -- so both arms are
// bit-identical.  Block rows [b, b+J) pack at pack[b*m ...], so
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

// The structured gather kernel's outputs [c, c + Q*L) of wrap range k,
// all in that range, on one batch row: Q accumulators of L float lanes,
// lane j of acc[q] summing output c + L*q + j.  Input index i steps
// through the range's ascending offsets (radix_layout.hpp): c - k*s up
// to c, then c + N - (R-1)*s onward, each inside [0, N) for every
// output of the range before it forms a pointer.
template <int L, int Q>
[[gnu::always_inline]] inline std::uint64_t radix_vector_outputs(
    const float* xb, index_t c, index_t k, const RadixLayout& l,
    float scale, float* yb, float bias, float clamp) {
  using V = f32xL<L>;
  static_assert(sizeof(V) == L * sizeof(float));
  const index_t s = l.stride;
  V acc[Q] = {};
  V v = {};
  index_t i = c - k * s;
  for (index_t n = 0; n <= k; ++n, i += s) {
    for (int q = 0; q < Q; ++q) {
      load_lanes(v, xb + i + L * q);
      acc[q] += v;
    }
  }
  i = c + (l.width - (l.radix - 1) * s);
  for (index_t n = k + 1; n < l.radix; ++n, i += s) {
    for (int q = 0; q < Q; ++q) {
      load_lanes(v, xb + i + L * q);
      acc[q] += v;
    }
  }
  decltype(V{} != V{}) live = {};  // nonzero outputs per lane, at most Q
  for (int q = 0; q < Q; ++q) {
    epilogue_lanes(acc[q], scale, bias, clamp);
    live -= acc[q] != V{};  // a true lane compares as -1
    for (int j = 0; j < L; ++j) yb[l.store[c + L * q + j]] = acc[q][j];
  }
  std::int32_t nz = 0;
  for (int j = 0; j < L; ++j) nz += live[j];
  return static_cast<std::uint64_t>(nz);
}

// Batch rows [b0, b1) of the structured gather kernel at L lanes: each
// wrap range of each row in blocks of 4L outputs, then L, then one at a
// time.
template <int L>
[[gnu::always_inline]] inline std::uint64_t radix_rows(
    const float* x, index_t b0, index_t b1, const RadixLayout& l,
    float scale, float* y, float bias, float clamp) {
  const index_t s = l.stride;
  std::uint64_t nz = 0;
  for (index_t b = b0; b < b1; ++b) {
    const auto row = static_cast<std::size_t>(b) * l.width;
    const float* xb = x + row;
    float* yb = y + row;
    for (index_t k = 0; k < l.radix; ++k) {
      const index_t hi = k + 1 < l.radix ? (k + 1) * s : l.width;
      index_t c = k * s;
      for (; hi - c >= 4 * L; c += 4 * L) {
        nz += radix_vector_outputs<L, 4>(xb, c, k, l, scale, yb, bias,
                                         clamp);
      }
      for (; hi - c >= L; c += L) {
        nz += radix_vector_outputs<L, 1>(xb, c, k, l, scale, yb, bias,
                                         clamp);
      }
      for (; c < hi; ++c) {
        float acc = 0.0f;
        index_t i = c - k * s;
        for (index_t n = 0; n <= k; ++n, i += s) acc += xb[i];
        i = c + (l.width - (l.radix - 1) * s);
        for (index_t n = k + 1; n < l.radix; ++n, i += s) acc += xb[i];
        const float v = epilogue(acc, scale, bias, clamp);
        yb[l.store[c]] = v;
        nz += v != 0.0f ? 1 : 0;
      }
    }
  }
  return nz;
}

#if defined(__x86_64__) || defined(__i386__)
// The 8-lane form, for CPUs whose AVX2 state the OS saves.  AVX2 alone:
// a target that adds FMA would let the compiler fuse the epilogue's
// `v * scale + bias` into one rounding and change bits.
__attribute__((target("avx2"))) std::uint64_t radix_rows_avx2(
    const float* x, index_t b0, index_t b1, const RadixLayout& l,
    float scale, float* y, float bias, float clamp) {
  return radix_rows<8>(x, b0, b1, l, scale, y, bias, clamp);
}
#endif

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

int structured_gather_lanes() {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports("avx2") also requires the OS to save YMM
  // state.
  static const int lanes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 8 : 4;
  }();
  return lanes;
#else
  return 4;
#endif
}

std::uint64_t spmm_dense_radix_fused_uniform_lanes(
    int lanes, const float* x, index_t batch, const RadixLayout& layout,
    float uniform_weight, float* y, float bias, float clamp) {
  RADIX_REQUIRE(lanes == 4 || (lanes == 8 && structured_gather_lanes() == 8),
                "spmm_dense_radix_fused_uniform: lanes must be 4, or 8 on "
                "a CPU with AVX2");
  // Forks over tiles of kBatchTile rows, as the CSR arms do, so a batch
  // that fits one tile runs on the calling thread.  Each row adds R
  // inputs into each of N outputs.
  const std::int64_t ntiles =
      batch == 0 ? 0 : (batch + kBatchTile - 1) / kBatchTile;
  const std::int64_t ops_per_tile = static_cast<std::int64_t>(kBatchTile) *
                                    static_cast<std::int64_t>(layout.width) *
                                    (std::int64_t{layout.radix} + 1);
  return parallel_reduce_sum<std::uint64_t>(
      0, ntiles,
      [&](std::int64_t t) -> std::uint64_t {
        const index_t b0 = static_cast<index_t>(t) * kBatchTile;
        const index_t b1 = std::min(batch, b0 + kBatchTile);
#if defined(__x86_64__) || defined(__i386__)
        if (lanes == 8) {
          return radix_rows_avx2(x, b0, b1, layout, uniform_weight, y, bias,
                                 clamp);
        }
#endif
        return radix_rows<4>(x, b0, b1, layout, uniform_weight, y, bias,
                             clamp);
      },
      grain_for_cost(ops_per_tile));
}

std::uint64_t spmm_dense_radix_fused_uniform(const float* x, index_t batch,
                                             const RadixLayout& layout,
                                             float uniform_weight, float* y,
                                             float bias, float clamp) {
  return spmm_dense_radix_fused_uniform_lanes(structured_gather_lanes(), x,
                                              batch, layout, uniform_weight,
                                              y, bias, clamp);
}

// Placed after the kernels, so it shifts none of their code.
float spmm_fused_zero_input_output(float scale, float bias, float clamp) {
  return epilogue(0.0f, scale, bias, clamp);
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
