// Dense x sparse multiply kernels against brute-force dense references.
#include "sparse/spmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

Csr<float> random_csr(index_t rows, index_t cols, double density, Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-1.0, 1.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

std::vector<float> random_dense(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

TEST(Spmm, DenseCsrMatchesReference) {
  Rng rng(11);
  const index_t batch = 4, m = 7, n = 9;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);

  std::vector<float> y(static_cast<std::size_t>(batch) * n, 0.0f);
  spmm_dense_csr(x.data(), batch, m, w, y.data());

  for (index_t b = 0; b < batch; ++b) {
    for (index_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (index_t r = 0; r < m; ++r) acc += x[b * m + r] * wd.at(r, c);
      EXPECT_NEAR(y[b * n + c], acc, 1e-4) << "b=" << b << " c=" << c;
    }
  }
}

TEST(Spmm, DenseCsrAccumulates) {
  // y is an accumuland: pre-filled entries must be added to, not replaced.
  Coo<float> coo(1, 1);
  coo.push(0, 0, 2.0f);
  const auto w = Csr<float>::from_coo(coo);
  std::vector<float> y = {10.0f};
  const float x = 3.0f;
  spmm_dense_csr(&x, 1, 1, w, y.data());
  EXPECT_FLOAT_EQ(y[0], 16.0f);  // 10 + 3*2
}

TEST(Spmm, DenseCsrTMatchesReference) {
  Rng rng(12);
  const index_t batch = 3, m = 6, n = 8;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(static_cast<std::size_t>(batch) * n, rng);

  std::vector<float> y(static_cast<std::size_t>(batch) * m, 0.0f);
  spmm_dense_csrT(x.data(), batch, n, w, y.data());

  for (index_t b = 0; b < batch; ++b) {
    for (index_t r = 0; r < m; ++r) {
      double acc = 0.0;
      for (index_t c = 0; c < n; ++c) acc += x[b * n + c] * wd.at(r, c);
      EXPECT_NEAR(y[b * m + r], acc, 1e-4) << "b=" << b << " r=" << r;
    }
  }
}

TEST(Spmm, SpmvMatchesReference) {
  Rng rng(13);
  const index_t m = 10, n = 12;
  const auto w = random_csr(m, n, 0.4, rng);
  const auto wd = to_dense(w);
  const auto x = random_dense(n, rng);

  std::vector<float> y(m, 0.0f);
  spmv(w, x.data(), y.data());

  for (index_t r = 0; r < m; ++r) {
    double acc = 0.0;
    for (index_t c = 0; c < n; ++c) acc += wd.at(r, c) * x[c];
    EXPECT_NEAR(y[r], acc, 1e-4) << "r=" << r;
  }
}

TEST(Spmm, SddmmPatternMatchesReference) {
  Rng rng(14);
  const index_t batch = 5, m = 6, n = 7;
  const auto w = random_csr(m, n, 0.5, rng);
  const auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
  const auto dy = random_dense(static_cast<std::size_t>(batch) * n, rng);

  std::vector<float> grad(w.nnz(), 0.0f);
  sddmm_pattern(x.data(), dy.data(), batch, m, n, w, grad.data());

  // Reference: for every stored (r, c), grad = sum_b x[b,r] * dy[b,c].
  std::size_t k = 0;
  for (index_t r = 0; r < m; ++r) {
    for (offset_t p = w.rowptr()[r]; p < w.rowptr()[r + 1]; ++p, ++k) {
      const index_t c = w.colind()[p];
      double acc = 0.0;
      for (index_t b = 0; b < batch; ++b) {
        acc += x[b * m + r] * dy[b * n + c];
      }
      EXPECT_NEAR(grad[k], acc, 1e-4) << "r=" << r << " c=" << c;
    }
  }
}

TEST(Spmm, ZeroBatchIsANoOp) {
  Rng rng(15);
  const auto w = random_csr(4, 4, 0.5, rng);
  spmm_dense_csr(nullptr, 0, 4, w, nullptr);
  spmm_dense_csrT(nullptr, 0, 4, w, nullptr);
  EXPECT_EQ(spmm_dense_csr_fused(nullptr, 0, 4, w, nullptr, 0.1f, 2.0f),
            0u);
  EXPECT_EQ(spmm_dense_csrT_fused(nullptr, 0, 4, w.transpose(), nullptr,
                                  0.1f, 2.0f),
            0u);
}

// Reference epilogue of the challenge rule (two independent ifs, same
// as the historical second sweep).
float ref_epilogue(float v, float bias, float clamp) {
  v += bias;
  if (v < 0.0f) v = 0.0f;
  if (clamp > 0.0f && v > clamp) v = clamp;
  return v;
}

TEST(Spmm, FusedScatterMatchesUnfusedPlusEpilogue) {
  Rng rng(16);
  const index_t batch = 13, m = 23, n = 17;  // odd sizes: remainder tile
  const auto w = random_csr(m, n, 0.4, rng);
  auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
  for (std::size_t i = 0; i < x.size(); i += 3) x[i] = 0.0f;  // skips
  const float bias = -0.05f, clamp = 0.6f;

  std::vector<float> want(static_cast<std::size_t>(batch) * n, 0.0f);
  spmm_dense_csr(x.data(), batch, m, w, want.data());
  std::uint64_t want_nz = 0;
  for (auto& v : want) {
    v = ref_epilogue(v, bias, clamp);
    want_nz += v != 0.0f ? 1 : 0;
  }

  std::vector<float> got(want.size(), -1.0f);  // fused needs no zero-init
  const auto nz =
      spmm_dense_csr_fused(x.data(), batch, m, w, got.data(), bias, clamp);
  EXPECT_EQ(nz, want_nz);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;  // bit-exact, same summation order
  }

  // Gather arm over the transposed layer: same result, bit for bit.
  std::vector<float> gat(want.size(), -2.0f);
  const auto nz2 = spmm_dense_csrT_fused(x.data(), batch, m, w.transpose(),
                                         gat.data(), bias, clamp);
  EXPECT_EQ(nz2, want_nz);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(gat[i], want[i]) << i;
  }
}

TEST(Spmm, FusedUniformArmsAgreeBitExact) {
  // Uniform-weight specializations: scatter and gather defer the weight
  // to the epilogue scale identically, so they must agree bitwise.
  Rng rng(17);
  Coo<float> coo(19, 21);
  for (index_t r = 0; r < 19; ++r) {
    for (index_t c = 0; c < 21; ++c) {
      if (rng.bernoulli(0.4)) coo.push(r, c, 0.0625f);
    }
  }
  const auto w = Csr<float>::from_coo(coo);
  const index_t batch = 11;
  auto x = random_dense(static_cast<std::size_t>(batch) * 19, rng);
  for (auto& v : x) v = v < 0.0f ? 0.0f : v;  // activation-like input

  std::vector<float> a(static_cast<std::size_t>(batch) * 21);
  std::vector<float> b(a.size());
  const auto nza = spmm_dense_csr_fused_uniform(x.data(), batch, 19, w,
                                                0.0625f, a.data(), -0.1f,
                                                0.5f);
  const auto nzb = spmm_dense_csrT_fused_uniform(x.data(), batch, 19,
                                                 w.transpose(), 0.0625f,
                                                 b.data(), -0.1f, 0.5f);
  EXPECT_EQ(nza, nzb);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

// Bitwise comparison: EXPECT_EQ on floats would let -0.0f match 0.0f.
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want,
                      const std::string& tag) {
  ASSERT_EQ(got.size(), want.size()) << tag;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << tag << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(Spmm, GatherPackBitExactAtEveryBlockStep) {
  // The gather arm packs 8/4/2-row blocks batch-interleaved and reads
  // one-row blocks in place; batches 1..17 and 63..65 hit every step of
  // that ladder.  Non-square layer (m != n), negative non-uniform
  // weights; the uniform kernels run over the same pattern.
  Rng rng(18);
  const index_t m = 37, n = 29;
  const auto w = random_csr(m, n, 0.3, rng);
  Coo<float> ucoo(m, n);
  for (index_t r = 0; r < m; ++r) {
    for (offset_t k = w.rowptr()[r]; k < w.rowptr()[r + 1]; ++k) {
      ucoo.push(r, w.colind()[k], 0.0625f);
    }
  }
  const auto uw = Csr<float>::from_coo(ucoo);
  const auto wt = w.transpose();
  const auto uwt = uw.transpose();
  const float bias = 0.05f, clamp = 0.7f;
  const float poison = std::numeric_limits<float>::quiet_NaN();

  std::vector<index_t> batches;
  for (index_t b = 1; b <= 17; ++b) batches.push_back(b);
  for (index_t b : {63u, 64u, 65u}) batches.push_back(b);
  for (const index_t batch : batches) {
    const std::string tag = "batch " + std::to_string(batch);
    auto x = random_dense(static_cast<std::size_t>(batch) * m, rng);
    for (std::size_t i = 0; i < x.size(); i += 5) x[i] = 0.0f;
    const std::size_t out = static_cast<std::size_t>(batch) * n;
    const std::size_t pack_floats = static_cast<std::size_t>(batch) * m;

    // General kernels: scatter is the reference.
    std::vector<float> want(out), got(out, -1.0f), got_pack(out, -2.0f);
    const auto want_nz = spmm_dense_csr_fused(x.data(), batch, m, w,
                                              want.data(), bias, clamp);
    const auto nz = spmm_dense_csrT_fused(x.data(), batch, m, wt,
                                          got.data(), bias, clamp);
    // Caller pack poisoned with NaN: any pack entry read before the
    // kernel wrote it would poison an output.
    std::vector<float> pack(pack_floats, poison);
    const auto nz_pack = spmm_dense_csrT_fused(
        x.data(), batch, m, wt, got_pack.data(), bias, clamp, pack.data());
    EXPECT_EQ(nz, want_nz) << tag;
    EXPECT_EQ(nz_pack, want_nz) << tag;
    expect_same_bits(got, want, tag + " gather");
    expect_same_bits(got_pack, want, tag + " gather, caller pack");
    if (batch == 1) {
      // A one-row block reads x in place and never touches the pack.
      for (float v : pack) ASSERT_NE(v, v) << tag;
    }

    // Uniform kernels: the same, against the uniform scatter arm.
    std::vector<float> uwant(out), ugot(out, -1.0f), ugot_pack(out, -2.0f);
    const auto uwant_nz = spmm_dense_csr_fused_uniform(
        x.data(), batch, m, uw, 0.0625f, uwant.data(), bias, clamp);
    const auto unz = spmm_dense_csrT_fused_uniform(
        x.data(), batch, m, uwt, 0.0625f, ugot.data(), bias, clamp);
    std::fill(pack.begin(), pack.end(), poison);
    const auto unz_pack = spmm_dense_csrT_fused_uniform(
        x.data(), batch, m, uwt, 0.0625f, ugot_pack.data(), bias, clamp,
        pack.data());
    EXPECT_EQ(unz, uwant_nz) << tag;
    EXPECT_EQ(unz_pack, uwant_nz) << tag;
    expect_same_bits(ugot, uwant, tag + " uniform gather");
    expect_same_bits(ugot_pack, uwant, tag + " uniform gather, caller pack");
  }
}

TEST(Spmm, CountNonzeros) {
  std::vector<float> v = {0.0f, 1.0f, -2.0f, 0.0f, 0.5f};
  EXPECT_EQ(count_nonzeros(v.data(), v.size()), 3u);
  EXPECT_EQ(count_nonzeros(nullptr, 0), 0u);
}

}  // namespace
}  // namespace radix
