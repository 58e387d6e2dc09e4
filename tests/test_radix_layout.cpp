// Mixed-radix layouts and the structured gather kernel: detection
// accepts exactly the uniform RadiX-Net layers (outputs possibly
// relabeled), the kernel is bit-exact against both CSR arms, and
// SparseDnn routes gathers of such layers through it.
#include "sparse/radix_layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/builder.hpp"
#include "radixnet/graph_challenge.hpp"
#include "radixnet/mrt.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/permutation.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spmm.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

constexpr float kWeight = 0.0625f;

Csr<float> weighted(const Csr<pattern_t>& pattern, float w = kWeight) {
  return pattern.map<float>([w](pattern_t) { return w; });
}

// A named layer for failure messages.
struct Case {
  std::string name;
  Csr<float> layer;
};

// Graph-Challenge layers one period deep, unshuffled and shuffled
// (outputs relabeled), at width 1024 (strides 1, 32) and 4096
// (strides 1, 32, 1024).  The 32 x 32 and 4 x 1024 layers have
// R * s = N.
std::vector<Case> challenge_layers(index_t neurons) {
  const std::size_t period = neurons == 1024 ? 2 : 3;
  std::vector<Case> out;
  Rng rng(neurons + 7);
  const auto plain = gc::network(neurons, period, nullptr);
  const auto shuffled = gc::network(neurons, period, &rng);
  for (std::size_t l = 0; l < period; ++l) {
    const std::string tag =
        std::to_string(neurons) + " layer " + std::to_string(l);
    out.push_back({tag, plain.layers[l]});
    out.push_back({tag + " shuffled", shuffled.layers[l]});
  }
  return out;
}

// Mixed-radix topologies laid out on a multiple of their product, so
// R * s < N on every layer, with ranges of 1, 3 and 5 outputs (scalar
// only), 12 and 20 (4-blocks) and 46 (16-, 4- and one-output steps).
std::vector<Case> multiple_layers() {
  std::vector<Case> out;
  for (const auto& [radices, nodes] :
       std::vector<std::pair<std::vector<std::uint32_t>, index_t>>{
           {{3, 4, 2}, 48}, {{5, 3}, 30}}) {
    const Fnnt topo = mixed_radix_topology(MixedRadix(radices), nodes);
    for (std::size_t l = 0; l < topo.depth(); ++l) {
      out.push_back({MixedRadix(radices).to_string() + " on " +
                         std::to_string(nodes) + " layer " +
                         std::to_string(l),
                     weighted(topo.layer(l))});
    }
  }
  return out;
}

std::vector<float> random_dense(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
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

// The structured kernel against both CSR arms, on the inputs of
// Spmm.GatherPackBitExactAtEveryBlockStep: finite values with zeros;
// NaN and +-Inf entries; and all-zero rows at weight -0.0625 and bias
// -0.0, whose outputs are -0.0.
void check_kernel(const Case& c, const std::vector<index_t>& batches) {
  const auto layout = detect_radix_layout(c.layer);
  ASSERT_TRUE(layout.has_value()) << c.name;
  const index_t n = c.layer.rows();
  const Csr<float> wt = c.layer.transpose();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float clamp = 0.7f;
  Rng rng(n);

  const auto run = [&](const std::vector<float>& x, index_t batch,
                       float weight, float bias, const std::string& tag) {
    const std::size_t out = static_cast<std::size_t>(batch) * n;
    std::vector<float> scatter(out), gather(out), got(out, -1.0f);
    const auto scatter_nz = spmm_dense_csr_fused_uniform(
        x.data(), batch, n, c.layer, weight, scatter.data(), bias, clamp);
    const auto gather_nz = spmm_dense_csrT_fused_uniform(
        x.data(), batch, n, wt, weight, gather.data(), bias, clamp);
    const auto nz = spmm_dense_radix_fused_uniform(
        x.data(), batch, *layout, weight, got.data(), bias, clamp);
    EXPECT_EQ(nz, scatter_nz) << tag;
    EXPECT_EQ(nz, gather_nz) << tag;
    expect_same_bits(got, scatter, tag + " vs scatter");
    expect_same_bits(got, gather, tag + " vs gather");
  };

  for (const index_t batch : batches) {
    const std::string tag = c.name + ", batch " + std::to_string(batch);
    auto x = random_dense(static_cast<std::size_t>(batch) * n, rng);
    for (std::size_t i = 0; i < x.size(); i += 5) x[i] = 0.0f;
    run(x, batch, kWeight, 0.05f, tag);

    // A row holds either NaN or infinities, never both: the sum of two
    // different NaNs may keep either payload.
    auto xs = x;
    for (index_t b = 0; b < batch; ++b) {
      float* row = xs.data() + static_cast<std::size_t>(b) * n;
      if (b % 2 == 0) {
        row[(3 * b) % n] = nan;
      } else {
        row[(5 * b) % n] = inf;
        row[(7 * b + 2) % n] = -inf;
      }
    }
    run(xs, batch, kWeight, 0.05f, tag + " NaN/Inf");

    auto xz = x;
    for (index_t b = 0; b < batch; b += 3) {
      std::fill_n(xz.begin() + static_cast<std::ptrdiff_t>(b) * n, n, 0.0f);
    }
    run(xz, batch, -kWeight, -0.0f, tag + " -0.0");
  }
}

std::vector<index_t> every_block_step() {
  std::vector<index_t> batches;
  for (index_t b = 1; b <= 17; ++b) batches.push_back(b);
  for (index_t b : {63u, 64u, 65u}) batches.push_back(b);
  return batches;
}

TEST(RadixLayout, DetectsChallengeLayers) {
  // (radix, stride) per layer of one period.
  const std::vector<std::pair<index_t, index_t>> want1024 = {{32, 1},
                                                             {32, 32}};
  const std::vector<std::pair<index_t, index_t>> want4096 = {
      {32, 1}, {32, 32}, {4, 1024}};
  for (const index_t neurons : {1024u, 4096u}) {
    const auto& want = neurons == 1024 ? want1024 : want4096;
    const auto cases = challenge_layers(neurons);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const auto layout = detect_radix_layout(cases[i].layer);
      ASSERT_TRUE(layout.has_value()) << cases[i].name;
      EXPECT_EQ(layout->width, neurons) << cases[i].name;
      EXPECT_EQ(layout->radix, want[i / 2].first) << cases[i].name;
      EXPECT_EQ(layout->stride, want[i / 2].second) << cases[i].name;
      std::vector<index_t> sorted = layout->store;
      std::sort(sorted.begin(), sorted.end());
      for (index_t c = 0; c < neurons; ++c) {
        ASSERT_EQ(sorted[c], c) << cases[i].name << ": store is no permutation";
      }
      if (i % 2 == 0) {
        // Unshuffled: output c is column c.
        for (index_t c = 0; c < neurons; ++c) {
          ASSERT_EQ(layout->store[c], c) << cases[i].name;
        }
      }
    }
  }
}

TEST(RadixLayout, KernelBitExactOnMultipleLayouts) {
  for (const auto& c : multiple_layers()) check_kernel(c, every_block_step());
}

TEST(RadixLayout, KernelBitExactOnChallengeLayers1024) {
  for (const auto& c : challenge_layers(1024)) {
    check_kernel(c, every_block_step());
  }
}

TEST(RadixLayout, KernelBitExactOnChallengeLayers4096) {
  // The batch ladder above runs at 1024; the kernel treats every batch
  // row alike, so 4096 runs one size per kind of block step.
  for (const auto& c : challenge_layers(4096)) check_kernel(c, {1, 5, 64});
}

// Forced scatter, forced gather and auto dispatch must agree bitwise; a
// structured gather still reports kGather.
std::vector<float> forward_all_arms(const infer::SparseDnn& dnn,
                                    const std::vector<float>& x,
                                    index_t batch, const std::string& tag) {
  infer::InferenceWorkspace ws;
  ws.force_kernel(infer::Kernel::kScatter);
  const auto ys = dnn.forward(x.data(), batch, ws);
  const std::vector<float> want(ys.begin(), ys.end());
  for (const auto arm : {infer::Kernel::kGather, infer::Kernel::kAuto}) {
    ws.force_kernel(arm);
    const auto y = dnn.forward(x.data(), batch, ws);
    expect_same_bits(std::vector<float>(y.begin(), y.end()), want,
                     tag + (arm == infer::Kernel::kGather ? " gather"
                                                          : " auto"));
    if (arm == infer::Kernel::kGather) {
      for (const auto& d : ws.last_dispatch()) {
        EXPECT_EQ(d.chosen, infer::Kernel::kGather) << tag;
      }
    }
  }
  return want;
}

TEST(RadixLayout, NearMissesGetNoLayout) {
  // An unshuffled (32, 32) layer at stride 32, R * s = N.
  const Csr<float> base = gc::network(1024, 2, nullptr).layers[1];
  ASSERT_TRUE(detect_radix_layout(base).has_value());
  const index_t n = base.rows();
  const auto edges = [&](const Csr<float>& m) {
    Coo<float> coo(m.rows(), m.cols());
    for (index_t r = 0; r < m.rows(); ++r) {
      for (offset_t k = m.rowptr()[r]; k < m.rowptr()[r + 1]; ++k) {
        coo.push(r, m.colind()[k], m.values()[k]);
      }
    }
    return coo;
  };
  const auto without = [&](index_t row, index_t col) {
    Coo<float> coo(n, n);
    const Coo<float> all = edges(base);
    for (std::size_t i = 0; i < all.nnz(); ++i) {
      if (all.row[i] != row || all.col[i] != col) {
        coo.push(all.row[i], all.col[i], all.val[i]);
      }
    }
    return coo;
  };

  std::vector<Case> cases;
  {
    // Row 0 feeds columns 0, 32, ..., 992; column 1 is not among them.
    Coo<float> coo = without(0, 32);
    coo.push(0, 1, kWeight);
    cases.push_back({"one edge moved", Csr<float>::from_coo(coo)});
  }
  {
    Coo<float> coo = edges(base);
    coo.push(0, 1, kWeight);
    cases.push_back({"one edge added", Csr<float>::from_coo(coo)});
  }
  cases.push_back(
      {"a row one entry short", Csr<float>::from_coo(without(5, 5))});
  {
    // Rows 160 and 225 swap one column each.  Every degree, and every
    // column's first row and so its residue class mod 32, stays: only
    // the check of each column's full row set sees the swap.
    Coo<float> coo(n, n);
    const Coo<float> all = edges(base);
    for (std::size_t i = 0; i < all.nnz(); ++i) {
      index_t c = all.col[i];
      if (all.row[i] == 160 && c == 64) c = 97;
      else if (all.row[i] == 225 && c == 97) c = 64;
      coo.push(all.row[i], c, all.val[i]);
    }
    cases.push_back({"two edges swapped", Csr<float>::from_coo(coo)});
  }
  {
    Rng rng(3);
    const auto p = rng.permutation(n);
    const std::vector<index_t> perm(p.begin(), p.end());
    cases.push_back({"sources relabeled",
                     weighted(spgemm_bool(permutation_matrix(perm),
                                          gc::topology(1024, 2).layer(0)))});
  }
  // ones(2, 2) (x) a (4, 3) system's first layer (R = 4, s = 1 on 12).
  cases.push_back(
      {"Kronecker-widened", weighted(build_radix_net({{4, 3}}, {2, 2, 2})
                                         .layer(0))});
  cases.push_back({"R * s > N", weighted(mrt_submatrix(10, 4, 3))});
  {
    // Four random columns in every row: the row degrees are equal.
    Rng rng(9);
    Coo<float> coo(64, 64);
    for (index_t r = 0; r < 64; ++r) {
      const auto p = rng.permutation(64);
      for (index_t k = 0; k < 4; ++k) coo.push(r, p[k], kWeight);
    }
    cases.push_back({"random", Csr<float>::from_coo(coo)});
  }

  for (const auto& c : cases) {
    EXPECT_FALSE(detect_radix_layout(c.layer).has_value()) << c.name;
    const infer::SparseDnn dnn({c.layer}, 0.05f, 0.7f);
    ASSERT_TRUE(dnn.layer_uniform(0)) << c.name;
    EXPECT_EQ(dnn.layout(0), nullptr) << c.name;
    Rng rng(c.layer.rows());
    for (const index_t batch : {1u, 9u}) {
      const auto x = random_dense(
          static_cast<std::size_t>(batch) * c.layer.rows(), rng);
      (void)forward_all_arms(dnn, x, batch, c.name);
    }
  }
}

TEST(RadixLayout, ChallengeNetsGatherThroughLayouts) {
  for (const index_t neurons : {1024u, 4096u}) {
    Rng rng(neurons);
    const auto net = gc::network(neurons, neurons == 1024 ? 4 : 6, &rng);
    const infer::SparseDnn dnn(net.layers, net.bias, gc::kClamp);
    for (std::size_t k = 0; k < dnn.depth(); ++k) {
      ASSERT_NE(dnn.layout(k), nullptr) << neurons << " layer " << k;
    }
    Rng irng(5);
    for (const index_t batch : {1u, 8u, 13u}) {
      const auto x = gc::synthetic_input(batch, neurons, 0.4, irng);
      const auto y = forward_all_arms(dnn, x, batch,
                                      std::to_string(neurons) + " batch " +
                                          std::to_string(batch));
      EXPECT_GT(std::count_if(y.begin(), y.end(),
                              [](float v) { return v != 0.0f; }),
                0);
    }
  }
}

// Defaulted moves deduce noexcept from the members, so these fail if a
// member stops being nothrow-movable.
static_assert(std::is_nothrow_move_constructible_v<infer::SparseDnn>);
static_assert(std::is_nothrow_move_assignable_v<infer::SparseDnn>);

TEST(RadixLayout, MovedSparseDnnKeepsItsLayouts) {
  Rng rng(31);
  const auto net = gc::network(1024, 4, &rng);
  infer::SparseDnn source(net.layers, net.bias, gc::kClamp);
  std::vector<RadixLayout> want;
  for (std::size_t k = 0; k < source.depth(); ++k) {
    ASSERT_NE(source.layout(k), nullptr);
    want.push_back(*source.layout(k));
  }
  Rng irng(8);
  const index_t batch = 3;
  const auto x = gc::synthetic_input(batch, 1024, 0.4, irng);
  const auto y = forward_all_arms(source, x, batch, "source");

  const auto expect_layouts = [&](const infer::SparseDnn& dnn,
                                  const char* tag) {
    ASSERT_EQ(dnn.depth(), want.size()) << tag;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const RadixLayout* l = dnn.layout(k);
      ASSERT_NE(l, nullptr) << tag << " layer " << k;
      EXPECT_EQ(l->width, want[k].width) << tag;
      EXPECT_EQ(l->radix, want[k].radix) << tag;
      EXPECT_EQ(l->stride, want[k].stride) << tag;
      EXPECT_EQ(l->store, want[k].store) << tag;
    }
    expect_same_bits(forward_all_arms(dnn, x, batch, tag), y, tag);
  };
  infer::SparseDnn constructed(std::move(source));
  expect_layouts(constructed, "move-constructed");
  // Move-assign over a net without layouts.
  infer::SparseDnn assigned({weighted(mrt_submatrix(10, 4, 3))}, 0.0f);
  ASSERT_EQ(assigned.layout(0), nullptr);
  assigned = std::move(constructed);
  expect_layouts(assigned, "move-assigned");

  // A net without layouts gathers over the transposes built at
  // construction; they move with it.
  auto weights = net.layers;
  for (auto& l : weights) {
    l = l.map<float>([&](float) {
      return static_cast<float>(rng.uniform(0.03, 0.09));
    });
  }
  infer::SparseDnn csr_source(weights, net.bias, gc::kClamp);
  const auto y_csr = forward_all_arms(csr_source, x, batch, "csr source");
  const auto expect_csr = [&](const infer::SparseDnn& dnn, const char* tag) {
    for (std::size_t k = 0; k < dnn.depth(); ++k) {
      ASSERT_EQ(dnn.layout(k), nullptr) << tag << " layer " << k;
    }
    expect_same_bits(forward_all_arms(dnn, x, batch, tag), y_csr, tag);
  };
  infer::SparseDnn csr_constructed(std::move(csr_source));
  expect_csr(csr_constructed, "csr move-constructed");
  // Move-assign over a net with layouts.
  infer::SparseDnn csr_assigned(net.layers, net.bias, gc::kClamp);
  ASSERT_NE(csr_assigned.layout(0), nullptr);
  csr_assigned = std::move(csr_constructed);
  expect_csr(csr_assigned, "csr move-assigned");
}

}  // namespace
}  // namespace radix
