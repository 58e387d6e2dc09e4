// Tests for the COO/CSR substrate.
#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sparse/csr_view.hpp"
#include "sparse/dense.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

Coo<double> random_coo(index_t rows, index_t cols, std::size_t entries,
                       Rng& rng) {
  Coo<double> coo(rows, cols);
  for (std::size_t i = 0; i < entries; ++i) {
    coo.push(static_cast<index_t>(rng.uniform(rows)),
             static_cast<index_t>(rng.uniform(cols)),
             rng.uniform(-1.0, 1.0));
  }
  return coo;
}

TEST(Coo, PushBoundsChecked) {
  Coo<float> coo(2, 3);
  coo.push(1, 2, 1.0f);
  EXPECT_EQ(coo.nnz(), 1u);
  EXPECT_THROW(coo.push(2, 0, 1.0f), DimensionError);
  EXPECT_THROW(coo.push(0, 3, 1.0f), DimensionError);
}

TEST(Csr, EmptyMatrix) {
  Csr<float> m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
  m.check_invariants();
}

TEST(Csr, AllZeroMatrixHasShape) {
  Csr<float> m(4, 7);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 7u);
  EXPECT_EQ(m.nnz(), 0u);
  EXPECT_EQ(m.count_empty_rows(), 4u);
  EXPECT_EQ(m.count_empty_cols(), 7u);
}

TEST(Csr, FromCooSortsColumns) {
  Coo<double> coo(2, 5);
  coo.push(0, 4, 1.0);
  coo.push(0, 1, 2.0);
  coo.push(0, 3, 3.0);
  coo.push(1, 0, 4.0);
  const auto m = Csr<double>::from_coo(coo);
  m.check_invariants();
  ASSERT_EQ(m.row_nnz(0), 3u);
  EXPECT_EQ(m.row_cols(0)[0], 1u);
  EXPECT_EQ(m.row_cols(0)[1], 3u);
  EXPECT_EQ(m.row_cols(0)[2], 4u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 3.0);
}

TEST(Csr, FromCooCombinesDuplicatesAdditively) {
  Coo<double> coo(1, 3);
  coo.push(0, 1, 2.5);
  coo.push(0, 1, 1.5);
  coo.push(0, 2, 1.0);
  const auto m = Csr<double>::from_coo(coo);
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 1.0);
}

TEST(Csr, AtReturnsZeroForMissingEntry) {
  Coo<double> coo(2, 2);
  coo.push(0, 0, 1.0);
  const auto m = Csr<double>::from_coo(coo);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_FALSE(m.contains(1, 1));
  EXPECT_TRUE(m.contains(0, 0));
}

TEST(Csr, IdentityAndOnes) {
  const auto eye = Csr<float>::identity(4);
  EXPECT_EQ(eye.nnz(), 4u);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(eye.at(i, i), 1.0f);
  }
  const auto ones = Csr<float>::ones(2, 3);
  EXPECT_EQ(ones.nnz(), 6u);
  EXPECT_EQ(ones.count_empty_rows(), 0u);
  EXPECT_EQ(ones.count_empty_cols(), 0u);
  ones.check_invariants();
}

TEST(Csr, TransposeIsInvolution) {
  Rng rng(1);
  const auto m = Csr<double>::from_coo(random_coo(10, 7, 30, rng));
  const auto t = m.transpose();
  t.check_invariants();
  EXPECT_EQ(t.rows(), m.cols());
  EXPECT_EQ(t.cols(), m.rows());
  EXPECT_EQ(t.transpose(), m);
}

TEST(Csr, TransposeMatchesDense) {
  Rng rng(2);
  const auto m = Csr<double>::from_coo(random_coo(6, 9, 25, rng));
  const Dense dm = to_dense(m);
  const Dense dt = to_dense(m.transpose());
  for (index_t r = 0; r < 6; ++r) {
    for (index_t c = 0; c < 9; ++c) {
      EXPECT_DOUBLE_EQ(dm.at(r, c), dt.at(c, r));
    }
  }
}

TEST(Csr, MapAndPattern) {
  Coo<double> coo(2, 2);
  coo.push(0, 1, -3.5);
  coo.push(1, 0, 2.0);
  const auto m = Csr<double>::from_coo(coo);
  const auto doubled = m.map<double>([](double v) { return 2.0 * v; });
  EXPECT_DOUBLE_EQ(doubled.at(0, 1), -7.0);
  const auto p = m.pattern();
  EXPECT_EQ(p.at(0, 1), 1);
  EXPECT_EQ(p.nnz(), m.nnz());
}

TEST(Csr, EmptyRowColCounts) {
  Coo<double> coo(3, 4);
  coo.push(0, 1, 1.0);
  coo.push(2, 1, 1.0);
  const auto m = Csr<double>::from_coo(coo);
  EXPECT_EQ(m.count_empty_rows(), 1u);   // row 1
  EXPECT_EQ(m.count_empty_cols(), 3u);   // cols 0, 2, 3
}

TEST(Csr, InvariantViolationsDetected) {
  // Unsorted columns within a row.
  EXPECT_THROW(
      Csr<float>(1, 3, {0, 2}, {2, 0}, {1.0f, 1.0f}).check_invariants(),
      InternalError);
  // Column out of range.
  EXPECT_THROW(Csr<float>(1, 2, {0, 1}, {5}, {1.0f}), InternalError);
  // rowptr not ending at nnz.
  EXPECT_THROW(Csr<float>(1, 2, {0, 2}, {0}, {1.0f}), InternalError);
}

TEST(Csr, InteriorRowptrPastNnzRejectedBeforeItsRowIsRead) {
  // Monotone, ending at nnz, and the columns keep increasing across the
  // row boundary: only a bound on rowptr[1] stops row 0's loop from
  // reading past colind (a heap-buffer-overflow under ASan).
  const std::vector<offset_t> rowptr = {0, offset_t{1} << 36, 5};
  const std::vector<index_t> colind = {0, 1, 2, 3, 4};
  const std::vector<float> values(colind.size(), 1.0f);
  const auto expect_names_rowptr = [](const std::string& what) {
    EXPECT_NE(what.find("rowptr"), std::string::npos) << what;
  };

  try {
    Csr<float>(2, 8, rowptr, colind, values);
    ADD_FAILURE() << "Csr accepted an interior rowptr past nnz";
  } catch (const InternalError& e) {
    expect_names_rowptr(e.what());
  }

  const CsrFloatView view(2, 8, rowptr, colind, values);
  try {
    check_view_invariants(view, [](const char* msg) {
      throw std::invalid_argument(msg);
    });
    ADD_FAILURE() << "check_view_invariants accepted an interior rowptr "
                     "past nnz";
  } catch (const std::invalid_argument& e) {
    expect_names_rowptr(e.what());
  }
}

TEST(Csr, FromCooRejectsOutOfRange) {
  Coo<double> coo(2, 2);
  coo.row.push_back(5);  // bypass push() checks
  coo.col.push_back(0);
  coo.val.push_back(1.0);
  EXPECT_THROW(Csr<double>::from_coo(coo), DimensionError);
}

TEST(Csr, RoundTripThroughDense) {
  Rng rng(3);
  const auto m = Csr<double>::from_coo(random_coo(8, 8, 20, rng));
  const auto back = from_dense(to_dense(m));
  EXPECT_EQ(to_dense(back).data(), to_dense(m).data());
}

// Pattern sweep: random matrices keep invariants after canonicalization.
class CsrRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(CsrRandomSweep, InvariantsHold) {
  Rng rng(GetParam());
  const index_t rows = 1 + static_cast<index_t>(rng.uniform(50));
  const index_t cols = 1 + static_cast<index_t>(rng.uniform(50));
  const std::size_t entries = rng.uniform(200);
  const auto m = Csr<double>::from_coo(random_coo(rows, cols, entries, rng));
  m.check_invariants();
  EXPECT_LE(m.nnz(), entries);
  // nnz matches dense count.
  EXPECT_EQ(m.nnz(), to_dense(m).nnz());
}

INSTANTIATE_TEST_SUITE_P(Sweep, CsrRandomSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace radix
