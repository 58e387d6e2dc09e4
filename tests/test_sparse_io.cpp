// TSV serialization round-trips and failure injection.
#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "support/error.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

class SparseIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("radixnet_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

Csr<float> random_f32(index_t rows, index_t cols, double density, Rng& rng) {
  Coo<float> coo(rows, cols);
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.push(r, c, static_cast<float>(rng.uniform(-4.0, 4.0)));
      }
    }
  }
  return Csr<float>::from_coo(coo);
}

TEST_F(SparseIoTest, FloatRoundTrip) {
  Rng rng(1);
  const auto m = random_f32(12, 9, 0.3, rng);
  write_tsv(path("m.tsv"), m);
  const auto back = read_tsv_f32(path("m.tsv"));
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  ASSERT_EQ(back.nnz(), m.nnz());
  for (index_t r = 0; r < m.rows(); ++r) {
    auto c0 = m.row_cols(r);
    auto c1 = back.row_cols(r);
    ASSERT_EQ(std::vector<index_t>(c0.begin(), c0.end()),
              std::vector<index_t>(c1.begin(), c1.end()));
    for (std::size_t k = 0; k < c0.size(); ++k) {
      EXPECT_NEAR(m.row_vals(r)[k], back.row_vals(r)[k], 1e-5f);
    }
  }
}

TEST_F(SparseIoTest, PatternRoundTrip) {
  Rng rng(2);
  const auto m = random_f32(7, 7, 0.4, rng).pattern();
  write_tsv(path("p.tsv"), m);
  EXPECT_EQ(read_tsv_pattern(path("p.tsv")), m);
}

TEST_F(SparseIoTest, ShapeHeaderPreservesEmptyTrailingRows) {
  Coo<float> coo(5, 6);
  coo.push(0, 0, 1.0f);  // rows 1..4 and cols 1..5 are empty
  const auto m = Csr<float>::from_coo(coo);
  write_tsv(path("s.tsv"), m);
  const auto back = read_tsv_f32(path("s.tsv"));
  EXPECT_EQ(back.rows(), 5u);
  EXPECT_EQ(back.cols(), 6u);
}

TEST_F(SparseIoTest, MissingFileThrows) {
  EXPECT_THROW(read_tsv_f32(path("nope.tsv")), IoError);
}

TEST_F(SparseIoTest, GarbageLineThrows) {
  std::ofstream out(path("bad.tsv"));
  out << "1\t2\tnot_a_number\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("bad.tsv")), IoError);
}

TEST_F(SparseIoTest, ZeroBasedIndexRejected) {
  std::ofstream out(path("zero.tsv"));
  out << "0\t1\t3.5\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("zero.tsv")), IoError);
}

TEST_F(SparseIoTest, EntryOutsideDeclaredShapeRejected) {
  std::ofstream out(path("oob.tsv"));
  out << "%%shape 2 2\n3\t1\t1.0\n";
  out.close();
  EXPECT_THROW(read_tsv_f32(path("oob.tsv")), IoError);
}

TEST_F(SparseIoTest, CommentsAndBlankLinesIgnored) {
  std::ofstream out(path("c.tsv"));
  out << "%%shape 2 2\n% a comment\n\n# another\n1\t2\t1.5\n";
  out.close();
  const auto m = read_tsv_f32(path("c.tsv"));
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.at(0, 1), 1.5f);
}

TEST_F(SparseIoTest, DuplicateEntriesCombineAdditively) {
  std::ofstream out(path("dup.tsv"));
  out << "1\t1\t2.0\n1\t1\t3.0\n";
  out.close();
  const auto m = read_tsv_f32(path("dup.tsv"));
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_FLOAT_EQ(m.at(0, 0), 5.0f);
}

TEST_F(SparseIoTest, LayerStackRoundTrip) {
  Rng rng(3);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(4, 6, 0.5, rng).pattern());
  layers.push_back(random_f32(6, 5, 0.5, rng).pattern());
  layers.push_back(random_f32(5, 4, 0.5, rng).pattern());
  write_layer_stack(path("stack"), layers);
  const auto back = read_layer_stack(path("stack"));
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i], layers[i]) << "layer " << i;
  }
}

TEST_F(SparseIoTest, LayerStackMissingMetaThrows) {
  EXPECT_THROW(read_layer_stack(path("ghost")), IoError);
}

TEST_F(SparseIoTest, EmptyMatrixRoundTrip) {
  const auto m = Csr<float>::from_coo(Coo<float>(3, 4));
  ASSERT_EQ(m.nnz(), 0u);
  write_tsv(path("empty.tsv"), m);
  const auto back = read_tsv_f32(path("empty.tsv"));
  EXPECT_EQ(back.rows(), 3u);
  EXPECT_EQ(back.cols(), 4u);
  EXPECT_EQ(back.nnz(), 0u);
}

TEST_F(SparseIoTest, ShapeHeaderPreservesTrailingZeroRowsAndCols) {
  // Last two rows and last three columns hold no entries; only the
  // %%shape header keeps them from being silently truncated.
  Coo<float> coo(6, 8);
  coo.push(0, 0, 1.0f);
  coo.push(3, 4, -2.5f);
  const auto m = Csr<float>::from_coo(coo);
  write_tsv(path("trail.tsv"), m);
  const auto back = read_tsv_f32(path("trail.tsv"));
  EXPECT_EQ(back.rows(), 6u);
  EXPECT_EQ(back.cols(), 8u);
  EXPECT_EQ(back.nnz(), 2u);
  EXPECT_FLOAT_EQ(back.at(3, 4), -2.5f);
}

TEST_F(SparseIoTest, ParseErrorsCarryPathAndLine) {
  std::ofstream out(path("where.tsv"));
  out << "1\t1\t1.0\n2\t2\t2.0\nbogus line here\n";
  out.close();
  try {
    read_tsv_f32(path("where.tsv"));
    FAIL() << "garbage line must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path("where.tsv") + ":3"), std::string::npos) << what;
  }
}

TEST_F(SparseIoTest, OutOfShapeErrorNamesOffendingLine) {
  std::ofstream out(path("oobline.tsv"));
  out << "%%shape 2 2\n1\t1\t1.0\n3\t1\t1.0\n";
  out.close();
  try {
    read_tsv_f32(path("oobline.tsv"));
    FAIL() << "entry outside %%shape must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path("oobline.tsv") + ":3"), std::string::npos)
        << what;
  }
}

TEST_F(SparseIoTest, IndicesOutsideIndexRangeOrFractionalRejected) {
  // Cast unchecked, each would load (or fail) as some other index:
  // 2^32 + 1 wraps to row 1, 1.5 truncates to row 1, and 1e30 reaches
  // Coo::push as a DimensionError.  All are IoErrors at their own line.
  const struct {
    const char* name;
    const char* text;
    int line;
  } cases[] = {
      {"wrap.tsv", "%%shape 4 4\n4294967297\t2\t1.5\n", 2},
      {"fraction.tsv", "1.5\t2\t1.0\n", 1},
      {"huge.tsv", "1\t1\t1.0\n1\t1e30\t1.0\n", 2},
  };
  for (const auto& c : cases) {
    {
      std::ofstream out(path(c.name));
      out << c.text;
    }
    try {
      read_tsv_f32(path(c.name));
      ADD_FAILURE() << c.name << " must not load";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path(c.name) + ":" + std::to_string(c.line)),
                std::string::npos)
          << what;
    }
  }
}

TEST_F(SparseIoTest, LayerStackMetaShapeDisagreementThrows) {
  // An index file that disagrees with the layer files must throw, not
  // quietly deliver the wrong shapes.
  Rng rng(4);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(4, 6, 0.5, rng).pattern());
  layers.push_back(random_f32(6, 5, 0.5, rng).pattern());
  write_layer_stack(path("liar"), layers);
  {
    std::ofstream meta(path("liar") + "-meta.txt", std::ios::trunc);
    meta << 2 << '\n' << "4 6\n" << "7 5\n";  // wrong rows for layer 1
  }
  try {
    read_layer_stack(path("liar"));
    FAIL() << "meta/layer disagreement must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disagrees"), std::string::npos) << what;
    EXPECT_NE(what.find("layer1"), std::string::npos) << what;
  }
}

TEST_F(SparseIoTest, LayerStackMetaCountBeyondFilesThrows) {
  Rng rng(5);
  std::vector<Csr<pattern_t>> layers;
  layers.push_back(random_f32(3, 3, 0.5, rng).pattern());
  write_layer_stack(path("overcount"), layers);
  {
    std::ofstream meta(path("overcount") + "-meta.txt", std::ios::trunc);
    meta << 2 << '\n' << "3 3\n" << "3 3\n";  // claims a second layer
  }
  EXPECT_THROW(read_layer_stack(path("overcount")), IoError);
}

}  // namespace
}  // namespace radix
