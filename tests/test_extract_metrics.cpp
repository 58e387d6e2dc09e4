// Per-class classification metrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "nn/metrics.hpp"

namespace radix {
namespace {

TEST(PerClassMetrics, PerfectPredictions) {
  const std::vector<std::int32_t> labels = {0, 1, 2, 0, 1, 2};
  const auto m = nn::per_class_metrics(labels, labels, 3);
  for (int c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(m.precision[c], 1.0);
    EXPECT_DOUBLE_EQ(m.recall[c], 1.0);
    EXPECT_DOUBLE_EQ(m.f1[c], 1.0);
  }
  EXPECT_DOUBLE_EQ(m.macro_f1, 1.0);
}

TEST(PerClassMetrics, KnownConfusion) {
  // labels:      0 0 1 1
  // predictions: 0 1 1 1
  const std::vector<std::int32_t> labels = {0, 0, 1, 1};
  const std::vector<std::int32_t> preds = {0, 1, 1, 1};
  const auto m = nn::per_class_metrics(preds, labels, 2);
  EXPECT_DOUBLE_EQ(m.precision[0], 1.0);       // 1 of 1 predicted-0 correct
  EXPECT_DOUBLE_EQ(m.recall[0], 0.5);          // 1 of 2 true-0 found
  EXPECT_DOUBLE_EQ(m.precision[1], 2.0 / 3.0); // 2 of 3 predicted-1
  EXPECT_DOUBLE_EQ(m.recall[1], 1.0);
  EXPECT_NEAR(m.f1[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(m.f1[1], 0.8, 1e-12);
  EXPECT_NEAR(m.macro_precision, (1.0 + 2.0 / 3.0) / 2.0, 1e-12);
}

TEST(PerClassMetrics, AbsentClassGetsZeros) {
  // Class 2 never appears in labels or predictions.
  const std::vector<std::int32_t> labels = {0, 1};
  const std::vector<std::int32_t> preds = {0, 1};
  const auto m = nn::per_class_metrics(preds, labels, 3);
  EXPECT_DOUBLE_EQ(m.precision[2], 0.0);
  EXPECT_DOUBLE_EQ(m.recall[2], 0.0);
  EXPECT_DOUBLE_EQ(m.f1[2], 0.0);
  EXPECT_NEAR(m.macro_f1, 2.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace radix
