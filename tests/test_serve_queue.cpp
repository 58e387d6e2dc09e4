// Unit tests for BatchAssembly, the step between a claimed batch and
// the forward pass: zero-copy single-request fast path, contiguous
// concatenation, growth-only staging.  The micro-batcher's per-model
// queues (FIFO, close-drain, backpressure, full-queue refusal) and its
// scheduling policy are covered deterministically in
// test_serve_batcher.cpp.
#include "serve/batcher.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace radix::serve {
namespace {

Request make_request(index_t rows, const float* input = nullptr) {
  Request r;
  r.rows = rows;
  r.input = input;
  return r;
}

TEST(BatchAssembly, SingleRequestIsZeroCopy) {
  std::vector<float> x(6, 1.5f);
  MicroBatcher::Batch batch;
  batch.rows = 2;
  batch.requests.push_back(make_request(2, x.data()));

  BatchAssembly assembly;
  const float* panel = assembly.assemble(batch, /*input_width=*/3);
  EXPECT_EQ(panel, x.data()) << "one request must pass through zero-copy";
  EXPECT_EQ(assembly.staging_capacity(), 0u);
}

TEST(BatchAssembly, ConcatenatesRequestsContiguously) {
  std::vector<float> a(3), b(6);
  std::iota(a.begin(), a.end(), 0.0f);   // rows 0
  std::iota(b.begin(), b.end(), 10.0f);  // rows 1..2
  MicroBatcher::Batch batch;
  batch.rows = 3;
  batch.requests.push_back(make_request(1, a.data()));
  batch.requests.push_back(make_request(2, b.data()));

  BatchAssembly assembly;
  const float* panel = assembly.assemble(batch, 3);
  ASSERT_NE(panel, a.data());
  const std::vector<float> want = {0, 1, 2, 10, 11, 12, 13, 14, 15};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(panel[i], want[i]) << "at " << i;
  }
  // Growth-only staging: a second assemble of the same shape reuses it.
  const std::size_t cap = assembly.staging_capacity();
  (void)assembly.assemble(batch, 3);
  EXPECT_EQ(assembly.staging_capacity(), cap);
}

}  // namespace
}  // namespace radix::serve
