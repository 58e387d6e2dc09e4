// Engine model-lifecycle tests: the copy-on-write registry behind
// remove_model / swap_model / add_tombstone / abort must change WHICH
// version serves a request -- never lose one, never split a batch
// across versions, and never block or corrupt the submit hot path.
// Sized to stay meaningful under ThreadSanitizer (the suite carries the
// `serve` CTest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<infer::SparseDnn> make_dnn(index_t neurons,
                                           std::size_t layers,
                                           std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& input,
                                  index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input.data(), rows, ws);
  return {y.begin(), y.end()};
}

TEST(EngineLifecycle, RemoveModelServesBacklogThenRejects) {
  const auto dnn = make_dnn(1024, 2, 80);
  Engine engine({.workers = 1, .max_delay = 200us});
  const auto id = engine.add_model(dnn);
  Rng irng(81);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x, 1);

  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
  }
  engine.remove_model(id);  // admission closes, backlog is served

  for (auto& f : futures) {
    EXPECT_EQ(f.get(), want) << "admitted before remove => served in full";
  }
  EXPECT_TRUE(engine.model_retired(id));
  // Rejection is a value (service ended), never an exception -- for the
  // batched path and the zero-row inline path alike.
  EXPECT_FALSE(engine.submit(InferenceRequest::borrowed(id, x, 1)).admitted());
  EXPECT_FALSE(engine.submit(InferenceRequest::borrowed(id, {}, 0)).admitted());
  // The id keeps answering stats with the model's history; the weights
  // themselves are gone.
  EXPECT_EQ(engine.stats(id).requests, 10u);
  EXPECT_THROW((void)engine.model(id), Error);
  EXPECT_TRUE(engine.accepting()) << "removing one model must not stop others";
}

TEST(EngineLifecycle, RemovedIdIsNeverReused) {
  const auto d0 = make_dnn(1024, 2, 82);
  const auto d1 = make_dnn(1024, 2, 83);
  Engine engine({.workers = 1});
  const auto first = engine.add_model(d0);
  engine.remove_model(first);
  const auto second = engine.add_model(d1);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u) << "ids are never reused, even after remove";
  EXPECT_TRUE(engine.model_retired(first));
  EXPECT_FALSE(engine.model_retired(second));
  Rng irng(84);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_EQ(engine.submit(InferenceRequest::borrowed(second, x, 1)).get(),
            direct_forward(*d1, x, 1));
}

TEST(EngineLifecycle, SwapModelCutsOverBitExact) {
  const auto v1 = make_dnn(1024, 2, 85);
  const auto v2 = make_dnn(1024, 2, 86);
  Engine engine({.workers = 1});
  const auto id = engine.add_model(v1);
  Rng irng(87);
  const auto x = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want1 = direct_forward(*v1, x, 2);
  const auto want2 = direct_forward(*v2, x, 2);
  ASSERT_NE(want1, want2) << "test needs distinguishable versions";

  EXPECT_EQ(&engine.model(id), v1.get());
  EXPECT_EQ(engine.submit(InferenceRequest::borrowed(id, x, 2)).get(), want1);
  engine.swap_model(id, v2);
  EXPECT_EQ(&engine.model(id), v2.get());
  EXPECT_EQ(engine.submit(InferenceRequest::borrowed(id, x, 2)).get(), want2);
  // One id, one stats stream across versions.
  EXPECT_EQ(engine.stats(id).requests, 2u);
}

TEST(EngineLifecycle, SwapModelValidatesShapeAndLiveness) {
  const auto wide = make_dnn(1024, 2, 88);
  const auto narrow = make_dnn(4096, 3, 89);
  Engine engine({.workers = 1});
  const auto id = engine.add_model(wide);
  EXPECT_THROW(engine.swap_model(id, narrow), DimensionError)
      << "a version with different widths is a different model";
  EXPECT_THROW(engine.swap_model(id + 1, wide), Error);
  EXPECT_THROW(engine.swap_model(id, nullptr), Error);
  EXPECT_EQ(&engine.model(id), wide.get()) << "failed swaps must not publish";
  engine.remove_model(id);
  EXPECT_THROW(engine.swap_model(id, wide), Error);
}

TEST(EngineLifecycle, PostSwapSubmissionsNeverSeeTheOldVersion) {
  const auto v1 = make_dnn(1024, 2, 90);
  const auto v2 = make_dnn(1024, 2, 91);
  Engine engine({.workers = 2, .max_batch_rows = 4, .max_delay = 50us});
  const auto id = engine.add_model(v1);
  Rng irng(92);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want1 = direct_forward(*v1, x, 1);
  const auto want2 = direct_forward(*v2, x, 1);
  ASSERT_NE(want1, want2);

  const auto matches = [](std::span<const float> out,
                          const std::vector<float>& want) {
    return std::equal(out.begin(), out.end(), want.begin(), want.end());
  };

  // Streamers race the swap: anything they submit may legitimately be
  // served by either version (submitted before OR after the cutover),
  // but never by something else -- a torn batch would produce neither.
  std::atomic<int> wrong{0};
  std::atomic<bool> stop{false};
  {
    ThreadGroup streamers;
    for (int t = 0; t < 2; ++t) {
      streamers.spawn([&] {
        while (!stop.load(std::memory_order_acquire)) {
          (void)engine.submit(
              InferenceRequest::borrowed(id, x, 1),
              {.done = [&](std::span<const float> out, const RequestTiming&,
                           std::exception_ptr err) {
                if (err || (!matches(out, want1) && !matches(out, want2))) {
                  ++wrong;
                }
              }});
        }
      });
    }
    engine.swap_model(id, v2);
    // THE cutover guarantee: a request submitted after swap_model
    // returned is served by the new version, full stop.
    std::atomic<int> stale{0};
    std::vector<std::future<std::vector<float>>> post;
    for (int i = 0; i < 20; ++i) {
      post.push_back(
          engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
    }
    for (auto& f : post) {
      if (f.get() != want2) ++stale;
    }
    EXPECT_EQ(stale.load(), 0)
        << "post-swap submission served by the retired version";
    stop.store(true, std::memory_order_release);
  }  // join streamers
  engine.shutdown();
  EXPECT_EQ(wrong.load(), 0) << "a request saw a torn/unknown version";
}

TEST(EngineLifecycle, AbortFailsQueuedWithAbortedErrorAndFinishesClaimed) {
  const auto dnn = make_dnn(1024, 2, 93);
  Engine engine(
      {.workers = 1, .max_batch_rows = 1, .max_delay = 0us,
       .queue_capacity = 8});
  const auto id = engine.add_model(dnn);
  Rng irng(94);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  // Park the lone worker inside a claimed request's completion, so the
  // next submissions stay queued -- exactly the state a crash orphans.
  std::promise<void> parked;
  std::promise<void> release;
  auto release_future = release.get_future();
  std::atomic<bool> claimed_completed{false};
  (void)engine.submit(InferenceRequest::borrowed(id, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        parked.set_value();
                        release_future.wait();
                        claimed_completed.store(true);
                      }});
  parked.get_future().wait();
  auto f1 = engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  auto f2 = engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  ASSERT_EQ(engine.pending(id), 2u);

  // abort() completes the orphans BEFORE joining the workers, so their
  // futures resolve while the claimed batch is still parked -- that
  // ordering is what lets a failover layer resubmit them elsewhere
  // without waiting out in-flight work on the dying shard.
  std::thread aborter([&] { engine.abort(); });
  EXPECT_THROW(f1.get(), AbortedError);
  EXPECT_THROW(f2.get(), AbortedError);
  EXPECT_FALSE(claimed_completed.load()) << "orphans must not wait on claimed";
  release.set_value();
  aborter.join();

  EXPECT_TRUE(claimed_completed.load()) << "claimed batches still finish";
  EXPECT_FALSE(engine.accepting());
  EXPECT_FALSE(engine.submit(InferenceRequest::borrowed(id, x, 1)).admitted());
  const auto stats = engine.stats(id);
  EXPECT_EQ(stats.errors, 2u) << "orphans are this engine's errors";
  EXPECT_EQ(stats.requests, 3u);
}

TEST(EngineLifecycle, QuiesceWaitsOutTheBacklog) {
  const auto dnn = make_dnn(1024, 2, 95);
  Engine engine({.workers = 1, .max_delay = 200us});
  const auto id = engine.add_model(dnn);
  Rng irng(96);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
  }
  engine.quiesce();
  EXPECT_EQ(engine.pending(id), 0u);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(0s), std::future_status::ready)
        << "quiesce returned with a request still in flight";
  }
  EXPECT_EQ(engine.stats(id).requests, 20u);
  // Quiesce is not shutdown: admission stays open.  Wait the probe out:
  // it borrows `x`, which dies before the engine would drain it.
  EXPECT_TRUE(engine.accepting());
  auto probe = engine.submit(InferenceRequest::borrowed(id, x, 1));
  ASSERT_TRUE(probe.admitted());
  (void)probe.get();
}

TEST(EngineLifecycle, TombstoneBurnsAnIdWithoutServingAnything) {
  const auto d0 = make_dnn(1024, 2, 97);
  const auto d1 = make_dnn(1024, 2, 98);
  Engine engine({.workers = 1});
  const auto a = engine.add_model(d0);
  const auto burned = engine.add_tombstone();
  const auto b = engine.add_model(d1);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(burned, 1u);
  EXPECT_EQ(b, 2u) << "the tombstone must consume exactly one id";
  EXPECT_TRUE(engine.model_retired(burned));
  EXPECT_FALSE(engine.model_retired(a));
  EXPECT_FALSE(engine.model_retired(b));
  Rng irng(99);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_FALSE(
      engine.submit(InferenceRequest::borrowed(burned, x, 1)).admitted());
  EXPECT_EQ(engine.submit(InferenceRequest::borrowed(b, x, 1)).get(),
            direct_forward(*d1, x, 1));
}

}  // namespace
}  // namespace radix::serve
