// End-to-end tests of the serving engine's submit surface
// (serve/request.hpp): batched results must be bit-identical to direct
// SparseDnn::forward of the same rows (batch rows are independent under
// the challenge rule, so coalescing must not change values), across
// future and callback completion, borrowed and owned inputs, all three
// admission modes, multiple models, graceful shutdown drain, and the
// stats surface.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/stats.hpp"
#include "support/random.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

struct TestModel {
  std::shared_ptr<infer::SparseDnn> dnn;
  index_t width = 0;
};

TestModel make_model(index_t neurons, std::size_t layers, std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  TestModel m;
  m.dnn = std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
  m.width = neurons;
  return m;
}

/// Direct (unbatched) forward of `rows` rows -- the ground truth the
/// engine must match bit-exactly however it coalesces.
std::vector<float> direct_forward(const infer::SparseDnn& dnn,
                                  const std::vector<float>& input,
                                  index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input.data(), rows, ws);
  return {y.begin(), y.end()};
}

TEST(ServeEngine, SingleRequestMatchesDirectForward) {
  const auto m = make_model(1024, 4, 1);
  Engine engine({.workers = 1});
  const auto id = engine.add_model(m.dnn);

  Rng irng(3);
  const auto x = gc::synthetic_input(5, m.width, 0.4, irng);
  auto fut = engine.submit(InferenceRequest::borrowed(id, x, 5)).take_future();
  const auto got = fut.get();
  const auto want = direct_forward(*m.dnn, x, 5);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "at " << i;
  }
}

TEST(ServeEngine, ManyConcurrentRequestsAreBitExactAndCoalesce) {
  const auto m = make_model(1024, 4, 2);
  Engine engine({.workers = 1,
                 .max_batch_rows = 16,
                 .max_delay = 5ms,
                 .queue_capacity = 256});
  const auto id = engine.add_model(m.dnn);

  // Per-request expected outputs computed row-by-row up front.
  constexpr index_t kRequests = 48;
  Rng irng(7);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> want;
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    inputs.push_back(gc::synthetic_input(rows, m.width, 0.4, irng));
    want.push_back(direct_forward(*m.dnn, inputs.back(), rows));
  }

  std::vector<std::future<std::vector<float>>> futures;
  for (index_t i = 0; i < kRequests; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(id, inputs[i], 1 + i % 3))
            .take_future());
  }
  for (index_t i = 0; i < kRequests; ++i) {
    const auto got = futures[i].get();
    ASSERT_EQ(got.size(), want[i].size()) << "request " << i;
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j], want[i][j]) << "request " << i << " at " << j;
    }
  }

  const ServeStats s = engine.stats(id);
  EXPECT_EQ(s.requests, kRequests);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.rows, 48u + 48u / 3 * (1 + 2));  // sum of 1,2,3 pattern
  EXPECT_GE(s.batches, 1u);
  EXPECT_LT(s.batches, s.requests)
      << "with a 5ms window and one worker, some coalescing must happen";
  EXPECT_GT(s.edges_per_busy_second, 0.0);
  EXPECT_GT(s.mean_batch_rows, 1.0);
  std::uint64_t hist_total = 0;
  for (const auto& [bound, count] : s.batch_rows_histogram) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, s.batches);
}

TEST(ServeEngine, OwnedSubmitAndInputSizeValidation) {
  const auto m = make_model(1024, 2, 3);
  Engine engine({.workers = 1});
  const auto id = engine.add_model(m.dnn);

  Rng irng(9);
  auto x = gc::synthetic_input(2, m.width, 0.3, irng);
  const auto want = direct_forward(*m.dnn, x, 2);
  // Owned request: the engine carries the buffer, the caller's vector
  // is gone the moment the factory returns.
  auto fut = engine.submit(InferenceRequest::owned(id, std::move(x), 2))
                 .take_future();
  const auto got = fut.get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]);

  EXPECT_THROW(
      (void)engine.submit(
          InferenceRequest::owned(id, std::vector<float>(17, 0.0f), 2)),
      DimensionError)
      << "owned submit must validate rows * input_width";
  const std::vector<float> short_buf(m.width, 0.0f);
  EXPECT_THROW(
      (void)engine.submit(InferenceRequest::borrowed(id, short_buf, 2)),
      DimensionError)
      << "the borrowed span encodes its length, so size is validated too";
}

TEST(ServeEngine, CallbackCompletionDeliversSpanAndTiming) {
  const auto m = make_model(1024, 2, 4);
  Engine engine({.workers = 1, .max_delay = 0us});
  const auto id = engine.add_model(m.dnn);

  Rng irng(11);
  const auto x = gc::synthetic_input(3, m.width, 0.4, irng);
  const auto want = direct_forward(*m.dnn, x, 3);

  std::promise<void> done_promise;
  std::vector<float> got;
  RequestTiming timing;
  const auto res = engine.submit(
      InferenceRequest::borrowed(id, x, 3),
      {.done = [&](std::span<const float> y, const RequestTiming& t,
                   std::exception_ptr err) {
        EXPECT_EQ(err, nullptr);
        got.assign(y.begin(), y.end());
        timing = t;
        done_promise.set_value();
      }});
  EXPECT_TRUE(res.admitted());
  done_promise.get_future().wait();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]);
  EXPECT_GE(timing.batch_rows, 3u);
  EXPECT_GE(timing.total_seconds, timing.queue_seconds);
}

TEST(ServeEngine, CallbackSubmitCarriesNoFuture) {
  const auto m = make_model(1024, 2, 12);
  Engine engine({.workers = 1, .max_delay = 0us});
  const auto id = engine.add_model(m.dnn);
  Rng irng(13);
  const auto x = gc::synthetic_input(1, m.width, 0.4, irng);

  std::promise<void> done;
  auto res = engine.submit(
      InferenceRequest::borrowed(id, x, 1),
      {.done = [&](std::span<const float>, const RequestTiming&,
                   std::exception_ptr) { done.set_value(); }});
  EXPECT_TRUE(res.admitted());
  EXPECT_FALSE(res.has_future());
  EXPECT_THROW((void)res.take_future(), Error);
  done.get_future().wait();
}

TEST(ServeEngine, ZeroRowSubmitCompletesImmediately) {
  const auto m = make_model(1024, 2, 5);
  Engine engine({.workers = 1});
  const auto id = engine.add_model(m.dnn);
  auto fut = engine.submit(InferenceRequest::borrowed(id, {}, 0))
                 .take_future();
  EXPECT_TRUE(fut.get().empty());
}

TEST(ServeEngine, MultiModelRoutingAndStatsIsolation) {
  const auto m0 = make_model(1024, 4, 6);
  const auto m1 = make_model(4096, 3, 7);
  Engine engine({.workers = 2, .max_delay = 1ms});
  const auto id0 = engine.add_model(m0.dnn);
  const auto id1 = engine.add_model(m1.dnn);
  EXPECT_EQ(id0, 0u);
  EXPECT_EQ(id1, 1u) << "ids are dense, in registration order";

  Rng irng(13);
  const auto x0 = gc::synthetic_input(2, m0.width, 0.4, irng);
  const auto x1 = gc::synthetic_input(1, m1.width, 0.4, irng);
  const auto want0 = direct_forward(*m0.dnn, x0, 2);
  const auto want1 = direct_forward(*m1.dnn, x1, 1);

  std::vector<std::future<std::vector<float>>> f0, f1;
  for (int i = 0; i < 6; ++i) {
    f0.push_back(
        engine.submit(InferenceRequest::borrowed(id0, x0, 2)).take_future());
    f1.push_back(
        engine.submit(InferenceRequest::borrowed(id1, x1, 1)).take_future());
  }
  for (auto& f : f0) {
    const auto got = f.get();
    ASSERT_EQ(got.size(), want0.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want0[i]);
  }
  for (auto& f : f1) {
    const auto got = f.get();
    ASSERT_EQ(got.size(), want1.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want1[i]);
  }
  EXPECT_EQ(engine.stats(id0).requests, 6u);
  EXPECT_EQ(engine.stats(id1).requests, 6u);
  EXPECT_EQ(engine.stats(id0).rows, 12u);
  EXPECT_EQ(engine.stats(id1).rows, 6u);
}

TEST(ServeEngine, ShutdownDrainsEveryAcceptedRequest) {
  const auto m = make_model(1024, 4, 8);
  std::vector<std::future<std::vector<float>>> futures;
  std::vector<float> x;
  std::vector<float> want;
  {
    Engine engine({.workers = 1, .max_delay = 20ms});
    const auto id = engine.add_model(m.dnn);
    Rng irng(17);
    x = gc::synthetic_input(1, m.width, 0.4, irng);
    want = direct_forward(*m.dnn, x, 1);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(
          engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
    }
    engine.shutdown();  // must serve all 32 before returning
    EXPECT_FALSE(engine.accepting());
    EXPECT_FALSE(engine.submit(InferenceRequest::borrowed(id, x, 1)).admitted())
        << "submit after shutdown must be rejected, not served";
    EXPECT_EQ(engine.stats(id).requests, 32u);
  }  // destructor: second shutdown must be a no-op
  for (auto& f : futures) {
    const auto got = f.get();  // no broken promises
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]);
  }
}

TEST(ServeEngine, ThrowingCallbackDoesNotKillWorkers) {
  const auto m = make_model(1024, 2, 10);
  Engine engine({.workers = 1, .max_delay = 0us});
  const auto id = engine.add_model(m.dnn);
  Rng irng(23);
  const auto x = gc::synthetic_input(1, m.width, 0.4, irng);

  std::promise<void> threw;
  (void)engine.submit(InferenceRequest::borrowed(id, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        threw.set_value();
                        throw std::runtime_error("client bug");
                      }});
  threw.get_future().wait();
  // The worker must have survived the escaping exception and still
  // serve subsequent requests.
  auto fut = engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  EXPECT_EQ(fut.get(), direct_forward(*m.dnn, x, 1));
}

TEST(ServeEngine, ConcurrentAddModelKeepsIdsConsistent) {
  // add_model is documented safe while traffic is served: registry and
  // batcher ids must stay in lockstep under concurrent registration,
  // and every id must route to its own model.
  std::vector<TestModel> models;
  for (std::uint64_t s = 0; s < 4; ++s) models.push_back(make_model(1024, 2, 20 + s));

  Engine engine({.workers = 2, .max_delay = 0us});
  std::vector<ModelId> ids(4);
  {
    std::vector<std::thread> registrars;
    for (int t = 0; t < 4; ++t) {
      registrars.emplace_back([&, t] {
        ids[static_cast<std::size_t>(t)] =
            engine.add_model(models[static_cast<std::size_t>(t)].dnn);
      });
    }
    for (auto& th : registrars) th.join();
  }
  std::vector<ModelId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<ModelId>{0, 1, 2, 3}))
      << "concurrent registrations must take the dense ids 0..3 once each";
  Rng irng(29);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int t = 0; t < 4; ++t) {
    const auto id = ids[static_cast<std::size_t>(t)];
    auto fut =
        engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
    EXPECT_EQ(fut.get(),
              direct_forward(*models[static_cast<std::size_t>(t)].dnn, x, 1))
        << "model id " << id << " routed to the wrong model";
  }
}

TEST(ServeEngine, StatsPercentilesAreOrdered) {
  const auto m = make_model(1024, 2, 9);
  Engine engine({.workers = 1, .max_delay = 1ms});
  const auto id = engine.add_model(m.dnn);
  Rng irng(19);
  const auto x = gc::synthetic_input(1, m.width, 0.4, irng);
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
  }
  for (auto& f : futures) (void)f.get();

  const ServeStats s = engine.stats(id);
  EXPECT_GT(s.e2e_p50, 0.0);
  EXPECT_LE(s.queue_wait_p50, s.queue_wait_p95);
  EXPECT_LE(s.queue_wait_p95, s.queue_wait_p99);
  EXPECT_LE(s.e2e_p50, s.e2e_p95);
  EXPECT_LE(s.e2e_p95, s.e2e_p99);
  EXPECT_LE(s.e2e_p99, std::max(s.e2e_max, s.e2e_p99));
  EXPECT_FALSE(to_string(s).empty());
}

TEST(ServeEngineQos, ModelPolicyIsModelValueElseEngineDefault) {
  const auto m = make_model(1024, 2, 30);
  EngineOptions opts;
  opts.workers = 1;
  opts.max_batch_rows = 64;
  opts.max_delay = 300us;
  Engine engine(opts);

  const auto plain = engine.add_model(m.dnn);
  const auto chat = engine.add_model(
      m.dnn,
      {.priority = Priority::kInteractive,
       .weight = 4,
       .max_delay = 50us,
       .max_batch_rows = 4});
  const auto custom = engine.add_model(
      m.dnn, {.priority = Priority::kInteractive, .max_delay = 10us});

  // Engine defaults for a model that sets nothing.
  EXPECT_EQ(engine.model_policy(plain).priority, Priority::kBatch);
  EXPECT_EQ(engine.model_policy(plain).weight, 1u);
  EXPECT_EQ(engine.model_policy(plain).max_delay, 300us);
  EXPECT_EQ(engine.model_policy(plain).max_batch_rows, 64u);
  // Every per-model value is served as given.
  EXPECT_EQ(engine.model_policy(chat).priority, Priority::kInteractive);
  EXPECT_EQ(engine.model_policy(chat).weight, 4u);
  EXPECT_EQ(engine.model_policy(chat).max_delay, 50us);
  EXPECT_EQ(engine.model_policy(chat).max_batch_rows, 4u);
  // A field the model leaves unset takes the engine default, whatever
  // its class: nothing sits between the model and the engine.
  EXPECT_EQ(engine.model_policy(custom).max_delay, 10us);
  EXPECT_EQ(engine.model_policy(custom).max_batch_rows, 64u);
  EXPECT_EQ(engine.model_policy(custom).weight, 1u);
}

TEST(ServeEngineQos, ClassStatsAggregatePerPriority) {
  const auto m0 = make_model(1024, 2, 31);
  const auto m1 = make_model(1024, 2, 32);
  Engine engine({.workers = 2, .max_delay = 0us});
  const auto chat =
      engine.add_model(m0.dnn, {.priority = Priority::kInteractive});
  const auto bulk =
      engine.add_model(m1.dnn, {.priority = Priority::kBackground});

  Rng irng(33);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(chat, x, 1)).take_future());
  }
  for (int i = 0; i < 3; ++i) {
    futures.push_back(
        engine.submit(InferenceRequest::borrowed(bulk, x, 1)).take_future());
  }
  for (auto& f : futures) (void)f.get();

  const ServeStats si = engine.class_stats(Priority::kInteractive);
  const ServeStats sb = engine.class_stats(Priority::kBackground);
  EXPECT_EQ(si.requests, 8u);
  EXPECT_EQ(sb.requests, 3u);
  EXPECT_EQ(engine.class_stats(Priority::kBatch).requests, 0u);
  EXPECT_EQ(si.errors + sb.errors, 0u);
  EXPECT_GT(si.edges_per_busy_second, 0.0);
  // The per-class view aggregates what the per-model collectors saw.
  EXPECT_EQ(si.rows, engine.stats(chat).rows);
  EXPECT_EQ(sb.rows, engine.stats(bulk).rows);
}

TEST(ServeEngineQos, FailFastAdmissionOnFullQueueThenRecovers) {
  const auto m = make_model(1024, 2, 34);
  Engine engine({.workers = 1, .max_delay = 0us, .queue_capacity = 2});
  const auto id = engine.add_model(m.dnn);
  Rng irng(35);
  const auto x = gc::synthetic_input(1, m.width, 0.4, irng);

  // Park the lone worker inside a completion callback so the queue
  // stays deterministically full while we probe admission.
  std::promise<void> worker_parked;
  std::promise<void> release_worker;
  auto release_future = release_worker.get_future();
  (void)engine.submit(InferenceRequest::borrowed(id, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        worker_parked.set_value();
                        release_future.wait();
                      }});
  worker_parked.get_future().wait();

  // Fill the queue to capacity behind the parked worker.
  auto f1 = engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  auto f2 = engine.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  EXPECT_EQ(engine.pending(id), 2u);

  EXPECT_FALSE(
      engine
          .submit(InferenceRequest::borrowed(id, x, 1),
                  {.admission = Admission::kFailFast,
                   .done = [](std::span<const float>, const RequestTiming&,
                              std::exception_ptr) {
                     FAIL() << "rejected request must never complete";
                   }})
          .admitted())
      << "full queue must fail fast";
  EXPECT_FALSE(engine
                   .submit(InferenceRequest::borrowed(id, x, 1),
                           {.admission = Admission::kFailFast})
                   .admitted());
  EXPECT_FALSE(engine
                   .submit(InferenceRequest::borrowed(id, x, 1),
                           {.admission = Admission::kBoundedWait,
                            .timeout = 1000us})
                   .admitted())
      << "bounded wait must give up on a still-full queue";

  release_worker.set_value();  // worker drains the backlog
  const auto want = direct_forward(*m.dnn, x, 1);
  EXPECT_EQ(f1.get(), want);
  EXPECT_EQ(f2.get(), want);

  // With the queue drained, non-blocking admission succeeds again.
  auto r3 = engine.submit(InferenceRequest::borrowed(id, x, 1),
                          {.admission = Admission::kFailFast});
  ASSERT_TRUE(r3.admitted());
  EXPECT_EQ(r3.get(), want);

  engine.shutdown();
  EXPECT_FALSE(engine
                   .submit(InferenceRequest::borrowed(id, x, 1),
                           {.admission = Admission::kFailFast})
                   .admitted())
      << "fail-fast after shutdown reports rejection";
  EXPECT_FALSE(engine
                   .submit(InferenceRequest::borrowed(id, x, 1),
                           {.admission = Admission::kFailFast,
                            .done = [](std::span<const float>,
                                       const RequestTiming&,
                                       std::exception_ptr) {}})
                   .admitted());
}

TEST(ServeLog2Histogram, PercentileApproximation) {
  Log2Histogram h(1e-6);
  EXPECT_EQ(h.percentile(0.99), 0.0);
  for (int i = 0; i < 99; ++i) h.record(10e-6);  // ~10us
  h.record(10e-3);                               // one 10ms outlier
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 10e-6 * 0.99 + 10e-3 * 0.01, 1e-9);
  // p50 lands in the 10us bucket (bound 16us); p995+ sees the outlier.
  EXPECT_LE(h.percentile(0.50), 16e-6);
  EXPECT_GT(h.percentile(0.999), 1e-3);
  EXPECT_DOUBLE_EQ(h.max(), 10e-3);
}

}  // namespace
}  // namespace radix::serve
