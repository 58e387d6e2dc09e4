// Concurrency stress tests, sized to stay meaningful (and fast) under
// ThreadSanitizer:
//
//   * many client threads hammering one Engine (two models, shared
//     worker pool) -- every result must be bit-exact against a direct
//     forward of the same rows, whatever batches the traffic coalesced
//     into;
//   * many threads driving one shared SparseDnn directly with
//     per-thread workspaces (the documented concurrency contract of the
//     fused path), reading its shared transposes on both dispatch arms
//     at once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix {
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
                                  const float* input, index_t rows) {
  infer::InferenceWorkspace ws;
  const auto y = dnn.forward(input, rows, ws);
  return {y.begin(), y.end()};
}

TEST(ServeStress, ManyClientsOneEngineBitExact) {
  const auto dnn0 = make_dnn(1024, 4, 41);
  const auto dnn1 = make_dnn(1024, 2, 42);

  serve::Engine engine({.workers = 2,
                        .max_batch_rows = 32,
                        .max_delay = 500us,
                        .queue_capacity = 64});
  const auto id0 = engine.add_model(dnn0);
  const auto id1 = engine.add_model(dnn1);

  // A small pool of distinct request payloads with precomputed expected
  // outputs; clients cycle through it.
  constexpr index_t kPayloads = 6;
  struct Payload {
    std::vector<float> x;
    index_t rows;
    std::vector<float> want0, want1;
  };
  std::vector<Payload> payloads;
  Rng irng(5);
  for (index_t p = 0; p < kPayloads; ++p) {
    Payload pl;
    pl.rows = 1 + p % 3;
    pl.x = gc::synthetic_input(pl.rows, 1024, 0.4, irng);
    pl.want0 = direct_forward(*dnn0, pl.x.data(), pl.rows);
    pl.want1 = direct_forward(*dnn1, pl.x.data(), pl.rows);
    payloads.push_back(std::move(pl));
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  {
    ThreadGroup clients;
    for (int c = 0; c < kClients; ++c) {
      clients.spawn([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Payload& pl =
              payloads[static_cast<std::size_t>((c + i) % kPayloads)];
          const bool to0 = (c + i) % 2 == 0;
          auto fut = engine
                         .submit(serve::InferenceRequest::borrowed(
                             to0 ? id0 : id1, pl.x, pl.rows))
                         .take_future();
          const auto got = fut.get();
          const auto& want = to0 ? pl.want0 : pl.want1;
          if (got.size() != want.size()) {
            ++mismatches;
            continue;
          }
          for (std::size_t j = 0; j < want.size(); ++j) {
            if (got[j] != want[j]) {
              ++mismatches;
              break;
            }
          }
          ++completed;
        }
      });
    }
  }  // join
  engine.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kRequestsPerClient);
  const auto s0 = engine.stats(id0);
  const auto s1 = engine.stats(id1);
  EXPECT_EQ(s0.requests + s1.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(s0.errors + s1.errors, 0u);
}

TEST(ServeStress, SharedSparseDnnPerThreadWorkspaces) {
  // The challenge topology with non-uniform weights: no layer gets a
  // layout, so every gather reads the layer's transpose, built once at
  // construction and shared by every thread.
  Rng rng(43);
  auto net = gc::network(1024, 4, &rng);
  for (auto& l : net.layers) {
    l = l.map<float>([&](float) {
      return static_cast<float>(rng.uniform(0.03, 0.09));
    });
  }
  const auto dnn =
      std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
  for (std::size_t k = 0; k < dnn->depth(); ++k) {
    ASSERT_EQ(dnn->layout(k), nullptr) << "layer " << k;
  }
  Rng irng(6);
  const index_t rows = 4;
  const auto x = gc::synthetic_input(rows, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x.data(), rows);

  constexpr int kThreads = 8;
  constexpr int kIters = 30;
  std::atomic<int> mismatches{0};
  ThreadGroup threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.spawn([&, t] {
      infer::InferenceWorkspace ws;
      // Half the threads force the gather arm so the shared transposes
      // are read concurrently from the first pass.
      if (t % 2 == 0) ws.force_kernel(infer::Kernel::kGather);
      for (int i = 0; i < kIters; ++i) {
        const auto y = dnn->forward(x.data(), rows, ws);
        if (y.size() != want.size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t j = 0; j < want.size(); ++j) {
          if (y[j] != want[j]) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  threads.join_all();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServeStress, MixedPriorityQosUnderContention) {
  // Mixed-priority producers hammer one engine: interactive traffic is
  // preferred by the scheduler, yet background closed-loop clients must
  // still finish (starvation bound), every result must stay bit-exact
  // against a direct forward, and shutdown must drain every accepted
  // request -- including a tail submitted right before close.
  const auto dnn_i = make_dnn(1024, 4, 45);
  const auto dnn_b = make_dnn(1024, 2, 46);

  serve::EngineOptions opts;
  opts.workers = 2;
  opts.max_batch_rows = 16;
  opts.max_delay = std::chrono::microseconds(200);
  opts.queue_capacity = 128;
  opts.starvation_bound = 4;  // tight bound: background must interleave
  serve::Engine engine(opts);
  const auto chat = engine.add_model(
      dnn_i, {.priority = serve::Priority::kInteractive,
              .weight = 4,
              .max_delay = std::chrono::microseconds(50),
              .max_batch_rows = 8});
  const auto bulk =
      engine.add_model(dnn_b, {.priority = serve::Priority::kBackground});

  constexpr index_t kPayloads = 4;
  struct Payload {
    std::vector<float> x;
    index_t rows;
    std::vector<float> want_i, want_b;
  };
  std::vector<Payload> payloads;
  Rng irng(9);
  for (index_t p = 0; p < kPayloads; ++p) {
    Payload pl;
    pl.rows = 1 + p % 2;
    pl.x = gc::synthetic_input(pl.rows, 1024, 0.4, irng);
    pl.want_i = direct_forward(*dnn_i, pl.x.data(), pl.rows);
    pl.want_b = direct_forward(*dnn_b, pl.x.data(), pl.rows);
    payloads.push_back(std::move(pl));
  }

  constexpr int kInteractiveClients = 4;
  constexpr int kBackgroundClients = 2;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> mismatches{0};
  std::atomic<int> completed{0};
  {
    ThreadGroup clients;
    for (int c = 0; c < kInteractiveClients + kBackgroundClients; ++c) {
      const bool interactive = c < kInteractiveClients;
      clients.spawn([&, c, interactive] {
        const auto id = interactive ? chat : bulk;
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Payload& pl =
              payloads[static_cast<std::size_t>((c + i) % kPayloads)];
          auto fut = engine
                         .submit(serve::InferenceRequest::borrowed(
                             id, pl.x, pl.rows))
                         .take_future();
          const auto got = fut.get();
          const auto& want = interactive ? pl.want_i : pl.want_b;
          if (got != want) {
            ++mismatches;
          } else {
            ++completed;
          }
        }
      });
    }
  }  // join: background clients finishing at all proves no starvation

  // Tail of accepted-but-unwaited requests races shutdown: drain must
  // complete every one of them (futures resolve, no broken promises).
  std::vector<std::future<std::vector<float>>> tail;
  for (int i = 0; i < 16; ++i) {
    const Payload& pl = payloads[static_cast<std::size_t>(i % kPayloads)];
    tail.push_back(engine
                       .submit(serve::InferenceRequest::borrowed(
                           i % 2 == 0 ? chat : bulk, pl.x, pl.rows))
                       .take_future());
  }
  engine.shutdown();
  for (int i = 0; i < 16; ++i) {
    const Payload& pl = payloads[static_cast<std::size_t>(i % kPayloads)];
    const auto got = tail[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(got, i % 2 == 0 ? pl.want_i : pl.want_b)
        << "tail request " << i;
  }

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(completed.load(),
            (kInteractiveClients + kBackgroundClients) * kRequestsPerClient);

  const auto si = engine.class_stats(serve::Priority::kInteractive);
  const auto sb = engine.class_stats(serve::Priority::kBackground);
  EXPECT_EQ(si.requests,
            static_cast<std::uint64_t>(
                kInteractiveClients * kRequestsPerClient + 8));
  EXPECT_EQ(sb.requests,
            static_cast<std::uint64_t>(
                kBackgroundClients * kRequestsPerClient + 8));
  EXPECT_EQ(si.errors + sb.errors, 0u);
  EXPECT_EQ(si.rows + sb.rows,
            engine.stats(chat).rows + engine.stats(bulk).rows);
}

TEST(ServeStress, SubmittersRaceShutdown) {
  // Submitters race close(): every submit must either complete its
  // future or report rejection -- never hang, never drop.
  const auto dnn = make_dnn(1024, 2, 44);
  serve::Engine engine({.workers = 2, .max_delay = 200us});
  const auto id = engine.add_model(dnn);
  Rng irng(8);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  std::atomic<int> served{0};
  std::atomic<int> rejected{0};
  {
    ThreadGroup clients;
    for (int c = 0; c < 4; ++c) {
      clients.spawn([&] {
        for (int i = 0; i < 40; ++i) {
          auto res = engine.submit(serve::InferenceRequest::borrowed(id, x, 1));
          if (res.admitted()) {
            (void)res.get();
            ++served;
          } else {
            ++rejected;
          }
        }
      });
    }
    std::this_thread::sleep_for(2ms);
    engine.shutdown();
  }
  EXPECT_EQ(served.load() + rejected.load(), 4 * 40);
  EXPECT_EQ(engine.stats(id).requests,
            static_cast<std::uint64_t>(served.load()));
}

}  // namespace
}  // namespace radix
