// Chaos test: a sharded fleet under bursty inhomogeneous-Poisson load
// (thinned IPPP, the workload model of Hohmann 2019) while shards are
// killed, restarted, and drained mid-stream and one model is hot-
// swapped.  The contract under all of that churn is absolute:
//
//   * zero lost responses  -- every admitted future becomes ready and
//     never surfaces an error;
//   * zero wrong responses -- every payload is bit-exact against a
//     direct fused forward of the version that could have served it
//     (pre-swap submissions may see either version, post-swap
//     submissions must see only the new one);
//   * orphaned work moves  -- requests queued on a killed shard are
//     failed over, not dropped.
//
// Time is a FakeClock driven by the single test thread, which makes
// the bursts deterministic: with the clock frozen, a worker that
// claims a partial batch parks in its coalescing window, so burst
// traffic piles up in the queues and a kill provably orphans work.
// The suite carries the `serve` CTest label and runs under TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <random>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/router.hpp"
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

TEST(ServeChaos, ShardChurnUnderBurstyLoadLosesNothing) {
  const auto d_a = make_dnn(1024, 2, 200);
  const auto d_b1 = make_dnn(1024, 2, 201);
  const auto d_b2 = make_dnn(1024, 2, 202);

  FakeClock clock;
  ShardRouter router({.shards = 3,
                      .engine = {.workers = 2,
                                 // Larger than any burst backlog: every
                                 // claim is partial, so a frozen clock
                                 // parks the claimer in its coalescing
                                 // window and the rest of the burst
                                 // stays queued for the kill to orphan.
                                 .max_batch_rows = 64,
                                 .max_delay = 200us,
                                 .queue_capacity = 4096,
                                 .clock = &clock}});
  const auto a = router.add_model(
      d_a, "chat", {.priority = Priority::kInteractive, .weight = 4});
  const auto b = router.add_model(
      d_b1, "embed", {.priority = Priority::kBatch, .weight = 1});

  Rng irng(203);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want_a = direct_forward(*d_a, x, 1);
  const auto want_b1 = direct_forward(*d_b1, x, 1);
  const auto want_b2 = direct_forward(*d_b2, x, 1);
  ASSERT_NE(want_b1, want_b2) << "swap would be unobservable";

  struct Sent {
    std::future<std::vector<float>> future;
    ModelId model;
    bool post_swap;
  };
  std::vector<Sent> sent;
  bool swapped = false;

  std::mt19937_64 gen(7);  // fixed seed: the whole run is a replay
  std::exponential_distribution<double> gap_at_peak(1.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double t_us = 0.0;  // virtual time, microseconds since start

  const auto submit_one = [&] {
    const ModelId id = unit(gen) < 0.6 ? a : b;
    auto result = router.submit(InferenceRequest::borrowed(id, x, 1));
    ASSERT_TRUE(result.admitted());
    sent.push_back({result.take_future(), id, swapped && id == b});
  };

  // Burst: submit without advancing the clock, then keep topping up
  // until the target shard provably holds queued (unclaimed) work, so
  // the upcoming kill has something to orphan.
  const auto burst_onto = [&](std::size_t shard) {
    for (int i = 0; i < 40; ++i) submit_one();
    int extra = 0;
    while (router.shard(shard).pending(a) + router.shard(shard).pending(b) ==
               0 &&
           extra++ < 64) {
      submit_one();
    }
    ASSERT_GT(router.shard(shard).pending(a) + router.shard(shard).pending(b),
              0u)
        << "burst never landed queued work on shard " << shard;
  };

  // Inhomogeneous Poisson arrivals by thinning: candidates at the peak
  // rate (one per ~50us), accepted with probability lambda(t)/lambda_max
  // following a 3ms sinusoid -- alternating busy and quiet stretches.
  constexpr int kArrivals = 360;
  int accepted = 0;
  std::int64_t advanced_us = 0;
  std::uint64_t failovers_expected = 0;
  while (accepted < kArrivals) {
    t_us += 50.0 * gap_at_peak(gen);
    if (const auto target = static_cast<std::int64_t>(t_us);
        target > advanced_us) {
      clock.advance(std::chrono::microseconds(target - advanced_us));
      advanced_us = target;
    }
    const double intensity =
        0.5 * (1.0 + std::sin(t_us * (2.0 * 3.14159265358979 / 3000.0)));
    if (unit(gen) >= intensity) continue;  // thinned out: a quiet moment
    ++accepted;
    submit_one();

    switch (accepted) {
      case 60: {
        burst_onto(0);
        const auto before = router.failovers();
        const std::size_t orphans = router.kill_shard(0);
        EXPECT_EQ(router.failovers(), before + orphans)
            << "kill must fail over exactly the orphaned requests";
        failovers_expected += orphans;
        EXPECT_TRUE(router.accepting());
        break;
      }
      case 100:
        router.restart_shard(0);
        EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
        break;
      case 140:
        // drain_shard quiesces, and quiesce waits out claimed batches.
        // A worker parked in its coalescing window only wakes when the
        // clock passes its deadline -- and this thread IS the clock, so
        // expire every possible deadline before blocking on the drain.
        clock.advance(1ms);
        advanced_us += 1000;
        t_us += 1000.0;
        router.drain_shard(1);
        EXPECT_TRUE(router.accepting());
        break;
      case 180:
        router.swap_model(b, d_b2);
        swapped = true;
        break;
      case 220:
        router.restart_shard(1);  // back from maintenance
        break;
      case 260: {
        burst_onto(2);
        const auto before = router.failovers();
        const std::size_t orphans = router.kill_shard(2);
        EXPECT_EQ(router.failovers(), before + orphans);
        failovers_expected += orphans;
        break;
      }
      case 300:
        router.restart_shard(2);
        break;
      default:
        break;
    }
  }

  EXPECT_GT(failovers_expected, 0u) << "chaos run exercised no failover";
  EXPECT_EQ(router.failovers(), failovers_expected);

  // Flush: advance past every coalescing deadline, then drain the
  // fleet.  After this, every admitted future must be ready.
  clock.advance(10s);
  router.shutdown();

  std::size_t wrong = 0, lost = 0, pre_swap_b = 0, post_swap_b = 0;
  for (auto& s : sent) {
    std::vector<float> y;
    try {
      y = s.future.get();
    } catch (const std::exception&) {
      ++lost;
      continue;
    }
    if (s.model == a) {
      if (y != want_a) ++wrong;
    } else if (s.post_swap) {
      ++post_swap_b;
      if (y != want_b2) ++wrong;  // new version only, no stale serves
    } else {
      ++pre_swap_b;
      if (y != want_b1 && y != want_b2) ++wrong;
    }
  }
  EXPECT_EQ(lost, 0u) << "responses were lost in the churn";
  EXPECT_EQ(wrong, 0u) << "responses were served with wrong payloads";
  EXPECT_GT(pre_swap_b, 0u);
  EXPECT_GT(post_swap_b, 0u) << "swap happened after the last B request";

  // The registry survived two kills and a maintenance cycle intact:
  // the router counts one swap, and every shard -- the two rebuilt ones
  // included -- holds the current version of each model.
  EXPECT_EQ(router.model_entry(b).version, 2u);
  EXPECT_EQ(router.model_entry(a).version, 1u);
  for (std::size_t shard = 0; shard < router.num_shards(); ++shard) {
    EXPECT_EQ(&router.shard(shard).model(b), d_b2.get()) << "shard " << shard;
    EXPECT_EQ(&router.shard(shard).model(a), d_a.get()) << "shard " << shard;
  }
  EXPECT_GE(router.stats(a).requests + router.stats(b).requests, sent.size());
}

}  // namespace
}  // namespace radix::serve
