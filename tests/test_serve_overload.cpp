// The overload acceptance scenario (ISSUE 7): 2x saturating open-loop
// IPPP load driven through a 2-shard router with one slow shard
// (fault-injected latency), entirely on a FakeClock.
//
// The scenario: a "chat" interactive model with a 200ms end-to-end
// deadline sharing the fleet with a "bulk" background model, offered
// ~2x the fleet's virtual service capacity.  The robustness contract
// under that load:
//
//   * ZERO interactive requests shed or expired -- the pressure policy
//     sheds strictly lower classes first, and background is always
//     backlogged here;
//   * background shed rate nonzero (the queues are bounded; the excess
//     has to go somewhere, visibly);
//   * interactive p99 stays within its SLO bound -- overload is paid by
//     background, not by interactive latency;
//   * every submitted request completes EXACTLY once (a result or
//     DeadlineExceededError -- none lost, none doubled);
//   * per-class shed counters merge exactly across shards.
//
// A second scenario pins the failover budget fix: a request's
// end-to-end deadline survives a shard kill -- the relay carries the
// REMAINING budget, not a fresh copy of the original.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

namespace radix::serve {
namespace {

using namespace std::chrono_literals;

struct TestModel {
  std::shared_ptr<infer::SparseDnn> dnn;
  index_t width = 0;
};

TestModel make_model(index_t neurons, std::size_t layers,
                     std::uint64_t seed) {
  Rng rng(seed);
  const auto net = gc::network(neurons, layers, &rng);
  TestModel m;
  m.dnn = std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
  m.width = neurons;
  return m;
}

struct Ledger {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> other{0};

  DoneFn done() {
    return [this](std::span<const float>, const RequestTiming&,
                  std::exception_ptr err) {
      if (!err) {
        ok.fetch_add(1);
        return;
      }
      try {
        std::rethrow_exception(err);
      } catch (const DeadlineExceededError&) {
        deadline.fetch_add(1);
      } catch (...) {
        other.fetch_add(1);
      }
    };
  }

  std::uint64_t completed() const {
    return ok.load() + deadline.load() + other.load();
  }
};

template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds budget = 10000ms) {
  const auto give_up = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::sleep_for(200us);
  }
  return true;
}

TEST(ServeOverload, TwoTimesSaturatingLoadShedsBackgroundOnly) {
  const auto chat_model = make_model(1024, 2, 1);
  const auto bulk_model = make_model(1024, 2, 2);
  const std::vector<float> x(static_cast<std::size_t>(chat_model.width),
                             1.0f);

  FakeClock clock;
  // Virtual service model: every request is one batch (max_batch_rows
  // 1) and every batch pays the shard's injected latency.  Shard 0
  // serves 1000 req/s of virtual time, the slow shard 1 only 200 req/s:
  // fleet capacity ~1200 req/s.
  FaultInjector fast({.added_latency = 1ms});
  FaultInjector slow({.added_latency = 5ms});
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = 1;
  opts.engine.max_delay = 0us;
  opts.engine.queue_capacity = 1024;
  opts.engine.clock = &clock;
  opts.engine.shed_capacity = 32;
  opts.seed = 7;
  opts.tune_shard = [&](std::size_t shard, EngineOptions& eo) {
    eo.fault = shard == 1 ? &slow : &fast;
  };
  ShardRouter router(opts);
  const auto chat = router.add_model(chat_model.dnn, "chat",
                                     {.priority = Priority::kInteractive});
  const auto bulk = router.add_model(bulk_model.dnn, "bulk",
                                     {.priority = Priority::kBackground});

  // Offered load ~2x capacity: interactive diurnal 200..400 req/s
  // (~300 avg), background a flat 2100 req/s.  Both schedules are
  // IPPP draws -- deterministic for these seeds.
  ArrivalProcess chat_arrivals({.rate = diurnal_rate(200.0, 400.0, 0.5),
                                .peak_rate = 400.0,
                                .seed = 11});
  ArrivalProcess bulk_arrivals({.rate = constant_rate(2100.0),
                                .peak_rate = 2100.0,
                                .seed = 12});

  Ledger chat_led, bulk_led;
  const auto t0 = clock.now();
  const double horizon = 0.5;  // seconds of virtual traffic

  const auto submit_one = [&](bool interactive) {
    SubmitOptions so;
    if (interactive) {
      so.deadline = 200ms;
      so.done = chat_led.done();
      chat_led.submitted.fetch_add(1);
    } else {
      so.done = bulk_led.done();
      bulk_led.submitted.fetch_add(1);
    }
    ASSERT_TRUE(router
                    .submit(InferenceRequest::borrowed(
                                interactive ? chat : bulk, x, 1),
                            std::move(so))
                    .admitted());
  };

  // Merge the two schedules in time order, advancing virtual time to
  // each arrival -- the open-loop drive: arrivals do not care how far
  // behind the fleet is.
  double next_chat = chat_arrivals.next();
  double next_bulk = bulk_arrivals.next();
  std::uint64_t driven = 0;
  while (next_chat < horizon || next_bulk < horizon) {
    const bool interactive = next_chat <= next_bulk;
    const double t = interactive ? next_chat : next_bulk;
    clock.advance_to(t0 + std::chrono::duration_cast<FakeClock::duration>(
                              std::chrono::duration<double>(t)));
    submit_one(interactive);
    if (interactive) {
      next_chat = chat_arrivals.next();
    } else {
      next_bulk = bulk_arrivals.next();
    }
    // Brief real pause so worker threads keep pace with virtual time
    // (their forward passes run in real time while the clock is
    // frozen); without it, claim timestamps lag arrivals artificially.
    if (++driven % 8 == 0) std::this_thread::sleep_for(100us);
  }

  const std::uint64_t total_submitted =
      chat_led.submitted.load() + bulk_led.submitted.load();
  ASSERT_GT(chat_led.submitted.load(), 100u);   // ~150 expected
  ASSERT_GT(bulk_led.submitted.load(), 800u);   // ~1050 expected

  // Flush: walk virtual time forward until every admitted request has
  // completed one way or the other.
  const auto give_up = std::chrono::steady_clock::now() + 60s;
  while (chat_led.completed() + bulk_led.completed() < total_submitted &&
         std::chrono::steady_clock::now() < give_up) {
    clock.advance(5ms);
    std::this_thread::sleep_for(300us);
  }
  ASSERT_EQ(chat_led.completed() + bulk_led.completed(), total_submitted);
  router.shutdown();

  // Exactly-once per class: nothing lost, nothing doubled.
  EXPECT_EQ(chat_led.completed(), chat_led.submitted.load());
  EXPECT_EQ(bulk_led.completed(), bulk_led.submitted.load());
  EXPECT_EQ(chat_led.other.load(), 0u);
  EXPECT_EQ(bulk_led.other.load(), 0u);

  const auto ia = router.class_stats(Priority::kInteractive);
  const auto bg = router.class_stats(Priority::kBackground);

  // The headline contract: interactive never shed, never expired --
  // every drop under 2x overload came out of background.
  EXPECT_EQ(ia.shed, 0u);
  EXPECT_EQ(ia.expired, 0u);
  EXPECT_EQ(chat_led.deadline.load(), 0u);
  EXPECT_GT(bg.shed, 0u);
  EXPECT_EQ(bulk_led.deadline.load(), bg.shed + bg.expired);

  // Interactive latency is bounded by the slow shard's service time
  // plus a short queue, not by the overload: p99 well under the 50ms
  // SLO bound (and nowhere near the 200ms deadline).
  EXPECT_GT(ia.e2e_p99, 0.0);
  EXPECT_LT(ia.e2e_p99, 0.050);

  // Per-class counters merge EXACTLY across shards.
  const auto ia0 = router.shard(0).class_stats(Priority::kInteractive);
  const auto ia1 = router.shard(1).class_stats(Priority::kInteractive);
  const auto bg0 = router.shard(0).class_stats(Priority::kBackground);
  const auto bg1 = router.shard(1).class_stats(Priority::kBackground);
  EXPECT_EQ(ia.requests, ia0.requests + ia1.requests);
  EXPECT_EQ(ia.shed, ia0.shed + ia1.shed);
  EXPECT_EQ(ia.expired, ia0.expired + ia1.expired);
  EXPECT_EQ(bg.requests, bg0.requests + bg1.requests);
  EXPECT_EQ(bg.shed, bg0.shed + bg1.shed);
  EXPECT_EQ(bg.expired, bg0.expired + bg1.expired);
  EXPECT_EQ(bg.errors, bg0.errors + bg1.errors);

  // Accounting closes: class requests == everything the fleet admitted.
  EXPECT_EQ(ia.requests, chat_led.submitted.load());
  EXPECT_EQ(bg.requests, bulk_led.submitted.load());
}

TEST(ServeOverload, FailoverCarriesRemainingDeadlineNotAFreshBudget) {
  const auto m = make_model(1024, 2, 3);
  const std::vector<float> x(static_cast<std::size_t>(m.width), 1.0f);

  FakeClock clock;
  // Both workers park 20ms (virtual) per batch: plenty of room to kill
  // a shard while the victim request is still queued.
  FaultInjector hold0({.added_latency = 20ms});
  FaultInjector hold1({.added_latency = 20ms});
  ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = 64;
  opts.engine.max_delay = 0us;
  opts.engine.clock = &clock;
  opts.tune_shard = [&](std::size_t shard, EngineOptions& eo) {
    eo.fault = shard == 1 ? &hold1 : &hold0;
  };
  ShardRouter router(opts);
  const auto id = router.add_model(m.dnn, "gc",
                                   {.priority = Priority::kInteractive});

  // Occupy BOTH workers (each parks in its 20ms injected wait).  The
  // power-of-two pick is depth-aware, so keep plugging until both
  // shards have a claimed batch in flight.
  Ledger plugs;
  int plugged = 0;
  while (clock.parked() < 2 && plugged < 8) {
    ASSERT_TRUE(router
                    .submit(InferenceRequest::borrowed(id, x, 1),
                            {.done = plugs.done()})
                    .admitted());
    ++plugged;
    ASSERT_TRUE(eventually([&] {
      return clock.parked() >= 2 ||
             router.shard(0).pending(id) + router.shard(1).pending(id) <
                 static_cast<std::size_t>(plugged);
    }));
  }
  ASSERT_TRUE(eventually([&] { return clock.parked() >= 2; }));

  // The victim: 10ms end-to-end deadline, queued behind a busy worker.
  const auto p0 = router.shard(0).pending(id);
  Ledger victim;
  SubmitOptions so;
  so.deadline = 10ms;
  so.done = victim.done();
  ASSERT_TRUE(router.submit(InferenceRequest::borrowed(id, x, 1),
                            std::move(so))
                  .admitted());
  const std::size_t victim_shard =
      router.shard(0).pending(id) > p0 ? 0 : 1;

  // Let the deadline pass (workers still parked), THEN kill the shard
  // holding the victim.  The abort orphans it; the relay resubmits it
  // on the healthy shard with the REMAINING budget -- which is already
  // negative.  The pre-fix behavior copied the full 10ms into the
  // resubmission, which would serve the request fresh.
  clock.advance(11ms);
  std::thread killer([&] { router.kill_shard(victim_shard); });
  // Hold virtual time until the abort has pulled the victim out of the
  // dead shard's queue and failed it over: advancing first lets that
  // shard's worker wake at 20ms and claim the victim before the kill.
  ASSERT_TRUE(eventually([&] { return router.failovers() >= 1; }));
  // kill_shard joins the dead shard's worker, which is parked in its
  // injected wait: walk virtual time forward until the join returns.
  ASSERT_TRUE(eventually([&] {
    clock.advance(5ms);
    return router.shard_health(victim_shard) == ShardHealth::kDown &&
           victim.completed() + plugs.completed() > 0;
  }));

  // Drain everything (relocated plugs included).
  const std::uint64_t expected =
      static_cast<std::uint64_t>(plugged) + 1;
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while (victim.completed() + plugs.completed() < expected &&
         std::chrono::steady_clock::now() < give_up) {
    clock.advance(5ms);
    std::this_thread::sleep_for(300us);
  }
  killer.join();
  ASSERT_EQ(victim.completed() + plugs.completed(), expected);
  router.shutdown();

  // The victim completed exactly once, with DeadlineExceededError: its
  // budget was spent before the kill, and failover did not refill it.
  EXPECT_EQ(victim.completed(), 1u);
  EXPECT_EQ(victim.deadline.load(), 1u);
  EXPECT_EQ(victim.ok.load(), 0u);
  // It failed over (not delivered as AbortedError) -- the healthy shard
  // recorded the expiry.
  EXPECT_GE(router.failovers(), 1u);
  EXPECT_EQ(victim.other.load(), 0u);
  const auto s = router.stats(id);
  EXPECT_EQ(s.expired, 1u);
}

}  // namespace
}  // namespace radix::serve
