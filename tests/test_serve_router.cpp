// ShardRouter tests: routing one model across N independent engines
// must change WHERE work runs, never what it computes -- outputs stay
// bit-identical to a direct fused forward of the same rows -- while the
// Backend surface (merged stats, summed pending, drain-on-shutdown,
// name lookup) behaves like one big engine.  Sized to stay meaningful
// under ThreadSanitizer (the suite carries the `serve` CTest label).
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/client.hpp"
#include "serve/metrics.hpp"
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

TEST(ShardRouter, BitExactAcrossShardsAndAggregatedStats) {
  const auto dnn = make_dnn(1024, 4, 60);
  ShardRouter router({.shards = 3,
                      .engine = {.workers = 1,
                                 .max_batch_rows = 8,
                                 .max_delay = 200us,
                                 .queue_capacity = 64}});
  EXPECT_EQ(router.num_shards(), 3u);
  const auto id = router.add_model(dnn, "gc");

  constexpr index_t kRequests = 60;
  Rng irng(61);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> want;
  std::uint64_t total_rows = 0;
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    total_rows += rows;
    inputs.push_back(gc::synthetic_input(rows, 1024, 0.4, irng));
    want.push_back(direct_forward(*dnn, inputs.back(), rows));
  }

  std::vector<std::future<std::vector<float>>> futures;
  for (index_t i = 0; i < kRequests; ++i) {
    futures.push_back(
        router.submit(InferenceRequest::borrowed(id, inputs[i], 1 + i % 3))
            .take_future());
  }
  for (index_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(), want[i])
        << "request " << i << " must be bit-exact regardless of its shard";
  }

  // The merged view must account for every request exactly once, and
  // its batch histogram must cover every batch any shard ran.
  const ServeStats merged = router.stats(id);
  EXPECT_EQ(merged.requests, kRequests);
  EXPECT_EQ(merged.rows, total_rows);
  EXPECT_EQ(merged.errors, 0u);
  EXPECT_GT(merged.edges_per_busy_second, 0.0);
  std::uint64_t shard_requests = 0, shard_batches = 0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    shard_requests += router.shard(s).stats(id).requests;
    shard_batches += router.shard(s).stats(id).batches;
  }
  EXPECT_EQ(shard_requests, kRequests);
  EXPECT_EQ(merged.batches, shard_batches);
  std::uint64_t hist_total = 0;
  for (const auto& [bound, count] : merged.batch_rows_histogram) {
    hist_total += count;
  }
  EXPECT_EQ(hist_total, merged.batches);
  EXPECT_EQ(router.pending(id), 0u);
}

TEST(ShardRouter, SingleShardDegeneratesToOneEngine) {
  const auto dnn = make_dnn(1024, 2, 62);
  ShardRouter router({.shards = 1, .engine = {.workers = 1}});
  const auto id = router.add_model(dnn, "solo");
  Rng irng(63);
  const auto x = gc::synthetic_input(2, 1024, 0.4, irng);
  EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 2)).get(),
            direct_forward(*dnn, x, 2));
  EXPECT_EQ(router.stats(id).requests, 1u);
  EXPECT_EQ(router.shard(0).stats(id).requests, 1u);
}

TEST(ShardRouter, FindModelNamesAndDuplicateRejection) {
  const auto d0 = make_dnn(1024, 2, 64);
  const auto d1 = make_dnn(1024, 2, 65);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto a = router.add_model(d0, "alpha");
  const auto anon = router.add_model(d1);  // generated name

  EXPECT_EQ(router.num_models(), 2u);
  EXPECT_EQ(router.find_model("alpha").value(), a);
  EXPECT_EQ(router.find_model("model-1").value(), anon);
  EXPECT_EQ(router.model_entry(anon).name, "model-1");
  EXPECT_FALSE(router.find_model("beta").has_value());

  // Two live models sharing one name would make stats ambiguous:
  // rejected, and the failed registration must not consume an id.
  EXPECT_THROW((void)router.add_model(d1, "alpha"), Error);
  EXPECT_EQ(router.num_models(), 2u);
  EXPECT_EQ(router.add_model(d1, "alpha-2"), 2u);

  // Anonymous registration must dodge an explicitly taken "model-<n>"
  // name instead of failing.
  EXPECT_EQ(router.add_model(d1, "model-4"), 3u);  // squats the next name
  const auto anon2 = router.add_model(d1);
  EXPECT_EQ(anon2, 4u);
  EXPECT_EQ(router.model_entry(anon2).name, "model-5");
  EXPECT_EQ(router.find_model("model-5").value(), anon2);

  // A removed model's name is free again; its id is not.
  router.remove_model(a);
  EXPECT_FALSE(router.find_model("alpha").has_value());
  const auto again = router.add_model(d1, "alpha");
  EXPECT_EQ(again, 5u) << "ids are never reused, even after remove";
  EXPECT_EQ(router.find_model("alpha").value(), again);
  EXPECT_TRUE(router.model_entry(a).retired);
  Rng irng(84);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_EQ(router.submit(InferenceRequest::borrowed(again, x, 1)).get(),
            direct_forward(*d1, x, 1));
  EXPECT_FALSE(router.submit(InferenceRequest::borrowed(a, x, 1)).admitted());
}

TEST(ShardRouter, ClientWorksOverRouterBackend) {
  const auto dnn = make_dnn(1024, 2, 66);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto id = router.add_model(dnn, "svc");
  Client client(router, router.find_model("svc").value());
  EXPECT_TRUE(client.bound());
  EXPECT_EQ(client.model(), id);
  EXPECT_EQ(&client.backend(), static_cast<Backend*>(&router));
  Rng irng(67);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x, 1);
  // Borrowed (span) and owned (vector) wrappers funnel into the same
  // backend entry point.
  for (int i = 0; i < 6; ++i) EXPECT_EQ(client.submit(x, 1).get(), want);
  EXPECT_EQ(client.submit(std::vector<float>(x), 1).get(), want);
  EXPECT_EQ(client.stats().requests, 7u);
  EXPECT_EQ(client.pending(), 0u);
}

TEST(ShardRouter, ConcurrentClientsSpreadAndStayBitExact) {
  const auto dnn = make_dnn(1024, 4, 68);
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1,
                                 .max_batch_rows = 16,
                                 .max_delay = 200us,
                                 .queue_capacity = 64}});
  const auto id = router.add_model(dnn, "hot");

  constexpr index_t kPayloads = 4;
  struct Payload {
    std::vector<float> x;
    index_t rows;
    std::vector<float> want;
  };
  std::vector<Payload> payloads;
  Rng irng(69);
  for (index_t p = 0; p < kPayloads; ++p) {
    Payload pl;
    pl.rows = 1 + p % 2;
    pl.x = gc::synthetic_input(pl.rows, 1024, 0.4, irng);
    pl.want = direct_forward(*dnn, pl.x, pl.rows);
    payloads.push_back(std::move(pl));
  }

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> mismatches{0};
  {
    ThreadGroup clients;
    for (int c = 0; c < kClients; ++c) {
      clients.spawn([&, c] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Payload& pl =
              payloads[static_cast<std::size_t>((c + i) % kPayloads)];
          auto res =
              router.submit(InferenceRequest::borrowed(id, pl.x, pl.rows));
          if (!res.admitted() || res.get() != pl.want) ++mismatches;
        }
      });
    }
  }  // join
  EXPECT_EQ(mismatches.load(), 0);
  const ServeStats merged = router.stats(id);
  EXPECT_EQ(merged.requests,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(merged.errors, 0u);
  // Two-choice routing under saturating load must actually use more
  // than one shard (a stuck router would funnel everything to one).
  int shards_used = 0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    if (router.shard(s).stats(id).requests > 0) ++shards_used;
  }
  EXPECT_GT(shards_used, 1) << "power-of-two-choices never spread the load";
}

TEST(ShardRouter, ShutdownDrainsEveryShardAndRejectsAfter) {
  const auto dnn = make_dnn(1024, 2, 70);
  std::vector<std::future<std::vector<float>>> futures;
  std::vector<float> x;
  std::vector<float> want;
  {
    ShardRouter router({.shards = 3,
                        .engine = {.workers = 1, .max_delay = 10ms}});
    const auto id = router.add_model(dnn, "drain");
    Rng irng(71);
    x = gc::synthetic_input(1, 1024, 0.4, irng);
    want = direct_forward(*dnn, x, 1);
    for (int i = 0; i < 30; ++i) {
      futures.push_back(
          router.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
    }
    router.shutdown();  // every shard drains before this returns
    EXPECT_FALSE(router.accepting());
    EXPECT_FALSE(router.submit(InferenceRequest::borrowed(id, x, 1)).admitted());
    EXPECT_EQ(router.stats(id).requests, 30u);
  }  // destructor: second shutdown must be a no-op
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), want);  // no broken promises across shards
  }
}

TEST(ShardRouter, FailFastAdmissionIsPerChosenShard) {
  const auto dnn = make_dnn(1024, 2, 72);
  // One shard, one worker, tiny queue: deterministic full-queue probe
  // through the router's admission path.
  ShardRouter router({.shards = 1,
                      .engine = {.workers = 1,
                                 .max_delay = 0us,
                                 .queue_capacity = 1}});
  const auto id = router.add_model(dnn, "tight");
  Rng irng(73);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  std::promise<void> parked;
  std::promise<void> release;
  auto release_future = release.get_future();
  (void)router.submit(InferenceRequest::borrowed(id, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        parked.set_value();
                        release_future.wait();
                      }});
  parked.get_future().wait();
  auto f1 = router.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  EXPECT_EQ(router.pending(id), 1u);
  EXPECT_FALSE(router
                   .submit(InferenceRequest::borrowed(id, x, 1),
                           {.admission = Admission::kFailFast})
                   .admitted())
      << "full shard queue must reject fail-fast admission";
  release.set_value();
  EXPECT_EQ(f1.get(), direct_forward(*dnn, x, 1));
}

TEST(ShardRouter, BoundedDrawIsInRangeAndUnbiased) {
  // Edges: the widening multiply maps the extremes of the input range
  // onto the extremes of [0, n).
  EXPECT_EQ(detail::bounded_draw(0, 6), 0u);
  EXPECT_EQ(detail::bounded_draw(~std::uint64_t{0}, 6), 5u);
  EXPECT_EQ(detail::bounded_draw(mix64(1), 1), 0u);

  // Chi-square goodness of fit for n = 6 (not a power of two, so the
  // old `r % n` would have been biased).  Inputs are a fixed SplitMix64
  // stream (mix64 of a Weyl sequence), so the statistic is a constant --
  // this cannot flake.  The
  // bound is the 99.9th percentile of chi^2 with 5 degrees of freedom.
  constexpr std::uint64_t kN = 6;
  constexpr int kDraws = 120000;
  std::array<std::uint64_t, kN> counts{};
  for (int i = 1; i <= kDraws; ++i) {
    const std::uint64_t d =
        detail::bounded_draw(mix64(0x9e3779b97f4a7c15ull * i), kN);
    ASSERT_LT(d, kN);
    ++counts[d];
  }
  const double expected = static_cast<double>(kDraws) / kN;
  double chi2 = 0.0;
  for (const std::uint64_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 20.52) << "bounded_draw distribution is skewed";
}

TEST(ShardRouter, AcceptingReflectsTheWholeFleet) {
  const auto dnn = make_dnn(1024, 2, 74);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto id = router.add_model(dnn, "fleet");
  Rng irng(75);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x, 1);

  EXPECT_TRUE(router.accepting());
  // Losing shard 0 must NOT report the fleet closed (the old
  // front()-only view did exactly that), and traffic keeps flowing.
  router.kill_shard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kDown);
  EXPECT_TRUE(router.accepting());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
  }
  router.kill_shard(1);
  EXPECT_FALSE(router.accepting()) << "no shard left in rotation";
  EXPECT_FALSE(router.submit(InferenceRequest::borrowed(id, x, 1)).admitted());
  router.restart_shard(0);
  EXPECT_TRUE(router.accepting());
  EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
}

TEST(ShardRouter, KillShardFailsOverQueuedRequestsExactlyOnce) {
  const auto dnn = make_dnn(1024, 2, 76);
  // One worker per shard, one row per batch, no coalescing delay: a
  // parked worker deterministically strands everything queued behind it.
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1,
                                 .max_batch_rows = 1,
                                 .max_delay = 0us,
                                 .queue_capacity = 64}});
  const auto id = router.add_model(dnn, "ha");
  Rng irng(77);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x, 1);

  // Park BOTH shards' workers inside completion callbacks, so queued
  // requests stay queued until we say otherwise.  A parker that lands
  // behind an already-parked worker just queues; keep submitting until
  // two of them actually hold a worker each.
  std::atomic<int> parked{0};
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  int parkers = 0;
  while (parked.load() < 2 && parkers < 64) {
    (void)router.submit(InferenceRequest::borrowed(id, x, 1),
                        {.done = [&](std::span<const float>,
                                     const RequestTiming&,
                                     std::exception_ptr) {
                          ++parked;
                          release_future.wait();
                        }});
    ++parkers;
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(parked.load(), 2) << "could not park both shard workers";

  // Queue real traffic; it spreads across both shards (two-choice on
  // pending depth guarantees the less-loaded shard is picked on ties'
  // follow-ups), so shard 0 ends up with queued-but-unclaimed work.
  std::vector<std::future<std::vector<float>>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        router.submit(InferenceRequest::borrowed(id, x, 1)).take_future());
  }
  const std::size_t orphans = router.shard(0).pending(id);
  ASSERT_GT(orphans, 0u) << "two-choice routing left shard 0 empty";

  // kill_shard completes the orphans' failover BEFORE joining the dead
  // shard's (still parked) worker, so it must be driven from a side
  // thread; the assertions below run while it is still joining.
  std::thread killer([&] { router.kill_shard(0); });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (router.failovers() < orphans &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(router.failovers(), orphans)
      << "every orphaned request must be resubmitted exactly once";
  EXPECT_EQ(router.shard_health(0), ShardHealth::kDown);
  EXPECT_TRUE(router.accepting());

  release.set_value();  // claimed batches finish; shard 1 drains it all
  killer.join();
  for (auto& f : futures) {
    EXPECT_EQ(f.get(), want) << "a failed-over request was lost or wrong";
  }
  // The dead shard's ledger shows its orphans as errors; the router's
  // merged view therefore must too -- failover changes where a request
  // is SERVED, not what shard 0 did with it.
  EXPECT_GE(router.stats(id).errors, orphans);
}

TEST(ShardRouter, AddModelRollbackKeepsShardIdSpacesInLockstep) {
  const auto d0 = make_dnn(1024, 2, 78);
  const auto d1 = make_dnn(1024, 2, 79);
  ShardRouterOptions opts{.shards = 2, .engine = {.workers = 1}};
  opts.registration_hook = [](std::size_t shard, ModelId id) {
    // Shard 0 registers id 1, then shard 1 explodes: the partial-
    // registration case the rollback exists for.
    if (id == 1 && shard == 1) throw std::runtime_error("injected");
  };
  ShardRouter router(opts);
  const auto a = router.add_model(d0, "a");
  EXPECT_THROW((void)router.add_model(d1, "b"), std::runtime_error);

  // The failed registration must leave no trace but a burned id: the
  // router still serves "a", rejects the burned id as a value, and the
  // NEXT registration gets the same id on every shard.
  EXPECT_EQ(router.num_models(), 1u);
  EXPECT_FALSE(router.find_model("b").has_value());
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_TRUE(router.shard(s).model_retired(1))
        << "shard " << s << " did not burn the rolled-back id";
  }
  Rng irng(100);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_FALSE(router.submit(InferenceRequest::borrowed(1, x, 1)).admitted());

  const auto c = router.add_model(d1, "c");
  EXPECT_EQ(c, 2u) << "ids desynced across the rollback";
  EXPECT_EQ(router.find_model("c").value(), c);
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    EXPECT_EQ(&router.shard(s).model(c), d1.get())
        << "shard " << s << " serves another model under id " << c;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(c, x, 1)).get(),
              direct_forward(*d1, x, 1));
  }
  EXPECT_EQ(router.submit(InferenceRequest::borrowed(a, x, 1)).get(),
            direct_forward(*d0, x, 1));
  // The name of the failed registration was never committed: reusable.
  EXPECT_EQ(router.add_model(make_dnn(1024, 2, 101), "b"), 3u);
}

TEST(ShardRouter, DrainShardRoutesAroundUntilRestart) {
  const auto dnn = make_dnn(1024, 2, 102);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto id = router.add_model(dnn, "maint");
  Rng irng(103);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*dnn, x, 1);

  router.drain_shard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kDraining);
  EXPECT_TRUE(router.accepting());
  const auto before = router.shard(0).stats(id).requests;
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
  }
  EXPECT_EQ(router.shard(0).stats(id).requests, before)
      << "a draining shard must receive no new routed traffic";

  router.restart_shard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
  }
  EXPECT_GT(router.shard(0).stats(id).requests, before)
      << "a restarted shard must re-enter rotation";
  EXPECT_EQ(router.stats(id).requests, 60u);
}

TEST(ShardRouter, RestartReplaysRegistryAndCarriesStats) {
  const auto d_a = make_dnn(1024, 2, 104);
  const auto d_b1 = make_dnn(1024, 2, 105);
  const auto d_b2 = make_dnn(1024, 2, 106);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto a = router.add_model(d_a, "a");
  const auto b = router.add_model(d_b1, "b");
  router.remove_model(a);
  router.swap_model(b, d_b2);
  Rng irng(107);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*d_b2, x, 1);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(b, x, 1)).get(), want);
  }
  const auto before = router.stats(b).requests;
  EXPECT_EQ(before, 12u);

  router.kill_shard(0);
  router.restart_shard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);

  // The rebuilt shard must be indistinguishable from its siblings:
  // same ids, same tombstones, the current version's weights.  Names
  // and versions live in the router's registry alone.
  const Engine& rebuilt = router.shard(0);
  EXPECT_TRUE(rebuilt.model_retired(a));
  EXPECT_FALSE(rebuilt.model_retired(b));
  EXPECT_EQ(&rebuilt.model(b), d_b2.get());
  EXPECT_EQ(router.find_model("b").value(), b);
  EXPECT_EQ(router.model_entry(b).version, 2u);

  // Restarts must not lose history: the merged view still carries every
  // pre-kill request, and new traffic lands on top -- served by v2.
  EXPECT_EQ(router.stats(b).requests, before);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(b, x, 1)).get(), want);
  }
  EXPECT_EQ(router.stats(b).requests, before + 10);
  EXPECT_FALSE(router.submit(InferenceRequest::borrowed(a, x, 1)).admitted())
      << "a removed model must stay removed across restarts";
}

TEST(ShardRouter, ModelAddedWhileShardDownIsServedAndRestartRejoins) {
  // A killed engine never learns of models added after its death, so
  // stats(b), pending(b) and restart_shard must not ask it about b --
  // and the killed shard's earlier history must still be counted.
  const auto d_a = make_dnn(1024, 2, 108);
  const auto d_b = make_dnn(1024, 2, 109);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto a = router.add_model(d_a, "a");
  Rng irng(110);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(a, x, 1)).get(),
              direct_forward(*d_a, x, 1));
  }

  router.kill_shard(0);
  const auto b = router.add_model(d_b, "b");
  const auto want = direct_forward(*d_b, x, 1);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(b, x, 1)).get(), want);
  }
  EXPECT_EQ(router.stats(b).requests, 6u);
  EXPECT_EQ(router.pending(b), 0u);
  EXPECT_EQ(router.stats(a).requests, 4u) << "a killed shard's history is lost";

  router.restart_shard(0);
  EXPECT_EQ(router.shard_health(0), ShardHealth::kUp);
  EXPECT_EQ(&router.shard(0).model(b), d_b.get());
  EXPECT_EQ(router.stats(b).requests, 6u) << "stats(b) jumped on restart";
  EXPECT_EQ(router.stats(a).requests, 4u);

  // b is served on both shards: hold shard 1 out of rotation so the
  // rebuilt shard 0 takes the next requests.
  router.drain_shard(1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(b, x, 1)).get(), want);
  }
  router.restart_shard(1);
  EXPECT_EQ(router.shard(0).stats(b).requests, 5u);
  EXPECT_EQ(router.shard(1).stats(b).requests, 6u);
  EXPECT_EQ(router.stats(b).requests, 11u);
  EXPECT_EQ(router.stats(b).errors, 0u);
}

TEST(ShardRouter, RejectedSwapLeavesVersionAndWeights) {
  const auto v1 = make_dnn(1024, 2, 111);
  const auto v2 = make_dnn(1024, 2, 112);
  const auto other_width = make_dnn(4096, 3, 113);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto id = router.add_model(v1, "svc");
  const auto gone = router.add_model(v2, "gone");
  router.remove_model(gone);
  Rng irng(114);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto want = direct_forward(*v1, x, 1);
  ASSERT_NE(want, direct_forward(*v2, x, 1));

  EXPECT_THROW(router.swap_model(id, other_width), DimensionError)
      << "a version with different widths is a different model";
  EXPECT_THROW(router.swap_model(gone, v1), Error);
  EXPECT_THROW(router.swap_model(gone + 1, v2), Error);
  EXPECT_THROW(router.swap_model(id, nullptr), Error);
  EXPECT_EQ(router.model_entry(id).version, 1u)
      << "failed swaps must not publish";
  EXPECT_EQ(router.model_entry(id).dnn.get(), v1.get());
  EXPECT_EQ(router.model_entry(gone).version, 1u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
  }

  // With every shard down no engine sees the swap: the registry itself
  // must refuse it, or the rebuilt shards would serve another model.
  router.kill_shard(0);
  router.kill_shard(1);
  EXPECT_THROW(router.swap_model(id, other_width), DimensionError);
  EXPECT_EQ(router.model_entry(id).version, 1u);
  router.restart_shard(0);
  EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get(), want);
}

TEST(ShardRouter, RestartAfterManySwapsServesTheCurrentVersion) {
  // A rebuilt shard registers each live id's current version once; the
  // swap history is a number in the registry, not work to replay.
  const auto v_a = make_dnn(1024, 2, 115);
  const auto v_b = make_dnn(1024, 2, 116);
  ShardRouter router({.shards = 2, .engine = {.workers = 1}});
  const auto id = router.add_model(v_a, "churn");
  constexpr std::uint32_t kSwaps = 1000;
  for (std::uint32_t i = 1; i <= kSwaps; ++i) {
    router.swap_model(id, i % 2 == 0 ? v_b : v_a);  // ends on v_b
  }
  router.kill_shard(0);
  router.restart_shard(0);
  EXPECT_EQ(router.model_entry(id).version, kSwaps + 1);

  // Hold shard 1 out of rotation so the rebuilt shard serves.
  router.drain_shard(1);
  Rng irng(117);
  const auto x = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want = direct_forward(*v_b, x, 2);
  ASSERT_NE(want, direct_forward(*v_a, x, 2));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 2)).get(), want);
  }
  EXPECT_EQ(router.shard(0).stats(id).requests, 5u);
  EXPECT_EQ(&router.shard(0).model(id), v_b.get());
  router.restart_shard(1);
}

// ---------------------------------------------------------------------------
// Every read is one snapshot load: no read waits on an admin call.

// Starts `read` on its own thread and reports whether it returned
// within 1 s.  The thread's future is kept in `helpers`, and clearing
// that joins it -- so a read stuck behind an admin call holds the test
// only until the test releases that call.
using Helpers = std::vector<std::future<void>>;
template <typename Fn>
bool returns_within_1s(Helpers& helpers, Fn read) {
  helpers.push_back(std::async(std::launch::async, std::move(read)));
  return helpers.back().wait_for(1s) == std::future_status::ready;
}

TEST(ShardRouter, ReadsNeverWaitOnADrain) {
  const auto dnn = make_dnn(1024, 2, 130);
  FakeClock clock;
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1,
                                 .max_batch_rows = 8,
                                 .max_delay = 200us,
                                 .clock = &clock}});
  const auto id = router.add_model(dnn, "m");
  Rng irng(131);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  // Park a claim on shard 0: with shard 1 out of rotation the request
  // lands there, and its worker claims it and waits out the coalescing
  // window on the frozen clock.
  router.drain_shard(1);
  auto parked =
      router.submit(InferenceRequest::borrowed(id, x, 1)).take_future();
  router.restart_shard(1);
  while (clock.parked() < 1) std::this_thread::yield();

  // The drain holds the admin lock until the parked claim completes,
  // which only a clock advance allows.
  std::promise<void> drain_returned;
  auto drained = drain_returned.get_future();
  std::thread drainer([&] {
    router.drain_shard(0);
    drain_returned.set_value();
  });
  while (router.shard_health(0) != ShardHealth::kDraining) {
    std::this_thread::yield();
  }
  EXPECT_EQ(drained.wait_for(20ms), std::future_status::timeout)
      << "the drain must still be waiting on the parked claim";

  Helpers helpers;
  EXPECT_TRUE(returns_within_1s(
      helpers, [&] { EXPECT_EQ(router.find_model("m"), id); }))
      << "find_model";
  EXPECT_TRUE(returns_within_1s(
      helpers, [&] { EXPECT_EQ(router.models().size(), 1u); }))
      << "models";
  EXPECT_TRUE(returns_within_1s(
      helpers, [&] { EXPECT_EQ(router.model_entry(id).name, "m"); }))
      << "model_entry";
  EXPECT_TRUE(returns_within_1s(
      helpers, [&] { EXPECT_EQ(router.num_models(), 1u); }))
      << "num_models";
  EXPECT_TRUE(returns_within_1s(
      helpers, [&] { (void)router.class_stats(Priority::kBatch); }))
      << "class_stats";
  EXPECT_TRUE(returns_within_1s(helpers, [&] { (void)router.stats(id); }))
      << "stats";
  EXPECT_TRUE(returns_within_1s(helpers, [&] { (void)router.pending(id); }))
      << "pending";
  EXPECT_TRUE(returns_within_1s(helpers, [&] {
    MetricsRegistry reg;
    router.export_metrics(reg);
  })) << "export_metrics";

  // Release: the parked claim's window passes, the drain completes.
  clock.advance(1ms);
  drainer.join();
  helpers.clear();
  EXPECT_EQ(parked.get(), direct_forward(*dnn, x, 1));
  EXPECT_EQ(router.stats(id).requests, 1u);
  router.restart_shard(0);
  router.shutdown();
}

TEST(ShardRouter, ReadsDuringAKillSeeTheDyingShardsHistory) {
  const auto dnn = make_dnn(1024, 2, 132);
  // One shard: an orphan has no untried shard, so its AbortedError
  // completion runs inside kill_shard, on the killing thread.
  ShardRouter router({.shards = 1,
                      .engine = {.workers = 1, .max_delay = 0us}});
  const auto a = router.add_model(dnn, "a");
  const auto b = router.add_model(dnn, "b");
  Rng irng(133);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(b, x, 1)).get(),
              direct_forward(*dnn, x, 1));
  }

  // Park the only worker inside a completion of model a.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  (void)router.submit(InferenceRequest::borrowed(a, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        parked.set_value();
                        released.wait();
                      }});
  parked.get_future().wait();

  // Three requests of b queue behind it.  Each callback reads stats(b)
  // directly, and class_stats on a helper with a bound.
  constexpr int kQueued = 3;
  struct Seen {
    bool aborted = false;
    std::uint64_t stats_requests = 0;
    bool class_returned = false;
    std::uint64_t class_requests = 0;
  };
  std::vector<Seen> seen(kQueued);
  std::atomic<int> delivered{0};
  Helpers helpers;
  for (int k = 0; k < kQueued; ++k) {
    (void)router.submit(
        InferenceRequest::borrowed(b, x, 1),
        {.done = [&, k](std::span<const float>, const RequestTiming&,
                        std::exception_ptr err) {
          Seen& s = seen[static_cast<std::size_t>(k)];
          try {
            if (err) std::rethrow_exception(err);
          } catch (const AbortedError&) {
            s.aborted = true;
          } catch (...) {
          }
          s.stats_requests = router.stats(b).requests;
          s.class_returned = returns_within_1s(helpers, [&router, &s] {
            s.class_requests = router.class_stats(Priority::kBatch).requests;
          });
          ++delivered;
        }});
  }
  EXPECT_EQ(router.pending(b), static_cast<std::size_t>(kQueued));

  // kill_shard joins the parked worker, so it runs on a side thread;
  // the worker is released once every orphan has been delivered.
  std::size_t orphaned = 0;
  std::thread killer([&] { orphaned = router.kill_shard(0); });
  while (delivered.load() < kQueued) std::this_thread::yield();
  release.set_value();
  killer.join();
  helpers.clear();

  EXPECT_EQ(orphaned, static_cast<std::size_t>(kQueued));
  for (int k = 0; k < kQueued; ++k) {
    SCOPED_TRACE(k);
    const Seen& s = seen[static_cast<std::size_t>(k)];
    EXPECT_TRUE(s.aborted);
    EXPECT_GE(s.stats_requests, 5u)
        << "a read inside the kill lost the dying shard's history";
    EXPECT_TRUE(s.class_returned) << "class_stats waited on the kill";
    if (s.class_returned) {
      EXPECT_GE(s.class_requests, 5u);
    }
  }
  EXPECT_EQ(router.stats(b).requests, 8u);
  EXPECT_EQ(router.stats(b).errors, static_cast<std::uint64_t>(kQueued));
}

// ---------------------------------------------------------------------------
// Class views are derived from the per-model ledgers.

// Every integer counter and every bucket count of the three histograms.
void expect_same_counts(const ServeStats& got, const ServeStats& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_EQ(got.errors, want.errors);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.expired, want.expired);
  EXPECT_EQ(got.batch_rows_hist.raw_counts(), want.batch_rows_hist.raw_counts());
  EXPECT_EQ(got.queue_wait_hist.raw_counts(), want.queue_wait_hist.raw_counts());
  EXPECT_EQ(got.e2e_hist.raw_counts(), want.e2e_hist.raw_counts());
}

// class_stats(p) must equal the merge of stats(m) over the class-p ids,
// for every class.  `classes[m]` is model m's class.
template <typename B>
void expect_class_views_derived(const B& backend,
                                const std::vector<Priority>& classes) {
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    const auto p = static_cast<Priority>(c);
    SCOPED_TRACE(to_string(p));
    ServeStats want;
    for (ModelId m = 0; m < classes.size(); ++m) {
      if (classes[m] == p) want.merge(backend.stats(m));
    }
    expect_same_counts(backend.class_stats(p), want);
  }
}

// A mix of served and pre-expired requests (a negative deadline is
// admitted, then expires at its first claim) on every listed model.
template <typename B>
void run_traffic(B& backend, const std::vector<ModelId>& ids,
                 const std::vector<float>& x, int per_model) {
  std::vector<std::future<std::vector<float>>> served, expired;
  for (const ModelId m : ids) {
    for (int i = 0; i < per_model; ++i) {
      served.push_back(
          backend.submit(InferenceRequest::borrowed(m, x, 1)).take_future());
    }
    expired.push_back(backend
                          .submit(InferenceRequest::borrowed(m, x, 1),
                                  {.deadline = -1us})
                          .take_future());
  }
  for (auto& f : served) EXPECT_NO_THROW(f.get());
  for (auto& f : expired) EXPECT_THROW(f.get(), DeadlineExceededError);
}

TEST(ClassStats, EngineClassViewIsTheMergeOfItsModels) {
  const auto d = make_dnn(1024, 2, 120);
  Engine engine({.workers = 1, .max_batch_rows = 4, .max_delay = 0us});
  const std::vector<Priority> classes = {
      Priority::kInteractive, Priority::kBatch, Priority::kBackground,
      Priority::kBatch};
  for (const Priority p : classes) engine.add_model(d, {.priority = p});
  Rng irng(121);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  run_traffic(engine, {0, 1, 2, 3}, x, 6);
  expect_class_views_derived(engine, classes);

  // A removed model's history stays in its class; a swapped one keeps
  // one ledger across versions.
  const auto batch_before = engine.class_stats(Priority::kBatch);
  engine.remove_model(3);
  engine.swap_model(1, make_dnn(1024, 2, 122));
  expect_same_counts(engine.class_stats(Priority::kBatch), batch_before);
  run_traffic(engine, {0, 1, 2}, x, 3);
  expect_class_views_derived(engine, classes);
  EXPECT_EQ(engine.class_stats(Priority::kBatch).requests,
            engine.stats(1).requests + engine.stats(3).requests);
  EXPECT_GT(engine.stats(3).requests, 0u);
  engine.shutdown();
}

TEST(ClassStats, RouterClassViewIsTheMergeOfItsModelsAcrossKillAndRestart) {
  const auto d = make_dnn(1024, 2, 123);
  ShardRouter router(
      {.shards = 2,
       .engine = {.workers = 1, .max_batch_rows = 4, .max_delay = 0us}});
  const std::vector<Priority> classes = {
      Priority::kInteractive, Priority::kBatch, Priority::kBackground,
      Priority::kBatch};
  for (const Priority p : classes) router.add_model(d, "", {.priority = p});
  Rng irng(124);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  // Hold shard 1 out of rotation so shard 0 -- the one killed below --
  // certainly has history in every class.
  router.drain_shard(1);
  run_traffic(router, {0, 1, 2, 3}, x, 4);
  router.restart_shard(1);
  run_traffic(router, {0, 1, 2, 3}, x, 4);
  expect_class_views_derived(router, classes);
  for (ModelId m = 0; m < classes.size(); ++m) {
    ASSERT_GT(router.shard(0).stats(m).requests, 0u);
  }

  router.remove_model(3);
  router.swap_model(1, make_dnn(1024, 2, 125));
  std::vector<ServeStats> before;
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    before.push_back(router.class_stats(static_cast<Priority>(c)));
  }
  router.kill_shard(0);
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    SCOPED_TRACE(to_string(static_cast<Priority>(c)));
    expect_same_counts(router.class_stats(static_cast<Priority>(c)),
                       before[c]);  // the killed shard's history stays
  }
  expect_class_views_derived(router, classes);

  router.restart_shard(0);
  run_traffic(router, {0, 1, 2}, x, 4);
  expect_class_views_derived(router, classes);
  EXPECT_GT(router.class_stats(Priority::kBatch).requests,
            before[static_cast<std::size_t>(Priority::kBatch)].requests);
  router.shutdown();
}

}  // namespace
}  // namespace radix::serve
