// Request-tracing tests: the lock-free TraceRing must survive wrap and
// concurrent recording without corrupting events; the Tracer must
// reconstruct per-request timelines deterministically under a
// FakeClock; and -- the acceptance scenario -- a request that fails
// over mid-flight through a two-shard ShardRouter must yield ONE
// timeline whose events span both shards under the same RequestId.
// Sized to stay meaningful under ThreadSanitizer (`serve` CTest label).
#include "serve/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
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

TraceEvent event(RequestId id, std::int64_t t, TraceEventKind kind,
                 std::uint16_t shard = 0, std::uint32_t rows = 1) {
  TraceEvent e;
  e.id = id;
  e.t_ns = t;
  e.kind = kind;
  e.priority = Priority::kBatch;
  e.shard = shard;
  e.model = 0;
  e.rows = rows;
  return e;
}

TEST(TraceRing, RoundTripsEventsAndRoundsCapacity) {
  TraceRing ring(6);  // rounds up to 8
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);

  for (int i = 0; i < 5; ++i) {
    ring.record(event(100 + i, 1000 + i, TraceEventKind::kSubmitted, 3,
                      static_cast<std::uint32_t>(i)));
  }
  std::vector<TraceEvent> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].id, 100u + i);
    EXPECT_EQ(out[i].t_ns, 1000 + i);
    EXPECT_EQ(out[i].kind, TraceEventKind::kSubmitted);
    EXPECT_EQ(out[i].shard, 3u);
    EXPECT_EQ(out[i].priority, Priority::kBatch);
    EXPECT_EQ(out[i].rows, static_cast<std::uint32_t>(i));
  }
}

TEST(TraceRing, WrapKeepsTheNewestEventsAndCountsDrops) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.record(event(i, i, TraceEventKind::kCompleted));
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u) << "20 recorded into 8 slots";
  std::vector<TraceEvent> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 8u);
  // The ring keeps exactly the last `capacity` events, in write order.
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, 12u + i);
  }
}

TEST(TraceRing, ConcurrentRecordNeverYieldsTornEvents) {
  // Hammer one small ring from several threads while a reader snapshots
  // continuously.  The seqlock protocol promises every snapshot event
  // is internally consistent: we encode the writer id into every field
  // and reject any event whose fields disagree.  (Under TSan this is
  // also the data-race certification of the hot path.)
  TraceRing ring(64);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};

  std::thread reader([&] {
    std::vector<TraceEvent> out;
    while (!stop.load(std::memory_order_acquire)) {
      ring.snapshot(out);
      for (const TraceEvent& e : out) {
        // Writer w stamped id = w*kPerWriter + i, t_ns = id, rows = w.
        const auto w = static_cast<std::uint32_t>(e.id / kPerWriter);
        if (e.t_ns != static_cast<std::int64_t>(e.id) || e.rows != w ||
            e.shard != static_cast<std::uint16_t>(w)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const RequestId id = static_cast<RequestId>(w) * kPerWriter + i;
        ring.record(event(id, static_cast<std::int64_t>(id),
                          TraceEventKind::kSubmitted,
                          static_cast<std::uint16_t>(w),
                          static_cast<std::uint32_t>(w)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u) << "snapshot surfaced a torn event";
  EXPECT_EQ(ring.recorded(), kWriters * kPerWriter);
  std::vector<TraceEvent> out;
  ring.snapshot(out);
  EXPECT_EQ(out.size(), ring.capacity());
}

TEST(Timelines, GroupsByIdSortsByTimeAndDropsUntraced) {
  std::vector<TraceEvent> events;
  // Interleaved ids, out-of-order times, one id-0 (untraced) stray.
  events.push_back(event(7, 300, TraceEventKind::kCompleted));
  events.push_back(event(9, 150, TraceEventKind::kSubmitted));
  events.push_back(event(7, 100, TraceEventKind::kSubmitted));
  events.push_back(event(0, 50, TraceEventKind::kSubmitted));
  events.push_back(event(7, 200, TraceEventKind::kClaimed));
  // Tie at t=100 for id 7: kAdmitted(1) must sort after kSubmitted(0)
  // because the kind values are lifecycle-ordered.
  events.push_back(event(7, 100, TraceEventKind::kAdmitted));

  const auto timelines = build_timelines(std::move(events));
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].id, 7u);
  EXPECT_EQ(timelines[1].id, 9u);
  ASSERT_EQ(timelines[0].events.size(), 4u);
  EXPECT_EQ(timelines[0].events[0].kind, TraceEventKind::kSubmitted);
  EXPECT_EQ(timelines[0].events[1].kind, TraceEventKind::kAdmitted);
  EXPECT_EQ(timelines[0].events[2].kind, TraceEventKind::kClaimed);
  EXPECT_EQ(timelines[0].events[3].kind, TraceEventKind::kCompleted);
  EXPECT_TRUE(timelines[0].has(TraceEventKind::kClaimed));
  EXPECT_FALSE(timelines[0].has(TraceEventKind::kShed));
  EXPECT_FALSE(to_string(timelines[0]).empty());
}

TEST(EngineTrace, FullLifecycleTimelineIsDeterministicUnderFakeClock) {
  FakeClock clock;
  Tracer tracer({.ring_capacity = 256, .rings = 1, .clock = &clock});
  const auto dnn = make_dnn(1024, 2, 41);
  Engine engine({.workers = 1,
                 .max_delay = 0us,
                 .clock = &clock,
                 .tracer = &tracer,
                 .shard_index = 5});
  const auto id = engine.add_model(dnn);
  Rng irng(42);
  const auto x = gc::synthetic_input(2, 1024, 0.4, irng);

  auto result = engine.submit(InferenceRequest::borrowed(id, x, 2));
  ASSERT_TRUE(result.admitted());
  const RequestId rid = result.request_id();
  EXPECT_NE(rid, 0u);
  EXPECT_EQ(result.take_future().get().size(), 2u * 1024u);
  engine.shutdown();

  const auto timelines = build_timelines(tracer.drain());
  const auto it = std::find_if(timelines.begin(), timelines.end(),
                               [&](const auto& t) { return t.id == rid; });
  ASSERT_NE(it, timelines.end()) << "no timeline for the submitted id";
  // The full lifecycle in order; with max_delay=0 and one request the
  // FakeClock never advances, so ordering is carried by the
  // lifecycle-ordered kind values alone -- fully deterministic.
  const std::vector<TraceEventKind> want = {
      TraceEventKind::kSubmitted,    TraceEventKind::kAdmitted,
      TraceEventKind::kClaimed,      TraceEventKind::kBatched,
      TraceEventKind::kForwardBegin, TraceEventKind::kForwardEnd,
      TraceEventKind::kCompleted};
  ASSERT_EQ(it->events.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(it->events[i].kind, want[i]) << "position " << i;
    EXPECT_EQ(it->events[i].shard, 5u);
    EXPECT_EQ(it->events[i].t_ns, it->events.front().t_ns)
        << "FakeClock never advanced; every stamp must be equal";
  }
  EXPECT_EQ(it->shards(), std::vector<std::uint16_t>{5});
  EXPECT_EQ(it->events.front().rows, 2u);
}

TEST(EngineTrace, RequestIdReachesCompletionTimingAndExpiredIsTraced) {
  FakeClock clock;
  Tracer tracer({.ring_capacity = 256, .rings = 1, .clock = &clock});
  const auto dnn = make_dnn(1024, 2, 43);
  Engine engine({.workers = 1,
                 .max_batch_rows = 1,
                 .max_delay = 0us,
                 .clock = &clock,
                 .tracer = &tracer});
  const auto id = engine.add_model(dnn);
  Rng irng(44);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  // Park the single worker inside a completion callback so the next
  // submission stays queued until released.
  std::promise<void> parked;
  std::promise<void> release;
  auto release_future = release.get_future();
  std::atomic<std::uint64_t> parker_timing_id{0};
  auto parker = engine.submit(
      InferenceRequest::borrowed(id, x, 1),
      {.done = [&](std::span<const float>, const RequestTiming& timing,
                   std::exception_ptr) {
        parker_timing_id.store(timing.request_id);
        parked.set_value();
        release_future.wait();
      }});
  ASSERT_TRUE(parker.admitted());
  parked.get_future().wait();
  EXPECT_EQ(parker_timing_id.load(), parker.request_id())
      << "RequestTiming must carry the id SubmitResult reported";

  // Already-expired deadline: admitted, then shed with kExpired at the
  // claim that finds its budget spent.
  auto doomed = engine.submit(InferenceRequest::borrowed(id, x, 1),
                              {.deadline = -1us});
  ASSERT_TRUE(doomed.admitted());
  clock.advance(1ms);
  release.set_value();
  EXPECT_THROW(doomed.get(), DeadlineExceededError);
  engine.shutdown();

  const auto timelines = build_timelines(tracer.drain());
  const auto it =
      std::find_if(timelines.begin(), timelines.end(), [&](const auto& t) {
        return t.id == doomed.request_id();
      });
  ASSERT_NE(it, timelines.end());
  EXPECT_TRUE(it->has(TraceEventKind::kSubmitted));
  EXPECT_TRUE(it->has(TraceEventKind::kAdmitted));
  EXPECT_TRUE(it->has(TraceEventKind::kExpired));
  EXPECT_FALSE(it->has(TraceEventKind::kForwardBegin))
      << "an expired request must never reach the forward pass";
  // The expiry was claimed 1ms of fake time after submission.
  EXPECT_EQ(it->events.back().t_ns - it->events.front().t_ns, 1'000'000);
}

TEST(RouterTrace, FailoverStitchesOneTimelineAcrossTwoShards) {
  // The acceptance scenario: a request admitted on shard 0, orphaned by
  // kill_shard, resubmitted on shard 1, must reconstruct into ONE
  // timeline under one RequestId with events from BOTH shards and a
  // kFailover hop -- deterministic timestamps under the FakeClock.
  FakeClock clock;
  Tracer tracer({.ring_capacity = 1024, .rings = 1, .clock = &clock});
  const auto dnn = make_dnn(1024, 2, 45);
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1,
                                 .max_batch_rows = 1,
                                 .max_delay = 0us,
                                 .queue_capacity = 64,
                                 .clock = &clock,
                                 .tracer = &tracer}});
  const auto id = router.add_model(dnn, "ha");
  Rng irng(46);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);

  // Park both shards' workers so queued traffic stays queued.
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

  // Queue traffic on both shards; shard 0's queued requests will be
  // orphaned.  Record each submission's id for timeline lookup.
  std::vector<std::future<std::vector<float>>> futures;
  std::vector<RequestId> ids;
  for (int i = 0; i < 10; ++i) {
    auto r = router.submit(InferenceRequest::borrowed(id, x, 1));
    ASSERT_TRUE(r.admitted());
    ids.push_back(r.request_id());
    futures.push_back(r.take_future());
  }
  const std::size_t orphans = router.shard(0).pending(id);
  ASSERT_GT(orphans, 0u) << "two-choice routing left shard 0 empty";

  // Distinct fake timestamp for the failover hop, so cross-shard event
  // order is visible in the timeline, not just inferable from kinds.
  clock.advance(2ms);
  std::thread killer([&] { router.kill_shard(0); });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (router.failovers() < orphans &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(router.failovers(), orphans);
  clock.advance(2ms);
  release.set_value();
  killer.join();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(), 1024u);
  }
  router.shutdown();

  const auto timelines = build_timelines(tracer.drain());
  for (const RequestId rid : ids) {
    const auto matches = std::count_if(
        timelines.begin(), timelines.end(),
        [&](const auto& t) { return t.id == rid; });
    ASSERT_EQ(matches, 1) << "exactly one timeline per request id";
  }
  // Every orphan -- the numbered submissions above AND any extra
  // parker submission that queued on shard 0 -- must reconstruct into
  // a stitched two-shard timeline with the kFailover hop.
  std::size_t stitched = 0;
  for (const auto& timeline : timelines) {
    if (!timeline.has(TraceEventKind::kFailover)) continue;
    ++stitched;
    EXPECT_EQ(timeline.shards(), (std::vector<std::uint16_t>{0, 1}))
        << "a failed-over timeline must carry events from both shards";
    EXPECT_TRUE(timeline.has(TraceEventKind::kCompleted));
    // Both hops submitted: two kSubmitted events under one id, the
    // second (shard 1) at the post-kill fake timestamp.
    std::vector<const TraceEvent*> submits;
    for (const TraceEvent& e : timeline.events) {
      if (e.kind == TraceEventKind::kSubmitted) submits.push_back(&e);
    }
    ASSERT_EQ(submits.size(), 2u);
    EXPECT_EQ(submits[0]->shard, 0u);
    EXPECT_EQ(submits[1]->shard, 1u);
    EXPECT_EQ(submits[1]->t_ns - submits[0]->t_ns, 2'000'000)
        << "failover hop must stamp the advanced FakeClock";
  }
  EXPECT_EQ(stitched, orphans)
      << "every failed-over request must reconstruct a stitched timeline";
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, DrainMergesRingsSortedAndCountsAcrossThreads) {
  FakeClock clock;
  Tracer tracer({.ring_capacity = 128, .rings = 4, .clock = &clock});
  constexpr int kThreads = 8;
  constexpr int kEach = 50;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) {
        tracer.record(static_cast<RequestId>(w * kEach + i + 1),
                      TraceEventKind::kSubmitted, 0, 0, Priority::kBatch, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kEach);
  // Threads pick rings by thread-id hash, so a ring CAN overflow when
  // several threads collide on it; what drain() promises is exactly the
  // resident events, globally sorted, with recorded/dropped accounting
  // for the rest.
  const auto events = tracer.drain();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(tracer.recorded() - tracer.dropped()));
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.t_ns < b.t_ns ||
                                      (a.t_ns == b.t_ns && a.id < b.id);
                             }));
  std::set<RequestId> ids;
  for (const auto& e : events) ids.insert(e.id);
  EXPECT_EQ(ids.size(), events.size()) << "every recorded id is distinct";
}

}  // namespace
}  // namespace radix::serve
