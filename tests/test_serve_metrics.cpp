// Metrics-surface tests: the registry's Prometheus exposition and JSON
// must render exactly what was set (kind headers, label blocks,
// cumulative histogram buckets); ShardRouter::export_metrics, the one
// exporter, must publish the documented radix_serve_* series in the
// documented order, each equal to the shard state it reports.  Sized
// for TSan (`serve` CTest label).
#include "serve/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "radixnet/graph_challenge.hpp"
#include "serve/router.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

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

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(MetricsRegistry, RendersCountersAndGaugesExactly) {
  MetricsRegistry reg;
  reg.set_counter("radix_serve_requests_total",
                  {{"class", "interactive"}, {"shard", "0"}}, 42,
                  "Requests completed");
  reg.set_counter("radix_serve_requests_total",
                  {{"class", "batch"}, {"shard", "0"}}, 7);
  reg.set_gauge("radix_serve_queue_depth", {{"class", "interactive"}}, 3);

  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(contains(text, "# HELP radix_serve_requests_total "
                             "Requests completed\n"))
      << text;
  EXPECT_TRUE(contains(text, "# TYPE radix_serve_requests_total counter\n"));
  EXPECT_TRUE(contains(
      text,
      "radix_serve_requests_total{class=\"interactive\",shard=\"0\"} 42\n"));
  EXPECT_TRUE(contains(
      text, "radix_serve_requests_total{class=\"batch\",shard=\"0\"} 7\n"));
  EXPECT_TRUE(contains(text, "# TYPE radix_serve_queue_depth gauge\n"));
  EXPECT_TRUE(
      contains(text, "radix_serve_queue_depth{class=\"interactive\"} 3\n"));

  // Re-setting a series overwrites in place -- one line per scrape.
  reg.set_gauge("radix_serve_queue_depth", {{"class", "interactive"}}, 9);
  const std::string again = reg.render_prometheus();
  EXPECT_TRUE(
      contains(again, "radix_serve_queue_depth{class=\"interactive\"} 9\n"));
  EXPECT_FALSE(contains(again, "} 3\n"));

  const double* v = reg.find("radix_serve_requests_total",
                             {{"class", "batch"}, {"shard", "0"}});
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(*v, 7.0);
  EXPECT_EQ(reg.find("radix_serve_requests_total", {{"class", "nope"}}),
            nullptr);
}

TEST(MetricsRegistry, OneNameCannotHoldTwoKinds) {
  MetricsRegistry reg;
  reg.set_counter("radix_serve_requests_total", {}, 1);
  EXPECT_THROW(reg.set_gauge("radix_serve_requests_total", {}, 1), Error);
  EXPECT_THROW(reg.set_histogram("radix_serve_requests_total", {},
                                 Log2Histogram(1e-6)),
               Error);
}

TEST(MetricsRegistry, HistogramRendersCumulativeBucketsSumAndCount) {
  Log2Histogram h(1e-6);
  h.record(1.5e-6);  // bucket (1us, 2us]
  h.record(1.8e-6);  // same bucket
  h.record(7e-6);    // bucket (4us, 8us]

  MetricsRegistry reg;
  reg.set_histogram("radix_serve_e2e_latency_seconds", {{"shard", "1"}}, h,
                    "e2e");
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(
      contains(text, "# TYPE radix_serve_e2e_latency_seconds histogram\n"));
  // Cumulative: 2 at the 2us bound, 3 at the 8us bound, 3 at +Inf.
  EXPECT_TRUE(contains(text,
                       "radix_serve_e2e_latency_seconds_bucket{shard=\"1\","
                       "le=\"2e-06\"} 2\n"))
      << text;
  EXPECT_TRUE(contains(text,
                       "radix_serve_e2e_latency_seconds_bucket{shard=\"1\","
                       "le=\"8e-06\"} 3\n"));
  EXPECT_TRUE(contains(text,
                       "radix_serve_e2e_latency_seconds_bucket{shard=\"1\","
                       "le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(
      contains(text, "radix_serve_e2e_latency_seconds_count{shard=\"1\"} 3\n"));
  EXPECT_TRUE(contains(text, "radix_serve_e2e_latency_seconds_sum{shard=\"1\"} "));

  const std::string json = reg.to_json();
  EXPECT_TRUE(contains(json, "\"name\":\"radix_serve_e2e_latency_seconds\""));
  EXPECT_TRUE(contains(json, "\"kind\":\"histogram\""));
  EXPECT_TRUE(contains(json, "\"labels\":{\"shard\":\"1\"}"));
  EXPECT_TRUE(contains(json, "\"count\":3"));
}

TEST(MetricsRegistry, EscapesLabelValues) {
  MetricsRegistry reg;
  reg.set_gauge("g", {{"name", "a\"b\\c\nd"}}, 1);
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(contains(text, "g{name=\"a\\\"b\\\\c\\nd\"} 1\n")) << text;
}

TEST(MetricsRegistry, EscapesHelpTextPerExpositionFormat) {
  // HELP has its own escape set in the Prometheus exposition format:
  // backslash -> \\ and newline -> \n, and NOTHING else -- a double
  // quote passes through raw because HELP text is not a quoted string.
  // (The original renderer reused the label-value escaper here, which
  // corrupted any help text containing a quote; this golden pins the
  // fix.)
  MetricsRegistry reg;
  reg.set_counter("radix_demo_total", {}, 1,
                  "path C:\\radix, a \"quoted\" word\nand a second line");
  const std::string text = reg.render_prometheus();
  EXPECT_TRUE(contains(text,
                       "# HELP radix_demo_total path C:\\\\radix, "
                       "a \"quoted\" word\\nand a second line\n"))
      << text;
  // The exposition stays line-oriented: exactly one HELP line, and the
  // raw newline never leaks into the output.
  EXPECT_EQ(text.find("path C:"), text.rfind("path C:"));
  EXPECT_FALSE(contains(text, "word\nand"));

  // JSON keeps the full escape set -- the quote IS escaped there.
  const std::string json = reg.to_json();
  EXPECT_TRUE(contains(json,
                       "\"help\":\"path C:\\\\radix, a \\\"quoted\\\" "
                       "word\\nand a second line\""))
      << json;
}

TEST(RouterMetrics, ExportPublishesTheDocumentedSeries) {
  const auto dnn = make_dnn(1024, 2, 51);
  ShardRouter router({.shards = 1, .engine = {.workers = 1, .max_delay = 0us}});
  const auto id = router.add_model(dnn, "m",
                                   {.priority = Priority::kInteractive});
  Rng irng(52);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get().size(),
              1024u);
  }

  MetricsRegistry reg;
  router.export_metrics(reg);
  const MetricLabels inter{{"class", "interactive"}, {"shard", "0"}};
  const double* requests = reg.find("radix_serve_requests_total", inter);
  ASSERT_NE(requests, nullptr);
  EXPECT_DOUBLE_EQ(*requests, 5.0);
  const double* shed = reg.find("radix_serve_shed_total", inter);
  ASSERT_NE(shed, nullptr);
  EXPECT_DOUBLE_EQ(*shed, 0.0);
  const double* depth = reg.find("radix_serve_queue_depth", inter);
  ASSERT_NE(depth, nullptr);
  EXPECT_DOUBLE_EQ(*depth, 0.0) << "every request was answered";
  const double* busy =
      reg.find("radix_serve_worker_busy_fraction", {{"shard", "0"}});
  ASSERT_NE(busy, nullptr);
  EXPECT_DOUBLE_EQ(*busy, 0.0);

  // Every documented family renders; the exposition parses as
  // one-metric-per-line text.
  const std::string text = reg.render_prometheus();
  for (const char* family :
       {"radix_serve_requests_total", "radix_serve_shed_total",
        "radix_serve_expired_total", "radix_serve_errors_total",
        "radix_serve_rows_total", "radix_serve_batches_total",
        "radix_serve_edges_total", "radix_serve_busy_seconds_total",
        "radix_serve_queue_depth", "radix_serve_worker_busy_fraction",
        "radix_serve_workers", "radix_serve_e2e_latency_seconds",
        "radix_serve_queue_wait_seconds", "radix_serve_batch_rows",
        "radix_serve_shard_health", "radix_serve_failovers_total"}) {
    EXPECT_TRUE(contains(text, std::string("# TYPE ") + family))
        << "missing family " << family;
  }
  // The e2e histogram saw all five requests.
  EXPECT_TRUE(contains(
      text, "radix_serve_e2e_latency_seconds_count{class=\"interactive\","
            "shard=\"0\"} 5\n"))
      << text;
  const double* workers = reg.find("radix_serve_workers", {{"shard", "0"}});
  ASSERT_NE(workers, nullptr);
  EXPECT_DOUBLE_EQ(*workers, 1.0);
}

// The family names of an exposition, in render order.
std::vector<std::string> family_order(const std::string& text) {
  std::vector<std::string> names;
  const std::string tag = "# TYPE ";
  for (std::size_t at = text.find(tag); at != std::string::npos;
       at = text.find(tag, at + 1)) {
    const std::size_t begin = at + tag.size();
    names.push_back(text.substr(begin, text.find(' ', begin) - begin));
  }
  return names;
}

TEST(RouterMetrics, ExportStructureFollowsTheFleetSnapshot) {
  const auto dnn = make_dnn(1024, 2, 55);
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1, .max_delay = 0us}});
  const ModelId inter =
      router.add_model(dnn, "i", {.priority = Priority::kInteractive});
  const ModelId batch =
      router.add_model(dnn, "b", {.priority = Priority::kBatch});
  const ModelId back =
      router.add_model(dnn, "g", {.priority = Priority::kBackground});
  const ModelId gone =
      router.add_model(dnn, "gone", {.priority = Priority::kBatch});
  const std::vector<ModelId> ids = {inter, batch, back, gone};
  Rng irng(56);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 4; ++i) {
    for (const ModelId m : ids) {
      EXPECT_EQ(router.submit(InferenceRequest::borrowed(m, x, 1)).get().size(),
                1024u);
    }
  }
  router.remove_model(gone);
  router.kill_shard(1);

  // Park shard 0's only worker in a completion, then queue work behind
  // it, so the queue-depth gauges have something to count.
  std::promise<void> parked;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  (void)router.submit(InferenceRequest::borrowed(batch, x, 1),
                      {.done = [&](std::span<const float>,
                                   const RequestTiming&, std::exception_ptr) {
                        parked.set_value();
                        released.wait();
                      }});
  parked.get_future().wait();
  std::vector<std::future<std::vector<float>>> queued;
  for (const ModelId m : {inter, inter, back}) {
    queued.push_back(
        router.submit(InferenceRequest::borrowed(m, x, 1)).take_future());
  }

  MetricsRegistry reg;
  router.export_metrics(reg);
  const std::string text = reg.render_prometheus();
  const std::vector<std::string> documented = {
      "radix_serve_shard_health",       "radix_serve_requests_total",
      "radix_serve_shed_total",         "radix_serve_expired_total",
      "radix_serve_errors_total",       "radix_serve_rows_total",
      "radix_serve_batches_total",      "radix_serve_edges_total",
      "radix_serve_busy_seconds_total", "radix_serve_queue_depth",
      "radix_serve_e2e_latency_seconds", "radix_serve_queue_wait_seconds",
      "radix_serve_batch_rows",         "radix_serve_workers",
      "radix_serve_worker_busy_fraction", "radix_serve_failovers_total"};
  EXPECT_EQ(family_order(text), documented) << text;

  // The live shard: every {class, shard} series, equal to the engine's
  // own class view and to its pending requests over the live models.
  const Engine& live = router.shard(0);
  const std::vector<ModelId> live_ids = {inter, batch, back};
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    const auto p = static_cast<Priority>(c);
    SCOPED_TRACE(to_string(p));
    const MetricLabels labels{{"class", to_string(p)}, {"shard", "0"}};
    const ServeStats want = live.class_stats(p);
    const auto value = [&](const char* family) {
      const double* v = reg.find(family, labels);
      EXPECT_NE(v, nullptr) << family;
      return v ? *v : -1.0;
    };
    EXPECT_EQ(value("radix_serve_requests_total"), want.requests);
    EXPECT_EQ(value("radix_serve_shed_total"), want.shed);
    EXPECT_EQ(value("radix_serve_expired_total"), want.expired);
    EXPECT_EQ(value("radix_serve_errors_total"), want.errors);
    EXPECT_EQ(value("radix_serve_rows_total"), want.rows);
    EXPECT_EQ(value("radix_serve_batches_total"), want.batches);
    EXPECT_EQ(value("radix_serve_edges_total"), want.edges);
    EXPECT_EQ(value("radix_serve_busy_seconds_total"), want.busy_seconds);
    EXPECT_EQ(value("radix_serve_e2e_latency_seconds"), want.e2e_hist.count());
    EXPECT_EQ(value("radix_serve_queue_wait_seconds"),
              want.queue_wait_hist.count());
    EXPECT_EQ(value("radix_serve_batch_rows"), want.batch_rows_hist.count());
    std::size_t depth = 0;
    for (const ModelId m : live_ids) {
      if (router.model_entry(m).qos.priority == p) depth += live.pending(m);
    }
    EXPECT_EQ(value("radix_serve_queue_depth"), depth);
  }
  EXPECT_EQ(*reg.find("radix_serve_queue_depth",
                      {{"class", "interactive"}, {"shard", "0"}}),
            2.0);
  EXPECT_EQ(*reg.find("radix_serve_queue_depth",
                      {{"class", "background"}, {"shard", "0"}}),
            1.0);
  EXPECT_GT(*reg.find("radix_serve_requests_total",
                      {{"class", "batch"}, {"shard", "0"}}),
            0.0);
  ASSERT_NE(reg.find("radix_serve_workers", {{"shard", "0"}}), nullptr);
  EXPECT_EQ(*reg.find("radix_serve_workers", {{"shard", "0"}}),
            live.num_workers());
  ASSERT_NE(reg.find("radix_serve_worker_busy_fraction", {{"shard", "0"}}),
            nullptr);

  // The down shard: its health gauge, and nothing else.
  const double* down = reg.find("radix_serve_shard_health", {{"shard", "1"}});
  ASSERT_NE(down, nullptr);
  EXPECT_EQ(*down, 2.0);
  std::size_t shard1_lines = 0;
  for (std::size_t at = text.find("shard=\"1\""); at != std::string::npos;
       at = text.find("shard=\"1\"", at + 1)) {
    ++shard1_lines;
  }
  EXPECT_EQ(shard1_lines, 1u) << text;
  ASSERT_NE(reg.find("radix_serve_failovers_total", {}), nullptr);

  release.set_value();
  for (auto& f : queued) EXPECT_EQ(f.get().size(), 1024u);
  router.shutdown();
}

TEST(RouterMetrics, MergedFleetViewLabelsShardsAndTracksHealth) {
  const auto dnn = make_dnn(1024, 2, 53);
  ShardRouter router({.shards = 2,
                      .engine = {.workers = 1, .max_delay = 0us}});
  const auto id = router.add_model(dnn, "m");
  Rng irng(54);
  const auto x = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(router.submit(InferenceRequest::borrowed(id, x, 1)).get().size(),
              1024u);
  }

  MetricsRegistry reg;
  router.export_metrics(reg);
  // Both shards' class series are present, distinguished by label; the
  // fleet total equals the sum (each request served exactly once).
  const double* s0 = reg.find("radix_serve_requests_total",
                              {{"class", "batch"}, {"shard", "0"}});
  const double* s1 = reg.find("radix_serve_requests_total",
                              {{"class", "batch"}, {"shard", "1"}});
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_DOUBLE_EQ(*s0 + *s1, 6.0);
  const double* h0 = reg.find("radix_serve_shard_health", {{"shard", "0"}});
  const double* h1 = reg.find("radix_serve_shard_health", {{"shard", "1"}});
  ASSERT_NE(h0, nullptr);
  ASSERT_NE(h1, nullptr);
  EXPECT_DOUBLE_EQ(*h0, 0.0);
  EXPECT_DOUBLE_EQ(*h1, 0.0);
  const double* failovers = reg.find("radix_serve_failovers_total", {});
  ASSERT_NE(failovers, nullptr);
  EXPECT_DOUBLE_EQ(*failovers, 0.0);

  // Kill shard 0: its health gauge flips to down (2) and its engine
  // series drop out of the NEXT scrape (fresh registry per scrape).
  router.kill_shard(0);
  MetricsRegistry after;
  router.export_metrics(after);
  const double* h0_after =
      after.find("radix_serve_shard_health", {{"shard", "0"}});
  ASSERT_NE(h0_after, nullptr);
  EXPECT_DOUBLE_EQ(*h0_after, 2.0);
  EXPECT_EQ(after.find("radix_serve_requests_total",
                       {{"class", "batch"}, {"shard", "0"}}),
            nullptr)
      << "a down shard contributes no engine series";
  ASSERT_NE(after.find("radix_serve_requests_total",
                       {{"class", "batch"}, {"shard", "1"}}),
            nullptr);
  router.shutdown();
}

}  // namespace
}  // namespace radix::serve
