// Serving a Graph-Challenge network to concurrent clients with QoS,
// through the unified front-end API -- optionally sharded.
//
// Demonstrates the serving stack top to bottom: clients hold a
// serve::Client bound to a model on a serve::Backend; the backend is a
// ShardRouter fanning the same models out across N independent engines
// (--shards N, default 2; --shards 1 is a one-shard fleet).  One
// RadiX-Net challenge preset is registered twice -- as an
// interactive-class "chat" model (tiny coalescing window, high weight)
// and as a background-class "bulk" model (big window, best effort).
// Interactive closed-loop clients submit small requests while a bulk
// client pushes 4-row work; the QoS scheduler claims interactive
// traffic first (with a starvation bound protecting the bulk class),
// the micro-batcher coalesces within each class's row budget, and the
// stats surface -- merged across shards by the router -- shows the
// resulting split.  Every response is verified bit-exact against a
// direct forward of the same rows: scheduling and sharding change when
// and where work runs, never what it computes.
//
// Live operations ride along: while the clients are mid-stream an
// operator thread kills shard 0 (its queued requests fail over to the
// siblings) and restarts it (fresh engine, registry replayed) -- on
// fleets of two or more shards, so a sibling is there to take over; after
// the run the "bulk" model is hot-swapped to a retrained version --
// in-flight traffic finishes on whichever version it started with, new
// traffic sees only the new weights -- and then retired, after which
// its id politely rejects instead of serving stale answers.
//
// A second mode, --overload, shows the PR-7 robustness story instead:
// an open-loop IPPP load generator offers the fleet 2x its capacity in
// background traffic next to a modest interactive stream with an
// end-to-end deadline, every worker pays an injected service floor
// (the FaultInjector seam), and the bounded queues shed background --
// never interactive -- to keep the interactive class inside its
// deadline.  See the "Overload behavior" section of the README.
//
// Observability flags compose with either mode: --metrics exports the
// backend's counters/gauges/histograms after the run and prints both
// the Prometheus text exposition and the JSON dump; --trace attaches a
// serve::Tracer to every shard and prints a few reconstructed
// per-request timelines (a failed-over request shows events on both
// the aborting and the serving shard under one RequestId).  See the
// "Observability" section of the README.
//
// Runs in a few seconds; registered as a CTest smoke test (which
// exercises the sharded router end-to-end via the default --shards 2;
// a second smoke covers --overload).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/client.hpp"
#include "serve/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/metrics.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "support/random.hpp"
#include "support/thread.hpp"

using namespace radix;

namespace {

// Both modes register one network twice: an interactive "chat" model
// and a background "bulk" model.
constexpr serve::QosPolicy kChatQos{.priority = serve::Priority::kInteractive,
                                    .weight = 4};
constexpr serve::QosPolicy kBulkQos{.priority = serve::Priority::kBackground};

// --- Observability ride-alongs (--metrics / --trace) ----------------------

// Export the router's counters/gauges/histograms and print both
// renderings between fixed delimiters (scripts/check_perf_smoke.py
// parses the exposition block).
void print_metrics(const serve::ShardRouter& router) {
  serve::MetricsRegistry registry;
  router.export_metrics(registry);
  std::printf("=== metrics (prometheus) ===\n%s"
              "=== metrics (json) ===\n%s\n",
              registry.render_prometheus().c_str(),
              registry.to_json().c_str());
}

// Drain the tracer and print the first few reconstructed per-request
// timelines (a failed-over request shows hops on both shards).
void print_timelines(const serve::Tracer& tracer) {
  const auto timelines = serve::build_timelines(tracer.drain());
  std::printf("=== trace (%zu timelines, %llu events recorded, "
              "%llu dropped) ===\n",
              timelines.size(),
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()));
  constexpr std::size_t kShow = 5;
  for (std::size_t i = 0; i < timelines.size() && i < kShow; ++i) {
    std::printf("%s", serve::to_string(timelines[i]).c_str());
  }
  if (timelines.size() > kShow) {
    std::printf("... (%zu more)\n", timelines.size() - kShow);
  }
  std::printf("=== end trace ===\n\n");
}

// --- The overload scenario (--overload) -----------------------------------
//
// Two QoS classes against a deliberately slow fleet: every batch pays a
// 2ms injected service floor, so fleet capacity is a touch under
// (workers / 2ms) and the offered background load -- an open-loop
// Poisson schedule at 2x that bound -- is guaranteed to cross it on any
// host.  The interactive "chat" stream rides along at a modest rate
// with a 250ms end-to-end deadline.  The contract printed (and
// enforced via the exit code): every request completes exactly once,
// background shedding is nonzero, interactive shedding is zero, and no
// interactive deadline is missed.
int run_overload(std::size_t shards, bool metrics, bool trace) {
  using namespace std::chrono_literals;
  constexpr index_t kRows = 4;
  constexpr unsigned kWorkers = 2;
  constexpr auto kFloor = 2ms;
  constexpr auto kWindow = 1s;

  std::printf("== Overload: open-loop 2x load with priority shedding "
              "(%zu shard%s) ==\n\n", shards, shards == 1 ? "" : "s");

  Rng rng(42);
  const auto net = gc::network(1024, 12, &rng);
  auto dnn =
      std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);

  serve::FaultInjector floor({.added_latency = kFloor});
  serve::EngineOptions opts;
  opts.workers = kWorkers;
  opts.max_batch_rows = kRows;  // one request per batch: the floor is
  opts.max_delay = std::chrono::microseconds(0);  // per-request cost
  opts.queue_capacity = 4096;
  opts.shed_capacity = 64;  // bounded backlog; excess is shed, visibly
  opts.fault = &floor;      // the same service floor on every shard
  std::unique_ptr<serve::Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<serve::Tracer>(
        serve::TracerOptions{.ring_capacity = 1u << 15});
    opts.tracer = tracer.get();
  }

  serve::ShardRouter router({.shards = shards, .engine = opts});
  const serve::ModelId chat = router.add_model(dnn, "chat", kChatQos);
  const serve::ModelId bulk = router.add_model(dnn, "bulk", kBulkQos);

  // Offered load: capacity is UNDER workers/floor (the floor ignores
  // the forward cost), so 2x that bound is over capacity everywhere.
  const double total_workers = static_cast<double>(shards * kWorkers);
  const double cap_bound =
      total_workers / std::chrono::duration<double>(kFloor).count();
  const double bulk_rate = 2.0 * cap_bound;
  const double chat_rate = 100.0;
  std::printf("fleet: %zu shard%s x %u workers, %.0fms injected service "
              "floor per batch => capacity < %.0f req/s\n"
              "offered: bulk (background, no deadline) %.0f req/s + chat "
              "(interactive, 250ms deadline) %.0f req/s, open loop, 1s\n\n",
              shards, shards == 1 ? "" : "s", kWorkers,
              std::chrono::duration<double>(kFloor).count() * 1e3, cap_bound,
              bulk_rate, chat_rate);

  Rng irng(7);
  const std::vector<float> x = gc::synthetic_input(kRows, 1024, 0.4, irng);
  struct Ledger {
    std::atomic<std::uint64_t> offered{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> dropped{0};  // DeadlineExceededError
    std::atomic<std::uint64_t> other{0};
    std::uint64_t completed() const {
      return ok.load() + dropped.load() + other.load();
    }
  };
  Ledger chat_led, bulk_led;
  const auto submit_class = [&](serve::ModelId id, Ledger& led,
                                std::chrono::microseconds deadline) {
    return [&, id, deadline](std::uint64_t, double) {
      serve::SubmitOptions so;
      so.deadline = deadline;
      so.done = [&led](std::span<const float>, const serve::RequestTiming&,
                       std::exception_ptr err) {
        if (!err) {
          led.ok.fetch_add(1);
          return;
        }
        try {
          std::rethrow_exception(err);
        } catch (const serve::DeadlineExceededError&) {
          led.dropped.fetch_add(1);
        } catch (...) {
          led.other.fetch_add(1);
        }
      };
      led.offered.fetch_add(1);
      (void)router.submit(serve::InferenceRequest::borrowed(id, x, kRows),
                          std::move(so));
    };
  };

  {
    serve::LoadGenOptions chat_gen_opts;
    chat_gen_opts.arrivals.rate = serve::constant_rate(chat_rate);
    chat_gen_opts.arrivals.peak_rate = chat_rate;
    chat_gen_opts.arrivals.seed = 11;
    chat_gen_opts.duration = kWindow;
    serve::LoadGenOptions bulk_gen_opts;
    bulk_gen_opts.arrivals.rate = serve::constant_rate(bulk_rate);
    bulk_gen_opts.arrivals.peak_rate = bulk_rate;
    bulk_gen_opts.arrivals.seed = 12;
    bulk_gen_opts.duration = kWindow;
    serve::LoadGen chat_gen(chat_gen_opts), bulk_gen(bulk_gen_opts);
    chat_gen.start(submit_class(chat, chat_led, 250ms));
    bulk_gen.start(submit_class(bulk, bulk_led, std::chrono::microseconds(0)));
    const auto give_up = std::chrono::steady_clock::now() + 30s;
    while ((!chat_gen.exhausted() || !bulk_gen.exhausted()) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
  }  // generators stop + join

  // Drain: bounded queues make the tail bounded too.
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while ((chat_led.completed() < chat_led.offered.load() ||
          bulk_led.completed() < bulk_led.offered.load()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  router.shutdown();

  const serve::ServeStats chat_stats =
      router.class_stats(serve::Priority::kInteractive);
  const serve::ServeStats bulk_stats =
      router.class_stats(serve::Priority::kBackground);

  std::printf("[chat]  offered %llu, served %llu, deadline-dropped %llu "
              "(shed %llu, expired %llu), e2e p99 %.1fms\n",
              static_cast<unsigned long long>(chat_led.offered.load()),
              static_cast<unsigned long long>(chat_led.ok.load()),
              static_cast<unsigned long long>(chat_led.dropped.load()),
              static_cast<unsigned long long>(chat_stats.shed),
              static_cast<unsigned long long>(chat_stats.expired),
              chat_stats.e2e_p99 * 1e3);
  std::printf("[bulk]  offered %llu, served %llu, shed %llu "
              "(%.0f%% of offered)\n\n",
              static_cast<unsigned long long>(bulk_led.offered.load()),
              static_cast<unsigned long long>(bulk_led.ok.load()),
              static_cast<unsigned long long>(bulk_stats.shed),
              bulk_led.offered.load() == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(bulk_stats.shed) /
                        static_cast<double>(bulk_led.offered.load()));

  const bool all_completed =
      chat_led.completed() == chat_led.offered.load() &&
      bulk_led.completed() == bulk_led.offered.load();
  const bool chat_protected = chat_stats.shed == 0 &&
                              chat_led.dropped.load() == 0 &&
                              chat_led.other.load() == 0;
  const bool bulk_shed = bulk_stats.shed > 0;
  std::printf("every request completed exactly once: %s\n",
              all_completed ? "yes" : "NO");
  std::printf("interactive protected (zero shed, zero deadline misses): "
              "%s\n", chat_protected ? "yes" : "NO");
  std::printf("background absorbed the overload (shed > 0): %s\n",
              bulk_shed ? "yes" : "NO");
  if (metrics) print_metrics(router);
  if (tracer) print_timelines(*tracer);

  const bool ok = all_completed && chat_protected && bulk_shed;
  std::printf("%s\n", ok ? "SURVIVED OVERLOAD" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t shards = 2;
  bool overload = false;
  bool metrics = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--overload") == 0) {
      overload = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards N] [--overload] [--metrics] "
                   "[--trace]\n", argv[0]);
      return 2;
    }
  }
  if (shards == 0) shards = 1;
  if (overload) return run_overload(shards, metrics, trace);

  std::printf("== Serving a Graph-Challenge RadiX-Net with QoS "
              "(%zu shard%s) ==\n\n", shards, shards == 1 ? "" : "s");

  // The model: 1024 neurons x 12 layers, challenge weights and bias.
  Rng rng(42);
  const auto net = gc::network(1024, 12, &rng);
  auto dnn =
      std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
  std::printf("model: 1024 neurons x 12 layers, %llu weighted edges\n",
              static_cast<unsigned long long>(dnn->total_nnz()));

  serve::EngineOptions opts;
  opts.workers = 2;
  opts.max_batch_rows = 32;
  opts.max_delay = std::chrono::microseconds(500);
  opts.queue_capacity = 256;
  opts.starvation_bound = 8;
  std::unique_ptr<serve::Tracer> tracer;
  if (trace) {
    tracer = std::make_unique<serve::Tracer>(
        serve::TracerOptions{.ring_capacity = 1u << 15});
    opts.tracer = tracer.get();
  }

  // The backend: the same options on every shard behind a ShardRouter
  // -- the clients below only see serve::Backend.
  serve::ShardRouter router({.shards = shards, .engine = opts});
  serve::QosPolicy chat_qos = kChatQos;
  chat_qos.max_delay = std::chrono::microseconds(50);
  chat_qos.max_batch_rows = 8;
  serve::Client chat(router, router.add_model(dnn, "chat", chat_qos));
  serve::Client bulk(router, router.add_model(dnn, "bulk", kBulkQos));
  std::printf("backend: %zu shard%s x %u workers; chat=interactive "
              "(50us window, 8-row budget), bulk=background "
              "(500us window, 32-row budget)\n\n",
              shards, shards == 1 ? "" : "s", opts.workers);

  // Distinct request payloads with precomputed ground truth.
  struct Payload {
    index_t rows;
    std::vector<float> x;
    std::vector<float> want;
  };
  std::vector<Payload> payloads;
  Rng irng(7);
  infer::InferenceWorkspace verify_ws;
  for (index_t p = 0; p < 8; ++p) {
    Payload pl;
    pl.rows = 1 + p % 4;
    pl.x = gc::synthetic_input(pl.rows, 1024, 0.4, irng);
    const auto y = dnn->forward(pl.x.data(), pl.rows, verify_ws);
    pl.want.assign(y.begin(), y.end());
    payloads.push_back(std::move(pl));
  }

  // Three interactive closed-loop clients plus one bulk client; with a
  // sibling to fail over to, an operator thread bounces shard 0
  // mid-stream -- queued requests on the killed shard fail over, so the
  // bit-exact check below doubles as the failover correctness check.
  constexpr int kChatClients = 3;
  constexpr int kRequestsPerClient = 60;
  std::atomic<int> mismatches{0};
  {
    ThreadGroup clients;
    for (int c = 0; c < kChatClients + 1; ++c) {
      const bool is_chat = c < kChatClients;
      clients.spawn([&, c, is_chat] {
        const serve::Client& client = is_chat ? chat : bulk;
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const Payload& pl =
              payloads[static_cast<std::size_t>((c * 3 + i) % 8)];
          auto res = client.submit(pl.x, pl.rows);
          if (!res.admitted() || res.get() != pl.want) ++mismatches;
        }
      });
    }
    if (shards > 1) {
      clients.spawn([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        router.kill_shard(0);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        router.restart_shard(0);
      });
    }
  }  // clients join
  if (shards > 1) {
    std::printf("operator: bounced shard 0 mid-stream; %llu queued "
                "request%s failed over to siblings\n",
                static_cast<unsigned long long>(router.failovers()),
                router.failovers() == 1 ? "" : "s");
  }

  // --- Live model lifecycle: hot-swap, then retire ----------------------
  // "Retrained" weights: same topology/widths, different edge values.
  Rng rng2(43);
  const auto net2 = gc::network(1024, 12, &rng2);
  auto dnn2 =
      std::make_shared<infer::SparseDnn>(net2.layers, net2.bias, gc::kClamp);
  const serve::ModelId bulk_id = bulk.model();
  router.swap_model(bulk_id, dnn2);
  const auto y2 = dnn2->forward(payloads[0].x.data(), payloads[0].rows,
                                verify_ws);
  const std::vector<float> want2(y2.begin(), y2.end());
  auto swapped = bulk.submit(payloads[0].x, payloads[0].rows);
  const bool swap_ok = swapped.admitted() && swapped.get() == want2;
  std::printf("operator: hot-swapped 'bulk' to retrained weights "
              "(now v%llu); post-swap response %s the new model\n",
              static_cast<unsigned long long>(
                  router.model_entry(bulk_id).version),
              swap_ok ? "matches" : "DOES NOT match");

  router.remove_model(bulk_id);
  const bool retired_rejects =
      !bulk.submit(payloads[0].x, payloads[0].rows).admitted();
  std::printf("operator: retired 'bulk'; new submissions are %s\n\n",
              retired_rejects ? "rejected" : "STILL SERVED");
  router.shutdown();

  // Per-model stats, merged across shards by the router's Backend view.
  const serve::ServeStats chat_stats = chat.stats();
  const serve::ServeStats bulk_stats = bulk.stats();
  std::printf("[chat]\n%s\n", serve::to_string(chat_stats).c_str());
  std::printf("[bulk]\n%s\n", serve::to_string(bulk_stats).c_str());

  if (metrics) print_metrics(router);
  if (tracer) print_timelines(*tracer);

  std::printf("bit-exact vs direct forward: %s\n",
              mismatches.load() == 0 ? "yes" : "NO");

  // Requests are `>=`: a failed-over request is tallied by the shard
  // that aborted it (as an error) AND by the shard that served it, so
  // shard churn can only inflate the merged counts, never shrink them.
  const bool ok =
      mismatches.load() == 0 && swap_ok && retired_rejects &&
      chat_stats.requests >=
          static_cast<std::uint64_t>(kChatClients * kRequestsPerClient) &&
      bulk_stats.requests >=
          static_cast<std::uint64_t>(kRequestsPerClient + 1) &&
      chat_stats.mean_batch_rows >= 1.0;
  std::printf("%s\n", ok ? "SERVED" : "FAILED");
  return ok ? 0 : 1;
}
