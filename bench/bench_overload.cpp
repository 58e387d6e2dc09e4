// Overload scenario harness (PR 7): what does the serving stack do when
// offered load crosses capacity?
//
// Google Benchmark harness built from the robustness pieces:
//
//   * the open-loop IPPP load generator (serve/loadgen.hpp) offers each
//     QoS class an arrival schedule that does NOT slow down when the
//     fleet falls behind -- unlike the closed-loop clients of
//     bench_serving, overload here is real: the backlog has to be
//     absorbed, shed, or paid for in latency;
//   * bounded queues with priority-aware shedding (EngineOptions::
//     shed_capacity) turn the backlog into visible, class-targeted
//     drops instead of unbounded queue growth;
//   * the FaultInjector seam (serve/fault.hpp) degrades one shard of a
//     router fleet, the classic grey-failure scenario.
//
// Two sweeps, each over offered load = {50, 100, 200}% of the measured
// saturating rate:
//
//   BM_ServeOverload/<load_pct>        -- one engine, one worker: an
//       interactive class offered a fixed fraction of capacity next to
//       a background class carrying the sweep.  The headline serving
//       metric is the SLO-attainment curve: the fraction of interactive
//       requests completing within kSloUs as offered load crosses 1x --
//       its knee is recorded by scripts/record_bench_baseline.py.
//   BM_ServeOverloadFaulty/<load_pct>  -- a 2-shard router whose second
//       shard pays double the service floor (tune_shard): the same
//       curve when half the fleet is grey.
//
// Every worker pays an injected kServiceFloor per batch (the base
// FaultInjector): a deterministic service-time floor that dominates the
// host-dependent forward cost, so "100% load" means the same thing on a
// laptop and a loaded CI runner and the 200% point is genuinely over
// capacity everywhere.  The saturating rate is calibrated as
// 1 / (kServiceFloor + best observed forward time).
//
// Per-run counters:
//   offered_rps             total offered arrival rate (both classes)
//   interactive_p99_us      merged interactive-class e2e p99
//   interactive_attainment  fraction of interactive requests under SLO
//   interactive_shed        interactive requests shed (MUST stay 0:
//                           pressure sheds background first, and
//                           background is always backlogged here)
//   bg_shed_rate            background requests shed / offered
//   slo_us                  the SLO bound the attainment is graded at
//
// Acceptance shape (scripts/check_perf_smoke.py): at 200% load the
// background shed rate is nonzero while interactive_shed == 0 and the
// interactive p99 stays within the SLO -- overload is paid by the
// background class, not by interactive latency.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "infer/sparse_dnn.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "serve/fault.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
#include "support/random.hpp"

namespace radix {
namespace {

using namespace std::chrono_literals;

constexpr index_t kNeurons = 1024;
constexpr std::size_t kLayers = 12;
// Requests are kRows rows against a kRows-row budget: one request per
// batch, so the calibrated forward time IS the per-request service time
// and "saturating rate" has no coalescing slack hiding in it.
constexpr index_t kRows = 4;
constexpr double kSloUs = 50000.0;  // interactive SLO: 50ms e2e
// Injected per-batch service floor: every worker pays this, the grey
// shard of the faulty sweep pays double.  It dominates the forward cost
// so offered-load percentages stay meaningful across hosts.
constexpr std::chrono::microseconds kServiceFloor = 2000us;
constexpr std::chrono::microseconds kGreyFloor = 4000us;
constexpr auto kWindow = 100ms;  // offered-load window per iteration

const gc::Network& cached_network() {
  static const gc::Network net = [] {
    Rng rng(99);
    return gc::network(kNeurons, kLayers, &rng);
  }();
  return net;
}

std::shared_ptr<infer::SparseDnn> make_dnn() {
  const auto& net = cached_network();
  return std::make_shared<infer::SparseDnn>(net.layers, net.bias, gc::kClamp);
}

const std::vector<float>& cached_input() {
  static const std::vector<float> x = [] {
    Rng rng(7);
    return gc::synthetic_input(kRows, kNeurons, 0.4, rng);
  }();
  return x;
}

// Measured single-worker service rate (requests/second): the injected
// floor plus the BEST observed kRows-row forward time.  The minimum --
// not the mean -- because the worker runs at steady state, which a
// short calibration loop's average overstates; underestimating the
// forward would overestimate capacity and let "200%" land under the
// true saturating rate.  The floor bounds the remaining error: even if
// the steady-state forward were free, true capacity stays below
// 1/kServiceFloor < 2x this estimate, so the 200% point is always
// genuinely over capacity.
double saturating_rps() {
  static const double rps = [] {
    const auto dnn = make_dnn();
    const auto& x = cached_input();
    infer::InferenceWorkspace ws;
    dnn->prewarm({.max_batch = kRows, .workspace = &ws});
    double best = 1e9;
    for (int i = 0; i < 50; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      auto y = dnn->forward(x.data(), kRows, ws);
      benchmark::DoNotOptimize(y.data());
      best = std::min(
          best, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
    }
    const double floor =
        std::chrono::duration<double>(kServiceFloor).count();
    return 1.0 / (floor + best);
  }();
  return rps;
}

// Per-class completion ledger; e2e measured against the submit
// timestamp so attainment uses the caller-observed latency.
struct Ledger {
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> within_slo{0};

  serve::DoneFn done(std::chrono::steady_clock::time_point submitted) {
    return [this, submitted](std::span<const float>,
                             const serve::RequestTiming&,
                             std::exception_ptr err) {
      if (!err) {
        const double us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - submitted)
                              .count();
        if (us <= kSloUs) within_slo.fetch_add(1);
      }
      completed.fetch_add(1);
    };
  }
};

struct WindowTotals {
  std::uint64_t interactive_offered = 0;
  std::uint64_t interactive_within_slo = 0;
  std::uint64_t bg_offered = 0;
  double seconds_offered = 0.0;
};

// Background arrival shape of one window.  kBurst keeps the labeled
// MEAN rate but delivers it as a square wave (kBurstDuty of each
// kBurstPeriod at kBurstFactor x the mean, a reduced base in between):
// the same offered work arriving in spikes that transiently exceed
// capacity even at the "50%" point.
enum class BgShape { kConstant, kBurst, kDiurnal };
constexpr double kBurstPeriod = 0.025;  // seconds; 4 bursts per window
constexpr double kBurstDuty = 0.25;
constexpr double kBurstFactor = 2.8;  // peak/mean; base = 0.4x mean
// Diurnal shape: a mean-preserving sinusoid between trough and peak
// (trough + peak = 2 x mean), two full cycles per window -- the classic
// day/night curve compressed to bench scale.
constexpr double kDiurnalPeriod = 0.05;     // seconds; 2 cycles per window
constexpr double kDiurnalPeakFactor = 1.6;  // peak/mean; trough = 0.4x mean

// Drive one open-loop window of two-class traffic at `load` x the
// saturating rate per worker (`workers` scales the fleet's capacity)
// against `target` (an Engine or a ShardRouter: anything with the
// submit entry point), then drain to completion.  The interactive class
// is pinned at 25% of one worker's capacity -- the sweep variable is
// the background class crossing the rest of the fleet's capacity.
template <typename Target>
void run_window(Target& target, serve::ModelId interactive,
                serve::ModelId background, double load, double workers,
                WindowTotals& totals, BgShape shape = BgShape::kConstant) {
  const auto& x = cached_input();
  const double sat = saturating_rps();
  const double ia_rate = 0.25 * sat;
  const double bg_rate = load * workers * sat;

  Ledger ia_led, bg_led;
  const auto submit_class = [&](serve::ModelId id, Ledger& led,
                                std::chrono::microseconds deadline) {
    return [&target, &led, id, &x, deadline](std::uint64_t, double) {
      serve::SubmitOptions so;
      so.deadline = deadline;
      so.done = led.done(std::chrono::steady_clock::now());
      led.offered.fetch_add(1);
      (void)target.submit(
          serve::InferenceRequest::borrowed(id, x, kRows), std::move(so));
    };
  };

  serve::LoadGenOptions ia_opts;
  ia_opts.arrivals.rate = serve::constant_rate(ia_rate);
  ia_opts.arrivals.peak_rate = ia_rate;
  ia_opts.arrivals.seed = 17;
  ia_opts.duration = kWindow;
  serve::LoadGenOptions bg_opts;
  if (shape == BgShape::kBurst) {
    // Mean-preserving square wave: duty*factor + (1-duty)*base = 1.
    const double base =
        bg_rate * (1.0 - kBurstDuty * kBurstFactor) / (1.0 - kBurstDuty);
    bg_opts.arrivals.rate = serve::burst_rate(base, bg_rate * kBurstFactor,
                                              kBurstPeriod, kBurstDuty);
    bg_opts.arrivals.peak_rate = bg_rate * kBurstFactor;
  } else if (shape == BgShape::kDiurnal) {
    const double peak = bg_rate * kDiurnalPeakFactor;
    const double trough = 2.0 * bg_rate - peak;  // mean-preserving
    bg_opts.arrivals.rate = serve::diurnal_rate(trough, peak, kDiurnalPeriod);
    bg_opts.arrivals.peak_rate = peak;
  } else {
    bg_opts.arrivals.rate = serve::constant_rate(bg_rate);
    bg_opts.arrivals.peak_rate = bg_rate;
  }
  bg_opts.arrivals.seed = 23;
  bg_opts.duration = kWindow;

  {
    serve::LoadGen ia_gen(ia_opts), bg_gen(bg_opts);
    // Interactive carries a deadline far beyond the SLO (missed SLO is
    // an attainment miss, not a drop); background runs without one.
    ia_gen.start(submit_class(interactive, ia_led, 500ms));
    bg_gen.start(submit_class(background, bg_led, 0us));
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while ((!ia_gen.exhausted() || !bg_gen.exhausted()) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(500us);
    }
  }  // stop() + join both generators

  // Drain: bounded queues (shed_capacity) make this a bounded tail.
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while ((ia_led.completed.load() < ia_led.offered.load() ||
          bg_led.completed.load() < bg_led.offered.load()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(500us);
  }

  totals.interactive_offered += ia_led.offered.load();
  totals.interactive_within_slo += ia_led.within_slo.load();
  totals.bg_offered += bg_led.offered.load();
  totals.seconds_offered += std::chrono::duration<double>(kWindow).count();
}

void report(benchmark::State& state, const WindowTotals& totals,
            const serve::ServeStats& ia, const serve::ServeStats& bg) {
  const double ia_off = static_cast<double>(totals.interactive_offered);
  const double bg_off = static_cast<double>(totals.bg_offered);
  state.counters["offered_rps"] = benchmark::Counter(
      totals.seconds_offered > 0.0 ? (ia_off + bg_off) / totals.seconds_offered
                                   : 0.0);
  state.counters["interactive_p99_us"] = benchmark::Counter(ia.e2e_p99 * 1e6);
  state.counters["interactive_attainment"] = benchmark::Counter(
      ia_off > 0.0 ? static_cast<double>(totals.interactive_within_slo) /
                         ia_off
                   : 0.0);
  state.counters["interactive_shed"] =
      benchmark::Counter(static_cast<double>(ia.shed));
  state.counters["bg_shed_rate"] = benchmark::Counter(
      bg_off > 0.0 ? static_cast<double>(bg.shed + bg.expired) / bg_off : 0.0);
  state.counters["slo_us"] = benchmark::Counter(kSloUs);
}

// --- Single-engine sweep --------------------------------------------------

std::unique_ptr<serve::FaultInjector> g_floor;
std::unique_ptr<serve::Tracer> g_tracer;
std::unique_ptr<serve::Engine> g_engine;
serve::ModelId g_interactive = 0;
serve::ModelId g_background = 0;

// Post-run trace digest: how many reconstructed timelines ended in a
// shed/expiry, surfaced as a counter; set RADIX_TRACE_DUMP=1 to print
// the first few shed timelines for eyeballing what overload did to
// individual requests.
void report_shed_timelines(benchmark::State& state,
                           const serve::Tracer& tracer) {
  const auto timelines = serve::build_timelines(tracer.drain());
  std::uint64_t shed = 0;
  int dumped = 0;
  const bool dump = std::getenv("RADIX_TRACE_DUMP") != nullptr;
  for (const auto& t : timelines) {
    if (!t.has(serve::TraceEventKind::kShed) &&
        !t.has(serve::TraceEventKind::kExpired)) {
      continue;
    }
    ++shed;
    if (dump && dumped < 5) {
      std::fprintf(stderr, "shed timeline:\n%s", to_string(t).c_str());
      ++dumped;
    }
  }
  state.counters["shed_timelines"] =
      benchmark::Counter(static_cast<double>(shed));
  state.counters["trace_dropped"] =
      benchmark::Counter(static_cast<double>(tracer.dropped()));
}

void SetupEngine(const benchmark::State&) {
  g_floor = std::make_unique<serve::FaultInjector>(
      serve::FaultInjectorOptions{.added_latency = kServiceFloor});
  // Tracing stays ON through the overload runs: the overhead gate lives
  // in bench_serving; here the trace is the product -- per-request
  // timelines of what shedding did.
  g_tracer = std::make_unique<serve::Tracer>(
      serve::TracerOptions{.ring_capacity = 1u << 15, .rings = 2});
  serve::EngineOptions opts;
  opts.workers = 1;
  opts.max_batch_rows = kRows;
  opts.max_delay = 0us;  // overload provides the batching pressure
  opts.queue_capacity = 4096;
  opts.shed_capacity = 16;
  opts.fault = g_floor.get();
  opts.tracer = g_tracer.get();
  g_engine = std::make_unique<serve::Engine>(opts);
  g_interactive = g_engine->add_model(
      make_dnn(), {.priority = serve::Priority::kInteractive, .weight = 4});
  g_background = g_engine->add_model(
      make_dnn(), {.priority = serve::Priority::kBackground});
  (void)cached_input();
  (void)saturating_rps();
}

void TeardownEngine(const benchmark::State&) {
  g_engine->shutdown();
  g_engine.reset();
  g_tracer.reset();
  g_floor.reset();
}

// Arg: offered background load in percent of the saturating rate.
void BM_ServeOverload(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  for (auto _ : state) {
    run_window(*g_engine, g_interactive, g_background, load, 1.0, totals);
  }
  report(state, totals, g_engine->class_stats(serve::Priority::kInteractive),
         g_engine->class_stats(serve::Priority::kBackground));
  report_shed_timelines(state, *g_tracer);
}

BENCHMARK(BM_ServeOverload)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupEngine)
    ->Teardown(TeardownEngine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Same engine, same mean loads, bursty arrivals (see BgShape::kBurst):
// records how much attainment the spiky schedule costs relative to
// BM_ServeOverload at the same label -- the "burst_rate is implemented
// but never swept" gap from the roadmap.
void BM_ServeOverloadBurst(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  for (auto _ : state) {
    run_window(*g_engine, g_interactive, g_background, load, 1.0, totals,
               BgShape::kBurst);
  }
  report(state, totals, g_engine->class_stats(serve::Priority::kInteractive),
         g_engine->class_stats(serve::Priority::kBackground));
  report_shed_timelines(state, *g_tracer);
  state.counters["burst_factor"] = benchmark::Counter(kBurstFactor);
}

BENCHMARK(BM_ServeOverloadBurst)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupEngine)
    ->Teardown(TeardownEngine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// Same engine, same mean loads, sinusoidal arrivals: the diurnal sweep
// whose SLO knee (the load point where interactive attainment falls off)
// is extracted into the bench JSON by scripts/record_bench_baseline.py.
void BM_ServeOverloadDiurnal(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  for (auto _ : state) {
    run_window(*g_engine, g_interactive, g_background, load, 1.0, totals,
               BgShape::kDiurnal);
  }
  report(state, totals, g_engine->class_stats(serve::Priority::kInteractive),
         g_engine->class_stats(serve::Priority::kBackground));
  report_shed_timelines(state, *g_tracer);
  state.counters["diurnal_peak_factor"] =
      benchmark::Counter(kDiurnalPeakFactor);
}

BENCHMARK(BM_ServeOverloadDiurnal)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupEngine)
    ->Teardown(TeardownEngine)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Bounded-wait admission sweep -----------------------------------------
//
// The sweeps above absorb overload with priority-aware pressure
// shedding; this arm replaces shedding with ADMISSION CONTROL: a tiny
// queue, no shed capacity, and every submit under Admission::
// kBoundedWait -- wait up to a class budget for queue space, then be
// rejected at the door.  Rejected requests never invoke DoneFn, so this
// arm keeps its own rejection ledger and drains on completed ==
// admitted (the shared run_window would wait forever on completions
// that were never admitted).  The admission wait composes with the e2e
// deadline (engine caps the wait at the remaining deadline; pinned by
// tests/test_serve_deadline.cpp).

// Interactive may wait meaningfully for a slot (still well under the
// SLO); background gives up fast -- under overload it is the class
// that gets turned away.
constexpr std::chrono::microseconds kIaAdmitBudget = 20ms;
constexpr std::chrono::microseconds kBgAdmitBudget = 2ms;
constexpr std::size_t kBoundedQueueRows = 8;

struct BoundedLedger : Ledger {
  std::atomic<std::uint64_t> rejected{0};
};

// run_window with bounded-wait admission and rejection accounting.
template <typename Target>
void run_window_bounded(Target& target, serve::ModelId interactive,
                        serve::ModelId background, double load,
                        WindowTotals& totals, std::uint64_t& ia_rejected,
                        std::uint64_t& bg_rejected) {
  const auto& x = cached_input();
  const double sat = saturating_rps();
  const double ia_rate = 0.25 * sat;
  const double bg_rate = load * sat;

  BoundedLedger ia_led, bg_led;
  const auto submit_class = [&](serve::ModelId id, BoundedLedger& led,
                                std::chrono::microseconds wait,
                                std::chrono::microseconds deadline) {
    return [&target, &led, id, &x, wait, deadline](std::uint64_t, double) {
      serve::SubmitOptions so;
      so.admission = serve::Admission::kBoundedWait;
      so.timeout = wait;
      so.deadline = deadline;
      so.done = led.done(std::chrono::steady_clock::now());
      led.offered.fetch_add(1);
      if (!target
               .submit(serve::InferenceRequest::borrowed(id, x, kRows),
                       std::move(so))
               .admitted()) {
        led.rejected.fetch_add(1);
      }
    };
  };

  serve::LoadGenOptions ia_opts;
  ia_opts.arrivals.rate = serve::constant_rate(ia_rate);
  ia_opts.arrivals.peak_rate = ia_rate;
  ia_opts.arrivals.seed = 17;
  ia_opts.duration = kWindow;
  serve::LoadGenOptions bg_opts;
  bg_opts.arrivals.rate = serve::constant_rate(bg_rate);
  bg_opts.arrivals.peak_rate = bg_rate;
  bg_opts.arrivals.seed = 23;
  bg_opts.duration = kWindow;

  {
    serve::LoadGen ia_gen(ia_opts), bg_gen(bg_opts);
    ia_gen.start(submit_class(interactive, ia_led, kIaAdmitBudget, 500ms));
    bg_gen.start(submit_class(background, bg_led, kBgAdmitBudget, 0us));
    const auto give_up = std::chrono::steady_clock::now() + 10s;
    while ((!ia_gen.exhausted() || !bg_gen.exhausted()) &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(500us);
    }
  }

  // Drain on admitted (= offered - rejected): rejections complete
  // nothing.
  const auto give_up = std::chrono::steady_clock::now() + 30s;
  while ((ia_led.completed.load() + ia_led.rejected.load() <
              ia_led.offered.load() ||
          bg_led.completed.load() + bg_led.rejected.load() <
              bg_led.offered.load()) &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(500us);
  }

  totals.interactive_offered += ia_led.offered.load();
  totals.interactive_within_slo += ia_led.within_slo.load();
  totals.bg_offered += bg_led.offered.load();
  totals.seconds_offered += std::chrono::duration<double>(kWindow).count();
  ia_rejected += ia_led.rejected.load();
  bg_rejected += bg_led.rejected.load();
}

void SetupEngineBounded(const benchmark::State&) {
  g_floor = std::make_unique<serve::FaultInjector>(
      serve::FaultInjectorOptions{.added_latency = kServiceFloor});
  serve::EngineOptions opts;
  opts.workers = 1;
  opts.max_batch_rows = kRows;
  opts.max_delay = 0us;
  // The whole point: a queue shallow enough to fill under overload, and
  // NO pressure shedding -- admission control is the only relief valve.
  opts.queue_capacity = kBoundedQueueRows;
  opts.fault = g_floor.get();
  g_engine = std::make_unique<serve::Engine>(opts);
  g_interactive = g_engine->add_model(
      make_dnn(), {.priority = serve::Priority::kInteractive, .weight = 4});
  g_background = g_engine->add_model(
      make_dnn(), {.priority = serve::Priority::kBackground});
  (void)cached_input();
  (void)saturating_rps();
}

void TeardownEngineBounded(const benchmark::State&) {
  g_engine->shutdown();
  g_engine.reset();
  g_floor.reset();
}

void BM_ServeOverloadBoundedWait(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  std::uint64_t ia_rejected = 0, bg_rejected = 0;
  for (auto _ : state) {
    run_window_bounded(*g_engine, g_interactive, g_background, load, totals,
                       ia_rejected, bg_rejected);
  }
  report(state, totals, g_engine->class_stats(serve::Priority::kInteractive),
         g_engine->class_stats(serve::Priority::kBackground));
  const double ia_off = static_cast<double>(totals.interactive_offered);
  const double bg_off = static_cast<double>(totals.bg_offered);
  state.counters["interactive_reject_rate"] = benchmark::Counter(
      ia_off > 0.0 ? static_cast<double>(ia_rejected) / ia_off : 0.0);
  state.counters["bg_reject_rate"] = benchmark::Counter(
      bg_off > 0.0 ? static_cast<double>(bg_rejected) / bg_off : 0.0);
  state.counters["admit_budget_ia_us"] = benchmark::Counter(
      std::chrono::duration<double, std::micro>(kIaAdmitBudget).count());
  state.counters["admit_budget_bg_us"] = benchmark::Counter(
      std::chrono::duration<double, std::micro>(kBgAdmitBudget).count());
}

BENCHMARK(BM_ServeOverloadBoundedWait)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupEngineBounded)
    ->Teardown(TeardownEngineBounded)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Grey-failure sweep: 2-shard router, one slow shard -------------------

std::unique_ptr<serve::FaultInjector> g_router_floor;
std::unique_ptr<serve::FaultInjector> g_grey;
std::unique_ptr<serve::ShardRouter> g_router;
serve::ModelId g_router_interactive = 0;
serve::ModelId g_router_background = 0;

void SetupRouter(const benchmark::State&) {
  g_router_floor = std::make_unique<serve::FaultInjector>(
      serve::FaultInjectorOptions{.added_latency = kServiceFloor});
  g_grey = std::make_unique<serve::FaultInjector>(
      serve::FaultInjectorOptions{.added_latency = kGreyFloor});
  serve::ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = kRows;
  opts.engine.max_delay = 0us;
  opts.engine.queue_capacity = 4096;
  opts.engine.shed_capacity = 16;
  opts.tune_shard = [](std::size_t shard, serve::EngineOptions& eo) {
    eo.fault = shard == 1 ? g_grey.get() : g_router_floor.get();
  };
  g_router = std::make_unique<serve::ShardRouter>(opts);
  g_router_interactive = g_router->add_model(
      make_dnn(), "interactive",
      {.priority = serve::Priority::kInteractive, .weight = 4});
  g_router_background = g_router->add_model(
      make_dnn(), "background", {.priority = serve::Priority::kBackground});
  (void)cached_input();
  (void)saturating_rps();
}

void TeardownRouter(const benchmark::State&) {
  g_router->shutdown();
  g_router.reset();
  g_grey.reset();
  g_router_floor.reset();
}

// Same sweep against the degraded fleet.  Offered load scales with the
// HEALTHY fleet size (2 workers): the injected +2ms on shard 1 means
// actual capacity is below that, so each load point is effectively
// hotter than its label -- the curve shows what grey failure costs.
void BM_ServeOverloadFaulty(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  for (auto _ : state) {
    run_window(*g_router, g_router_interactive, g_router_background, load,
               2.0, totals);
  }
  report(state, totals, g_router->class_stats(serve::Priority::kInteractive),
         g_router->class_stats(serve::Priority::kBackground));
  state.counters["injected_delays"] = benchmark::Counter(
      static_cast<double>(g_grey->delayed_batches()));
}

BENCHMARK(BM_ServeOverloadFaulty)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupRouter)
    ->Teardown(TeardownRouter)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// --- Grey-FAILURE sweep: one shard fails batches outright -----------------
//
// BM_ServeOverloadFaulty degrades a shard's latency; this arm degrades
// its RELIABILITY: shard 1 pays the normal service floor but kills 5%
// of its claimed batches with FaultInjectedError
// (FaultInjector::fail_probability).  Injected failures are delivered
// to callers -- mid-service errors must not be blind-retried -- so the
// curve shows what an unreliable shard costs in delivered error rate
// while the error ACCOUNTING stays exact (tests/test_serve_grey.cpp
// pins router errors == sum of shard errors under exactly this setup).
constexpr double kGreyFailProbability = 0.05;

void SetupRouterGrey(const benchmark::State&) {
  g_router_floor = std::make_unique<serve::FaultInjector>(
      serve::FaultInjectorOptions{.added_latency = kServiceFloor});
  g_grey = std::make_unique<serve::FaultInjector>(serve::FaultInjectorOptions{
      .added_latency = kServiceFloor,
      .fail_probability = kGreyFailProbability,
      .seed = 1213});
  serve::ShardRouterOptions opts;
  opts.shards = 2;
  opts.engine.workers = 1;
  opts.engine.max_batch_rows = kRows;
  opts.engine.max_delay = 0us;
  opts.engine.queue_capacity = 4096;
  opts.engine.shed_capacity = 16;
  opts.tune_shard = [](std::size_t shard, serve::EngineOptions& eo) {
    eo.fault = shard == 1 ? g_grey.get() : g_router_floor.get();
  };
  g_router = std::make_unique<serve::ShardRouter>(opts);
  g_router_interactive = g_router->add_model(
      make_dnn(), "interactive",
      {.priority = serve::Priority::kInteractive, .weight = 4});
  g_router_background = g_router->add_model(
      make_dnn(), "background", {.priority = serve::Priority::kBackground});
  (void)cached_input();
  (void)saturating_rps();
}

void BM_ServeOverloadGrey(benchmark::State& state) {
  const double load = static_cast<double>(state.range(0)) / 100.0;
  WindowTotals totals;
  for (auto _ : state) {
    run_window(*g_router, g_router_interactive, g_router_background, load,
               2.0, totals);
  }
  const auto ia = g_router->class_stats(serve::Priority::kInteractive);
  const auto bg = g_router->class_stats(serve::Priority::kBackground);
  report(state, totals, ia, bg);

  // Cross-check the merged ledgers against the per-shard sum: the
  // exactness contract, surfaced where a baseline diff would catch a
  // regression even outside the unit suite.
  std::uint64_t shard_errors = 0;
  for (std::size_t i = 0; i < g_router->num_shards(); ++i) {
    shard_errors += g_router->shard(i).stats(g_router_interactive).errors;
    shard_errors += g_router->shard(i).stats(g_router_background).errors;
  }
  state.counters["grey_failures"] = benchmark::Counter(
      static_cast<double>(g_grey->injected_failures()));
  state.counters["merged_errors"] =
      benchmark::Counter(static_cast<double>(ia.errors + bg.errors));
  state.counters["shard_error_sum"] =
      benchmark::Counter(static_cast<double>(shard_errors));
  const double offered = static_cast<double>(totals.interactive_offered +
                                             totals.bg_offered);
  state.counters["delivered_error_rate"] = benchmark::Counter(
      offered > 0.0 ? static_cast<double>(ia.errors + bg.errors -
                                          ia.shed - ia.expired - bg.shed -
                                          bg.expired) /
                          offered
                    : 0.0);
  state.counters["grey_fail_probability"] =
      benchmark::Counter(kGreyFailProbability);
}

BENCHMARK(BM_ServeOverloadGrey)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Setup(SetupRouterGrey)
    ->Teardown(TeardownRouter)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace radix
