// serve-wire and model-churn: open-loop Poisson traffic of 1-row
// requests over loopback, RemoteBackend -> net::Server -> ShardRouter,
// the model loaded from a RADIXART artifact.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "net/remote_backend.hpp"
#include "net/server.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/loadgen.hpp"
#include "serve/router.hpp"
#include "store/artifact.hpp"
#include "support/random.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using radix::index_t;
using radix::infer::SparseDnn;
namespace serve = radix::serve;
namespace net = radix::net;
namespace store = radix::store;
namespace gc = radix::gc;

// The served model and the radix-served defaults it is served with.
constexpr index_t kNeurons = 1024;
constexpr std::size_t kLayers = 12;
constexpr std::size_t kShards = 2;
constexpr unsigned kWorkersPerShard = 1;
constexpr index_t kMaxBatchRows = 32;
constexpr std::chrono::microseconds kMaxDelay{200};
constexpr std::size_t kQueueCapacity = 256;
constexpr std::size_t kSubmitWorkers = 2;
// Distinct input rows per run; request i sends a seeded draw from them.
constexpr index_t kPoolRows = 512;

/// One rate of an open-loop schedule: Poisson arrivals at `rate` for
/// `share` of the run's seconds.
struct Rung {
  double rate;
  double share;
};

/// The frozen traffic shape of a wire workload.  Rungs [0, cycled) are
/// sub-capacity; they repeat in `windows` cycles, each visiting them in
/// ascending order, so their windows spread over the run and no backlog
/// of a past-capacity rung spills into them.  The remaining rungs ramp
/// past capacity once, at the end, each split into `windows` windows.
struct WireShape {
  const char* name;
  double density;
  std::vector<Rung> rungs;  // ascending rates
  std::size_t cycled;
  std::size_t nominal;      // rung of latency_p50/p99, service and net metrics
  std::size_t peak;         // top sub-capacity rung
  double slo_ms;            // p99 latency limit
  int windows;              // see quietest(): more, shorter windows find a
                            // quiet one more often, but hold fewer samples
  bool churn;
};

// This path saturates at about 20-28k requests/s on a 4-core Xeon VM;
// the ladder runs from well below that to past it.
const WireShape kServeWire{"serve-wire", 0.1,
                           {{4000, 0.3}, {8000, 0.3}, {12000, 0.4 / 7},
                            {16000, 0.4 / 7}, {20000, 0.4 / 7}, {24000, 0.4 / 7},
                            {28000, 0.4 / 7}, {32000, 0.4 / 7}, {36000, 0.4 / 7}},
                           2, 0, 1, 10.0, 8, false};

const WireShape kModelChurn{"model-churn", 0.4, {{1500, 1.0}}, 1, 0, 0, 10.0,
                            20, true};

// model-churn's swap times use this many coarser windows.
constexpr int kSwapWindows = 5;

// model-churn's control loop starts one registry rewrite per period.
constexpr std::chrono::milliseconds kChurnPeriod{50};

// Traffic at the nominal rate before the first cycle, to connect and
// warm every thread; its requests are checked but not measured.
constexpr double kWarmupSeconds = 1.0;
constexpr std::uint32_t kWarmupRung = ~std::uint32_t{0};

enum class Status : std::uint8_t { kPending, kOk, kWrong, kError, kRefused };

// Everything recorded about one scheduled request.  The generator thread
// writes the send/ack fields, the completion callback the rest; the
// main thread reads them after every generator joined and every
// admitted request completed.
struct Slot {
  double sched_s = 0.0;  // due time, seconds after the schedule start
  std::uint32_t rung = 0;
  std::uint32_t window = 0;
  std::uint32_t row = 0;
  std::int64_t send_ns = 0;
  std::int64_t ack_ns = 0;
  std::int64_t done_ns = 0;
  double queue_s = 0.0;
  double total_s = 0.0;
  std::uint32_t batch_rows = 0;
  std::uint64_t server_id = 0;
  Status status = Status::kPending;
};

// The serving stack under test, torn down clients -> server -> router.
struct Stack {
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<net::RemoteBackend>> clients;
  std::shared_ptr<const SparseDnn> dnn;
  serve::ModelId model = 0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    clients.clear();
    if (server) server->stop();
    if (router) router->shutdown();
  }
};

// Timings of the store and registry steps, collected over set-up and the
// churn loop; the per-layer metrics are their medians.
struct LoadSamples {
  std::vector<double> build_s, open_ms, validate_gbps, instantiate_ms,
      regen_ms, prewarm_ms, swap_ms, add_remove_ms;
  std::uint64_t bytes_mapped = 0;
};

struct Loaded {
  std::shared_ptr<const SparseDnn> dnn;
  std::int64_t open_ns = 0;  // when the artifact open began
};

// ArtifactReader -> instantiate, timed into `samples`.
Loaded load_artifact(const std::string& path, LoadSamples& samples,
                     SpanLog& log) {
  Loaded out;
  out.open_ns = now_ns();
  store::ArtifactReader reader(path);
  const std::int64_t t1 = now_ns();
  out.dnn = std::make_shared<const SparseDnn>(reader.instantiate());
  const std::int64_t t2 = now_ns();
  samples.open_ms.push_back(ms_between(out.open_ns, t1));
  samples.validate_gbps.push_back(static_cast<double>(reader.file_size()) /
                                  (ms_between(out.open_ns, t1) * 1e-3) / 1e9);
  (reader.spec_only() ? samples.regen_ms : samples.instantiate_ms)
      .push_back(ms_between(t1, t2));
  if (!reader.spec_only()) samples.bytes_mapped = reader.mapped_size();
  log.record("store.open", 0, out.open_ns, t1,
             "\"bytes\": " + std::to_string(reader.file_size()));
  log.record(reader.spec_only() ? "radixnet.regen" : "store.instantiate",
             0, t1, t2);
  return out;
}

// Seeded Poisson arrivals: the warm-up, the cycles of sub-capacity
// rungs, then the ramp.
std::vector<Slot> make_schedule(const WireShape& shape, const RunOptions& o) {
  std::vector<Slot> slots;
  radix::Rng row_rng(o.seed * 0x2545f4914f6cdd1dull + 7);
  double t = 0.0;
  // Arrivals of `rung` for `dur` seconds from t, in windows first.. of
  // equal length.
  const auto add = [&](std::uint32_t rung, double rate, double dur,
                       std::uint32_t first, std::uint32_t windows) {
    serve::ArrivalProcessOptions ap;
    ap.rate = serve::constant_rate(rate);
    ap.peak_rate = rate;
    ap.seed = (o.seed * 1000 + first) * 1000 + rung;
    serve::ArrivalProcess arrivals(ap);
    for (double a = arrivals.next(); a < dur; a = arrivals.next()) {
      Slot s;
      s.sched_s = t + a;
      s.rung = rung;
      s.window = first + static_cast<std::uint32_t>(a / dur * windows);
      s.row = static_cast<std::uint32_t>(row_rng.uniform(kPoolRows));
      slots.push_back(s);
    }
    t += dur;
  };
  add(kWarmupRung, shape.rungs[shape.nominal].rate, kWarmupSeconds, 0, 1);
  const auto windows = static_cast<std::uint32_t>(shape.windows);
  for (std::uint32_t c = 0; c < windows; ++c) {
    for (std::uint32_t i = 0; i < shape.cycled; ++i) {
      add(i, shape.rungs[i].rate, shape.rungs[i].share * o.seconds / windows,
          c, 1);
    }
  }
  for (auto i = static_cast<std::uint32_t>(shape.cycled); i < shape.rungs.size(); ++i) {
    add(i, shape.rungs[i].rate, shape.rungs[i].share * o.seconds, 0, windows);
  }
  return slots;
}

// Sleep to `due` in short steps.  A VM guest halt-polls an idle vCPU
// for a while before halting it, and waking a halted vCPU costs
// milliseconds at p99; steps shorter than the poll window keep the
// generator's own wake-ups, and so its lag, in the tens of microseconds
// without spinning on a core the server needs.
void wait_until(Clock::time_point due) {
  constexpr auto kStep = std::chrono::microseconds(50);
  for (auto now = Clock::now(); now < due; now = Clock::now()) {
    std::this_thread::sleep_for(std::min<Clock::duration>(due - now, kStep));
  }
}

// Generator threads (and connections) for a shape: one per 5k
// requests/s of its top rate, at most one per core.  RemoteBackend::
// submit blocks for the admission ack, so a thread sends at most one
// request per ack round-trip (about 0.1 ms unloaded).  One thread per
// 5k req/s gives it 200 us per request, 2x that round-trip.  Clamped to
// 4 cores, serve-wire's 36k req/s rung leaves 111 us per request, about
// one unloaded round-trip: the top rungs are ack-limited by design, and
// the per-rung INFO lines (ack time, the rate the threads could send at
// it, server queue wait, lag) show which rungs were.
std::size_t generator_threads(const WireShape& shape) {
  const auto want = static_cast<std::size_t>(std::ceil(shape.rungs.back().rate / 5000));
  return std::clamp<std::size_t>(want, 1, std::max(1u, std::thread::hardware_concurrency()));
}

// The benchmark's inputs, made once per run before any timed set-up:
// the network built by radixnet and saved as the served artifact, plus
// for model-churn its spec-only twin and the side model.
void write_artifacts(const WireShape& shape, const RunOptions& o,
                     LoadSamples& samples, SpanLog& log) {
  const std::int64_t t0 = now_ns();
  const gc::Network net = gc::network(kNeurons, kLayers, nullptr);
  const std::int64_t t1 = now_ns();
  samples.build_s.push_back(ms_between(t0, t1) * 1e-3);
  log.record("radixnet.build", 0, t0, t1);
  const SparseDnn built(net.layers, net.bias, gc::kClamp);
  store::save_artifact(o.work_dir + "/served.radixart", built, "served");
  if (shape.churn) {
    const std::vector<float> weights(kLayers, gc::kWeight);
    store::save_spec_artifact(o.work_dir + "/served_spec.radixart",
                              gc::spec(kNeurons, kLayers), weights,
                              built.biases(), gc::kClamp, "served");
    radix::Rng side_rng(o.seed + 17);
    const gc::Network side = gc::network(kNeurons, kLayers, &side_rng);
    store::save_artifact(o.work_dir + "/side.radixart",
                         SparseDnn(side.layers, side.bias, gc::kClamp), "side");
  }
}

// Set up the stack once: load the served artifact, register it on a
// fresh router, start the server and connect the generator clients.
// Returns the set-up seconds.
double set_up(Stack& stack, const WireShape& shape, const RunOptions& o,
              serve::Tracer* tracer, LoadSamples& samples, SpanLog& log) {
  ScopedSpan span(log, "perfbench.setup");
  const std::int64_t t0 = now_ns();
  const Loaded loaded = load_artifact(o.work_dir + "/served.radixart", samples, log);

  serve::ShardRouterOptions ro;
  ro.shards = kShards;
  ro.engine.workers = kWorkersPerShard;
  ro.engine.max_batch_rows = kMaxBatchRows;
  ro.engine.max_delay = kMaxDelay;
  ro.engine.queue_capacity = kQueueCapacity;
  ro.engine.tracer = tracer;
  stack.router = std::make_unique<serve::ShardRouter>(ro);
  const std::int64_t a0 = now_ns();
  stack.model = stack.router->add_model(loaded.dnn, "served");
  const std::int64_t a1 = now_ns();
  log.record("serve.add_model", 0, a0, a1);
  stack.dnn = loaded.dnn;

  net::ServerOptions so;
  so.submit_workers = kSubmitWorkers;
  so.hooks = net::make_admin_hooks(*stack.router);
  stack.server = std::make_unique<net::Server>(*stack.router, so);
  for (std::size_t g = 0; g < generator_threads(shape); ++g) {
    stack.clients.push_back(
        std::make_unique<net::RemoteBackend>(stack.server->port()));
  }
  return ms_between(t0, now_ns()) * 1e-3;
}

// Model-to-ready of a new version on the running stack: artifact open
// until add_model (which prewarms) returns; the version is removed
// again untimed.
double model_to_ready(Stack& stack, const RunOptions& o, LoadSamples& samples,
                      SpanLog& log) {
  const Loaded v = load_artifact(o.work_dir + "/served.radixart", samples, log);
  const serve::ModelId id = stack.router->add_model(v.dnn, "version");
  const std::int64_t ready = now_ns();
  log.record("perfbench.model_to_ready", 0, v.open_ns, ready);
  stack.router->remove_model(id);
  return ms_between(v.open_ns, ready);
}

// The registry writer of model-churn: every period, swap the served
// model to a freshly loaded version, then add and remove the side
// model.  Every third swap loads the spec-only artifact, the others the
// full-CSR one: a 1:1 mix would put the swap median between the two
// load paths' clusters, where it is set by their extremes.
void churn_loop(Stack& stack, const RunOptions& o, const std::atomic<bool>& stop,
                LoadSamples& samples, std::vector<double>& swap_ms,
                std::vector<std::pair<std::int64_t, std::int64_t>>& swap_spans,
                SpanLog& log) {
  const std::string full = o.work_dir + "/served.radixart";
  const std::string spec = o.work_dir + "/served_spec.radixart";
  const std::string side_path = o.work_dir + "/side.radixart";
  auto next = Clock::now();
  for (std::uint64_t c = 0; !stop.load(std::memory_order_acquire); ++c) {
    std::this_thread::sleep_until(next);
    next += kChurnPeriod;
    ScopedSpan cycle(log, "perfbench.churn_cycle");
    const Loaded v = load_artifact(c % 3 == 2 ? spec : full, samples, log);
    const std::int64_t s0 = now_ns();
    stack.router->swap_model(stack.model, v.dnn);
    const std::int64_t s1 = now_ns();
    log.record("serve.swap_model", 0, s0, s1);
    samples.swap_ms.push_back(ms_between(s0, s1));
    swap_ms.push_back(ms_between(v.open_ns, s1));
    swap_spans.emplace_back(v.open_ns, s1);

    const Loaded side = load_artifact(side_path, samples, log);
    const std::int64_t r0 = now_ns();
    const serve::ModelId id = stack.router->add_model(side.dnn, "side");
    stack.router->remove_model(id);
    const std::int64_t r1 = now_ns();
    log.record("serve.add_remove", 0, r0, r1);
    samples.add_remove_ms.push_back(ms_between(r0, r1));
  }
}

// One rung's requests; latencies of correct requests, from their due
// time, grouped by window.
struct RungStats {
  std::uint64_t sent = 0, ok = 0, failed = 0;
  std::vector<std::vector<double>> lat_ms;
  std::vector<double> lag_ms;    // send - due
  std::vector<double> ack_ms;    // RemoteBackend::submit call
  std::vector<double> queue_ms;  // server queue wait, correct requests
  double p50 = 0.0, p99 = 0.0, last_p50 = 0.0, attainment = 0.0, lag_p99 = 0.0;
  bool pass = false;
};

Result run_wire(const WireShape& shape, const RunOptions& o, SpanLog& log) {
  std::filesystem::create_directories(o.work_dir);
  std::unique_ptr<serve::Tracer> tracer;
  if (o.trace) {
    serve::TracerOptions to;
    to.ring_capacity = std::size_t{1} << 13;
    tracer = std::make_unique<serve::Tracer>(to);
  }
  LoadSamples samples;
  write_artifacts(shape, o, samples, log);
  std::vector<double> setup_s;
  auto stack = std::make_unique<Stack>();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) stack = std::make_unique<Stack>();
    setup_s.push_back(set_up(*stack, shape, o, tracer.get(), samples, log));
  }

  // Input pool and its expected rows from a direct forward.
  radix::Rng in_rng(o.seed * 0x9e3779b97f4a7c15ull + 3);
  const std::vector<float> pool =
      gc::synthetic_input(kPoolRows, kNeurons, shape.density, in_rng);
  const std::vector<float> expected = stack->dnn->forward(pool, kPoolRows);
  const index_t out_w = stack->dnn->output_width();

  std::vector<Slot> slots = make_schedule(shape, o);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> admitted{0}, completed{0};

  std::atomic<bool> stop_churn{false};
  // A registry write (churn loop, model-to-ready load) threw.
  std::atomic<bool> registry_failed{false};
  std::vector<double> churn_swap_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> swap_spans;

  const std::int64_t start_ns = now_ns() + 20'000'000;  // 20 ms to spin up
  std::vector<std::thread> gens;
  for (std::size_t g = 0; g < stack->clients.size(); ++g) {
    gens.emplace_back([&, g] {
      // Timer slack would add up to 50 us to every step above.
      prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      net::RemoteBackend& client = *stack->clients[g];
      for (std::size_t i = next.fetch_add(1); i < slots.size();
           i = next.fetch_add(1)) {
        Slot& s = slots[i];
        const auto due = Clock::time_point(std::chrono::nanoseconds(
            start_ns + static_cast<std::int64_t>(s.sched_s * 1e9)));
        wait_until(due);
        serve::SubmitOptions so;
        so.done = [&s, &completed, &expected, out_w](
                      std::span<const float> out, const serve::RequestTiming& t,
                      std::exception_ptr error) {
          s.done_ns = now_ns();
          s.queue_s = t.queue_seconds;
          s.total_s = t.total_seconds;
          s.batch_rows = static_cast<std::uint32_t>(t.batch_rows);
          s.server_id = t.request_id;
          const float* want = expected.data() + std::size_t{s.row} * out_w;
          s.status = error ? Status::kError
                     : out.size() == out_w &&
                             std::memcmp(out.data(), want,
                                         out_w * sizeof(float)) == 0
                         ? Status::kOk
                         : Status::kWrong;
          completed.fetch_add(1, std::memory_order_release);
        };
        s.send_ns = now_ns();
        const std::span<const float> row(
            pool.data() + std::size_t{s.row} * kNeurons, kNeurons);
        try {
          const serve::SubmitResult res = client.submit(
              serve::InferenceRequest::borrowed(stack->model, row, 1),
              std::move(so));
          s.ack_ns = now_ns();
          if (res.admitted()) {
            admitted.fetch_add(1, std::memory_order_relaxed);
          } else {
            s.status = Status::kRefused;
          }
        } catch (const std::exception&) {
          s.ack_ns = now_ns();
          s.status = Status::kError;
        }
      }
    });
  }
  std::thread churn;
  if (shape.churn) {
    churn = std::thread([&] {
      try {
        churn_loop(*stack, o, stop_churn, samples, churn_swap_ms, swap_spans, log);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "model-churn control loop: %s\n", e.what());
        registry_failed = true;
      }
    });
  }
  // The serving workers' counters before and after the sub-capacity
  // cycles (class counters, unlike per-model ones, survive model-churn's
  // swaps).  Between them serve-wire runs its model-to-ready loads,
  // spread over the cycles so their median does not rest on one stretch
  // of the host.
  double cycles_s = 0.0;
  for (std::size_t i = 0; i < shape.cycled; ++i) cycles_s += shape.rungs[i].share * o.seconds;
  const auto sleep_to = [&](double s) {
    std::this_thread::sleep_until(Clock::time_point(
        std::chrono::nanoseconds(start_ns + static_cast<std::int64_t>(s * 1e9))));
  };
  sleep_to(kWarmupSeconds);
  const serve::ServeStats first = stack->router->class_stats(serve::Priority::kBatch);
  std::vector<double> ready_ms;
  for (int k = 0; !shape.churn && k < kReadyReps; ++k) {
    sleep_to(kWarmupSeconds + cycles_s * (k + 0.5) / kReadyReps);
    try {
      ready_ms.push_back(model_to_ready(*stack, o, samples, log));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "model-to-ready load: %s\n", e.what());
      registry_failed = true;
    }
  }
  sleep_to(kWarmupSeconds + cycles_s);
  const serve::ServeStats last = stack->router->class_stats(serve::Priority::kBatch);
  for (auto& t : gens) t.join();
  stop_churn.store(true, std::memory_order_release);
  if (churn.joinable()) churn.join();
  const double schedule_s = ms_between(start_ns, now_ns()) * 1e-3;
  // Every admitted request completes (the Backend contract); bound the
  // wait anyway so a lost completion fails the run instead of hanging it.
  const std::int64_t drain_deadline = now_ns() + 30'000'000'000;
  while (completed.load(std::memory_order_acquire) <
             admitted.load(std::memory_order_relaxed) &&
         now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool drained = completed.load(std::memory_order_acquire) ==
                       admitted.load(std::memory_order_relaxed);
  const std::uint64_t orphaned = stack->server->orphaned_responses();
  // Edges per busy second of the serving workers over the cycles.
  const double busy_s = last.busy_seconds - first.busy_seconds;
  const auto batches = static_cast<double>(last.batches - first.batches);
  std::printf("INFO %s: serving workers over the cycles: batches=%.0f "
              "rows_per_batch=%.3f busy_s=%.4f\n",
              shape.name, batches,
              static_cast<double>(last.rows - first.rows) / std::max(1.0, batches), busy_s);

  // Per-rung statistics from the raw samples.
  const double slo = shape.slo_ms;
  std::vector<RungStats> rungs(shape.rungs.size());
  for (RungStats& rs : rungs) rs.lat_ms.resize(shape.windows);
  Result r;
  std::vector<double> lag_all;
  for (const Slot& s : slots) {
    ++r.attempted;
    if (s.status != Status::kOk) {
      ++r.failed;
      if (s.status == Status::kWrong || s.status == Status::kPending) r.correct = false;
    }
    if (s.rung == kWarmupRung) continue;
    RungStats& rs = rungs[s.rung];
    ++rs.sent;
    const double due_ns = static_cast<double>(start_ns) + s.sched_s * 1e9;
    rs.lag_ms.push_back((static_cast<double>(s.send_ns) - due_ns) * 1e-6);
    // The generator's health is judged below capacity; past it, lag is
    // how a stall is meant to show.
    if (s.rung < shape.cycled) lag_all.push_back(rs.lag_ms.back());
    rs.ack_ms.push_back(ms_between(s.send_ns, s.ack_ns));
    if (s.status != Status::kOk) {
      ++rs.failed;
      continue;
    }
    ++rs.ok;
    rs.queue_ms.push_back(s.queue_s * 1e3);
    rs.lat_ms[s.window].push_back((static_cast<double>(s.done_ns) - due_ns) * 1e-6);
  }
  if (!drained) r.correct = false;
  // Registry writes are operations too.
  r.attempted += churn_swap_ms.size() + ready_ms.size() + (registry_failed ? 1 : 0);
  if (registry_failed) {
    ++r.failed;
    r.correct = false;
  }
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    RungStats& rs = rungs[i];
    std::vector<double> all;
    for (const auto& w : rs.lat_ms) all.insert(all.end(), w.begin(), w.end());
    const auto within = std::count_if(all.begin(), all.end(),
                                      [&](double v) { return v <= slo; });
    rs.p50 = percentile(all, 0.5);
    rs.p99 = quietest(rs.lat_ms, 0.99);
    rs.last_p50 = percentile(rs.lat_ms.back(), 0.5);
    rs.lag_p99 = percentile(rs.lag_ms, 0.99);
    // Failures count as misses.
    rs.attainment = rs.sent ? static_cast<double>(within) / rs.sent : 0.0;
    // Meets the SLO with no growing backlog: nothing failed, p99 inside
    // the limit, and the last window's median inside it too (a backlog
    // that grows through the rung ends there).
    rs.pass = rs.failed == 0 && rs.p99 <= slo && rs.last_p50 <= slo;
    // The most the generator threads could send at this rung's mean ack
    // time.  A rung offered 90% of that or more is ack-limited: its lag
    // is set by the ack path (wire + admission) as much as by the
    // server's queue, which queue_p99_ms shows.
    double ack_mean_ms = 0.0;
    for (double v : rs.ack_ms) ack_mean_ms += v;
    ack_mean_ms /= static_cast<double>(std::max<std::size_t>(1, rs.ack_ms.size()));
    const double ceiling_rps =
        ack_mean_ms > 0 ? static_cast<double>(stack->clients.size()) * 1e3 / ack_mean_ms
                        : 0.0;
    std::printf("INFO %s rung=%zu rate=%.0f sent=%llu ok=%llu failed=%llu "
                "p50_ms=%.4f quietest_window_p99_ms=%.4f (%d windows of about "
                "%zu) all_p99_ms=%.4f last_window_p50_ms=%.4f attainment=%.5f "
                "lag_p99_ms=%.4f ack_p50_ms=%.4f ack_p99_ms=%.4f "
                "sendable_rps=%.0f queue_p99_ms=%.4f %s%s\n",
                shape.name, i, shape.rungs[i].rate,
                static_cast<unsigned long long>(rs.sent),
                static_cast<unsigned long long>(rs.ok),
                static_cast<unsigned long long>(rs.failed), rs.p50, rs.p99,
                shape.windows, all.size() / shape.windows, percentile(all, 0.99),
                rs.last_p50, rs.attainment, rs.lag_p99, percentile(rs.ack_ms, 0.5),
                percentile(rs.ack_ms, 0.99), ceiling_rps,
                percentile(rs.queue_ms, 0.99), rs.pass ? "PASS" : "MISS",
                shape.rungs[i].rate >= 0.9 * ceiling_rps ? " ack-limited" : "");
  }

  // Highest ladder rate inside the SLO, interpolated toward the first
  // rung that misses it on the larger of p99 and last-window median.
  double max_rate = 0.0;
  const auto figure = [](const RungStats& rs) { return std::max(rs.p99, rs.last_p50); };
  for (std::size_t i = 0; i < rungs.size() && rungs[i].pass; ++i) {
    max_rate = shape.rungs[i].rate;
    if (i + 1 < rungs.size() && !rungs[i + 1].pass) {
      const double span = figure(rungs[i + 1]) - figure(rungs[i]);
      const double f =
          span > 0 ? std::clamp((slo - figure(rungs[i])) / span, 0.0, 1.0) : 0.0;
      max_rate += f * (shape.rungs[i + 1].rate - shape.rungs[i].rate);
    }
  }
  // The peak rung is fixed, not the top rung that passed: a cycled rung
  // near capacity would spill its backlog into the nominal windows that
  // follow it.  The top passing rung is printed for context.
  std::size_t top_pass = 0;
  while (top_pass + 1 < rungs.size() && rungs[top_pass + 1].pass) ++top_pass;
  if (!shape.churn && rungs[0].pass) {
    std::printf("INFO %s: peak rung %.0f req/s (fixed); top passing rung %.0f "
                "req/s, quietest_window_p99_ms=%.4f\n",
                shape.name, shape.rungs[shape.peak].rate,
                shape.rungs[top_pass].rate, rungs[top_pass].p99);
  }

  const RungStats& nominal = rungs[shape.nominal];
  const RungStats& peak = rungs[shape.peak];
  auto& e = r.end_to_end;
  e.push_back({"setup_s", percentile(setup_s, 0.5), "s"});
  e.push_back({"edges_per_s",
               busy_s > 0 ? static_cast<double>(last.edges - first.edges) / busy_s : 0.0,
               "1/s"});
  e.push_back({"latency_p50_ms", nominal.p50, "ms"});
  e.push_back({"latency_p99_ms", nominal.p99, "ms"});
  double swap_tail = percentile(ready_ms, 0.9);
  if (shape.churn) {
    // Swap-window group of a time, over the measured span after warm-up.
    const auto group = [&](std::int64_t t_ns) {
      const double t = ms_between(start_ns, t_ns) * 1e-3 - kWarmupSeconds;
      return std::clamp(static_cast<int>(t / o.seconds * kSwapWindows), 0,
                        kSwapWindows - 1);
    };
    // Peak for model-churn: p99 of requests in flight while a swap was,
    // pooled over the quietest quarter of the windows (ranked by their
    // all-request p99) -- too few such requests per window for one
    // window's p99.
    std::vector<std::pair<double, int>> ranked;
    for (int w = 0; w < shape.windows; ++w) {
      if (!rungs[0].lat_ms[w].empty()) {
        ranked.emplace_back(percentile(rungs[0].lat_ms[w], 0.99), w);
      }
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<char> quiet(shape.windows, 0);
    for (std::size_t k = 0; k < std::max<std::size_t>(1, ranked.size() / 4); ++k) {
      quiet[ranked[k].second] = 1;
    }
    std::vector<double> churn_lat;
    std::vector<std::vector<double>> swap_groups(kSwapWindows);
    for (const Slot& s : slots) {
      if (s.status != Status::kOk || s.rung == kWarmupRung || !quiet[s.window]) continue;
      const auto due = start_ns + static_cast<std::int64_t>(s.sched_s * 1e9);
      for (const auto& [a, b] : swap_spans) {
        if (due <= b && s.done_ns >= a) {
          churn_lat.push_back(ms_between(due, s.done_ns));
          break;
        }
        if (a > s.done_ns) break;
      }
    }
    for (std::size_t k = 0; k < swap_spans.size(); ++k) {
      swap_groups[group(swap_spans[k].first)].push_back(churn_swap_ms[k]);
    }
    e.push_back({"peak_latency_p99_ms", percentile(churn_lat, 0.99), "ms"});
    swap_tail = quietest(swap_groups, 0.9);
    std::printf("INFO model-churn: peak n=%zu in-swap requests of the %zu "
                "quietest windows\n", churn_lat.size(), ranked.size() / 4);
  } else {
    e.push_back({"peak_latency_p99_ms", peak.p99, "ms"});
  }
  e.push_back({"slo_attainment", peak.attainment, "fraction"});
  // model-churn runs one fixed rate: its figure is the rate served
  // inside the SLO there.
  e.push_back({"max_rate_in_slo_rps",
               shape.churn ? shape.rungs[0].rate * rungs[0].attainment : max_rate,
               "1/s"});
  const std::vector<double>& swaps = shape.churn ? churn_swap_ms : ready_ms;
  e.push_back({"swap_p50_ms", percentile(swaps, 0.5), "ms"});
  e.push_back({"swap_tail_ms", swap_tail, "ms"});
  std::printf("INFO %s: requests=%zu schedule_s=%.3f swaps=%zu (tail: p90) "
              "generator_threads=%zu drained=%s\n",
              shape.name, slots.size(), schedule_s, swaps.size(),
              stack->clients.size(), drained ? "yes" : "no");

  if (o.trace) {
    auto& l = r.per_layer;
    const auto med = [](const std::vector<double>& v) { return percentile(v, 0.5); };
    l.push_back({"radixnet.build_s", med(samples.build_s), "s"});
    // Only model-churn loads spec-only artifacts and swaps models.
    if (shape.churn) {
      l.push_back({"radixnet.regen_ms", med(samples.regen_ms), "ms"});
      l.push_back({"serve.swap_ms", med(samples.swap_ms), "ms"});
      l.push_back({"serve.add_remove_ms", med(samples.add_remove_ms), "ms"});
    }
    l.push_back({"store.open_ms", med(samples.open_ms), "ms"});
    l.push_back({"store.instantiate_ms", med(samples.instantiate_ms), "ms"});
    l.push_back({"store.validate_gbps", med(samples.validate_gbps), "GB/s"});
    l.push_back({"store.bytes_mapped", static_cast<double>(samples.bytes_mapped), "B"});
    // Prewarm of fresh instances of the served artifact(s), timed apart
    // from the registry calls that run it inside the program.
    for (int rep = 0; rep < kSetupReps; ++rep) {
      for (const char* f : {"/served.radixart", "/served_spec.radixart"}) {
        if (!shape.churn && std::string(f) != "/served.radixart") continue;
        const SparseDnn fresh = store::ArtifactReader(o.work_dir + f).instantiate();
        ScopedSpan pw(log, "infer.prewarm");
        fresh.prewarm();
        samples.prewarm_ms.push_back(pw.elapsed_ms());
      }
    }
    l.push_back({"infer.prewarm_ms", med(samples.prewarm_ms), "ms"});

    // Replay a forward of the served mean batch size from outside.
    std::vector<double> rows, queue_ms, service_ms, ack_ms, overhead_ms;
    for (const Slot& s : slots) {
      if (s.status != Status::kOk || s.rung == kWarmupRung) continue;
      const bool at_peak = shape.churn || s.rung == shape.peak;
      const bool at_nominal = shape.churn || s.rung == shape.nominal;
      if (at_peak) {
        rows.push_back(s.batch_rows);
        queue_ms.push_back(s.queue_s * 1e3);
      }
      if (at_nominal) {
        service_ms.push_back((s.total_s - s.queue_s) * 1e3);
        ack_ms.push_back(ms_between(s.send_ns, s.ack_ns));
        overhead_ms.push_back(ms_between(s.send_ns, s.done_ns) - s.total_s * 1e3);
      }
    }
    double mean_rows = 0.0;
    for (double v : rows) mean_rows += v;
    mean_rows = rows.empty() ? 1.0 : mean_rows / static_cast<double>(rows.size());
    const auto batch = static_cast<index_t>(
        std::clamp(std::lround(mean_rows), 1L, static_cast<long>(kMaxBatchRows)));
    if (!profile_inference(*stack->dnn, pool.data(), batch, log, l)) r.correct = false;

    l.push_back({"serve.queue_wait_p50_ms", percentile(queue_ms, 0.5), "ms"});
    l.push_back({"serve.queue_wait_p99_ms", percentile(queue_ms, 0.99), "ms"});
    l.push_back({"serve.batch_rows_mean", mean_rows, "rows"});
    l.push_back({"serve.service_p50_ms", percentile(service_ms, 0.5), "ms"});
    l.push_back({"serve.service_p99_ms", percentile(service_ms, 0.99), "ms"});
    l.push_back({"net.submit_ack_p50_ms", percentile(ack_ms, 0.5), "ms"});
    l.push_back({"net.submit_ack_p99_ms", percentile(ack_ms, 0.99), "ms"});
    l.push_back({"net.overhead_p50_ms", percentile(overhead_ms, 0.5), "ms"});
    l.push_back({"net.overhead_p99_ms", percentile(overhead_ms, 0.99), "ms"});
    l.push_back({"net.orphaned_responses", static_cast<double>(orphaned), "count"});
    l.push_back({"loadgen.lag_p99_ms", percentile(lag_all, 0.99), "ms"});
    l.push_back({"loadgen.sent", static_cast<double>(r.attempted), "count"});
    l.push_back({"loadgen.failed", static_cast<double>(r.failed), "count"});
    std::printf("INFO %s layers: queue n=%zu service n=%zu ack n=%zu "
                "replay_batch=%u\n",
                shape.name, queue_ms.size(), service_ms.size(), ack_ms.size(),
                static_cast<unsigned>(batch));

    // Request spans of every 8th request, rebuilt from the recorded
    // timestamps; each carries the server's RequestId so it joins the
    // program's own trace events.
    for (std::size_t i = 0; i < slots.size(); i += 8) {
      const Slot& s = slots[i];
      const auto due = start_ns + static_cast<std::int64_t>(s.sched_s * 1e9);
      std::ostringstream a;
      a << "\"request\": " << i << ", \"rung\": " << s.rung
        << ", \"server_request_id\": " << s.server_id
        << ", \"status\": " << static_cast<int>(s.status)
        << ", \"queue_ms\": " << json_number(s.queue_s * 1e3)
        << ", \"server_total_ms\": " << json_number(s.total_s * 1e3)
        << ", \"batch_rows\": " << s.batch_rows;
      const std::uint64_t id =
          log.record("request", 0, due, std::max(s.done_ns, s.ack_ns), a.str());
      log.record("net.submit", id, s.send_ns, s.ack_ns);
    }
    for (const serve::TraceEvent& ev : tracer->drain()) {
      std::ostringstream n;
      n << "{\"event\": \"" << serve::to_string(ev.kind)
        << "\", \"server_request_id\": " << ev.id << ", \"t_ns\": " << ev.t_ns
        << ", \"shard\": " << ev.shard << ", \"rows\": " << ev.rows << "}";
      log.note(n.str());
    }
    log.note("{\"tracer_dropped\": " + std::to_string(tracer->dropped()) + "}");
  }
  return r;
}

}  // namespace

Result run_serve_wire(const RunOptions& options, SpanLog& log) {
  return run_wire(kServeWire, options, log);
}

Result run_model_churn(const RunOptions& options, SpanLog& log) {
  return run_wire(kModelChurn, options, log);
}

}  // namespace perfbench
