// End-to-end tests of the networked serving front-end: an in-process
// net::Server fronting a bare Engine (Backend verbs only, no admin
// hooks) or a ShardRouter (with its admin hooks), driven through
// net::RemoteBackend over a loopback socket.  The load-bearing claims:
// remote submission is bit-exact with a direct fused forward, stats
// fetched over the wire match the in-process snapshot EXACTLY (raw
// histogram grids included), admin verbs round-trip -- answered from
// the router's registry, so they stay right while shard 0 is down --
// a client that disconnects mid-request orphans its responses
// (dropped and counted, never written to a dead socket), and a response
// that lands just before the server closes the connection is still
// the client's answer.
#include "net/server.hpp"

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/remote_backend.hpp"
#include "net/socket.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "store/artifact.hpp"
#include "support/random.hpp"

namespace radix::net {
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

/// A scratch directory for artifacts, removed with its contents.
struct ScratchDir {
  std::filesystem::path dir = std::filesystem::temp_directory_path() /
                              ("radix_serve_net_" + std::to_string(::getpid()));
  ScratchDir() { std::filesystem::create_directories(dir); }
  ~ScratchDir() { std::filesystem::remove_all(dir); }
  std::string path(const std::string& name) const {
    return (dir / name).string();
  }
};

/// In-process served stack: backend + server, torn down in reverse.
struct Served {
  std::shared_ptr<infer::SparseDnn> dnn;
  std::unique_ptr<serve::Engine> engine;
  std::unique_ptr<serve::ShardRouter> router;
  serve::Backend* backend = nullptr;
  std::unique_ptr<Server> server;

  serve::Backend& local() { return *backend; }

  Served() = default;
  Served(Served&& other) noexcept
      : dnn(std::move(other.dnn)),
        engine(std::move(other.engine)),
        router(std::move(other.router)),
        backend(std::exchange(other.backend, nullptr)),
        server(std::move(other.server)) {}
  Served& operator=(Served&&) = delete;

  ~Served() {
    if (server) server->stop();
    if (backend) backend->shutdown();
  }
};

Served engine_served(serve::EngineOptions engine_options = {.workers = 1},
                     std::size_t layers = 4) {
  Served s;
  s.dnn = make_dnn(1024, layers, 71);
  s.engine = std::make_unique<serve::Engine>(engine_options);
  s.backend = s.engine.get();
  s.engine->add_model(s.dnn, "alpha",
                      {.priority = serve::Priority::kInteractive});
  s.engine->add_model(s.dnn, "beta", {.priority = serve::Priority::kBatch});
  s.server = std::make_unique<Server>(*s.backend);
  return s;
}

Served router_served(std::size_t shards = 2) {
  Served s;
  s.dnn = make_dnn(1024, 4, 72);
  s.router = std::make_unique<serve::ShardRouter>(
      serve::ShardRouterOptions{.shards = shards, .engine = {.workers = 1}});
  s.backend = s.router.get();
  s.router->add_model(s.dnn, "alpha",
                      {.priority = serve::Priority::kInteractive});
  ServerOptions options;
  options.hooks = make_admin_hooks(*s.router);
  s.server = std::make_unique<Server>(*s.backend, options);
  return s;
}

TEST(ServeNet, SubmitFutureBitExactAndStatsMatchInProcess) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  EXPECT_TRUE(remote.accepting());

  constexpr index_t kRequests = 24;
  Rng irng(73);
  std::vector<std::vector<float>> inputs;
  std::vector<std::vector<float>> want;
  for (index_t i = 0; i < kRequests; ++i) {
    const index_t rows = 1 + i % 3;
    inputs.push_back(gc::synthetic_input(rows, 1024, 0.4, irng));
    want.push_back(direct_forward(*s.dnn, inputs[i], rows));
  }

  std::vector<std::future<std::vector<float>>> futures;
  for (index_t i = 0; i < kRequests; ++i) {
    auto result = remote.submit(
        serve::InferenceRequest::borrowed(0, inputs[i], 1 + i % 3));
    ASSERT_TRUE(result.admitted());
    EXPECT_NE(result.request_id(), 0u)
        << "the server-assigned RequestId must cross the wire";
    futures.push_back(result.take_future());
  }
  for (index_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(futures[i].get(), want[i])
        << "remote request " << i << " must be bit-exact";
  }

  // The wire stats ARE the in-process stats: identical counters and
  // identical raw histogram grids, not approximations.
  const serve::ServeStats local = s.local().stats(0);
  const serve::ServeStats wire = remote.stats(0);
  EXPECT_EQ(wire.requests, kRequests);
  EXPECT_EQ(wire.requests, local.requests);
  EXPECT_EQ(wire.rows, local.rows);
  EXPECT_EQ(wire.errors, local.errors);
  EXPECT_EQ(wire.e2e_p99, local.e2e_p99);
  EXPECT_EQ(wire.e2e_hist.raw_counts(), local.e2e_hist.raw_counts());
  EXPECT_EQ(wire.queue_wait_hist.raw_counts(),
            local.queue_wait_hist.raw_counts());
  EXPECT_EQ(wire.batch_rows_hist.raw_counts(),
            local.batch_rows_hist.raw_counts());

  EXPECT_EQ(remote.num_models(), s.local().num_models());
  EXPECT_EQ(remote.pending(0), 0u);
  EXPECT_EQ(remote.find_model("beta"), s.local().find_model("beta"));
  EXPECT_EQ(remote.find_model("nope"), std::nullopt);
}

TEST(ServeNet, SubmitCallbackDeliversOutputAndTiming) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  Rng irng(74);
  const auto input = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want = direct_forward(*s.dnn, input, 2);

  std::promise<std::vector<float>> delivered;
  serve::RequestTiming timing;
  serve::SubmitOptions opts;
  opts.done = [&](std::span<const float> output,
                  const serve::RequestTiming& t, std::exception_ptr error) {
    timing = t;
    if (error) {
      delivered.set_exception(error);
    } else {
      delivered.set_value({output.begin(), output.end()});
    }
  };
  auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 2), opts);
  ASSERT_TRUE(result.admitted());
  EXPECT_FALSE(result.has_future()) << "callback submissions carry no future";

  auto future = delivered.get_future();
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  EXPECT_EQ(future.get(), want);
  EXPECT_EQ(timing.request_id, result.request_id());
  EXPECT_GT(timing.total_seconds, 0.0);
  EXPECT_EQ(timing.batch_rows, 2);
}

TEST(ServeNet, ConcurrentCallersShareOneConnection) {
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());

  constexpr std::size_t kThreads = 4;
  constexpr index_t kPerThread = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (index_t i = 0; i < kPerThread; ++i) {
        const index_t rows = 1 + i % 2;
        const auto input = gc::synthetic_input(rows, 1024, 0.4, rng);
        const auto want = direct_forward(*s.dnn, input, rows);
        auto result = remote.submit(
            serve::InferenceRequest::owned(0, input, rows));
        if (!result.admitted() || result.take_future().get() != want) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(remote.stats(0).requests, kThreads * kPerThread);
}

TEST(ServeNet, HooklessServerAnswersAdminVerbsUnsupported) {
  // Admin hooks exist only for the router; a server fronting a bare
  // Engine answers admin verbs with kError, not a crash.
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  EXPECT_THROW(remote.shard_ctl(ShardVerb::kHealth), Error);
  EXPECT_THROW(remote.list_models(), Error);
  remote.ping();  // the connection survived the failed verbs
}

TEST(ServeNet, ShutDownBackendRejectsRemoteSubmits) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  // Shutting the backend down closes admission; the remote caller gets
  // the rejection as a VALUE, exactly like an in-process caller.
  s.engine->shutdown();
  Rng irng(75);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  const auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 1));
  EXPECT_FALSE(result.admitted())
      << "a shut-down backend must reject, not hang, remote submits";
}

TEST(ServeNet, ExpiredDeadlineCompletesWithDeadlineExceeded) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());

  Rng irng(76);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  serve::SubmitOptions opts;
  opts.deadline = -1us;  // spent budget: admitted, shed at claim
  auto result =
      remote.submit(serve::InferenceRequest::owned(0, input, 1), opts);
  ASSERT_TRUE(result.admitted());
  EXPECT_THROW(result.get(), serve::DeadlineExceededError);

  const serve::ServeStats wire = remote.stats(0);
  EXPECT_EQ(wire.errors, 1u);
  EXPECT_EQ(wire.expired, 1u);
  EXPECT_EQ(wire.errors, s.local().stats(0).errors);
}

TEST(ServeNet, UnknownModelFailsTheSubmitCall) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  Rng irng(77);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_THROW(remote.submit(serve::InferenceRequest::owned(99, input, 1)),
               Error);
}

TEST(ServeNet, FailFastRejectsUnderBacklog) {
  // One worker, tiny queue, deep model: keep the worker busy so a
  // fail-fast submit meets a full queue.
  Served s = engine_served({.workers = 1, .queue_capacity = 2}, 12);
  RemoteBackend remote(s.server->port());

  Rng irng(78);
  const auto big = gc::synthetic_input(64, 1024, 0.4, irng);
  std::vector<std::future<std::vector<float>>> admitted;
  for (int i = 0; i < 6; ++i) {
    auto result =
        remote.submit(serve::InferenceRequest::borrowed(0, big, 64));
    if (result.admitted()) admitted.push_back(result.take_future());
  }

  bool rejected = false;
  const auto one = gc::synthetic_input(1, 1024, 0.4, irng);
  for (int i = 0; i < 200 && !rejected; ++i) {
    serve::SubmitOptions opts;
    opts.admission = serve::Admission::kFailFast;
    auto result =
        remote.submit(serve::InferenceRequest::borrowed(0, one, 1), opts);
    if (result.admitted()) {
      (void)result.take_future();  // let it complete; reader owns delivery
    } else {
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected)
      << "kFailFast against a saturated remote queue must reject";
  for (auto& f : admitted) (void)f.get();
}

TEST(ServeNet, AdminVerbsAgainstRouter) {
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());

  remote.ping();

  const auto models = remote.list_models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].id, 0u);
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_EQ(models[0].input_width, 1024u);
  EXPECT_EQ(models[0].output_width, 1024u);
  EXPECT_EQ(models[0].priority, serve::Priority::kInteractive);
  EXPECT_FALSE(models[0].retired);
  EXPECT_EQ(models[0].version, 1u);

  // Serve a little traffic so class stats have content, then compare
  // the wire view against the router's own merged snapshot.
  Rng irng(79);
  for (int i = 0; i < 6; ++i) {
    const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
    (void)remote.submit(serve::InferenceRequest::owned(0, input, 1)).get();
  }
  const auto local = s.router->class_stats(serve::Priority::kInteractive);
  const auto wire = remote.class_stats(serve::Priority::kInteractive);
  EXPECT_EQ(wire.requests, 6u);
  EXPECT_EQ(wire.requests, local.requests);
  EXPECT_EQ(wire.e2e_hist.raw_counts(), local.e2e_hist.raw_counts());

  const auto metrics = remote.metrics_text();
  EXPECT_NE(metrics.find("# HELP"), std::string::npos);
  EXPECT_NE(metrics.find("radix_serve_shard_health"), std::string::npos);

  // Lifecycle round-trip: drain -> restart -> kill -> restart.
  auto health = remote.shard_ctl(ShardVerb::kHealth);
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kDrain, 0);
  EXPECT_NE(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kRestart, 0);
  EXPECT_EQ(health[0], serve::ShardHealth::kUp);
  health = remote.shard_ctl(ShardVerb::kKill, 1);
  EXPECT_EQ(health[1], serve::ShardHealth::kDown);
  health = remote.shard_ctl(ShardVerb::kRestart, 1);
  EXPECT_EQ(health[1], serve::ShardHealth::kUp);
}

TEST(ServeNet, LoadWhileShardZeroDownIsListedAndSavable) {
  // A model loaded while shard 0 is down is listed, served and savable:
  // the registry verbs answer from the router, not from shard 0.
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());
  ScratchDir scratch;
  const auto extra = make_dnn(1024, 4, 83);
  store::save_artifact(scratch.path("extra.radixart"), *extra, "extra");

  EXPECT_EQ(remote.shard_ctl(ShardVerb::kKill, 0)[0],
            serve::ShardHealth::kDown);
  const serve::ModelId id = remote.load_model(scratch.path("extra.radixart"));
  EXPECT_EQ(id, 1u);
  const auto models = remote.list_models();
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[1].id, id);
  EXPECT_EQ(models[1].name, "extra");
  EXPECT_FALSE(models[1].retired);
  EXPECT_EQ(models[1].input_width, 1024u);
  EXPECT_EQ(models[1].version, 1u);

  Rng irng(84);
  const auto input = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want = direct_forward(*extra, input, 2);
  EXPECT_EQ(remote.submit(serve::InferenceRequest::owned(id, input, 2)).get(),
            want);
  EXPECT_GT(remote.save_model(id, scratch.path("saved.radixart")), 0u);
  store::ArtifactReader saved(scratch.path("saved.radixart"));
  EXPECT_EQ(saved.name(), "extra");
  EXPECT_EQ(direct_forward(saved.instantiate(), input, 2), want);
}

TEST(ServeNet, SwapWhileShardZeroDownListsAndSavesTheNewVersion) {
  // Shard 0 misses a swap while it is down; the registry verbs report
  // the new version and save the new weights, not shard 0's stale ones.
  Served s = router_served(2);
  RemoteBackend remote(s.server->port());
  (void)remote.shard_ctl(ShardVerb::kKill, 0);
  const auto v2 = make_dnn(1024, 4, 85);
  s.router->swap_model(0, v2);

  const auto models = remote.list_models();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].version, 2u);

  ScratchDir scratch;
  (void)remote.save_model(0, scratch.path("alpha.radixart"));
  Rng irng(86);
  const auto input = gc::synthetic_input(2, 1024, 0.4, irng);
  const auto want = direct_forward(*v2, input, 2);
  ASSERT_NE(want, direct_forward(*s.dnn, input, 2))
      << "the two versions must be distinguishable";
  EXPECT_EQ(direct_forward(
                store::ArtifactReader(scratch.path("alpha.radixart"))
                    .instantiate(),
                input, 2),
            want);
}

TEST(ServeNet, ListModelsKeepsRemovedIds) {
  // The listing covers every registered id -- num_models() counts only
  // live ones, so it cannot bound the listing.
  Served s = router_served(2);  // "alpha" is id 0
  s.router->add_model(make_dnn(1024, 4, 87), "beta");
  s.router->add_model(make_dnn(1024, 4, 88), "gamma");
  s.router->remove_model(0);
  RemoteBackend remote(s.server->port());

  const auto models = remote.list_models();
  ASSERT_EQ(models.size(), 3u);
  for (serve::ModelId id = 0; id < models.size(); ++id) {
    EXPECT_EQ(models[id].id, id);
  }
  EXPECT_EQ(models[0].name, "alpha");
  EXPECT_TRUE(models[0].retired);
  EXPECT_EQ(models[2].name, "gamma");
  EXPECT_FALSE(models[2].retired);
  EXPECT_EQ(models[2].input_width, 1024u);
}

TEST(ServeNet, ClientDisconnectOrphansLateResponses) {
  // A deep model and one worker: queue several slow requests from a raw
  // socket, then vanish.  The server must notice the EOF, complete the
  // backend requests anyway (it cannot un-submit them), and DROP the
  // responses -- counted as orphaned, never written to a dead fd.
  Served s = engine_served({.workers = 1}, 12);

  Rng irng(80);
  const auto input = gc::synthetic_input(64, 1024, 0.4, irng);
  {
    Fd fd = connect_tcp(s.server->port());
    for (int i = 0; i < 8; ++i) {
      std::vector<std::uint8_t> body;
      WireWriter w(body);
      w.u64(0);                                  // model
      w.u32(64);                                 // rows
      w.u8(static_cast<std::uint8_t>(serve::Admission::kBlock));
      w.i64(0);                                  // admission timeout
      w.i64(0);                                  // deadline
      w.u64(0);                                  // trace id
      w.floats(input);
      send_frame(fd, MsgType::kSubmit, static_cast<std::uint64_t>(i), body);
    }
  }  // fd closes here: disconnect with up to 8 requests in flight

  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (s.server->orphaned_responses() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(s.server->orphaned_responses(), 0u);

  // The server is still healthy for other clients afterwards.
  RemoteBackend remote(s.server->port());
  remote.ping();
  const auto small = gc::synthetic_input(1, 1024, 0.4, irng);
  EXPECT_EQ(remote.submit(serve::InferenceRequest::owned(0, small, 1)).get(),
            direct_forward(*s.dnn, small, 1));
}

TEST(ServeNet, LocalShutdownDrainsAndStopsAdmitting) {
  Served s = engine_served();
  auto remote = std::make_unique<RemoteBackend>(s.server->port());

  Rng irng(81);
  const auto input = gc::synthetic_input(1, 1024, 0.4, irng);
  auto future =
      remote->submit(serve::InferenceRequest::owned(0, input, 1))
          .take_future();
  remote->shutdown();  // waits for the in-flight completion
  EXPECT_FALSE(remote->accepting());
  EXPECT_EQ(future.get(), direct_forward(*s.dnn, input, 1))
      << "local shutdown must drain, not drop, in-flight requests";
  EXPECT_FALSE(
      remote->submit(serve::InferenceRequest::owned(0, input, 1)).admitted());
  remote->shutdown();  // idempotent
  remote.reset();

  // The server never noticed anything but a clean disconnect.
  EXPECT_FALSE(s.server->stopped());
  EXPECT_EQ(s.server->orphaned_responses(), 0u);
}

/// An in-test peer on an ephemeral loopback port that serves
/// `connections` clients in turn: it reads ONE frame from each, answers
/// it with `reply`, and closes the connection at once -- so the client
/// reads the answer and the EOF back to back.
class AnswerOnceThenClose {
 public:
  using Reply = std::function<void(const Fd&, const Frame&)>;

  AnswerOnceThenClose(int connections, Reply reply) {
    auto [listener, port] = listen_tcp(0);
    port_ = port;
    thread_ = std::thread(
        [listener = std::move(listener), connections, reply = std::move(reply)] {
          for (int i = 0; i < connections;) {
            auto conn = accept_one(listener);  // blocking listener
            if (!conn) continue;
            ++i;
            if (auto frame = recv_frame(*conn)) reply(*conn, *frame);
          }  // each connection closes as its Fd leaves scope
        });
  }
  ~AnswerOnceThenClose() { thread_.join(); }

  std::uint16_t port() const noexcept { return port_; }

 private:
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ServeNet, ResponseJustBeforeCloseIsStillTheAnswer) {
  // The reader stores a response and then hits EOF, which fails every
  // entry still in the table.  A waiter that wakes after both must use
  // the response it was sent, not report the connection lost.
  constexpr int kTrials = 200;
  {
    AnswerOnceThenClose peer(kTrials, [](const Fd& fd, const Frame& f) {
      send_frame(fd, MsgType::kPong, f.correlation, {});
    });
    int lost = 0;
    for (int i = 0; i < kTrials; ++i) {
      RemoteBackend remote(peer.port());
      try {
        remote.ping();
      } catch (const IoError&) {
        ++lost;
      }
    }
    EXPECT_EQ(lost, 0) << "pings answered just before the close";
  }

  // The submit twin: the ack (admitted) arrives, then EOF, and the
  // result never does.  Each submit must report admitted, and its
  // future must complete exactly once with the connection-lost IoError
  // -- also when the EOF was processed before the waiter saw its ack.
  AnswerOnceThenClose peer(kTrials, [](const Fd& fd, const Frame& f) {
    std::vector<std::uint8_t> ack;
    WireWriter w(ack);
    w.u8(1);  // admitted
    w.u64(f.correlation + 1000);  // request id
    send_frame(fd, MsgType::kSubmitAck, f.correlation, ack);
  });
  const std::vector<float> row(8, 1.0f);
  int rejected = 0, thrown = 0, unresolved = 0, not_io_error = 0;
  for (int i = 0; i < kTrials; ++i) {
    RemoteBackend remote(peer.port());
    serve::SubmitResult result = serve::SubmitResult::rejected();
    try {
      result = remote.submit(serve::InferenceRequest::borrowed(0, row, 1));
    } catch (const IoError&) {
      ++thrown;
      continue;
    }
    if (!result.admitted()) {
      ++rejected;
      continue;
    }
    auto future = result.take_future();
    if (future.wait_for(10s) != std::future_status::ready) {
      ++unresolved;
      continue;
    }
    try {
      (void)future.get();
      ++not_io_error;
    } catch (const IoError&) {
    } catch (...) {
      ++not_io_error;
    }
  }
  EXPECT_EQ(thrown, 0) << "submit threw although its ack arrived";
  EXPECT_EQ(rejected, 0);
  EXPECT_EQ(unresolved, 0) << "an admitted future never completed";
  EXPECT_EQ(not_io_error, 0);
}

TEST(ServeNet, ShutdownVerbStopsTheServer) {
  Served s = engine_served();
  RemoteBackend remote(s.server->port());
  EXPECT_FALSE(s.server->stopped());
  remote.server_shutdown();
  s.server->wait();
  EXPECT_TRUE(s.server->stopped());
  EXPECT_GE(s.server->connections_accepted(), 1u);
}

}  // namespace
}  // namespace radix::net
