// radix-served: the networked serving daemon.
//
// Builds a Graph-Challenge model fleet, stands a ShardRouter of
// --shards engines behind the epoll front-end (net/server.hpp), prints
// "LISTENING <port>" once the socket is bound (scripts parse that line
// -- with --port 0 it is the only way to learn the ephemeral port), and
// serves until radix-ctl sends the shutdown verb (or SIGTERM/SIGINT
// arrives).  --shards 1 is a one-shard fleet, not a different backend:
// `drain 0` takes it out of rotation, and `kill 0` / `restart 0` work
// as on any fleet.
//
//   radix-served --port 0 --shards 2 --workers 1 --models 2 &
//   radix-ctl --port <port> models
//   radix-ctl --port <port> shutdown
//
// Models are registered as "model-0" .. "model-<n-1>"; model-0 is
// interactive class, the rest are batch class, so the per-class stats
// verbs have something to show.
//
// With --store-dir <dir> the daemon is restartable warm, and a
// store-backed fleet is always served from the store.  The first boot
// seeds an empty store: it saves every default model as a RADIXART
// artifact into <dir> and journals the registration
// (store/journal.hpp).  Then every boot, the first included, replays
// the journal and mmaps the artifacts back, so a kill -9 + restart
// serves the exact pre-crash model set bit-identically.  Models
// registered at runtime through the `radix-ctl load` verb are saved
// into the store the same way: the artifact is committed
// (write_durably, store/durable.hpp) before the journal entry naming
// it is appended.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "infer/sparse_dnn.hpp"
#include "net/server.hpp"
#include "radixnet/graph_challenge.hpp"
#include "serve/router.hpp"
#include "store/artifact.hpp"
#include "store/journal.hpp"
#include "support/args.hpp"
#include "support/random.hpp"

using namespace radix;

namespace {

// Signal handlers may only touch lock-free state; the main loop polls
// this next to Server::stopped() and runs the actual teardown.
volatile std::sig_atomic_t g_signaled = 0;

void handle_signal(int) { g_signaled = 1; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.add_flag("port", "0", "TCP port on 127.0.0.1 (0 = ephemeral)");
  args.add_flag("shards", "2", "engine shards (1 = one-shard fleet)");
  args.add_flag("workers", "1", "worker threads per shard");
  args.add_flag("models", "2", "models to register");
  args.add_flag("neurons", "1024", "challenge network width");
  args.add_flag("layers", "12", "challenge network depth");
  args.add_flag("queue-capacity", "256", "per-model queue capacity");
  args.add_flag("submit-workers", "2", "server threads executing verbs");
  args.add_flag("store-dir", "",
                "artifact store: replay its journal for a warm restart, "
                "or seed it with the default fleet on first boot");
  try {
    args.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 args.usage("radix-served").c_str());
    return 2;
  }

  try {
    serve::ShardRouterOptions router_options;
    router_options.shards = static_cast<std::size_t>(args.get_int("shards"));
    router_options.engine.workers =
        static_cast<unsigned>(args.get_int("workers"));
    router_options.engine.queue_capacity =
        static_cast<std::size_t>(args.get_int("queue-capacity"));
    serve::ShardRouter router(router_options);
    net::AdminHooks hooks = net::make_admin_hooks(router);

    const auto models = static_cast<std::size_t>(args.get_int("models"));
    const auto build_defaults = [&](auto&& place) {
      // place(dnn, name, priority) for each default model; model-0 is
      // interactive class, the rest batch, so the per-class stats verbs
      // have something to show.
      Rng rng(42);
      const auto neurons = static_cast<index_t>(args.get_int("neurons"));
      const auto layers = static_cast<std::size_t>(args.get_int("layers"));
      const gc::Network network = gc::network(neurons, layers, &rng);
      const auto dnn = std::make_shared<const infer::SparseDnn>(
          network.layers, network.bias, gc::kClamp);
      for (std::size_t i = 0; i < models; ++i) {
        place(dnn, "model-" + std::to_string(i),
              i == 0 ? serve::Priority::kInteractive : serve::Priority::kBatch);
      }
    };

    const std::string store_dir = args.get("store-dir");
    std::unique_ptr<store::RegistryJournal> journal;
    std::mutex journal_mutex;  // hooks run on concurrent submit workers
    // Commit a model's artifact into the store, then journal it.
    const auto persist = [&](const std::shared_ptr<const infer::SparseDnn>& dnn,
                             const std::string& n, serve::Priority priority) {
      const std::string file = n + ".radixart";
      store::save_artifact(store_dir + "/" + file, *dnn, n);
      journal->append({store::JournalOp::kAdd, n, file,
                       static_cast<std::uint8_t>(priority)});
    };
    if (store_dir.empty()) {
      build_defaults([&](const auto& dnn, const std::string& n,
                         serve::Priority priority) {
        router.add_model(dnn, n, {.priority = priority});
      });
    } else {
      std::filesystem::create_directories(store_dir);
      journal = std::make_unique<store::RegistryJournal>(store_dir);
      const bool seed = journal->live().empty();
      if (seed) {
        build_defaults(persist);
        std::printf("radix-served: seeded store %s (%zu artifacts)\n",
                    store_dir.c_str(), models);
      }
      // Every boot: mmap every live artifact back under its journaled
      // name and class; no model is rebuilt.
      const auto live = journal->live();
      for (const store::JournalEvent& ev : live) {
        store::ArtifactReader reader(
            (std::filesystem::path(store_dir) / ev.artifact).string());
        router.add_model(
            std::make_shared<const infer::SparseDnn>(reader.instantiate()),
            ev.model, {.priority = static_cast<serve::Priority>(ev.priority)});
      }
      if (!seed) {
        std::printf("radix-served: warm restart from %s (%zu models)\n",
                    store_dir.c_str(), live.size());
      }
      // Persist runtime loads like the seeded fleet, so `radix-ctl load`
      // survives a restart: the registered model is saved under its name
      // (a spec-only artifact is stored as full CSR) and journaled.
      const auto inner_load = hooks.load_model;
      hooks.load_model = [&, persist, inner_load](const std::string& path,
                                                  const std::string& name) {
        const serve::ModelId id = inner_load(path, name);
        const auto entry = router.model_entry(id);
        std::scoped_lock lock(journal_mutex);
        persist(entry.dnn, entry.name, entry.qos.priority);
        return id;
      };
    }

    net::ServerOptions server_options;
    server_options.port =
        static_cast<std::uint16_t>(args.get_int("port"));
    server_options.submit_workers =
        static_cast<std::size_t>(args.get_int("submit-workers"));
    server_options.hooks = std::move(hooks);
    net::Server server(router, server_options);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    std::printf("LISTENING %u\n", static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    while (!server.stopped() && g_signaled == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.stop();
    router.shutdown();
    std::printf("radix-served: drained (%llu connections, "
                "%llu orphaned responses)\n",
                static_cast<unsigned long long>(server.connections_accepted()),
                static_cast<unsigned long long>(server.orphaned_responses()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "radix-served: %s\n", e.what());
    return 1;
  }
}
