// The async network front-end: an epoll event loop serving the wire
// protocol (net/wire.hpp) on top of any serve::Backend.
//
// Threading model (sized for "many connections, few cores"):
//
//   * ONE event-loop thread owns the listener and every connection's
//     socket I/O: nonblocking reads accumulate into a per-connection
//     receive buffer until try_parse_frame yields complete frames;
//     nonblocking writes drain a per-connection output queue, arming
//     EPOLLOUT only while bytes are actually pending.  Partial reads,
//     partial writes and EINTR are the normal case here, not errors.
//     Complete frames that arrived before a peer's EOF are queued
//     before the connection closes, however the reads were batched.
//   * A small SUBMIT POOL executes the decoded verbs.  Inference
//     submissions go through the backend's bounded-wait admission path:
//     a client asking Admission::kBlock gets the block CLAMPED to a
//     fixed 250 ms (kBoundedWait under the hood, i.e. Engine's
//     try_submit_for seam) so a saturated backend backpressures the
//     client with a rejection instead of parking a pool thread
//     forever.  Admin verbs (stats, metrics, shard lifecycle) run on
//     the same pool -- a drain that takes seconds never stalls socket
//     I/O.
//   * COMPLETIONS arrive on backend worker threads: the DoneFn encodes
//     the kResult frame, appends it to the connection's output queue
//     under the connection mutex, and wakes the event loop through an
//     eventfd.  A connection that disconnected mid-request flips to
//     closed under that same mutex first, so late completions see the
//     flag and drop the frame -- orphaned responses are dropped, never
//     written to a reused fd and never leaked (the capsule dies with
//     the shared_ptr).
//
// The server does NOT own the backend: radix-served composes
// (models -> ShardRouter -> Server) and tears down in reverse; with
// --shards 1 the router is a one-shard fleet.  The Backend verbs
// (submit, stats, pending, model lookup) work on any backend.  Admin
// verbs beyond them (registry listing, per-class stats, shard
// lifecycle, metrics text, model save/load) are injected as AdminHooks,
// and only the router has a hook set: make_admin_hooks(ShardRouter&).
// A server fronting a bare Engine -- tests and benches do that --
// answers those verbs with "unsupported".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/backend.hpp"
#include "serve/qos.hpp"

namespace radix::serve {
class ShardRouter;
class MetricsRegistry;
enum class ShardHealth : std::uint8_t;  // serve/router.hpp
}  // namespace radix::serve

namespace radix::net {

/// Backend-specific admin capabilities, injected per server.  An unset
/// hook answers its verb with a kError frame ("unsupported") -- the
/// protocol degrades, it never crashes.
struct AdminHooks {
  /// kClassStatsReq: merged per-priority-class counters.
  std::function<serve::ServeStats(serve::Priority)> class_stats{};
  /// kMetricsReq: Prometheus text exposition of the backend's state.
  std::function<std::string()> metrics_text{};
  /// kShardCtlReq: apply `verb` to shard `index` (kHealth applies
  /// nothing), then return every shard's health.
  std::function<std::vector<serve::ShardHealth>(ShardVerb, std::size_t)>
      shard_ctl{};
  /// kListModelsReq: one row per registered model id, retired ids
  /// included, in id order.
  std::function<std::vector<WireModelInfo>()> list_models{};
  /// kSaveModelReq: serialize model `id` as a RADIXART artifact
  /// (store/artifact.hpp) at `path` on the SERVER's filesystem; returns
  /// the artifact size in bytes.
  std::function<std::uint64_t(serve::ModelId, const std::string& path)>
      save_model{};
  /// kLoadModelReq: map + validate the artifact at `path`, register it
  /// under `name` (empty = the name stored in the artifact) and return
  /// the new model id.
  std::function<serve::ModelId(const std::string& path,
                               const std::string& name)>
      load_model{};
};

/// The hook set radix-served installs: class_stats / export_metrics /
/// drain-restart-kill / registry rows / save / load, all answered by
/// the router -- registry reads from its own registry, never a shard's.
AdminHooks make_admin_hooks(serve::ShardRouter& router);

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// from Server::port() -- the smoke tests do).
  std::uint16_t port = 0;
  /// Threads executing decoded verbs (admission waits happen here).
  std::size_t submit_workers = 2;
  AdminHooks hooks{};
};

class Server {
 public:
  /// Binds and starts serving immediately (event loop + submit pool).
  /// `backend` must outlive the server.
  Server(serve::Backend& backend, ServerOptions options = {});
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// True once stop() ran or a client sent kShutdownReq.
  bool stopped() const noexcept;

  /// Block until a kShutdownReq arrives (or stop() is called from
  /// another thread) -- the radix-served main loop.
  void wait();

  /// Stop accepting, close every connection, join the threads.  In-
  /// flight backend requests still complete (the backend owns them);
  /// their responses are dropped with the connections.  Idempotent.
  void stop();

  /// Connections accepted over the server's lifetime (observability +
  /// test assertions).
  std::uint64_t connections_accepted() const noexcept;
  /// Responses dropped because their connection was gone (disconnect
  /// mid-request); the orphan-handling counter the tests pin.
  std::uint64_t orphaned_responses() const noexcept;

 private:
  struct Connection;
  struct Job;

  void event_loop();
  void pool_loop();
  void accept_new();
  /// Drain readable bytes + parse frames into jobs; false = close conn.
  bool handle_readable(const std::shared_ptr<Connection>& conn);
  bool handle_writable(const std::shared_ptr<Connection>& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);

  /// Execute one decoded frame (submit pool).
  void execute(const std::shared_ptr<Connection>& conn, const Frame& frame);
  void execute_submit(const std::shared_ptr<Connection>& conn,
                      const Frame& frame);

  /// Append an encoded frame to the connection's output queue and wake
  /// the event loop; drops (and counts) when the connection is closed.
  void enqueue_response(const std::shared_ptr<Connection>& conn, MsgType type,
                        std::uint64_t correlation,
                        std::span<const std::uint8_t> body);
  void enqueue_error(const std::shared_ptr<Connection>& conn,
                     std::uint64_t correlation, const WireError& error);
  void wake();

  // Shared with completion callbacks: a backend worker delivering a
  // result after the server object is gone (backend shut down late)
  // must still have somewhere safe to count the orphan and a guarded
  // eventfd slot that stop() has already invalidated.
  struct WakeState {
    std::mutex m;
    int fd = -1;  // -1 once the server is stopping; never written after
    std::atomic<std::uint64_t> orphaned{0};
    void wake();
    void invalidate();
  };

  serve::Backend& backend_;
  ServerOptions options_;
  std::uint16_t port_ = 0;

  Fd listener_;
  Fd epoll_;
  Fd wakeup_;  // eventfd: completions / stop() kick the event loop
  std::shared_ptr<WakeState> wake_state_ = std::make_shared<WakeState>();

  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};

  std::mutex stop_mutex_;     // serializes stop() callers over the joins
  mutable std::mutex mutex_;  // connections map + job queue + stop cv
  std::condition_variable stop_cv_;
  std::condition_variable job_cv_;
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  std::deque<Job> jobs_;

  std::thread loop_thread_;
  std::vector<std::thread> pool_;
};

}  // namespace radix::net
