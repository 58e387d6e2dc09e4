#include "net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "serve/metrics.hpp"
#include "serve/router.hpp"
#include "store/artifact.hpp"
#include "support/error.hpp"

namespace radix::net {

namespace {

// Clamp on a remote submission's admission wait: Admission::kBlock
// becomes kBoundedWait with this budget, and kBoundedWait keeps
// min(its timeout, this), so a saturated backend rejects instead of
// parking a submit-pool thread.
constexpr std::chrono::microseconds kMaxAdmissionWait{250'000};

[[noreturn]] void throw_errno(const char* what) {
  throw IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

// --- Admin hooks -----------------------------------------------------------

AdminHooks make_admin_hooks(serve::ShardRouter& router) {
  AdminHooks hooks;
  hooks.class_stats = [&router](serve::Priority p) {
    return router.class_stats(p);
  };
  hooks.metrics_text = [&router] {
    serve::MetricsRegistry registry;
    router.export_metrics(registry);
    return registry.render_prometheus();
  };
  hooks.shard_ctl = [&router](ShardVerb verb, std::size_t index) {
    switch (verb) {
      case ShardVerb::kHealth: break;
      case ShardVerb::kDrain: router.drain_shard(index); break;
      case ShardVerb::kRestart: router.restart_shard(index); break;
      case ShardVerb::kKill: router.kill_shard(index); break;
    }
    std::vector<serve::ShardHealth> health;
    health.reserve(router.num_shards());
    for (std::size_t i = 0; i < router.num_shards(); ++i) {
      health.push_back(router.shard_health(i));
    }
    return health;
  };
  hooks.list_models = [&router] {
    const auto entries = router.models();
    std::vector<WireModelInfo> rows(entries.size());
    for (serve::ModelId id = 0; id < entries.size(); ++id) {
      const auto& e = entries[id];
      WireModelInfo& m = rows[id];
      m.id = id;
      m.name = e.name;
      m.retired = e.retired;
      m.version = e.version;
      m.priority = e.qos.priority;
      if (e.dnn) {
        m.input_width = static_cast<std::uint32_t>(e.dnn->input_width());
        m.output_width = static_cast<std::uint32_t>(e.dnn->output_width());
      }
      m.pending = router.pending(id);
    }
    return rows;
  };
  hooks.save_model = [&router](serve::ModelId id, const std::string& path) {
    // Every shard serves the registry's shared SparseDnn, so the
    // registry's weights ARE the model.
    const auto e = router.model_entry(id);
    RADIX_REQUIRE(e.dnn != nullptr, "ShardRouter: model was removed");
    store::save_artifact(path, *e.dnn, e.name);
    return static_cast<std::uint64_t>(std::filesystem::file_size(path));
  };
  hooks.load_model = [&router](const std::string& path,
                               const std::string& name) {
    store::ArtifactReader reader(path);
    auto dnn = std::make_shared<const infer::SparseDnn>(reader.instantiate());
    return router.add_model(std::move(dnn),
                            name.empty() ? reader.name() : name);
  };
  return hooks;
}

// --- Connection / job plumbing ---------------------------------------------

struct Server::Connection {
  explicit Connection(Fd f) : fd(std::move(f)) {}

  Fd fd;
  std::mutex m;
  bool open = true;        // guarded by m; flipped once, before fd close
  bool want_write = false; // event-loop-only: EPOLLOUT currently armed
  std::vector<std::uint8_t> inbuf;   // event-loop-only
  std::vector<std::uint8_t> outbuf;  // guarded by m
  std::size_t out_off = 0;           // guarded by m

  bool has_output() {
    std::scoped_lock lock(m);
    return out_off < outbuf.size();
  }
};

struct Server::Job {
  std::shared_ptr<Connection> conn;
  Frame frame;
};

void Server::WakeState::wake() {
  std::scoped_lock lock(m);
  if (fd < 0) return;
  const std::uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short failures.
  (void)!::write(fd, &one, sizeof(one));
}

void Server::WakeState::invalidate() {
  std::scoped_lock lock(m);
  fd = -1;
}

Server::Server(serve::Backend& backend, ServerOptions options)
    : backend_(backend), options_(std::move(options)) {
  auto [listener, port] = listen_tcp(options_.port);
  listener_ = std::move(listener);
  port_ = port;
  set_nonblocking(listener_, true);

  epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) throw_errno("epoll_create1");
  wakeup_ = Fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  if (!wakeup_.valid()) throw_errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) != 0) {
    throw_errno("epoll_ctl(listener)");
  }
  ev.data.fd = wakeup_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev) != 0) {
    throw_errno("epoll_ctl(eventfd)");
  }
  {
    std::scoped_lock lock(wake_state_->m);
    wake_state_->fd = wakeup_.get();
  }

  const std::size_t workers = options_.submit_workers ? options_.submit_workers
                                                      : 1;
  pool_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    pool_.emplace_back([this] { pool_loop(); });
  }
  loop_thread_ = std::thread([this] { event_loop(); });
}

Server::~Server() { stop(); }

bool Server::stopped() const noexcept { return stopping_.load(); }

void Server::wait() {
  std::unique_lock lock(mutex_);
  stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

void Server::stop() {
  stopping_.store(true);
  {
    std::scoped_lock lock(mutex_);
    stop_cv_.notify_all();
    job_cv_.notify_all();
  }
  wake();
  std::scoped_lock stop_lock(stop_mutex_);
  if (loop_thread_.joinable()) loop_thread_.join();
  for (std::thread& t : pool_) {
    if (t.joinable()) t.join();
  }
  // No thread of ours runs past this point; completion callbacks still
  // in flight on backend workers must never touch the eventfd again
  // (its fd number could be recycled once wakeup_ closes).
  wake_state_->invalidate();
  // Close every connection AFTER the threads are gone: late completions
  // from the backend observe open == false under the connection mutex
  // and drop their frames (counted in orphaned_responses()).
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  {
    std::scoped_lock lock(mutex_);
    conns.swap(connections_);
  }
  for (auto& [fd, conn] : conns) {
    std::scoped_lock lock(conn->m);
    conn->open = false;
    conn->fd.reset();
  }
}

std::uint64_t Server::connections_accepted() const noexcept {
  return accepted_.load();
}

std::uint64_t Server::orphaned_responses() const noexcept {
  return wake_state_->orphaned.load();
}

void Server::wake() { wake_state_->wake(); }

// --- Event loop ------------------------------------------------------------

void Server::event_loop() {
  using clock = std::chrono::steady_clock;
  std::optional<clock::time_point> flush_deadline;
  for (;;) {
    const bool stopping = stopping_.load();
    if (stopping) {
      // Serve pending output a little longer (the kShutdownResp a ctl
      // client is waiting on), then leave regardless.
      if (!flush_deadline) {
        flush_deadline = clock::now() + std::chrono::seconds(1);
      }
      bool pending = false;
      {
        std::scoped_lock lock(mutex_);
        for (auto& [fd, conn] : connections_) {
          if (conn->has_output()) { pending = true; break; }
        }
      }
      if (!pending || clock::now() >= *flush_deadline) break;
    }

    epoll_event events[64];
    const int n = ::epoll_wait(epoll_.get(), events, 64, stopping ? 20 : 200);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing recoverable remains
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_.get()) {
        std::uint64_t drained;
        while (::read(wakeup_.get(), &drained, sizeof(drained)) > 0) {}
        continue;
      }
      if (fd == listener_.get()) {
        if (!stopping) accept_new();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::scoped_lock lock(mutex_);
        auto it = connections_.find(fd);
        if (it != connections_.end()) conn = it->second;
      }
      if (!conn) continue;
      bool ok = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) ok = false;
      if (ok && (events[i].events & EPOLLIN)) ok = handle_readable(conn);
      if (ok && (events[i].events & EPOLLOUT)) ok = handle_writable(conn);
      if (!ok) close_connection(conn);
    }

    // Completions enqueued from backend threads only kicked the
    // eventfd; flush every connection that has bytes waiting.
    std::vector<std::shared_ptr<Connection>> snapshot;
    {
      std::scoped_lock lock(mutex_);
      snapshot.reserve(connections_.size());
      for (auto& [fd, conn] : connections_) snapshot.push_back(conn);
    }
    for (auto& conn : snapshot) {
      if (conn->has_output() && !handle_writable(conn)) {
        close_connection(conn);
      }
    }
  }
}

void Server::accept_new() {
  for (;;) {
    std::optional<Fd> conn_fd;
    try {
      conn_fd = accept_one(listener_);
    } catch (const IoError&) {
      return;  // transient accept failure; the listener stays up
    }
    if (!conn_fd) return;
    set_nonblocking(*conn_fd, true);
    auto conn = std::make_shared<Connection>(std::move(*conn_fd));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd.get();
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, conn->fd.get(), &ev) != 0) {
      continue;  // drop the connection; nothing registered yet
    }
    {
      std::scoped_lock lock(mutex_);
      connections_.emplace(conn->fd.get(), conn);
    }
    accepted_.fetch_add(1);
  }
}

bool Server::handle_readable(const std::shared_ptr<Connection>& conn) {
  // Frames that arrived before the peer's EOF are still requests: they
  // are queued before the close is honoured, so whether they run does
  // not depend on whether the EOF came in the same read burst.
  bool open = true;
  for (;;) {
    IoStatus status;
    try {
      status = read_some(conn->fd, conn->inbuf);
    } catch (const IoError&) {
      return false;
    }
    if (status == IoStatus::kClosed) {
      open = false;
      break;
    }
    if (status == IoStatus::kWouldBlock) break;
    if (conn->inbuf.size() > 2 * kMaxFrameBytes) return false;
  }
  try {
    while (auto frame = try_parse_frame(conn->inbuf)) {
      std::scoped_lock lock(mutex_);
      jobs_.push_back(Job{conn, std::move(*frame)});
      job_cv_.notify_one();
    }
  } catch (const IoError&) {
    return false;  // corrupt framing: protocol violation, drop the peer
  }
  return open;
}

bool Server::handle_writable(const std::shared_ptr<Connection>& conn) {
  std::scoped_lock lock(conn->m);
  if (!conn->open) return false;
  if (conn->out_off < conn->outbuf.size()) {
    IoStatus status;
    try {
      status = write_some(conn->fd, conn->outbuf, conn->out_off);
    } catch (const IoError&) {
      return false;
    }
    if (status == IoStatus::kProgress && conn->out_off == conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_off = 0;
    }
  }
  const bool want = conn->out_off < conn->outbuf.size();
  if (want != conn->want_write) {
    conn->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd.get();
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
  }
  return true;
}

void Server::close_connection(const std::shared_ptr<Connection>& conn) {
  int fd = -1;
  {
    std::scoped_lock lock(conn->m);
    if (!conn->open) return;
    conn->open = false;
    fd = conn->fd.get();
  }
  if (fd >= 0) (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
  {
    std::scoped_lock lock(mutex_);
    connections_.erase(fd);
  }
  std::scoped_lock lock(conn->m);
  conn->fd.reset();
}

// --- Verb execution (submit pool) ------------------------------------------

void Server::pool_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      job_cv_.wait(lock,
                   [this] { return stopping_.load() || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stopping_.load()) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    try {
      execute(job.conn, job.frame);
    } catch (...) {
      enqueue_error(job.conn, job.frame.correlation,
                    classify_error(std::current_exception()));
    }
  }
}

void Server::execute(const std::shared_ptr<Connection>& conn,
                     const Frame& frame) {
  WireReader r(frame.body);
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  switch (frame.type) {
    case MsgType::kPing: {
      enqueue_response(conn, MsgType::kPong, frame.correlation, frame.body);
      return;
    }
    case MsgType::kSubmit: {
      execute_submit(conn, frame);
      return;
    }
    case MsgType::kStatsReq: {
      const auto model = static_cast<serve::ModelId>(r.u64());
      r.expect_end();
      encode_stats(w, backend_.stats(model));
      enqueue_response(conn, MsgType::kStatsResp, frame.correlation, body);
      return;
    }
    case MsgType::kPendingReq: {
      const auto model = static_cast<serve::ModelId>(r.u64());
      r.expect_end();
      w.u64(backend_.pending(model));
      enqueue_response(conn, MsgType::kPendingResp, frame.correlation, body);
      return;
    }
    case MsgType::kNumModelsReq: {
      r.expect_end();
      w.u64(backend_.num_models());
      enqueue_response(conn, MsgType::kNumModelsResp, frame.correlation,
                       body);
      return;
    }
    case MsgType::kFindModelReq: {
      const std::string name = r.str();
      r.expect_end();
      const auto id = backend_.find_model(name);
      w.u8(id.has_value() ? 1 : 0);
      w.u64(id.value_or(0));
      enqueue_response(conn, MsgType::kFindModelResp, frame.correlation, body);
      return;
    }
    case MsgType::kListModelsReq: {
      r.expect_end();
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.list_models),
                    "radix-served: model listing unsupported by this backend");
      const auto models = options_.hooks.list_models();
      w.u32(static_cast<std::uint32_t>(models.size()));
      for (const WireModelInfo& m : models) encode_model_info(w, m);
      enqueue_response(conn, MsgType::kListModelsResp, frame.correlation,
                       body);
      return;
    }
    case MsgType::kClassStatsReq: {
      const std::uint8_t p = r.u8();
      r.expect_end();
      if (p >= serve::kNumPriorities) throw IoError("wire: bad priority");
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.class_stats),
                    "radix-served: class stats unsupported by this backend");
      encode_stats(w, options_.hooks.class_stats(
                          static_cast<serve::Priority>(p)));
      enqueue_response(conn, MsgType::kClassStatsResp, frame.correlation,
                       body);
      return;
    }
    case MsgType::kMetricsReq: {
      r.expect_end();
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.metrics_text),
                    "radix-served: metrics unsupported by this backend");
      w.str(options_.hooks.metrics_text());
      enqueue_response(conn, MsgType::kMetricsResp, frame.correlation, body);
      return;
    }
    case MsgType::kShardCtlReq: {
      const std::uint8_t verb = r.u8();
      const auto index = static_cast<std::size_t>(r.u64());
      r.expect_end();
      if (verb > static_cast<std::uint8_t>(ShardVerb::kKill)) {
        throw IoError("wire: bad shard verb");
      }
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.shard_ctl),
                    "radix-served: shard control unsupported by this backend");
      const auto health =
          options_.hooks.shard_ctl(static_cast<ShardVerb>(verb), index);
      w.u32(static_cast<std::uint32_t>(health.size()));
      for (const serve::ShardHealth h : health) {
        w.u8(static_cast<std::uint8_t>(h));
      }
      enqueue_response(conn, MsgType::kShardCtlResp, frame.correlation, body);
      return;
    }
    case MsgType::kSaveModelReq: {
      const auto model = static_cast<serve::ModelId>(r.u64());
      const std::string path = r.str();
      r.expect_end();
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.save_model),
                    "radix-served: model save unsupported by this backend");
      w.u64(options_.hooks.save_model(model, path));
      enqueue_response(conn, MsgType::kSaveModelResp, frame.correlation,
                       body);
      return;
    }
    case MsgType::kLoadModelReq: {
      const std::string path = r.str();
      const std::string name = r.str();
      r.expect_end();
      RADIX_REQUIRE(static_cast<bool>(options_.hooks.load_model),
                    "radix-served: model load unsupported by this backend");
      w.u64(options_.hooks.load_model(path, name));
      enqueue_response(conn, MsgType::kLoadModelResp, frame.correlation,
                       body);
      return;
    }
    case MsgType::kShutdownReq: {
      r.expect_end();
      enqueue_response(conn, MsgType::kShutdownResp, frame.correlation, body);
      // Flag + wake; the event loop flushes the response (bounded grace)
      // before it exits, and wait() unblocks the serving main.
      stopping_.store(true);
      {
        std::scoped_lock lock(mutex_);
        stop_cv_.notify_all();
        job_cv_.notify_all();
      }
      wake();
      return;
    }
    default:
      throw IoError("wire: unexpected frame type for a server");
  }
}

void Server::execute_submit(const std::shared_ptr<Connection>& conn,
                            const Frame& frame) {
  WireReader r(frame.body);
  const auto model = static_cast<serve::ModelId>(r.u64());
  const auto rows = static_cast<index_t>(r.u32());
  const std::uint8_t admission = r.u8();
  const std::int64_t timeout_us = r.i64();
  const std::int64_t deadline_us = r.i64();
  const serve::RequestId trace_id = r.u64();
  std::vector<float> input = r.floats();
  r.expect_end();
  if (admission > static_cast<std::uint8_t>(serve::Admission::kBoundedWait)) {
    throw IoError("wire: bad admission mode");
  }

  serve::SubmitOptions opts;
  opts.admission = static_cast<serve::Admission>(admission);
  opts.timeout = std::chrono::microseconds(timeout_us);
  opts.deadline = std::chrono::microseconds(deadline_us);
  opts.trace_id = trace_id;
  // No thread of the submit pool may park indefinitely on a full queue:
  // clamp blocking admissions onto the bounded-wait path (the backend's
  // try_submit_for seam), so overload surfaces as a rejection the
  // client can retry -- backpressure, not a wedged server.
  if (opts.admission == serve::Admission::kBlock) {
    opts.admission = serve::Admission::kBoundedWait;
    opts.timeout = kMaxAdmissionWait;
  } else if (opts.admission == serve::Admission::kBoundedWait) {
    opts.timeout = std::min(opts.timeout, kMaxAdmissionWait);
  }

  const std::uint64_t correlation = frame.correlation;
  std::shared_ptr<WakeState> wake_state = wake_state_;
  opts.done = [conn, correlation, wake_state](
                  std::span<const float> output,
                  const serve::RequestTiming& timing,
                  std::exception_ptr error) {
    std::vector<std::uint8_t> body;
    WireWriter w(body);
    const WireError wire_error = classify_error(error);
    w.u8(static_cast<std::uint8_t>(wire_error.kind));
    w.str(wire_error.message);
    w.f64(timing.queue_seconds);
    w.f64(timing.total_seconds);
    w.u32(static_cast<std::uint32_t>(timing.batch_rows));
    w.u64(timing.request_id);
    w.floats(error ? std::span<const float>{} : output);
    const auto frame_bytes =
        encode_frame(MsgType::kResult, correlation, body);
    {
      std::scoped_lock lock(conn->m);
      if (!conn->open) {
        // Client disconnected mid-request: the response is dropped
        // here, with the capsule -- never written to a dead (or
        // recycled) fd.
        wake_state->orphaned.fetch_add(1);
        return;
      }
      conn->outbuf.insert(conn->outbuf.end(), frame_bytes.begin(),
                          frame_bytes.end());
    }
    wake_state->wake();
  };

  serve::SubmitResult result =
      backend_.submit(serve::InferenceRequest::owned(model, std::move(input),
                                                     rows),
                      std::move(opts));
  // NOTE: a shed-inside-submit completion has already enqueued its
  // kResult by this point -- the ack below legitimately trails it on
  // the wire (see net/wire.hpp).
  std::vector<std::uint8_t> ack;
  WireWriter w(ack);
  w.u8(result.admitted() ? 1 : 0);
  w.u64(result.request_id());
  enqueue_response(conn, MsgType::kSubmitAck, correlation, ack);
}

void Server::enqueue_response(const std::shared_ptr<Connection>& conn,
                              MsgType type, std::uint64_t correlation,
                              std::span<const std::uint8_t> body) {
  const auto frame_bytes = encode_frame(type, correlation, body);
  {
    std::scoped_lock lock(conn->m);
    if (!conn->open) {
      wake_state_->orphaned.fetch_add(1);
      return;
    }
    conn->outbuf.insert(conn->outbuf.end(), frame_bytes.begin(),
                        frame_bytes.end());
  }
  wake();
}

void Server::enqueue_error(const std::shared_ptr<Connection>& conn,
                           std::uint64_t correlation, const WireError& error) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(error.kind));
  w.str(error.message);
  enqueue_response(conn, MsgType::kError, correlation, body);
}

}  // namespace radix::net
