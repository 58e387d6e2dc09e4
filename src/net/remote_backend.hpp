// RemoteBackend: the serve::Backend interface over a socket.
//
// Everything that serves against a Backend -- the closed-loop benches,
// the conformance suite, examples/serve_graph_challenge -- runs
// unmodified against a radix-served process by swapping Engine /
// ShardRouter for a RemoteBackend pointed at its port.
//
// One TCP connection carries every concurrent caller: submits and
// admin calls are multiplexed by wire correlation ids (net/wire.hpp).
// A dedicated READER thread demuxes incoming frames:
//
//   * submit() is a synchronous admission round-trip -- encode, send,
//     wait for the kSubmitAck -- so its SubmitResult carries the
//     server-assigned RequestId and the genuine admission verdict
//     (backpressure included: the server clamps blocking admissions to
//     its bounded-wait path and answers "rejected" under overload).
//   * The kResult completes the caller's future or DoneFn from the
//     reader thread.  A kResult may arrive BEFORE its kSubmitAck
//     (shed-inside-submit, see net/wire.hpp); the reader delivers it
//     whenever it lands -- completion-during-submit is legal for
//     in-process backends too, so callers already tolerate it.
//   * Connection loss fails every in-flight request with IoError -- NOT
//     AbortedError: the socket dying cannot prove the server never
//     executed the request, so a failover layer must not blind-retry.
//     A response or ack that arrived before the loss still counts: an
//     admitted submit whose result never came completes with IoError.
//
// shutdown() is LOCAL: it stops admission on this client, waits for
// in-flight completions (drain -- the admitted-implies-completed
// contract holds), and closes the socket.  The server keeps serving
// its other clients; stopping the server itself is the explicit
// server_shutdown() admin verb (radix-ctl shutdown).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "serve/backend.hpp"
#include "serve/qos.hpp"
#include "serve/router.hpp"

namespace radix::net {

class RemoteBackend final : public serve::Backend {
 public:
  /// Connect to a radix-served instance on 127.0.0.1:`port`.
  explicit RemoteBackend(std::uint16_t port);
  ~RemoteBackend() override;  // shutdown()

  RemoteBackend(const RemoteBackend&) = delete;
  RemoteBackend& operator=(const RemoteBackend&) = delete;

  // -- Backend interface --------------------------------------------------

  /// Ship the request over the wire and wait for the admission verdict.
  /// The input rows are copied into the frame at encode time, so both
  /// borrowed() and owned() requests are safe -- the caller's buffer is
  /// not referenced once submit returns.  Completion (future or DoneFn,
  /// reader thread) follows the in-process contract exactly; errors
  /// come back as the serve:: exception type the server classified.
  serve::SubmitResult submit(serve::InferenceRequest req,
                             serve::SubmitOptions opts = {}) override;

  serve::ServeStats stats(serve::ModelId model) const override;
  std::size_t pending(serve::ModelId model) const override;
  std::size_t num_models() const override;
  std::optional<serve::ModelId> find_model(
      std::string_view name) const override;

  /// Local drain: stop admitting, wait for in-flight completions, close
  /// the socket, join the reader.  The server is untouched.  Idempotent.
  void shutdown() override;

  bool accepting() const override;

  // -- Admin surface (radix-ctl) -------------------------------------------

  /// Round-trip liveness probe.
  void ping() const;
  /// Registry listing (id, name, widths, class, version, pending).
  std::vector<WireModelInfo> list_models() const;
  /// Merged per-priority-class counters.
  serve::ServeStats class_stats(serve::Priority p) const;
  /// Prometheus text exposition scraped from the server.
  std::string metrics_text() const;
  /// Apply a shard lifecycle verb, get every shard's health back.
  std::vector<serve::ShardHealth> shard_ctl(ShardVerb verb,
                                            std::size_t index = 0) const;
  /// Persist model `id` as a RADIXART artifact at `path` on the
  /// SERVER's filesystem; returns the artifact size in bytes.
  std::uint64_t save_model(serve::ModelId id, const std::string& path) const;
  /// Register a model from the artifact at `path` (server-side) under
  /// `name` (empty = the artifact's stored name); returns the new id.
  serve::ModelId load_model(const std::string& path,
                            const std::string& name = "") const;
  /// Ask the served process to stop (radix-ctl shutdown).
  void server_shutdown() const;

 private:
  struct Pending;

  /// Send `body` as `type` and block until the correlated response;
  /// throws the decoded error for kError responses, IoError when the
  /// connection died.
  Frame rpc(MsgType type, std::span<const std::uint8_t> body,
            MsgType expected) const;
  void reader_loop();
  /// Fail every outstanding entry with `reason` (connection loss).
  void fail_all(const std::string& reason);
  /// Complete an admitted submit whose result can no longer arrive with
  /// the connection-lost IoError (never under mutex_: runs user code).
  static void fail_admitted(Pending& entry, const std::string& reason);
  void deliver_result(std::shared_ptr<Pending> entry, const Frame& frame);

  Fd fd_;
  mutable std::mutex send_mutex_;  // serializes write_all on fd_

  mutable std::mutex mutex_;  // pending table + flags
  mutable std::condition_variable cv_;
  mutable std::map<std::uint64_t, std::shared_ptr<Pending>> pending_;
  mutable std::uint64_t next_correlation_ = 1;
  bool accepting_ = true;
  bool connected_ = true;
  bool shut_down_ = false;

  std::thread reader_;
};

}  // namespace radix::net
