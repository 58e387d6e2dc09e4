// RemoteBackend: the serve::Backend interface over a socket.
//
// Everything that serves against a Backend -- the closed-loop benches,
// the conformance suite, examples/serve_graph_challenge -- runs
// unmodified against a radix-served process by swapping the
// ShardRouter for a RemoteBackend pointed at its port.
//
// One TCP connection carries every concurrent caller: submits and
// admin calls are multiplexed by wire correlation ids (net/wire.hpp).
// A dedicated READER thread demuxes incoming frames.  Every request,
// submit or admin verb, is the same ONE round trip: register a
// correlation, send, wait for the correlated response or the
// connection's death (a response that arrived is the answer, even if
// EOF followed it).  Every body is decoded to its last byte, so a
// malformed one is an IoError, never a partial answer.
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
//     An admitted submit whose result never came completes with
//     IoError, exactly once.  A malformed kResult is a protocol error
//     that stops the reader, so it counts as connection loss; a
//     malformed ack or admin reply fails only its own call.
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

  /// The one round trip: register `entry`, send `body` as `type`, and
  /// block until the correlated response or the connection's death
  /// (IoError); nullopt if the frame never left.  Only a submit's entry
  /// stays registered after a response, for its kResult.
  std::optional<Frame> round_trip(MsgType type,
                                  std::span<const std::uint8_t> body,
                                  const std::shared_ptr<Pending>& entry) const;
  void forget(std::uint64_t correlation) const;  // unregister, wake drain
  /// An admin verb: `write` the request, `read` the `expected` reply.
  template <typename Write, typename Read>
  auto call(MsgType type, MsgType expected, Write write, Read read) const;
  void reader_loop();
  /// Fail every outstanding entry with `reason` (connection loss).
  void fail_all(const std::string& reason);
  /// Decode a kResult body (IoError if malformed), then complete `entry`.
  static void deliver_result(Pending& entry, const Frame& frame);
  /// Run a submit's DoneFn or fulfil its promise: once per entry, never
  /// under mutex_ (it runs user code).
  static void complete(Pending& entry, std::vector<float> output,
                       const serve::RequestTiming& timing,
                       std::exception_ptr error);

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
