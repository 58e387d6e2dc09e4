// The serving backend interface: anything that can serve
// InferenceRequests.
//
// A Backend is where requests go after the front-end types
// (serve/request.hpp) have said what to run and how.  Two classes
// implement it: ShardRouter (serve/router.hpp), the in-process backend,
// which drives N Engine shards (serve/engine.hpp) and holds the one
// registry that names and versions models; and net::RemoteBackend
// (net/remote_backend.hpp), which speaks the same interface over a
// socket to a server fronting a router.  Client (serve/client.hpp)
// binds a (backend, model) pair for call-site convenience.
//
// The contract every implementation honors:
//
//   * submit() is the ONLY way in -- one entry point, all admission and
//     completion modes expressed through SubmitOptions.  Thread-safe.
//   * Once submit() reports admitted, completion is guaranteed: the
//     future resolves / the callback runs, even across shutdown()
//     (drain semantics).  A rejected request has no side effects.
//   * shutdown() stops admission, serves everything already accepted,
//     and joins any worker threads before returning.  Idempotent.
//   * stats()/pending() are cheap, thread-safe observers.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace radix::serve {

class Backend {
 public:
  virtual ~Backend() = default;

  /// Serve `req` under `opts` (see serve/request.hpp).  The one public
  /// submit entry point of the serving API.
  virtual SubmitResult submit(InferenceRequest req, SubmitOptions opts = {}) = 0;

  /// Current counters for one model (merged across shards where the
  /// backend is composite).
  virtual ServeStats stats(ModelId model) const = 0;

  /// Requests accepted but not yet claimed by a worker.
  virtual std::size_t pending(ModelId model) const = 0;

  virtual std::size_t num_models() const = 0;

  /// Look a model up by its registration name; nullopt when unknown.
  virtual std::optional<ModelId> find_model(std::string_view name) const = 0;

  /// Stop accepting requests, serve everything already admitted, join
  /// workers.  Idempotent.
  virtual void shutdown() = 0;

  virtual bool accepting() const = 0;
};

}  // namespace radix::serve
