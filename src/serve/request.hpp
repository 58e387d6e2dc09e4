// Front-end vocabulary of the serving layer: what a client submits and
// what it gets back, independent of the backend that serves it.
//
// PR 3/4 grew Engine a six-way submit overload matrix (callback/future x
// blocking/fail-fast/bounded-wait, plus owned vs. borrowed buffers) that
// every new serving target -- the sharded router, a future network
// front-end -- would have had to duplicate.  This header collapses the
// matrix into data:
//
//   * InferenceRequest -- WHAT to run: a model handle, a row count and
//     the input rows, either borrowed (a std::span the caller keeps
//     alive until completion) or owned (a vector the request carries).
//     The borrowed/owned factories make the lifetime contract part of
//     the type instead of a comment.
//   * SubmitOptions    -- HOW to run it: the admission mode (block on a
//     full queue / fail fast / wait a bounded time) and the completion
//     style (a future, or a zero-copy callback when `done` is set).
//   * SubmitResult     -- what came back: whether the request was
//     admitted, and for future-completion submissions the future that
//     will carry the output rows.
//
// Every backend exposes exactly one entry point over these types
// (Backend::submit in serve/backend.hpp); there are no per-mode
// overloads anywhere in the serving API.
#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "serve/trace.hpp"
#include "sparse/types.hpp"
#include "support/error.hpp"

namespace radix::serve {

/// Identifies a registered model within one Backend.
using ModelId = std::size_t;

// RequestId -- the process-wide monotonically increasing identity every
// admitted request carries through timing, completion and the trace
// timeline -- lives in serve/trace.hpp with the tracing machinery.

/// Completion error of a request orphaned by a backend abort: the
/// serving shard went down (Engine::abort) after admitting the request
/// but before a worker claimed it.  The request was never executed, so
/// resubmitting it elsewhere is always safe -- outputs are deterministic
/// functions of the input, making retries idempotent by construction.
/// ShardRouter's failover path catches exactly this type to resubmit on
/// a healthy shard; any other serving error is deterministic caller- or
/// model-side failure and is delivered as-is.
class AbortedError : public Error {
 public:
  explicit AbortedError(const std::string& what)
      : Error("aborted: " + what) {}
};

/// Completion error of a request the backend shed instead of serving:
/// either its end-to-end deadline (SubmitOptions::deadline) had passed
/// by the time a worker claimed it, or it was dropped under queue
/// pressure by the priority-aware overload policy (lowest QoS class
/// first; see serve/batcher.hpp).  Unlike AbortedError this is a
/// terminal verdict -- the deadline budget is spent, so a failover
/// layer delivers it rather than retrying.
class DeadlineExceededError : public Error {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : Error("deadline exceeded: " + what) {}
};

/// Per-request timing delivered to completion callbacks and recorded by
/// the stats surface.
struct RequestTiming {
  double queue_seconds = 0.0;  ///< submit -> claimed by a worker
  double total_seconds = 0.0;  ///< submit -> completion delivered
  index_t batch_rows = 0;      ///< rows of the coalesced batch served in
  /// The request's trace identity (also SubmitResult::request_id()):
  /// correlates this completion with its drained trace timeline.  0 only
  /// on paths that never entered submit (e.g. default-constructed).
  RequestId request_id = 0;
};

/// Completion callback.  On success `output` holds the request's rows of
/// final activations ([rows x output_width], row-major) and `error` is
/// null; the span aliases worker-owned memory and is only valid during
/// the call -- copy it out to keep it.  On failure `output` is empty and
/// `error` carries the exception.  Callbacks run on the worker thread
/// that served the batch and must not block it for long; an exception
/// escaping the callback is swallowed by the worker (it must never take
/// down the pool), so handle errors inside.
using DoneFn = std::function<void(std::span<const float> output,
                                  const RequestTiming& timing,
                                  std::exception_ptr error)>;

namespace detail {

/// Completion adapter for future-completion submissions: resolves
/// `promise` with a copy of the output rows, or with the error.
inline DoneFn promise_done(
    std::shared_ptr<std::promise<std::vector<float>>> promise) {
  return [promise = std::move(promise)](std::span<const float> y,
                                        const RequestTiming&,
                                        std::exception_ptr err) {
    if (err) {
      promise->set_exception(err);
    } else {
      promise->set_value(std::vector<float>(y.begin(), y.end()));
    }
  };
}

}  // namespace detail

/// One inference request: `rows` rows of model-input features for
/// `model`, row-major in `input`.  Construct through the factories --
/// they encode the input-lifetime contract in the type:
///
///   * borrowed(): `input` views caller-owned memory that MUST stay
///     alive until the request completes (future resolved / callback
///     run).  Zero-copy on the submit path.
///   * owned(): the request carries its own storage; the caller may
///     discard its buffer the moment submit returns.
struct InferenceRequest {
  ModelId model = 0;
  index_t rows = 0;
  /// The input rows ([rows x input_width]); views `storage` when owned.
  std::span<const float> input{};
  /// Non-empty exactly when the request owns its input.  Vector moves
  /// keep the heap buffer stable, so `input` stays valid as the request
  /// is moved through the submit path.
  std::vector<float> storage{};

  InferenceRequest() = default;
  InferenceRequest(InferenceRequest&&) = default;
  InferenceRequest& operator=(InferenceRequest&&) = default;
  // Copying an owned request must rebind `input` to the copy's own
  // storage -- the default memberwise copy would leave it viewing the
  // source's buffer, dangling once the source dies.
  InferenceRequest(const InferenceRequest& other) { *this = other; }
  InferenceRequest& operator=(const InferenceRequest& other) {
    model = other.model;
    rows = other.rows;
    storage = other.storage;
    input = storage.empty() ? other.input : std::span<const float>(storage);
    return *this;
  }

  /// Caller keeps `input` alive until completion.
  static InferenceRequest borrowed(ModelId model, std::span<const float> input,
                                   index_t rows) {
    InferenceRequest r;
    r.model = model;
    r.rows = rows;
    r.input = input;
    return r;
  }

  /// The request takes ownership of `input`.
  static InferenceRequest owned(ModelId model, std::vector<float> input,
                                index_t rows) {
    InferenceRequest r;
    r.model = model;
    r.rows = rows;
    r.storage = std::move(input);
    r.input = std::span<const float>(r.storage);
    return r;
  }
};

/// What to do when the model's queue is full at submit time.
enum class Admission : std::uint8_t {
  kBlock = 0,       ///< wait for space (backpressure); rejected only when
                    ///< the backend is shut down
  kFailFast = 1,    ///< never wait: rejected immediately when full
  kBoundedWait = 2, ///< wait up to SubmitOptions::timeout, then rejected
};

/// How one submit call is admitted and completed.  Defaults reproduce
/// the common case: block for queue space, deliver through a future.
struct SubmitOptions {
  Admission admission = Admission::kBlock;
  /// Admission::kBoundedWait budget; ignored by the other modes.
  /// timeout <= 0 behaves like kFailFast.
  std::chrono::microseconds timeout{0};
  /// End-to-end deadline budget, measured from submit entry -- distinct
  /// from `timeout`, which only bounds the admission wait.  0 means no
  /// deadline.  An admitted request whose deadline passes before a
  /// worker claims it is shed: it never runs forward and completes with
  /// DeadlineExceededError (still exactly one completion).  A negative
  /// value means "already expired" -- used by relays carrying a spent
  /// remaining budget; such a request is admitted and shed at claim.
  std::chrono::microseconds deadline{0};
  /// When set, completion is the callback (zero-copy output span, worker
  /// thread) and SubmitResult carries no future; when empty, completion
  /// is SubmitResult::take_future().
  DoneFn done{};
  /// Trace identity to serve the request under.  0 (the default) makes
  /// the backend assign a fresh next_request_id(); a relaying layer
  /// (ShardRouter's failover capsule) passes the id it already
  /// assigned, so every hop of one request records under one id.
  RequestId trace_id = 0;
};

/// Outcome of Backend::submit.  `admitted()` is the admission verdict:
/// false means the request was NOT accepted (full queue under
/// kFailFast/kBoundedWait, or the backend is shut down) and will never
/// complete -- the callback is not invoked, borrowed input is untouched.
/// For admitted future-completion submissions take_future() yields the
/// output rows ([rows x output_width]) or rethrows the serving error.
class SubmitResult {
 public:
  SubmitResult() = default;  // rejected

  bool admitted() const noexcept { return admitted_; }
  explicit operator bool() const noexcept { return admitted_; }

  /// The admitted request's trace identity: matches the
  /// RequestTiming::request_id its completion will carry and the id its
  /// trace timeline records under.  0 for rejections.
  RequestId request_id() const noexcept { return request_id_; }

  /// True until take_future() is called on an admitted future-completion
  /// result; always false for callback submissions and rejections.
  bool has_future() const noexcept { return future_.valid(); }

  /// The pending output; callable exactly once, only when has_future().
  std::future<std::vector<float>> take_future() {
    RADIX_REQUIRE(future_.valid(),
                  "SubmitResult: no future (rejected, callback-completed, "
                  "or already taken)");
    return std::move(future_);
  }

  /// Convenience: take_future().get().
  std::vector<float> get() { return take_future().get(); }

  static SubmitResult rejected() { return {}; }

  static SubmitResult admitted_callback(RequestId id) {
    SubmitResult r;
    r.admitted_ = true;
    r.request_id_ = id;
    return r;
  }

  static SubmitResult admitted_future(std::future<std::vector<float>> f,
                                      RequestId id) {
    SubmitResult r;
    r.admitted_ = true;
    r.request_id_ = id;
    r.future_ = std::move(f);
    return r;
  }

 private:
  bool admitted_ = false;
  RequestId request_id_ = 0;
  std::future<std::vector<float>> future_{};
};

}  // namespace radix::serve
