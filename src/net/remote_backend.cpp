#include "net/remote_backend.hpp"

#include <sys/socket.h>

#include <future>

namespace radix::net {

using serve::SubmitResult;

/// One outstanding correlation: either an RPC waiting for its response
/// frame, or a submit -- which waits for its kSubmitAck here AND owns
/// the completion plumbing its kResult (possibly arriving first) is
/// delivered through.  All fields are guarded by RemoteBackend::mutex_
/// except `done`/`promise`, which are write-once before the frame is
/// sent and only read by the delivering thread afterwards.
struct RemoteBackend::Pending {
  bool is_submit = false;
  std::optional<Frame> resp;  // ack / RPC response / kError
  bool failed = false;
  std::string fail_reason;
  bool ack_handled = false;
  bool admitted = false;
  bool result_delivered = false;
  serve::DoneFn done;  // callback completion; else promise below
  std::shared_ptr<std::promise<std::vector<float>>> promise;
};

namespace {

WireError decode_error_body(const Frame& frame) {
  WireReader r(frame.body);
  WireError e;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(WireErrorKind::kDeadline)) {
    throw IoError("wire: bad error kind");
  }
  e.kind = static_cast<WireErrorKind>(kind);
  e.message = r.str();
  return e;
}

}  // namespace

RemoteBackend::RemoteBackend(std::uint16_t port)
    : fd_(connect_tcp(port)) {
  reader_ = std::thread([this] { reader_loop(); });
}

RemoteBackend::~RemoteBackend() { shutdown(); }

// --- Reader / demux --------------------------------------------------------

void RemoteBackend::reader_loop() {
  std::string reason = "connection closed";
  try {
    for (;;) {
      auto frame = recv_frame(fd_);
      if (!frame) break;  // clean EOF
      if (frame->type == MsgType::kResult) {
        std::shared_ptr<Pending> entry;
        {
          std::scoped_lock lock(mutex_);
          auto it = pending_.find(frame->correlation);
          if (it != pending_.end() && it->second->is_submit &&
              !it->second->result_delivered) {
            entry = it->second;
          }
        }
        if (!entry) continue;  // un-correlated result; drop
        deliver_result(entry, *frame);  // user code: never under mutex_
        {
          std::scoped_lock lock(mutex_);
          entry->result_delivered = true;
          if (entry->ack_handled) pending_.erase(frame->correlation);
          cv_.notify_all();
        }
        continue;
      }
      std::scoped_lock lock(mutex_);
      auto it = pending_.find(frame->correlation);
      if (it != pending_.end()) {
        it->second->resp = std::move(*frame);
        cv_.notify_all();
      }
    }
  } catch (const Error& e) {
    reason = e.what();
  } catch (const std::exception& e) {
    reason = e.what();
  }
  fail_all(reason);
}

void RemoteBackend::deliver_result(std::shared_ptr<Pending> entry,
                                   const Frame& frame) {
  WireReader r(frame.body);
  const std::uint8_t kind = r.u8();
  const std::string message = r.str();
  serve::RequestTiming timing;
  timing.queue_seconds = r.f64();
  timing.total_seconds = r.f64();
  timing.batch_rows = static_cast<index_t>(r.u32());
  timing.request_id = r.u64();
  std::vector<float> output = r.floats();

  std::exception_ptr error;
  if (kind != static_cast<std::uint8_t>(WireErrorKind::kNone)) {
    WireError e;
    e.kind = kind > static_cast<std::uint8_t>(WireErrorKind::kDeadline)
                 ? WireErrorKind::kGeneric
                 : static_cast<WireErrorKind>(kind);
    e.message = message;
    try {
      throw_wire_error(e);
    } catch (...) {
      error = std::current_exception();
    }
  }
  if (entry->done) {
    // The DoneFn contract: exceptions escaping the callback are the
    // caller's bug; swallow them like the in-process workers do.
    try {
      entry->done(error ? std::span<const float>{}
                        : std::span<const float>(output),
                  timing, error);
    } catch (...) {
    }
    return;
  }
  if (error) {
    entry->promise->set_exception(error);
  } else {
    entry->promise->set_value(std::move(output));
  }
}

void RemoteBackend::fail_all(const std::string& reason) {
  std::vector<std::shared_ptr<Pending>> to_fail;
  {
    std::scoped_lock lock(mutex_);
    connected_ = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& e = *it->second;
      e.failed = true;
      e.fail_reason = reason;
      if (e.is_submit && e.ack_handled && e.admitted &&
          !e.result_delivered) {
        // Admitted and in flight when the socket died: the exactly-once
        // completion promise is honored with an IoError (NOT
        // AbortedError -- the server may well have executed it, so a
        // failover layer must not blind-retry; see the file comment).
        e.result_delivered = true;
        to_fail.push_back(it->second);
      }
      // Entries with a parked waiter (ack or RPC) are erased by that
      // waiter when it wakes to `failed`; fully-acked submits have no
      // waiter left, so reap them here.
      if (e.ack_handled) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    cv_.notify_all();
  }
  for (auto& entry : to_fail) fail_admitted(*entry, reason);
}

void RemoteBackend::fail_admitted(Pending& entry, const std::string& reason) {
  const auto error = std::make_exception_ptr(
      IoError("radix-served connection lost: " + reason));
  serve::RequestTiming timing;
  if (entry.done) {
    try {
      entry.done({}, timing, error);
    } catch (...) {
    }
  } else {
    entry.promise->set_exception(error);
  }
}

// --- Request plumbing ------------------------------------------------------

Frame RemoteBackend::rpc(MsgType type, std::span<const std::uint8_t> body,
                         MsgType expected) const {
  auto entry = std::make_shared<Pending>();
  std::uint64_t correlation;
  {
    std::scoped_lock lock(mutex_);
    if (!connected_) throw IoError("radix-served connection lost");
    correlation = next_correlation_++;
    pending_.emplace(correlation, entry);
  }
  try {
    std::scoped_lock lock(send_mutex_);
    write_all(fd_, encode_frame(type, correlation, body));
  } catch (...) {
    std::scoped_lock lock(mutex_);
    pending_.erase(correlation);
    throw;
  }
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return entry->resp.has_value() || entry->failed; });
  pending_.erase(correlation);
  // The reader may store the response and then hit EOF (fail_all) before
  // this waiter wakes: a response that arrived is still the answer.
  if (!entry->resp) {
    throw IoError("radix-served connection lost: " + entry->fail_reason);
  }
  Frame resp = std::move(*entry->resp);
  lock.unlock();
  if (resp.type == MsgType::kError) throw_wire_error(decode_error_body(resp));
  if (resp.type != expected) throw IoError("wire: unexpected response type");
  return resp;
}

SubmitResult RemoteBackend::submit(serve::InferenceRequest req,
                                   serve::SubmitOptions opts) {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u64(req.model);
  w.u32(static_cast<std::uint32_t>(req.rows));
  w.u8(static_cast<std::uint8_t>(opts.admission));
  w.i64(opts.timeout.count());
  w.i64(opts.deadline.count());
  w.u64(opts.trace_id);
  w.floats(req.input);  // copies the rows into the frame

  auto entry = std::make_shared<Pending>();
  entry->is_submit = true;
  entry->done = std::move(opts.done);
  std::future<std::vector<float>> fut;
  if (!entry->done) {
    entry->promise = std::make_shared<std::promise<std::vector<float>>>();
    fut = entry->promise->get_future();
  }

  std::uint64_t correlation;
  {
    std::scoped_lock lock(mutex_);
    if (!accepting_ || !connected_) return SubmitResult::rejected();
    correlation = next_correlation_++;
    pending_.emplace(correlation, entry);
  }
  try {
    std::scoped_lock lock(send_mutex_);
    write_all(fd_, encode_frame(MsgType::kSubmit, correlation, body));
  } catch (const Error&) {
    // Nothing reached the server: rejection as a value, no side
    // effects -- matching the Backend admission contract.
    std::scoped_lock lock(mutex_);
    pending_.erase(correlation);
    return SubmitResult::rejected();
  }

  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return entry->resp.has_value() || entry->failed; });
  // As in rpc(): an ack that arrived is honoured even when the
  // connection died right after it.
  if (!entry->resp) {
    pending_.erase(correlation);
    cv_.notify_all();
    throw IoError("radix-served connection lost: " + entry->fail_reason);
  }
  Frame resp = std::move(*entry->resp);
  entry->resp.reset();
  if (resp.type == MsgType::kError) {
    pending_.erase(correlation);
    cv_.notify_all();
    lock.unlock();
    throw_wire_error(decode_error_body(resp));
  }
  if (resp.type != MsgType::kSubmitAck) {
    pending_.erase(correlation);
    cv_.notify_all();
    lock.unlock();
    throw IoError("wire: unexpected ack type");
  }
  WireReader r(resp.body);
  const bool admitted = r.u8() != 0;
  const serve::RequestId id = r.u64();
  entry->ack_handled = true;
  entry->admitted = admitted;
  // fail_all skipped this entry while its ack was unhandled, so an
  // admission whose result can no longer arrive completes here, once.
  const bool lost = admitted && entry->failed && !entry->result_delivered;
  if (lost) entry->result_delivered = true;
  if (!admitted || entry->result_delivered) pending_.erase(correlation);
  cv_.notify_all();
  lock.unlock();

  if (!admitted) return SubmitResult::rejected();
  if (lost) fail_admitted(*entry, entry->fail_reason);
  if (entry->done) return SubmitResult::admitted_callback(id);
  return SubmitResult::admitted_future(std::move(fut), id);
}

// --- Backend observers -----------------------------------------------------

serve::ServeStats RemoteBackend::stats(serve::ModelId model) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u64(model);
  const Frame resp = rpc(MsgType::kStatsReq, body, MsgType::kStatsResp);
  WireReader r(resp.body);
  serve::ServeStats s = decode_stats(r);
  r.expect_end();
  return s;
}

std::size_t RemoteBackend::pending(serve::ModelId model) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u64(model);
  const Frame resp = rpc(MsgType::kPendingReq, body, MsgType::kPendingResp);
  WireReader r(resp.body);
  const auto n = static_cast<std::size_t>(r.u64());
  r.expect_end();
  return n;
}

std::size_t RemoteBackend::num_models() const {
  const Frame resp = rpc(MsgType::kNumModelsReq, {}, MsgType::kNumModelsResp);
  WireReader r(resp.body);
  const auto n = static_cast<std::size_t>(r.u64());
  r.expect_end();
  return n;
}

std::optional<serve::ModelId> RemoteBackend::find_model(
    std::string_view name) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.str(name);
  const Frame resp =
      rpc(MsgType::kFindModelReq, body, MsgType::kFindModelResp);
  WireReader r(resp.body);
  const bool found = r.u8() != 0;
  const auto id = static_cast<serve::ModelId>(r.u64());
  r.expect_end();
  if (!found) return std::nullopt;
  return id;
}

bool RemoteBackend::accepting() const {
  std::scoped_lock lock(mutex_);
  return accepting_ && connected_;
}

void RemoteBackend::shutdown() {
  {
    std::unique_lock lock(mutex_);
    accepting_ = false;
    if (shut_down_) return;
    shut_down_ = true;
    // Drain: every admitted request's completion is still delivered by
    // the reader (or failed by fail_all if the connection dies) --
    // admitted-implies-completed survives a local shutdown.
    cv_.wait(lock, [&] {
      if (!connected_) return true;
      for (const auto& [corr, entry] : pending_) {
        if (entry->is_submit) return false;
      }
      return true;
    });
  }
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_RDWR);
  if (reader_.joinable()) reader_.join();
  fd_.reset();
}

// --- Admin surface ---------------------------------------------------------

void RemoteBackend::ping() const {
  (void)rpc(MsgType::kPing, {}, MsgType::kPong);
}

std::vector<WireModelInfo> RemoteBackend::list_models() const {
  const Frame resp =
      rpc(MsgType::kListModelsReq, {}, MsgType::kListModelsResp);
  WireReader r(resp.body);
  const std::uint32_t n = r.u32();
  std::vector<WireModelInfo> models;
  models.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    models.push_back(decode_model_info(r));
  }
  r.expect_end();
  return models;
}

serve::ServeStats RemoteBackend::class_stats(serve::Priority p) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(p));
  const Frame resp =
      rpc(MsgType::kClassStatsReq, body, MsgType::kClassStatsResp);
  WireReader r(resp.body);
  serve::ServeStats s = decode_stats(r);
  r.expect_end();
  return s;
}

std::string RemoteBackend::metrics_text() const {
  const Frame resp = rpc(MsgType::kMetricsReq, {}, MsgType::kMetricsResp);
  WireReader r(resp.body);
  std::string text = r.str();
  r.expect_end();
  return text;
}

std::uint64_t RemoteBackend::save_model(serve::ModelId id,
                                        const std::string& path) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u64(id);
  w.str(path);
  const Frame resp = rpc(MsgType::kSaveModelReq, body, MsgType::kSaveModelResp);
  WireReader r(resp.body);
  const std::uint64_t bytes = r.u64();
  r.expect_end();
  return bytes;
}

serve::ModelId RemoteBackend::load_model(const std::string& path,
                                         const std::string& name) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.str(path);
  w.str(name);
  const Frame resp = rpc(MsgType::kLoadModelReq, body, MsgType::kLoadModelResp);
  WireReader r(resp.body);
  const auto id = static_cast<serve::ModelId>(r.u64());
  r.expect_end();
  return id;
}

std::vector<serve::ShardHealth> RemoteBackend::shard_ctl(
    ShardVerb verb, std::size_t index) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  w.u8(static_cast<std::uint8_t>(verb));
  w.u64(index);
  const Frame resp = rpc(MsgType::kShardCtlReq, body, MsgType::kShardCtlResp);
  WireReader r(resp.body);
  const std::uint32_t n = r.u32();
  std::vector<serve::ShardHealth> health;
  health.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint8_t h = r.u8();
    if (h > static_cast<std::uint8_t>(serve::ShardHealth::kDown)) {
      throw IoError("wire: bad shard health");
    }
    health.push_back(static_cast<serve::ShardHealth>(h));
  }
  r.expect_end();
  return health;
}

void RemoteBackend::server_shutdown() const {
  (void)rpc(MsgType::kShutdownReq, {}, MsgType::kShutdownResp);
}

}  // namespace radix::net
