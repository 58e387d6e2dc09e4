#include "net/remote_backend.hpp"

#include <sys/socket.h>

#include <future>
#include <utility>

namespace radix::net {

using serve::SubmitResult;

/// One outstanding correlation: either an admin call waiting for its
/// reply, or a submit -- which waits for its kSubmitAck the same way
/// AND stays registered past the ack for the kResult (possibly arriving
/// first) that `complete` delivers.  All fields are guarded by
/// RemoteBackend::mutex_ except `done`/`promise`, which are write-once
/// before the frame is sent and only read by the completing thread
/// afterwards.
struct RemoteBackend::Pending {
  bool is_submit = false;
  std::uint64_t correlation = 0;
  std::optional<Frame> resp;  // ack / admin reply / kError
  bool failed = false;
  std::string fail_reason;
  bool ack_handled = false;
  bool result_delivered = false;
  serve::DoneFn done;  // callback completion; else promise below
  std::shared_ptr<std::promise<std::vector<float>>> promise;
};

namespace {

/// A reader over `resp`'s body once its type is checked: a kError
/// throws the error it carries, any type but `expected` an IoError.
WireReader reply_reader(const Frame& resp, MsgType expected) {
  WireReader r(resp.body);
  if (resp.type == MsgType::kError) {
    const WireError e = decode_error(r);
    r.expect_end();
    throw_wire_error(e);
  }
  if (resp.type != expected) throw IoError("wire: unexpected response type");
  return r;
}

std::exception_ptr connection_lost(const std::string& reason) {
  return std::make_exception_ptr(
      IoError("radix-served connection lost: " + reason));
}

// Request and reply halves of the verbs whose frames carry no body.
void no_body(WireWriter&) {}
bool no_reply(WireReader&) { return true; }
std::uint64_t read_u64(WireReader& r) { return r.u64(); }

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
      std::unique_lock lock(mutex_);
      const auto it = pending_.find(frame->correlation);
      if (it == pending_.end()) continue;  // un-correlated; drop
      const std::shared_ptr<Pending> entry = it->second;
      if (frame->type != MsgType::kResult) {
        entry->resp = std::move(*frame);
        cv_.notify_all();
        continue;
      }
      if (!entry->is_submit || entry->result_delivered) continue;
      lock.unlock();
      // User code: never under mutex_.  A malformed body throws before
      // anything is delivered, and fail_all below completes the entry.
      deliver_result(*entry, *frame);
      lock.lock();
      entry->result_delivered = true;
      if (entry->ack_handled) pending_.erase(entry->correlation);
      cv_.notify_all();
    }
  } catch (const std::exception& e) {
    reason = e.what();
  }
  fail_all(reason);
}

void RemoteBackend::deliver_result(Pending& entry, const Frame& frame) {
  WireReader r(frame.body);
  const WireError e = decode_error(r);
  serve::RequestTiming timing;
  timing.queue_seconds = r.f64();
  timing.total_seconds = r.f64();
  timing.batch_rows = static_cast<index_t>(r.u32());
  timing.request_id = r.u64();
  std::vector<float> output = r.floats();
  r.expect_end();

  std::exception_ptr error;
  if (e.kind != WireErrorKind::kNone) {
    try {
      throw_wire_error(e);
    } catch (...) {
      error = std::current_exception();
    }
  }
  complete(entry, std::move(output), timing, error);
}

void RemoteBackend::complete(Pending& entry, std::vector<float> output,
                             const serve::RequestTiming& timing,
                             std::exception_ptr error) {
  if (entry.done) {
    // The DoneFn contract: exceptions escaping the callback are the
    // caller's bug; swallow them like the in-process workers do.
    try {
      entry.done(error ? std::span<const float>{}
                       : std::span<const float>(output),
                 timing, error);
    } catch (...) {
    }
  } else if (error) {
    entry.promise->set_exception(error);
  } else {
    entry.promise->set_value(std::move(output));
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
      if (!e.ack_handled) {
        ++it;  // its waiter wakes to `failed` and unregisters it
        continue;
      }
      // An acked entry still registered is an admitted submit whose
      // result has not come: a rejection or a delivered result
      // unregisters it, and this runs on the reader, never mid-delivery.
      // Its exactly-once completion is an IoError (NOT AbortedError --
      // the server may well have executed it, so a failover layer must
      // not blind-retry; see the file comment).
      to_fail.push_back(it->second);
      it = pending_.erase(it);
    }
    cv_.notify_all();
  }
  for (auto& entry : to_fail) {
    complete(*entry, {}, {}, connection_lost(reason));
  }
}

// --- Request plumbing ------------------------------------------------------

std::optional<Frame> RemoteBackend::round_trip(
    MsgType type, std::span<const std::uint8_t> body,
    const std::shared_ptr<Pending>& entry) const {
  {
    std::scoped_lock lock(mutex_);
    if (!connected_ || (entry->is_submit && !accepting_)) return std::nullopt;
    entry->correlation = next_correlation_++;
    pending_.emplace(entry->correlation, entry);
  }
  try {
    std::scoped_lock lock(send_mutex_);
    write_all(fd_, encode_frame(type, entry->correlation, body));
  } catch (const Error&) {
    forget(entry->correlation);
    return std::nullopt;
  }
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [&] { return entry->resp.has_value() || entry->failed; });
  // The reader may store the response and then hit EOF (fail_all) before
  // this waiter wakes: a response that arrived is still the answer.
  std::optional<Frame> resp = std::exchange(entry->resp, std::nullopt);
  if (!resp || !entry->is_submit) {
    pending_.erase(entry->correlation);
    cv_.notify_all();
  }
  if (!resp) {
    throw IoError("radix-served connection lost: " + entry->fail_reason);
  }
  return resp;
}

void RemoteBackend::forget(std::uint64_t correlation) const {
  std::scoped_lock lock(mutex_);
  pending_.erase(correlation);
  cv_.notify_all();
}

template <typename Write, typename Read>
auto RemoteBackend::call(MsgType type, MsgType expected, Write write,
                         Read read) const {
  std::vector<std::uint8_t> body;
  WireWriter w(body);
  write(w);
  const std::optional<Frame> resp =
      round_trip(type, body, std::make_shared<Pending>());
  if (!resp) throw IoError("radix-served connection lost");
  WireReader r = reply_reader(*resp, expected);
  auto out = read(r);
  r.expect_end();
  return out;
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

  const std::optional<Frame> ack = round_trip(MsgType::kSubmit, body, entry);
  // Nothing reached the server: rejection as a value, no side effects
  // -- matching the Backend admission contract.
  if (!ack) return SubmitResult::rejected();
  bool admitted = false;
  serve::RequestId id = 0;
  try {
    WireReader r = reply_reader(*ack, MsgType::kSubmitAck);
    admitted = r.u8() != 0;
    id = r.u64();
    r.expect_end();
  } catch (...) {
    forget(entry->correlation);
    throw;
  }

  std::unique_lock lock(mutex_);
  entry->ack_handled = true;
  // fail_all skipped this entry while its ack was unhandled, so an
  // admission whose result can no longer arrive completes here, once.
  const bool lost = admitted && entry->failed && !entry->result_delivered;
  if (lost) entry->result_delivered = true;
  if (!admitted || entry->result_delivered) {
    pending_.erase(entry->correlation);
  }
  cv_.notify_all();
  lock.unlock();

  if (!admitted) return SubmitResult::rejected();
  if (lost) complete(*entry, {}, {}, connection_lost(entry->fail_reason));
  if (entry->done) return SubmitResult::admitted_callback(id);
  return SubmitResult::admitted_future(std::move(fut), id);
}

// --- Backend observers -----------------------------------------------------

serve::ServeStats RemoteBackend::stats(serve::ModelId model) const {
  return call(MsgType::kStatsReq, MsgType::kStatsResp,
              [&](WireWriter& w) { w.u64(model); }, decode_stats);
}

std::size_t RemoteBackend::pending(serve::ModelId model) const {
  return call(MsgType::kPendingReq, MsgType::kPendingResp,
              [&](WireWriter& w) { w.u64(model); }, read_u64);
}

std::size_t RemoteBackend::num_models() const {
  return call(MsgType::kNumModelsReq, MsgType::kNumModelsResp, no_body,
              read_u64);
}

std::optional<serve::ModelId> RemoteBackend::find_model(
    std::string_view name) const {
  return call(MsgType::kFindModelReq, MsgType::kFindModelResp,
              [&](WireWriter& w) { w.str(name); },
              [](WireReader& r) -> std::optional<serve::ModelId> {
                const bool found = r.u8() != 0;
                const auto id = static_cast<serve::ModelId>(r.u64());
                if (!found) return std::nullopt;
                return id;
              });
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
  (void)call(MsgType::kPing, MsgType::kPong, no_body, no_reply);
}

std::vector<WireModelInfo> RemoteBackend::list_models() const {
  return call(MsgType::kListModelsReq, MsgType::kListModelsResp, no_body,
              [](WireReader& r) {
                const std::uint32_t n = r.count(kModelInfoMinBytes);
                std::vector<WireModelInfo> models;
                models.reserve(n);
                for (std::uint32_t i = 0; i < n; ++i) {
                  models.push_back(decode_model_info(r));
                }
                return models;
              });
}

serve::ServeStats RemoteBackend::class_stats(serve::Priority p) const {
  return call(MsgType::kClassStatsReq, MsgType::kClassStatsResp,
              [&](WireWriter& w) { w.u8(static_cast<std::uint8_t>(p)); },
              decode_stats);
}

std::string RemoteBackend::metrics_text() const {
  return call(MsgType::kMetricsReq, MsgType::kMetricsResp, no_body,
              [](WireReader& r) { return r.str(); });
}

std::uint64_t RemoteBackend::save_model(serve::ModelId id,
                                        const std::string& path) const {
  return call(MsgType::kSaveModelReq, MsgType::kSaveModelResp,
              [&](WireWriter& w) {
                w.u64(id);
                w.str(path);
              },
              read_u64);
}

serve::ModelId RemoteBackend::load_model(const std::string& path,
                                         const std::string& name) const {
  return call(MsgType::kLoadModelReq, MsgType::kLoadModelResp,
              [&](WireWriter& w) {
                w.str(path);
                w.str(name);
              },
              read_u64);
}

std::vector<serve::ShardHealth> RemoteBackend::shard_ctl(
    ShardVerb verb, std::size_t index) const {
  return call(MsgType::kShardCtlReq, MsgType::kShardCtlResp,
              [&](WireWriter& w) {
                w.u8(static_cast<std::uint8_t>(verb));
                w.u64(index);
              },
              [](WireReader& r) {
                const std::uint32_t n = r.count(1);  // one u8 per shard
                std::vector<serve::ShardHealth> health;
                health.reserve(n);
                constexpr auto kMax =
                    static_cast<std::uint8_t>(serve::ShardHealth::kDown);
                for (std::uint32_t i = 0; i < n; ++i) {
                  const std::uint8_t h = r.u8();
                  if (h > kMax) throw IoError("wire: bad shard health");
                  health.push_back(static_cast<serve::ShardHealth>(h));
                }
                return health;
              });
}

void RemoteBackend::server_shutdown() const {
  (void)call(MsgType::kShutdownReq, MsgType::kShutdownResp, no_body,
             no_reply);
}

}  // namespace radix::net
