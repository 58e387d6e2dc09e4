#include "serve/batcher.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace radix::serve {

MicroBatcher::MicroBatcher(BatcherOptions options)
    : options_(options),
      clock_(options.clock ? options.clock : &steady_clock_source()) {
  RADIX_REQUIRE(options_.queue_capacity > 0,
                "MicroBatcher: queue capacity must be > 0");
  RADIX_REQUIRE(options_.max_batch_rows > 0,
                "MicroBatcher: max_batch_rows must be > 0");
  RADIX_REQUIRE(options_.starvation_bound > 0,
                "MicroBatcher: starvation_bound must be >= 1");
}

MicroBatcher::~MicroBatcher() { clock_->forget(monitor_); }

std::size_t MicroBatcher::add_model(QosPolicy policy) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(!closed_, "MicroBatcher: add_model after close");
  // Resolve inherited knobs so the scheduler never consults defaults.
  if (policy.max_batch_rows == 0) policy.max_batch_rows = options_.max_batch_rows;
  if (policy.max_delay < std::chrono::microseconds::zero()) {
    policy.max_delay = options_.max_delay;
  }
  RADIX_REQUIRE(policy.weight >= 1, "MicroBatcher: weight must be >= 1");
  // Priority is a uint8 enum class, so any raw value converts legally
  // (e.g. out of config parsing); it indexes classes_, so gate it here.
  RADIX_REQUIRE(static_cast<std::size_t>(policy.priority) < kNumPriorities,
                "MicroBatcher: invalid priority class");
  auto slot = std::make_unique<ModelSlot>();
  slot->policy = policy;
  slots_.push_back(std::move(slot));
  const std::size_t id = slots_.size() - 1;
  classes_[static_cast<std::size_t>(policy.priority)].members.push_back(id);
  return id;
}

std::size_t MicroBatcher::num_models() const {
  std::unique_lock lock(monitor_.mutex);
  return slots_.size();
}

QosPolicy MicroBatcher::policy(std::size_t model) const {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  return slots_[model]->policy;
}

void MicroBatcher::retire_model(std::size_t model) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  slots_[model]->retired = true;
  // Submitters blocked on this model's full queue must wake and fail:
  // their wait predicates include the retired flag.
  monitor_.cv.notify_all();
}

bool MicroBatcher::model_retired(std::size_t model) const {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  return slots_[model]->retired;
}

void MicroBatcher::drain_model(std::size_t model) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  ModelSlot& slot = *slots_[model];
  monitor_.cv.wait(lock, [&] {
    return slot.queue.empty() && slot.inflight == 0;
  });
}

void MicroBatcher::quiesce() {
  std::unique_lock lock(monitor_.mutex);
  monitor_.cv.wait(lock, [&] {
    for (const auto& slot : slots_) {
      if (!slot->queue.empty() || slot->inflight != 0) return false;
    }
    return true;
  });
}

void MicroBatcher::batch_complete(std::size_t model) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  ModelSlot& slot = *slots_[model];
  RADIX_ASSERT(slot.inflight > 0,
               "MicroBatcher: batch_complete without a claimed batch");
  --slot.inflight;
  // Wakes drain_model/quiesce waiters (and costs one spurious sweep for
  // anyone else sharing the monitor -- batches are coarse, so this is
  // per-batch, not per-request, noise).
  monitor_.cv.notify_all();
}

std::vector<std::pair<std::size_t, Request>> MicroBatcher::abort() {
  std::vector<std::pair<std::size_t, Request>> orphans;
  std::unique_lock lock(monitor_.mutex);
  closed_ = true;
  for (std::size_t m = 0; m < slots_.size(); ++m) {
    std::deque<Request>& q = slots_[m]->queue;
    for (Request& r : q) orphans.emplace_back(m, std::move(r));
    q.clear();
  }
  queued_total_ = 0;
  monitor_.cv.notify_all();
  return orphans;
}

bool MicroBatcher::shed_for_pressure_locked(std::size_t model,
                                            ShedList* shed) {
  if (options_.shed_capacity == 0) return false;
  const std::size_t incoming =
      static_cast<std::size_t>(slots_[model]->policy.priority);
  while (queued_total_ >= options_.shed_capacity) {
    // Victim: the newest queued request of the lowest-priority class
    // STRICTLY below the incoming class -- background is shed to admit
    // batch, background and batch to admit interactive.  Within the
    // victim class, drop-tail across its models: the request enqueued
    // last is furthest from service, so shedding it wastes the least
    // already-paid queue wait.
    std::size_t victim = kNone;
    Clock::time_point newest{};
    for (std::size_t c = kNumPriorities; c-- > incoming + 1;) {
      for (std::size_t m : classes_[c].members) {
        const std::deque<Request>& q = slots_[m]->queue;
        if (q.empty()) continue;
        if (victim == kNone || q.back().enqueued >= newest) {
          victim = m;
          newest = q.back().enqueued;
        }
      }
      if (victim != kNone) break;
    }
    // No lower class backlogged: the incoming request is itself the
    // lowest-value work at this instant, so it is the one shed.
    if (victim == kNone) return true;
    std::deque<Request>& q = slots_[victim]->queue;
    shed->emplace_back(victim, std::move(q.back()));
    q.pop_back();
    --queued_total_;
  }
  return false;
}

bool MicroBatcher::push_locked(std::size_t model, Request&& r,
                               ShedList* shed) {
  // Enqueue time is stamped here, after any backpressure wait: the
  // max_delay bound is measured from admission, with the injected
  // clock.  `submitted` (the stats anchor) was stamped at submit entry
  // so latency percentiles include the backpressure wait itself.
  r.enqueued = clock_->now();
  if (r.submitted == Clock::time_point{}) r.submitted = r.enqueued;
  RADIX_REQUIRE(options_.shed_capacity == 0 || shed != nullptr,
                "MicroBatcher: shed_capacity > 0 requires a shed list");
  if (shed_for_pressure_locked(model, shed)) {
    // Admitted-then-shed: the caller completes it with
    // DeadlineExceededError; it never enters a queue.
    shed->emplace_back(model, std::move(r));
    return true;
  }
  slots_[model]->queue.push_back(std::move(r));
  ++queued_total_;
  monitor_.cv.notify_all();
  return true;
}

bool MicroBatcher::submit(std::size_t model, Request&& r, ShedList* shed) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  r.submitted = clock_->now();
  ModelSlot& slot = *slots_[model];
  monitor_.cv.wait(
      lock, [&] { return closed_ || slot.retired || !full_locked(slot); });
  if (closed_ || slot.retired) return false;
  return push_locked(model, std::move(r), shed);
}

bool MicroBatcher::try_submit(std::size_t model, Request&& r,
                              ShedList* shed) {
  return submit_for(model, std::move(r), std::chrono::microseconds::zero(),
                    shed);
}

bool MicroBatcher::submit_for(std::size_t model, Request&& r,
                              std::chrono::microseconds timeout,
                              ShedList* shed) {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  r.submitted = clock_->now();
  ModelSlot& slot = *slots_[model];
  if (timeout.count() > 0) {
    const auto deadline = clock_->now() + timeout;
    while (!closed_ && !slot.retired && full_locked(slot)) {
      if (clock_->wait_until(monitor_, lock, deadline) ==
              std::cv_status::timeout &&
          full_locked(slot)) {
        break;  // deadline reached with no space: admission failure
      }
    }
  }
  if (closed_ || slot.retired || full_locked(slot)) return false;
  return push_locked(model, std::move(r), shed);
}

std::size_t MicroBatcher::pick_model_locked() {
  std::array<bool, kNumPriorities> has{};
  bool any = false;
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    for (std::size_t m : classes_[c].members) {
      if (!slots_[m]->queue.empty()) {
        has[c] = true;
        any = true;
        break;
      }
    }
  }
  if (!any) return kNone;

  // Starvation boost overrides strict priority: a backlogged class
  // passed over for starvation_bound consecutive claims is served now.
  // Checked lowest class first -- it is the one strictness hurts most.
  std::size_t chosen = kNumPriorities;
  for (std::size_t c = kNumPriorities; c-- > 0;) {
    if (has[c] && classes_[c].skipped >= options_.starvation_bound) {
      chosen = c;
      break;
    }
  }
  if (chosen == kNumPriorities) {
    for (std::size_t c = 0; c < kNumPriorities; ++c) {
      if (has[c]) {
        chosen = c;
        break;
      }
    }
  }
  for (std::size_t c = 0; c < kNumPriorities; ++c) {
    if (!has[c]) continue;  // an idle class is not being starved
    classes_[c].skipped = (c == chosen) ? 0 : classes_[c].skipped + 1;
  }
  return pick_in_class_locked(classes_[chosen]);
}

std::size_t MicroBatcher::pick_in_class_locked(ClassState& cls) {
  const std::size_t n = cls.members.size();
  // Idle queues bank no credit: fairness divides rows among backlogged
  // models only, and debt is forgiven once a queue fully drains.
  for (std::size_t m : cls.members) {
    if (slots_[m]->queue.empty()) slots_[m]->deficit = 0;
  }
  // A model can afford a claim when its banked rows cover its head
  // request (capped at its row budget: an oversize head ships alone
  // anyway, and the cap keeps the replenish arithmetic bounded).
  const auto cost_of = [&](const ModelSlot& s) {
    return std::min<std::int64_t>(s.queue.front().rows,
                                  s.policy.max_batch_rows);
  };
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t at = (cls.cursor + i) % n;
      ModelSlot& s = *slots_[cls.members[at]];
      if (s.queue.empty()) continue;
      if (s.deficit >= cost_of(s)) {
        cls.cursor = (at + 1) % n;
        return cls.members[at];
      }
    }
    // Nobody can afford their head request: replenish every backlogged
    // model by the minimum number of whole rounds (weight rows each)
    // that lets at least one of them pay -- exact DRR, without looping
    // one quantum at a time.
    std::int64_t rounds = -1;
    for (std::size_t m : cls.members) {
      const ModelSlot& s = *slots_[m];
      if (s.queue.empty()) continue;
      const std::int64_t need = cost_of(s) - s.deficit;
      const std::int64_t w = s.policy.weight;
      const std::int64_t r = (need + w - 1) / w;
      if (rounds < 0 || r < rounds) rounds = r;
    }
    RADIX_ASSERT(rounds > 0, "MicroBatcher: WDRR replenish must progress");
    for (std::size_t m : cls.members) {
      ModelSlot& s = *slots_[m];
      if (!s.queue.empty()) {
        s.deficit += rounds * static_cast<std::int64_t>(s.policy.weight);
      }
    }
  }
}

bool MicroBatcher::next(Batch& out) {
  std::unique_lock lock(monitor_.mutex);
  for (;;) {
    const std::size_t pick = pick_model_locked();
    if (pick == kNone) {
      if (closed_) return false;
      monitor_.cv.wait(lock);
      continue;
    }

    ModelSlot& slot = *slots_[pick];
    const index_t max_rows = slot.policy.max_batch_rows;
    const auto max_delay = slot.policy.max_delay;
    out.clear();
    out.model = pick;
    out.priority = slot.policy.priority;
    std::deque<Request>& q = slot.queue;
    const auto is_expired = [](const Request& r, Clock::time_point now) {
      // "now >= deadline" so a request expiring exactly at its deadline
      // is shed, never dispatched.
      return r.deadline != Clock::time_point{} && now >= r.deadline;
    };
    const auto take_fitting = [&] {
      bool popped = false;
      const auto now = clock_->now();
      while (!q.empty()) {
        Request& r = q.front();
        // A request whose end-to-end deadline has passed is claimed as
        // shed work, not forward work: it costs no rows and does not
        // end the FIFO scan -- the next live request may still fit.
        if (is_expired(r, now)) {
          out.expired.push_back(std::move(r));
          q.pop_front();
          --queued_total_;
          popped = true;
          continue;
        }
        // FIFO, no reordering: stop at the first request that does not
        // fit.  A lone oversize request still ships (forward handles
        // any batch size).
        if (!out.requests.empty() && out.rows + r.rows > max_rows) break;
        out.rows += r.rows;
        out.requests.push_back(std::move(r));
        q.pop_front();
        --queued_total_;
        popped = true;
      }
      // Wake producers blocked on a full queue *now*, not after the
      // coalescing wait: with queue_capacity < max_rows a blocked
      // submitter is exactly what fills this batch, and without the
      // wake both sides would sleep out the whole max_delay window.
      if (popped) monitor_.cv.notify_all();
    };
    take_fitting();
    // The claim is in flight from the FIRST pop, not from return: the
    // coalescing wait below leaves the queue empty while the claimed
    // requests sit in `out`, and drain_model/quiesce must not conclude
    // the model is idle while a worker still holds its work.
    ++slot.inflight;

    // A pure-expired claim ships immediately (no coalescing wait): the
    // consumer should deliver the DeadlineExceeded completions now, and
    // there is no live request to anchor the window on.
    if (!out.requests.empty() && out.rows < max_rows &&
        max_delay.count() > 0 && !closed_) {
      // Coalescing window anchored at the *oldest* claimed request's
      // enqueue time: total added latency is bounded by max_delay, and
      // a request that already waited that long ships immediately.
      const auto deadline = out.requests.front().enqueued + max_delay;
      while (out.rows < max_rows && !closed_) {
        if (clock_->wait_until(monitor_, lock, deadline) ==
            std::cv_status::timeout) {
          take_fitting();  // grab anything that raced the deadline
          break;
        }
        take_fitting();
      }
      // Requests claimed before the wait may have expired during it:
      // sweep them into `expired` so the batch never dispatches a
      // request past its deadline.
      const auto now = clock_->now();
      const auto first_dead = std::stable_partition(
          out.requests.begin(), out.requests.end(),
          [&](const Request& r) { return !is_expired(r, now); });
      for (auto it = first_dead; it != out.requests.end(); ++it) {
        out.rows -= it->rows;
        out.expired.push_back(std::move(*it));
      }
      out.requests.erase(first_dead, out.requests.end());
    }

    // WDRR accounting: pay for every LIVE row claimed (expired requests
    // consumed no service).  A batch may exceed the head-request cost
    // it was admitted under (coalescing fills to the budget; an
    // oversize lone request exceeds it), so deficit can go negative --
    // that debt is the mechanism that keeps long-run row shares
    // proportional to the weights.
    slot.deficit -= static_cast<std::int64_t>(out.rows);
    monitor_.cv.notify_all();  // queue space freed for blocked submitters
    return true;
  }
}

void MicroBatcher::close() {
  std::unique_lock lock(monitor_.mutex);
  closed_ = true;
  monitor_.cv.notify_all();
}

bool MicroBatcher::closed() const {
  std::unique_lock lock(monitor_.mutex);
  return closed_;
}

std::size_t MicroBatcher::pending(std::size_t model) const {
  std::unique_lock lock(monitor_.mutex);
  RADIX_REQUIRE(model < slots_.size(), "MicroBatcher: unknown model id");
  return slots_[model]->queue.size();
}

const float* BatchAssembly::assemble(const MicroBatcher::Batch& batch,
                                     index_t input_width) {
  if (batch.requests.size() == 1) {
    return batch.requests.front().input;  // zero-copy fast path
  }
  const std::size_t need =
      static_cast<std::size_t>(batch.rows) * input_width;
  if (staging_.size() < need) staging_.resize(need);
  float* dst = staging_.data();
  for (const Request& r : batch.requests) {
    const std::size_t n = static_cast<std::size_t>(r.rows) * input_width;
    std::memcpy(dst, r.input, n * sizeof(float));
    dst += n;
  }
  return staging_.data();
}

}  // namespace radix::serve
