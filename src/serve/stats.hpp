// Stats surface of the serving engine.
//
// Per model the engine tracks the Graph-Challenge throughput metric
// (edges/second over worker busy time), how well the micro-batcher is
// coalescing (a power-of-two batch-row histogram), and two latency
// distributions: queue wait (enqueue -> claimed by a worker, i.e. the
// cost of batching) and end-to-end (enqueue -> completion delivered).
//
// Latencies are recorded into fixed log-2 bucket histograms, so
// recording is O(1), allocation-free and bounded-memory regardless of
// traffic; percentile queries return the winning bucket's upper bound
// (clipped to the observed max), i.e. they are conservative to the
// bucket resolution (~2x at microsecond scale -- ample for "is p99 one
// batch delay or ten").  Recording is serialized
// by a per-collector mutex; the engine records once per *batch* plus
// once per request, which is noise next to a fused forward pass.
//
// Snapshots are MERGEABLE: a ServeStats carries its three histograms
// alongside the derived scalars, and ServeStats::merge folds another
// snapshot in bucket-wise (Log2Histogram::merge) and recomputes the
// derived fields -- so a composite backend (serve/router.hpp) can
// aggregate per-shard views into one whose percentiles are exactly
// those of a histogram built from the pooled samples.  Per-class views
// (Engine::class_stats, ShardRouter::class_stats) are such merges over
// the class's models; no collector records per class.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sparse/types.hpp"

namespace radix::serve {

/// Fixed-size log-2 histogram over positive values (seconds, rows, ...).
/// Bucket k counts values in (base * 2^(k-1), base * 2^k]; values at or
/// below `base` land in bucket 0, values beyond the last bound in the
/// final bucket.
class Log2Histogram {
 public:
  /// `base` is the upper bound of bucket 0 (e.g. 1e-6 for latencies in
  /// seconds: sub-microsecond is "bucket 0").
  explicit Log2Histogram(double base = 1e-6) : base_(base) {}

  void record(double value) noexcept;

  /// Fold `other` in bucket-wise; both histograms must share `base`.
  /// Afterwards every query answers as if this histogram had recorded
  /// the union of both sample streams.
  void merge(const Log2Histogram& other);

  double base() const noexcept { return base_; }
  std::uint64_t count() const noexcept { return count_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept { return count_ ? sum_ / count_ : 0.0; }

  /// Approximate p-quantile (p in [0,1]): upper bound of the bucket
  /// holding the rank-p sample, clipped to the observed max.  0 when
  /// empty.
  ///
  /// The clipping contract, precisely (rank = p * count(), scan stops
  /// at the first bucket where cumulative count >= rank):
  ///   * p = 0 has rank 0, which every bucket satisfies -- the scan
  ///     stops at bucket 0 and returns min(base, max()).  It is NOT the
  ///     minimum sample; a histogram does not retain one.
  ///   * p = 1 lands in the last non-empty bucket; the result is that
  ///     bucket's upper bound clipped to max(), so percentile(1) ==
  ///     max() exactly whenever the largest sample is the clip.
  ///   * A single-sample histogram answers every p > 0 with that
  ///     sample's bucket bound clipped to the sample itself.
  ///   * merge() adds counts bucket-wise and takes the larger max, so a
  ///     merged histogram's percentile equals the percentile of one
  ///     histogram fed both sample streams -- bounds and clips
  ///     included.  (Cross-shard aggregation depends on this.)
  double percentile(double p) const noexcept;

  /// (upper_bound, count) per non-empty bucket, ascending.
  std::vector<std::pair<double, std::uint64_t>> buckets() const;

  /// Fixed grid size: bucket k's upper bound is base * 2^k, k in
  /// [0, kBuckets).  Public because the wire protocol (src/net/wire.*)
  /// serializes the grid verbatim.
  static constexpr int kBuckets = 48;  // base .. base * 2^47

  /// The raw per-bucket counts over the fixed grid, including empty
  /// buckets -- the exact state behind buckets()/percentile().  The
  /// wire protocol ships these so a deserialized histogram merges
  /// bit-exactly with locally recorded ones.
  const std::array<std::uint64_t, kBuckets>& raw_counts() const noexcept {
    return counts_;
  }

  /// Rebuild a histogram from previously captured raw state (the
  /// inverse of raw_counts()/count()/sum()/max()).  `count` must equal
  /// the sum of `counts`; queries on the result answer exactly as they
  /// did on the histogram the state was captured from, and merge()
  /// composes exactly -- the round-trip contract the stats wire frames
  /// rely on.
  static Log2Histogram from_raw(double base,
                                const std::array<std::uint64_t, kBuckets>& counts,
                                std::uint64_t count, double sum, double max);

 private:
  double upper_bound(int k) const noexcept;

  double base_;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Snapshot of one model's serving counters.  Carries the raw
/// histograms it was derived from, so snapshots from independent
/// collectors (e.g. one per shard) merge exactly: fold with merge(),
/// read the recomputed derived fields.
struct ServeStats {
  std::uint64_t requests = 0;  ///< completed requests
  std::uint64_t rows = 0;      ///< input rows served
  std::uint64_t batches = 0;   ///< coalesced batches executed
  std::uint64_t edges = 0;     ///< batch rows x model nnz, summed
  std::uint64_t errors = 0;    ///< requests completed with an exception
  /// Requests dropped by the overload policy (queue pressure shed the
  /// newest request of the lowest backlogged class); completed with
  /// DeadlineExceededError, counted in `requests` and `errors` too.
  std::uint64_t shed = 0;
  /// Requests whose end-to-end deadline passed before a worker claimed
  /// them; completed with DeadlineExceededError, counted in `requests`
  /// and `errors` too.  shed + expired <= errors always holds.
  std::uint64_t expired = 0;

  double busy_seconds = 0.0;          ///< summed forward wall time
  double edges_per_busy_second = 0.0; ///< challenge metric over busy time
  double mean_batch_rows = 0.0;       ///< coalescing quality

  double queue_wait_p50 = 0.0, queue_wait_p95 = 0.0, queue_wait_p99 = 0.0;
  double queue_wait_max = 0.0;
  double e2e_p50 = 0.0, e2e_p95 = 0.0, e2e_p99 = 0.0;
  double e2e_max = 0.0;  // all latencies in seconds

  /// (upper_bound_rows, batches) per non-empty batch-size bucket.
  std::vector<std::pair<double, std::uint64_t>> batch_rows_histogram;

  /// The raw distributions behind the derived fields above.
  Log2Histogram batch_rows_hist{1.0};
  Log2Histogram queue_wait_hist{1e-6};
  Log2Histogram e2e_hist{1e-6};

  /// Fold `other` in (counters summed, histograms merged bucket-wise)
  /// and recompute every derived field.  Percentiles of the merged view
  /// equal those of a histogram fed the pooled samples.
  void merge(const ServeStats& other);

  /// Recompute the derived scalar fields and the bucket listing from
  /// the counters and histograms.  StatsCollector::snapshot and merge()
  /// call this; callers only need it after mutating raw fields by hand.
  void finalize();
};

/// Human-readable multi-line rendering (examples / debugging).
std::string to_string(const ServeStats& s);

/// Thread-safe accumulator behind one model's ServeStats.
class StatsCollector {
 public:
  /// One coalesced batch ran: `rows` input rows over `edges` =
  /// rows x nnz weighted edges in `forward_seconds` of worker time.
  void record_batch(index_t rows, std::uint64_t edges,
                    double forward_seconds);

  /// One request completed (possibly with an error).
  void record_request(double queue_seconds, double total_seconds,
                      bool error);

  /// One request was dropped by the overload policy instead of served:
  /// `expired` distinguishes a passed end-to-end deadline from a queue-
  /// pressure shed.  Counts as a completed request AND an error (the
  /// caller sees DeadlineExceededError), and its waits still land in
  /// the latency histograms -- shed traffic is part of the tail.
  void record_shed(double queue_seconds, double total_seconds, bool expired);

  ServeStats snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t requests_ = 0, batches_ = 0, edges_ = 0, errors_ = 0;
  std::uint64_t shed_ = 0, expired_ = 0;
  std::uint64_t rows_ = 0;
  double busy_seconds_ = 0.0;
  Log2Histogram batch_rows_{1.0};   // bucket 0 = single-row batches
  Log2Histogram queue_wait_{1e-6};  // seconds
  Log2Histogram e2e_{1e-6};         // seconds
};

}  // namespace radix::serve
