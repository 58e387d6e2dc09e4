// Shared pieces of the end-to-end benchmark: raw-sample statistics, the
// metric report, the in-memory span log of traced runs, the host
// context, and the straight-line reference forward used to check
// outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "infer/sparse_dnn.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-6;
}

/// Percentile `q` in [0, 1] of raw samples, linear interpolation
/// between closest ranks (numpy's default).  0 for no samples.
double percentile(std::vector<double> samples, double q);

/// Percentile `q` of each group's raw samples, then the lowest across
/// the non-empty groups (0 when all are empty): the tail of the
/// quietest time window of a run.  On a shared VM the other windows'
/// tails are set by co-tenant load, not by the program; a regression of
/// the program's own tail shows in every window, the quietest included.
double quietest(const std::vector<std::vector<double>>& groups, double q);

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main: the end-to-end metrics,
/// the per-layer metrics (filled in traced runs) and the correctness
/// ledger.  `failed` counts failed, refused and wrong operations.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Spans of a traced run, kept in memory and written out as JSON lines
/// when the run ends.  Disabled logs record nothing.  Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Record a span [start_ns, end_ns] caused by `parent` (0 = root);
  /// `attrs` is the body of a JSON object (`"k": v, ...`) or empty.
  /// Returns the span's id (0 when disabled).
  std::uint64_t record(const std::string& name, std::uint64_t parent,
                       std::int64_t start_ns, std::int64_t end_ns,
                       const std::string& attrs = {});

  /// Append a free-form JSON line (per-layer detail, tracer events).
  void note(const std::string& json_line);

  std::size_t size() const;

  /// Write every span and note, one JSON object per line.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::string attrs;
  };

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::string> notes_;
};

/// RAII timer that records one span on destruction and can report its
/// elapsed time.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0)
      : log_(log), name_(std::move(name)), parent_(parent),
        start_ns_(now_ns()) {}
  ~ScopedSpan() { log_.record(name_, parent_, start_ns_, now_ns()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double elapsed_ms() const { return ms_between(start_ns_, now_ns()); }

 private:
  SpanLog& log_;
  std::string name_;
  std::uint64_t parent_;
  std::int64_t start_ns_;
};

/// `{"k": v, ...}` body helpers for span attributes and info lines.
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Host context recorded with every result: nproc, the OpenMP thread
/// count, CPU model, cache sizes, build type and compiler, as a JSON
/// object.
std::string host_context_json();

/// Straight-line reference of the challenge forward rule: per output,
/// contributions summed in ascending input order, then
/// min(clamp, max(0, sum * scale + bias)) -- the order the fused kernels
/// promise, so the result must match them bit for bit.
std::vector<float> reference_forward(const radix::infer::SparseDnn& dnn,
                                     const float* input,
                                     radix::index_t batch);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Model-to-ready loads per run on the workloads that do not swap
/// models while serving; swap_p50_ms and swap_tail_ms (p90) use them.
inline constexpr int kReadyReps = 20;

}  // namespace perfbench
