// Export surface for the serving stack.
//
// ServeStats (serve/stats.hpp) is a cumulative, since-boot snapshot; a
// scraper wants a stable named-series surface.  MetricsRegistry is an
// ordered collection of metric families (counter / gauge / histogram),
// each holding labeled series.  The registry is a RENDER-TIME value,
// not a live store: ShardRouter::export_metrics, the one exporter,
// rebuilds it from StatsCollector snapshots and live gauges on every
// scrape, so there is no double bookkeeping on the hot path.  Two
// renderers: render_prometheus() emits the text exposition format
// (HELP/TYPE headers, cumulative `le` histogram buckets, _sum/_count),
// and to_json() a structured dump for programmatic consumers.  Rates
// are the scraper's job: it diffs the cumulative `_total` counters
// between scrapes.
//
// Naming follows Prometheus conventions: `radix_serve_` prefix,
// `_total` suffix on counters, base units (seconds) in histogram
// names.  The standard label set is {class, shard}; the router adds
// its own fleet-level series (shard health, failover count).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/stats.hpp"

namespace radix::serve {

/// (name, value) pairs; order given is preserved in the rendering.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

inline constexpr const char* to_string(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Ordered registry of metric families (see the file comment).  Not
/// thread-safe: build one per scrape on the scraping thread -- the
/// underlying collectors do the synchronizing.
class MetricsRegistry {
 public:
  /// Add/overwrite one series.  The first call for `name` fixes the
  /// family's kind and help text; a later call with a different kind
  /// throws (a name must not render under two TYPEs).
  void set_counter(std::string_view name, MetricLabels labels, double value,
                   std::string_view help = "");
  void set_gauge(std::string_view name, MetricLabels labels, double value,
                 std::string_view help = "");
  void set_histogram(std::string_view name, MetricLabels labels,
                     const Log2Histogram& hist, std::string_view help = "");

  /// Prometheus text exposition format, version 0.0.4: per family a
  /// `# HELP` / `# TYPE` header, then one line per series.  Histograms
  /// render cumulative `le`-labeled buckets (upper bounds from the
  /// Log2Histogram grid, only non-empty buckets plus `+Inf`), `_sum`
  /// and `_count`.
  std::string render_prometheus() const;

  /// Structured JSON: {"families":[{name, kind, help, series:[{labels,
  /// value | buckets/sum/count}]}]}.
  std::string to_json() const;

  /// Scalar value of one counter/gauge series; nullptr when the family
  /// or exact label set is absent.  Test/assertion helper.
  const double* find(std::string_view name, const MetricLabels& labels) const;

 private:
  struct Series {
    MetricLabels labels;
    double value = 0.0;           // counter / gauge
    Log2Histogram hist{1.0};      // histogram families only
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<Series> series;
  };

  Family& family(std::string_view name, MetricKind kind,
                 std::string_view help);
  Series& series(Family& fam, MetricLabels&& labels);

  std::vector<Family> families_;  // insertion-ordered for stable output
};

}  // namespace radix::serve
