#include "serve/metrics.hpp"

#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace radix::serve {

namespace {

// Prometheus label values and JSON strings share the same escapes.
std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text has its own (smaller) escape set in the exposition format:
// backslash and newline only.  Double quotes must pass through raw --
// HELP is not a quoted string, so reusing escaped() would corrupt any
// help text containing one.
std::string help_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string label_block(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += escaped(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

// Extra labels appended to a histogram series' own labels (`le`).
std::string label_block_with(const MetricLabels& labels,
                             std::string_view extra_name,
                             std::string_view extra_value) {
  MetricLabels all = labels;
  all.emplace_back(std::string(extra_name), std::string(extra_value));
  return label_block(all);
}

std::string number(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  // %.17g round-trips doubles; integral values render without noise.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

}  // namespace

MetricsRegistry::Family& MetricsRegistry::family(std::string_view name,
                                                 MetricKind kind,
                                                 std::string_view help) {
  for (Family& f : families_) {
    if (f.name == name) {
      RADIX_REQUIRE(f.kind == kind,
                    "MetricsRegistry: one name cannot hold two metric kinds");
      if (f.help.empty() && !help.empty()) f.help = std::string(help);
      return f;
    }
  }
  Family f;
  f.name = std::string(name);
  f.help = std::string(help);
  f.kind = kind;
  families_.push_back(std::move(f));
  return families_.back();
}

MetricsRegistry::Series& MetricsRegistry::series(Family& fam,
                                                 MetricLabels&& labels) {
  for (Series& s : fam.series) {
    if (s.labels == labels) return s;
  }
  Series s;
  s.labels = std::move(labels);
  fam.series.push_back(std::move(s));
  return fam.series.back();
}

void MetricsRegistry::set_counter(std::string_view name, MetricLabels labels,
                                  double value, std::string_view help) {
  Family& f = family(name, MetricKind::kCounter, help);
  series(f, std::move(labels)).value = value;
}

void MetricsRegistry::set_gauge(std::string_view name, MetricLabels labels,
                                double value, std::string_view help) {
  Family& f = family(name, MetricKind::kGauge, help);
  series(f, std::move(labels)).value = value;
}

void MetricsRegistry::set_histogram(std::string_view name, MetricLabels labels,
                                    const Log2Histogram& hist,
                                    std::string_view help) {
  Family& f = family(name, MetricKind::kHistogram, help);
  Series& s = series(f, std::move(labels));
  s.hist = hist;
  s.value = static_cast<double>(hist.count());
}

const double* MetricsRegistry::find(std::string_view name,
                                    const MetricLabels& labels) const {
  for (const Family& f : families_) {
    if (f.name != name) continue;
    for (const Series& s : f.series) {
      if (s.labels == labels) return &s.value;
    }
  }
  return nullptr;
}

std::string MetricsRegistry::render_prometheus() const {
  std::string out;
  for (const Family& f : families_) {
    if (!f.help.empty()) {
      out += "# HELP " + f.name + " " + help_escaped(f.help) + "\n";
    }
    out += "# TYPE " + f.name + " ";
    out += to_string(f.kind);
    out += '\n';
    for (const Series& s : f.series) {
      if (f.kind != MetricKind::kHistogram) {
        out += f.name + label_block(s.labels) + " " + number(s.value) + "\n";
        continue;
      }
      // Cumulative buckets over the log-2 grid: every non-empty bucket
      // bound plus the mandatory +Inf.
      std::uint64_t cum = 0;
      for (const auto& [bound, count] : s.hist.buckets()) {
        cum += count;
        out += f.name + "_bucket" +
               label_block_with(s.labels, "le", number(bound)) + " " +
               number(static_cast<double>(cum)) + "\n";
      }
      out += f.name + "_bucket" + label_block_with(s.labels, "le", "+Inf") +
             " " + number(static_cast<double>(s.hist.count())) + "\n";
      out += f.name + "_sum" + label_block(s.labels) + " " +
             number(s.hist.sum()) + "\n";
      out += f.name + "_count" + label_block(s.labels) + " " +
             number(static_cast<double>(s.hist.count())) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\"families\":[";
  for (std::size_t fi = 0; fi < families_.size(); ++fi) {
    const Family& f = families_[fi];
    if (fi) out += ',';
    out += "{\"name\":\"" + escaped(f.name) + "\",\"kind\":\"";
    out += to_string(f.kind);
    out += "\",\"help\":\"" + escaped(f.help) + "\",\"series\":[";
    for (std::size_t si = 0; si < f.series.size(); ++si) {
      const Series& s = f.series[si];
      if (si) out += ',';
      out += "{\"labels\":{";
      for (std::size_t li = 0; li < s.labels.size(); ++li) {
        if (li) out += ',';
        out += '"';
        out += escaped(s.labels[li].first);
        out += "\":\"";
        out += escaped(s.labels[li].second);
        out += '"';
      }
      out += "}";
      if (f.kind == MetricKind::kHistogram) {
        out += ",\"buckets\":[";
        const auto buckets = s.hist.buckets();
        for (std::size_t bi = 0; bi < buckets.size(); ++bi) {
          if (bi) out += ',';
          out += '[';
          out += number(buckets[bi].first);
          out += ',';
          out += number(static_cast<double>(buckets[bi].second));
          out += ']';
        }
        out += "],\"sum\":" + number(s.hist.sum()) +
               ",\"count\":" + number(static_cast<double>(s.hist.count()));
      } else {
        out += ",\"value\":" + number(s.value);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace radix::serve
