#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double quietest(const std::vector<std::vector<double>>& groups, double q) {
  std::vector<double> per_group;
  for (const auto& g : groups) {
    if (!g.empty()) per_group.push_back(percentile(g, q));
  }
  return per_group.empty() ? 0.0
                           : *std::min_element(per_group.begin(), per_group.end());
}

std::uint64_t SpanLog::record(const std::string& name, std::uint64_t parent,
                              std::int64_t start_ns, std::int64_t end_ns,
                              const std::string& attrs) {
  if (!enabled_) return 0;
  std::scoped_lock lock(mutex_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, start_ns, end_ns, attrs});
  return id;
}

void SpanLog::note(const std::string& json_line) {
  if (!enabled_) return;
  std::scoped_lock lock(mutex_);
  notes_.push_back(json_line);
}

std::size_t SpanLog::size() const {
  std::scoped_lock lock(mutex_);
  return spans_.size() + notes_.size();
}

void SpanLog::write(const std::string& path) const {
  std::scoped_lock lock(mutex_);
  std::ofstream out(path);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"span\": " << json_string(s.name) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent
        << ", \"start_us\": " << json_number((s.start_ns - origin) * 1e-3)
        << ", \"dur_us\": " << json_number((s.end_ns - s.start_ns) * 1e-3);
    if (!s.attrs.empty()) out << ", " << s.attrs;
    out << "}\n";
  }
  for (const std::string& n : notes_) out << n << "\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string read_trimmed(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\n')) s.pop_back();
  return s;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string cache_sizes() {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string level = read_trimmed(dir + "/level");
    if (level.empty()) break;
    const std::string type = read_trimmed(dir + "/type");
    const std::string key =
        "L" + level + (type == "Data"          ? "d"
                       : type == "Instruction" ? "i"
                                               : "");
    out << (first ? "" : ", ") << json_string(key) << ": "
        << json_string(read_trimmed(dir + "/size"));
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace

std::string host_context_json() {
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"omp_threads\": " << omp_threads
      << ", \"cpu\": " << json_string(cpu_model())
      << ", \"caches\": " << cache_sizes()
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << "}";
  return out.str();
}

std::vector<float> reference_forward(const radix::infer::SparseDnn& dnn,
                                     const float* input,
                                     radix::index_t batch) {
  using radix::index_t;
  using radix::offset_t;
  const index_t in_width = dnn.input_width();
  std::vector<float> out(static_cast<std::size_t>(batch) *
                         dnn.output_width());
  std::vector<float> cur, acc;
  for (index_t b = 0; b < batch; ++b) {
    cur.assign(input + static_cast<std::size_t>(b) * in_width,
               input + static_cast<std::size_t>(b + 1) * in_width);
    for (std::size_t k = 0; k < dnn.depth(); ++k) {
      const radix::CsrFloatView w = dnn.layer_view(k);
      const bool uniform = dnn.layer_uniform(k);
      const auto rowptr = w.rowptr();
      const auto colind = w.colind();
      const auto vals = w.values();
      acc.assign(w.cols(), 0.0f);
      for (index_t r = 0; r < w.rows(); ++r) {
        const float x = cur[r];
        if (x == 0.0f) continue;
        for (offset_t e = rowptr[r]; e < rowptr[r + 1]; ++e) {
          acc[colind[e]] += uniform ? x : x * vals[e];
        }
      }
      const float scale = uniform ? dnn.uniform_weight(k) : 1.0f;
      for (float& v : acc) {
        v = v * scale + dnn.biases()[k];
        if (v < 0.0f) v = 0.0f;
        if (dnn.clamp() > 0.0f && v > dnn.clamp()) v = dnn.clamp();
      }
      cur.swap(acc);
    }
    std::copy(cur.begin(), cur.end(),
              out.begin() + static_cast<std::ptrdiff_t>(b) *
                                static_cast<std::ptrdiff_t>(cur.size()));
  }
  return out;
}

}  // namespace perfbench
