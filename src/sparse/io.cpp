#include "sparse/io.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace radix {

namespace {

template <typename T>
void write_tsv_impl(const std::string& path, const Csr<T>& m) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open for writing: " + path);
  out << "%%shape " << m.rows() << ' ' << m.cols() << '\n';
  for (index_t r = 0; r < m.rows(); ++r) {
    auto cols = m.row_cols(r);
    auto vals = m.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      out << (r + 1) << '\t' << (cols[k] + 1) << '\t'
          << static_cast<double>(vals[k]) << '\n';
    }
  }
  if (!out) throw IoError("write failed: " + path);
}

struct ParsedTsv {
  index_t rows = 0, cols = 0;
  Coo<double> coo;
};

ParsedTsv parse_tsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open for reading: " + path);
  ParsedTsv parsed;
  std::string line;
  bool have_shape = false;
  // First pass collects triples; shape header may pin dimensions.
  std::vector<std::array<double, 3>> triples;
  std::size_t lineno = 0;
  index_t max_r = 0, max_c = 0;
  // Line numbers of the entries that set max_r / max_c, so an entry
  // outside the declared %%shape is reported at its own line.
  std::size_t max_r_line = 0, max_c_line = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line.rfind("%%shape", 0) == 0) {
      std::istringstream ss(line.substr(7));
      if (!(ss >> parsed.rows >> parsed.cols))
        throw IoError(path + ":" + std::to_string(lineno) +
                      ": bad %%shape header");
      have_shape = true;
      continue;
    }
    if (line[0] == '%' || line[0] == '#') continue;
    std::istringstream ss(line);
    double r, c, v;
    if (!(ss >> r >> c >> v))
      throw IoError(path + ":" + std::to_string(lineno) + ": parse error");
    if (r < 1 || c < 1)
      throw IoError(path + ":" + std::to_string(lineno) +
                    ": indices must be 1-based positive");
    // Checked before any cast: a double past index_t's range (or a
    // fraction) would convert to some other, valid-looking index.
    constexpr double kMaxIndex = std::numeric_limits<index_t>::max();
    if (r != std::floor(r) || c != std::floor(c) || r > kMaxIndex ||
        c > kMaxIndex)
      throw IoError(path + ":" + std::to_string(lineno) +
                    ": indices must be integers no larger than " +
                    std::to_string(std::numeric_limits<index_t>::max()));
    triples.push_back({r, c, v});
    if (static_cast<index_t>(r) > max_r) {
      max_r = static_cast<index_t>(r);
      max_r_line = lineno;
    }
    if (static_cast<index_t>(c) > max_c) {
      max_c = static_cast<index_t>(c);
      max_c_line = lineno;
    }
  }
  if (!have_shape) {
    parsed.rows = max_r;
    parsed.cols = max_c;
  } else if (max_r > parsed.rows || max_c > parsed.cols) {
    const std::size_t bad_line =
        max_r > parsed.rows ? max_r_line : max_c_line;
    throw IoError(path + ":" + std::to_string(bad_line) +
                  ": entry outside declared %%shape");
  }
  parsed.coo = Coo<double>(parsed.rows, parsed.cols);
  parsed.coo.reserve(triples.size());
  for (const auto& t : triples) {
    parsed.coo.push(static_cast<index_t>(t[0]) - 1,
                    static_cast<index_t>(t[1]) - 1, t[2]);
  }
  return parsed;
}

}  // namespace

void write_tsv(const std::string& path, const Csr<float>& m) {
  write_tsv_impl(path, m);
}

void write_tsv(const std::string& path, const Csr<pattern_t>& m) {
  write_tsv_impl(path, m);
}

Csr<float> read_tsv_f32(const std::string& path) {
  ParsedTsv parsed = parse_tsv(path);
  Csr<double> d = Csr<double>::from_coo(parsed.coo);
  return d.map<float>([](double v) { return static_cast<float>(v); });
}

Csr<pattern_t> read_tsv_pattern(const std::string& path) {
  ParsedTsv parsed = parse_tsv(path);
  Csr<double> d = Csr<double>::from_coo(parsed.coo);
  return d.pattern();
}

void write_layer_stack(const std::string& prefix,
                       const std::vector<Csr<pattern_t>>& layers) {
  std::ofstream meta(prefix + "-meta.txt");
  if (!meta) throw IoError("cannot open for writing: " + prefix + "-meta.txt");
  meta << layers.size() << '\n';
  for (const auto& l : layers) meta << l.rows() << ' ' << l.cols() << '\n';
  for (std::size_t i = 0; i < layers.size(); ++i) {
    write_tsv(prefix + "-layer" + std::to_string(i) + ".tsv", layers[i]);
  }
}

std::vector<Csr<pattern_t>> read_layer_stack(const std::string& prefix) {
  std::ifstream meta(prefix + "-meta.txt");
  if (!meta) throw IoError("cannot open for reading: " + prefix + "-meta.txt");
  std::size_t n = 0;
  if (!(meta >> n)) throw IoError(prefix + "-meta.txt:1: bad layer count");
  std::vector<Csr<pattern_t>> layers;
  layers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    index_t r, c;
    // Meta line i+2 carries layer i's shape (line 1 is the count).
    if (!(meta >> r >> c))
      throw IoError(prefix + "-meta.txt:" + std::to_string(i + 2) +
                    ": bad shape");
    const std::string layer_path =
        prefix + "-layer" + std::to_string(i) + ".tsv";
    Csr<pattern_t> layer = read_tsv_pattern(layer_path);
    if (layer.rows() != r || layer.cols() != c) {
      throw IoError(layer_path + ": shape " + std::to_string(layer.rows()) +
                    "x" + std::to_string(layer.cols()) + " disagrees with " +
                    prefix + "-meta.txt:" + std::to_string(i + 2) +
                    " (expected " + std::to_string(r) + "x" +
                    std::to_string(c) + ")");
    }
    layers.push_back(std::move(layer));
  }
  return layers;
}

}  // namespace radix
