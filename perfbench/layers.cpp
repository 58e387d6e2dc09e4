#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sparse/spmm.hpp"
#include "support/parallel.hpp"

namespace perfbench {
namespace {

using radix::CsrFloatView;
using radix::index_t;
using radix::infer::Kernel;

// Timed repetitions of each replayed call; the median is reported.
constexpr int kReps = 9;

template <typename F>
double median_ms(F&& call) {
  std::vector<double> t;
  t.reserve(kReps);
  for (int i = 0; i < kReps; ++i) {
    const std::int64_t t0 = now_ns();
    call();
    t.push_back(ms_between(t0, now_ns()));
  }
  return percentile(std::move(t), 0.5);
}

volatile std::uint64_t g_sink = 0;  // keeps the stream reads observable

// Read bandwidth over a buffer of `bytes`, with the kernels' own
// parallel loop helper: the cache ceiling the replayed kernels are
// compared against when their working set fits in cache.
double stream_read_gbps(std::size_t bytes) {
  constexpr std::size_t kBlock = 16 * 1024;  // uint32 per parallel block
  const std::size_t words =
      std::max<std::size_t>(kBlock, (bytes / 4 + kBlock - 1) / kBlock * kBlock);
  std::vector<std::uint32_t> buf(words);
  for (std::size_t i = 0; i < words; ++i) buf[i] = static_cast<std::uint32_t>(i);
  const auto blocks = static_cast<std::int64_t>(words / kBlock);
  std::uint64_t sink = 0;
  const auto pass = [&] {
    sink += radix::parallel_reduce_sum<std::uint64_t>(
        0, blocks,
        [&](std::int64_t b) {
          const std::uint32_t* p = buf.data() + static_cast<std::size_t>(b) * kBlock;
          std::uint64_t s = 0;
          for (std::size_t i = 0; i < kBlock; ++i) s += p[i];
          return s;
        },
        1);
  };
  // Enough passes per sample to swamp fork overhead: ~64 MiB of reads.
  const int passes =
      static_cast<int>(std::max<std::size_t>(1, (64u << 20) / (words * 4)));
  pass();
  const double ms = median_ms([&] {
    for (int i = 0; i < passes; ++i) pass();
  });
  g_sink = sink;
  return static_cast<double>(words) * 4.0 * passes / (ms * 1e-3) / 1e9;
}

std::uint64_t csr_bytes(const CsrFloatView& w, bool uniform) {
  return (static_cast<std::uint64_t>(w.rows()) + 1) * sizeof(radix::offset_t) +
         w.nnz() * sizeof(index_t) + (uniform ? 0 : w.nnz() * sizeof(float));
}

}  // namespace

bool profile_inference(const radix::infer::SparseDnn& dnn, const float* input,
                       index_t batch, SpanLog& log,
                       std::vector<Metric>& out) {
  radix::infer::InferenceWorkspace ws;
  dnn.prewarm({batch, &ws});
  std::span<const float> y = dnn.forward(input, batch, ws);
  const double forward_ms = median_ms([&] { y = dnn.forward(input, batch, ws); });
  const std::vector<radix::infer::LayerDispatch> dispatch = ws.last_dispatch();
  const std::vector<float> forward_out(y.begin(), y.end());

  // Replay each layer on the arm the dispatch chose.  Transposes for the
  // gather arm are built here, outside the timed calls, as the engine's
  // cache holds them prebuilt.
  const std::size_t panel = static_cast<std::size_t>(batch) * dnn.max_width();
  std::vector<float> panels[2] = {std::vector<float>(panel),
                                  std::vector<float>(panel)};
  const float* cur = input;
  bool agrees = true;
  double kernel_ms = 0.0, bytes_total = 0.0;
  double arm_ms[2] = {0.0, 0.0}, arm_edges[2] = {0.0, 0.0},
         arm_bytes[2] = {0.0, 0.0};
  int arm_layers[2] = {0, 0};
  double density_sum = 0.0;
  std::uint64_t csr_total = 0;
  for (std::size_t k = 0; k < dnn.depth(); ++k) {
    const CsrFloatView w = dnn.layer_view(k);
    const bool uniform = dnn.layer_uniform(k);
    const bool gather = dispatch[k].chosen == Kernel::kGather;
    const radix::Csr<float> wt = gather ? w.transpose() : radix::Csr<float>();
    const CsrFloatView kw = gather ? CsrFloatView(wt) : w;
    float* dst = panels[k % 2].data();
    const float bias = dnn.biases()[k];
    std::uint64_t nz = 0;
    const auto call = [&] {
      if (uniform) {
        const float uw = dnn.uniform_weight(k);
        nz = gather ? radix::spmm_dense_csrT_fused_uniform(cur, batch, w.rows(),
                                                           kw, uw, dst, bias,
                                                           dnn.clamp())
                    : radix::spmm_dense_csr_fused_uniform(cur, batch, w.rows(),
                                                          kw, uw, dst, bias,
                                                          dnn.clamp());
      } else {
        nz = gather ? radix::spmm_dense_csrT_fused(cur, batch, w.rows(), kw,
                                                   dst, bias, dnn.clamp())
                    : radix::spmm_dense_csr_fused(cur, batch, w.rows(), kw, dst,
                                                  bias, dnn.clamp());
      }
    };
    call();  // warm the layer's arrays into cache like the forward did
    const double ms = median_ms(call);
    agrees = agrees && nz == dispatch[k].nonzero_outputs;
    // Computed bytes: the CSR arrays the arm streams (values only for
    // non-uniform layers) plus the input and output activation panels.
    const std::uint64_t bytes =
        csr_bytes(kw, uniform) +
        static_cast<std::uint64_t>(batch) * (w.rows() + w.cols()) * sizeof(float);
    const double edges = static_cast<double>(batch) * static_cast<double>(w.nnz());
    const int a = gather ? 1 : 0;
    arm_ms[a] += ms;
    arm_edges[a] += edges;
    arm_bytes[a] += static_cast<double>(bytes);
    ++arm_layers[a];
    kernel_ms += ms;
    bytes_total += static_cast<double>(bytes);
    density_sum += dispatch[k].input_density;
    csr_total += csr_bytes(w, uniform);
    std::ostringstream note;
    note << "{\"layer\": " << k << ", \"arm\": \""
         << (gather ? "gather" : "scatter")
         << "\", \"input_density\": " << json_number(dispatch[k].input_density)
         << ", \"time_ms\": " << json_number(ms) << ", \"edges\": "
         << json_number(edges) << ", \"computed_bytes\": " << bytes
         << ", \"batch\": " << batch << "}";
    log.note(note.str());
    cur = dst;
  }
  agrees = agrees &&
           std::memcmp(cur, forward_out.data(),
                       forward_out.size() * sizeof(float)) == 0;

  // The ceiling's buffer matches the model's CSR arrays plus two panels:
  // the working set the kernels stream, which sits in cache here.
  const std::size_t working_set =
      csr_total + 2 * panel * sizeof(float);
  const double stream = stream_read_gbps(working_set);
  std::ostringstream ctx;
  ctx << "{\"stream_buffer_bytes\": " << working_set
      << ", \"model_csr_bytes\": " << csr_total
      << ", \"panel_bytes\": " << panel * sizeof(float)
      << ", \"note\": \"computed bytes; buffers sit in cache, so the ceiling "
         "is a cache ceiling\"}";
  log.note(ctx.str());

  const auto rate = [](double num, double ms) { return ms > 0 ? num / (ms * 1e-3) : 0.0; };
  out.push_back({"infer.forward_ms", forward_ms, "ms"});
  out.push_back({"infer.gather_layers", static_cast<double>(arm_layers[1]), "count"});
  out.push_back({"infer.scatter_layers", static_cast<double>(arm_layers[0]), "count"});
  out.push_back({"infer.mean_input_density",
                 density_sum / static_cast<double>(dnn.depth()), "fraction"});
  out.push_back({"infer.outside_kernel_frac",
                 forward_ms > 0 ? 1.0 - kernel_ms / forward_ms : 0.0, "fraction"});
  // An arm's metrics are reported only when some layer took it.
  for (const int a : {1, 0}) {
    if (arm_layers[a] == 0) continue;
    const std::string arm = a ? "sparse.gather." : "sparse.scatter.";
    out.push_back({arm + "edges_per_s", rate(arm_edges[a], arm_ms[a]), "1/s"});
    out.push_back({arm + "bytes_per_s", rate(arm_bytes[a], arm_ms[a]), "B/s"});
  }
  out.push_back({"sparse.stream_gbps", stream, "GB/s"});
  out.push_back({"sparse.roofline_frac",
                 stream > 0 ? rate(bytes_total, kernel_ms) / (stream * 1e9) : 0.0,
                 "fraction"});
  return agrees;
}

}  // namespace perfbench
