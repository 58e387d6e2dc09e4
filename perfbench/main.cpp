// radix_perfbench: one workload of the end-to-end benchmark per run.
//
//   radix_perfbench --workload batch-dense|serve-wire|model-churn
//                   --seed N --seconds S [--trace 0|1]
//                   [--work-dir DIR] [--trace-out FILE]
//
// Prints the host context, per-phase INFO lines and, last, one
// "RESULT {...}" line holding the correctness ledger, every end-to-end
// metric and (traced runs) every per-layer metric.  perfbench/run.py
// builds this binary and turns that line into the benchmark's result.
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "support/args.hpp"
#include "support/error.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  radix::Args args;
  args.add_flag("workload", "", "batch-dense | serve-wire | model-churn");
  args.add_flag("seed", "1", "seed of the network shuffle, inputs and arrivals");
  args.add_flag("seconds", "10", "measured seconds");
  args.add_flag("trace", "0", "1 = traced run with per-layer metrics");
  args.add_flag("work-dir", ".", "scratch directory for model artifacts");
  args.add_flag("trace-out", "", "traced runs write their spans here");
  try {
    args.parse(argc, argv);
    RunOptions o;
    o.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    o.seconds = args.get_double("seconds");
    o.trace = args.get_int("trace") != 0;
    o.work_dir = args.get("work-dir");
    const std::string workload = args.get("workload");

    std::printf("HOST %s\n", host_context_json().c_str());
    SpanLog log(o.trace);
    Result r;
    if (workload == "batch-dense") {
      r = run_batch_dense(o, log);
    } else if (workload == "serve-wire") {
      r = run_serve_wire(o, log);
    } else if (workload == "model-churn") {
      r = run_model_churn(o, log);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n%s", workload.c_str(),
                   args.usage("radix_perfbench").c_str());
      return 2;
    }
    r.end_to_end.push_back(
        {"success_rate",
         1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted),
         "fraction"});
    // The end-to-end tails and SLO figures carry no bound (co-tenant load
    // on a shared VM moves them by more than the largest bound allowed);
    // traced runs report every end-to-end figure as a per-layer one.
    if (o.trace) {
      for (const Metric& m : r.end_to_end) {
        r.per_layer.push_back({"e2e." + m.name, m.value, m.unit});
      }
    }
    if (o.trace && !args.get("trace-out").empty()) {
      log.write(args.get("trace-out"));
      std::printf("INFO trace: %zu records written to %s\n", log.size(),
                  args.get("trace-out").c_str());
    }
    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"end_to_end\": %s, \"per_layer\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics_json(r.end_to_end).c_str(),
                metrics_json(r.per_layer).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "radix_perfbench: %s\n", e.what());
    return 1;
  }
}
