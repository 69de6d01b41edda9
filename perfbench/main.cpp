// perfbench — the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//
// Runs one workload against the library's public API, checks every
// output, and prints as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs with spans on, every per-layer probe runs after it, and
// the metrics are the per-layer ones (the spans go to a Chrome
// trace-event file in --out-dir). Earlier lines carry the host
// fingerprint and, for a traced run, the per-layer table.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/work_pool.hpp"
#include "nn/conv_kernel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Outcome (*run)(const RunContext&);
};

constexpr Workload kWorkloads[] = {
    {"gateway-small", run_gateway_small},
    {"fidelity-small", run_fidelity_small},
    {"design-search", run_design_search},
};

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <gateway-small|fidelity-small|"
               "design-search> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir>\n";
  return 2;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Metrics end_to_end(const Outcome& o) {
  const double ops = static_cast<double>(o.attempted);
  return {
      {"setup_s", median(o.setup_s), "s"},
      {"throughput_per_s", o.units / o.elapsed_s, "1/s"},
      {"latency_p50_ms", median(o.latencies_ms), "ms"},
      {"latency_tail_ms", tail_latency(o.latencies_ms), "ms"},
      {"cpu_ms_per_op", o.cpu_s * 1e3 / ops, "ms"},
      {"peak_rss_mb", o.peak_rss_mb, "MB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunContext ctx;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && !value.empty() && ctx.seconds > 0 &&
                     ctx.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      ctx.trace = value == "1";
    } else if (flag == "--out-dir") {
      ctx.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : kWorkloads)
    if (workload == w.name) chosen = &w;
  if (!chosen) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || ctx.out_dir.empty())
    return usage("--seed, --seconds (0 < s <= 600), --trace and --out-dir are required");

  // Host fingerprint: results from unlike hosts are never compared.
  std::cout << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"simd\": "
            << (chainnn::nn::simd_kernel_enabled() ? "true" : "false")
            << ", \"pool_threads\": "
            << chainnn::common::WorkPool::shared().num_threads() << "}}\n";

  Tracer::instance().set_enabled(ctx.trace);
  Outcome outcome;
  try {
    outcome = chosen->run(ctx);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " threw: " << e.what() << "\n";
    return 1;
  }
  std::cout << "{\"run\": {\"workload\": " << json_string(workload)
            << ", \"seed\": " << ctx.seed
            << ", \"operations\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"timed_seconds\": " << json_number(outcome.elapsed_s) << "}}\n";

  Metrics metrics;
  if (ctx.trace) {
    const double phase_throughput = outcome.units / outcome.elapsed_s;
    const std::size_t workload_spans = Tracer::instance().span_count();
    metrics = outcome.per_layer;
    try {
      if (workload != "gateway-small") gateway_probe(ctx, metrics, outcome.errors);
      probe_alexnet_layers(ctx, metrics, outcome.errors);
      probe_small_layers(ctx, metrics, outcome.errors);
      probe_cycle_accurate(ctx, metrics, outcome.errors);
      probe_search(ctx, metrics, outcome.errors);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: per-layer probe threw: " << e.what() << "\n";
      return 1;
    }
    metrics.push_back({"trace.phase_throughput_per_s", phase_throughput, "1/s"});
    metrics.push_back({"trace.workload_spans", static_cast<double>(workload_spans), "count"});
    const std::string path = ctx.out_dir + "/trace-" + workload + "-seed" +
                             std::to_string(ctx.seed) + ".json";
    if (!Tracer::instance().write_chrome_json(path)) {
      std::cerr << "perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "{\"trace_file\": " << json_string(path) << "}\n";
    for (const Metric& m : metrics) {
      char line[160];
      std::snprintf(line, sizeof(line), "%-44s %16.6g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      std::cout << line;
    }
  } else {
    metrics = end_to_end(outcome);
  }

  bool correct = outcome.errors.empty() && outcome.attempted > 0;
  for (const std::string& e : outcome.errors) std::cerr << "CHECK FAILED: " << e << "\n";
  std::string body;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      std::cerr << "CHECK FAILED: metric " << m.name << " is not finite\n";
      correct = false;
    }
    if (i) body += ", ";
    body += json_string(m.name) + ": {\"value\": " +
            json_number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {" << body
            << "}}" << std::endl;
  return 0;
}
