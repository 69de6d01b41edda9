// The three workloads and the per-layer probes of the traced run.
//
// Every workload sets itself up kSetupRepetitions times (each from
// cold: new server or fleet, new plan cache, warm-up) and keeps the last
// set-up for the timed phase, so setup_s is a median, not one sample. A
// timed phase attempts whole rounds of a fixed operation mix until
// --seconds have passed, then the outputs are checked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

inline constexpr int kSetupRepetitions = 9;

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string out_dir;  // scratch files (journals, the trace dump)
};

struct Outcome {
  std::vector<double> setup_s;       // one per set-up repetition
  std::vector<double> latencies_ms;  // one per timed operation
  std::int64_t attempted = 0;
  std::int64_t failed = 0;   // operations hitting a known program fault
  double units = 0.0;        // work completed: requests or design points
  double elapsed_s = 0.0;    // timed phase wall time
  double cpu_s = 0.0;        // process CPU time over the timed phase
  double peak_rss_mb = 0.0;  // read when the timed phase ends, before the checks
  std::vector<std::string> errors;  // correctness failures
  Metrics per_layer;                // phase-derived metrics (traced run)
};

[[nodiscard]] Outcome run_gateway_small(const RunContext& ctx);
[[nodiscard]] Outcome run_fidelity_small(const RunContext& ctx);
[[nodiscard]] Outcome run_design_search(const RunContext& ctx);

// A short gateway phase run only for its per-layer figures, in traced
// runs of the other workloads (so every traced run reports every metric).
void gateway_probe(const RunContext& ctx, Metrics& out,
                   std::vector<std::string>& errors);

// Isolated calls into single layers, timed in spans.
void probe_alexnet_layers(const RunContext& ctx, Metrics& out,
                          std::vector<std::string>& errors);
void probe_small_layers(const RunContext& ctx, Metrics& out,
                        std::vector<std::string>& errors);
void probe_cycle_accurate(const RunContext& ctx, Metrics& out,
                          std::vector<std::string>& errors);
void probe_search(const RunContext& ctx, Metrics& out,
                  std::vector<std::string>& errors);

}  // namespace perfbench
