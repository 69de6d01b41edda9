// No-hierarchy point costing — the closed-form fast path the design-space
// search evaluates millions of points with (ROADMAP item 4).
//
// The executed path (ChainAccelerator → NetworkRunner → SweepDriver)
// computes per-layer cycles from the plan's LayerCost, then *also*
// allocates tensors, streams them, and charges a mem::MemoryHierarchy —
// none of which changes the rolled-up cycles/seconds/energy figures.
// estimate_point_cost() keeps only the arithmetic:
//
//   cycles_l  = LayerCost::cycles(batch)  // load + batch*stream + drain
//   seconds_l = cycles_l / clock_hz
//   energy_l  = power(rates_from_plan(plan)).total() * seconds_l
//   area      = AreaModel logic + on-chip SRAM gates
//
// These are the *same* expressions (same operations, same order) the
// executed rollup evaluates, so on any point both paths can execute the
// agreement is exact for cycles and bit-tight for the double figures —
// tests/dataflow/test_point_cost.cpp pins the cross-check against
// executed SweepDriver rollups on the default sweep grid.
//
// Per-point cost is a handful of additions per layer once the plans
// exist: serve::DesignSearch builds each (chain, kmem, oMemory)
// combination's LayerCostModels once (neither the clock nor the
// channel mode enters the plan key), turns them into per-clock
// LayerTerms, and sums a point's terms in layer order — the very
// additions accumulate_point_cost performs, so its figures are bit-equal.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dataflow/array_shape.hpp"
#include "dataflow/plan.hpp"
#include "energy/area_model.hpp"
#include "energy/energy_model.hpp"
#include "mem/hierarchy.hpp"
#include "nn/conv_params.hpp"

namespace chainnn::dataflow {

// The per-layer invariants of the no-hierarchy cost path: everything a
// point's cycles/energy need that does not depend on clock frequency or
// batch size. Derived once per (layer, chain structure, channel mode)
// and reused across every point sharing them.
struct LayerCostModel {
  LayerCost cost;
  energy::ActivityRates rates;  // per-cycle, clock-free
};

// Reads the plan's cost and rates off its own `array`, which must be the
// array the point actually runs (plan_layer and PlanCache::plan_for both
// stamp the caller's array, so plans from either are safe here; a
// shared_plan_for entry is not — its stored array may differ in
// dual_channel).
[[nodiscard]] LayerCostModel layer_cost_model(const ExecutionPlan& plan);

// One layer's share of a point's cost at a clock: the engines'
// accounting exactly (chain::analytical_stats reads the same LayerCost,
// and the cycle-accurate simulator matches it count for count).
struct LayerTerm {
  std::int64_t cycles = 0;  // whole batch
  double seconds = 0.0;     // cycles / clock_hz
  double energy_j = 0.0;    // power(rates, clock, pes).total() * seconds
};

[[nodiscard]] LayerTerm layer_term(const LayerCostModel& model,
                                   double clock_hz, std::int64_t num_pes,
                                   std::int64_t batch,
                                   const energy::EnergyModel& energy);

struct PointCost {
  bool feasible = true;
  std::string infeasible_reason;  // first unmappable layer, when any
  std::int64_t total_cycles = 0;  // whole batch, all layers
  double seconds = 0.0;
  double energy_j = 0.0;
  double area_gates = 0.0;  // logic + on-chip SRAM gate equivalents

  // Adds one layer's terms — the only way a point's figures accumulate.
  void add(const LayerTerm& t) {
    total_cycles += t.cycles;
    seconds += t.seconds;
    energy_j += t.energy_j;
  }

  // Strict Pareto dominance: `b` is worse than *this on every objective.
  // (Ties on any axis mean neither dominates, so e.g. clock variants —
  // identical cycles and area — never eliminate each other.)
  [[nodiscard]] bool dominates(const PointCost& b) const {
    return feasible && b.feasible && total_cycles < b.total_cycles &&
           energy_j < b.energy_j && area_gates < b.area_gates;
  }
};

// Accumulates the per-layer models into a point cost at `clock_hz` on
// `num_pes` PEs, mirroring the executed rollup term for term. The area
// figure is passed through verbatim (it is a property of the point, not
// of the layers).
[[nodiscard]] PointCost accumulate_point_cost(
    const std::vector<const LayerCostModel*>& layers, double clock_hz,
    std::int64_t num_pes, std::int64_t batch,
    const energy::EnergyModel& energy, double area_gates);

// On-chip SRAM bytes of a design point: iMemory + oMemory capacities
// plus the kernel register files, which track the chain
// (num_pes x kmem_words_per_pe x word_bytes — 295KB for the paper's
// 576 x 256 x 2B, matching HierarchyConfig::kmemory_bytes).
[[nodiscard]] std::uint64_t point_sram_bytes(
    const ArrayShape& array, const mem::HierarchyConfig& memory);

// Plan provider, so callers with a cache (serve::PlanCache::plan_for has
// exactly this shape) can inject it; the default builds plans directly
// with plan_layer. Must throw where plan_layer throws — that is how an
// unmappable layer becomes an infeasible point.
using PlanSource = std::function<ExecutionPlan(
    const nn::ConvLayerParams& layer, const ArrayShape& array,
    const mem::HierarchyConfig& memory)>;

struct PointCostOptions {
  std::int64_t batch = 1;
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  energy::AreaModel area;
  PlanSource plan_source;  // empty = plan_layer
};

// Closed-form cost of running `layers` (already resolved to the H/W they
// execute at — serve::resolve_network_layers) on (array, memory).
// Unmappable layers (kernel taps exceeding the chain, partials
// overflowing oMemory) yield feasible == false instead of throwing.
[[nodiscard]] PointCost estimate_point_cost(
    const std::vector<nn::ConvLayerParams>& layers, const ArrayShape& array,
    const mem::HierarchyConfig& memory, const PointCostOptions& options = {});

}  // namespace chainnn::dataflow
