// DesignSearch — Pareto design-space exploration (ROADMAP item 4).
//
// SweepDriver *executes* a handful of hand-picked points; this subsystem
// instead costs the whole design space — chain length x clock x per-PE
// kernel words x oMemory capacity x per-layer channel mode — and keeps
// its Pareto frontier over (cycles, energy, area):
//
//   * points are canonical index tuples into a DesignSpaceGrid, and the
//     search enumerates them directly, configuration by configuration
//     (a configuration is one chain/clock/kmem/oMemory tuple; its points
//     are its channel-mode masks);
//   * per-point cost comes from the no-hierarchy closed forms
//     (dataflow::accumulate_point_cost). Each (chain, kmem, omem)
//     combination's per-layer LayerCostModels are built once — the
//     clock axis and the batch never rebuild a plan — and each
//     configuration turns them into per-layer LayerTerms once, so a
//     point is the sum of its mask's terms in layer order: the same
//     additions accumulate_point_cost makes, hence bit-equal figures;
//   * streaming dominance filter: a point can only be strictly dominated
//     by a point of strictly smaller area, and area is a property of the
//     combination. Combinations are visited in ascending area, equal
//     areas grouped; each group's points are tested against a 2-D
//     (cycles -> least energy) staircase of every smaller-area point,
//     and only then is the group added to it. Survivors are final
//     frontier members, so memory stays O(staircase + frontier + one
//     group) and labels are built for frontier members only;
//   * the budget: max_points evaluates the points nearest the seed (the
//     paper's 576-PE / 700 MHz point, or the axis midpoints) by lattice
//     distance — the summed index distances on the four axes plus the
//     number of layers whose channel mode differs — ties broken by
//     canonical id. The per-distance point counts are closed forms, so
//     the cut costs O(budget + configurations), never O(grid);
//     stats.waves is 1 + the largest distance evaluated;
//   * determinism: the evaluated set is a pure function of the grid and
//     the budget, the staircase pass is serial, and results are sorted
//     canonically — so the frontier is independent of worker count.
//     tests/serve/test_design_search.cpp pins 1-vs-N worker identity,
//     the budget's point set, and frontier equality against an
//     exhaustive-enumeration oracle.
//
// Workers come from the process-wide common::WorkPool (run_batch helping
// semantics): only the per-combination model builds fan out, the search
// owns no threads and composes with a serving fleet on the same pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/work_pool.hpp"
#include "dataflow/point_cost.hpp"
#include "nn/models.hpp"
#include "serve/plan_cache.hpp"

namespace chainnn::serve {

// The axes of the search. Every axis vector must be non-empty and
// strictly increasing; a point's distance along an axis is the
// difference of its indices.
struct DesignSpaceGrid {
  std::vector<std::int64_t> num_pes;
  std::vector<double> clock_hz;
  std::vector<std::int64_t> kmem_words_per_pe;
  std::vector<std::uint64_t> omemory_bytes;
  // Explore per-layer single-vs-dual ifmap channel mode (Fig. 5(a) vs
  // (b)) as one boolean axis per layer. Off = every layer dual-channel.
  bool per_layer_channel_modes = true;

  // The release-CI grid around the paper's instantiation: 16 chain
  // lengths x 21 clocks x 4 kernel storages x 5 oMemory sizes (6720
  // configurations, x 2^layers channel modes), containing the paper's
  // 576 PEs / 700 MHz / 256 words / 25KB point.
  [[nodiscard]] static DesignSpaceGrid paper_default();

  [[nodiscard]] std::int64_t configurations() const {
    return static_cast<std::int64_t>(num_pes.size() * clock_hz.size() *
                                     kmem_words_per_pe.size() *
                                     omemory_bytes.size());
  }
};

// Canonical form of a point: axis indices plus the per-layer channel
// mask (bit i set = layer i streams dual-channel). Results are sorted
// by it, never by the expanded configuration.
struct DesignPointId {
  std::int32_t pes = 0, clock = 0, kmem = 0, omem = 0;
  std::uint64_t mode_mask = ~0ull;

  friend bool operator==(const DesignPointId&, const DesignPointId&) = default;
  friend auto operator<=>(const DesignPointId&, const DesignPointId&) = default;
};

// One evaluated point, expanded back to the configuration it denotes.
struct EvaluatedDesignPoint {
  DesignPointId id;
  std::string label;                     // "pes576-clk700-kw256-om25-m3f"
  dataflow::ArrayShape array;            // num_pes/clock/kmem stamped
  mem::HierarchyConfig memory;           // omemory stamped
  std::vector<std::uint8_t> layer_dual;  // per-layer channel mode
  dataflow::PointCost cost;

  // True when every layer streams the same mode — exactly the points an
  // executed SweepDriver re-run can reproduce (its per-request ArrayShape
  // sets dual_channel globally).
  [[nodiscard]] bool uniform_mode() const;
};

struct DesignSearchStats {
  std::int64_t evaluated = 0;   // costed points
  std::int64_t infeasible = 0;  // some layer unmappable at the point
  std::int64_t pruned = 0;      // feasible but Pareto-dominated
  std::int64_t frontier = 0;
  std::int64_t waves = 0;       // 1 + the largest seed distance costed
  double wall_seconds = 0.0;
  double points_per_sec = 0.0;
  bool contains_paper_point = false;  // 576@700/256w/25KB on the frontier
  [[nodiscard]] double pruned_fraction() const {
    return evaluated == 0
               ? 0.0
               : static_cast<double>(pruned) / static_cast<double>(evaluated);
  }
};

struct DesignSearchResult {
  // The Pareto-maximal evaluated points, sorted by canonical id.
  std::vector<EvaluatedDesignPoint> frontier;
  DesignSearchStats stats;
  // Every evaluated point, sorted by canonical id, only with
  // DesignSearchOptions::collect_evaluated — the oracle tests' hook.
  std::vector<EvaluatedDesignPoint> evaluated;
};

struct DesignSearchOptions {
  std::int64_t batch = 1;
  // Evaluation budget: the max_points points nearest the seed by
  // lattice distance, ties broken by canonical id (see the file
  // comment). <= 0 means the whole grid.
  std::int64_t max_points = 200000;
  // 1 builds the per-combination cost models serially on the calling
  // thread (the oracle baseline); anything else fans them out over
  // `pool`.
  std::int64_t num_workers = 0;
  // Pool for parallel model builds; nullptr uses WorkPool::shared().
  common::WorkPool* pool = nullptr;
  energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  energy::AreaModel area;
  std::vector<chain::InterLayerOp> inter_layer;
  // Plans resolve through this cache when given (shared with a serving
  // fleet or a SweepDriver re-execution); nullptr plans directly.
  std::shared_ptr<PlanCache> plan_cache;
  bool collect_evaluated = false;
};

class DesignSearch {
 public:
  DesignSearch(nn::NetworkModel network, DesignSpaceGrid grid,
               DesignSearchOptions options = {});

  DesignSearch(const DesignSearch&) = delete;
  DesignSearch& operator=(const DesignSearch&) = delete;

  // Costs the grid, or its max_points points nearest the seed (the
  // paper point when the grid contains it, the axis midpoints
  // otherwise), and returns their Pareto frontier. Deterministic: equal
  // grids and options produce equal results whatever the worker count.
  [[nodiscard]] DesignSearchResult run();

  [[nodiscard]] const nn::NetworkModel& network() const { return net_; }
  [[nodiscard]] const DesignSpaceGrid& grid() const { return grid_; }

 private:
  nn::NetworkModel net_;
  DesignSpaceGrid grid_;
  DesignSearchOptions opts_;
  std::vector<nn::ConvLayerParams> layers_;  // resolved to their H/W
};

}  // namespace chainnn::serve
