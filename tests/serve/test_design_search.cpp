// Randomized property harness for the Pareto design-space search.
//
// For seeded random small grids (axes drawn from realistic values, per-
// layer channel modes on or off, random batch), the search must
// reproduce an exhaustive-enumeration oracle exactly:
//
//   * every point of the grid is evaluated exactly once, each with the
//     oracle's accumulate_point_cost figures, bit for bit;
//   * the frontier is the oracle's Pareto-maximal set — same canonical
//     ids, bit-identical costs;
//   * no pruned point is un-dominated: every feasible evaluated point
//     off the frontier is strictly dominated by a frontier member;
//   * stats balance: evaluated == infeasible + pruned + frontier;
//   * under a budget, the evaluated ids are the max_points points
//     nearest the seed by lattice distance, ties broken by canonical id.
//
// Worker-count independence is pinned separately: a serial run and a
// 4-worker run on a private pool must return identical results, also
// under max_points truncation. Two fixed pins hold the paper grid's
// figures on pooled AlexNet and on VGG-16 at the default budget.
//
// Seeds: three fixed seeds in tier-1; CHAINNN_SCHED_ROTATE rotates fresh
// triples in CI's sanitize lane and CHAINNN_SCHED_SEED replays a logged
// seed exactly (same contract as test_sched_properties.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/work_pool.hpp"
#include "serve/design_search.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {
namespace {

std::vector<std::uint64_t> scheduling_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* exact = std::getenv("CHAINNN_SCHED_SEED")) {
    seeds = {std::strtoull(exact, nullptr, 10)};
  } else if (const char* env = std::getenv("CHAINNN_SCHED_ROTATE")) {
    static std::atomic<std::uint64_t> rotation{0};
    const std::uint64_t n = rotation.fetch_add(1);
    const std::uint64_t base = 1024 * std::strtoull(env, nullptr, 10);
    seeds = {base + 3 * n, base + 3 * n + 1, base + 3 * n + 2};
  } else {
    seeds = {1, 2, 3};  // fixed tier-1 seeds
  }
  for (const std::uint64_t s : seeds)
    std::cout << "[sched-seed] " << s << "\n";
  return seeds;
}

nn::NetworkModel tiny_net(Rng& rng) {
  nn::NetworkModel net;
  net.name = "tiny";
  std::int64_t channels = rng.uniform_int(2, 4);
  for (int i = 0; i < 2; ++i) {
    nn::ConvLayerParams l;
    l.name = "c" + std::to_string(i);
    l.in_channels = channels;
    channels = rng.uniform_int(2, 5);
    l.out_channels = channels;
    l.in_height = l.in_width = 10;
    l.kernel = 3;
    l.pad = 1;
    l.validate();
    net.conv_layers.push_back(l);
  }
  return net;
}

// A random small grid: 2-3 strictly increasing values per axis, drawn
// from pools that include unmappably short chains (infeasible points are
// part of the property).
DesignSpaceGrid random_grid(Rng& rng) {
  const auto pick = [&rng](auto pool, std::size_t count) {
    decltype(pool) axis;
    while (axis.size() < count) {
      const auto v =
          pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(pool.size()) - 1))];
      bool dup = false;
      for (const auto& e : axis) dup = dup || e == v;
      if (!dup) axis.push_back(v);
    }
    std::sort(axis.begin(), axis.end());
    return axis;
  };
  DesignSpaceGrid g;
  g.num_pes = pick(std::vector<std::int64_t>{2, 8, 16, 64, 144, 576},
                   static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.clock_hz = pick(std::vector<double>{100e6, 350e6, 700e6, 1100e6},
                    static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.kmem_words_per_pe = pick(std::vector<std::int64_t>{32, 64, 128, 256},
                             static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.omemory_bytes =
      pick(std::vector<std::uint64_t>{2048, 4096, 8192, 25 * 1024},
           static_cast<std::size_t>(rng.uniform_int(2, 3)));
  g.per_layer_channel_modes = rng.uniform_int(0, 1) == 1;
  return g;
}

// Exhaustive oracle: cost every (configuration x mode mask) in the grid
// with the same per-layer model construction the search uses, and keep
// the Pareto-maximal feasible set.
std::map<DesignPointId, dataflow::PointCost> enumerate_all(
    const nn::NetworkModel& net, const DesignSpaceGrid& g,
    std::int64_t batch) {
  const auto& first = net.conv_layers.front();
  const std::vector<nn::ConvLayerParams> layers =
      resolve_network_layers(net, batch, first.in_height, first.in_width, {});
  const std::uint64_t masks =
      g.per_layer_channel_modes ? (1ull << layers.size()) : 1;
  const std::uint64_t all_dual = (1ull << layers.size()) - 1;
  const energy::EnergyModel energy = energy::EnergyModel::paper_calibrated();
  const energy::AreaModel area;

  std::map<DesignPointId, dataflow::PointCost> all;
  for (std::size_t pi = 0; pi < g.num_pes.size(); ++pi)
    for (std::size_t ki = 0; ki < g.kmem_words_per_pe.size(); ++ki)
      for (std::size_t oi = 0; oi < g.omemory_bytes.size(); ++oi) {
        dataflow::ArrayShape array;
        array.num_pes = g.num_pes[pi];
        array.kmem_words_per_pe = g.kmem_words_per_pe[ki];
        mem::HierarchyConfig memory;
        memory.omemory_bytes = g.omemory_bytes[oi];
        memory.kmemory_bytes = static_cast<std::uint64_t>(array.num_pes) *
                               static_cast<std::uint64_t>(
                                   array.kmem_words_per_pe) *
                               memory.word_bytes;
        const double gates = area.total_gates(
            array.num_pes, dataflow::point_sram_bytes(array, memory));

        // Per-layer models (both channel modes), or the infeasibility
        // that every mode/clock variant of this combo shares.
        std::vector<std::array<dataflow::LayerCostModel, 2>> models;
        bool feasible = true;
        std::string reason;
        for (const nn::ConvLayerParams& layer : layers) {
          try {
            dataflow::ExecutionPlan plan =
                dataflow::plan_layer(layer, array, memory);
            std::array<dataflow::LayerCostModel, 2> modes;
            plan.array.dual_channel = false;
            modes[0] = dataflow::layer_cost_model(plan);
            plan.array.dual_channel = true;
            modes[1] = dataflow::layer_cost_model(plan);
            models.push_back(modes);
          } catch (const std::exception&) {
            feasible = false;
            break;
          }
        }
        for (std::size_t ci = 0; ci < g.clock_hz.size(); ++ci)
          for (std::uint64_t mask = 0; mask < masks; ++mask) {
            DesignPointId id;
            id.pes = static_cast<std::int32_t>(pi);
            id.clock = static_cast<std::int32_t>(ci);
            id.kmem = static_cast<std::int32_t>(ki);
            id.omem = static_cast<std::int32_t>(oi);
            id.mode_mask = g.per_layer_channel_modes ? mask : all_dual;
            dataflow::PointCost cost;
            if (feasible) {
              std::vector<const dataflow::LayerCostModel*> refs;
              for (std::size_t l = 0; l < models.size(); ++l)
                refs.push_back(&models[l][(id.mode_mask >> l) & 1]);
              cost = dataflow::accumulate_point_cost(
                  refs, g.clock_hz[ci], array.num_pes, batch, energy, gates);
            } else {
              cost.feasible = false;
            }
            all.emplace(id, cost);
          }
      }
  return all;
}

TEST(DesignSearchProperties, FrontierMatchesExhaustiveOracle) {
  for (const std::uint64_t seed : scheduling_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const std::int64_t batch = rng.uniform_int(1, 3);

    DesignSearchOptions opts;
    opts.batch = batch;
    opts.max_points = 0;  // exhaust the grid
    opts.num_workers = 1;
    opts.collect_evaluated = true;
    DesignSearch search(net, grid, opts);
    const DesignSearchResult result = search.run();

    const auto oracle = enumerate_all(net, grid, batch);

    // Every point in the grid was evaluated exactly once, to the
    // oracle's figures bit for bit (EXPECT_EQ, not EXPECT_DOUBLE_EQ:
    // both sides perform the same additions in the same order).
    EXPECT_EQ(result.stats.evaluated,
              static_cast<std::int64_t>(oracle.size()));
    ASSERT_EQ(result.evaluated.size(), oracle.size());
    for (const EvaluatedDesignPoint& p : result.evaluated) {
      const auto it = oracle.find(p.id);
      ASSERT_NE(it, oracle.end()) << p.label;
      EXPECT_EQ(p.cost.feasible, it->second.feasible) << p.label;
      EXPECT_EQ(p.cost.total_cycles, it->second.total_cycles) << p.label;
      EXPECT_EQ(p.cost.seconds, it->second.seconds) << p.label;
      EXPECT_EQ(p.cost.energy_j, it->second.energy_j) << p.label;
      EXPECT_EQ(p.cost.area_gates, it->second.area_gates) << p.label;
    }

    // The frontier is the oracle's Pareto-maximal feasible set.
    std::vector<std::pair<DesignPointId, dataflow::PointCost>> expected;
    for (const auto& [id, cost] : oracle) {
      if (!cost.feasible) continue;
      bool dominated = false;
      for (const auto& [id2, cost2] : oracle)
        dominated = dominated || (!(id2 == id) && cost2.dominates(cost));
      if (!dominated) expected.emplace_back(id, cost);
    }
    ASSERT_EQ(result.frontier.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.frontier[i].id, expected[i].first);  // same sort
      EXPECT_EQ(result.frontier[i].cost.total_cycles,
                expected[i].second.total_cycles);
      EXPECT_EQ(result.frontier[i].cost.seconds, expected[i].second.seconds);
      EXPECT_EQ(result.frontier[i].cost.energy_j,
                expected[i].second.energy_j);
      EXPECT_EQ(result.frontier[i].cost.area_gates,
                expected[i].second.area_gates);
    }

    // No pruned point is un-dominated: everything feasible off the
    // frontier loses to some frontier member.
    std::int64_t infeasible = 0;
    for (const EvaluatedDesignPoint& p : result.evaluated) {
      if (!p.cost.feasible) {
        ++infeasible;
        continue;
      }
      bool on_frontier = false;
      for (const EvaluatedDesignPoint& f : result.frontier)
        on_frontier = on_frontier || f.id == p.id;
      if (on_frontier) continue;
      bool dominated = false;
      for (const EvaluatedDesignPoint& f : result.frontier)
        dominated = dominated || f.cost.dominates(p.cost);
      EXPECT_TRUE(dominated) << "pruned but un-dominated: " << p.label;
    }
    EXPECT_EQ(result.stats.infeasible, infeasible);
    EXPECT_EQ(result.stats.evaluated, result.stats.infeasible +
                                          result.stats.pruned +
                                          result.stats.frontier);
  }
}

// The budget's meaning, from its definition: lattice distance from the
// seed (the paper point when the grid holds it, else the axis
// midpoints) is the summed axis-index distances plus the number of
// layers whose channel mode differs from the all-dual seed. The search
// must cost exactly the max_points ids nearest the seed, ties broken by
// canonical id, and report 1 + the largest distance among them as waves.
TEST(DesignSearchProperties, BudgetEvaluatesTheNearestPoints) {
  for (const std::uint64_t seed : scheduling_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const auto oracle = enumerate_all(net, grid, 1);

    const auto find = [](const auto& axis, auto value) {
      const auto it = std::find(axis.begin(), axis.end(), value);
      return it == axis.end() ? -1 : static_cast<int>(it - axis.begin());
    };
    int origin[4] = {find(grid.num_pes, std::int64_t{576}),
                     find(grid.clock_hz, 700e6),
                     find(grid.kmem_words_per_pe, std::int64_t{256}),
                     find(grid.omemory_bytes, std::uint64_t{25 * 1024})};
    if (std::count(origin, origin + 4, -1) > 0) {
      origin[0] = static_cast<int>(grid.num_pes.size() / 2);
      origin[1] = static_cast<int>(grid.clock_hz.size() / 2);
      origin[2] = static_cast<int>(grid.kmem_words_per_pe.size() / 2);
      origin[3] = static_cast<int>(grid.omemory_bytes.size() / 2);
    }
    const std::uint64_t all_dual = (1ull << net.conv_layers.size()) - 1;
    std::vector<std::pair<int, DesignPointId>> ranked;
    for (const auto& [id, cost] : oracle)
      ranked.emplace_back(std::abs(id.pes - origin[0]) +
                              std::abs(id.clock - origin[1]) +
                              std::abs(id.kmem - origin[2]) +
                              std::abs(id.omem - origin[3]) +
                              std::popcount(id.mode_mask ^ all_dual),
                          id);
    std::sort(ranked.begin(), ranked.end());

    // Budgets: none, one point, a cut inside a distance layer (inside one
    // configuration's masks when there is such a cut, so the canonical
    // tie-break between masks decides), a cut on a layer boundary, and
    // more than the grid.
    std::vector<std::int64_t> budgets = {0, 1};
    std::int64_t inside = 0, boundary = 0;
    bool inside_config = false;
    for (std::size_t i = 2; i < ranked.size(); ++i) {
      const DesignPointId& a = ranked[i - 1].second;
      const DesignPointId& b = ranked[i].second;
      const bool same_layer = ranked[i].first == ranked[i - 1].first;
      const bool same_config = same_layer && a.pes == b.pes &&
                               a.clock == b.clock && a.kmem == b.kmem &&
                               a.omem == b.omem;
      if (same_layer && (inside == 0 || (same_config && !inside_config))) {
        inside = static_cast<std::int64_t>(i);  // splits a layer
        inside_config = same_config;
      }
      if (!same_layer)
        boundary = static_cast<std::int64_t>(i);  // all but the last layer
    }
    ASSERT_GT(inside, 1);
    ASSERT_GT(boundary, 1);
    budgets.push_back(inside);
    budgets.push_back(boundary);
    budgets.push_back(static_cast<std::int64_t>(ranked.size()) + 7);

    common::WorkPool pool(4);
    for (const std::int64_t budget : budgets) {
      SCOPED_TRACE("max_points " + std::to_string(budget));
      const std::size_t take =
          budget <= 0 ? ranked.size()
                      : std::min(ranked.size(),
                                 static_cast<std::size_t>(budget));
      std::vector<DesignPointId> expected;
      for (std::size_t i = 0; i < take; ++i)
        expected.push_back(ranked[i].second);
      std::sort(expected.begin(), expected.end());
      const std::int64_t waves = 1 + ranked[take - 1].first;

      for (const std::int64_t workers : {1, 4}) {
        DesignSearchOptions opts;
        opts.max_points = budget;
        opts.num_workers = workers;
        opts.pool = &pool;
        opts.collect_evaluated = true;
        const DesignSearchResult result = DesignSearch(net, grid, opts).run();
        std::vector<DesignPointId> got;
        for (const EvaluatedDesignPoint& p : result.evaluated)
          got.push_back(p.id);
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected) << workers << " workers";
        EXPECT_EQ(result.stats.evaluated, static_cast<std::int64_t>(take));
        EXPECT_EQ(result.stats.waves, waves) << workers << " workers";
      }
    }
  }
}

// Equal grids and options must produce equal results whatever the worker
// count — including under max_points truncation, where the evaluated
// set itself is at stake.
TEST(DesignSearchProperties, FrontierIsWorkerCountIndependent) {
  for (const std::uint64_t seed : scheduling_seeds()) {
    Rng rng(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    const nn::NetworkModel net = tiny_net(rng);
    const DesignSpaceGrid grid = random_grid(rng);
    const std::int64_t max_points = rng.uniform_int(0, 1) == 0
                                        ? 0
                                        : rng.uniform_int(10, 60);

    const auto run_with = [&](std::int64_t workers,
                              common::WorkPool* pool) {
      DesignSearchOptions opts;
      opts.max_points = max_points;
      opts.num_workers = workers;
      opts.pool = pool;
      DesignSearch search(net, grid, opts);
      return search.run();
    };
    common::WorkPool pool(4);
    const DesignSearchResult serial = run_with(1, nullptr);
    const DesignSearchResult parallel = run_with(4, &pool);

    EXPECT_EQ(serial.stats.evaluated, parallel.stats.evaluated);
    EXPECT_EQ(serial.stats.infeasible, parallel.stats.infeasible);
    EXPECT_EQ(serial.stats.pruned, parallel.stats.pruned);
    EXPECT_EQ(serial.stats.waves, parallel.stats.waves);
    ASSERT_EQ(serial.frontier.size(), parallel.frontier.size());
    for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
      EXPECT_EQ(serial.frontier[i].id, parallel.frontier[i].id);
      EXPECT_EQ(serial.frontier[i].label, parallel.frontier[i].label);
      EXPECT_EQ(serial.frontier[i].cost.total_cycles,
                parallel.frontier[i].cost.total_cycles);
      EXPECT_EQ(serial.frontier[i].cost.energy_j,
                parallel.frontier[i].cost.energy_j);
      EXPECT_EQ(serial.frontier[i].cost.area_gates,
                parallel.frontier[i].cost.area_gates);
    }
  }
}

// The paper's instantiation stays Pareto-optimal on the default grid for
// the paper's workload — the same invariant bench_micro's "dse" section
// gates in CI, pinned here at a smaller budget (dominators of the seed
// can only shrink with the budget, so 12000-point CI runs imply this).
TEST(DesignSearch, PaperPointOnDefaultGridFrontier) {
  DesignSearchOptions opts;
  opts.max_points = 3000;
  DesignSearch search(nn::alexnet(), DesignSpaceGrid::paper_default(), opts);
  const DesignSearchResult result = search.run();
  EXPECT_EQ(result.stats.evaluated, 3000);
  EXPECT_TRUE(result.stats.contains_paper_point);
  EXPECT_GT(result.stats.frontier, 0);
  EXPECT_GT(result.stats.pruned, 0);
  EXPECT_EQ(result.stats.infeasible, 0);

  // The frontier reports uniform dual-channel for the paper point and a
  // label without a mode suffix.
  for (const EvaluatedDesignPoint& p : result.frontier)
    if (p.array.num_pes == 576 && p.array.clock_hz == 700e6 &&
        p.array.kmem_words_per_pe == 256 &&
        p.memory.omemory_bytes == 25 * 1024 && p.uniform_mode()) {
      EXPECT_EQ(p.label, "pes576-clk700-kw256-om25k");
      EXPECT_TRUE(p.cost.feasible);
    }
}

// The whole paper grid on AlexNet with the pools the paper's network
// places (ReLU after every conv; 3x3/2 max-pools after conv1, conv2 and
// conv5), pinned to its figures: every point costed, a 2,746-point
// frontier holding the paper's instantiation, and a serial frontier equal
// to a 4-worker one.
TEST(DesignSearch, PinsThePaperGridOnPooledAlexNet) {
  const auto op = [](bool pool) {
    chain::InterLayerOp o;
    o.relu = true;
    o.pool = pool;
    if (pool) o.pool_params = nn::PoolParams{3, 2, 0};
    return o;
  };
  const auto run_with = [&](std::int64_t workers, common::WorkPool* pool) {
    DesignSearchOptions opts;
    opts.max_points = 0;
    opts.num_workers = workers;
    opts.pool = pool;
    opts.inter_layer = {op(true), op(true), op(false), op(false), op(true)};
    return DesignSearch(nn::alexnet(), DesignSpaceGrid::paper_default(), opts)
        .run();
  };
  common::WorkPool pool(4);
  const DesignSearchResult serial = run_with(1, nullptr);
  EXPECT_EQ(serial.stats.evaluated, 215040);
  EXPECT_EQ(serial.stats.infeasible, 0);
  EXPECT_EQ(serial.stats.waves, 30);
  EXPECT_EQ(serial.stats.frontier, 2746);
  EXPECT_TRUE(serial.stats.contains_paper_point);

  const DesignSearchResult parallel = run_with(4, &pool);
  ASSERT_EQ(parallel.frontier.size(), serial.frontier.size());
  for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_EQ(parallel.frontier[i].id, serial.frontier[i].id);
    EXPECT_EQ(parallel.frontier[i].label, serial.frontier[i].label);
    EXPECT_EQ(parallel.frontier[i].cost.total_cycles,
              serial.frontier[i].cost.total_cycles);
    EXPECT_EQ(parallel.frontier[i].cost.seconds,
              serial.frontier[i].cost.seconds);
    EXPECT_EQ(parallel.frontier[i].cost.energy_j,
              serial.frontier[i].cost.energy_j);
    EXPECT_EQ(parallel.frontier[i].cost.area_gates,
              serial.frontier[i].cost.area_gates);
  }
}

// A wide network at the default budget: VGG-16's 13 conv layers make a
// 55M-point grid, of which the default budget costs the 200,000 nearest
// the seed — without enumerating the rest.
TEST(DesignSearch, PinsVgg16AtTheDefaultBudget) {
  DesignSearchOptions opts;
  opts.num_workers = 1;
  const DesignSearchResult result =
      DesignSearch(nn::vgg16(), DesignSpaceGrid::paper_default(), opts).run();
  EXPECT_EQ(result.stats.evaluated, 200000);
  EXPECT_EQ(result.stats.waves, 8);
  EXPECT_EQ(result.stats.frontier, 312);
  EXPECT_TRUE(result.stats.contains_paper_point);
}

TEST(DesignSearch, RejectsMalformedGridsAndNetworks) {
  DesignSpaceGrid bad = DesignSpaceGrid::paper_default();
  bad.clock_hz = {700e6, 700e6};  // not strictly increasing
  EXPECT_THROW(DesignSearch(nn::alexnet(), bad), std::logic_error);

  DesignSpaceGrid empty_axis = DesignSpaceGrid::paper_default();
  empty_axis.omemory_bytes.clear();
  EXPECT_THROW(DesignSearch(nn::alexnet(), empty_axis), std::logic_error);

  EXPECT_THROW(DesignSearch(nn::NetworkModel{},
                            DesignSpaceGrid::paper_default()),
               std::logic_error);
}

}  // namespace
}  // namespace chainnn::serve
