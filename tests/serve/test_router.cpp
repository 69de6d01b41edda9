// Router: layer-geometry resolution matches NetworkRunner, modelled
// request seconds equal the plan closed forms, and earliest-finish-time
// placement over per-chip backlogs.
#include <gtest/gtest.h>

#include <memory>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {
namespace {

nn::NetworkModel pooled_net() {
  nn::NetworkModel net;
  net.name = "pooled";
  nn::ConvLayerParams l1;
  l1.name = "c1";
  l1.in_channels = 2;
  l1.out_channels = 4;
  l1.in_height = l1.in_width = 16;
  l1.kernel = 3;
  l1.pad = 1;
  l1.validate();
  nn::ConvLayerParams l2;
  l2.name = "c2";
  l2.in_channels = 4;
  l2.out_channels = 2;
  l2.in_height = l2.in_width = 8;  // nominal; resolution must recompute
  l2.kernel = 3;
  l2.pad = 1;
  l2.validate();
  net.conv_layers = {l1, l2};
  return net;
}

std::vector<chain::InterLayerOp> pool_after_first() {
  chain::InterLayerOp op;
  op.pool = true;
  op.pool_params = {2, 2, 0};
  return {op};
}

TEST(Router, ResolvedLayersMatchTheExecutedNetwork) {
  const nn::NetworkModel net = pooled_net();
  const auto inter = pool_after_first();
  const std::int64_t batch = 3;

  const std::vector<nn::ConvLayerParams> resolved =
      resolve_network_layers(net, batch, 16, 16, inter);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0].in_height, 16);
  EXPECT_EQ(resolved[1].in_height, 8);  // 16 -> conv(pad 1) 16 -> pool 8
  EXPECT_EQ(resolved[1].in_width, 8);
  EXPECT_EQ(resolved[0].batch, batch);

  // Cross-check against what NetworkRunner actually executed.
  chain::AcceleratorConfig cfg;
  cfg.exec_mode = chain::ExecMode::kAnalytical;
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  Tensor<std::int16_t> input(Shape{batch, 2, 16, 16});
  Rng rng(5);
  input.fill_random(rng, -64, 64);
  chain::NetworkRunOptions ro;
  ro.inter_layer = inter;
  const chain::NetworkRunResult run = runner.run(net, input, ro);
  ASSERT_EQ(run.layers.size(), resolved.size());
  for (std::size_t i = 0; i < resolved.size(); ++i)
    EXPECT_TRUE(resolved[i] == run.layers[i].layer)
        << "layer " << i << " geometry drifted from NetworkRunner";
}

// Cycles a cycle-accurate NetworkRunner run of `net` on a {batch, C0,
// hw, hw} input actually charges on (array, memory): the ground truth
// the router's closed forms must reproduce.
std::int64_t executed_cycles(const dataflow::ArrayShape& array,
                             const mem::HierarchyConfig& memory,
                             const nn::NetworkModel& net, std::int64_t batch,
                             std::int64_t hw) {
  chain::AcceleratorConfig cfg;
  cfg.array = array;
  cfg.memory = memory;
  cfg.exec_mode = chain::ExecMode::kCycleAccurate;
  chain::ChainAccelerator acc(cfg);
  const auto energy = energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  Tensor<std::int16_t> input(
      Shape{batch, net.conv_layers.front().in_channels, hw, hw});
  Rng rng(11);
  input.fill_random(rng, -64, 64);
  const chain::NetworkRunResult run = runner.run(net, input, {});
  std::int64_t cycles = 0;
  for (const chain::NetworkLayerResult& layer : run.layers)
    cycles += layer.run.stats.total_cycles();
  return cycles;
}

TEST(Router, ModelledSecondsEqualPlanClosedForms) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  for (std::int64_t batch = 1; batch <= 3; ++batch) {
    for (std::size_t c = 0; c < router.chips().size(); ++c) {
      const ChipSpec& chip = router.chips()[c];
      const std::int64_t expect_cycles =
          executed_cycles(chip.array, chip.memory, net, batch, 16);
      EXPECT_EQ(router.modelled_request_cycles(c, net, batch, 16, 16, {}),
                expect_cycles)
          << chip.name << " batch " << batch;
      EXPECT_DOUBLE_EQ(
          router.modelled_request_seconds(c, net, batch, 16, 16, {}),
          static_cast<double>(expect_cycles) / chip.array.clock_hz)
          << chip.name << " batch " << batch;
    }
  }
  // Sizing went through the shared cache.
  EXPECT_GT(cache->stats().lookups(), 0u);
}

TEST(Router, SharedPlanCostHonorsCallersNonKeyArrayFields) {
  // dual_channel and pipeline_stages shape the cycle closed form but
  // sit outside PlanKey, so two arrays differing only there share one
  // cache entry. Costing through the shared entry must still use the
  // caller's values, not whichever array populated the entry first.
  PlanCache cache;
  nn::NetworkModel net;
  net.name = "one-layer";
  nn::ConvLayerParams layer;
  layer.in_channels = 2;
  layer.out_channels = 3;
  layer.in_height = layer.in_width = 12;
  layer.kernel = 3;
  layer.pad = 1;
  layer.validate();
  net.conv_layers = {layer};
  const mem::HierarchyConfig memory;

  dataflow::ArrayShape first;  // populates the entry
  dataflow::ArrayShape second = first;
  second.pipeline_stages = first.pipeline_stages + 4;
  second.dual_channel = false;

  const auto shared = cache.shared_plan_for(layer, first, memory);
  const auto cached_again = cache.shared_plan_for(layer, second, memory);
  EXPECT_EQ(shared.get(), cached_again.get());  // one entry, no copy
  EXPECT_EQ(cache.stats().hits, 1u);

  const auto direct = dataflow::plan_layer(layer, second, memory);
  for (std::int64_t batch = 1; batch <= 3; ++batch) {
    const std::int64_t executed =
        executed_cycles(second, memory, net, batch, 12);
    EXPECT_EQ(shared->cost(second).cycles(batch), executed)
        << "batch " << batch;
    // And a plan built for `second` matches when costed on its own array.
    EXPECT_EQ(direct.cost(direct.array).cycles(batch), executed)
        << "batch " << batch;
  }
}

TEST(Router, RoutesToEarliestModelledFinish) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  // Empty fleet: the first request lands on the chip with the smallest
  // bare modelled time.
  const RouteDecision first = router.route(net, 1, 16, 16, {});
  double best = router.modelled_request_seconds(0, net, 1, 16, 16, {});
  std::size_t best_chip = 0;
  for (std::size_t c = 1; c < router.chips().size(); ++c) {
    const double s = router.modelled_request_seconds(c, net, 1, 16, 16, {});
    if (s < best) {
      best = s;
      best_chip = c;
    }
  }
  EXPECT_EQ(first.chip, best_chip);
  EXPECT_DOUBLE_EQ(first.request_seconds, best);
  EXPECT_DOUBLE_EQ(first.backlog_seconds, 0.0);

  // Pile modelled backlog onto that chip: the next identical request
  // must be placed elsewhere once the backlog outweighs the per-chip
  // modelled-time gap.
  RouteDecision loaded = first;
  loaded.request_seconds = 1.0;  // a second of modelled work
  router.dispatch(loaded);
  const RouteDecision second = router.route(net, 1, 16, 16, {});
  EXPECT_NE(second.chip, first.chip);

  // Retiring the backlog restores the original placement.
  router.complete(loaded.chip, loaded.request_seconds);
  const RouteDecision third = router.route(net, 1, 16, 16, {});
  EXPECT_EQ(third.chip, first.chip);
}

TEST(Router, DispatchAndCompleteKeepCounters) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  const RouteDecision d = router.route(net, 1, 16, 16, {});
  router.dispatch(d);
  router.dispatch(d);
  EXPECT_EQ(router.routed_counts()[d.chip], 2);
  EXPECT_DOUBLE_EQ(router.backlog_seconds()[d.chip], 2 * d.request_seconds);
  EXPECT_DOUBLE_EQ(router.dispatched_seconds()[d.chip],
                   2 * d.request_seconds);

  router.complete(d.chip, d.request_seconds);
  EXPECT_DOUBLE_EQ(router.backlog_seconds()[d.chip], d.request_seconds);
  // Cumulative busy time never decreases.
  EXPECT_DOUBLE_EQ(router.dispatched_seconds()[d.chip],
                   2 * d.request_seconds);
}

TEST(Router, RouteAndDispatchCommitsAtomically) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();

  // The decision and its backlog charge commit together, so the second
  // call must already see the first one's backlog.
  const RouteDecision d0 = router.route_and_dispatch(net, 1, 16, 16, {});
  const RouteDecision d1 = router.route_and_dispatch(net, 1, 16, 16, {});
  EXPECT_DOUBLE_EQ(d0.backlog_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d1.backlog_seconds,
                   d0.chip == d1.chip ? d0.request_seconds : 0.0);

  std::int64_t routed_total = 0;
  double backlog_total = 0.0;
  for (std::size_t c = 0; c < router.chips().size(); ++c) {
    routed_total += router.routed_counts()[c];
    backlog_total += router.backlog_seconds()[c];
  }
  EXPECT_EQ(routed_total, 2);
  EXPECT_DOUBLE_EQ(backlog_total, d0.request_seconds + d1.request_seconds);
}

TEST(Router, ArrayOverrideStillGetsBacklogAwarePlacement) {
  auto cache = std::make_shared<PlanCache>();
  Router router(default_fleet_chips(), cache);
  const nn::NetworkModel net = pooled_net();
  dataflow::ArrayShape pinned;
  pinned.num_pes = 144;

  // With a pinned array every chip models the same request seconds, so
  // the decision is purely backlog-driven.
  const RouteDecision d0 = router.route(net, 1, 16, 16, {}, pinned);
  for (std::size_t c = 0; c < router.chips().size(); ++c)
    EXPECT_DOUBLE_EQ(
        router.modelled_request_seconds(c, net, 1, 16, 16, {}, pinned),
        d0.request_seconds);
  router.dispatch(d0);
  const RouteDecision d1 = router.route(net, 1, 16, 16, {}, pinned);
  EXPECT_NE(d1.chip, d0.chip);
}

}  // namespace
}  // namespace chainnn::serve
