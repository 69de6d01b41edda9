// design-search: repeated whole-grid serve::DesignSearch over the paper
// grid on pooled AlexNet. Executes no tensors.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/work_pool.hpp"
#include "serve/design_search.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace dataflow = chainnn::dataflow;
namespace serve = chainnn::serve;

serve::DesignSearchOptions search_options(const PooledNetwork& net,
                                          std::int64_t workers) {
  serve::DesignSearchOptions o;
  o.max_points = 0;  // the whole grid
  o.num_workers = workers;
  o.inter_layer = net.ops;
  return o;
}

// Points of a grid, worked out from its axes.
std::int64_t grid_points(const serve::DesignSpaceGrid& g, std::size_t layers) {
  std::int64_t n = static_cast<std::int64_t>(g.num_pes.size() * g.clock_hz.size() *
                                             g.kmem_words_per_pe.size() *
                                             g.omemory_bytes.size());
  if (g.per_layer_channel_modes) n <<= layers;
  return n;
}

bool worse_everywhere(const dataflow::PointCost& a, const dataflow::PointCost& b) {
  return a.total_cycles < b.total_cycles && a.energy_j < b.energy_j &&
         a.area_gates < b.area_gates;
}

bool same_frontier(const std::vector<serve::EvaluatedDesignPoint>& a,
                   const std::vector<serve::EvaluatedDesignPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i].id == b[i].id) || a[i].cost.total_cycles != b[i].cost.total_cycles ||
        a[i].cost.energy_j != b[i].cost.energy_j ||
        a[i].cost.area_gates != b[i].cost.area_gates)
      return false;
  return true;
}

void check_no_member_dominated(const std::vector<serve::EvaluatedDesignPoint>& f,
                               std::vector<std::string>& errors) {
  for (const auto& a : f)
    for (const auto& b : f)
      if (worse_everywhere(a.cost, b.cost)) {
        add_error(errors, "design-search: frontier member " + b.label +
                              " is dominated by " + a.label);
        return;
      }
}

// A seeded sub-grid of the paper grid, every layer dual-channel, small
// enough to cost every point with estimate_point_cost directly.
serve::DesignSpaceGrid small_grid(std::uint64_t seed) {
  const serve::DesignSpaceGrid full = serve::DesignSpaceGrid::paper_default();
  chainnn::Rng rng = seeded_rng(seed, 0x5E4C);
  const auto pick = [&rng](auto axis, std::size_t count) {
    while (axis.size() > count)
      axis.erase(axis.begin() +
                 rng.uniform_int(0, static_cast<std::int64_t>(axis.size()) - 1));
    return axis;
  };
  serve::DesignSpaceGrid g;
  g.num_pes = pick(full.num_pes, 4);
  g.clock_hz = pick(full.clock_hz, 3);
  g.kmem_words_per_pe = pick(full.kmem_words_per_pe, 2);
  g.omemory_bytes = pick(full.omemory_bytes, 3);
  g.per_layer_channel_modes = false;
  return g;
}

// The search's frontier on the small grid must equal the benchmark's own
// Pareto filter over estimate_point_cost at every point.
void check_against_oracle(const PooledNetwork& net, std::uint64_t seed,
                          std::vector<std::string>& errors) {
  const serve::DesignSpaceGrid g = small_grid(seed);
  serve::DesignSearch search(net.model, g, search_options(net, 1));
  const serve::DesignSearchResult result = search.run();
  if (result.stats.evaluated != grid_points(g, net.model.conv_layers.size()))
    add_error(errors, "design-search: small grid evaluated " +
                          std::to_string(result.stats.evaluated) + " points");

  const auto layers = expected_layers(net);
  struct Point {
    dataflow::ArrayShape array;
    chainnn::mem::HierarchyConfig memory;
    dataflow::PointCost cost;
  };
  std::vector<Point> points;
  for (const std::int64_t pes : g.num_pes)
    for (const double clock : g.clock_hz)
      for (const std::int64_t kmem : g.kmem_words_per_pe)
        for (const std::uint64_t omem : g.omemory_bytes) {
          Point p;
          p.array.num_pes = pes;
          p.array.clock_hz = clock;
          p.array.kmem_words_per_pe = kmem;
          p.array.dual_channel = true;
          p.memory.omemory_bytes = omem;
          p.memory.kmemory_bytes = static_cast<std::uint64_t>(pes * kmem) *
                                   p.memory.word_bytes;
          p.cost = dataflow::estimate_point_cost(layers, p.array, p.memory);
          points.push_back(p);
        }
  std::vector<const Point*> frontier;
  for (const Point& p : points) {
    if (!p.cost.feasible) continue;
    const bool dominated = std::any_of(points.begin(), points.end(), [&](const Point& q) {
      return q.cost.feasible && worse_everywhere(q.cost, p.cost);
    });
    if (!dominated) frontier.push_back(&p);
  }
  bool same = frontier.size() == result.frontier.size();
  for (const Point* p : frontier) {
    const auto match = std::find_if(
        result.frontier.begin(), result.frontier.end(),
        [&](const serve::EvaluatedDesignPoint& e) {
          return e.array.num_pes == p->array.num_pes &&
                 e.array.clock_hz == p->array.clock_hz &&
                 e.array.kmem_words_per_pe == p->array.kmem_words_per_pe &&
                 e.memory.omemory_bytes == p->memory.omemory_bytes &&
                 e.cost.total_cycles == p->cost.total_cycles &&
                 std::fabs(e.cost.energy_j - p->cost.energy_j) <=
                     1e-12 * std::fabs(p->cost.energy_j) &&
                 e.cost.area_gates == p->cost.area_gates;
        });
    same &= match != result.frontier.end();
  }
  if (!same)
    add_error(errors, "design-search: small-grid frontier (" +
                          std::to_string(result.frontier.size()) +
                          " points) differs from the direct Pareto filter (" +
                          std::to_string(frontier.size()) + " points)");
}

}  // namespace

Outcome run_design_search(const RunContext& ctx) {
  Outcome out;
  const PooledNetwork net = paper_alexnet();
  const serve::DesignSpaceGrid grid = serve::DesignSpaceGrid::paper_default();
  const std::int64_t expected = grid_points(grid, net.model.conv_layers.size());
  // The timed searches run serially: on a shared 4-vCPU host the wall
  // time of the parallel search tracks hypervisor steal (its per-run
  // median moved 2x while CPU time per search moved 5%). The parallel
  // search runs once below, where its frontier must equal the serial one.
  serve::DesignSearchOptions opts = search_options(net, 1);

  // Set-up: a cold plan cache filled by one whole search.
  serve::DesignSearchResult reference;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const auto t0 = Clock::now();
    opts.plan_cache = std::make_shared<serve::PlanCache>();
    serve::DesignSearch search(net.model, grid, opts);
    reference = search.run();
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, ctx.seconds);
  std::uint64_t op = 0;
  do {
    ++op;
    Span span("search", op);
    const auto t0 = Clock::now();
    serve::DesignSearchResult r;
    {
      Span run("serve.DesignSearch::run", op);
      serve::DesignSearch search(net.model, grid, opts);
      r = search.run();
    }
    out.latencies_ms.push_back(ms_between(t0, Clock::now()));
    span.stop();
    out.units += static_cast<double>(r.stats.evaluated);
    if (r.stats.evaluated != expected || !same_frontier(r.frontier, reference.frontier))
      add_error(out.errors, "design-search: search " + std::to_string(op) +
                                " evaluated " + std::to_string(r.stats.evaluated) +
                                " of " + std::to_string(expected) +
                                " points or changed its frontier");
  } while (Clock::now() < deadline);
  out.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss_mb = peak_rss_mb();
  out.attempted = static_cast<std::int64_t>(out.latencies_ms.size());

  if (reference.stats.evaluated != expected)
    add_error(out.errors, "design-search: evaluated " +
                              std::to_string(reference.stats.evaluated) +
                              " points, grid has " + std::to_string(expected));
  if (reference.frontier.empty())
    add_error(out.errors, "design-search: empty frontier");
  check_no_member_dominated(reference.frontier, out.errors);
  {
    serve::DesignSearchOptions parallel = opts;
    parallel.num_workers = 0;  // the shared WorkPool
    serve::DesignSearch search(net.model, grid, parallel);
    if (!same_frontier(search.run().frontier, reference.frontier))
      add_error(out.errors, "design-search: serial and parallel frontiers differ");
  }
  check_against_oracle(net, ctx.seed, out.errors);
  return out;
}

void probe_search(const RunContext&, Metrics& out,
                  std::vector<std::string>& errors) {
  Span span("probe.search");
  const PooledNetwork net = paper_alexnet();
  const auto layers = expected_layers(net);
  auto cache = std::make_shared<serve::PlanCache>();
  dataflow::PointCostOptions pco;
  pco.plan_source = [&cache](const chainnn::nn::ConvLayerParams& layer,
                             const dataflow::ArrayShape& array,
                             const chainnn::mem::HierarchyConfig& memory) {
    return cache->plan_for(layer, array, memory);
  };
  const dataflow::ArrayShape array;
  const chainnn::mem::HierarchyConfig memory;
  (void)dataflow::estimate_point_cost(layers, array, memory, pco);
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b)
    per_call.push_back(timed("dataflow.estimate_point_cost", [&] {
                         for (int i = 0; i < 200; ++i)
                           (void)dataflow::estimate_point_cost(layers, array, memory, pco);
                       }) * 1e3 / 200);
  out.push_back({"dataflow.point_cost_us", median(per_call), "us"});

  serve::DesignSearchResult r;
  for (const std::int64_t workers : {1, 0}) {
    serve::DesignSearchOptions o = search_options(net, workers);
    o.plan_cache = cache;
    serve::DesignSearch search(net.model, serve::DesignSpaceGrid::paper_default(), o);
    const double ms = timed("serve.DesignSearch::run", [&] { r = search.run(); },
                            workers == 1 ? "serial" : "shared pool");
    if (r.stats.evaluated <= 0) add_error(errors, "design-search probe evaluated nothing");
    out.push_back({workers == 1 ? "search.serial_points_per_s"
                                : "search.parallel_points_per_s",
                   static_cast<double>(r.stats.evaluated) / (ms / 1e3), "1/s"});
  }
  out.push_back({"search.evaluated", static_cast<double>(r.stats.evaluated), "count"});
  out.push_back({"search.pruned", static_cast<double>(r.stats.pruned), "count"});
  out.push_back({"search.frontier", static_cast<double>(r.stats.frontier), "count"});
  out.push_back({"search.waves", static_cast<double>(r.stats.waves), "count"});
  out.push_back({"common.pool_threads",
                 static_cast<double>(chainnn::common::WorkPool::shared().num_threads()),
                 "count"});
}

}  // namespace perfbench
