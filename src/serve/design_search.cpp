#include "serve/design_search.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <utility>

#include "common/check.hpp"
#include "serve/router.hpp"

namespace chainnn::serve {

namespace {

// Per-layer cost models for one (chain length, kmem words, omem bytes)
// combination — everything a point needs except its clock and channel
// mask, both of which are outside the plan entirely. A search over C
// clocks and 2^L masks builds each combination exactly once.
struct ComboModels {
  bool feasible = true;
  std::string reason;
  // [layer][mode]; mode 0 = single-channel, 1 = dual-channel. The plan
  // is mode-independent (dual_channel is outside PlanKey), so both
  // models read the same plan, re-stamped with the mode they cost.
  std::vector<std::array<dataflow::LayerCostModel, 2>> layers;
  double area_gates = 0.0;
};

// The masks one configuration contributes, as Hamming levels from the
// seed's all-dual mask: every mask of levels [0, full), then the
// `partial` smallest masks of level `full`.
struct Share {
  std::size_t full = 0;
  std::uint64_t partial = 0;
};

// Point counts saturate: a 64-layer mode axis alone has 2^64 masks.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum = 0;
  return __builtin_add_overflow(a, b, &sum) ? ~0ull : sum;
}

// Calls fn(y) for the `n` smallest 64-bit words with `ones` bits set, in
// increasing order (Gosper's hack).
template <typename Fn>
void for_each_word(int ones, std::uint64_t n, Fn&& fn) {
  std::uint64_t y = ones >= 64 ? ~0ull : (1ull << ones) - 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    fn(y);
    if (y == 0) return;
    const std::uint64_t low = y & (~y + 1);
    const std::uint64_t r = y + low;
    y = r | (((y ^ r) >> 2) / low);
  }
}

// The (cycles, energy) pairs of every point of smaller area, reduced to
// a staircase: cycles ascending, least energy strictly descending. A
// point is strictly beaten on both by one of them iff the step just
// below its cycles has less energy.
class Staircase {
 public:
  [[nodiscard]] bool beats(std::int64_t cycles, double energy) const {
    const auto it = std::lower_bound(steps_.begin(), steps_.end(), cycles,
                                     below);
    return it != steps_.begin() && std::prev(it)->second < energy;
  }

  void insert(std::int64_t cycles, double energy) {
    auto hi = std::upper_bound(steps_.begin(), steps_.end(), cycles, above);
    if (hi != steps_.begin() && std::prev(hi)->second <= energy) return;
    auto lo = std::lower_bound(steps_.begin(), steps_.end(), cycles, below);
    hi = lo;
    while (hi != steps_.end() && hi->second >= energy) ++hi;
    steps_.insert(steps_.erase(lo, hi), {cycles, energy});
  }

 private:
  using Step = std::pair<std::int64_t, double>;
  static bool below(const Step& s, std::int64_t c) { return s.first < c; }
  static bool above(std::int64_t c, const Step& s) { return c < s.first; }
  std::vector<Step> steps_;
};

template <typename T>
std::int32_t index_of(const std::vector<T>& axis, T value) {
  for (std::size_t i = 0; i < axis.size(); ++i)
    if (axis[i] == value) return static_cast<std::int32_t>(i);
  return -1;
}

}  // namespace

bool EvaluatedDesignPoint::uniform_mode() const {
  if (layer_dual.empty()) return true;
  for (const std::uint8_t d : layer_dual)
    if (d != layer_dual.front()) return false;
  return true;
}

DesignSpaceGrid DesignSpaceGrid::paper_default() {
  DesignSpaceGrid g;
  g.num_pes = {72,  144, 216, 288,  360,  432,  504,  576,
               648, 720, 864, 1008, 1152, 1440, 1728, 2304};
  for (int mhz = 200; mhz <= 1200; mhz += 50)
    g.clock_hz.push_back(static_cast<double>(mhz) * 1e6);
  g.kmem_words_per_pe = {64, 128, 256, 512};
  // The paper's 25KB oMemory caps the axis: larger oMemories strictly
  // reduce cycles through better output blocking, so extending above the
  // paper's provisioning would push the 576@700 instantiation off the
  // frontier by construction. The search asks what *cheaper* memory
  // provisioning trades away, not whether more SRAM helps (it does).
  g.omemory_bytes = {4 * 1024, 8 * 1024, 12 * 1024, 16 * 1024, 25 * 1024};
  return g;
}

DesignSearch::DesignSearch(nn::NetworkModel network, DesignSpaceGrid grid,
                           DesignSearchOptions options)
    : net_(std::move(network)),
      grid_(std::move(grid)),
      opts_(std::move(options)) {
  CHAINNN_CHECK_MSG(!net_.conv_layers.empty(),
                    "cannot search an empty network");
  CHAINNN_CHECK_MSG(opts_.batch >= 1,
                    "batch must be >= 1, got " << opts_.batch);
  const auto strictly_increasing = [](const auto& axis) {
    if (axis.empty()) return false;
    for (std::size_t i = 1; i < axis.size(); ++i)
      if (!(axis[i - 1] < axis[i])) return false;
    return true;
  };
  CHAINNN_CHECK_MSG(strictly_increasing(grid_.num_pes) &&
                        strictly_increasing(grid_.clock_hz) &&
                        strictly_increasing(grid_.kmem_words_per_pe) &&
                        strictly_increasing(grid_.omemory_bytes),
                    "every grid axis must be non-empty and strictly "
                    "increasing");
  CHAINNN_CHECK_MSG(grid_.num_pes.front() > 0 && grid_.clock_hz.front() > 0,
                    "chain lengths and clocks must be positive");

  const nn::ConvLayerParams& first = net_.conv_layers.front();
  layers_ = resolve_network_layers(net_, opts_.batch, first.in_height,
                                   first.in_width, opts_.inter_layer);
  CHAINNN_CHECK_MSG(!grid_.per_layer_channel_modes || layers_.size() <= 64,
                    "per-layer channel modes support at most 64 layers, got "
                        << layers_.size());
}

DesignSearchResult DesignSearch::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t num_layers = layers_.size();
  const std::uint64_t all_dual =
      num_layers >= 64 ? ~0ull : ((1ull << num_layers) - 1);
  // A point's mask is `fixed | y`, y one of the 2^bits mode words.
  const std::size_t bits = grid_.per_layer_channel_modes ? num_layers : 0;
  const std::uint64_t fixed = grid_.per_layer_channel_modes ? 0 : all_dual;
  // Axis sizes in canonical order: pes, clock, kmem, omem.
  const std::array<std::size_t, 4> size = {
      grid_.num_pes.size(), grid_.clock_hz.size(),
      grid_.kmem_words_per_pe.size(), grid_.omemory_bytes.size()};

  DesignPointId paper;
  paper.pes = index_of<std::int64_t>(grid_.num_pes, 576);
  paper.clock = index_of<double>(grid_.clock_hz, 700e6);
  paper.kmem = index_of<std::int64_t>(grid_.kmem_words_per_pe, 256);
  paper.omem = index_of<std::uint64_t>(grid_.omemory_bytes, 25 * 1024);
  paper.mode_mask = all_dual;
  const bool has_paper =
      paper.pes >= 0 && paper.clock >= 0 && paper.kmem >= 0 && paper.omem >= 0;
  std::array<std::int32_t, 4> seed = {paper.pes, paper.clock, paper.kmem,
                                      paper.omem};
  if (!has_paper)
    for (std::size_t a = 0; a < 4; ++a)
      seed[a] = static_cast<std::int32_t>(size[a] / 2);

  // Configurations are numbered in canonical order (omem fastest), and
  // (pes, kmem, omem) combinations the same way without the clock.
  const auto configs = static_cast<std::size_t>(grid_.configurations());
  const std::size_t combos = configs / size[1];
  const std::size_t ko = size[2] * size[3];
  const auto axes_of = [&size](std::size_t cfg) {
    std::array<std::int32_t, 4> idx{};
    for (std::size_t a = 4; a-- > 0;) {
      idx[a] = static_cast<std::int32_t>(cfg % size[a]);
      cfg /= size[a];
    }
    return idx;
  };
  const auto combo_of = [&size, ko](std::size_t cfg) {
    return cfg / (size[1] * ko) * ko + cfg % ko;
  };
  const auto config_of = [&size, ko](std::size_t combo, std::size_t clock) {
    return (combo / ko * size[1] + clock) * ko + combo % ko;
  };
  std::vector<std::size_t> distance(configs);
  for (std::size_t cfg = 0; cfg < configs; ++cfg) {
    const auto idx = axes_of(cfg);
    for (std::size_t a = 0; a < 4; ++a)
      distance[cfg] += static_cast<std::size_t>(std::abs(idx[a] - seed[a]));
  }

  // level[h] = C(bits, h) masks at Hamming level h (C(64, 32) < 2^61);
  // at[d] = points at lattice distance d.
  std::vector<std::uint64_t> level(bits + 1, 1);
  for (std::size_t n = 1; n <= bits; ++n)
    for (std::size_t h = n - 1; h >= 1; --h) level[h] += level[h - 1];
  std::vector<std::uint64_t> at(
      *std::max_element(distance.begin(), distance.end()) + bits + 1);
  for (const std::size_t d : distance)
    for (std::size_t h = 0; h <= bits; ++h)
      at[d + h] = sat_add(at[d + h], level[h]);

  // The budget: every distance below `last`, then the first `rest`
  // points at distance `last` in canonical order.
  const std::uint64_t budget =
      opts_.max_points > 0 ? static_cast<std::uint64_t>(opts_.max_points)
                           : ~0ull;
  std::size_t last = 0;
  std::uint64_t before = 0;
  while (last + 1 < at.size() && at[last] < budget - before)
    before += at[last++];
  std::uint64_t rest = std::min(budget - before, at[last]);
  std::vector<Share> shares(configs);
  std::vector<bool> needed(combos);
  for (std::size_t cfg = 0; cfg < configs; ++cfg) {
    Share& s = shares[cfg];
    if (distance[cfg] > last) continue;
    const std::size_t h = last - distance[cfg];  // level at distance last
    s.full = std::min(h, bits + 1);
    if (h <= bits) {
      s.partial = std::min(level[h], rest);
      rest -= s.partial;
      if (s.partial == level[h]) {  // the whole level fits
        ++s.full;
        s.partial = 0;
      }
    }
    if (s.full > 0 || s.partial > 0) needed[combo_of(cfg)] = true;
  }

  // The array and memory a configuration runs.
  const auto configure = [this](const std::array<std::int32_t, 4>& idx,
                                dataflow::ArrayShape& array,
                                mem::HierarchyConfig& memory) {
    array.num_pes = grid_.num_pes[static_cast<std::size_t>(idx[0])];
    array.clock_hz = grid_.clock_hz[static_cast<std::size_t>(idx[1])];
    array.kmem_words_per_pe =
        grid_.kmem_words_per_pe[static_cast<std::size_t>(idx[2])];
    memory.omemory_bytes = grid_.omemory_bytes[static_cast<std::size_t>(idx[3])];
    memory.kmemory_bytes = static_cast<std::uint64_t>(array.num_pes) *
                           static_cast<std::uint64_t>(array.kmem_words_per_pe) *
                           memory.word_bytes;
  };

  std::vector<ComboModels> models(combos);
  const auto build = [&](std::size_t combo) {
    ComboModels& built = models[combo];
    dataflow::ArrayShape array;
    mem::HierarchyConfig memory;
    configure(axes_of(config_of(combo, 0)), array, memory);  // any clock
    built.area_gates = opts_.area.total_gates(
        array.num_pes, dataflow::point_sram_bytes(array, memory));
    for (const nn::ConvLayerParams& layer : layers_) {
      try {
        dataflow::ExecutionPlan plan =
            opts_.plan_cache ? opts_.plan_cache->plan_for(layer, array, memory)
                             : dataflow::plan_layer(layer, array, memory);
        std::array<dataflow::LayerCostModel, 2> modes;
        plan.array.dual_channel = false;
        modes[0] = dataflow::layer_cost_model(plan);
        plan.array.dual_channel = true;
        modes[1] = dataflow::layer_cost_model(plan);
        built.layers.push_back(modes);
      } catch (const std::exception& e) {
        built.feasible = false;
        built.reason = layer.name + ": " + e.what();
        break;
      }
    }
  };
  std::vector<std::size_t> order;
  for (std::size_t combo = 0; combo < combos; ++combo)
    if (needed[combo]) order.push_back(combo);
  if (opts_.num_workers == 1) {
    for (const std::size_t combo : order) build(combo);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(order.size());
    for (const std::size_t combo : order)
      tasks.push_back([&build, combo] { build(combo); });
    (opts_.pool ? *opts_.pool : common::WorkPool::shared())
        .run_batch(std::move(tasks));
  }
  std::sort(order.begin(), order.end(), [&models](auto a, auto b) {
    return std::pair(models[a].area_gates, a) <
           std::pair(models[b].area_gates, b);
  });

  const auto expand = [&](const DesignPointId& id, dataflow::PointCost cost) {
    EvaluatedDesignPoint p;
    p.id = id;
    configure({id.pes, id.clock, id.kmem, id.omem}, p.array, p.memory);
    p.layer_dual.resize(num_layers);
    for (std::size_t i = 0; i < num_layers; ++i)
      p.layer_dual[i] = static_cast<std::uint8_t>((id.mode_mask >> i) & 1);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "pes%lld-clk%d-kw%lld-om%lluk",
                  static_cast<long long>(p.array.num_pes),
                  static_cast<int>(p.array.clock_hz / 1e6),
                  static_cast<long long>(p.array.kmem_words_per_pe),
                  static_cast<unsigned long long>(p.memory.omemory_bytes /
                                                  1024));
    p.label = buf;
    if (id.mode_mask != all_dual) {
      std::snprintf(buf, sizeof(buf), "-m%llx",
                    static_cast<unsigned long long>(id.mode_mask));
      p.label += buf;
    }
    p.cost = std::move(cost);
    return p;
  };

  // The streaming filter: one equal-area group at a time, tested against
  // every smaller-area point, then added to them.
  DesignSearchResult result;
  DesignSearchStats& stats = result.stats;
  stats.waves = static_cast<std::int64_t>(last) + 1;
  Staircase smaller;
  std::vector<dataflow::LayerTerm> terms(2 * num_layers);
  for (std::size_t g = 0, end = 0; g < order.size(); g = end) {
    const std::size_t first_survivor = result.frontier.size();
    for (; end < order.size() &&
           models[order[end]].area_gates == models[order[g]].area_gates;
         ++end) {
      const ComboModels& m = models[order[end]];
      for (std::size_t clock = 0; clock < size[1]; ++clock) {
        const std::size_t cfg = config_of(order[end], clock);
        const Share& share = shares[cfg];
        const auto idx = axes_of(cfg);
        DesignPointId id{idx[0], idx[1], idx[2], idx[3], all_dual};
        if (m.feasible)
          for (std::size_t l = 0; l < 2 * num_layers; ++l)
            terms[l] = dataflow::layer_term(
                m.layers[l / 2][l % 2], grid_.clock_hz[clock],
                grid_.num_pes[static_cast<std::size_t>(id.pes)], opts_.batch,
                opts_.energy);
        for (std::size_t h = 0; h <= std::min(share.full, bits); ++h) {
          const std::uint64_t n = h < share.full ? level[h] : share.partial;
          stats.evaluated += static_cast<std::int64_t>(n);
          if (!m.feasible) stats.infeasible += static_cast<std::int64_t>(n);
          if (!m.feasible && !opts_.collect_evaluated) continue;
          for_each_word(bits - h, n, [&](std::uint64_t y) {
            id.mode_mask = fixed | y;
            dataflow::PointCost cost;
            if (!m.feasible) {
              cost.feasible = false;
              cost.infeasible_reason = m.reason;
              result.evaluated.push_back(expand(id, std::move(cost)));
              return;
            }
            cost.area_gates = m.area_gates;
            for (std::size_t l = 0; l < num_layers; ++l)
              cost.add(terms[2 * l + ((id.mode_mask >> l) & 1)]);
            if (opts_.collect_evaluated)
              result.evaluated.push_back(expand(id, cost));
            if (!smaller.beats(cost.total_cycles, cost.energy_j))
              result.frontier.push_back(expand(id, std::move(cost)));
          });
        }
      }
    }
    for (std::size_t i = first_survivor; i < result.frontier.size(); ++i)
      smaller.insert(result.frontier[i].cost.total_cycles,
                     result.frontier[i].cost.energy_j);
  }

  const auto by_id = [](const EvaluatedDesignPoint& a,
                        const EvaluatedDesignPoint& b) { return a.id < b.id; };
  std::sort(result.frontier.begin(), result.frontier.end(), by_id);
  std::sort(result.evaluated.begin(), result.evaluated.end(), by_id);
  stats.frontier = static_cast<std::int64_t>(result.frontier.size());
  stats.pruned = stats.evaluated - stats.infeasible - stats.frontier;
  stats.contains_paper_point =
      has_paper && std::any_of(result.frontier.begin(), result.frontier.end(),
                               [&paper](const EvaluatedDesignPoint& p) {
                                 return p.id == paper;
                               });
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats.points_per_sec =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.evaluated) / stats.wall_seconds
          : 0.0;
  return result;
}

}  // namespace chainnn::serve
