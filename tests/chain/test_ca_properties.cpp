// Seeded randomized property test: the register-level chain and the
// analytical engine agree on every randomly drawn (layer, array) point —
// accumulators, ofmaps, every RunStats field and the per-level memory
// counters (word reads/writes per SRAM, DRAM bytes per operand).
//
// The generator draws K 1-11, stride 1-4, asymmetric padding, groups and
// batch 1-8 on small chains (a few primitives each), so the draws cover
// several m-groups with fewer resident kernels than primitives, several
// c-tiles, strided phases whose sub-kernels leave tail PEs masked, dual-
// and single-channel streaming and wide and staged-16 psum storage; the
// test checks that each of those cases actually came up.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chain/accelerator.hpp"
#include "common/rng.hpp"
#include "dataflow/stride_decompose.hpp"

namespace chainnn::chain {
namespace {

constexpr std::uint64_t kSeed = 0xC4A1'2024;
constexpr int kPoints = 160;

struct Point {
  nn::ConvLayerParams layer;
  AcceleratorConfig cfg;
};

Point draw_point(Rng& rng) {
  Point pt;
  nn::ConvLayerParams& p = pt.layer;
  p.name = "prop";
  p.kernel = rng.uniform_int(1, 11);
  p.stride = rng.uniform_int(1, 4);
  p.pad_h = rng.uniform_int(0, std::min<std::int64_t>(p.kernel - 1, 3));
  p.pad_w = rng.uniform_int(0, std::min<std::int64_t>(p.kernel - 1, 3));
  p.groups = rng.uniform_int(1, 3);
  p.in_channels = p.groups * rng.uniform_int(1, 4);
  p.out_channels = p.groups * rng.uniform_int(1, 6);
  p.in_height =
      std::max<std::int64_t>(1, p.kernel - 2 * p.pad_h) + rng.uniform_int(0, 6);
  p.in_width =
      std::max<std::int64_t>(1, p.kernel - 2 * p.pad_w) + rng.uniform_int(0, 6);
  p.batch = rng.uniform_int(1, 8);
  p.validate();

  // Chain of 1-4 primitives of the largest sub-kernel, plus a few spare
  // PEs; kMemory of 1-3 channels' worth of words per PE.
  const std::vector<dataflow::SubConv> subs = dataflow::decompose_strided(p);
  std::int64_t taps = 0;
  for (const dataflow::SubConv& sc : subs) taps = std::max(taps, sc.taps());
  const auto n_subs = static_cast<std::int64_t>(subs.size());
  AcceleratorConfig& cfg = pt.cfg;
  cfg.array.num_pes =
      taps * rng.uniform_int(1, 4) + rng.uniform_int(0, taps - 1);
  cfg.array.kmem_words_per_pe = n_subs * rng.uniform_int(1, 3);
  cfg.array.dual_channel = rng.uniform_int(0, 3) != 0;
  cfg.psum_storage =
      rng.uniform_int(0, 2) == 0 ? PsumStorage::kStaged16 : PsumStorage::kWide;
  return pt;
}

void expect_same_counters(const mem::MemoryHierarchy& a,
                          const mem::MemoryHierarchy& b,
                          const std::string& ctx) {
  const auto sram = [&](const mem::SramStats& x, const mem::SramStats& y,
                        const char* level) {
    EXPECT_EQ(x.reads, y.reads) << level << " " << ctx;
    EXPECT_EQ(x.writes, y.writes) << level << " " << ctx;
    EXPECT_EQ(x.read_bytes, y.read_bytes) << level << " " << ctx;
    EXPECT_EQ(x.write_bytes, y.write_bytes) << level << " " << ctx;
  };
  sram(a.imemory().stats(), b.imemory().stats(), "iMemory");
  sram(a.kmemory().stats(), b.kmemory().stats(), "kMemory");
  sram(a.omemory().stats(), b.omemory().stats(), "oMemory");
  for (int op = 0; op < 4; ++op) {
    EXPECT_EQ(a.dram().stats().read_bytes[op], b.dram().stats().read_bytes[op])
        << "DRAM read operand " << op << " " << ctx;
    EXPECT_EQ(a.dram().stats().write_bytes[op],
              b.dram().stats().write_bytes[op])
        << "DRAM write operand " << op << " " << ctx;
  }
}

TEST(CycleAccurateProperties, RandomPointsMatchAnalytical) {
  Rng rng(kSeed);
  int resident_short = 0, multi_mgroup = 0, multi_ctile = 0, masked_tail = 0,
      single_channel = 0, staged = 0, grouped = 0, batched = 0,
      large_batch = 0;
  for (int i = 0; i < kPoints; ++i) {
    const Point pt = draw_point(rng);
    const nn::ConvLayerParams& p = pt.layer;
    const std::string ctx = "point " + std::to_string(i) + " " +
                            p.to_string() + " pes " +
                            std::to_string(pt.cfg.array.num_pes) + " kmem " +
                            std::to_string(pt.cfg.array.kmem_words_per_pe) +
                            (pt.cfg.array.dual_channel ? " dual" : " single") +
                            (pt.cfg.psum_storage == PsumStorage::kWide
                                 ? " wide"
                                 : " staged16");

    Tensor<std::int16_t> ifmaps(
        Shape{p.batch, p.in_channels, p.in_height, p.in_width});
    Tensor<std::int16_t> kernels(
        Shape{p.out_channels, p.channels_per_group(), p.kernel, p.kernel});
    ifmaps.fill_random(rng, -100, 100);
    kernels.fill_random(rng, -20, 20);

    AcceleratorConfig cfg = pt.cfg;
    cfg.exec_mode = ExecMode::kCycleAccurate;
    ChainAccelerator cycle(cfg);
    cfg.exec_mode = ExecMode::kAnalytical;
    ChainAccelerator fast(cfg);
    const LayerRunResult rc = cycle.run_layer(p, ifmaps, kernels);
    const LayerRunResult ra = fast.run_layer(p, ifmaps, kernels);

    EXPECT_EQ(rc.accumulators, ra.accumulators) << ctx;
    EXPECT_EQ(rc.ofmaps, ra.ofmaps) << ctx;
    EXPECT_EQ(rc.stats.kernel_load_cycles, ra.stats.kernel_load_cycles)
        << ctx;
    EXPECT_EQ(rc.stats.stream_cycles, ra.stats.stream_cycles) << ctx;
    EXPECT_EQ(rc.stats.drain_cycles, ra.stats.drain_cycles) << ctx;
    EXPECT_EQ(rc.stats.windows_collected, ra.stats.windows_collected) << ctx;
    EXPECT_EQ(rc.stats.macs_performed, ra.stats.macs_performed) << ctx;
    EXPECT_EQ(rc.stats.passes, ra.stats.passes) << ctx;
    EXPECT_EQ(rc.traffic.dram_bytes, ra.traffic.dram_bytes) << ctx;
    EXPECT_EQ(rc.traffic.imemory_bytes, ra.traffic.imemory_bytes) << ctx;
    EXPECT_EQ(rc.traffic.kmemory_bytes, ra.traffic.kmemory_bytes) << ctx;
    EXPECT_EQ(rc.traffic.omemory_bytes, ra.traffic.omemory_bytes) << ctx;
    expect_same_counters(cycle.hierarchy(), fast.hierarchy(), ctx);
    // Every MAC of the layer ran on the chain, none on masked taps.
    EXPECT_EQ(rc.stats.macs_performed, p.macs_total()) << ctx;
    // The one cost closed form is what the register-level chain executed.
    const dataflow::LayerCost cost = rc.plan.cost(cfg.array);
    EXPECT_TRUE(rc.stats.kernel_load_cycles == cost.kernel_load_cycles &&
                rc.stats.stream_cycles ==
                    p.batch * cost.stream_cycles_per_image &&
                rc.stats.drain_cycles == cost.drain_cycles)
        << ctx << ": executed " << rc.stats.kernel_load_cycles << "/"
        << rc.stats.stream_cycles << "/" << rc.stats.drain_cycles
        << " vs cost at batch " << p.batch << " " << cost.kernel_load_cycles
        << "/" << p.batch * cost.stream_cycles_per_image << "/"
        << cost.drain_cycles;
    if (::testing::Test::HasFailure()) return;  // one point's report

    const dataflow::ExecutionPlan& plan = rc.plan;
    const std::int64_t m_per_group = p.out_channels_per_group();
    if (m_per_group % plan.primitives != 0) ++resident_short;
    if (plan.m_groups > p.groups) ++multi_mgroup;
    if (plan.c_tiles > 1) ++multi_ctile;
    for (const dataflow::SubConvPlan& sp : plan.subconvs)
      if (sp.sub.taps() < plan.taps) {
        ++masked_tail;
        break;
      }
    if (!cfg.array.dual_channel) ++single_channel;
    if (cfg.psum_storage == PsumStorage::kStaged16) ++staged;
    if (p.groups > 1) ++grouped;
    if (p.batch > 1) ++batched;
    if (p.batch > 4) ++large_batch;
  }
  // The draws exercised every structural case the test is about.
  EXPECT_GT(resident_short, 0);
  EXPECT_GT(multi_mgroup, 0);
  EXPECT_GT(multi_ctile, 0);
  EXPECT_GT(masked_tail, 0);
  EXPECT_GT(single_channel, 0);
  EXPECT_GT(staged, 0);
  EXPECT_GT(grouped, 0);
  EXPECT_GT(batched, 0);
  EXPECT_GT(large_batch, 0);
}

}  // namespace
}  // namespace chainnn::chain
