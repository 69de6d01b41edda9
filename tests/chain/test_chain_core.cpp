#include "chain/chain_core.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace chainnn::chain {
namespace {

TEST(ChannelRing, TapAgeZeroIsCurrentInput) {
  ChannelRing ring(8);
  ring.push(5);
  EXPECT_EQ(ring.tap(0), 5);
  ring.push(7);
  EXPECT_EQ(ring.tap(0), 7);
  EXPECT_EQ(ring.tap(1), 5);
}

TEST(ChannelRing, UnpushedHistoryReadsZero) {
  ChannelRing ring(8);
  ring.push(9);
  EXPECT_EQ(ring.tap(3), 0);  // register still in reset state
}

TEST(ChannelRing, ResetClearsHistory) {
  ChannelRing ring(4);
  ring.push(1);
  ring.push(2);
  ring.reset();
  ring.push(3);
  EXPECT_EQ(ring.tap(0), 3);
  EXPECT_EQ(ring.tap(1), 0);
}

TEST(ChannelRing, TapBoundsChecked) {
  ChannelRing ring(4);
  EXPECT_THROW((void)ring.tap(5), std::logic_error);
}

TEST(Primitive, KmemoryLoadAndLatch) {
  SystolicChain chain(1, 4, 8);
  chain.load_kmemory(0, 0, 2, 11);
  chain.load_kmemory(0, 3, 2, -7);
  const std::int64_t reads = chain.latch_weights(4, 2);
  EXPECT_EQ(reads, 4);
  EXPECT_EQ(chain.weight(0, 0), 11);
  EXPECT_EQ(chain.weight(0, 3), -7);
}

TEST(Primitive, MaskedTailGetsZeroWeight) {
  SystolicChain chain(1, 9, 4);
  for (std::int64_t p = 0; p < 9; ++p) chain.load_kmemory(0, p, 0, 5);
  const std::int64_t reads = chain.latch_weights(6, 0);
  EXPECT_EQ(reads, 6);
  EXPECT_EQ(chain.weight(0, 5), 5);
  EXPECT_EQ(chain.weight(0, 6), 0);
  EXPECT_EQ(chain.weight(0, 8), 0);
}

TEST(Primitive, LoadRejectsBadWord) {
  SystolicChain chain(1, 2, 4);
  EXPECT_THROW(chain.load_kmemory(0, 0, 4, 1), std::logic_error);
  EXPECT_THROW(chain.load_kmemory(0, 2, 0, 1), std::logic_error);
  EXPECT_THROW(chain.load_kmemory(1, 0, 0, 1), std::logic_error);
}

// The flat PE-major storage keeps every primitive's kMemory and weight
// registers apart: each (primitive, PE, word) holds its own value.
TEST(Primitive, PrimitivesKeepSeparateKmemory) {
  SystolicChain chain(3, 4, 2);
  for (std::int64_t q = 0; q < 3; ++q)
    for (std::int64_t p = 0; p < 4; ++p)
      for (std::int64_t word = 0; word < 2; ++word)
        chain.load_kmemory(q, p, word,
                           static_cast<std::int16_t>(100 * q + 10 * p + word));
  EXPECT_EQ(chain.latch_weights(3, 1), 3 * 3);  // every primitive latches
  for (std::int64_t q = 0; q < 3; ++q) {
    for (std::int64_t p = 0; p < 3; ++p)
      EXPECT_EQ(chain.weight(q, p), 100 * q + 10 * p + 1) << q << "," << p;
    EXPECT_EQ(chain.weight(q, 3), 0) << q;
  }
}

// 1D correlation sanity check: a K_r=1, K_c=3 primitive on a single-row
// strip computes y(c0) = sum_dc w[dc] * x[c0+dc].
TEST(Chain, OneDimensionalCorrelation) {
  const std::int64_t k_cols = 3;
  const StripPattern pattern(1, k_cols, 1, 8, 1, true);
  SystolicChain chain(1, k_cols, 4);
  // Scan s = dc; PE p holds w_scan[T-1-p].
  const std::int16_t w[3] = {2, -1, 3};
  for (std::int64_t p = 0; p < 3; ++p)
    chain.load_kmemory(0, p, 0, w[3 - 1 - p]);
  (void)chain.latch_weights(3, 0);
  chain.begin_pass(pattern, chain.num_primitives());

  const std::int16_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::int64_t> outputs;
  for (std::int64_t slot = 0; slot < pattern.num_slots() + 3; ++slot) {
    std::int16_t in0 = 0, in1 = 0;
    if (auto px = pattern.pixel_at(slot, 0)) { in0 = x[px->col]; }
    if (auto px = pattern.pixel_at(slot, 1)) in1 = x[px->col];
    chain.step(slot, in0, in1);
    if (auto comp = pattern.completion_at(slot - 2))
      outputs.push_back(chain.output(0));
  }
  ASSERT_EQ(outputs.size(), 6u);
  for (std::int64_t c0 = 0; c0 < 6; ++c0) {
    const std::int64_t want =
        2 * x[c0] + -1 * x[c0 + 1] + 3 * x[c0 + 2];
    EXPECT_EQ(outputs[static_cast<std::size_t>(c0)], want) << "c0=" << c0;
  }
}

// Full 2D check at the chain-core level (no controller): one 3x3
// primitive over a 5-row strip must produce all 3*(cols-2) windows.
TEST(Chain, TwoDimensionalConvolutionSingle3x3Primitive) {
  const std::int64_t k = 3, cols = 7;
  const StripPattern pattern(k, k, 2 * k - 1, cols, k, true);
  SystolicChain chain(1, k * k, 4);

  Rng rng(77);
  std::int16_t strip[5][7];
  for (auto& row : strip)
    for (auto& v : row)
      v = static_cast<std::int16_t>(rng.uniform_int(-50, 50));
  std::int16_t w[3][3];
  for (auto& row : w)
    for (auto& v : row)
      v = static_cast<std::int16_t>(rng.uniform_int(-10, 10));

  // Load: PE p holds scan position s = T-1-p; scan s = (dr, dc) =
  // (s % K, s / K).
  for (std::int64_t p = 0; p < 9; ++p) {
    const std::int64_t s = 8 - p;
    chain.load_kmemory(0, p, 0, w[s % 3][s / 3]);
  }
  (void)chain.latch_weights(9, 0);
  chain.begin_pass(pattern, chain.num_primitives());

  std::map<std::pair<std::int64_t, std::int64_t>, std::int64_t> got;
  for (std::int64_t slot = 0; slot < pattern.num_slots() + 9; ++slot) {
    std::int16_t in0 = 0, in1 = 0;
    if (auto px = pattern.pixel_at(slot, 0)) in0 = strip[px->row][px->col];
    if (auto px = pattern.pixel_at(slot, 1)) in1 = strip[px->row][px->col];
    chain.step(slot, in0, in1);
    if (auto comp = pattern.completion_at(slot - 8))
      got[{comp->r0, comp->c0}] = chain.output(0);
  }

  ASSERT_EQ(got.size(), static_cast<std::size_t>(3 * 5));
  for (std::int64_t r0 = 0; r0 < 3; ++r0) {
    for (std::int64_t c0 = 0; c0 <= cols - 3; ++c0) {
      std::int64_t want = 0;
      for (std::int64_t dr = 0; dr < 3; ++dr)
        for (std::int64_t dc = 0; dc < 3; ++dc)
          want += static_cast<std::int64_t>(strip[r0 + dr][c0 + dc]) *
                  static_cast<std::int64_t>(w[dr][dc]);
      EXPECT_EQ((got[{r0, c0}]), want) << "(" << r0 << "," << c0 << ")";
    }
  }
}

// Two chained primitives see the same stream and compute two kernels.
TEST(Chain, TwoPrimitivesComputeTwoKernels) {
  const std::int64_t k = 2, cols = 6;
  const StripPattern pattern(k, k, 2 * k - 1, cols, k, true);
  SystolicChain chain(2, k * k, 4);

  std::int16_t strip[3][6];
  for (std::int64_t r = 0; r < 3; ++r)
    for (std::int64_t c = 0; c < 6; ++c)
      strip[r][c] = static_cast<std::int16_t>(10 * r + c);
  // Kernel 0 = all ones (window sum); kernel 1 = top-left delta.
  for (std::int64_t p = 0; p < 4; ++p) {
    chain.load_kmemory(0, p, 0, 1);
    const std::int64_t s = 3 - p;
    chain.load_kmemory(1, p, 0,
                                    (s == 0) ? std::int16_t{1}
                                             : std::int16_t{0});
  }
  (void)chain.latch_weights(4, 0);
  chain.begin_pass(pattern, chain.num_primitives());

  std::map<std::pair<std::int64_t, std::int64_t>,
           std::pair<std::int64_t, std::int64_t>>
      got;
  for (std::int64_t slot = 0; slot < pattern.num_slots() + 4; ++slot) {
    std::int16_t in0 = 0, in1 = 0;
    if (auto px = pattern.pixel_at(slot, 0)) in0 = strip[px->row][px->col];
    if (auto px = pattern.pixel_at(slot, 1)) in1 = strip[px->row][px->col];
    chain.step(slot, in0, in1);
    if (auto comp = pattern.completion_at(slot - 3))
      got[{comp->r0, comp->c0}] = {chain.output(0), chain.output(1)};
  }

  for (const auto& [rc, outs] : got) {
    const auto [r0, c0] = rc;
    const std::int64_t sum = strip[r0][c0] + strip[r0 + 1][c0] +
                             strip[r0][c0 + 1] + strip[r0 + 1][c0 + 1];
    EXPECT_EQ(outs.first, sum);
    EXPECT_EQ(outs.second, strip[r0][c0]);  // delta at scan 0 = top-left
  }
}

TEST(Chain, BeginPassClearsPsums) {
  SystolicChain chain(1, 4, 4);
  const StripPattern pattern(2, 2, 3, 5, 2, true);
  chain.load_kmemory(0, 0, 0, 1);
  (void)chain.latch_weights(4, 0);
  chain.begin_pass(pattern, chain.num_primitives());
  for (std::int64_t slot = 0; slot < 4; ++slot) chain.step(slot, 100, 100);
  ASSERT_NE(chain.output(0), 0);
  chain.begin_pass(pattern, chain.num_primitives());
  EXPECT_EQ(chain.output(0), 0);
}

// Primitives beyond the active count are not evaluated and read psum 0;
// the active ones are unaffected by the count.
TEST(Chain, InactivePrimitivesStayAtZero) {
  const StripPattern pattern(1, 2, 1, 6, 1, true);
  SystolicChain all(3, 2, 1);
  SystolicChain two(3, 2, 1);
  for (std::int64_t q = 0; q < 3; ++q)
    for (std::int64_t p = 0; p < 2; ++p) {
      all.load_kmemory(q, p, 0, static_cast<std::int16_t>(q + p + 1));
      two.load_kmemory(q, p, 0, static_cast<std::int16_t>(q + p + 1));
    }
  (void)all.latch_weights(2, 0);
  (void)two.latch_weights(2, 0);
  all.begin_pass(pattern, 3);
  two.begin_pass(pattern, 2);
  for (std::int64_t slot = 0; slot < pattern.num_slots() + 2; ++slot) {
    const auto v = static_cast<std::int16_t>(slot + 1);
    all.step(slot, v, static_cast<std::int16_t>(-v));
    two.step(slot, v, static_cast<std::int16_t>(-v));
    EXPECT_EQ(two.output(0), all.output(0)) << slot;
    EXPECT_EQ(two.output(1), all.output(1)) << slot;
    EXPECT_EQ(two.output(2), 0) << slot;
  }
  EXPECT_NE(all.output(2), 0);
}

// The per-pass mux schedule equals StripPattern::mux_select: a
// single-tap-weight primitive outputs exactly the operand its one live
// PE selected, for every PE position and slot.
TEST(Chain, GatheredOperandFollowsMuxSelect) {
  const StripPattern pattern(3, 3, 5, 8, 3, true);
  const std::int64_t taps = 9;
  for (std::int64_t live = 0; live < taps; ++live) {
    SystolicChain chain(1, taps, 1);
    chain.load_kmemory(0, live, 0, 1);
    (void)chain.latch_weights(taps, 0);
    chain.begin_pass(pattern, chain.num_primitives());
    std::vector<std::int16_t> in0, in1;
    for (std::int64_t slot = 0; slot < pattern.num_slots() + taps; ++slot) {
      in0.push_back(static_cast<std::int16_t>(1 + slot));
      in1.push_back(static_cast<std::int16_t>(-1 - slot));
      chain.step(slot, in0.back(), in1.back());
      // PE `live` multiplied at slot - (taps-1-live) the value tapped at
      // depth 2*live, i.e. the input of slot - (taps-1-live) - 2*live.
      const std::int64_t mac_slot = slot - (taps - 1 - live);
      const std::int64_t src = mac_slot - 2 * live;
      std::int64_t want = 0;
      if (mac_slot >= 0 && src >= 0)
        want = pattern.mux_select(live, mac_slot) == 0 ? in0[src] : in1[src];
      EXPECT_EQ(chain.output(0), want) << "pe " << live << " slot " << slot;
    }
  }
}

}  // namespace
}  // namespace chainnn::chain
