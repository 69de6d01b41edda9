#include "chain/pass_dump.hpp"

#include "chain/chain_core.hpp"
#include "common/check.hpp"
#include "sim/vcd.hpp"

namespace chainnn::chain {

std::string dump_pass_vcd(const StripPattern& pattern,
                          const Tensor<std::int16_t>& strip,
                          const Tensor<std::int16_t>& kernel) {
  CHAINNN_CHECK(strip.shape().rank() == 2);
  CHAINNN_CHECK(kernel.shape() ==
                Shape({pattern.k_rows(), pattern.k_cols()}));
  const std::int64_t taps = pattern.taps();

  SystolicChain chain(1, taps, 1);
  for (std::int64_t p = 0; p < taps; ++p) {
    const std::int64_t s = taps - 1 - p;
    chain.load_kmemory(
        0, p, 0, kernel.at(s % pattern.k_rows(), s / pattern.k_rows()));
  }
  (void)chain.latch_weights(taps, 0);
  chain.begin_pass(pattern, 1);

  sim::VcdWriter vcd;
  const auto ch0 = vcd.add_signal("streamer", "ch0_in", 16);
  const auto ch1 = vcd.add_signal("streamer", "ch1_in", 16);
  std::vector<std::int64_t> sel_ids;
  for (std::int64_t p = 0; p < taps; ++p)
    sel_ids.push_back(
        vcd.add_signal("pe" + std::to_string(p), "sel", 1));
  const auto psum = vcd.add_signal("primitive", "psum_out", 48);
  const auto valid = vcd.add_signal("primitive", "window_valid", 1);

  auto fetch = [&](const std::optional<ScheduledPixel>& px) -> std::int16_t {
    if (!px) return 0;
    if (px->row >= strip.shape().dim(0) || px->col >= strip.shape().dim(1))
      return 0;
    return strip.at(px->row, px->col);
  };

  for (std::int64_t slot = 0; slot < pattern.num_slots() + taps; ++slot) {
    const std::int16_t in0 = fetch(pattern.pixel_at(slot, 0));
    const std::int16_t in1 = fetch(pattern.pixel_at(slot, 1));
    chain.step(slot, in0, in1);
    vcd.change(slot, ch0, static_cast<std::uint16_t>(in0));
    vcd.change(slot, ch1, static_cast<std::uint16_t>(in1));
    for (std::int64_t p = 0; p < taps; ++p)
      vcd.change(slot, sel_ids[static_cast<std::size_t>(p)],
                 pattern.mux_select(p, slot));
    vcd.change(slot, psum, chain.output(0));
    vcd.change(slot, valid,
               pattern.completion_at(slot - (taps - 1)).has_value() ? 1
                                                                    : 0);
  }
  return vcd.render();
}

}  // namespace chainnn::chain
