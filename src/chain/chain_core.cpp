#include "chain/chain_core.hpp"

#include <algorithm>
#include <bit>

namespace chainnn::chain {

ChannelRing::ChannelRing(std::int64_t max_age) : max_age_(max_age) {
  CHAINNN_CHECK(max_age >= 0);
  buf_.assign(std::bit_ceil(static_cast<std::size_t>(max_age + 1)), 0);
  mask_ = buf_.size() - 1;
}

void ChannelRing::reset() {
  std::fill(buf_.begin(), buf_.end(), 0);
  head_ = 0;
}

SystolicChain::SystolicChain(std::int64_t primitives, std::int64_t taps_phys,
                             std::int64_t kmem_words_per_pe)
    : primitives_(primitives),
      taps_(taps_phys),
      kmem_words_(kmem_words_per_pe),
      stride_((primitives + kLanes - 1) / kLanes * kLanes),
      lanes_(stride_),
      ch0_(2 * taps_phys + 2),
      ch1_(2 * taps_phys + 2) {
  CHAINNN_CHECK(primitives >= 1);
  CHAINNN_CHECK(taps_phys >= 1);
  CHAINNN_CHECK(kmem_words_per_pe >= 0);
  kmemory_.assign(static_cast<std::size_t>(kmem_words_) * row_words(), 0);
  weights_.assign(row_words(), 0);
  psums_.assign(row_words(), 0);
  operands_.assign(static_cast<std::size_t>(taps_phys), 0);
  mux_.assign(static_cast<std::size_t>(taps_phys), 0);
}

std::int64_t SystolicChain::latch_weights(std::int64_t taps_used,
                                          std::int64_t word) {
  CHAINNN_CHECK(taps_used >= 1 && taps_used <= taps_);
  CHAINNN_CHECK(word >= 0 && word < kmem_words_);
  const auto used = static_cast<std::ptrdiff_t>(index(0, taps_used));
  const auto block = kmemory_.begin() +
                     static_cast<std::ptrdiff_t>(
                         static_cast<std::size_t>(word) * row_words());
  std::copy(block, block + used, weights_.begin());
  // Masked tail taps contribute nothing.
  std::fill(weights_.begin() + used, weights_.end(), std::int16_t{0});
  return taps_used * primitives_;
}

void SystolicChain::begin_pass(const StripPattern& pattern,
                               std::int64_t active) {
  CHAINNN_CHECK(active >= 0 && active <= primitives_);
  CHAINNN_CHECK(pattern.taps() <= taps_);
  lanes_ = std::min(stride_, (active + kLanes - 1) / kLanes * kLanes);
  for (std::int64_t p = 0; p < taps_; ++p)
    std::fill(weights_.begin() + static_cast<std::ptrdiff_t>(index(active, p)),
              weights_.begin() + static_cast<std::ptrdiff_t>(index(0, p + 1)),
              std::int16_t{0});
  ch0_.reset();
  ch1_.reset();
  std::fill(psums_.begin(), psums_.end(), 0);
  // mux_select(p, slot) has period 2*K_r in the slot (single-channel
  // patterns always select channel 0).
  mux_period_ = pattern.dual_channel() ? 2 * pattern.k_rows() : 1;
  mux_.resize(static_cast<std::size_t>(mux_period_ * taps_));
  for (std::int64_t phase = 0; phase < mux_period_; ++phase)
    for (std::int64_t p = 0; p < taps_; ++p)
      mux_[static_cast<std::size_t>(phase * taps_ + p)] =
          static_cast<std::uint8_t>(pattern.mux_select(p, phase));
}

void SystolicChain::step(std::int64_t slot, std::int16_t in0,
                         std::int16_t in1) {
  ch0_.push(in0);
  ch1_.push(in1);

  // Operand gather, once per cycle for all primitives: PE p reads the
  // selected channel at register depth 2p. Both rings advance together,
  // so one index serves both.
  const std::uint8_t* sel =
      mux_.data() + static_cast<std::size_t>((slot % mux_period_) * taps_);
  const std::int16_t* buf0 = ch0_.buf_.data();
  const std::int16_t* buf1 = ch1_.buf_.data();
  for (std::int64_t p = 0; p < taps_; ++p) {
    const std::size_t at =
        (ch0_.head_ - 2 * static_cast<std::size_t>(p)) & ch0_.mask_;
    operands_[static_cast<std::size_t>(p)] = sel[p] ? buf1[at] : buf0[at];
  }

  // Multiply-add shift, PE positions last to first so each row reads its
  // upstream row before that row is overwritten. The products are the
  // 16x16 multiplier's (fixed::Fixed16::multiply on the raw words).
  const std::int64_t n = lanes_;
  const std::int16_t* x = operands_.data();
  for (std::int64_t p = taps_ - 1; p >= 1; --p) {
    std::int64_t* __restrict dst = psums_.data() + index(0, p);
    const std::int64_t* __restrict up = dst - stride_;
    const std::int16_t* w = weights_.data() + index(0, p);
    const std::int32_t xp = x[p];
    for (std::int64_t q = 0; q < n; ++q)
      dst[q] = up[q] + static_cast<std::int32_t>(w[q]) * xp;
  }
  const std::int32_t x0 = x[0];
  for (std::int64_t q = 0; q < n; ++q)
    psums_[static_cast<std::size_t>(q)] =
        static_cast<std::int32_t>(weights_[static_cast<std::size_t>(q)]) * x0;
}

}  // namespace chainnn::chain
