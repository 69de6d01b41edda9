// Register-level model of the 1D chain (§IV.A-C).
//
// Microarchitecture modelled per PE (Fig. 6):
//   * two ifmap forwarding channels (OddIF / EvenIF), two registers per
//     PE per channel — the retimed ("vertical cuts", §IV.B) pipeline
//     needs the data path two-slow relative to the psum path;
//   * a multiplexer selecting which channel feeds the MAC each cycle
//     (period-2*K_r schedule, see StripPattern::mux_select);
//   * a kMemory register-file slice holding the PE's stationary weights
//     (one word per resident kernel x channel x phase), plus the active
//     weight register feeding the multiplier;
//   * a 16x16 multiplier and 48-bit psum adder, one psum register per PE.
//
// Simulation note: primitive q's computation is identical to primitive
// 0's delayed by 2*q*T cycles (its channel taps sit 2*q*T registers
// deeper). The simulator evaluates all primitives phase-aligned — the
// outputs are the same values and the constant chain delay is charged
// analytically (ExecutionPlan::drain_cycles) — so every primitive sees
// the same operand at PE position p in a given cycle. Each cycle
// therefore gathers the T operands once (mux select + channel tap at
// depth 2p, the mux schedule precomputed per pass over its period) and
// broadcasts them to every primitive. Weights and psums are stored
// PE-major (one contiguous row of primitives per PE position), so one
// cycle is a multiply-add shift over those rows: O(active PEs) work with
// a short tap history instead of a 2*576-deep one.
#pragma once

#include <cstdint>
#include <vector>

#include "chain/scan_pattern.hpp"
#include "common/check.hpp"

namespace chainnn::chain {

// History of values entering one ifmap channel, supporting taps at fixed
// register depths (age 2p for PE position p).
class ChannelRing {
 public:
  explicit ChannelRing(std::int64_t max_age);

  // Pushes the value entering the channel this cycle.
  void push(std::int16_t v) {
    head_ = (head_ + 1) & mask_;
    buf_[head_] = v;
  }

  // Value that entered `age` cycles ago (age 0 = this cycle's input);
  // registers not yet reached by the stream still read their reset 0.
  [[nodiscard]] std::int16_t tap(std::int64_t age) const {
    CHAINNN_CHECK_MSG(age >= 0 && age <= max_age_,
                      "tap age " << age << " of ring " << max_age_ + 1);
    return buf_[(head_ - static_cast<std::size_t>(age)) & mask_];
  }

  void reset();

 private:
  friend class SystolicChain;  // unchecked taps on the per-cycle path

  // Power-of-two ring, zero-filled on reset: entries older than the
  // first push are still 0, so no push counter is needed.
  std::vector<std::int16_t> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  // index of the most recent entry
  std::int64_t max_age_ = 0;
};

// The full chain: two shared ifmap channels feeding P primitives of
// `taps_phys` adjacent PEs each, evaluated phase-aligned (see header
// comment). A primitive computes one 2D convolution as a 1D systolic
// pipeline (§IV.B); sub-kernels with fewer taps than taps_phys use a
// prefix of its PEs and the rest carry zero weights.
class SystolicChain {
 public:
  SystolicChain(std::int64_t primitives, std::int64_t taps_phys,
                std::int64_t kmem_words_per_pe);

  [[nodiscard]] std::int64_t num_primitives() const { return primitives_; }
  [[nodiscard]] std::int64_t taps_phys() const { return taps_; }

  // Writes `w` into kMemory word `word` of PE p of primitive q (kernel
  // loading).
  void load_kmemory(std::int64_t q, std::int64_t p, std::int64_t word,
                    std::int16_t w) {
    CHAINNN_CHECK(q >= 0 && q < primitives_ && p >= 0 && p < taps_);
    CHAINNN_CHECK_MSG(word >= 0 && word < kmem_words_,
                      "kMemory word " << word << " of " << kmem_words_);
    kmemory_[static_cast<std::size_t>(word) * row_words() + index(q, p)] = w;
  }

  // Latches weights for a pass in every primitive: PE p (p < taps_used)
  // reads its kMemory word `word`; the remaining PEs get weight 0.
  // Returns the number of kMemory reads performed.
  std::int64_t latch_weights(std::int64_t taps_used, std::int64_t word);

  // Active weight register of PE p of primitive q.
  [[nodiscard]] std::int16_t weight(std::int64_t q, std::int64_t p) const {
    return weights_[index(q, p)];
  }

  // Starts a pass over `pattern`, after latch_weights: clears channel
  // history and psums and precomputes the pattern's mux schedule. Only
  // the first `active` primitives (those holding a resident kernel) are
  // evaluated by step(); the rest get weight 0 and keep psum 0.
  void begin_pass(const StripPattern& pattern, std::int64_t active);

  // Advances one cycle: pushes the two channel inputs, gathers each PE
  // position's operand once and shifts every active primitive's psums
  //   psum[p] <- (p == 0 ? 0 : psum[p-1]) + weight[p] * x[p].
  // `slot` is the pass-local stream slot.
  void step(std::int64_t slot, std::int16_t in0, std::int16_t in1);

  // Psum leaving the last PE of primitive q (after step(slot) it holds
  // window t = slot - (taps_phys - 1); the caller decodes validity via
  // StripPattern::completion_at).
  [[nodiscard]] std::int64_t output(std::int64_t q) const {
    return outputs()[q];
  }
  // The last PE's psum of every primitive, contiguous in q.
  [[nodiscard]] const std::int64_t* outputs() const {
    return psums_.data() + (taps_ - 1) * stride_;
  }

 private:
  // Rows are padded to whole vector lanes, so the per-row multiply-add
  // loop never needs a scalar tail; padding lanes hold weight 0.
  static constexpr std::int64_t kLanes = 8;

  [[nodiscard]] std::size_t index(std::int64_t q, std::int64_t p) const {
    return static_cast<std::size_t>(p * stride_ + q);
  }
  [[nodiscard]] std::size_t row_words() const {
    return static_cast<std::size_t>(taps_ * stride_);
  }

  std::int64_t primitives_;
  std::int64_t taps_;
  std::int64_t kmem_words_;
  std::int64_t stride_;  // primitives_ rounded up to kLanes
  std::int64_t lanes_;   // lanes step() evaluates: active rounded up
  // PE-major flat storage: entry p * stride_ + q belongs to PE p of
  // primitive q. kMemory holds one such block per word, so latching a
  // word is one contiguous copy.
  std::vector<std::int16_t> kmemory_;
  std::vector<std::int16_t> weights_;
  std::vector<std::int64_t> psums_;
  // This pass's mux schedule, one row of taps_ selects per slot mod
  // mux_period_, and the per-cycle operand of each PE position.
  std::vector<std::uint8_t> mux_;
  std::int64_t mux_period_ = 1;
  std::vector<std::int16_t> operands_;
  ChannelRing ch0_;
  ChannelRing ch1_;
};

}  // namespace chainnn::chain
