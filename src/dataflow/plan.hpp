// Execution planning: how one convolutional layer maps onto the 1D chain.
//
// The plan captures the Fig. 7 loop nest:
//
//   for m_group (OuterTile over ofmap channels; the resident kernels —
//                one per primitive — live in kMemory)
//     for c_tile (ifmap-channel slice whose weights fit kMemory)
//       load kernels (1 word/cycle; totals once per batch, §V.B)
//       for n in batch (InnerTile)
//         for sub_conv (stride phase decomposition; 1 entry if stride==1)
//           for strip (group of up to K_r ofmap rows)
//             for c in c_tile
//               stream the strip column-major through the dual channels;
//               every resident primitive computes one kernel's windows,
//               partial sums accumulate in oMemory.
//
// Two timing views:
//   * cost() — the LayerCost of the schedule both engines execute:
//     kernel loads and the chain drain once per batch, streaming per
//     image. The analytical engine, the Router, admission control and
//     the design search all read it; tests assert the cycle-accurate
//     simulator's measured counts equal it exactly at every batch.
//   * paper_model_cycles_*() — the idealized model the paper's Fig. 9
//     numbers follow (MACs / active-PEs, x stride for strided layers,
//     x K for single-channel PEs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/array_shape.hpp"
#include "dataflow/stride_decompose.hpp"
#include "mem/hierarchy.hpp"
#include "nn/conv_params.hpp"

namespace chainnn::dataflow {

// One strip of a sub-convolution: a group of up to K_r ofmap rows
// produced by streaming (out_rows + K_r - 1) ifmap rows column-major.
struct Strip {
  std::int64_t first_out_row = 0;  // first output row of the strip
  std::int64_t out_rows = 0;       // valid output rows (<= K_r)

  friend bool operator==(const Strip&, const Strip&) = default;
};

// Plan for one sub-convolution on the chain.
struct SubConvPlan {
  SubConv sub;
  std::int64_t out_rows = 0;  // E_h of the layer (every phase covers it)
  std::int64_t out_cols = 0;  // E_w
  std::vector<Strip> strips;

  // Rows streamed for `strip`: out_rows + K_r - 1.
  [[nodiscard]] std::int64_t strip_rows(const Strip& strip) const {
    return strip.out_rows + sub.kernel_rows - 1;
  }
  // Stream slots for `strip` under the dual-channel pattern:
  // K_r*(in_cols-1) + strip_rows.
  [[nodiscard]] std::int64_t slots_for(const Strip& strip) const {
    return sub.kernel_rows * (sub.in_cols - 1) + strip_rows(strip);
  }
  [[nodiscard]] std::int64_t stream_slots_total() const;
  // Single-channel variant (Fig. 5(a)): one output row per K_r*in_cols
  // slots.
  [[nodiscard]] std::int64_t stream_slots_single_channel() const {
    return out_rows * sub.kernel_rows * sub.in_cols;
  }
};

// The cycles one layer costs on the chain for a batch: kernels load
// once per batch at 1 word/cycle (§V.B), every image streams, and the
// chain drains once (the drain overlaps later images' streams).
struct LayerCost {
  std::int64_t kernel_load_cycles = 0;
  std::int64_t stream_cycles_per_image = 0;
  std::int64_t drain_cycles = 0;

  [[nodiscard]] std::int64_t cycles(std::int64_t batch) const {
    return kernel_load_cycles + batch * stream_cycles_per_image +
           drain_cycles;
  }
  [[nodiscard]] double seconds(std::int64_t batch, double clock_hz) const {
    return static_cast<double>(cycles(batch)) / clock_hz;
  }
};

struct ExecutionPlan {
  nn::ConvLayerParams layer;
  ArrayShape array;
  mem::HierarchyConfig memory;

  std::int64_t taps = 0;        // physical PEs per primitive (max phase)
  std::int64_t primitives = 0;  // resident kernels per pass (may be
                                // capped by oMemory partial capacity)
  std::int64_t active_pes = 0;
  std::int64_t m_groups = 0;    // ofmap-channel tiles (grouped convs
                                // multiplied out)
  std::int64_t c_tile = 0;      // ifmap channels per kMemory residency
  std::int64_t c_tiles = 0;     // ceil(C/groups / c_tile)
  // Output rows whose partials co-reside in oMemory. Strided layers run
  // several phases with different K_r over the same outputs, so strips
  // are aligned into blocks of lcm(K_r) rows; the partials of a block
  // stay in oMemory until every (phase, channel) pass has accumulated.
  std::int64_t row_block = 0;
  std::vector<SubConvPlan> subconvs;

  // True when every m-group's and c-tile's kernels fit kMemory at once,
  // letting ifmap strips be fetched from DRAM once and re-streamed from
  // iMemory across m-groups (the DRAM policy of traffic.hpp).
  bool all_kernels_resident = false;

  // --- kernel loading ------------------------------------------------------
  [[nodiscard]] std::int64_t kernel_words_total() const {
    return layer.weight_count();
  }
  // Once per batch at 1 word/cycle (§V.B, Fig. 9).
  [[nodiscard]] std::int64_t kernel_load_cycles_per_batch() const {
    return kernel_words_total();
  }

  // --- streaming cycles (our schedule) --------------------------------------
  // The layer's cost on `a`. dual_channel and pipeline_stages are the
  // only array fields it reads, and both are outside PlanKey, so a plan
  // shared through serve::PlanCache must be costed with the caller's
  // array; a plan from plan_layer or PlanCache::plan_for can pass its
  // own `array`.
  [[nodiscard]] LayerCost cost(const ArrayShape& a) const;
  [[nodiscard]] std::int64_t stream_slots_per_channel_pass() const;
  [[nodiscard]] std::int64_t stream_slots_per_channel_pass_on(
      const ArrayShape& a) const;
  [[nodiscard]] std::int64_t drain_cycles() const;
  [[nodiscard]] std::int64_t drain_cycles_on(const ArrayShape& a) const;
  // Stream slots the controller spends on one image.
  [[nodiscard]] std::int64_t stream_cycles_per_image() const {
    return cost(array).stream_cycles_per_image;
  }
  // One image alone on the chain: its streaming plus a drain. The
  // per-image time base of the energy rates and utilization.
  [[nodiscard]] std::int64_t cycles_per_image() const {
    return stream_cycles_per_image() + drain_cycles();
  }

  // Strip passes the controller issues per image (one per
  // (m_group, channel, phase, strip)).
  [[nodiscard]] std::int64_t passes_per_image() const;

  // Window completions per image (one per (m, c, phase, output site)).
  [[nodiscard]] std::int64_t windows_per_image() const;

  // MAC utilization over the whole chain: MACs / (num_pes x cycles).
  [[nodiscard]] double utilization_per_image() const;

  // --- the paper's idealized timing model -----------------------------------
  [[nodiscard]] std::int64_t paper_model_cycles_per_image() const;
  [[nodiscard]] double paper_model_seconds_per_batch(
      std::int64_t batch) const;

  [[nodiscard]] std::string to_string() const;
};

// Builds the plan; throws if the layer cannot be mapped (kernel taps
// exceeding the chain, or one kernel's partials not fitting oMemory).
[[nodiscard]] ExecutionPlan plan_layer(
    const nn::ConvLayerParams& layer, const ArrayShape& array,
    const mem::HierarchyConfig& memory = {});

// Identity of a plan's *derived structure* (taps, primitives, tiling,
// strips). plan_layer's outputs depend only on these fields: layer
// geometry (batch and name excluded — they are carried verbatim but
// shape nothing), the chain length and per-PE kernel storage, and the
// oMemory capacity in words. Everything else (clock frequency, pipeline
// depth, dual_channel, iMemory/kMemory sizes) is stored in the plan but
// only consulted at query time, so plans can be shared across configs
// that differ in those fields — serve::PlanCache keys on this struct and
// re-stamps layer/array/memory verbatim on every fetch.
struct PlanKey {
  // Layer geometry (effective per-axis padding, not the raw pad fields).
  std::int64_t in_channels = 0, out_channels = 0;
  std::int64_t in_height = 0, in_width = 0;
  std::int64_t kernel = 0, stride = 0, groups = 0;
  std::int64_t pad_rows = 0, pad_cols = 0;
  // Array structure.
  std::int64_t num_pes = 0, kmem_words_per_pe = 0;
  // Memory capacity that caps resident kernels.
  std::uint64_t omemory_bytes = 0, word_bytes = 0;

  [[nodiscard]] static PlanKey from(const nn::ConvLayerParams& layer,
                                    const ArrayShape& array,
                                    const mem::HierarchyConfig& memory);
  [[nodiscard]] std::size_t hash() const;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const { return k.hash(); }
};

// Table II helper: active primitive/PE counts for a square kernel K
// (pure chain regrouping — no memory constraints).
struct UtilizationRow {
  std::int64_t kernel = 0;
  std::int64_t pes_per_primitive = 0;
  std::int64_t active_primitives = 0;
  std::int64_t active_pes = 0;
  double efficiency = 0.0;
};
[[nodiscard]] UtilizationRow utilization_row(const ArrayShape& array,
                                             std::int64_t kernel);

}  // namespace chainnn::dataflow
