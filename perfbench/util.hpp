// Shared pieces of the benchmark: metric lists, order statistics,
// process resource readings, the paper's networks with their pools, and
// the benchmark's own reference arithmetic (shapes, MAC counts, direct
// convolution) that the library's outputs are checked against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chain/network_runner.hpp"
#include "common/rng.hpp"
#include "nn/models.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// --- order statistics ------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
// Value at fraction q of the sorted samples (nearest rank, q in [0, 1]).
[[nodiscard]] double percentile(std::vector<double> v, double q);
// The tail latency: the 90th percentile (nearest rank), lowered where
// needed so that at least ten samples lie beyond it, i.e. the
// min(ceil(0.9 n), n - 10)-th smallest of n samples; the largest when
// n <= 10. Below 100 samples this is the (n-10)-th smallest. Higher
// ranks of a few-ms gateway run (p99.4 at 1800 samples) read the host's
// rare stalls: over ten runs the (n-10)-th smallest spread 27% while
// the median spread 11%.
[[nodiscard]] double tail_latency(std::vector<double> v);

// Records a correctness failure (the first few; later ones add nothing).
void add_error(std::vector<std::string>& errors, std::string msg);

// `s` as a quoted JSON string (control characters become spaces).
[[nodiscard]] std::string json_string(const std::string& s);

// --- process readings ------------------------------------------------------

[[nodiscard]] double process_cpu_seconds();  // user + sys, all threads
[[nodiscard]] double peak_rss_mb();

// --- seeds -----------------------------------------------------------------

// An RNG stream derived from the run's seed and a per-purpose salt, so
// the same seed always yields the same inputs and weights.
[[nodiscard]] chainnn::Rng seeded_rng(std::uint64_t seed, std::uint64_t salt);
[[nodiscard]] chainnn::Tensor<std::int16_t> random_tensor(
    chainnn::Shape shape, std::uint64_t seed, std::uint64_t salt,
    std::int64_t lo, std::int64_t hi);

// --- the evaluated networks ------------------------------------------------

// A zoo network with the host-side ops the paper's evaluation places
// between its conv layers (pools shrink the next layer's input).
struct PooledNetwork {
  chainnn::nn::NetworkModel model;
  std::vector<chainnn::chain::InterLayerOp> ops;
  std::int64_t in_height = 0;
  std::int64_t in_width = 0;
  std::int64_t nominal_macs = 0;  // the paper's MACs per image
};

// AlexNet with 3x3/s2 max pools after conv1, conv2 and conv5.
[[nodiscard]] PooledNetwork paper_alexnet();
// MatConvNet LeNet: 2x2/s2 max pools after conv1 and conv2, ReLU after conv3.
[[nodiscard]] PooledNetwork paper_lenet();
// CIFAR-10 quick: ReLU and a 3x3/s2 (pad 1) max pool after conv1 and conv2.
[[nodiscard]] PooledNetwork paper_cifar10();

// The layer shapes `net` executes for a batch-1 input, worked out by the
// benchmark's own conv and pool arithmetic (not the library's).
[[nodiscard]] std::vector<chainnn::nn::ConvLayerParams> expected_layers(
    const PooledNetwork& net);
[[nodiscard]] std::int64_t conv_macs(const chainnn::nn::ConvLayerParams& p);

// Weight initializer for NetworkRunOptions / RequestOptions: a pure
// function of (seed, layer index, tensor shape).
[[nodiscard]] std::function<void(std::int64_t, chainnn::Tensor<std::int16_t>&)>
seeded_weights(std::uint64_t seed);

// --- reference arithmetic --------------------------------------------------

// max(0, x) and max pooling (padding never wins), written apart from
// nn::relu_inplace / nn::max_pool.
[[nodiscard]] chainnn::Tensor<std::int16_t> reference_inter_layer(
    const chainnn::Tensor<std::int16_t>& ofmaps,
    const chainnn::chain::InterLayerOp& op);

// Checks a finished run against the benchmark's own arithmetic: every
// executed layer has the expected shape, and the accumulators at
// `samples` seeded output positions of every layer equal direct
// int16 x int16 dot products over the operands the benchmark supplied
// (its input, its weights, and its own ReLU/pool of the previous
// layer's ofmaps). Appends a message to `errors` per mismatch.
void check_run_against_reference(const PooledNetwork& net,
                                 const chainnn::Tensor<std::int16_t>& input,
                                 std::uint64_t weight_seed,
                                 const chainnn::chain::NetworkRunResult& run,
                                 std::uint64_t sample_seed, int samples,
                                 std::vector<std::string>& errors);

// Executed MACs per image of a finished run (from its layer statistics).
[[nodiscard]] std::int64_t executed_macs_per_image(
    const chainnn::chain::NetworkRunResult& run, std::int64_t batch);

// FNV-1a over a tensor's values (equality witness between runs).
[[nodiscard]] std::uint64_t digest(const chainnn::Tensor<std::int16_t>& t);

}  // namespace perfbench
