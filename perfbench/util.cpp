#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

using chainnn::Rng;
using chainnn::Shape;
using chainnn::Tensor;
namespace chain = chainnn::chain;
namespace nn = chainnn::nn;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[i - 1];
}

double tail_latency(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return v.back();
  const auto p90 = static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(n)));
  return v[std::min(p90, n - 10) - 1];
}

void add_error(std::vector<std::string>& errors, std::string msg) {
  constexpr std::size_t kMaxErrors = 20;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(msg));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Rng seeded_rng(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9E3779B97F4A7C15ull ^ (salt + 0x632BE59BD9B4E019ull));
}

Tensor<std::int16_t> random_tensor(Shape shape, std::uint64_t seed,
                                   std::uint64_t salt, std::int64_t lo,
                                   std::int64_t hi) {
  Tensor<std::int16_t> t(std::move(shape));
  Rng rng = seeded_rng(seed, salt);
  for (std::int16_t& v : t.mutable_data())
    v = static_cast<std::int16_t>(rng.uniform_int(lo, hi));
  return t;
}

namespace {

chain::InterLayerOp op(bool relu, std::int64_t pool_window,
                       std::int64_t pool_stride, std::int64_t pool_pad) {
  chain::InterLayerOp o;
  o.relu = relu;
  o.pool = pool_window > 0;
  if (o.pool) o.pool_params = nn::PoolParams{pool_window, pool_stride, pool_pad};
  return o;
}

std::int64_t pooled_size(std::int64_t in, const nn::PoolParams& p) {
  return (in + 2 * p.pad - p.window) / p.stride + 1;
}

}  // namespace

PooledNetwork paper_alexnet() {
  PooledNetwork n;
  n.model = nn::alexnet();
  n.ops = {op(true, 3, 2, 0), op(true, 3, 2, 0), op(true, 0, 0, 0),
           op(true, 0, 0, 0), op(true, 3, 2, 0)};
  n.in_height = n.in_width = 227;
  n.nominal_macs = 665'784'864;
  return n;
}

PooledNetwork paper_lenet() {
  PooledNetwork n;
  n.model = nn::lenet_mnist();
  n.ops = {op(false, 2, 2, 0), op(false, 2, 2, 0), op(true, 0, 0, 0),
           op(false, 0, 0, 0)};
  n.in_height = n.in_width = 28;
  n.nominal_macs = 2'293'000;
  return n;
}

PooledNetwork paper_cifar10() {
  PooledNetwork n;
  n.model = nn::cifar10_quick();
  n.ops = {op(true, 3, 2, 1), op(true, 3, 2, 1), op(true, 0, 0, 0)};
  n.in_height = n.in_width = 32;
  n.nominal_macs = 12'288'000;
  return n;
}

std::int64_t conv_macs(const nn::ConvLayerParams& p) {
  const std::int64_t oh = (p.in_height + 2 * p.pad_rows() - p.kernel) / p.stride + 1;
  const std::int64_t ow = (p.in_width + 2 * p.pad_cols() - p.kernel) / p.stride + 1;
  return oh * ow * p.out_channels * p.kernel * p.kernel *
         (p.in_channels / p.groups);
}

std::vector<nn::ConvLayerParams> expected_layers(const PooledNetwork& net) {
  std::vector<nn::ConvLayerParams> out;
  std::int64_t h = net.in_height, w = net.in_width;
  for (std::size_t i = 0; i < net.model.conv_layers.size(); ++i) {
    nn::ConvLayerParams p = net.model.conv_layers[i];
    p.batch = 1;
    p.in_height = h;
    p.in_width = w;
    out.push_back(p);
    h = (h + 2 * p.pad_rows() - p.kernel) / p.stride + 1;
    w = (w + 2 * p.pad_cols() - p.kernel) / p.stride + 1;
    if (i < net.ops.size() && net.ops[i].pool) {
      h = pooled_size(h, net.ops[i].pool_params);
      w = pooled_size(w, net.ops[i].pool_params);
    }
  }
  return out;
}

std::function<void(std::int64_t, Tensor<std::int16_t>&)> seeded_weights(
    std::uint64_t seed) {
  return [seed](std::int64_t layer, Tensor<std::int16_t>& t) {
    Rng rng = seeded_rng(seed, 0x57E1'0000ull + static_cast<std::uint64_t>(layer));
    for (std::int16_t& v : t.mutable_data())
      v = static_cast<std::int16_t>(rng.uniform_int(-16, 16));
  };
}

Tensor<std::int16_t> reference_inter_layer(const Tensor<std::int16_t>& ofmaps,
                                           const chain::InterLayerOp& o) {
  const Shape& s = ofmaps.shape();
  const std::int64_t n = s.dim(0), c = s.dim(1), h = s.dim(2), w = s.dim(3);
  const auto value = [&](std::int64_t b, std::int64_t ch, std::int64_t y,
                         std::int64_t x) -> std::int16_t {
    const std::int16_t v = ofmaps.at(b, ch, y, x);
    return o.relu && v < 0 ? std::int16_t{0} : v;
  };
  if (!o.pool) {
    Tensor<std::int16_t> out(s);
    for (std::int64_t b = 0; b < n; ++b)
      for (std::int64_t ch = 0; ch < c; ++ch)
        for (std::int64_t y = 0; y < h; ++y)
          for (std::int64_t x = 0; x < w; ++x)
            out.at(b, ch, y, x) = value(b, ch, y, x);
    return out;
  }
  const nn::PoolParams& p = o.pool_params;
  const std::int64_t oh = pooled_size(h, p), ow = pooled_size(w, p);
  Tensor<std::int16_t> out(Shape{n, c, oh, ow});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          int best = std::numeric_limits<int>::min();
          for (std::int64_t ky = 0; ky < p.window; ++ky)
            for (std::int64_t kx = 0; kx < p.window; ++kx) {
              const std::int64_t y = oy * p.stride - p.pad + ky;
              const std::int64_t x = ox * p.stride - p.pad + kx;
              if (y < 0 || y >= h || x < 0 || x >= w) continue;
              best = std::max<int>(best, value(b, ch, y, x));
            }
          out.at(b, ch, oy, ox) = static_cast<std::int16_t>(best);
        }
  return out;
}

namespace {

std::int64_t direct_dot(const nn::ConvLayerParams& p,
                        const Tensor<std::int16_t>& in,
                        const Tensor<std::int16_t>& k, std::int64_t b,
                        std::int64_t m, std::int64_t oy, std::int64_t ox) {
  const std::int64_t cpg = p.in_channels / p.groups;
  const std::int64_t group = m / (p.out_channels / p.groups);
  std::int64_t acc = 0;
  for (std::int64_t c = 0; c < cpg; ++c)
    for (std::int64_t ky = 0; ky < p.kernel; ++ky)
      for (std::int64_t kx = 0; kx < p.kernel; ++kx) {
        const std::int64_t y = oy * p.stride - p.pad_rows() + ky;
        const std::int64_t x = ox * p.stride - p.pad_cols() + kx;
        if (y < 0 || y >= p.in_height || x < 0 || x >= p.in_width) continue;
        acc += static_cast<std::int64_t>(in.at(b, group * cpg + c, y, x)) *
               static_cast<std::int64_t>(k.at(m, c, ky, kx));
      }
  return acc;
}

}  // namespace

void check_run_against_reference(const PooledNetwork& net,
                                 const Tensor<std::int16_t>& input,
                                 std::uint64_t weight_seed,
                                 const chain::NetworkRunResult& run,
                                 std::uint64_t sample_seed, int samples,
                                 std::vector<std::string>& errors) {
  const std::vector<nn::ConvLayerParams> want = expected_layers(net);
  if (run.layers.size() != want.size()) {
    errors.push_back(net.model.name + ": ran " +
                     std::to_string(run.layers.size()) + " layers, expected " +
                     std::to_string(want.size()));
    return;
  }
  const auto init = seeded_weights(weight_seed);
  Tensor<std::int16_t> act = input;
  Rng pick = seeded_rng(sample_seed, 0x5A3B1E5ull);
  for (std::size_t i = 0; i < want.size(); ++i) {
    nn::ConvLayerParams p = want[i];
    p.batch = act.shape().dim(0);
    const nn::ConvLayerParams& got = run.layers[i].layer;
    if (got.in_height != p.in_height || got.in_width != p.in_width ||
        got.in_channels != p.in_channels || got.out_channels != p.out_channels ||
        act.shape().dim(2) != p.in_height || act.shape().dim(3) != p.in_width) {
      errors.push_back(net.model.name + "/" + p.name + ": executed " +
                       got.to_string() + ", expected " + p.to_string());
      return;
    }
    Tensor<std::int16_t> kernels(
        Shape{p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel});
    init(static_cast<std::int64_t>(i), kernels);
    const Tensor<std::int64_t>& acc = run.layers[i].run.accumulators;
    const std::int64_t oh = (p.in_height + 2 * p.pad_rows() - p.kernel) / p.stride + 1;
    const std::int64_t ow = (p.in_width + 2 * p.pad_cols() - p.kernel) / p.stride + 1;
    for (int s = 0; s < samples; ++s) {
      const std::int64_t b = pick.uniform_int(0, p.batch - 1);
      const std::int64_t m = pick.uniform_int(0, p.out_channels - 1);
      const std::int64_t oy = pick.uniform_int(0, oh - 1);
      const std::int64_t ox = pick.uniform_int(0, ow - 1);
      const std::int64_t expect = direct_dot(p, act, kernels, b, m, oy, ox);
      if (acc.at(b, m, oy, ox) != expect) {
        std::ostringstream msg;
        msg << net.model.name << "/" << p.name << ": accumulator at (" << b
            << "," << m << "," << oy << "," << ox << ") is "
            << acc.at(b, m, oy, ox) << ", direct dot product " << expect;
        errors.push_back(msg.str());
        return;
      }
    }
    act = reference_inter_layer(run.layers[i].run.ofmaps,
                                i < net.ops.size() ? net.ops[i]
                                                   : chain::InterLayerOp{});
  }
  if (act.data().size() != run.final_activations.data().size() ||
      !std::equal(act.data().begin(), act.data().end(),
                  run.final_activations.data().begin()))
    errors.push_back(net.model.name +
                     ": final activations differ from the reference ReLU/pool");
}

std::int64_t executed_macs_per_image(const chain::NetworkRunResult& run,
                                     std::int64_t batch) {
  std::int64_t macs = 0;
  for (const auto& l : run.layers) macs += l.run.stats.macs_performed;
  return macs / batch;
}

std::uint64_t digest(const Tensor<std::int16_t>& t) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::int16_t v : t.data()) {
    h ^= static_cast<std::uint16_t>(v);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
