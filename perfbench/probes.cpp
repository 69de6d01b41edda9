// Per-layer probes of the traced run: isolated calls into one layer's
// public functions, each timed in a span, plus the simulated counts
// (modelled-hardware figures that a host-only speed-up must leave
// identical).
#include <algorithm>
#include <memory>

#include "chain/accelerator.hpp"
#include "chain/network_runner.hpp"
#include "nn/conv_kernel.hpp"
#include "nn/golden.hpp"
#include "net/gateway.hpp"
#include "nn/layers.hpp"
#include "serve/inference_server.hpp"
#include "serve/router.hpp"
#include "serve/sweep_driver.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace chain = chainnn::chain;
namespace nn = chainnn::nn;
namespace serve = chainnn::serve;
using chainnn::Shape;
using chainnn::Tensor;

const chainnn::energy::EnergyModel& energy_model() {
  static const chainnn::energy::EnergyModel model =
      chainnn::energy::EnergyModel::paper_calibrated();
  return model;
}

chain::NetworkRunOptions run_options(const PooledNetwork& net,
                                     std::uint64_t weight_seed) {
  chain::NetworkRunOptions o;
  o.verify_against_golden = false;
  o.inter_layer = net.ops;
  o.weight_init = seeded_weights(weight_seed);
  return o;
}

Tensor<std::int16_t> network_input(const PooledNetwork& net, std::uint64_t seed) {
  return random_tensor(Shape{1, net.model.conv_layers.front().in_channels,
                             net.in_height, net.in_width},
                       seed, 0x1A9E, -64, 64);
}

Tensor<std::int16_t> layer_kernels(const nn::ConvLayerParams& p,
                                   std::uint64_t seed) {
  return random_tensor(
      Shape{p.out_channels, p.in_channels / p.groups, p.kernel, p.kernel}, seed,
      0x4E47, -16, 16);
}

// Modelled-hardware figures of one image (batch 1) of a finished run.
void simulated_counts(const std::string& net, const chain::NetworkRunResult& run,
                      Metrics& out) {
  double dram = 0.0;
  for (const auto& l : run.layers) dram += static_cast<double>(l.run.traffic.dram_bytes);
  out.push_back({"nn.macs_per_image." + net,
                 static_cast<double>(executed_macs_per_image(run, 1)), "count"});
  out.push_back({"chain.cycles_per_image." + net, static_cast<double>(chainnn::net::run_cycles(run)), "count"});
  out.push_back({"mem.dram_bytes_per_image." + net, dram, "B"});
  out.push_back({"energy.uj_per_image." + net, run.total_energy_j() * 1e6, "uJ"});
}

// Kernel time and ChainAccelerator::run_layer self time (the call minus
// the kernel it wraps: plan lookup, traffic/energy accounting,
// narrowing), interleaved call by call so drift hits both alike. Single
// kernel calls vary by up to 2x on a shared host, so the self time is
// the difference of the two minima, the least disturbed readings.
struct LayerTimes {
  double kernel_ms = 0.0;
  double scalar_ms = 0.0;
  double self_ms = 0.0;
};

LayerTimes time_layer(chain::ChainAccelerator& acc, const nn::ConvLayerParams& p,
                      const Tensor<std::int16_t>& in,
                      const Tensor<std::int16_t>& kernels, int reps,
                      const std::string& label, bool with_scalar) {
  (void)acc.run_layer(p, in, kernels);  // plans the layer
  std::vector<double> kernel, scalar, layer;
  for (int r = 0; r < reps; ++r) {
    Tensor<std::int64_t> acc_out;
    const double k = timed("nn.conv2d_fixed_accum_dispatch", [&] {
      acc_out = nn::conv2d_fixed_accum_dispatch(p, in, kernels);
    }, label);
    chain::LayerRunResult res;
    const double l = timed("chain.ChainAccelerator::run_layer", [&] {
      res = acc.run_layer(p, in, kernels);
    }, label);
    kernel.push_back(k);
    layer.push_back(l);
    if (with_scalar)
      scalar.push_back(timed("nn.conv2d_fixed_accum", [&] {
        acc_out = nn::conv2d_fixed_accum(p, in, kernels);
      }, label));
  }
  return {median(kernel), median(scalar),
          *std::min_element(layer.begin(), layer.end()) -
              *std::min_element(kernel.begin(), kernel.end())};
}

}  // namespace

void probe_alexnet_layers(const RunContext& ctx, Metrics& out,
                          std::vector<std::string>& errors) {
  Span span("probe.alexnet");
  const PooledNetwork net = paper_alexnet();
  const std::vector<nn::ConvLayerParams> layers = expected_layers(net);
  chain::ChainAccelerator acc(serve::analytical_accelerator_config());

  Tensor<std::int16_t> act = network_input(net, ctx.seed);
  std::vector<double> host_ops;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::ConvLayerParams& p = layers[i];
    const Tensor<std::int16_t> kernels = layer_kernels(p, ctx.seed + i);
    const LayerTimes t = time_layer(acc, p, act, kernels, 3, p.name, false);
    out.push_back({"nn.kernel_ms." + p.name, t.kernel_ms, "ms"});
    out.push_back({"nn.kernel_gmacs." + p.name,
                   static_cast<double>(p.macs_per_image()) / (t.kernel_ms * 1e6),
                   "GMAC/s"});
    out.push_back({"chain.layer_self_ms." + p.name, t.self_ms, "ms"});

    const Tensor<std::int16_t> ofmaps = acc.run_layer(p, act, kernels).ofmaps;
    std::vector<double> reps;
    Tensor<std::int16_t> next;
    for (int r = 0; r < 5; ++r)
      reps.push_back(timed("nn.relu_inplace+max_pool", [&] {
        next = ofmaps;
        nn::relu_inplace(next);
        if (net.ops[i].pool) next = nn::max_pool(next, net.ops[i].pool_params);
      }, p.name));
    host_ops.push_back(median(reps));
    act = std::move(next);
  }
  double host_total = 0.0;
  for (const double h : host_ops) host_total += h;
  out.push_back({"nn.host_ops_ms", host_total, "ms"});

  // InferenceServer::submit().get() against NetworkRunner::run on the
  // same input, plan cache and arena: what the serving layer adds.
  serve::ServerOptions so;
  so.num_threads = 1;
  serve::InferenceServer server(so);
  serve::RequestOptions ro;
  ro.inter_layer = net.ops;
  ro.weight_init = seeded_weights(ctx.seed);
  const Tensor<std::int16_t> input = network_input(net, ctx.seed);
  chain::NetworkRunOptions no = run_options(net, ctx.seed);
  no.plan_cache = server.plan_cache();
  no.arena = server.arena();
  chain::ChainAccelerator runner_acc(so.accelerator);
  chain::NetworkRunner runner(runner_acc, energy_model());
  serve::InferenceResult served = server.submit(net.model, input, ro).get();
  std::vector<double> request, run;
  for (int r = 0; r < 3; ++r) {
    request.push_back(timed("serve.InferenceServer::submit+get", [&] {
      served = server.submit(net.model, input, ro).get();
    }));
    run.push_back(timed("chain.NetworkRunner::run", [&] {
      (void)runner.run(net.model, input, no);
    }));
  }
  out.push_back({"serve.request_self_ms",
                 *std::min_element(request.begin(), request.end()) -
                     *std::min_element(run.begin(), run.end()),
                 "ms"});

  simulated_counts("alexnet", served.run, out);
  out.push_back({"chain.fps_batch128.alexnet", served.run.fps(128), "1/s"});
  out.push_back({"energy.gops_per_w.alexnet",
                 2.0 * static_cast<double>(executed_macs_per_image(served.run, 1)) /
                     served.run.total_energy_j() / 1e9,
                 "GOPS/W"});
  if (executed_macs_per_image(served.run, 1) != net.nominal_macs)
    add_error(errors, "alexnet probe: executed MACs differ from the paper's");
  check_run_against_reference(net, input, ctx.seed, served.run, ctx.seed, 32, errors);
}

void probe_small_layers(const RunContext& ctx, Metrics& out,
                        std::vector<std::string>&) {
  Span span("probe.small_layers");
  // The shapes the gateway serves: channel-reduced (1/4), no pools.
  chain::ChainAccelerator acc(serve::analytical_accelerator_config());
  for (const std::string name : {"lenet", "cifar10"}) {
    const nn::NetworkModel full = nn::model_by_name(name);
    const nn::NetworkModel model = serve::channel_reduced_proxy(full, 4);
    const auto& first = model.conv_layers.front();
    std::int64_t served_macs = 0;
    for (const nn::ConvLayerParams& p : serve::resolve_network_layers(
             model, 1, first.in_height, first.in_width, {})) {
      const Tensor<std::int16_t> in = random_tensor(
          Shape{1, p.in_channels, p.in_height, p.in_width}, ctx.seed, 0x5A11, -64, 64);
      const LayerTimes t =
          time_layer(acc, p, in, layer_kernels(p, ctx.seed), 15, name + "." + p.name, true);
      out.push_back({"nn.kernel_ms." + name + "." + p.name, t.kernel_ms, "ms"});
      out.push_back({"nn.kernel_scalar_ms." + name + "." + p.name, t.scalar_ms, "ms"});
      out.push_back({"chain.layer_self_ms." + name + "." + p.name, t.self_ms, "ms"});
      served_macs += p.macs_per_image();
    }
    // The gateway cannot place pools, so it executes far more MACs than
    // the paper's network.
    std::int64_t unpooled = 0;
    for (const nn::ConvLayerParams& p : serve::resolve_network_layers(
             full, 1, first.in_height, first.in_width, {}))
      unpooled += p.macs_per_image();
    out.push_back({"nn.served_macs_per_image." + name,
                   static_cast<double>(served_macs), "count"});
    out.push_back({"nn.unpooled_macs_per_image." + name,
                   static_cast<double>(unpooled), "count"});
  }
}

void probe_cycle_accurate(const RunContext& ctx, Metrics& out,
                          std::vector<std::string>& errors) {
  Span span("probe.cycle_accurate");
  chain::AcceleratorConfig ca_cfg = serve::analytical_accelerator_config();
  ca_cfg.exec_mode = chain::ExecMode::kCycleAccurate;
  chain::ChainAccelerator ca(ca_cfg);
  chain::ChainAccelerator analytical(serve::analytical_accelerator_config());
  chain::NetworkRunner ca_runner(ca, energy_model());
  chain::NetworkRunner an_runner(analytical, energy_model());

  double sim_cycles = 0.0, host_ms = 0.0;
  std::vector<double> check_ms;  // weighted as the fidelity mix: 2 LeNet : 1 CIFAR
  for (const PooledNetwork& net : {paper_lenet(), paper_cifar10()}) {
    const std::string name = net.model.name;
    const std::vector<nn::ConvLayerParams> layers = expected_layers(net);
    Tensor<std::int16_t> act = network_input(net, ctx.seed);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const nn::ConvLayerParams& p = layers[i];
      chain::LayerRunResult res;
      const double ms = timed("chain.ChainAccelerator::run_layer", [&] {
        res = ca.run_layer(p, act, layer_kernels(p, ctx.seed + i));
      }, "cycle-accurate " + name + "." + p.name);
      out.push_back({"chain.ca_layer_ms." + name + "." + p.name, ms, "ms"});
      sim_cycles += static_cast<double>(res.stats.total_cycles());
      host_ms += ms;
      act = reference_inter_layer(res.ofmaps, net.ops[i]);
    }

    const Tensor<std::int16_t> input = network_input(net, ctx.seed);
    const chain::NetworkRunOptions opts = run_options(net, ctx.seed);
    chain::NetworkRunResult an;
    std::vector<double> an_ms;
    for (int r = 0; r < 5; ++r)
      an_ms.push_back(timed("chain.NetworkRunner::run", [&] {
        an = an_runner.run(net.model, input, opts);
      }, "analytical " + name));
    out.push_back({"chain.analytical_run_ms." + name, median(an_ms), "ms"});

    const chain::NetworkRunResult cyc = ca_runner.run(net.model, input, opts);
    std::vector<double> reps;
    bool identical = true;
    for (int r = 0; r < 5; ++r)
      reps.push_back(timed("serve.network_runs_identical", [&] {
        identical &= serve::network_runs_identical(cyc, an);
      }, name));
    if (!identical)
      add_error(errors, name + ": cycle-accurate and analytical runs differ");
    const double m = median(reps);
    check_ms.insert(check_ms.end(), name == "lenet" ? 2 : 1, m);
    simulated_counts(name, an, out);
  }
  out.push_back({"chain.sim_mcycles_per_s", sim_cycles / (host_ms * 1e3), "Mcycle/s"});
  out.push_back({"serve.fidelity_check_ms",
                 (check_ms[0] + check_ms[1] + check_ms[2]) / 3.0, "ms"});
}

}  // namespace perfbench
