// fidelity-small: one request in flight through a lone cycle-accurate
// InferenceServer, inputs and weights drawn from the run's seed.
#include <malloc.h>

#include <future>
#include <memory>

#include "net/gateway.hpp"
#include "serve/inference_server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace chain = chainnn::chain;
namespace serve = chainnn::serve;
using chainnn::Shape;
using chainnn::Tensor;

constexpr int kInputsPerNetwork = 2;
constexpr int kAccumulatorSamples = 32;

struct ServedNetwork {
  PooledNetwork net;
  std::uint64_t weight_seed = 0;
  std::vector<Tensor<std::int16_t>> inputs;
  serve::RequestOptions options;
};

ServedNetwork served(PooledNetwork net, std::uint64_t seed, std::uint64_t salt) {
  ServedNetwork s;
  s.weight_seed = seed ^ (salt << 20);
  const auto& first = net.model.conv_layers.front();
  for (int k = 0; k < kInputsPerNetwork; ++k)
    s.inputs.push_back(random_tensor(
        Shape{1, first.in_channels, net.in_height, net.in_width}, seed,
        salt * 16 + static_cast<std::uint64_t>(k), -64, 64));
  s.options.inter_layer = net.ops;
  s.options.weight_init = seeded_weights(s.weight_seed);
  s.net = std::move(net);
  return s;
}

}  // namespace

Outcome run_fidelity_small(const RunContext& ctx) {
  // A fixed mmap threshold (glibc's initial one), so large blocks are
  // always mapped and unmapped and the peak resident set tracks live
  // memory. With glibc's sliding threshold they stayed in the heap once
  // one had been freed, and the peak of a served AlexNet ranged 27-31 MB
  // over eight runs by allocation order; pinned, 26.25-26.36 MB, for
  // about 1300 more minor page faults per request (well under 1% of its
  // CPU time).
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  serve::ServerOptions server_options;
  server_options.num_threads = 1;
  server_options.name = "paper-chip";
  server_options.accelerator.exec_mode = chain::ExecMode::kCycleAccurate;
  server_options.fidelity_sample_every_n = 1;
  const std::vector<ServedNetwork> nets = {served(paper_lenet(), ctx.seed, 2),
                                           served(paper_cifar10(), ctx.seed, 3)};
  // Two LeNet (~0.35 s) per CIFAR-10 (~0.7 s): the median stays inside
  // the LeNet mode and, from 31 operations on, the tail (ten samples
  // beyond it) inside the CIFAR-10 mode, so neither sits on a boundary.
  const std::size_t round[] = {0, 0, 1};  // network index of each operation

  Outcome out;
  for (const ServedNetwork& s : nets) {
    std::int64_t macs = 0;
    for (const auto& layer : expected_layers(s.net)) macs += conv_macs(layer);
    if (macs != s.net.nominal_macs)
      add_error(out.errors, s.net.model.name + ": shape arithmetic gives " +
                                std::to_string(macs) + " MACs, paper " +
                                std::to_string(s.net.nominal_macs));
  }

  // Set-up: a cold server (own plan cache and arena), then one request
  // per network fills the plan cache and warms the allocator.
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<std::int64_t> ref_cycles(nets.size(), 0);
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    server.reset();  // one server (and arena) alive at a time
    const auto t0 = Clock::now();
    server = std::make_unique<serve::InferenceServer>(server_options);
    for (std::size_t n = 0; n < nets.size(); ++n) {
      const ServedNetwork& s = nets[n];
      const serve::InferenceResult r =
          server->submit(s.net.model, s.inputs.front(), s.options).get();
      ref_cycles[n] = chainnn::net::run_cycles(r.run);
    }
    out.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  struct Kept {
    bool have = false;
    std::uint64_t digest = 0;
    serve::InferenceResult result;
  };
  std::vector<std::vector<Kept>> kept(nets.size(),
                                      std::vector<Kept>(kInputsPerNetwork));
  std::vector<std::size_t> next_input(nets.size(), 0);

  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, ctx.seconds);
  std::uint64_t op = 0;
  do {
    for (const std::size_t n : round) {
      const ServedNetwork& s = nets[n];
      const std::size_t k = next_input[n]++ % s.inputs.size();
      ++op;
      Span span("request", op, s.net.model.name);
      const auto t0 = Clock::now();
      std::future<serve::InferenceResult> fut;
      {
        Span submit("serve.InferenceServer::submit", op);
        fut = server->submit(s.net.model, s.inputs[k], s.options);
      }
      serve::InferenceResult r;
      {
        Span wait("serve.future::get", op);
        r = fut.get();
      }
      out.latencies_ms.push_back(ms_between(t0, Clock::now()));
      span.stop();

      const std::string who = s.net.model.name + " request " + std::to_string(op);
      if (r.status != serve::RequestStatus::kOk) {
        add_error(out.errors, who + ": not completed");
        continue;
      }
      if (executed_macs_per_image(r.run, 1) != s.net.nominal_macs)
        add_error(out.errors, who + ": executed " +
                                  std::to_string(executed_macs_per_image(r.run, 1)) +
                                  " MACs per image");
      if (chainnn::net::run_cycles(r.run) != ref_cycles[n])
        add_error(out.errors, who + ": cycles differ from the warm-up run");
      if (!r.fidelity.sampled || r.fidelity.diverged)
        add_error(out.errors, who + ": fidelity cross-check " +
                                  (r.fidelity.sampled ? "diverged: " + r.fidelity.detail
                                                      : std::string("not sampled")));
      Kept& slot = kept[n][k];
      const std::uint64_t d = digest(r.run.final_activations);
      if (!slot.have) {
        slot.have = true;
        slot.digest = d;
        slot.result = std::move(r);
      } else if (d != slot.digest) {
        add_error(out.errors, who + ": output differs from the same input's first run");
      }
    }
  } while (Clock::now() < deadline);
  out.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  out.cpu_s = process_cpu_seconds() - cpu0;
  out.peak_rss_mb = peak_rss_mb();
  out.attempted = static_cast<std::int64_t>(out.latencies_ms.size());
  out.units = static_cast<double>(out.attempted);

  for (std::size_t n = 0; n < nets.size(); ++n)
    for (std::size_t k = 0; k < kept[n].size(); ++k)
      if (kept[n][k].have)
        check_run_against_reference(nets[n].net, nets[n].inputs[k],
                                    nets[n].weight_seed,
                                    kept[n][k].result.run, ctx.seed + k,
                                    kAccumulatorSamples, out.errors);
  const serve::ServerStats stats = server->stats();
  if (stats.fidelity_divergences != 0)
    add_error(out.errors, std::to_string(stats.fidelity_divergences) +
                              " fidelity divergence(s)");
  return out;
}

}  // namespace perfbench
