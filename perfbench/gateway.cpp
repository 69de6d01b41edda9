// gateway-small: POST /v1/submit over loopback to net::Gateway in front
// of the 3-chip serve::Fleet with the journal on, driven by one
// keep-alive connection in a closed loop.
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "net/gateway.hpp"
#include "net/http.hpp"
#include "net/http_client.hpp"
#include "net/json.hpp"
#include "serve/fleet.hpp"
#include "serve/journal.hpp"
#include "serve/sweep_driver.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace chain = chainnn::chain;
namespace nn = chainnn::nn;
namespace net = chainnn::net;
namespace serve = chainnn::serve;
using chainnn::Shape;

// The gateway serves channel-reduced proxies of the named networks.
constexpr std::int64_t kModelScale = 4;

struct GatewayOp {
  const char* model;
  std::int64_t batch;
};
// One client round. LeNet batch 1 makes half of it, so the median sits
// inside that mode; the two batch-2 requests carry the known
// modelled-seconds fault, so the failed share is exactly 2/6.
constexpr GatewayOp kRound[] = {{"lenet", 1},   {"cifar10", 1}, {"lenet", 1},
                                {"lenet", 2},   {"lenet", 1},   {"cifar10", 2}};
constexpr std::size_t kRoundSize = sizeof(kRound) / sizeof(kRound[0]);
constexpr int kWarmupRounds = 5;

std::string submit_body(const GatewayOp& op) {
  return std::string("{\"model\": \"") + op.model +
         "\", \"batch\": " + std::to_string(op.batch) + "}";
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

nn::NetworkModel proxy(const std::string& name) {
  return serve::channel_reduced_proxy(nn::model_by_name(name), kModelScale);
}

struct Sample {
  std::size_t op = 0;  // index into kRound
  double client_ms = 0.0;
  bool transport_ok = false;
  int http_status = 0;
  std::string status, chip, digest;
  std::int64_t cycles = 0;
  double modelled_seconds = 0.0, queue_ms = 0.0, wall_ms = 0.0;
};

Sample parse_sample(std::size_t op, double client_ms, bool transport_ok,
                    const net::HttpResponse& resp) {
  Sample s;
  s.op = op;
  s.client_ms = client_ms;
  s.transport_ok = transport_ok;
  s.http_status = resp.status;
  if (!transport_ok || resp.status != 200) return s;
  const std::optional<net::Json> doc = net::Json::parse(resp.body);
  if (!doc || !doc->is_object()) return s;
  const auto str = [&](const char* key) {
    const net::Json* f = doc->find(key);
    return f && f->is_string() ? f->as_string() : std::string();
  };
  const auto num = [&](const char* key) {
    const net::Json* f = doc->find(key);
    return f && f->is_number() ? f->as_double() : NAN;
  };
  s.status = str("status");
  s.chip = str("chip");
  s.digest = str("digest");
  const net::Json* cycles = doc->find("cycles");
  s.cycles = cycles && cycles->is_integer() ? cycles->as_int() : -1;
  s.modelled_seconds = num("modelled_seconds");
  s.queue_ms = num("queue_ms");
  s.wall_ms = num("wall_ms");
  return s;
}

// Journal + fleet + gateway, built from cold. Members are destroyed in
// reverse order: the gateway stops before the fleet it serves.
class Rig {
 public:
  Rig(std::uint64_t seed, const std::string& journal_path)
      : journal_path_(journal_path) {
    serve::FleetOptions fo;
    fo.input_seed = seed;
    if (!journal_path.empty()) {
      serve::JournalOptions jo;
      jo.path = journal_path;
      jo.fsync_every_records = 0;  // the timed phase must not wait on the disk
      fo.journal = std::make_shared<serve::Journal>(jo);
    }
    fleet_ = std::make_unique<serve::Fleet>(fo);
    net::GatewayOptions go;
    go.model_scale = kModelScale;
    gateway_ = std::make_unique<net::Gateway>(*fleet_, go);
  }
  ~Rig() {
    gateway_.reset();
    fleet_.reset();
    if (!journal_path_.empty()) ::unlink(journal_path_.c_str());
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  serve::Fleet& fleet() { return *fleet_; }
  std::uint16_t port() const { return gateway_->port(); }

  // Plans every layer shape the mix uses on every chip.
  void fill_plan_cache() {
    for (const GatewayOp& op : kRound) {
      const nn::NetworkModel model = proxy(op.model);
      const auto& first = model.conv_layers.front();
      for (const serve::ChipSpec& chip : fleet_->chips())
        for (const auto& layer : serve::resolve_network_layers(
                 model, op.batch, first.in_height, first.in_width, {}))
          (void)fleet_->plan_cache()->plan_for(layer, chip.array, chip.memory);
    }
  }

 private:
  std::string journal_path_;
  std::unique_ptr<serve::Fleet> fleet_;
  std::unique_ptr<net::Gateway> gateway_;
};

struct Phase {
  std::vector<Sample> samples;
  std::string response_body;  // the first answer, for the JSON probe
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

// Closed loop: the next request goes out only after the previous answer.
// Stops after the first whole round that ends past the deadline, but not
// before `min_rounds` rounds.
Phase run_phase(net::HttpClient& client, double seconds, int min_rounds = 1) {
  Phase phase;
  const double cpu0 = process_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = after_seconds(start, seconds);
  std::uint64_t op_id = 0;
  for (int round = 0; round < min_rounds || Clock::now() < deadline; ++round) {
    for (std::size_t i = 0; i < kRoundSize; ++i) {
      net::HttpResponse resp;
      Span span("client.round_trip", ++op_id, kRound[i].model);
      const auto t0 = Clock::now();
      const bool ok = client.post_json("/v1/submit", submit_body(kRound[i]), &resp);
      const double ms = ms_between(t0, Clock::now());
      span.stop();
      phase.samples.push_back(parse_sample(i, ms, ok, resp));
      if (op_id == 1) phase.response_body = resp.body;
    }
  }
  phase.elapsed_s = ms_between(start, Clock::now()) / 1e3;
  phase.cpu_s = process_cpu_seconds() - cpu0;
  phase.peak_rss_mb = peak_rss_mb();
  return phase;
}

struct Setup {
  std::unique_ptr<Rig> rig;
  // One keep-alive connection. With one per chip (three), the closed loop
  // keeps three or four vCPUs busy, and on a shared 4-vCPU host the
  // wall-clock figures then track the host's load: over ten runs in a
  // noisy period throughput spread 26% and the tail 46%; one connection,
  // ten runs in another noisy period: 18% and 13%.
  std::unique_ptr<net::HttpClient> client;
};

// Cold rig, plan cache filled for every shape x chip, then warm-up
// rounds: with a single round, the first few hundred milliseconds of the
// timed phase still ran up to 4x slower and set the tail. Returns the
// set-up seconds.
double set_up(const RunContext& ctx, int rep, Setup& s) {
  const std::string journal = ctx.out_dir + "/journal-" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(rep) + ".log";
  s.client.reset();
  s.rig.reset();
  const auto t0 = Clock::now();
  s.rig = std::make_unique<Rig>(ctx.seed, journal);
  s.rig->fill_plan_cache();
  s.client = std::make_unique<net::HttpClient>("127.0.0.1", s.rig->port());
  (void)run_phase(*s.client, 0.0, kWarmupRounds);
  return ms_between(t0, Clock::now()) / 1e3;
}

// Executed cycles of (model, batch) on a chip, from a direct
// NetworkRunner run on that chip's configuration.
std::int64_t direct_cycles(const serve::ChipSpec& chip, const std::string& model,
                           std::int64_t batch, std::uint64_t seed) {
  chain::AcceleratorConfig cfg = serve::analytical_accelerator_config();
  cfg.array = chip.array;
  cfg.memory = chip.memory;
  chain::ChainAccelerator acc(cfg);
  const chainnn::energy::EnergyModel energy =
      chainnn::energy::EnergyModel::paper_calibrated();
  chain::NetworkRunner runner(acc, energy);
  const nn::NetworkModel m = proxy(model);
  const auto& first = m.conv_layers.front();
  chain::NetworkRunOptions opts;
  opts.verify_against_golden = false;
  const chain::NetworkRunResult run = runner.run(
      m,
      random_tensor(Shape{batch, first.in_channels, first.in_height, first.in_width},
                    seed, 0x6A7E, -64, 64),
      opts);
  return net::run_cycles(run);
}

// The cycles by which the Router's closed form over-models a (model,
// batch) request on a chip: it charges each layer's chain drain once per
// image, the engines once per batch, so (batch - 1) drains per layer.
std::int64_t drain_surplus(serve::Fleet& fleet, const serve::ChipSpec& chip,
                           const std::string& model, std::int64_t batch) {
  const nn::NetworkModel m = proxy(model);
  const auto& first = m.conv_layers.front();
  std::int64_t drains = 0;
  for (const auto& layer : serve::resolve_network_layers(
           m, batch, first.in_height, first.in_width, {}))
    drains += fleet.plan_cache()
                  ->plan_for(layer, chip.array, chip.memory)
                  .drain_cycles_on(chip.array);
  return (batch - 1) * drains;
}

// Checks every sample; returns the number carrying the known fault.
std::int64_t check_samples(const RunContext& ctx, serve::Fleet& fleet,
                           const std::vector<Sample>& samples,
                           std::vector<std::string>& errors) {
  std::map<std::string, const serve::ChipSpec*> chips;
  for (const serve::ChipSpec& c : fleet.chips()) chips[c.name] = &c;
  struct Reference {
    std::int64_t cycles = 0;   // a direct NetworkRunner run
    std::int64_t surplus = 0;  // the known modelling fault, in cycles
  };
  std::map<std::tuple<std::string, std::int64_t, std::string>, Reference> refs;
  std::int64_t faulty = 0;
  for (const Sample& s : samples) {
    const GatewayOp& op = kRound[s.op];
    const std::string who = std::string("gateway: ") + op.model + " batch " +
                            std::to_string(op.batch);
    if (!s.transport_ok || s.http_status != 200 || s.status != "ok") {
      add_error(errors, who + " answered HTTP " + std::to_string(s.http_status) +
                            " status '" + s.status + "'");
      continue;
    }
    const auto chip = chips.find(s.chip);
    if (chip == chips.end()) {
      add_error(errors, "gateway: unknown chip '" + s.chip + "'");
      continue;
    }
    const auto key = std::make_tuple(std::string(op.model), op.batch, s.chip);
    auto it = refs.find(key);
    if (it == refs.end())
      it = refs.emplace(key, Reference{direct_cycles(*chip->second, op.model,
                                                     op.batch, ctx.seed),
                                       drain_surplus(fleet, *chip->second,
                                                     op.model, op.batch)})
               .first;
    const Reference& ref = it->second;
    if (s.cycles != ref.cycles)
      add_error(errors, who + " on " + s.chip + " answered " +
                            std::to_string(s.cycles) + " cycles, direct run " +
                            std::to_string(ref.cycles));
    // modelled_seconds must give the executed cycles at the chip's clock.
    // A batch > 1 answer that is high by exactly the extra drains is the
    // known fault, counted as failed; any other gap is an error.
    const double modelled = s.modelled_seconds * chip->second->array.clock_hz;
    const auto near = [&](std::int64_t cycles) {
      return std::fabs(modelled - static_cast<double>(cycles)) <=
             1e-6 * static_cast<double>(cycles);
    };
    if (near(s.cycles)) continue;
    if (ref.surplus > 0 && near(s.cycles + ref.surplus)) {
      ++faulty;
      continue;
    }
    add_error(errors, who + " on " + s.chip + " modelled " +
                          std::to_string(modelled) + " cycles, executed " +
                          std::to_string(s.cycles) + " (+" +
                          std::to_string(ref.surplus) + " known drain surplus)");
  }
  return faulty;
}

// A sequential sample through the wire must match a direct Fleet::submit
// on a twin fleet bit for bit (chip, cycles, activation digest).
void check_twin(const RunContext& ctx, std::vector<std::string>& errors) {
  Rig wire(ctx.seed, "");
  serve::FleetOptions fo;
  fo.input_seed = ctx.seed;
  serve::Fleet direct(fo);
  net::HttpClient client("127.0.0.1", wire.port());
  std::map<std::string, nn::NetworkModel> models;
  for (const GatewayOp& op : kRound) {
    net::HttpResponse resp;
    const bool ok = client.post_json("/v1/submit", submit_body(op), &resp);
    const Sample s = parse_sample(0, 0.0, ok, resp);
    auto m = models.find(op.model);
    if (m == models.end()) m = models.emplace(op.model, proxy(op.model)).first;
    const serve::InferenceResult twin = direct.submit(m->second, op.batch).get();
    if (s.status != "ok" || s.chip != twin.chip ||
        s.cycles != net::run_cycles(twin.run) ||
        s.digest != hex16(net::run_digest(twin.run)))
      add_error(errors, std::string("gateway: wire response for ") + op.model +
                            " batch " + std::to_string(op.batch) +
                            " differs from its direct Fleet::submit twin");
  }
}

template <typename Fn>
double per_call_us(const std::string& name, int calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b)
    batches.push_back(timed(name, [&] {
                        for (int i = 0; i < calls; ++i) fn();
                      }) * 1e3 / calls);
  return median(batches);
}

// Per-layer figures of a finished gateway phase plus isolated calls into
// the HTTP parser, the JSON parser, the router and the journal.
void gateway_layer_metrics(const RunContext& ctx, serve::Fleet& fleet,
                           const Phase& phase, Metrics& out,
                           std::vector<std::string>& errors) {
  std::vector<double> frontdoor, queue, exec;
  std::map<std::string, double> routed;
  for (const Sample& s : phase.samples) {
    if (s.status != "ok") continue;
    frontdoor.push_back(s.client_ms - s.queue_ms - s.wall_ms);
    queue.push_back(s.queue_ms);
    exec.push_back(s.wall_ms);
    routed[s.chip] += 1.0;
  }
  const double n = static_cast<double>(frontdoor.size());
  out.push_back({"net.frontdoor_ms", median(frontdoor), "ms"});
  out.push_back({"serve.queue_ms.p50", percentile(queue, 0.5), "ms"});
  out.push_back({"serve.queue_ms.p90", percentile(queue, 0.9), "ms"});
  out.push_back({"serve.exec_ms.p50", percentile(exec, 0.5), "ms"});
  for (const serve::ChipSpec& chip : fleet.chips())
    out.push_back({"serve.routed_share." + chip.name,
                   n > 0 ? routed[chip.name] / n : 0.0, "ratio"});
  out.push_back({"serve.plan_cache_hit_rate",
                 fleet.stats().plan_cache.hit_rate(), "ratio"});

  // The workload's own bytes: a submit request and a real response.
  net::HttpRequest req;
  req.method = "POST";
  req.target = "/v1/submit";
  req.version = "HTTP/1.1";
  req.headers = {{"Host", "127.0.0.1"}, {"Content-Type", "application/json"}};
  req.body = submit_body(kRound[0]);
  const std::string wire = net::serialize_request(req);
  bool parse_ok = true;
  out.push_back({"net.http_parse_us", per_call_us("net.HttpParser::next", 2000, [&] {
                   net::HttpParser parser;
                   parser.feed(wire);
                   net::HttpRequest parsed;
                   parse_ok &= parser.next(&parsed) == net::HttpParser::Status::kReady;
                 }), "us"});
  const std::string& body = phase.response_body;
  out.push_back({"net.json_parse_us", per_call_us("net.Json::parse", 2000, [&] {
                   parse_ok &= net::Json::parse(body).has_value();
                 }), "us"});
  if (!parse_ok) add_error(errors, "gateway: probe bytes failed to parse");

  const nn::NetworkModel lenet = proxy("lenet");
  out.push_back({"serve.route_us", per_call_us("serve.Fleet::plan_route", 2000, [&] {
                   (void)fleet.plan_route(lenet, 1);
                 }), "us"});

  // SUBMIT-sized records: the concrete input tensor plus a small header.
  const std::string journal_path =
      ctx.out_dir + "/journal-probe-" + std::to_string(::getpid()) + ".log";
  {
    serve::JournalOptions jo;
    jo.path = journal_path;
    jo.fsync_every_records = 0;
    serve::Journal journal(jo);
    const auto& first = lenet.conv_layers.front();
    const std::string record(
        static_cast<std::size_t>(64 + 2 * first.in_channels * first.in_height *
                                          first.in_width),
        'x');
    out.push_back({"serve.journal_append_us",
                   per_call_us("serve.Journal::append", 2000,
                               [&] { journal.append(record); }),
                   "us"});
  }
  ::unlink(journal_path.c_str());
}

}  // namespace

Outcome run_gateway_small(const RunContext& ctx) {
  Outcome out;
  Setup s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep)
    out.setup_s.push_back(set_up(ctx, rep, s));
  const Phase phase = run_phase(*s.client, ctx.seconds);
  out.elapsed_s = phase.elapsed_s;
  out.cpu_s = phase.cpu_s;
  out.peak_rss_mb = phase.peak_rss_mb;
  for (const Sample& smp : phase.samples) out.latencies_ms.push_back(smp.client_ms);
  out.attempted = static_cast<std::int64_t>(phase.samples.size());
  out.units = static_cast<double>(out.attempted);
  out.failed = check_samples(ctx, s.rig->fleet(), phase.samples, out.errors);
  check_twin(ctx, out.errors);
  if (ctx.trace) gateway_layer_metrics(ctx, s.rig->fleet(), phase, out.per_layer, out.errors);
  return out;
}

void gateway_probe(const RunContext& ctx, Metrics& out,
                   std::vector<std::string>& errors) {
  Span span("probe.gateway");
  Setup s;
  (void)set_up(ctx, 0, s);
  const Phase phase = run_phase(*s.client, 2.0);
  (void)check_samples(ctx, s.rig->fleet(), phase.samples, errors);
  gateway_layer_metrics(ctx, s.rig->fleet(), phase, out, errors);
}

}  // namespace perfbench
