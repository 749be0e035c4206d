// cdl_perfbench: the benchmark binary (run it through run.py).
//
//   cdl_perfbench train --weights DIR
//       Trains MNIST_2C and MNIST_3C (Algorithm 1, fixed training seed) and
//       saves them into DIR. Never timed.
//   cdl_perfbench run --workload offline|stream|serve --seed N --seconds S
//                     --trace 0|1 --weights DIR [--trace-out FILE]
//       Deploys the four paper variants (2C/3C x fp32/int8), drives one
//       workload, checks every timed result against the per-image classify()
//       reference of the same variant, and prints one JSON result line last.
//
// Workloads (why each exists is in README.md beside this file):
//   offline  closed loop, classify_batch_into on 256-image batches of
//            hard-tail traffic (difficulty >= 0.8), variants rotating per call
//   stream   closed loop, classify() on one natural image at a time,
//            variants rotating per call
//   serve    open loop, seeded Poisson arrivals at 8000 img/s into one
//            ServingEngine holding all four variants, latency from due time
//
// With --trace 0 the whole run is untraced and the end-to-end metrics are
// printed. With --trace 1 the run first measures untraced (stamp and count
// metrics), then for at most kMaxTracedSeconds with obs::Tracer and
// obs::LayerProfiler on (attribution and reconciliation), and the per-layer
// metrics are printed.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cdl/architectures.h"
#include "cdl/cdl_trainer.h"
#include "cdl/conditional_network.h"
#include "cdl/delta_selection.h"
#include "cdl/quantized_cascade.h"
#include "data/synthetic_mnist.h"
#include "nn/act_kernels.h"
#include "nn/conv2d.h"
#include "nn/qconv_direct.h"
#include "nn/qgemm.h"
#include "obs/energy_meter.h"
#include "obs/layer_profile.h"
#include "obs/trace.h"
#include "serve/engine.h"
#include "util/args.h"

namespace {

using cdl::ClassificationResult;
using cdl::ConditionalNetwork;
using cdl::Tensor;

// ---------------------------------------------------------------------------
// Fixed deployment (independent of the workload seed).
constexpr std::uint64_t kTrainSeed = 42;
constexpr std::size_t kTrainN = 6000;
constexpr std::size_t kValN = 1500;
constexpr std::size_t kCalibN = 512;
/// Traffic sample indices start far above the training/validation ranges.
constexpr std::uint64_t kTrafficIndexBase = 1ULL << 40;

// Workload shapes.
constexpr std::size_t kOfflineBatch = 256;
constexpr std::size_t kOfflineBatches = 16;
constexpr float kHardDifficulty = 0.8F;
constexpr std::size_t kPoolImages = 2048;  ///< stream/serve natural pool
constexpr double kServeRate = 8000.0;      ///< offered img/s
constexpr std::size_t kSetups = 15;        ///< setups per run, median kept
constexpr double kMaxTracedSeconds = 1.0;  ///< traced part of a --trace 1 run
/// Rounds of per-call timings a phase keeps (offline, stream). A 20 s run
/// held up to 188 rounds. The buffer is sized and touched before the timed
/// loop, so the harness's resident memory does not grow with the speed of
/// the code under test; otherwise a faster classify() would raise
/// peak_rss_mb.
constexpr std::size_t kKeptRounds = 256;

constexpr std::size_t kVariants = 4;  ///< 2C fp32, 2C int8, 3C fp32, 3C int8
std::size_t arch_of(std::size_t v) { return v / 2; }
bool is_int8(std::size_t v) { return v % 2 == 1; }
const char* prec_name(bool int8) { return int8 ? "int8" : "fp32"; }
std::string variant_tag(std::size_t v) {
  return std::string(arch_of(v) == 0 ? "2C." : "3C.") + prec_name(is_int8(v));
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Host record helpers.

/// Steal ticks of one CPU ("cpuN" line) or the aggregate ("cpu") when
/// cpu < 0. Returns 0 when /proc/stat is unreadable.
std::uint64_t steal_ticks(int cpu) {
  std::ifstream is("/proc/stat");
  const std::string want = cpu < 0 ? "cpu" : "cpu" + std::to_string(cpu);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != want) continue;
    std::uint64_t v[8] = {};
    for (std::uint64_t& x : v) ls >> x;
    return v[7];  // user nice system idle iowait irq softirq steal
  }
  return 0;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(static_cast<std::size_t>(c), &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Pins the calling thread (and every thread it starts later) to the
/// highest-numbered allowed CPU. Returns the CPU, or -1 when pinning failed.
int pin_to_one_cpu() {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpus.back()), &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpus.back() : -1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Statistics.

/// Type-7 percentile (linear interpolation) of an unsorted sample.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * (static_cast<double>(v[hi]) - static_cast<double>(v[lo]));
}

template <typename T>
double mean_of(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const T x : v) s += static_cast<double>(x);
  return s / static_cast<double>(v.size());
}

/// The quantile of an input's repeated timings that stands for its time.
constexpr double kRepeatQuantile = 0.9;

/// Time of each input, from whole rounds of calls laid out round-major
/// (call r * inputs + i times input i in kept round r): the kRepeatQuantile
/// of its repeats. This host's vCPUs alternate between two clock speeds about
/// 1.9x apart, and the fast share of a run ranged from 1% to 71%, so
/// medians, means and low quantiles of call times follow the host. The
/// slow phase was present in every run, and a high quantile of each
/// input's repeats stays inside it while still rejecting rare preemptions.
std::vector<double> per_input_time(const std::vector<std::uint32_t>& calls,
                                   std::size_t inputs) {
  const std::size_t rounds = calls.size() / inputs;
  std::vector<double> out(inputs);
  std::vector<std::uint32_t> repeats(rounds);
  for (std::size_t i = 0; i < inputs; ++i) {
    for (std::size_t r = 0; r < rounds; ++r) repeats[r] = calls[r * inputs + i];
    out[i] = percentile(repeats, kRepeatQuantile);
  }
  return out;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over raw bytes: the traffic digest the self-test compares.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_value(const T& v) {
    add(&v, sizeof v);
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// ---------------------------------------------------------------------------
// Checkpoints.

std::string checkpoint_path(const std::string& dir,
                            const cdl::CdlArchitecture& arch) {
  return dir + "/" + arch.name + ".cdlw";
}

ConditionalNetwork attach_paper_stages(const cdl::CdlArchitecture& arch,
                                       cdl::Network baseline) {
  ConditionalNetwork net(std::move(baseline), arch.input_shape);
  cdl::Rng rng(kTrainSeed + 1);
  for (const std::size_t prefix : arch.default_stages) {
    net.attach_classifier(prefix, cdl::LcTrainingRule::kLms, rng);
  }
  return net;
}

/// Algorithm 1 on the paper's fixed CDLN configurations (no gain pruning),
/// with the same seeds and sizes the repository's bench harnesses use.
int train_main(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const cdl::SyntheticMnist gen(cdl::SyntheticMnistConfig{.seed = kTrainSeed});
  const cdl::Dataset train = gen.generate(kTrainN, 0);
  for (const cdl::CdlArchitecture& arch : cdl::paper_architectures()) {
    const auto t0 = steady_ns();
    cdl::Network base = arch.make_baseline();
    cdl::Rng rng(kTrainSeed);
    base.init(rng);
    cdl::train_baseline(base, train, cdl::BaselineTrainConfig{}, rng);
    ConditionalNetwork net = attach_paper_stages(arch, std::move(base));
    cdl::CdlTrainConfig cfg;
    cfg.prune_by_gain = false;
    cdl::Rng lc_rng(kTrainSeed + 1);
    (void)cdl::train_cdl(net, train, cfg, lc_rng);
    net.save(checkpoint_path(dir, arch));
    std::printf("trained %s in %.1f s -> %s\n", arch.name.c_str(),
                static_cast<double>(steady_ns() - t0) * 1e-9,
                checkpoint_path(dir, arch).c_str());
  }
  std::ofstream(dir + "/COMPLETE") << "MNIST_2C MNIST_3C\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Traffic.

enum class Workload { kOffline, kStream, kServe };

struct Traffic {
  std::vector<Tensor> images;
  std::vector<std::size_t> labels;
  // serve only: arrival offsets (ns from start), variant, image per request
  std::vector<std::uint64_t> arrival_ns;
  std::vector<std::uint8_t> variant;
  std::vector<std::uint32_t> image;
  std::string digest;
};

Traffic make_traffic(Workload w, std::uint64_t seed, double seconds,
                     bool smoke) {
  const cdl::SyntheticMnist gen(cdl::SyntheticMnistConfig{.seed = seed});
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> digit(0, 9);
  Traffic t;
  const std::size_t want =
      w == Workload::kOffline
          ? (smoke ? 2 : kOfflineBatches) * kOfflineBatch
          : (smoke ? 256 : kPoolImages);
  std::uint64_t index = kTrafficIndexBase;
  while (t.images.size() < want) {
    const std::size_t d = digit(rng);
    const std::uint64_t i = index++;
    if (w == Workload::kOffline && gen.difficulty(d, i) < kHardDifficulty) {
      continue;  // offline keeps only the hard tail
    }
    t.images.push_back(gen.render(d, i));
    t.labels.push_back(d);
  }
  if (w == Workload::kServe) {
    std::exponential_distribution<double> gap(kServeRate);
    std::uniform_int_distribution<int> pick(0, kVariants - 1);
    double at = 0.0;
    for (std::size_t r = 0;; ++r) {
      at += gap(rng);
      if (at >= seconds) break;
      t.arrival_ns.push_back(static_cast<std::uint64_t>(at * 1e9));
      t.variant.push_back(static_cast<std::uint8_t>(pick(rng)));
      t.image.push_back(static_cast<std::uint32_t>(r % t.images.size()));
    }
  }
  Digest dg;
  for (std::size_t i = 0; i < t.images.size(); ++i) {
    dg.add(t.images[i].data(), t.images[i].numel() * sizeof(float));
    dg.add_value(t.labels[i]);
  }
  for (std::size_t r = 0; r < t.arrival_ns.size(); ++r) {
    dg.add_value(t.arrival_ns[r]);
    dg.add_value(t.variant[r]);
  }
  t.digest = dg.hex();
  return t;
}

// ---------------------------------------------------------------------------
// Set-up: checkpoints -> delta -> int8 calibration -> engine/workspaces ->
// one warm-up call per variant.

struct SetupTimes {
  double load_ms = 0, delta_ms = 0, calibrate_ms = 0, engine_ms = 0,
         warmup_ms = 0;
  [[nodiscard]] double total_s() const {
    return (load_ms + delta_ms + calibrate_ms + engine_ms + warmup_ms) * 1e-3;
  }
};

struct Deployment {
  std::vector<ConditionalNetwork> nets;  ///< offline/stream: the variants
  std::vector<cdl::BatchWorkspace> workspaces;
  std::unique_ptr<cdl::serve::ServingEngine> engine;  ///< serve
  std::vector<std::vector<double>> energy_pj;  ///< exit-energy table/variant
  float delta[2] = {0, 0};
  SetupTimes times;

  [[nodiscard]] const ConditionalNetwork& net(std::size_t v) const {
    return engine ? engine->models().net(v) : nets[v];
  }
};

struct FixedData {
  cdl::Dataset validation;
  std::vector<Tensor> calibration;
};

FixedData make_fixed_data() {
  const cdl::SyntheticMnist gen(cdl::SyntheticMnistConfig{.seed = kTrainSeed});
  FixedData d;
  d.validation = gen.generate(kValN, 1ULL << 33);  // the repo's val split
  d.calibration = gen.generate(kCalibN, 0).images();  // first train images
  return d;
}

cdl::serve::EngineConfig serve_config() {
  // The settings cdl_serve ships.
  cdl::serve::EngineConfig c;
  c.workers = 1;
  c.queue_capacity = 1024;
  c.batcher.max_batch = 16;
  c.batcher.max_delay_ns = 2'000'000;
  c.default_deadline_ns = 0;
  return c;
}

Deployment set_up(Workload w, const std::string& weights,
                  const FixedData& data, const std::vector<Tensor>& warm_batch) {
  Deployment d;
  const std::vector<cdl::CdlArchitecture> archs = cdl::paper_architectures();
  auto lap = [t = steady_ns()]() mutable {
    const std::uint64_t now = steady_ns();
    const double ms = static_cast<double>(now - t) * 1e-6;
    t = now;
    return ms;
  };

  std::vector<ConditionalNetwork> nets;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const cdl::CdlArchitecture& arch = archs[arch_of(v)];
    ConditionalNetwork net = attach_paper_stages(arch, arch.make_baseline());
    net.load(checkpoint_path(weights, arch));
    nets.push_back(std::move(net));
  }
  d.times.load_ms = lap();

  for (std::size_t a = 0; a < 2; ++a) {
    const cdl::DeltaSelection sel =
        cdl::select_delta(nets[2 * a], data.validation);
    d.delta[a] = sel.best.delta;
    nets[2 * a + 1].set_delta(sel.best.delta);
  }
  d.times.delta_ms = lap();

  for (std::size_t a = 0; a < 2; ++a) {
    ConditionalNetwork& q = nets[2 * a + 1];
    q.set_quantization(cdl::collect_quant_calibration(
        q.baseline(), q.input_shape(), data.calibration, kCalibN, nullptr));
    q.set_cascade_precision(cdl::StagePrecision::kInt8);
  }
  d.times.calibrate_ms = lap();

  if (w == Workload::kServe) {
    cdl::serve::ModelRegistry models;
    for (std::size_t v = 0; v < kVariants; ++v) {
      models.add(variant_tag(v), std::move(nets[v]));
    }
    d.engine = std::make_unique<cdl::serve::ServingEngine>(std::move(models),
                                                           serve_config());
  } else {
    d.nets = std::move(nets);
    if (w == Workload::kOffline) {
      d.workspaces.resize(kVariants);
      for (std::size_t v = 0; v < kVariants; ++v) {
        d.workspaces[v].plan(
            d.nets[v], cdl::BatchWorkspace::auto_tile(kOfflineBatch, 1), 1);
      }
    }
  }
  d.times.engine_ms = lap();

  if (w == Workload::kServe) {
    std::vector<std::future<cdl::serve::Response>> f;
    for (std::size_t v = 0; v < kVariants; ++v) {
      f.push_back(d.engine->submit(v, warm_batch.front()).response);
    }
    for (auto& r : f) {
      if (r.get().status != cdl::serve::RequestStatus::kOk) {
        throw std::runtime_error("warm-up request failed");
      }
    }
  } else {
    std::vector<ClassificationResult> out;
    for (std::size_t v = 0; v < kVariants; ++v) {
      if (w == Workload::kOffline) {
        d.nets[v].classify_batch_into(warm_batch, out, d.workspaces[v]);
      } else {
        (void)d.nets[v].classify(warm_batch.front());
      }
    }
  }
  d.times.warmup_ms = lap();

  const cdl::obs::EnergyMeter meter;  // benchmark accounting, not set-up
  for (std::size_t v = 0; v < kVariants; ++v) {
    d.energy_pj.push_back(d.net(v).exit_energy_table(meter));
  }
  return d;
}

// ---------------------------------------------------------------------------
// Reference oracle and per-variant accounting.

bool same_bits(const ClassificationResult& a, const ClassificationResult& b) {
  return a.label == b.label && a.exit_stage == b.exit_stage &&
         std::bit_cast<std::uint32_t>(a.confidence) ==
             std::bit_cast<std::uint32_t>(b.confidence) &&
         a.ops == b.ops && a.probabilities.shape() == b.probabilities.shape() &&
         std::memcmp(a.probabilities.data(), b.probabilities.data(),
                     a.probabilities.numel() * sizeof(float)) == 0;
}

/// The oracle: classify() of every traffic image, per variant.
using Reference = std::vector<std::vector<ClassificationResult>>;

Reference make_reference(const Deployment& d, const Traffic& t) {
  Reference ref(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    for (const Tensor& img : t.images) ref[v].push_back(d.net(v).classify(img));
  }
  return ref;
}

/// Untimed second witness for the oracle: classify_batch_into must give the
/// reference bit for bit. On `stream` the timed call is classify() itself, so
/// without this check a change that breaks classify() would move its own
/// reference too. Batches have the serve engine's largest size, which keeps
/// the workspace this check plans small: `stream` plans none otherwise, and
/// it counts in every workload's peak_rss_mb. Returns the number of results
/// that differ.
std::uint64_t batch_path_mismatches(const Deployment& d, const Traffic& t,
                                    const Reference& ref) {
  const std::size_t size = serve_config().batcher.max_batch;
  std::uint64_t mismatched = 0;
  std::vector<ClassificationResult> out;
  for (std::size_t v = 0; v < kVariants; ++v) {
    cdl::BatchWorkspace ws;
    for (std::size_t b = 0; b < t.images.size(); b += size) {
      const std::size_t n = std::min(size, t.images.size() - b);
      const auto first = t.images.begin() + static_cast<std::ptrdiff_t>(b);
      const std::vector<Tensor> batch(first,
                                      first + static_cast<std::ptrdiff_t>(n));
      d.net(v).classify_batch_into(batch, out, ws);
      for (std::size_t i = 0; i < n; ++i) {
        if (!same_bits(out[i], ref[v][b + i])) ++mismatched;
      }
    }
  }
  return mismatched;
}

/// Everything one measured phase learns about one variant.
struct VariantStats {
  std::uint64_t attempted = 0, ok = 0, mismatched = 0, failed = 0,
                correct = 0, ops = 0;
  std::vector<std::uint64_t> exits;     ///< images per exit stage
  std::vector<std::uint32_t> call_ns;   ///< kept rounds' calls (offline/stream)
  std::uint64_t busy_ns = 0, images_timed = 0;  ///< over every call
  // serve, per completed request
  std::vector<std::uint64_t> latency_ns;  ///< from due time
  std::vector<std::uint64_t> queue_ns, batch_wait_ns, compute_ns, batch;
  double energy_pj_sum = 0.0;         ///< Response::energy_pj, summed
  // traced phase: LayerProfiler attribution summed over calls
  std::vector<std::uint64_t> conv_ns, gate_ns;  ///< per stage
  std::uint64_t unattributed_ns = 0, profiled_calls = 0;

  void record(const ClassificationResult& got, const ClassificationResult& want,
              std::size_t label) {
    ++attempted;
    if (!same_bits(got, want)) {
      ++mismatched;
      return;
    }
    ++ok;
    if (got.label == label) ++correct;
    ops += got.ops.total_compute();
    if (exits.size() <= got.exit_stage) exits.resize(got.exit_stage + 1);
    ++exits[got.exit_stage];
  }
};

struct Phase {
  std::vector<VariantStats> v = std::vector<VariantStats>(kVariants);
  std::uint64_t steal_ticks = 0;
  std::size_t rounds = 0;
  std::size_t kept_rounds = 0, keep_stride = 1;  ///< of VariantStats::call_ns
  // serve
  std::vector<std::uint64_t> submit_ns, late_ns;
  std::uint64_t refused = 0;
  // reconciliation (traced phase)
  std::uint64_t reconciled = 0, reconcile_failures = 0;
  double reconcile_max_err_us = 0.0;
  std::uint64_t trace_dropped = 0;
};

/// Sizes and touches every variant's timing buffer for `inputs` calls per
/// round, before the timed loop.
void reserve_rounds(Phase& ph, std::size_t inputs) {
  for (VariantStats& s : ph.v) s.call_ns.assign(kKeptRounds * inputs, 0);
}

/// One call of input i in the current round. Every call counts in busy_ns;
/// calls of kept rounds are also stored.
void time_call(const Phase& ph, VariantStats& s, std::size_t inputs,
               std::size_t i, std::uint64_t span, std::size_t images) {
  s.busy_ns += span;
  s.images_timed += images;
  if (ph.rounds % ph.keep_stride == 0) {
    s.call_ns[ph.kept_rounds * inputs + i] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(span, UINT32_MAX));
  }
}

/// Ends a round. When the buffer is full, every other kept round is dropped
/// and from then on only every other round is kept, so the kept rounds stay
/// evenly spread over the run.
void end_round(Phase& ph, std::size_t inputs) {
  if (ph.rounds++ % ph.keep_stride != 0) return;
  if (++ph.kept_rounds < kKeptRounds) return;
  for (VariantStats& s : ph.v) {
    for (std::size_t r = 1; r < kKeptRounds / 2; ++r) {
      std::copy_n(s.call_ns.begin() + static_cast<std::ptrdiff_t>(2 * r * inputs),
                  inputs,
                  s.call_ns.begin() + static_cast<std::ptrdiff_t>(r * inputs));
    }
  }
  ph.kept_rounds = kKeptRounds / 2;
  ph.keep_stride *= 2;
}

/// Trims the buffers to the kept rounds after the timed loop.
void finish_rounds(Phase& ph, std::size_t inputs) {
  for (VariantStats& s : ph.v) s.call_ns.resize(ph.kept_rounds * inputs);
}

// ---------------------------------------------------------------------------
// Traced-phase helpers.

struct ProfiledCall {
  std::vector<std::uint64_t> conv_ns, gate_ns;
  std::uint64_t rows_ns = 0;
};

/// Splits a profiler snapshot (one call's rows) into per-stage baseline
/// layer time (nn) and stage-level classifier/gate time (cdl).
ProfiledCall fold_rows(const std::vector<cdl::obs::LayerProfileRow>& rows,
                       std::size_t exit_stages) {
  ProfiledCall p;
  p.conv_ns.assign(exit_stages, 0);
  p.gate_ns.assign(exit_stages, 0);
  for (const cdl::obs::LayerProfileRow& r : rows) {
    p.rows_ns += r.time_ns;
    if (r.stage < 0 || static_cast<std::size_t>(r.stage) >= exit_stages) {
      continue;
    }
    auto& dst = r.layer == cdl::obs::kStageLevel ? p.gate_ns : p.conv_ns;
    dst[static_cast<std::size_t>(r.stage)] += r.time_ns;
  }
  return p;
}

void record_span(const char* name, std::uint64_t start_obs, std::uint64_t dur,
                 std::int32_t id) {
  cdl::obs::TraceEvent e;
  e.name = name;
  e.start_ns = start_obs;
  e.dur_ns = dur;
  e.id = id;
  cdl::obs::Tracer::instance().record(e);
}

/// Offline/stream reconciliation for one call: the profiler rows are
/// disjoint sub-intervals of the call, so rows + unattributed == span with
/// unattributed >= 0.
void account_profiled_call(Phase& ph, VariantStats& s, std::uint64_t span_ns,
                           std::size_t exit_stages) {
  const ProfiledCall p =
      fold_rows(cdl::obs::LayerProfiler::instance().snapshot(), exit_stages);
  cdl::obs::LayerProfiler::instance().clear();
  if (s.conv_ns.empty()) {
    s.conv_ns.assign(exit_stages, 0);
    s.gate_ns.assign(exit_stages, 0);
  }
  for (std::size_t k = 0; k < exit_stages; ++k) {
    s.conv_ns[k] += p.conv_ns[k];
    s.gate_ns[k] += p.gate_ns[k];
  }
  ++s.profiled_calls;
  ++ph.reconciled;
  if (p.rows_ns > span_ns) {
    ++ph.reconcile_failures;
    ph.reconcile_max_err_us =
        std::max(ph.reconcile_max_err_us,
                 static_cast<double>(p.rows_ns - span_ns) * 1e-3);
    return;
  }
  s.unattributed_ns += span_ns - p.rows_ns;
}

std::size_t exit_stage_count(const ConditionalNetwork& net) {
  return net.num_stages() + 1;
}

// ---------------------------------------------------------------------------
// Workloads. Each runs whole rounds (every image through every variant once)
// until the phase's time is up, so count-based metrics are exact functions
// of the traffic.

void run_offline(Deployment& d, const Traffic& t, const Reference& ref,
                 double seconds, bool traced, int cpu, Phase& ph) {
  const std::size_t nb = t.images.size() / kOfflineBatch;
  std::vector<std::vector<Tensor>> batches(nb);
  for (std::size_t b = 0; b < nb; ++b) {
    batches[b].assign(t.images.begin() + static_cast<std::ptrdiff_t>(b * kOfflineBatch),
                      t.images.begin() + static_cast<std::ptrdiff_t>((b + 1) * kOfflineBatch));
  }
  std::vector<std::vector<ClassificationResult>> out(kVariants);
  reserve_rounds(ph, nb);
  const std::uint64_t steal0 = steal_ticks(cpu);
  const std::uint64_t end =
      steady_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::int32_t call_id = 0;
  do {
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        VariantStats& s = ph.v[v];
        const std::uint64_t t0 = cdl::obs::now_ns();
        d.nets[v].classify_batch_into(batches[b], out[v], d.workspaces[v]);
        const std::uint64_t span = cdl::obs::now_ns() - t0;
        time_call(ph, s, nb, b, span, kOfflineBatch);
        if (traced) {
          record_span("bench/classify_batch_into", t0, span, call_id);
          account_profiled_call(ph, s, span, exit_stage_count(d.nets[v]));
        }
        ++call_id;
        for (std::size_t i = 0; i < kOfflineBatch; ++i) {
          const std::size_t img = b * kOfflineBatch + i;
          s.record(out[v][i], ref[v][img], t.labels[img]);
        }
      }
    }
    end_round(ph, nb);
  } while (steady_ns() < end);
  ph.steal_ticks = steal_ticks(cpu) - steal0;
  finish_rounds(ph, nb);
}

void run_stream(Deployment& d, const Traffic& t, const Reference& ref,
                double seconds, bool traced, int cpu, Phase& ph) {
  const std::size_t n = t.images.size();
  reserve_rounds(ph, n);
  const std::uint64_t steal0 = steal_ticks(cpu);
  const std::uint64_t end =
      steady_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::int32_t call_id = 0;
  do {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t v = 0; v < kVariants; ++v) {
        VariantStats& s = ph.v[v];
        const std::uint64_t t0 = cdl::obs::now_ns();
        const ClassificationResult r = d.nets[v].classify(t.images[i]);
        const std::uint64_t span = cdl::obs::now_ns() - t0;
        time_call(ph, s, n, i, span, 1);
        if (traced) {
          record_span("bench/classify", t0, span, call_id);
          account_profiled_call(ph, s, span, exit_stage_count(d.nets[v]));
        }
        ++call_id;
        s.record(r, ref[v][i], t.labels[i]);
      }
    }
    end_round(ph, n);
  } while (steady_ns() < end);
  ph.steal_ticks = steal_ticks(cpu) - steal0;
  finish_rounds(ph, n);
}

std::int32_t trace_id(std::uint64_t request_id) {
  return static_cast<std::int32_t>(request_id & 0x7fffffffU);
}

/// Open loop: request r is due at start + arrival_ns[r] whether or not the
/// engine has kept up. Latency counts from the due time, so a stalled
/// generator or worker shows in every later request.
void run_serve(Deployment& d, const Traffic& t, const Reference& ref,
               double seconds, bool traced, int cpu, Phase& ph) {
  using namespace std::chrono;
  cdl::serve::ServingEngine& engine = *d.engine;
  // The schedule is a prefix of the seeded arrival sequence.
  const auto limit = static_cast<std::uint64_t>(seconds * 1e9);
  const std::size_t n = static_cast<std::size_t>(
      std::lower_bound(t.arrival_ns.begin(), t.arrival_ns.end(), limit) -
      t.arrival_ns.begin());
  if (n == 0) throw std::invalid_argument("serve: no arrivals scheduled");
  std::vector<std::future<cdl::serve::Response>> futures;
  futures.reserve(n);
  std::vector<std::uint64_t> due(n), pre(n), post(n);
  ph.submit_ns.reserve(n);
  ph.late_ns.reserve(n);

  const std::uint64_t steal0 = steal_ticks(cpu);
  const steady_clock::time_point origin = steady_clock::now() + milliseconds(2);
  const std::uint64_t origin_ns = static_cast<std::uint64_t>(
      duration_cast<nanoseconds>(origin.time_since_epoch()).count());
  Tensor next = t.images[t.image[0]];
  for (std::size_t r = 0; r < n; ++r) {
    due[r] = origin_ns + t.arrival_ns[r];
    // Busy-wait, yielding to the engine worker on the same CPU: a sleeping
    // generator lets the vCPU halt, and every timer wake-up of a halted
    // vCPU waits on the hypervisor (steal), which moved served p90 by a
    // third between runs.
    while (steady_ns() < due[r]) sched_yield();
    pre[r] = steady_ns();
    cdl::serve::Submitted sub = engine.submit(t.variant[r], std::move(next));
    post[r] = steady_ns();
    futures.push_back(std::move(sub.response));
    if (r + 1 < n) next = t.images[t.image[r + 1]];
  }
  engine.shutdown();  // drain: every accepted request is served
  ph.steal_ticks = steal_ticks(cpu) - steal0;

  // Trace clock offset (both clocks are steady_clock; obs anchors at first
  // use) to place the engine's serve/execute span ends on our timeline.
  const std::uint64_t obs_offset = steady_ns() - cdl::obs::now_ns();
  std::unordered_map<std::int32_t, std::uint64_t> exec_end;
  if (traced) {
    for (const auto& e : cdl::obs::Tracer::instance().collect()) {
      if (std::strcmp(e.event.name, "serve/execute") == 0) {
        exec_end[e.event.id] = e.event.start_ns + e.event.dur_ns + obs_offset;
      }
    }
  }

  for (std::size_t r = 0; r < n; ++r) {
    VariantStats& s = ph.v[t.variant[r]];
    const std::uint64_t g0 = cdl::obs::now_ns();
    const cdl::serve::Response resp = futures[r].get();
    if (traced) {
      const std::int32_t id = trace_id(resp.request_id);
      record_span("bench/submit", pre[r] - obs_offset, post[r] - pre[r], id);
      record_span("bench/get", g0, cdl::obs::now_ns() - g0, id);
    }
    ph.submit_ns.push_back(post[r] - pre[r]);
    ph.late_ns.push_back(pre[r] > due[r] ? pre[r] - due[r] : 0);
    if (resp.status != cdl::serve::RequestStatus::kOk) {
      ++s.attempted;
      ++s.failed;
      ++ph.refused;
      continue;
    }
    s.record(resp.result, ref[t.variant[r]][t.image[r]],
             t.labels[t.image[r]]);
    const std::uint64_t late = ph.late_ns.back();
    s.latency_ns.push_back(late + resp.latency_ns);
    s.queue_ns.push_back(resp.queue_ns);
    s.batch_wait_ns.push_back(resp.batch_wait_ns);
    s.compute_ns.push_back(resp.compute_ns);
    s.batch.push_back(resp.batch_size);
    s.energy_pj_sum += resp.energy_pj;
    if (!traced) continue;
    // Reconciliation: the engine's phases partition its latency exactly,
    // and engine latency + generator lateness equals the latency from due
    // time read off the trace's serve/execute end. The engine stamps
    // arrival inside submit(), so the two may differ by at most the
    // submit() call itself (plus a few clock reads).
    ++ph.reconciled;
    bool ok = resp.queue_ns + resp.batch_wait_ns + resp.compute_ns ==
              resp.latency_ns;
    const auto it = exec_end.find(trace_id(resp.request_id));
    if (it == exec_end.end()) {
      ok = false;
    } else {
      const double from_trace = static_cast<double>(it->second) -
                                static_cast<double>(due[r]);
      const double from_engine =
          static_cast<double>(pre[r]) - static_cast<double>(due[r]) +
          static_cast<double>(resp.latency_ns);
      const double err = from_trace - from_engine;
      const double slack = static_cast<double>(post[r] - pre[r]) + 20'000.0;
      ph.reconcile_max_err_us =
          std::max(ph.reconcile_max_err_us, std::abs(err) * 1e-3);
      if (err < -20'000.0 || err > slack) ok = false;
    }
    if (!ok) ++ph.reconcile_failures;
  }
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Mean over the two architectures of a per-variant figure at `int8`.
template <typename F>
double arch_mean(bool int8, F per_variant) {
  return 0.5 * (per_variant(int8 ? 1 : 0) + per_variant(int8 ? 3 : 2));
}

struct Totals {
  std::uint64_t attempted = 0, ok = 0, mismatched = 0, failed = 0,
                correct = 0;
};

Totals totals(const Phase& ph) {
  Totals t;
  for (const VariantStats& s : ph.v) {
    t.attempted += s.attempted;
    t.ok += s.ok;
    t.mismatched += s.mismatched;
    t.failed += s.failed + s.mismatched;
    t.correct += s.correct;
  }
  return t;
}

/// Mean modeled energy per image in uJ. serve averages the engine's
/// Response::energy_pj stamps; offline and stream price per-stage exit
/// fractions with each variant's exit-energy table, built from integer
/// counts so any number of whole rounds gives identical bits.
double energy_uj(Workload w, const Phase& ph, const Deployment& d) {
  std::uint64_t images = 0;
  for (const VariantStats& s : ph.v) images += s.ok;
  double pj = 0.0;
  if (w == Workload::kServe) {
    for (const VariantStats& s : ph.v) pj += s.energy_pj_sum;
    return pj / static_cast<double>(images) * 1e-6;
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    for (std::size_t k = 0; k < ph.v[v].exits.size(); ++k) {
      pj += static_cast<double>(ph.v[v].exits[k]) /
            static_cast<double>(images) * d.energy_pj[v][k];
    }
  }
  return pj * 1e-6;
}

/// Served compute per image: batches of each size are timed at the
/// kRepeatQuantile of their compute time (batches of one size repeat the
/// same work, as an input's repeats do), weighted by the batches served.
double compute_per_image_ns(const VariantStats& s) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_size;
  for (std::size_t r = 0; r < s.compute_ns.size(); ++r) {
    by_size[s.batch[r]].push_back(s.compute_ns[r]);  // once per request
  }
  double total = 0.0;
  for (const auto& [size, compute] : by_size) {
    const double batches =
        static_cast<double>(compute.size()) / static_cast<double>(size);
    total += batches * percentile(compute, kRepeatQuantile);
  }
  return total / static_cast<double>(s.compute_ns.size());
}

std::vector<Metric> end_to_end(Workload w, const Phase& ph,
                               const Deployment& d, double setup_s) {
  const Totals t = totals(ph);
  std::vector<Metric> m;
  m.push_back({"setup_s", "s", setup_s});
  m.push_back({"peak_rss_mb", "MiB", peak_rss_mib()});
  m.push_back({"ok_ratio", "ratio",
               static_cast<double>(t.ok) / static_cast<double>(t.attempted)});
  m.push_back({"accuracy", "ratio", static_cast<double>(t.correct) /
                                        static_cast<double>(t.attempted)});
  m.push_back({"energy_uj_per_image", "uJ", energy_uj(w, ph, d)});
  // Mean time per call (offline: per 256-image batch; stream and serve: per
  // image) and, offline/stream, each input's time over its repeats.
  std::vector<std::vector<double>> times(kVariants);
  std::vector<double> mean_ns(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    const VariantStats& s = ph.v[v];
    if (w == Workload::kServe) {
      mean_ns[v] = compute_per_image_ns(s);
    } else {
      times[v] = per_input_time(s.call_ns, s.call_ns.size() / ph.kept_rounds);
      mean_ns[v] = mean_of(times[v]);
    }
  }
  for (const bool int8 : {false, true}) {
    const double per_call = w == Workload::kOffline ? kOfflineBatch : 1.0;
    const double ns = arch_mean(int8, [&](std::size_t v) { return mean_ns[v]; });
    m.push_back({std::string("throughput_ips.") + prec_name(int8), "img/s",
                 per_call * 1e9 / ns});
  }
  for (const double q : {0.5, 0.9}) {
    for (const bool int8 : {false, true}) {
      const double ms = arch_mean(int8, [&](std::size_t v) {
        return (w == Workload::kServe ? percentile(ph.v[v].latency_ns, q)
                                      : percentile(times[v], q)) *
               1e-6;
      });
      m.push_back({std::string(q == 0.5 ? "latency_p50_ms." : "latency_p90_ms.") +
                       prec_name(int8),
                   "ms", ms});
    }
  }
  return m;
}

/// The workload's main per-call timing (p50, mean over variants): batch
/// call (offline), classify() call (stream), engine compute (serve).
double main_timing_ns(Workload w, const Phase& ph) {
  double sum = 0.0;
  for (const VariantStats& s : ph.v) {
    sum += w == Workload::kServe ? percentile(s.compute_ns, 0.5)
                                 : percentile(s.call_ns, 0.5);
  }
  return sum / kVariants;
}

std::vector<Metric> per_layer(Workload w, const Phase& plain,
                              const Phase& traced, const Deployment& d) {
  std::vector<Metric> m;
  const SetupTimes& st = d.times;
  m.push_back({"setup.load_ms", "ms", st.load_ms});
  m.push_back({"setup.delta_select_ms", "ms", st.delta_ms});
  m.push_back({"setup.calibrate_ms", "ms", st.calibrate_ms});
  m.push_back({"setup.engine_ms", "ms", st.engine_ms});
  m.push_back({"setup.warmup_ms", "ms", st.warmup_ms});

  const bool offline = w == Workload::kOffline;
  const bool serve = w == Workload::kServe;
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::string tag = variant_tag(v);
    m.push_back({"cdl.batch_call_ms." + tag, "ms",
                 offline ? percentile(plain.v[v].call_ns, 0.5) * 1e-6 : 0.0});
  }
  for (const bool int8 : {false, true}) {
    double ips = 0.0;
    if (offline) {
      std::uint64_t images = 0, ns = 0;
      for (const std::size_t v : {int8 ? 1UL : 0UL, int8 ? 3UL : 2UL}) {
        images += plain.v[v].images_timed;
        ns += plain.v[v].busy_ns;
      }
      ips = static_cast<double>(images) * 1e9 / static_cast<double>(ns);
    }
    m.push_back({std::string("cdl.sustained_ips.") + prec_name(int8), "img/s",
                 ips});
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::string tag = variant_tag(v);
    const VariantStats& s = traced.v[v];
    const std::size_t stages = exit_stage_count(d.net(v));
    const double calls = static_cast<double>(s.profiled_calls);
    for (std::size_t k = 0; k < stages; ++k) {
      const double ns = serve || s.conv_ns.empty()
                            ? 0.0
                            : static_cast<double>(s.conv_ns[k]) / calls;
      m.push_back({"nn.conv_ms." + tag + ".s" + std::to_string(k), "ms",
                   ns * 1e-6});
    }
    for (std::size_t k = 0; k < stages; ++k) {
      const double ns = serve || s.gate_ns.empty()
                            ? 0.0
                            : static_cast<double>(s.gate_ns[k]) / calls;
      m.push_back({"cdl.gate_ms." + tag + ".s" + std::to_string(k), "ms",
                   ns * 1e-6});
    }
    m.push_back({"cdl.unattributed_ms." + tag, "ms",
                 serve || s.profiled_calls == 0
                     ? 0.0
                     : static_cast<double>(s.unattributed_ns) / calls * 1e-6});
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::string tag = variant_tag(v);
    m.push_back({"cdl.image_call_us." + tag, "us",
                 w == Workload::kStream
                     ? percentile(plain.v[v].call_ns, 0.5) * 1e-3
                     : 0.0});
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::string tag = variant_tag(v);
    const VariantStats& s = plain.v[v];
    const std::size_t stages = exit_stage_count(d.net(v));
    for (std::size_t k = 0; k < stages; ++k) {
      const std::uint64_t e = k < s.exits.size() ? s.exits[k] : 0;
      m.push_back({"cdl.exit_frac." + tag + ".s" + std::to_string(k), "ratio",
                   static_cast<double>(e) / static_cast<double>(s.ok)});
    }
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    const std::string tag = variant_tag(v);
    const VariantStats& s = plain.v[v];
    m.push_back({"cdl.mops_per_image." + tag, "Mop",
                 static_cast<double>(s.ops) / static_cast<double>(s.ok) *
                     1e-6});
  }

  // serve layer: request stamps pooled over the four variants.
  std::vector<std::uint64_t> q, bw, c, b;
  for (const VariantStats& s : plain.v) {
    q.insert(q.end(), s.queue_ns.begin(), s.queue_ns.end());
    bw.insert(bw.end(), s.batch_wait_ns.begin(), s.batch_wait_ns.end());
    c.insert(c.end(), s.compute_ns.begin(), s.compute_ns.end());
    b.insert(b.end(), s.batch.begin(), s.batch.end());
  }
  m.push_back({"serve.submit_us", "us",
               serve ? percentile(plain.submit_ns, 0.5) * 1e-3 : 0.0});
  m.push_back({"serve.queue_ms", "ms", mean_of(q) * 1e-6});
  m.push_back({"serve.batch_wait_ms", "ms", mean_of(bw) * 1e-6});
  m.push_back({"serve.compute_ms", "ms", mean_of(c) * 1e-6});
  m.push_back({"serve.batch_size", "count", mean_of(b)});
  m.push_back({"serve.failed", "count",
               static_cast<double>(plain.refused + traced.refused)});
  for (const bool int8 : {false, true}) {
    m.push_back({std::string("serve.latency_p99_ms.") + prec_name(int8), "ms",
                 serve ? arch_mean(int8,
                                   [&](std::size_t v) {
                                     return percentile(plain.v[v].latency_ns,
                                                       0.99) *
                                            1e-6;
                                   })
                       : 0.0});
  }
  m.push_back({"serve.generator_late_ms", "ms",
               serve ? percentile(plain.late_ns, 0.99) * 1e-6 : 0.0});

  const double tick_ms = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  m.push_back({"host.steal_ms", "ms",
               static_cast<double>(plain.steal_ticks + traced.steal_ticks) *
                   tick_ms});
  const double base = main_timing_ns(w, plain);
  m.push_back({"obs.trace_overhead_pct", "%",
               base > 0.0 ? (main_timing_ns(w, traced) - base) / base * 100.0
                          : 0.0});
  return m;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
         ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return s + "}";
}

// ---------------------------------------------------------------------------
// Entry points.

Workload parse_workload(const std::string& s) {
  if (s == "offline") return Workload::kOffline;
  if (s == "stream") return Workload::kStream;
  if (s == "serve") return Workload::kServe;
  throw std::invalid_argument("unknown workload '" + s +
                              "' (offline | stream | serve)");
}

void run_phase(Workload w, Deployment& d, const Traffic& t,
               const Reference& ref, double seconds, bool traced, int cpu,
               Phase& ph) {
  cdl::obs::Tracer::instance().set_enabled(traced);
  cdl::obs::LayerProfiler::instance().set_enabled(traced);
  cdl::obs::LayerProfiler::instance().clear();
  switch (w) {
    case Workload::kOffline:
      run_offline(d, t, ref, seconds, traced, cpu, ph);
      break;
    case Workload::kStream:
      run_stream(d, t, ref, seconds, traced, cpu, ph);
      break;
    case Workload::kServe:
      run_serve(d, t, ref, seconds, traced, cpu, ph);
      break;
  }
  cdl::obs::Tracer::instance().set_enabled(false);
  cdl::obs::LayerProfiler::instance().set_enabled(false);
  if (traced) ph.trace_dropped = cdl::obs::Tracer::instance().dropped();
}

int run_main(const cdl::ArgParser& args) {
  const Workload w = parse_workload(args.get("workload"));
  const std::uint64_t seed = args.get_size("seed");
  const double seconds = args.get_double("seconds");
  const bool trace = args.get_size("trace") != 0;
  const bool smoke = args.get_flag("smoke");
  const std::string weights = args.get("weights");
  if (!std::filesystem::exists(weights + "/COMPLETE")) {
    throw std::runtime_error("no trained checkpoints in " + weights +
                             " (run the train mode first)");
  }
  if (seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");

  const int cpu = pin_to_one_cpu();

  if (trace) cdl::obs::Tracer::instance().set_ring_capacity(1U << 20);

  // Untimed preparation: fixed validation/calibration data and traffic.
  const FixedData fixed = make_fixed_data();
  // A traced run splits its time: the traced part is capped so the
  // in-memory trace stays complete (no ring overwrites) and writable.
  const double traced_s = trace ? std::min(seconds / 2, kMaxTracedSeconds) : 0;
  const double plain_s = seconds - traced_s;
  const Traffic traffic =
      make_traffic(w, seed, w == Workload::kServe ? plain_s : 0.0, smoke);
  const std::vector<Tensor> warm(
      traffic.images.begin(),
      traffic.images.begin() + static_cast<std::ptrdiff_t>(
                                   w == Workload::kOffline ? kOfflineBatch : 1));

  // Set-up, repeated; the last deployment is the one measured.
  std::vector<double> setup_samples;
  Deployment d;
  const std::size_t setups = smoke ? 1 : kSetups;
  for (std::size_t i = 0; i < setups; ++i) {
    d = Deployment{};  // tear the previous one down before timing the next
    d = set_up(w, weights, fixed, warm);
    setup_samples.push_back(d.times.total_s());
  }
  const Reference ref = make_reference(d, traffic);
  const std::uint64_t ref_mismatched = batch_path_mismatches(d, traffic, ref);

  Phase plain;
  Phase traced;
  run_phase(w, d, traffic, ref, plain_s, false, cpu, plain);
  if (w == Workload::kServe && trace) {
    // A drained engine accepts no more work: serve the traced part from a
    // fresh deployment (its set-up is not part of any metric).
    d = set_up(w, weights, fixed, warm);
  }
  if (trace) run_phase(w, d, traffic, ref, traced_s, true, cpu, traced);

  const Totals tp = totals(plain);
  const Totals tt = totals(traced);
  const std::uint64_t mismatched = tp.mismatched + tt.mismatched;
  const bool mismatch = mismatched + ref_mismatched > 0;
  const bool unreconciled = trace && (traced.reconcile_failures > 0 ||
                                      traced.trace_dropped > 0);

  std::string trace_file;
  if (trace && !args.get("trace-out").empty()) {
    trace_file = args.get("trace-out");
    std::filesystem::create_directories(
        std::filesystem::path(trace_file).parent_path());
    std::ofstream os(trace_file);
    cdl::obs::Tracer::instance().write_chrome_trace(os);
    if (!os) throw std::runtime_error("cannot write " + trace_file);
  }

  // Host and build record.
  std::string cpus;
  for (const int c : allowed_cpus()) {
    cpus += (cpus.empty() ? "" : ",") + std::to_string(c);
  }
  std::string setups_js;
  for (const double s : setup_samples) {
    setups_js += (setups_js.empty() ? "" : ", ") + json_num(s);
  }
  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %s, \"traffic_digest\": %s, "
      "\"traffic_images\": %zu, \"serve_requests\": %zu, "
      "\"nproc\": %u, \"pinned_cpus\": [%s], "
      "\"qgemm_tier\": %s, \"act_tier\": %s, \"conv_tier\": %s, "
      "\"qconv_tier\": %s, \"build_type\": %s, \"build_flags\": %s, "
      "\"compiler\": %s, \"git_describe\": %s, \"source_hash\": %s, "
      "\"steal_ticks\": %llu, \"delta\": {\"2C\": %s, \"3C\": %s}, "
      "\"setup_s_samples\": [%s], \"rounds\": [%zu, %zu], "
      "\"reference_batch_mismatched\": %llu, "
      "\"reconciled\": %llu, \"reconcile_failures\": %llu, "
      "\"reconcile_max_err_us\": %s, \"trace_dropped\": %llu, "
      "\"trace_file\": %s}}\n",
      json_str(args.get("workload")).c_str(),
      static_cast<unsigned long long>(seed), json_num(seconds).c_str(),
      trace ? 1 : 0, smoke ? "true" : "false",
      json_str(traffic.digest).c_str(), traffic.images.size(),
      traffic.arrival_ns.size(), std::thread::hardware_concurrency(),
      cpus.c_str(), json_str(cdl::to_string(cdl::qgemm_tier())).c_str(),
      json_str(cdl::act_dispatch_tier()).c_str(),
      json_str(cdl::conv_dispatch_tier()).c_str(),
      json_str(cdl::qconv_dispatch_tier()).c_str(),
      json_str(CDL_BUILD_TYPE).c_str(), json_str(CDL_BUILD_FLAGS).c_str(),
      json_str(CDL_COMPILER).c_str(), json_str(CDL_GIT_DESCRIBE).c_str(),
      json_str(args.get("source-hash")).c_str(),
      static_cast<unsigned long long>(plain.steal_ticks + traced.steal_ticks),
      json_num(d.delta[0]).c_str(), json_num(d.delta[1]).c_str(),
      setups_js.c_str(), plain.rounds, traced.rounds,
      static_cast<unsigned long long>(ref_mismatched),
      static_cast<unsigned long long>(traced.reconciled),
      static_cast<unsigned long long>(traced.reconcile_failures),
      json_num(traced.reconcile_max_err_us).c_str(),
      static_cast<unsigned long long>(traced.trace_dropped),
      json_str(trace_file).c_str());

  if (mismatched > 0) {
    std::fprintf(stderr,
                 "error: %llu timed result(s) differ from the per-image "
                 "classify() reference\n",
                 static_cast<unsigned long long>(mismatched));
  }
  if (ref_mismatched > 0) {
    std::fprintf(stderr,
                 "error: %llu classify_batch_into result(s) differ from the "
                 "per-image classify() reference\n",
                 static_cast<unsigned long long>(ref_mismatched));
  }
  if (unreconciled) {
    std::fprintf(stderr,
                 "error: traced run does not reconcile (%llu of %llu, max "
                 "error %.3f us, %llu trace events dropped)\n",
                 static_cast<unsigned long long>(traced.reconcile_failures),
                 static_cast<unsigned long long>(traced.reconciled),
                 traced.reconcile_max_err_us,
                 static_cast<unsigned long long>(traced.trace_dropped));
  }
  const std::vector<Metric> metrics =
      trace ? per_layer(w, plain, traced, d)
            : end_to_end(w, plain, d, median_of(setup_samples));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              mismatch || unreconciled ? "false" : "true",
              static_cast<unsigned long long>(tp.attempted + tt.attempted),
              static_cast<unsigned long long>(tp.failed + tt.failed +
                                              ref_mismatched),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return mismatch || unreconciled ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  cdl::ArgParser args;
  args.add_option("workload", "offline", "offline | stream | serve");
  args.add_option("seed", "1", "workload seed (traffic only)");
  args.add_option("seconds", "10", "measured seconds");
  args.add_option("trace", "0", "1 = traced run (per-layer metrics)");
  args.add_option("weights", ".bench_build/weights", "checkpoint directory");
  args.add_option("trace-out", "", "Chrome trace file (traced runs)");
  args.add_option("source-hash", "", "source fingerprint for the record");
  args.add_flag("smoke", "tiny traffic and a single set-up");
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    args.parse(argc - 1, argv + 1);
    if (mode == "train") return train_main(args.get("weights"));
    if (mode == "run") return run_main(args);
    throw std::invalid_argument("first argument must be 'train' or 'run'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n%s", e.what(),
                 args.help("cdl_perfbench train|run").c_str());
    return 2;
  }
}
