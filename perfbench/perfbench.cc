// perfbench: the repository benchmark.
//
// Drives the public MILR API from one process — runtime::ServingHost and
// its ModelRuntime handles (Submit/TrySubmit, InjectFault, Snapshot),
// nn::Model and nn::Layer, core::MilrProtector — through one of three
// workloads:
//
//   steady_mlp         the L2-resident dense MLP at the fast tier: the
//                      request path (admission, queue, scheduler, futures)
//                      does most of the work
//   cohost_paper_nets  the paper's three networks on one host at the
//                      exact, fast and int8 tiers: conv kernels, DRR
//                      scheduling and scrub cost dominate
//   fault_storm        cifar_small at the int8 tier while whole-weight
//                      errors land on a fixed schedule through both loops:
//                      MILR recovery interleaves with serving on one model
//                      lock
//
// A run is: set-up (kSetupReps times, median reported), warm-up, a
// closed-loop phase, an open-loop Poisson phase, then — outside
// fault_storm, whose faults land during both phases — a repair drill.
// --trace 0 reports the end-to-end metrics. --trace 1 records spans around
// every call the benchmark makes into the program, probes every layer once
// serving has stopped, and reports the per-layer metrics; --trace-out
// writes its spans as a Chrome trace. The last stdout line is one JSON
// object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// perfbench/run.py builds this binary and is the supported entry point;
// perfbench/README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/networks.h"
#include "memory/fault_injector.h"
#include "milr/protector.h"
#include "nn/init.h"
#include "nn/kernel_registry.h"
#include "nn/model.h"
#include "runtime/serving_host.h"
#include "stats.h"
#include "support/bytes.h"
#include "support/prng.h"

namespace {

using milr::Tensor;
namespace nn = milr::nn;
namespace rt = milr::runtime;
using perfbench::Median;
using perfbench::Tail;

// --------------------------------------------------------------- constants
// Every knob is fixed here; nothing is calibrated from the run itself.

/// Serving threads. With the scrubber and the load generator this fills
/// four cores. MILR_THREADS=1 keeps every library loop serial, so no other
/// thread competes (the pool pins its workers' loops serial anyway).
constexpr std::size_t kPoolThreads = 2;
constexpr const char* kMilrThreads = "1";
/// Kernel-registry autotune budget per GEMM shape (the library default).
constexpr const char* kAutotuneMs = "50";
constexpr std::size_t kSetupReps = 3;
constexpr double kWarmupSeconds = 1.0;
/// Share of --seconds spent in the closed loop; the rest is open loop.
constexpr double kClosedShare = 0.4;
/// Closed-loop throughput: the median over windows about this long.
constexpr double kThroughputWindowSeconds = 0.5;
/// Open-loop percentiles: the median over at most this many slices
/// (perfbench::SlicedTail). Short slices keep the host's occasional
/// 10-20 ms stalls, each caught by one slice, out of the median.
constexpr std::size_t kLatencySlices = 50;
constexpr std::size_t kProbesPerModel = 64;
/// A probe is kept only if its top-1 logit leads the runner-up by this
/// share of the logit range, so top-1 checks never hinge on rounding.
constexpr double kMinTop1Margin = 0.02;
constexpr std::size_t kQueueCapacity = 1024;
constexpr auto kBatchLinger = std::chrono::microseconds(200);
/// Snapshot poll interval while waiting for a repair or a scrub pass.
constexpr double kPollSeconds = 250e-6;
/// Open loop: longest wait on one answer before the others are polled.
constexpr double kAnswerPollSeconds = 100e-6;
constexpr double kRepairTimeoutSeconds = 5.0;
/// Traced run: timed calls per probe (median reported); protector init,
/// cache rebuilds and recoveries are slower and get fewer, down to one
/// once a probe has spent kSlowProbeBudgetMs (a dense re-solve of the
/// paper's nets takes seconds on one core).
constexpr std::size_t kProbeReps = 15;
constexpr std::size_t kSlowProbeReps = 3;
constexpr double kSlowProbeBudgetMs = 1000.0;

/// Seed streams derived from --seed.
enum Stream : std::uint64_t {
  kWeightStream = 1,
  kProbeStream = 100,
  kTrafficStream = 200,
  kScheduleStream = 300,
  kFaultStream = 400,
  kProbeFaultStream = 500,
};

struct NetSpec {
  const char* net;
  nn::KernelConfig tier;
};

struct Workload {
  const char* name;
  std::vector<NetSpec> nets;  // equal traffic shares
  std::size_t max_batch;
  int scrub_period_ms;
  std::size_t client_window;  // closed loop: requests kept outstanding
  double open_rate_rps;       // open loop: offered Poisson rate, all models
  double limit_ms;            // open loop: latency limit
  double fault_period_ms;     // > 0: one fault event per period, throughout
  std::size_t fault_weights;  // whole-weight errors per fault event
  std::size_t drill_events;   // no storm: repair-drill events after serving
  // Open-loop percentile reported as latency_tail_ms: the highest one whose
  // run-to-run spread on a shared 4-vCPU host stays within its bound.
  double tail_quantile;
};

const std::vector<Workload>& Workloads() {
  using K = nn::KernelConfig;
  // steady_mlp's tail is p90: on a shared host its sub-millisecond p99
  // doubles or more in runs where the hypervisor steals CPU time, and such
  // phases last minutes; its p90 moves by under a fifth. fault_storm
  // keeps p99: its p90 falls on the edge of the requests that waited out a
  // quarantine, and swings by 2x with how many did.
  static const std::vector<Workload> workloads = {
      // 3000/s keeps the small open-loop batches well inside what two
      // workers serve even when a busy host halves their speed; near
      // capacity such a phase turns into a queue that grows for seconds.
      {"steady_mlp", {{"dense", K::kFast}}, 8, 10, 32, 3000.0, 5.0, 0.0, 1,
       100, 0.90},
      {"cohost_paper_nets",
       {{"mnist", K::kExact}, {"cifar_small", K::kFast},
        {"cifar_large", K::kInt8}},
       8, 50, 48, 150.0, 250.0, 0.0, 1, 100, 0.99},
      // A client window of 2: with more requests outstanding, the
      // reader-preferring model lock starves InjectFault and the
      // quarantine for most of a second at a time.
      {"fault_storm", {{"cifar_small", K::kInt8}}, 8, 10, 2, 60.0, 300.0,
       140.0, 2, 0, 0.99},
  };
  return workloads;
}

// ------------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}
double Now() { return static_cast<double>(NowNs()) * 1e-9; }
std::int64_t ToNs(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

void SleepFor(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

// ------------------------------------------------------------------ spans

std::atomic<std::uint64_t> g_span_ids{0};
std::uint64_t NewSpanId() {
  return g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One thread's spans, kept in memory; logs are merged after every thread
/// has joined.
struct SpanLog {
  bool on = false;
  std::vector<perfbench::Span> spans;

  void Add(std::uint64_t id, const char* name, std::int64_t begin,
           std::int64_t end, std::uint64_t parent = 0,
           std::uint64_t request = 0) {
    if (on) spans.push_back({id, parent, request, name, begin, end});
  }
};

/// Times `fn` into a span under `parent`; returns milliseconds.
template <typename Fn>
double Timed(SpanLog& log, const char* name, std::uint64_t parent, Fn&& fn) {
  const std::int64_t begin = NowNs();
  fn();
  const std::int64_t end = NowNs();
  log.Add(NewSpanId(), name, begin, end, parent);
  return static_cast<double>(end - begin) * 1e-6;
}

/// True once the timed calls in `times` (ms) used up kSlowProbeBudgetMs.
bool SpentBudget(const std::vector<double>& times) {
  double spent = 0.0;
  for (const double t : times) spent += t;
  return spent >= kSlowProbeBudgetMs;
}

// ----------------------------------------------------------------- models

nn::Model BuildNet(const std::string& net, std::uint64_t seed) {
  nn::Model model = [&net] {
    if (net == "mnist") return milr::apps::BuildMnistNetwork();
    if (net == "cifar_small") return milr::apps::BuildCifarSmallNetwork();
    if (net == "cifar_large") return milr::apps::BuildCifarLargeNetwork();
    if (net != "dense") throw std::invalid_argument("unknown net " + net);
    // The L2-resident dense MLP (~1.5 MB of fp32 weights).
    nn::Model mlp(milr::Shape{256});
    mlp.AddDense(320).AddBias().AddReLU();
    mlp.AddDense(320).AddBias().AddReLU();
    mlp.AddDense(320).AddBias().AddReLU();
    mlp.AddDense(256).AddBias().AddReLU();
    mlp.AddDense(10).AddBias();
    return mlp;
  }();
  nn::InitHeUniform(model, seed);
  return model;
}

std::size_t ArgMax(const Tensor& t) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

/// The top-1 logit's lead over the runner-up, as a share of the logit range.
double Top1Margin(const Tensor& t) {
  if (t.size() < 2) return 1.0;
  const std::size_t best = ArgMax(t);
  float second = -std::numeric_limits<float>::infinity();
  float lowest = t[best];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i != best) second = std::max(second, t[i]);
    lowest = std::min(lowest, t[i]);
  }
  const double range = static_cast<double>(t[best]) - lowest;
  return range > 0.0 ? (static_cast<double>(t[best]) - second) / range : 0.0;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor Stack(const std::vector<Tensor>& rows, std::size_t count) {
  const std::size_t stride = rows.front().size();
  Tensor out(milr::WithBatchAxis(count, rows.front().shape()));
  for (std::size_t i = 0; i < count; ++i) {
    std::copy_n(rows[i].data(), stride, out.data() + i * stride);
  }
  return out;
}

/// Seeded probe inputs with their clean answers at one tier.
struct Probes {
  std::vector<Tensor> inputs;
  std::vector<Tensor> clean;      // the tier's answer, one probe per batch
  std::vector<std::size_t> top1;  // argmax of `clean`
};

/// Draws probes whose clean answer has a clear top-1 margin. For the
/// bitwise-checked tiers (exact, int8) it also confirms that an answer does
/// not depend on batch composition: one stacked batch must reproduce every
/// single-probe answer bit for bit.
Probes MakeProbes(const NetSpec& spec, std::uint64_t weight_seed,
                  std::uint64_t probe_seed) {
  nn::Model model = BuildNet(spec.net, weight_seed);
  model.set_kernel_config(spec.tier);
  milr::Prng prng(probe_seed);
  Probes probes;
  for (std::size_t drawn = 0; probes.inputs.size() < kProbesPerModel;
       ++drawn) {
    if (drawn > 50 * kProbesPerModel) {
      throw std::runtime_error(std::string(spec.net) +
                               ": too few probes with a clear top-1 margin");
    }
    Tensor input = milr::RandomTensor(model.input_shape(), prng);
    Tensor clean = model.Predict(input);
    if (Top1Margin(clean) < kMinTop1Margin) continue;
    probes.top1.push_back(ArgMax(clean));
    probes.inputs.push_back(std::move(input));
    probes.clean.push_back(std::move(clean));
  }
  if (spec.tier != nn::KernelConfig::kFast) {
    const std::vector<Tensor> stacked = model.PredictBatch(probes.inputs);
    for (std::size_t i = 0; i < stacked.size(); ++i) {
      if (!SameBits(stacked[i], probes.clean[i])) {
        throw std::runtime_error(std::string(spec.net) +
                                 ": answers depend on batch composition");
      }
    }
  }
  return probes;
}

/// The fault pattern of one event: `count` distinct weights of layer
/// `index` with all 32 bits flipped (memory::InjectExactWeightErrors'
/// pattern, confined to one layer).
milr::memory::InjectionReport CorruptWeights(nn::Model& model,
                                             std::size_t index,
                                             std::size_t count,
                                             milr::Prng& prng) {
  const std::span<float> params = model.layer(index).Params();
  count = std::min(count, params.size());
  std::set<std::size_t> chosen;
  while (chosen.size() < count) chosen.insert(prng.NextBelow(params.size()));
  for (const std::size_t i : chosen) {
    params[i] = milr::FloatFromBits(milr::FloatBits(params[i]) ^ 0xffffffffu);
  }
  milr::memory::InjectionReport report;
  report.corrupted_weights = count;
  report.flipped_bits = 32 * count;
  report.touched_layers = {index};
  return report;
}

/// Layers fault events hit: every layer with parameters except dense ones,
/// unless the model has no conv layer (the MLP). On one core MILR re-solves
/// a dense layer of the paper's nets in 0.3-6 s (milr.recover_dense_ms
/// reports it), so dense hits would turn each event into one long outage
/// and leave too few events per run to measure.
std::vector<std::size_t> FaultTargets(nn::Model& model) {
  std::vector<std::size_t> all, non_dense;
  bool has_conv = false;
  model.ForEachParamLayer([&](std::size_t i, nn::Layer& layer) {
    all.push_back(i);
    if (layer.kind() != nn::LayerKind::kDense) non_dense.push_back(i);
    has_conv = has_conv || layer.kind() == nn::LayerKind::kConv2D;
  });
  return has_conv ? non_dense : all;
}

// ------------------------------------------------------------- accounting

/// Sent / succeeded / failed for one phase. A failure is an exception, a
/// rejection, or a wrong answer to a request sent after the last fault was
/// seen repaired and answered before the next fault landed. Wrong answers
/// inside a fault window are counted apart and are neither.
struct PhaseCounts {
  std::string name;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t rejected = 0;
  std::size_t errors = 0;
  std::size_t wrong = 0;
  std::size_t wrong_in_fault_window = 0;

  std::size_t failed() const { return rejected + errors + wrong; }
  void Merge(const PhaseCounts& o) {
    sent += o.sent;
    succeeded += o.succeeded;
    rejected += o.rejected;
    errors += o.errors;
    wrong += o.wrong;
    wrong_in_fault_window += o.wrong_in_fault_window;
  }
};

/// Fault events and their repair times.
struct RepairLog {
  std::size_t events = 0;
  std::size_t timeouts = 0;
  std::vector<double> repair_ms;  // InjectFault returned -> recoveries rose
  std::vector<double> inject_ms;  // the InjectFault call itself
  std::vector<double> lag_ms;     // how late a scheduled event started
};

milr::obs::HistogramSnapshot HistDelta(
    const milr::obs::HistogramSnapshot& later,
    const milr::obs::HistogramSnapshot& earlier) {
  milr::obs::HistogramSnapshot delta;
  delta.buckets = later.buckets;
  for (std::size_t i = 0;
       i < earlier.buckets.size() && i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= std::min(delta.buckets[i], earlier.buckets[i]);
  }
  for (const std::uint64_t b : delta.buckets) delta.count += b;
  delta.sum_nanos =
      later.sum_nanos - std::min(later.sum_nanos, earlier.sum_nanos);
  return delta;
}

/// Counter deltas between two per-model snapshot sets.
struct Window {
  double seconds = 0.0;
  std::vector<double> batches;       // per model
  std::vector<double> samples;       // per model: requests in those batches
  std::vector<double> service_ms;    // per model: summed batch service
  std::vector<double> scrub_cycles;  // per model
  double grants = 0.0;
  double linger_skips = 0.0;
  double rejected = 0.0;
  double detections = 0.0;
  double downtime_s = 0.0;
  double availability = 1.0;  // mean over models of 1 - downtime / uptime
  milr::obs::HistogramSnapshot queue_wait;

  static double Sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  }
  double BatchSizeMean() const {
    return Sum(batches) > 0.0 ? Sum(samples) / Sum(batches) : 0.0;
  }
  double ServiceMeanMs() const {
    return Sum(batches) > 0.0 ? Sum(service_ms) / Sum(batches) : 0.0;
  }
};

Window Diff(const std::vector<rt::MetricsSnapshot>& a,
            const std::vector<rt::MetricsSnapshot>& b, double seconds) {
  Window w;
  w.seconds = seconds;
  double availability = 0.0;
  const auto count = [](std::uint64_t later, std::uint64_t earlier) {
    return static_cast<double>(later - earlier);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    const rt::MetricsSnapshot& x = a[i];
    const rt::MetricsSnapshot& y = b[i];
    const double bx = static_cast<double>(x.batches_served);
    const double by = static_cast<double>(y.batches_served);
    w.batches.push_back(by - bx);
    w.samples.push_back(y.batch_size_mean * by - x.batch_size_mean * bx);
    w.service_ms.push_back(y.batch_service_mean_ms * by -
                           x.batch_service_mean_ms * bx);
    w.scrub_cycles.push_back(count(y.scrub_cycles, x.scrub_cycles));
    w.grants += count(y.scheduler_grants, x.scheduler_grants);
    w.linger_skips += count(y.linger_skips, x.linger_skips);
    w.rejected += count(y.requests_rejected, x.requests_rejected);
    w.detections += count(y.detections, x.detections);
    const double down = y.downtime_seconds - x.downtime_seconds;
    const double up = y.uptime_seconds - x.uptime_seconds;
    w.downtime_s += down;
    availability += up > 0.0 ? 1.0 - down / up : 1.0;
    w.queue_wait.Merge(HistDelta(y.queue_wait_hist, x.queue_wait_hist));
  }
  w.availability =
      a.empty() ? 1.0 : availability / static_cast<double>(a.size());
  return w;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------- layer probe

/// One model's traced probe results (traced run only).
struct LayerProbe {
  double predict_batch_ms = 0.0;
  double kind_ms[4] = {};  // conv, dense, pool, other: summed per call
  double predict_sample_ms = 0.0;
  double cache_build_ms = 0.0;
  double cache_rebuild_ms = 0.0;
  double init_ms = 0.0;
  double detect_ms = 0.0;
  double recover_ms[3] = {-1.0, -1.0, -1.0};  // dense, conv, bias; -1: none
  std::size_t recover_failures = 0;

  double LayerSumMs() const {
    return kind_ms[0] + kind_ms[1] + kind_ms[2] + kind_ms[3];
  }
};

constexpr nn::LayerKind kRecoverKinds[3] = {
    nn::LayerKind::kDense, nn::LayerKind::kConv2D, nn::LayerKind::kBias};

int KindSlot(nn::LayerKind kind) {
  switch (kind) {
    case nn::LayerKind::kConv2D:
      return 0;
    case nn::LayerKind::kDense:
      return 1;
    case nn::LayerKind::kMaxPool2D:
    case nn::LayerKind::kAvgPool2D:
      return 2;
    default:
      return 3;
  }
}

// ------------------------------------------------------------------ bench

struct Hosted {
  NetSpec spec{};
  std::string name;
  std::uint64_t weight_seed = 0;
  Probes probes;
  bool bitwise = true;  // check answers bit for bit, else by top-1
  std::unique_ptr<nn::Model> model;
  std::vector<std::vector<float>> golden;
  rt::ServingHost::ModelHandle handle;
  std::vector<std::size_t> fault_targets;  // FaultTargets(*model)
  milr::core::StorageBreakdown storage;
  LayerProbe probe;
};

/// One request in flight.
struct InFlight {
  std::future<Tensor> future;
  std::size_t model = 0;
  std::size_t probe = 0;
  std::uint64_t id = 0;
  std::uint64_t span = 0;
  double due = 0.0;
  std::int64_t sent_ns = 0;
  std::uint64_t fault_epoch = 0;
  bool repaired = true;  // no fault was outstanding when it was sent
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Bench {
 public:
  Bench(const Workload& workload, std::uint64_t seed, double seconds,
        bool traced, std::string trace_out)
      : w_(workload),
        seed_(seed),
        seconds_(seconds),
        traced_(traced),
        trace_out_(std::move(trace_out)),
        traffic_(milr::DeriveSeed(seed, kTrafficStream)) {}

  ~Bench() { TearDown(); }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int Run();

 private:
  rt::ServingHostConfig HostConfig() const {
    rt::ServingHostConfig config;
    config.worker_threads = kPoolThreads;
    config.scrubber_enabled = true;
    config.scrub_period = std::chrono::milliseconds(w_.scrub_period_ms);
    return config;
  }
  rt::ModelRuntimeConfig RuntimeConfig(const NetSpec& spec) const {
    rt::ModelRuntimeConfig config;
    config.queue_capacity = kQueueCapacity;
    config.max_batch = w_.max_batch;
    config.batch_linger = kBatchLinger;
    config.kernel = spec.tier;
    return config;
  }
  bool Storm() const { return w_.fault_period_ms > 0.0; }

  double SetUpOnce();
  void TearDown();
  std::vector<rt::MetricsSnapshot> SnapAll() const;

  bool Matches(const Hosted& h, std::size_t probe, const Tensor& out) const;
  InFlight NewRequest();
  double Resolve(InFlight& r, PhaseCounts& counts, SpanLog& log, bool& ok);
  double ClosedLoop(double seconds, PhaseCounts& counts, bool traced);
  void OpenLoop(double seconds, PhaseCounts& counts,
                perfbench::OpenLoopTally& tally,
                std::vector<perfbench::OpenLoopTally>& per_model);

  void FaultEvent(Hosted& h, std::size_t layer, milr::Prng& prng,
                  RepairLog& log);
  void StormLoop(double start, const std::atomic<bool>& stop,
                 RepairLog& log);
  void Drill(RepairLog& log);

  LayerProbe ProbeLayers(Hosted& h, std::size_t served_batch);
  void PrintPaperCosts() const;
  void WriteTrace() const;

  const Workload& w_;
  std::uint64_t seed_;
  double seconds_;
  bool traced_;
  std::string trace_out_;

  std::vector<Hosted> hosted_;
  std::unique_ptr<rt::ServingHost> host_;

  // Request generation (the generator thread only).
  milr::Prng traffic_;
  std::size_t next_model_ = 0;
  std::uint64_t next_request_ = 0;

  // Fault bookkeeping shared by the fault thread and the answer checks:
  // `repaired_` drops and then the epoch rises before every injection;
  // `repaired_` rises again once the repair is seen.
  std::atomic<std::uint64_t> fault_epoch_{0};
  std::atomic<bool> repaired_{true};

  // One span log per thread: generator, fault thread, probes.
  SpanLog gen_log_, fault_log_, probe_log_;
};

double Bench::SetUpOnce() {
  TearDown();
  nn::KernelRegistry::Get().Reset();  // each set-up tunes its plans afresh
  const double start = Now();
  host_ = std::make_unique<rt::ServingHost>(HostConfig());
  for (Hosted& h : hosted_) {
    h.model = std::make_unique<nn::Model>(BuildNet(h.spec.net, h.weight_seed));
    h.handle = host_->AddModel(*h.model, RuntimeConfig(h.spec), h.name);
  }
  host_->Start();
  for (Hosted& h : hosted_) {
    const Tensor out = h.handle->Submit(Tensor(h.probes.inputs[0])).get();
    if (!Matches(h, 0, out)) {
      throw std::runtime_error(h.name + ": wrong first answer after set-up");
    }
  }
  const double elapsed = Now() - start;
  for (Hosted& h : hosted_) h.golden = h.model->SnapshotParams();
  return elapsed;
}

void Bench::TearDown() {
  host_.reset();  // stops and joins every service thread first
  for (Hosted& h : hosted_) {
    h.handle.reset();
    h.model.reset();
  }
}

std::vector<rt::MetricsSnapshot> Bench::SnapAll() const {
  std::vector<rt::MetricsSnapshot> snaps;
  for (const Hosted& h : hosted_) snaps.push_back(h.handle->Snapshot());
  return snaps;
}

bool Bench::Matches(const Hosted& h, std::size_t probe,
                    const Tensor& out) const {
  if (h.bitwise) return SameBits(out, h.probes.clean[probe]);
  return out.size() == h.probes.clean[probe].size() &&
         ArgMax(out) == h.probes.top1[probe];
}

InFlight Bench::NewRequest() {
  InFlight r;
  r.model = next_model_;
  next_model_ = (next_model_ + 1) % hosted_.size();
  r.probe = traffic_.NextBelow(hosted_[r.model].probes.inputs.size());
  r.id = ++next_request_;
  r.span = NewSpanId();
  // Epoch first: a reader that sees the new epoch also sees repaired_
  // already cleared (FaultEvent clears it before raising the epoch).
  r.fault_epoch = fault_epoch_.load();
  r.repaired = repaired_.load();
  return r;
}

/// Waits for `r`, checks its answer and records its request span. Returns
/// when it resolved; `ok` is false for an exception or a counted wrong
/// answer.
double Bench::Resolve(InFlight& r, PhaseCounts& counts, SpanLog& log,
                      bool& ok) {
  ok = false;
  double done = 0.0;
  try {
    const Tensor out = r.future.get();
    done = Now();
    if (Matches(hosted_[r.model], r.probe, out)) {
      ++counts.succeeded;
      ok = true;
    } else if (r.repaired && fault_epoch_.load() == r.fault_epoch) {
      ++counts.wrong;
    } else {
      ++counts.wrong_in_fault_window;
      ok = true;  // served from deliberately corrupted weights: timed only
    }
  } catch (const std::exception&) {
    done = Now();
    ++counts.errors;
  }
  log.Add(r.span, "request", r.sent_ns, ToNs(done), 0, r.id);
  return done;
}

/// Keeps client_window requests outstanding for `seconds`; returns the
/// completions seen inside that time, per second (perfbench::WindowedRate).
double Bench::ClosedLoop(double seconds, PhaseCounts& counts, bool traced) {
  gen_log_.on = traced;
  std::deque<InFlight> inflight;
  const double begin = Now();
  const double end = begin + seconds;
  std::vector<double> completions;
  const auto retire = [&] {
    InFlight r = std::move(inflight.front());
    inflight.pop_front();
    const std::int64_t wait_begin = NowNs();
    bool ok = false;
    const double done = Resolve(r, counts, gen_log_, ok);
    gen_log_.Add(NewSpanId(), "wait", wait_begin, ToNs(done), r.span, r.id);
    return done;
  };
  while (Now() < end) {
    if (inflight.size() < w_.client_window) {
      InFlight r = NewRequest();
      Hosted& h = hosted_[r.model];
      r.sent_ns = NowNs();
      r.due = static_cast<double>(r.sent_ns) * 1e-9;
      r.future = h.handle->Submit(Tensor(h.probes.inputs[r.probe]));
      gen_log_.Add(NewSpanId(), "submit", r.sent_ns, NowNs(), r.span, r.id);
      ++counts.sent;
      inflight.push_back(std::move(r));
    } else {
      completions.push_back(retire());
    }
  }
  while (!inflight.empty()) retire();
  gen_log_.on = false;
  return perfbench::WindowedRate(completions, begin, end,
                                 kThroughputWindowSeconds);
}

/// Sends on a seeded Poisson schedule regardless of completions and, on the
/// same thread, resolves the answers between sends; every request is timed
/// from its due time. One thread rather than a sender and a waiter: each
/// thread a request passes through is one more that a busy host can stall.
void Bench::OpenLoop(double seconds, PhaseCounts& counts,
                     perfbench::OpenLoopTally& tally,
                     std::vector<perfbench::OpenLoopTally>& per_model) {
  const std::vector<double> schedule = perfbench::PoissonSchedule(
      w_.open_rate_rps, seconds, milr::DeriveSeed(seed_, kScheduleStream));
  gen_log_.on = traced_;

  // Per-model FIFOs: one model's answers arrive roughly in order, so the
  // fronts are the ones to watch.
  std::vector<std::deque<InFlight>> pending(hosted_.size());
  std::size_t open = 0;
  // Resolves every answered front; false if there was none.
  const auto resolve_ready = [&] {
    bool progress = false;
    for (auto& queue : pending) {
      while (!queue.empty() &&
             queue.front().future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        InFlight r = std::move(queue.front());
        queue.pop_front();
        --open;
        progress = true;
        bool ok = false;
        const double done = Resolve(r, counts, gen_log_, ok);
        const double sent = static_cast<double>(r.sent_ns) * 1e-9;
        tally.Completed(r.due, sent, done, ok);
        per_model[r.model].Completed(r.due, sent, done, ok);
      }
    }
    return progress;
  };
  // Waits on the oldest outstanding request, at most kAnswerPollSeconds so
  // that the others are timed within that too.
  const auto await_oldest = [&] {
    InFlight* oldest = nullptr;
    for (auto& queue : pending) {
      if (!queue.empty() &&
          (oldest == nullptr || queue.front().sent_ns < oldest->sent_ns)) {
        oldest = &queue.front();
      }
    }
    if (oldest == nullptr) return;
    (void)oldest->future.wait_for(
        std::chrono::duration<double>(kAnswerPollSeconds));
  };

  const double start = Now();
  for (const double offset : schedule) {
    const double due = start + offset;
    // Spins the last two milliseconds, resolving answers: a sleeping
    // generator can wait milliseconds for a core once the workers are
    // busy, and every such stall would be charged as latency.
    for (;;) {
      const bool progress = resolve_ready();
      const double left = due - Now();
      if (left <= 0.0) break;
      if (left <= 2e-3 || progress) continue;
      if (open > 0) {
        await_oldest();
      } else {
        SleepFor(left - 1e-3);
      }
    }
    InFlight r = NewRequest();
    Hosted& h = hosted_[r.model];
    r.due = due;
    r.sent_ns = NowNs();
    std::optional<std::future<Tensor>> future =
        h.handle->TrySubmit(Tensor(h.probes.inputs[r.probe]));
    gen_log_.Add(NewSpanId(), "submit", r.sent_ns, NowNs(), r.span, r.id);
    ++counts.sent;
    if (!future) {
      ++counts.rejected;
      tally.Rejected(due, static_cast<double>(r.sent_ns) * 1e-9);
      per_model[r.model].Rejected(due, static_cast<double>(r.sent_ns) * 1e-9);
      continue;
    }
    r.future = std::move(*future);
    pending[r.model].push_back(std::move(r));
    ++open;
  }
  while (open > 0) {
    if (!resolve_ready()) await_oldest();
  }
  gen_log_.on = false;
}

/// Injects one fault event into layer `layer` of `h` through InjectFault,
/// waits until the model's recoveries counter rises, then restores the
/// golden weights.
void Bench::FaultEvent(Hosted& h, std::size_t layer, milr::Prng& prng,
                       RepairLog& log) {
  const std::uint64_t event = NewSpanId();
  const std::int64_t begin = NowNs();
  const std::uint64_t before = h.handle->Snapshot().recoveries;
  repaired_.store(false);
  fault_epoch_.fetch_add(1);
  const std::int64_t inject_begin = NowNs();
  h.handle->InjectFault([&](nn::Model& model) {
    if (Storm()) model.RestoreParams(h.golden);
    return CorruptWeights(model, layer, w_.fault_weights, prng);
  });
  const std::int64_t injected = NowNs();
  fault_log_.Add(NewSpanId(), "inject", inject_begin, injected, event);
  log.inject_ms.push_back(static_cast<double>(injected - inject_begin) *
                          1e-6);
  ++log.events;
  for (;;) {
    SleepFor(kPollSeconds);
    const std::int64_t poll_begin = NowNs();
    const std::uint64_t recoveries = h.handle->Snapshot().recoveries;
    const std::int64_t seen = NowNs();
    fault_log_.Add(NewSpanId(), "poll", poll_begin, seen, event);
    if (recoveries > before) {
      log.repair_ms.push_back(static_cast<double>(seen - injected) * 1e-6);
      break;
    }
    if (static_cast<double>(seen - injected) * 1e-9 > kRepairTimeoutSeconds) {
      ++log.timeouts;
      break;
    }
  }
  // MILR's solves recover weights to solver precision, not bit for bit,
  // and a recovered dense layer can be flagged again by later scrub passes.
  // Every event therefore starts from the golden weights: a storm restores
  // them inside the next InjectFault (one exclusive section per event), a
  // drill, which serves nothing meanwhile, right after the repair.
  if (!Storm()) {
    h.handle->WithModelExclusive(
        [&h](nn::Model& model) { model.RestoreParams(h.golden); });
  }
  repaired_.store(true);
  fault_log_.Add(event, "fault_event", begin, NowNs());
}

/// fault_storm: one event per fault_period_ms from `start` until `stop`,
/// round-robin over the hosted models. Each model's events walk its
/// FaultTargets in rounds, every round in a fresh seeded order: the layers
/// hit vary with the seed, but every run repairs each layer equally often
/// (recovery cost differs ~10x between layers). An event due while the
/// previous repair is still pending starts late; the lag is recorded.
void Bench::StormLoop(double start, const std::atomic<bool>& stop,
                      RepairLog& log) {
  fault_log_.on = traced_;
  milr::Prng prng(milr::DeriveSeed(seed_, kFaultStream));
  std::vector<std::vector<std::size_t>> rounds(hosted_.size());
  const double period = w_.fault_period_ms * 1e-3;
  for (std::size_t k = 0;; ++k) {
    const double due = start + static_cast<double>(k) * period;
    while (Now() < due) {
      if (stop.load()) return;
      SleepFor(std::min(due - Now(), 1e-3));
    }
    if (stop.load()) return;
    log.lag_ms.push_back((Now() - due) * 1e3);
    const std::size_t m = k % hosted_.size();
    std::vector<std::size_t>& round = rounds[m];
    if (round.empty()) {
      round = hosted_[m].fault_targets;
      for (std::size_t i = round.size(); i > 1; --i) {
        std::swap(round[i - 1], round[prng.NextBelow(i)]);
      }
    }
    const std::size_t layer = round.back();
    round.pop_back();
    FaultEvent(hosted_[m], layer, prng, log);
  }
}

/// Outside fault_storm: fault events after serving stops. Models take
/// turns and each walks its FaultTargets in order, so every seed repairs
/// the same layers. Each event lands just after a scrub pass ends, so its
/// repair time is one full scrub period plus detection and recovery, not a
/// random share of a period.
void Bench::Drill(RepairLog& log) {
  fault_log_.on = traced_;
  milr::Prng prng(milr::DeriveSeed(seed_, kFaultStream));
  for (std::size_t d = 0; d < w_.drill_events; ++d) {
    Hosted& h = hosted_[d % hosted_.size()];
    const std::int64_t begin = NowNs();
    const std::uint64_t passes = h.handle->Snapshot().scrub_cycles;
    for (const double give_up = Now() + kRepairTimeoutSeconds;
         h.handle->Snapshot().scrub_cycles == passes && Now() < give_up;) {
      SleepFor(kPollSeconds);
    }
    fault_log_.Add(NewSpanId(), "await_scrub_pass", begin, NowNs());
    const std::vector<std::size_t>& targets = h.fault_targets;
    FaultEvent(h, targets[(d / hosted_.size()) % targets.size()], prng, log);
  }
  fault_log_.on = false;
}

/// Traced run, after serving stopped: times the model's public entry
/// points at its serving tier, then MILR's phases, on golden weights
/// (restored after every mutation).
LayerProbe Bench::ProbeLayers(Hosted& h, std::size_t served_batch) {
  SpanLog& log = probe_log_;
  nn::Model& model = *h.model;
  LayerProbe out;
  model.RestoreParams(h.golden);
  const std::uint64_t root = NewSpanId();
  const std::int64_t root_begin = NowNs();
  const Tensor batch = Stack(h.probes.inputs, w_.max_batch);
  // The per-layer pass runs at the batch size the closed loop served, so
  // its sum compares with the served batch time.
  const Tensor served = Stack(h.probes.inputs, served_batch);
  model.PredictBatch(batch);  // warm scratch buffers

  std::vector<double> times;
  for (std::size_t r = 0; r < kProbeReps; ++r) {
    times.push_back(Timed(log, "probe.predict_batch", root,
                          [&] { model.PredictBatch(batch); }));
  }
  out.predict_batch_ms = Median(times);

  std::vector<double> per_kind[4];
  for (std::size_t r = 0; r < kProbeReps; ++r) {
    double sums[4] = {};
    const std::uint64_t pass = NewSpanId();
    const std::int64_t pass_begin = NowNs();
    Tensor x = served;
    for (std::size_t i = 0; i < model.LayerCount(); ++i) {
      const nn::Layer& layer = model.layer(i);
      sums[KindSlot(layer.kind())] +=
          Timed(log, nn::LayerKindName(layer.kind()), pass,
                [&] { x = layer.ForwardBatch(x); });
    }
    log.Add(pass, "probe.layers", pass_begin, NowNs(), root);
    for (int k = 0; k < 4; ++k) per_kind[k].push_back(sums[k]);
  }
  for (int k = 0; k < 4; ++k) out.kind_ms[k] = Median(per_kind[k]);

  // Handing out mutable Params() invalidates every derived weight cache
  // (packed fp32 panels, int8 replicas); the next batch rebuilds them.
  const auto invalidate = [&model] {
    model.ForEachParamLayer(
        [](std::size_t, nn::Layer& layer) { (void)layer.Params(); });
  };
  times.clear();
  for (std::size_t r = 0; r < kSlowProbeReps; ++r) {
    invalidate();
    times.push_back(Timed(log, "probe.first_batch_after_mutation", root,
                          [&] { model.PredictBatch(batch); }));
  }
  out.cache_rebuild_ms = Median(times) - out.predict_batch_ms;

  // The exact per-sample path MILR runs, then the switch back to the
  // serving tier, which rebuilds the caches (plans are already tuned).
  model.set_kernel_config(nn::KernelConfig::kExact);
  model.Predict(h.probes.inputs[0]);
  times.clear();
  for (std::size_t r = 0; r < kProbeReps; ++r) {
    times.push_back(Timed(log, "probe.predict_sample", root,
                          [&] { model.Predict(h.probes.inputs[0]); }));
  }
  out.predict_sample_ms = Median(times);
  times.clear();
  for (std::size_t r = 0; r < kSlowProbeReps; ++r) {
    model.set_kernel_config(nn::KernelConfig::kExact);
    invalidate();
    times.push_back(Timed(log, "probe.set_kernel_config", root,
                          [&] { model.set_kernel_config(h.spec.tier); }));
  }
  out.cache_build_ms = Median(times);

  std::unique_ptr<milr::core::MilrProtector> protector;
  const milr::core::MilrConfig milr_config = RuntimeConfig(h.spec).milr;
  times.clear();
  for (std::size_t r = 0; r < kSlowProbeReps && !SpentBudget(times); ++r) {
    times.push_back(Timed(log, "probe.protector_init", root, [&] {
      protector =
          std::make_unique<milr::core::MilrProtector>(model, milr_config);
    }));
  }
  out.init_ms = Median(times);
  times.clear();
  for (std::size_t r = 0; r < kProbeReps; ++r) {
    times.push_back(Timed(log, "probe.detect", root,
                          [&] { (void)protector->Detect(); }));
  }
  out.detect_ms = Median(times);

  // Recovery of one flagged layer per kind: the largest such layer, hit by
  // one fault event's pattern.
  milr::Prng prng(milr::DeriveSeed(seed_, kProbeFaultStream));
  for (int k = 0; k < 3; ++k) {
    std::size_t target = model.LayerCount();
    std::size_t largest = 0;
    for (std::size_t i = 0; i < model.LayerCount(); ++i) {
      const nn::Layer& layer = model.layer(i);
      if (layer.kind() == kRecoverKinds[k] && layer.ParamCount() > largest) {
        target = i;
        largest = layer.ParamCount();
      }
    }
    if (target == model.LayerCount()) continue;
    times.clear();
    for (std::size_t r = 0; r < kSlowProbeReps && !SpentBudget(times); ++r) {
      CorruptWeights(model, target, w_.fault_weights, prng);
      milr::core::DetectionReport report;
      report.flagged_layers = {target};
      milr::core::RecoveryReport recovery;
      times.push_back(Timed(log, "probe.recover", root, [&] {
        recovery = protector->Recover(report);
      }));
      if (!recovery.all_ok()) ++out.recover_failures;
      model.RestoreParams(h.golden);
    }
    out.recover_ms[k] = Median(times);
  }
  log.Add(root, "probe.model", root_begin, NowNs());
  return out;
}

void Bench::PrintPaperCosts() const {
  std::printf(
      "\npaper costs (Tables V/VII/IX storage, Table X detection, Fig. 11 "
      "recovery):\n");
  std::printf("  %-12s %10s %10s %7s %9s %9s %9s %9s %9s %7s %6s\n", "net",
              "params_B", "storage_B", "ratio", "ckpt_B", "final_B", "sig_B",
              "solve_B", "dummy_B", "crc_B", "seed_B");
  for (const Hosted& h : hosted_) {
    const auto& s = h.storage;
    const std::size_t params = h.model->TotalParamBytes();
    std::printf(
        "  %-12s %10zu %10zu %7.4f %9zu %9zu %9zu %9zu %9zu %7zu %6zu\n",
        h.spec.net, params, s.total(),
        static_cast<double>(s.total()) / static_cast<double>(params),
        s.checkpoint_bytes, s.final_output_bytes, s.signature_bytes,
        s.dense_solve_bytes, s.dummy_output_bytes, s.crc_bytes,
        s.seed_bytes);
  }
  if (!traced_) return;
  std::printf("  %-12s %10s %10s %14s %14s %14s\n", "net", "init_ms",
              "detect_ms", "recover_dense", "recover_conv", "recover_bias");
  for (const Hosted& h : hosted_) {
    const LayerProbe& p = h.probe;
    char cells[3][32];
    for (int k = 0; k < 3; ++k) {
      if (p.recover_ms[k] < 0.0) {
        std::snprintf(cells[k], sizeof(cells[k]), "n/a");
      } else {
        std::snprintf(cells[k], sizeof(cells[k]), "%.3f ms", p.recover_ms[k]);
      }
    }
    std::printf("  %-12s %10.3f %10.3f %14s %14s %14s\n", h.spec.net,
                p.init_ms, p.detect_ms, cells[0], cells[1], cells[2]);
  }
}

/// Prints self time per span name and writes every span, with its self
/// time, as a Chrome trace (chrome://tracing, ui.perfetto.dev).
void Bench::WriteTrace() const {
  const SpanLog* logs[3] = {&gen_log_, &fault_log_, &probe_log_};
  std::vector<perfbench::Span> all;
  std::vector<int> thread;
  for (int t = 0; t < 3; ++t) {
    for (const perfbench::Span& s : logs[t]->spans) {
      all.push_back(s);
      thread.push_back(t);
    }
  }
  const std::vector<std::int64_t> self = perfbench::SelfTimes(all);
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Totals& t = by_name[all[i].name];
    ++t.count;
    t.total_ms += static_cast<double>(all[i].end_ns - all[i].begin_ns) * 1e-6;
    t.self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::printf("\nspans (benchmark side; self = span minus child spans):\n");
  std::printf("  %-34s %9s %12s %12s\n", "name", "count", "total_ms",
              "self_ms");
  for (const auto& [name, t] : by_name) {
    std::printf("  %-34s %9zu %12.3f %12.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
  if (trace_out_.empty()) return;
  std::FILE* file = std::fopen(trace_out_.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out_.c_str());
    return;
  }
  static const char* kThreadNames[3] = {"generator", "faults", "probes"};
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (int t = 0; t < 3; ++t) {
    std::fprintf(file,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}},\n",
                 t, kThreadNames[t]);
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const perfbench::Span& s = all[i];
    std::fprintf(
        file,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"request\":%llu,\"self_us\":%.3f}}\n",
        i == 0 ? "" : ",", s.name, thread[i],
        static_cast<double>(s.begin_ns) * 1e-3,
        static_cast<double>(s.end_ns - s.begin_ns) * 1e-3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request),
        static_cast<double>(self[i]) * 1e-3);
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);
  std::printf("  trace: %zu spans -> %s\n", all.size(), trace_out_.c_str());
}

void PrintHost() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool avx512f = __builtin_cpu_supports("avx512f");
  const bool vnni = __builtin_cpu_supports("avx512vnni");
#else
  const bool avx2 = false, avx512f = false, vnni = false;
#endif
  const char* source = std::getenv("PERFBENCH_SOURCE");
  std::printf(
      "host: {\"nproc\": %u, \"avx2\": %s, \"avx512f\": %s, "
      "\"avx512_vnni\": %s, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"source\": \"%s\", \"MILR_THREADS\": \"%s\", "
      "\"autotune_budget_ms\": %.1f, \"pool_threads\": %zu}\n",
      std::thread::hardware_concurrency(), avx2 ? "true" : "false",
      avx512f ? "true" : "false", vnni ? "true" : "false",
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      source != nullptr ? source : "unknown", std::getenv("MILR_THREADS"),
      nn::KernelRegistry::Get().autotune_budget_ms(), kPoolThreads);
}

void PrintPhase(const PhaseCounts& c) {
  std::printf(
      "  %-8s sent %8zu  succeeded %8zu  failed %5zu  (rejected %zu, "
      "errors %zu, wrong %zu)  wrong inside fault windows %zu\n",
      c.name.c_str(), c.sent, c.succeeded, c.failed(), c.rejected, c.errors,
      c.wrong, c.wrong_in_fault_window);
}

int Bench::Run() {
  PrintHost();
  std::printf(
      "workload %s: seed %llu, %.1f s measured (%.0f%% closed loop), "
      "max_batch %zu, linger %lld us, scrub period %d ms, client window %zu, "
      "open loop %.0f req/s, limit %.1f ms, ",
      w_.name, static_cast<unsigned long long>(seed_), seconds_,
      kClosedShare * 100.0, w_.max_batch,
      static_cast<long long>(kBatchLinger.count()), w_.scrub_period_ms,
      w_.client_window, w_.open_rate_rps, w_.limit_ms);
  if (Storm()) {
    std::printf("faults: %zu weights every %.0f ms\n", w_.fault_weights,
                w_.fault_period_ms);
  } else {
    std::printf("repair drill: %zu events of %zu weight(s)\n",
                w_.drill_events, w_.fault_weights);
  }

  // Probes and their clean answers come from separate model instances with
  // the same seeded weights as the served ones.
  for (std::size_t i = 0; i < w_.nets.size(); ++i) {
    Hosted h;
    h.spec = w_.nets[i];
    h.name = std::string(h.spec.net) + "_" +
             nn::KernelConfigName(h.spec.tier);
    h.weight_seed = milr::DeriveSeed(seed_, kWeightStream + i);
    h.probes = MakeProbes(h.spec, h.weight_seed,
                          milr::DeriveSeed(seed_, kProbeStream + i));
    // Exact and int8 answers do not depend on batch composition: check
    // them bit for bit. A storm serves MILR-recovered weights between
    // events, which match golden to solver precision only: check by top-1.
    h.bitwise = h.spec.tier != nn::KernelConfig::kFast && !Storm();
    hosted_.push_back(std::move(h));
  }

  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupReps; ++r) setup_s.push_back(SetUpOnce());
  const nn::KernelRegistry::Stats registry = nn::KernelRegistry::Get().stats();
  std::size_t storage_bytes = 0, param_bytes = 0;
  for (Hosted& h : hosted_) {
    h.fault_targets = FaultTargets(*h.model);
    h.storage = h.handle->protector().Storage();
    storage_bytes += h.storage.total();
    param_bytes += h.model->TotalParamBytes();
  }
  std::printf(
      "setup: %zu reps, median %.3f s (min %.3f, max %.3f); autotune %zu "
      "plans in %.1f ms\n",
      setup_s.size(), Median(setup_s),
      *std::min_element(setup_s.begin(), setup_s.end()),
      *std::max_element(setup_s.begin(), setup_s.end()), registry.plans,
      registry.total_tune_ms);

  PhaseCounts warmup{"warmup"};
  ClosedLoop(kWarmupSeconds, warmup, false);

  const double closed_s = seconds_ * kClosedShare;
  const double open_s = seconds_ - closed_s;
  PhaseCounts closed{"closed"};
  PhaseCounts open{"open"};
  perfbench::OpenLoopTally tally(w_.limit_ms * 1e-3);
  std::vector<perfbench::OpenLoopTally> per_model(
      hosted_.size(), perfbench::OpenLoopTally(w_.limit_ms * 1e-3));
  RepairLog repairs;
  double throughput = 0.0, untraced_rps = 0.0, traced_rps = 0.0;

  // fault_storm's faults land on their fixed schedule from the start of
  // the closed loop to the end of the open loop. The guard joins the storm
  // thread on every exit path.
  std::atomic<bool> stop{false};
  std::string storm_error;
  std::thread storm;
  struct JoinOnExit {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~JoinOnExit() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } join_on_exit{stop, storm};

  const auto s0 = SnapAll();
  const double t0 = Now();
  if (Storm()) {
    storm = std::thread([&] {
      try {
        StormLoop(t0, stop, repairs);
      } catch (const std::exception& e) {
        storm_error = e.what();
      }
    });
  }
  if (!traced_) {
    throughput = ClosedLoop(closed_s, closed, false);
  } else {
    // Untraced and traced slices in ABBA order, so drift cancels out of
    // the tracing overhead.
    const double slice = closed_s / 4.0;
    const double plain_a = ClosedLoop(slice, closed, false);
    const double traced_a = ClosedLoop(slice, closed, true);
    const double traced_b = ClosedLoop(slice, closed, true);
    const double plain_b = ClosedLoop(slice, closed, false);
    untraced_rps = (plain_a + plain_b) / 2.0;
    traced_rps = (traced_a + traced_b) / 2.0;
  }
  const auto s1 = SnapAll();
  const double t1 = Now();
  OpenLoop(open_s, open, tally, per_model);
  stop.store(true);
  if (storm.joinable()) storm.join();
  if (!storm_error.empty()) throw std::runtime_error(storm_error);
  const auto s2 = SnapAll();
  const double t2 = Now();
  if (!Storm()) Drill(repairs);
  const auto s3 = SnapAll();
  const double t3 = Now();
  host_->Stop();
  const double peak_rss_mb = PeakRssMb();

  std::printf("phases:\n");
  PrintPhase(warmup);
  PrintPhase(closed);
  PrintPhase(open);
  std::printf(
      "  faults   events %zu  repaired %zu  failed %zu (not repaired within "
      "%.0f s)",
      repairs.events, repairs.repair_ms.size(), repairs.timeouts,
      kRepairTimeoutSeconds);
  if (!repairs.lag_ms.empty()) {
    std::printf("  started late: median %.3f ms, max %.3f ms",
                Median(repairs.lag_ms),
                *std::max_element(repairs.lag_ms.begin(),
                                  repairs.lag_ms.end()));
  }
  std::printf("\n");

  const Window closed_w = Diff(s0, s1, t1 - t0);
  const Window open_w = Diff(s1, s2, t2 - t1);
  const Window serving_w = Diff(s0, s2, t2 - t0);
  const Window all_w = Diff(s0, s3, t3 - t0);

  std::size_t probe_failures = 0;
  if (traced_) {
    for (std::size_t i = 0; i < hosted_.size(); ++i) {
      Hosted& h = hosted_[i];
      const double batches = closed_w.batches[i];
      const std::size_t served_batch =
          batches > 0.0 ? static_cast<std::size_t>(std::max(
                              1.0, std::round(closed_w.samples[i] / batches)))
                        : w_.max_batch;
      h.probe = ProbeLayers(h, served_batch);
      probe_failures += h.probe.recover_failures;
    }
  }
  PrintPaperCosts();

  // Open-loop percentiles per model, then their mean: models get equal
  // traffic, and a percentile of the pooled mix would sit on the boundary
  // between one model's latencies and the next.
  double latency_p50_s = 0.0, latency_tail_s = 0.0;
  perfbench::TailStat latency_tail;
  std::printf("\nopen-loop latency by model (due -> resolved):\n");
  for (std::size_t i = 0; i < hosted_.size(); ++i) {
    const auto& samples = per_model[i].due_latencies_s();
    const auto sliced = [&](double q) {
      return perfbench::SlicedTail(samples, q, kLatencySlices);
    };
    const perfbench::TailStat p50 = sliced(0.5);
    const perfbench::TailStat tail = sliced(w_.tail_quantile);
    std::printf(
        "  %-22s p50 %9.3f ms  p90 %9.3f ms  p99 %9.3f ms  tail (p%.2f of "
        "%zu) %9.3f ms\n",
        hosted_[i].name.c_str(), p50.value * 1e3, sliced(0.9).value * 1e3,
        sliced(0.99).value * 1e3, tail.q * 100.0, tail.n, tail.value * 1e3);
    const double share = 1.0 / static_cast<double>(hosted_.size());
    latency_p50_s += share * p50.value;
    latency_tail_s += share * tail.value;
    if (i == 0 || tail.q < latency_tail.q) latency_tail = tail;
  }
  const perfbench::TailStat repair_p90 = Tail(repairs.repair_ms, 0.9);
  const double repair_p50 = Tail(repairs.repair_ms, 0.5).value;
  std::vector<Metric> metrics;
  if (!traced_) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"throughput_rps", throughput, "1/s"},
        {"latency_p50_ms", latency_p50_s * 1e3, "ms"},
        {"latency_tail_ms", latency_tail_s * 1e3, "ms"},
        {"slo_met_share", 1.0 - tally.miss_share(), "ratio"},
        {"availability", serving_w.availability, "ratio"},
        {"repair_p50_ms", repair_p50, "ms"},
        {"repair_p90_ms", repair_p90.value, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"protect_bytes_ratio",
         static_cast<double>(storage_bytes) / static_cast<double>(param_bytes),
         "ratio"},
    };
    std::printf(
        "\nsample counts: open-loop latencies %zu (per-model tail reported as "
        "p%.2f or above), repairs %zu (p90 reported as p%.2f); "
        "slo_miss_share %.6f\n",
        tally.latencies_s().size(), latency_tail.q * 100.0, repair_p90.n,
        repair_p90.q * 100.0, tally.miss_share());
  } else {
    // Models weigh in by the batches they served in the closed loop.
    double weight_sum = 0.0;
    std::vector<perfbench::ServiceSample> service;
    for (std::size_t i = 0; i < hosted_.size(); ++i) {
      weight_sum += closed_w.batches[i];
      service.push_back({closed_w.batches[i], hosted_[i].probe.LayerSumMs(),
                         closed_w.batches[i] > 0.0
                             ? closed_w.service_ms[i] / closed_w.batches[i]
                             : 0.0});
    }
    const auto weighted = [&](auto field) {
      double sum = 0.0;
      for (std::size_t i = 0; i < hosted_.size(); ++i) {
        const double share =
            weight_sum > 0.0 ? closed_w.batches[i] / weight_sum
                             : 1.0 / static_cast<double>(hosted_.size());
        sum += share * field(hosted_[i].probe);
      }
      return sum;
    };
    const auto summed = [&](auto field) {
      double sum = 0.0;
      for (const Hosted& h : hosted_) sum += field(h.probe);
      return sum;
    };
    const auto recover = [&](int k) {
      double sum = 0.0;
      int n = 0;
      for (const Hosted& h : hosted_) {
        if (h.probe.recover_ms[k] >= 0.0) {
          sum += h.probe.recover_ms[k];
          ++n;
        }
      }
      return n > 0 ? sum / n : 0.0;
    };
    std::vector<double> submit_us;
    for (const perfbench::Span& s : gen_log_.spans) {
      if (std::strcmp(s.name, "submit") == 0) {
        submit_us.push_back(static_cast<double>(s.end_ns - s.begin_ns) *
                            1e-3);
      }
    }
    double scrub_cycles = 0.0, scrub_busy_ms = 0.0;
    for (std::size_t i = 0; i < hosted_.size(); ++i) {
      scrub_cycles += serving_w.scrub_cycles[i];
      scrub_busy_ms += serving_w.scrub_cycles[i] * hosted_[i].probe.detect_ms;
    }
    const double quarantine_ms =
        all_w.detections > 0.0 ? all_w.downtime_s * 1e3 / all_w.detections
                               : 0.0;
    double failed_recoveries = 0.0;
    for (const rt::MetricsSnapshot& snap : s3) {
      failed_recoveries += static_cast<double>(snap.failed_recoveries);
    }
    const milr::obs::HistogramSnapshot& qw = open_w.queue_wait;
    metrics = {
        {"runtime.submit_p50_us", Tail(submit_us, 0.5).value, "us"},
        {"runtime.submit_p99_us", Tail(submit_us, 0.99).value, "us"},
        {"runtime.queue_wait_p50_ms", qw.QuantileMillis(0.5), "ms"},
        {"runtime.queue_wait_p99_ms",
         qw.QuantileMillis(perfbench::SupportedQuantile(
             static_cast<std::size_t>(qw.count), 0.99)),
         "ms"},
        {"runtime.batch_size_mean", closed_w.BatchSizeMean(), "count"},
        {"runtime.batch_service_ms", closed_w.ServiceMeanMs(), "ms"},
        {"runtime.handoff_mean_ms",
         perfbench::Mean(tally.sent_latencies_s()) * 1e3 - qw.MeanMillis() -
             open_w.ServiceMeanMs(),
         "ms"},
        {"runtime.linger_skip_share",
         serving_w.grants > 0.0 ? serving_w.linger_skips / serving_w.grants
                                : 0.0,
         "ratio"},
        {"runtime.rejected_share",
         tally.sent() > 0
             ? open_w.rejected / static_cast<double>(tally.sent())
             : 0.0,
         "ratio"},
        {"runtime.scrub_cycles_per_s", scrub_cycles / serving_w.seconds,
         "1/s"},
        {"runtime.scrub_duty", scrub_busy_ms / (serving_w.seconds * 1e3),
         "ratio"},
        {"runtime.inject_ms", Median(repairs.inject_ms), "ms"},
        {"runtime.quarantine_ms", quarantine_ms, "ms"},
        {"runtime.detect_wait_ms",
         perfbench::Mean(repairs.repair_ms) - quarantine_ms, "ms"},
        {"runtime.failed_recoveries", failed_recoveries, "count"},
        {"nn.predict_batch_ms",
         weighted([](const LayerProbe& p) { return p.predict_batch_ms; }),
         "ms"},
        {"nn.conv_ms",
         weighted([](const LayerProbe& p) { return p.kind_ms[0]; }), "ms"},
        {"nn.dense_ms",
         weighted([](const LayerProbe& p) { return p.kind_ms[1]; }), "ms"},
        {"nn.pool_ms",
         weighted([](const LayerProbe& p) { return p.kind_ms[2]; }), "ms"},
        {"nn.other_ms",
         weighted([](const LayerProbe& p) { return p.kind_ms[3]; }), "ms"},
        {"nn.layer_sum_over_service", perfbench::LayerSumOverService(service),
         "ratio"},
        {"nn.predict_sample_ms",
         weighted([](const LayerProbe& p) { return p.predict_sample_ms; }),
         "ms"},
        {"nn.cache_build_ms",
         summed([](const LayerProbe& p) { return p.cache_build_ms; }), "ms"},
        {"nn.autotune_ms", registry.total_tune_ms, "ms"},
        {"nn.autotune_plans", static_cast<double>(registry.plans), "count"},
        {"nn.cache_rebuild_ms",
         weighted([](const LayerProbe& p) { return p.cache_rebuild_ms; }),
         "ms"},
        {"milr.init_ms", summed([](const LayerProbe& p) { return p.init_ms; }),
         "ms"},
        {"milr.detect_ms",
         summed([](const LayerProbe& p) { return p.detect_ms; }), "ms"},
        {"milr.recover_dense_ms", recover(0), "ms"},
        {"milr.recover_conv_ms", recover(1), "ms"},
        {"milr.recover_bias_ms", recover(2), "ms"},
        {"milr.storage_bytes", static_cast<double>(storage_bytes), "bytes"},
        {"bench.gen_lag_p99_ms", Tail(tally.lags_s(), 0.99).value * 1e3,
         "ms"},
        {"bench.trace_overhead_pct",
         untraced_rps > 0.0
             ? (untraced_rps - traced_rps) / untraced_rps * 100.0
             : 0.0,
         "%"},
    };
    WriteTrace();
  }

  std::printf("\nmetrics (%s):\n", traced_ ? "traced run, per layer"
                                           : "untraced run, end to end");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }

  PhaseCounts total{"total"};
  total.Merge(warmup);
  total.Merge(closed);
  total.Merge(open);
  const std::size_t attempted = total.sent + repairs.events;
  const std::size_t failed =
      total.failed() + repairs.timeouts + probe_failures;
  const bool correct = total.wrong == 0 && total.errors == 0 &&
                       repairs.timeouts == 0 && probe_failures == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.12g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin the knobs the library reads from the environment before anything
  // latches them.
  setenv("MILR_THREADS", kMilrThreads, 1);
  setenv("MILR_AUTOTUNE_MS", kAutotuneMs, 1);
  unsetenv("MILR_QUEUE");
  unsetenv("MILR_KERNEL_PIN");

  std::string workload_name, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage();
  }
  try {
    Bench bench(*workload, seed, seconds, trace == 1, trace_out);
    return bench.Run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
