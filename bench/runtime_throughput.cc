// Serving throughput of the protected runtime across micro-batch sizes
// and GEMM kernel tiers.
//
// The deployment question behind the batching refactor: with the background
// scrubber enabled, how many requests/sec does the engine sustain as
// EngineConfig::max_batch grows? Batching converts request-level
// parallelism into data-level parallelism — one queue drain, one shared
// lock, one PredictBatch whose stacked GEMM parallelizes across cores — so
// the curve is the availability model's "useful work between detection
// windows" knob made measurable.
//
// The kernel dimension sweeps all three tiers: KernelConfig::kExact
// (bit-exact tiled kernels, the default and fault-injection baseline),
// KernelConfig::kFast (packed k-blocked SIMD fp32 panels) and
// KernelConfig::kInt8 (quantized int8 weight replica, src/quant/). The
// printed fast/exact ratio is the compute-bound speedup of the packed
// tier; the int8/fast ratio is the MEMORY-BOUND story — on a net whose
// weights exceed L2 (MILR_NET=dense_xl, the "memory-bound dense sweep"),
// micro-batch GEMMs are bound on streaming weight bytes and int8 streams
// 4x fewer of them. The int8 sweep also reports top-1 agreement against
// the exact tier, the tier's accuracy acceptance number. Scrubber is ON
// for every phase (the production configuration).
//
// Knobs: MILR_NET (cifar_large | cifar_small | mnist | dense | dense_xl |
// conv_xl | tiny; default cifar_large), MILR_BENCH_SECONDS (per phase,
// default 2), MILR_CLIENTS (client threads, default 2), MILR_WORKERS
// (engine workers, default 2). conv_xl is the conv analog of dense_xl:
// ~28 MB of conv filter weights over a tiny spatial extent, the
// memory-bound sweep where the int8 conv tier's headline ratio is
// measured (guarded by bench/baseline_conv.json in CI).
//
// `--smoke` is the CI mode: tiny net, two batch sizes, sub-second phases —
// just enough to fail loudly if a kernel or engine regression lands.
// `--json` additionally writes BENCH_runtime.json (per-config QPS, p99,
// per-call times, agreement) so CI can archive the perf trajectory as a
// machine-readable artifact.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/networks.h"
#include "data/synthetic.h"
#include "memory/fault_injector.h"
#include "nn/init.h"
#include "nn/kernel_config.h"
#include "nn/model.h"
#include "nn/train.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/request_queue.h"
#include "runtime/serving_host.h"
#include "support/prng.h"

#include "mutex_queue_oracle.h"  // tests/: the ring's reference queue

namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

milr::nn::Model BuildServingModel(const char* which) {
  using namespace milr;
  if (std::strcmp(which, "mnist") == 0) {
    nn::Model model = apps::BuildMnistNetwork();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  if (std::strcmp(which, "cifar_small") == 0) {
    nn::Model model = apps::BuildCifarSmallNetwork();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  if (std::strcmp(which, "cifar_large") == 0) {
    nn::Model model = apps::BuildCifarLargeNetwork();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  if (std::strcmp(which, "dense") == 0) {
    // Dense-heavy MLP: per request virtually all time is the (B,N)·(N,P)
    // dense GEMMs, so this sweep isolates the kernel-tier speedup from
    // im2col and pooling overheads. Widths are sized so total weights
    // (~1.1 MB) stay L2-resident: the fp32 fast tier's best case. (For
    // the regime where that stops working, see dense_xl.)
    nn::Model model(Shape{256});
    model.AddDense(320).AddBias().AddReLU();
    model.AddDense(320).AddBias().AddReLU();
    model.AddDense(320).AddBias().AddReLU();
    model.AddDense(256).AddBias().AddReLU();
    model.AddDense(10).AddBias();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  if (std::strcmp(which, "dense_xl") == 0) {
    // The memory-bound dense sweep: ~25 MB of fp32 weights — far past any
    // L2 and most L3 slices — so micro-batch GEMMs are bound on streaming
    // weight bytes, not FLOPs. No fp32 kernel tier can help here (every
    // tier moves the same bytes); the int8 tier's 4x-smaller replica is
    // the lever, and this net is where its headline ratio is measured.
    nn::Model model(Shape{1024});
    model.AddDense(1536).AddBias().AddReLU();
    model.AddDense(1536).AddBias().AddReLU();
    model.AddDense(1536).AddBias().AddReLU();
    model.AddDense(10).AddBias();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  if (std::strcmp(which, "conv_xl") == 0) {
    // The memory-bound CONV sweep: ~28 MB of conv filter weights over a
    // 6x6 spatial extent, so each im2col GEMM has only 16 (then 4) patch
    // rows per sample against multi-MB filter panels — per-call time is
    // dominated by streaming filter bytes, exactly dense_xl's regime but
    // through the conv int8 path (per-output-filter scales + packed
    // filter-stationary panels). F²Z = 4608 stays under the int8 depth
    // guard (quant::kInt8MaxDepth = 8260).
    nn::Model model(Shape{6, 6, 512});
    model.AddConv(3, 512, nn::Padding::kValid).AddReLU();   // 6->4, 9.4 MB
    model.AddConv(3, 1024, nn::Padding::kValid).AddReLU();  // 4->2, 18.9 MB
    model.AddFlatten();
    model.AddDense(10).AddBias();
    nn::InitHeUniform(model, /*seed=*/11);
    return model;
  }
  // "tiny": the original smoke-test topology, handy for quick runs.
  nn::Model model(Shape{16, 16, 1});
  model.AddConv(3, 8, nn::Padding::kValid).AddBias().AddReLU();
  model.AddMaxPool(2);
  model.AddFlatten();
  model.AddDense(32).AddBias().AddReLU();
  model.AddDense(10).AddBias();
  nn::InitHeUniform(model, /*seed=*/11);
  return model;
}

struct PhaseResult {
  double rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean_batch = 0.0;
  double batch_ms = 0.0;
  unsigned long long scrub_cycles = 0;
};

PhaseResult RunPhase(milr::nn::Model& model,
                     const std::vector<std::vector<float>>& golden,
                     const std::vector<milr::Tensor>& probes,
                     milr::nn::KernelConfig kernel, std::size_t max_batch,
                     std::size_t workers, std::size_t clients,
                     double seconds) {
  using namespace milr;
  model.RestoreParams(golden);  // engine needs the golden state
  runtime::EngineConfig config;
  config.worker_threads = workers;
  config.queue_capacity = 512;
  config.max_batch = max_batch;
  // A short linger lets partial batches fill under bursty arrivals;
  // meaningless (and skipped) at batch 1.
  config.batch_linger = std::chrono::microseconds(max_batch > 1 ? 200 : 0);
  config.scrubber_enabled = true;
  config.scrub_period = std::chrono::milliseconds(20);
  config.kernel = kernel;
  runtime::InferenceEngine engine(model, config);
  engine.Start();

  // Closed-loop clients with a pipeline window: enough requests stay
  // outstanding to let every worker fill its micro-batch.
  const std::size_t window =
      std::max<std::size_t>(1, (2 * max_batch * workers) / clients);
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (std::size_t c = 0; c < clients; ++c) {
    load.emplace_back([&, c] {
      std::deque<std::future<Tensor>> inflight;
      std::size_t i = c;
      while (!stop.load(std::memory_order_relaxed)) {
        inflight.push_back(engine.Submit(probes[i % probes.size()]));
        ++i;
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : load) t.join();

  const auto m = engine.Snapshot();
  engine.Stop();
  model.set_kernel_config(nn::KernelConfig::kExact);  // restore default
  PhaseResult result;
  result.rps = m.throughput_rps;
  result.p50 = m.latency_p50_ms;
  result.p99 = m.latency_p99_ms;
  result.mean_batch = m.batch_size_mean;
  result.batch_ms = m.batch_service_mean_ms;
  result.scrub_cycles = m.scrub_cycles;
  return result;
}

struct ModelSweepRow {
  std::size_t batch = 0;
  // Per-call seconds, indexed exact / fast / int8.
  double per_call[3] = {0.0, 0.0, 0.0};
};

/// Kernel-bound sweep: times Model::PredictBatch in a tight single-thread
/// loop across all three tiers, per batch size. Unlike the engine phases
/// below it has no client/worker/scrubber scheduling noise, so the
/// printed ratios are a stable measure of the kernel tiers themselves on
/// any machine (on a single hardware thread the engine sweep is dominated
/// by contention between load generators and the worker). On dense_xl
/// (weights > L2) the int8/fast column is the memory-bound headline.
std::vector<ModelSweepRow> RunModelSweep(
    milr::nn::Model& model, const std::vector<std::size_t>& batches,
    double seconds) {
  using namespace milr;
  static constexpr nn::KernelConfig kTiers[3] = {nn::KernelConfig::kExact,
                                                 nn::KernelConfig::kFast,
                                                 nn::KernelConfig::kInt8};
  std::printf("model-path sweep (single thread, no engine; %.1f MB fp32 "
              "weights):\n",
              static_cast<double>(model.TotalParamBytes()) / 1e6);
  Prng prng(17);
  std::vector<ModelSweepRow> rows;
  for (const std::size_t b : batches) {
    Tensor batch =
        RandomTensor(WithBatchAxis(b, model.input_shape()), prng);
    ModelSweepRow row;
    row.batch = b;
    for (int cfg = 0; cfg < 3; ++cfg) {
      model.set_kernel_config(kTiers[cfg]);
      model.PredictBatch(batch);  // warm caches and scratch
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration<double>(seconds);
      std::size_t calls = 0;
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() < deadline) {
        model.PredictBatch(batch);
        ++calls;
      }
      row.per_call[cfg] = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count() /
                          static_cast<double>(calls);
    }
    model.set_kernel_config(nn::KernelConfig::kExact);
    std::printf("  batch=%-2zu  exact %8.3f ms  fast %8.3f ms  int8 %8.3f "
                "ms/call  fast/exact=%.2fx  int8/fast=%.2fx\n",
                b, row.per_call[0] * 1e3, row.per_call[1] * 1e3,
                row.per_call[2] * 1e3,
                row.per_call[1] > 0.0 ? row.per_call[0] / row.per_call[1]
                                      : 0.0,
                row.per_call[2] > 0.0 ? row.per_call[1] / row.per_call[2]
                                      : 0.0);
    rows.push_back(row);
  }
  return rows;
}

// ------------------------------------------------------- registry plans
//
// The per-layer kernel plans the fast tier serves on this machine, so the
// kernels behind every number below are visible in CI logs and the JSON.

std::vector<std::string> FastPlanDescriptions(milr::nn::Model& model) {
  using namespace milr;
  model.set_kernel_config(nn::KernelConfig::kFast);
  std::vector<std::string> kernels = model.KernelDescriptions();
  model.set_kernel_config(nn::KernelConfig::kExact);
  std::printf("registry plans (fast tier):\n");
  for (const std::string& line : kernels) {
    std::printf("  plan: %s\n", line.c_str());
  }
  return kernels;
}

// ----------------------------------------------------- trained agreement
//
// The agreement sweeps above run on He-initialized weights, whose logit
// gaps are tighter than anything a trained net produces — a conservative
// bound, but not evidence about deployed checkpoints. This phase trains a
// small MLP on the synthetic dataset (the paper's generator) and measures
// fast/int8 top-1 agreement against exact on held-out samples: the
// acceptance number for serving *trained* weights from the fast tiers.
// A small CONV net trains alongside it and measures the same agreement
// for the int8 conv path.

struct TrainedAgreementResult {
  std::size_t samples = 0;
  double train_accuracy = 0.0;
  double fast_top1 = 1.0;
  double int8_top1 = 1.0;
  // Conv-net phase (trained conv net on the same split).
  double conv_train_accuracy = 0.0;
  double conv_fast_top1 = 1.0;
  double conv_int8_top1 = 1.0;
};

TrainedAgreementResult RunTrainedAgreement(bool smoke) {
  using namespace milr;
  data::SyntheticSpec spec;
  spec.image_size = 12;
  spec.seed = 7;
  const std::size_t train_count = smoke ? 160 : 480;
  const std::size_t test_count = smoke ? 64 : 256;
  nn::Dataset all = data::GenerateSynthetic(spec,
                                            train_count + test_count);
  nn::Dataset train, test;
  for (std::size_t i = 0; i < train_count; ++i) {
    train.images.push_back(std::move(all.images[i]));
    train.labels.push_back(all.labels[i]);
  }
  for (std::size_t i = train_count; i < all.size(); ++i) {
    test.images.push_back(std::move(all.images[i]));
    test.labels.push_back(all.labels[i]);
  }

  nn::Model model(Shape{spec.image_size, spec.image_size, 1});
  model.AddFlatten();
  model.AddDense(64).AddBias().AddReLU();
  model.AddDense(spec.num_classes).AddBias();
  nn::InitHeUniform(model, /*seed=*/11);
  nn::TrainConfig config;
  config.epochs = smoke ? 2 : 4;
  config.batch_size = 32;
  config.learning_rate = 0.05f;
  nn::Fit(model, train, config);

  TrainedAgreementResult result;
  result.samples = test.size();
  result.train_accuracy = nn::Evaluate(model, train);

  const std::size_t stride = model.input_shape().NumElements();
  Tensor batch(WithBatchAxis(test.size(), model.input_shape()));
  for (std::size_t s = 0; s < test.size(); ++s) {
    std::memcpy(batch.data() + s * stride, test.images[s].data(),
                stride * sizeof(float));
  }
  model.set_kernel_config(nn::KernelConfig::kExact);
  const Tensor exact = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kFast);
  const Tensor fast = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor int8 = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kExact);

  const std::size_t classes = exact.size() / test.size();
  const auto top1 = [&](const Tensor& t, std::size_t s) {
    const float* row = t.data() + s * classes;
    std::size_t best = 0;
    for (std::size_t j = 1; j < classes; ++j) {
      if (row[j] > row[best]) best = j;
    }
    return best;
  };
  std::size_t fast_agree = 0, int8_agree = 0;
  for (std::size_t s = 0; s < test.size(); ++s) {
    const std::size_t want = top1(exact, s);
    fast_agree += (top1(fast, s) == want) ? 1 : 0;
    int8_agree += (top1(int8, s) == want) ? 1 : 0;
  }
  result.fast_top1 =
      static_cast<double>(fast_agree) / static_cast<double>(test.size());
  result.int8_top1 =
      static_cast<double>(int8_agree) / static_cast<double>(test.size());
  std::printf("trained-net top-1 agreement vs exact (%zu held-out "
              "samples, train acc %.3f): fast %.4f  int8 %.4f\n",
              result.samples, result.train_accuracy, result.fast_top1,
              result.int8_top1);

  // Conv net on the same split: the int8 conv path's trained-checkpoint
  // acceptance number.
  nn::Model conv(Shape{spec.image_size, spec.image_size, 1});
  conv.AddConv(3, 8, nn::Padding::kSame).AddBias().AddReLU();
  conv.AddMaxPool(2);
  conv.AddFlatten();
  conv.AddDense(32).AddBias().AddReLU();
  conv.AddDense(spec.num_classes).AddBias();
  nn::InitHeUniform(conv, /*seed=*/13);
  nn::Fit(conv, train, config);
  result.conv_train_accuracy = nn::Evaluate(conv, train);

  conv.set_kernel_config(nn::KernelConfig::kExact);
  const Tensor conv_exact = conv.PredictBatch(batch);
  conv.set_kernel_config(nn::KernelConfig::kFast);
  const Tensor conv_fast = conv.PredictBatch(batch);
  conv.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor conv_int8 = conv.PredictBatch(batch);
  conv.set_kernel_config(nn::KernelConfig::kExact);

  std::size_t cfast = 0, cint8 = 0;
  for (std::size_t s = 0; s < test.size(); ++s) {
    const std::size_t want = top1(conv_exact, s);
    cfast += (top1(conv_fast, s) == want) ? 1 : 0;
    cint8 += (top1(conv_int8, s) == want) ? 1 : 0;
  }
  const double denom = static_cast<double>(test.size());
  result.conv_fast_top1 = static_cast<double>(cfast) / denom;
  result.conv_int8_top1 = static_cast<double>(cint8) / denom;
  std::printf("trained CONV net top-1 agreement vs exact (train acc %.3f): "
              "fast %.4f  int8 %.4f\n",
              result.conv_train_accuracy, result.conv_fast_top1,
              result.conv_int8_top1);
  return result;
}

/// Top-1 agreement of the fast and int8 tiers against the exact tier on
/// random probes — the quantized tier's accuracy acceptance number,
/// measured on the same net the throughput sweeps use.
struct AgreementResult {
  std::size_t samples = 0;
  double fast_top1 = 1.0;
  double int8_top1 = 1.0;
};

AgreementResult MeasureAgreement(milr::nn::Model& model,
                                 std::size_t samples) {
  using namespace milr;
  Prng prng(23);
  Tensor batch =
      RandomTensor(WithBatchAxis(samples, model.input_shape()), prng);
  model.set_kernel_config(nn::KernelConfig::kExact);
  const Tensor exact = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kFast);
  const Tensor fast = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kInt8);
  const Tensor int8 = model.PredictBatch(batch);
  model.set_kernel_config(nn::KernelConfig::kExact);

  const std::size_t classes = exact.size() / samples;
  const auto top1 = [&](const Tensor& t, std::size_t s) {
    const float* row = t.data() + s * classes;
    std::size_t best = 0;
    for (std::size_t j = 1; j < classes; ++j) {
      if (row[j] > row[best]) best = j;
    }
    return best;
  };
  AgreementResult result;
  result.samples = samples;
  std::size_t fast_agree = 0, int8_agree = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t want = top1(exact, s);
    fast_agree += (top1(fast, s) == want) ? 1 : 0;
    int8_agree += (top1(int8, s) == want) ? 1 : 0;
  }
  result.fast_top1 =
      static_cast<double>(fast_agree) / static_cast<double>(samples);
  result.int8_top1 =
      static_cast<double>(int8_agree) / static_cast<double>(samples);
  std::printf("top-1 agreement vs exact (%zu samples): fast %.4f  "
              "int8 %.4f\n",
              samples, result.fast_top1, result.int8_top1);
  return result;
}

// ------------------------------------------------------------- co-hosting
//
// The multi-model question: serving N protected models from ONE machine,
// is a shared ServingHost (one worker pool + DRR scheduler + one scrubber)
// competitive with N independent engines splitting the same core budget?
// The independent-engine baseline gets workers/N threads per engine (the
// fair split); the host gets all `workers` threads in one pool. Both run
// with scrubbing on. The printed shared/separate ratio is the acceptance
// number (>= 0.9x means the scheduler + shared pool cost less than the
// static core partition wastes), and the per-model min..max spread in the
// shared phase shows DRR keeping equal-weight models near-equal.

struct CoHostResult {
  double aggregate_rps = 0.0;
  double min_rps = 1e30;
  double max_rps = 0.0;
};

void DriveClosedLoop(const std::function<std::future<milr::Tensor>(
                         std::size_t, std::size_t)>& submit,
                     std::size_t n_models, std::size_t window,
                     double seconds) {
  using namespace milr;
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (std::size_t m = 0; m < n_models; ++m) {
    load.emplace_back([&, m] {
      std::deque<std::future<Tensor>> inflight;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        inflight.push_back(submit(m, i++));
        if (inflight.size() >= window) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      while (!inflight.empty()) {
        inflight.front().get();
        inflight.pop_front();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : load) t.join();
}

CoHostResult RunSeparateEngines(
    std::vector<milr::nn::Model>& models,
    const std::vector<std::vector<std::vector<float>>>& golden,
    const std::vector<milr::Tensor>& probes, std::size_t workers,
    std::size_t max_batch, double seconds) {
  using namespace milr;
  const std::size_t per_engine =
      std::max<std::size_t>(1, workers / models.size());
  std::vector<std::unique_ptr<runtime::InferenceEngine>> engines;
  for (std::size_t m = 0; m < models.size(); ++m) {
    models[m].RestoreParams(golden[m]);
    runtime::EngineConfig config;
    config.worker_threads = per_engine;
    config.queue_capacity = 512;
    config.max_batch = max_batch;
    config.batch_linger = std::chrono::microseconds(200);
    config.scrub_period = std::chrono::milliseconds(20);
    engines.push_back(
        std::make_unique<runtime::InferenceEngine>(models[m], config));
    engines.back()->Start();
  }
  DriveClosedLoop(
      [&](std::size_t m, std::size_t i) {
        return engines[m]->Submit(probes[i % probes.size()]);
      },
      models.size(), 2 * max_batch, seconds);
  CoHostResult result;
  for (auto& engine : engines) {
    const double rps = engine->Snapshot().throughput_rps;
    result.aggregate_rps += rps;
    result.min_rps = std::min(result.min_rps, rps);
    result.max_rps = std::max(result.max_rps, rps);
    engine->Stop();
  }
  return result;
}

CoHostResult RunSharedHost(
    std::vector<milr::nn::Model>& models,
    const std::vector<std::vector<std::vector<float>>>& golden,
    const std::vector<milr::Tensor>& probes, std::size_t workers,
    std::size_t max_batch, double seconds) {
  using namespace milr;
  runtime::ServingHostConfig host_config;
  host_config.worker_threads = workers;
  host_config.scrub_period = std::chrono::milliseconds(20);
  runtime::ServingHost host(host_config);
  std::vector<runtime::ServingHost::ModelHandle> handles;
  for (std::size_t m = 0; m < models.size(); ++m) {
    models[m].RestoreParams(golden[m]);
    runtime::ModelRuntimeConfig config;
    config.queue_capacity = 512;
    config.max_batch = max_batch;
    config.batch_linger = std::chrono::microseconds(200);
    handles.push_back(host.AddModel(models[m], config));
  }
  host.Start();
  DriveClosedLoop(
      [&](std::size_t m, std::size_t i) {
        return handles[m]->Submit(probes[i % probes.size()]);
      },
      models.size(), 2 * max_batch, seconds);
  CoHostResult result;
  for (auto& handle : handles) {
    const double rps = handle->Snapshot().throughput_rps;
    result.aggregate_rps += rps;
    result.min_rps = std::min(result.min_rps, rps);
    result.max_rps = std::max(result.max_rps, rps);
  }
  host.Stop();
  return result;
}

struct CoHostRow {
  std::size_t models = 0;
  double separate_rps = 0.0;
  double shared_rps = 0.0;
};

std::vector<CoHostRow> RunCoHostSweep(
    const char* net, const std::vector<std::size_t>& counts,
    std::size_t workers, std::size_t max_batch, double seconds) {
  using namespace milr;
  std::vector<CoHostRow> rows;
  std::printf("co-hosting sweep (net=%s, %zu total workers, max_batch=%zu, "
              "scrubber on): shared ServingHost vs N engines on the same "
              "core budget\n",
              net, workers, max_batch);
  for (const std::size_t n : counts) {
    std::vector<nn::Model> models;
    std::vector<std::vector<std::vector<float>>> golden;
    for (std::size_t m = 0; m < n; ++m) {
      models.push_back(BuildServingModel(net));
      golden.push_back(models.back().SnapshotParams());
    }
    Prng prng(5);
    std::vector<Tensor> probes;
    for (int i = 0; i < 16; ++i) {
      probes.push_back(RandomTensor(models[0].input_shape(), prng));
    }
    const CoHostResult separate = RunSeparateEngines(
        models, golden, probes, workers, max_batch, seconds);
    const CoHostResult shared =
        RunSharedHost(models, golden, probes, workers, max_batch, seconds);
    std::printf("  N=%zu  separate %9.1f req/s  shared %9.1f req/s  "
                "shared/separate=%.2fx  shared per-model %.1f..%.1f req/s\n",
                n, separate.aggregate_rps, shared.aggregate_rps,
                separate.aggregate_rps > 0.0
                    ? shared.aggregate_rps / separate.aggregate_rps
                    : 0.0,
                shared.min_rps, shared.max_rps);
    rows.push_back(CoHostRow{n, separate.aggregate_rps,
                             shared.aggregate_rps});
  }
  return rows;
}

// --------------------------------------------------------- queue microbench
//
// The request queue in isolation: producers TryPush (retrying on full),
// consumers TryPopBatch(8) — the exact hot-path shape the engine drives —
// on the lock-free BoundedQueue<uint64_t> and on the mutex oracle from
// tests/mutex_queue_oracle.h, run with an IDENTICAL driver. Reported as
// dequeued Mops/s per producers×consumers point. The lockfree/mutex ratio
// at the most-contended point that FITS the machine (producers+consumers
// <= hardware threads) is the ring's standing justification: CI guards it
// at >= 1.0x, i.e. the lock-free queue must never be slower than the
// mutex queue under real contention. When no point fits (a 1-core
// runner), the guard field is omitted and the comparator skips the floor
// — oversubscribed "contention" measures scheduler fairness, not the
// queue.

struct QueueSweepRow {
  std::size_t producers = 0;
  std::size_t consumers = 0;
  double mutex_mops = 0.0;
  double lockfree_mops = 0.0;
};

struct QueueBenchResult {
  std::size_t capacity = 0;
  unsigned hw_threads = 0;
  std::vector<QueueSweepRow> rows;
  // lockfree/mutex at the guarded sweep point: the largest point whose
  // producers+consumers fit the machine's hardware threads. Meaningless
  // (and omitted from the JSON, so the comparator skips the floor) when
  // no point fits — on a 1-core host every "contended" number measures
  // the scheduler's round-robin, not the queue.
  bool has_guard = false;
  double contended_ratio = 0.0;
};

template <typename Queue>
double RunQueueTrial(std::size_t producers, std::size_t consumers,
                     std::size_t capacity, double seconds) {
  Queue queue(capacity);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dequeued{0};
  std::vector<std::thread> threads;
  threads.reserve(producers + consumers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // TryPush with retry keeps the queue saturated — the contended
        // regime the sweep exists to measure. Yield on full (like the
        // engine, whose blocking paths park): hot-spinning a full queue
        // on an oversubscribed or throttled host starves the consumer
        // that would free a slot and measures the scheduler, not the
        // queue.
        std::uint64_t item = v;
        if (queue.TryPush(item)) {
          ++v;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::vector<std::uint64_t> out;
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        out.clear();
        const std::size_t n =
            queue.TryPopBatch(out, 8, std::chrono::microseconds(0));
        local += n;
        if (n == 0) std::this_thread::yield();  // empty: let a producer run
      }
      dequeued.fetch_add(local, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (auto& t : threads) t.join();
  return static_cast<double>(dequeued.load()) / elapsed / 1e6;
}

QueueBenchResult RunQueueSweep(bool smoke) {
  using Lockfree = milr::runtime::BoundedQueue<std::uint64_t>;
  using Mutex = milr::runtime::MutexQueue<std::uint64_t>;
  QueueBenchResult result;
  result.capacity = 1024;
  result.hw_threads = std::thread::hardware_concurrency();
  const double seconds = smoke ? 0.15 : 0.4;
  const std::vector<std::pair<std::size_t, std::size_t>> points =
      smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{1, 1},
                                                               {2, 2}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {1, 1}, {2, 2}, {4, 4}};
  std::printf("queue microbench (BoundedQueue<u64> vs mutex oracle, "
              "capacity=%zu, TryPush retry vs TryPopBatch(8), best of 3 x "
              "%.2fs per point, hw_threads=%u):\n",
              result.capacity, seconds, result.hw_threads);
  for (const auto& point : points) {
    QueueSweepRow row;
    row.producers = point.first;
    row.consumers = point.second;
    // Best-of-three per queue, interleaved mutex/lockfree so thermal or
    // scheduler drift across the sweep hits both alike.
    for (int pass = 0; pass < 3; ++pass) {
      row.mutex_mops = std::max(
          row.mutex_mops,
          RunQueueTrial<Mutex>(row.producers, row.consumers,
                               result.capacity, seconds));
      row.lockfree_mops = std::max(
          row.lockfree_mops,
          RunQueueTrial<Lockfree>(row.producers, row.consumers,
                                  result.capacity, seconds));
    }
    const double ratio =
        row.mutex_mops > 0.0 ? row.lockfree_mops / row.mutex_mops : 0.0;
    // Guard the LARGEST point that actually fits the machine: with fewer
    // hardware threads than sweep threads the "contention" is fictional
    // (every thread runs alone, interleaved by the scheduler's quantum),
    // so the ratio measures yield fairness, not the queue.
    const bool fits =
        row.producers + row.consumers <= std::size_t{result.hw_threads};
    std::printf("  %zup x %zuc  mutex %8.2f Mops/s  lockfree %8.2f Mops/s  "
                "lockfree/mutex=%.2fx%s\n",
                row.producers, row.consumers, row.mutex_mops,
                row.lockfree_mops, ratio, fits ? "  [guarded]" : "");
    result.rows.push_back(row);
    if (fits) {
      result.has_guard = true;
      result.contended_ratio = ratio;
    }
  }
  if (!result.has_guard) {
    std::printf("  (no sweep point fits %u hardware thread(s); "
                "lockfree/mutex floor not guarded on this host)\n",
                result.hw_threads);
  }
  return result;
}

// -------------------------------------------------------- tracing overhead
//
// The flight recorder's acceptance number: the same engine phase run with
// tracing off and with tracing on (full lifecycle spans — enqueue, grant,
// batch, per-layer kernels, scrub cycles). The recorder is designed so the
// enabled path is a few relaxed/release stores per event; this measures
// what that costs in end-to-end QPS. With --trace <file> the enabled run's
// recording is exported as Chrome trace JSON (chrome://tracing or
// ui.perfetto.dev).

struct TracingOverheadResult {
  double qps_disabled = 0.0;
  double qps_enabled = 0.0;
  double overhead_pct = 0.0;  // (off - on) / off * 100, noisy near zero
  unsigned long long events_emitted = 0;
  unsigned long long events_dropped = 0;
};

TracingOverheadResult RunTracingOverhead(
    milr::nn::Model& model, const std::vector<std::vector<float>>& golden,
    const std::vector<milr::Tensor>& probes, std::size_t max_batch,
    std::size_t workers, std::size_t clients, double seconds,
    const char* trace_path) {
  using namespace milr;
  auto& tracer = obs::Tracer::Get();
  TracingOverheadResult result;

  tracer.Disable();
  tracer.Clear();
  const PhaseResult off = RunPhase(model, golden, probes,
                                   nn::KernelConfig::kExact, max_batch,
                                   workers, clients, seconds);
  result.qps_disabled = off.rps;

  tracer.Enable();
  const PhaseResult on = RunPhase(model, golden, probes,
                                  nn::KernelConfig::kExact, max_batch,
                                  workers, clients, seconds);
  tracer.Disable();
  result.qps_enabled = on.rps;
  result.overhead_pct =
      off.rps > 0.0 ? (off.rps - on.rps) / off.rps * 100.0 : 0.0;
  const auto stats = tracer.GetStats();
  result.events_emitted = stats.emitted;
  result.events_dropped = stats.dropped;

  std::printf("tracing overhead (kernel=exact, max_batch=%zu): "
              "off %9.1f req/s  on %9.1f req/s  overhead %.2f%%  "
              "(%llu events recorded, %llu wrapped)\n",
              max_batch, result.qps_disabled, result.qps_enabled,
              result.overhead_pct, result.events_emitted,
              result.events_dropped);
  if (trace_path != nullptr) {
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("wrote %s (load in chrome://tracing or "
                  "ui.perfetto.dev)\n",
                  trace_path);
    } else {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path);
    }
  }
  tracer.Clear();
  return result;
}

// --------------------------------------------------------------- SLO phase
//
// The observability acceptance phase: one engine run with a latency SLO
// declared and an incident drill at the end. It produces two numbers CI
// guards:
//   * goodput under a generous objective (healthy serving must stay ~1.0);
//   * the incident drill: a whole-layer fault + on-demand scrub must open
//     exactly one quarantine incident, close it recovered, and (with the
//     flight recorder on) auto-capture a Chrome trace. The journal JSON
//     and the trace directory are written as CI artifacts.
// The histogram's p99 is printed and archived; its accuracy against exact
// sample quantiles is a ctest (MetricsTest in tests/runtime_test.cc).
// The load is a fixed request COUNT, not a timed window.
//
// The objective is CALIBRATED, not hard-coded: a short unconstrained
// warmup measures this net-on-this-machine's p99, and the SLO phase runs
// with objective = 5x that (floored at 50 ms). Healthy serving therefore
// lands goodput ~1.0 on any host — the goodput floor guards the SLO
// pipeline itself (and catastrophic latency regressions), not the
// machine's absolute speed, matching the comparator's
// machine-independent philosophy.

struct SloPhaseResult {
  double objective_ms = 0.0;
  double target = 0.0;
  unsigned long long within = 0;
  unsigned long long violations = 0;
  double goodput = 1.0;
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  double hist_p99_ms = 0.0;
  unsigned long long incidents_opened = 0;
  unsigned long long incidents_open = 0;
  bool incident_recovered = false;
  bool trace_captured = false;
  unsigned long long dropped_samples = 0;
};

SloPhaseResult RunSloPhase(milr::nn::Model& model,
                           const std::vector<std::vector<float>>& golden,
                           const std::vector<milr::Tensor>& probes,
                           std::size_t workers, std::size_t clients,
                           std::size_t total_requests,
                           const char* incidents_path,
                           const char* trace_dir) {
  using namespace milr;
  const auto drive = [&](runtime::InferenceEngine& engine,
                         std::size_t count) {
    const std::size_t per_client = std::max<std::size_t>(1, count / clients);
    std::vector<std::thread> load;
    for (std::size_t c = 0; c < clients; ++c) {
      load.emplace_back([&, c] {
        std::deque<std::future<Tensor>> inflight;
        for (std::size_t i = 0; i < per_client; ++i) {
          inflight.push_back(
              engine.Submit(probes[(c + i) % probes.size()]));
          if (inflight.size() >= 16) {
            inflight.front().get();
            inflight.pop_front();
          }
        }
        while (!inflight.empty()) {
          inflight.front().get();
          inflight.pop_front();
        }
      });
    }
    for (auto& t : load) t.join();
  };

  runtime::EngineConfig config;
  config.worker_threads = workers;
  config.queue_capacity = 512;
  config.max_batch = 8;
  config.batch_linger = std::chrono::microseconds(200);
  config.scrubber_enabled = false;  // incident drill scrubs on demand

  // Calibration: a short unconstrained run to learn this net/machine's
  // p99, from which the objective is derived.
  model.RestoreParams(golden);
  double objective_ms = 50.0;
  {
    runtime::InferenceEngine warmup(model, config);
    warmup.Start();
    drive(warmup, std::max<std::size_t>(64, total_requests / 8));
    objective_ms =
        std::max(50.0, 5.0 * warmup.Snapshot().latency_p99_ms);
    warmup.Stop();
  }

  model.RestoreParams(golden);
  auto& tracer = obs::Tracer::Get();
  tracer.Enable(1u << 12);
  config.slo_ms = objective_ms;
  config.slo_target = 0.999;
  config.incident_trace_dir = trace_dir;
  runtime::InferenceEngine engine(model, config);
  engine.Start();
  drive(engine, total_requests);

  // Incident drill: corrupt a whole recoverable layer, scrub, recover.
  Prng prng(41);
  engine.InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 0, prng);
  });
  engine.ScrubNow();

  const auto snap = engine.Snapshot();
  const auto& journal = engine.incident_journal();
  const auto incidents = journal.Incidents();

  SloPhaseResult result;
  result.objective_ms = snap.slo.objective_ms;
  result.target = snap.slo.target;
  result.within = snap.slo.within;
  result.violations = snap.slo.violations;
  result.goodput = snap.slo.goodput;
  result.fast_burn_rate = snap.slo.fast_burn_rate;
  result.slow_burn_rate = snap.slo.slow_burn_rate;
  result.hist_p99_ms = snap.latency_p99_ms;
  result.incidents_opened = journal.incidents_opened();
  result.incidents_open = journal.open_incidents();
  result.dropped_samples = snap.dropped_samples;
  if (!incidents.empty()) {
    result.incident_recovered =
        !incidents.back().open && incidents.back().recovered;
    result.trace_captured = !incidents.back().trace_path.empty();
  }

  if (incidents_path != nullptr) {
    if (std::FILE* f = std::fopen(incidents_path, "w")) {
      const std::string json = engine.IncidentJournalJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", incidents_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", incidents_path);
    }
  }
  engine.Stop();
  tracer.Disable();
  tracer.Clear();

  std::printf("slo phase (objective=%.0fms target=%.3f, %zu requests): "
              "goodput %.4f (%llu within / %llu over)  fast_burn %.3f  "
              "slow_burn %.3f\n"
              "  p99: histogram %.3f ms\n"
              "  incident drill: %llu opened, %llu still open, "
              "recovered=%s, trace=%s\n",
              result.objective_ms, result.target, total_requests,
              result.goodput, result.within, result.violations,
              result.fast_burn_rate, result.slow_burn_rate,
              result.hist_p99_ms, result.incidents_opened,
              result.incidents_open,
              result.incident_recovered ? "yes" : "NO",
              result.trace_captured ? "yes" : "NO");
  return result;
}

// ------------------------------------------------------------ JSON output
//
// --json writes BENCH_runtime.json: every number the text report prints,
// machine-readable, so CI can archive the perf trajectory per commit
// (QPS, p99, per-call kernel times, top-1 agreement) instead of letting
// it scroll away in build logs.

struct PhaseRow {
  const char* kernel = "";
  std::size_t max_batch = 0;
  PhaseResult r;
};

void WriteBenchJson(const char* path, const char* net, bool smoke,
                    std::size_t clients, std::size_t workers,
                    double seconds, double weight_mb,
                    const std::vector<ModelSweepRow>& sweep,
                    const std::vector<std::string>& kernels,
                    const AgreementResult& agreement,
                    const TrainedAgreementResult& trained,
                    const std::vector<PhaseRow>& phases,
                    const std::vector<CoHostRow>& cohost,
                    const QueueBenchResult& queue_bench,
                    const TracingOverheadResult& tracing,
                    const SloPhaseResult& slo) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"runtime_throughput\",\n"
               "  \"net\": \"%s\",\n"
               "  \"smoke\": %s,\n"
               "  \"clients\": %zu,\n"
               "  \"workers\": %zu,\n"
               "  \"phase_seconds\": %g,\n"
               "  \"weight_mb_fp32\": %.3f,\n",
               net, smoke ? "true" : "false", clients, workers, seconds,
               weight_mb);
  std::fprintf(f, "  \"model_sweep\": [");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const ModelSweepRow& row = sweep[i];
    std::fprintf(
        f,
        "%s\n    {\"batch\": %zu, \"exact_ms_per_call\": %.6f, "
        "\"fast_ms_per_call\": %.6f, \"int8_ms_per_call\": %.6f, "
        "\"fast_over_exact\": %.4f, \"int8_over_fast\": %.4f}",
        i == 0 ? "" : ",", row.batch, row.per_call[0] * 1e3,
        row.per_call[1] * 1e3, row.per_call[2] * 1e3,
        row.per_call[1] > 0.0 ? row.per_call[0] / row.per_call[1] : 0.0,
        row.per_call[2] > 0.0 ? row.per_call[1] / row.per_call[2] : 0.0);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"registry\": {\"kernels\": [");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", kernels[i].c_str());
  }
  std::fprintf(f, "]},\n");
  std::fprintf(f,
               "  \"top1_agreement\": {\"samples\": %zu, "
               "\"fast_vs_exact\": %.6f, \"int8_vs_exact\": %.6f},\n",
               agreement.samples, agreement.fast_top1,
               agreement.int8_top1);
  std::fprintf(f,
               "  \"trained_agreement\": {\"samples\": %zu, "
               "\"train_accuracy\": %.6f, \"fast_vs_exact\": %.6f, "
               "\"int8_vs_exact\": %.6f, "
               "\"conv_train_accuracy\": %.6f, "
               "\"conv_fast_vs_exact\": %.6f, "
               "\"conv_int8_vs_exact\": %.6f},\n",
               trained.samples, trained.train_accuracy, trained.fast_top1,
               trained.int8_top1, trained.conv_train_accuracy,
               trained.conv_fast_top1, trained.conv_int8_top1);
  std::fprintf(f, "  \"phases\": [");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRow& row = phases[i];
    std::fprintf(f,
                 "%s\n    {\"kernel\": \"%s\", \"max_batch\": %zu, "
                 "\"qps\": %.3f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"mean_batch\": %.3f, \"batch_service_ms\": %.4f, "
                 "\"scrub_cycles\": %llu}",
                 i == 0 ? "" : ",", row.kernel, row.max_batch, row.r.rps,
                 row.r.p50, row.r.p99, row.r.mean_batch, row.r.batch_ms,
                 row.r.scrub_cycles);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"cohost\": [");
  for (std::size_t i = 0; i < cohost.size(); ++i) {
    const CoHostRow& row = cohost[i];
    std::fprintf(f,
                 "%s\n    {\"models\": %zu, \"separate_qps\": %.3f, "
                 "\"shared_qps\": %.3f, \"shared_over_separate\": %.4f}",
                 i == 0 ? "" : ",", row.models, row.separate_rps,
                 row.shared_rps,
                 row.separate_rps > 0.0
                     ? row.shared_rps / row.separate_rps
                     : 0.0);
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"queue\": {\"capacity\": %zu, \"hw_threads\": %u, "
               "\"sweep\": [",
               queue_bench.capacity, queue_bench.hw_threads);
  for (std::size_t i = 0; i < queue_bench.rows.size(); ++i) {
    const QueueSweepRow& row = queue_bench.rows[i];
    std::fprintf(f,
                 "%s\n    {\"producers\": %zu, \"consumers\": %zu, "
                 "\"mutex_mops\": %.4f, \"lockfree_mops\": %.4f, "
                 "\"lockfree_over_mutex\": %.4f}",
                 i == 0 ? "" : ",", row.producers, row.consumers,
                 row.mutex_mops, row.lockfree_mops,
                 row.mutex_mops > 0.0 ? row.lockfree_mops / row.mutex_mops
                                      : 0.0);
  }
  // The guarded ratio is emitted only when a sweep point fits the host's
  // hardware threads; the comparator keys its floor check on the field's
  // presence, so a 1-core host skips the check instead of failing on a
  // scheduler artifact.
  if (queue_bench.has_guard) {
    std::fprintf(f,
                 "\n  ], \"contended_lockfree_over_mutex\": %.4f},\n",
                 queue_bench.contended_ratio);
  } else {
    std::fprintf(f, "\n  ]},\n");
  }
  std::fprintf(f,
               "  \"tracing\": {\"qps_disabled\": %.3f, "
               "\"qps_enabled\": %.3f, \"overhead_pct\": %.4f, "
               "\"events_emitted\": %llu, \"events_dropped\": %llu},\n",
               tracing.qps_disabled, tracing.qps_enabled,
               tracing.overhead_pct, tracing.events_emitted,
               tracing.events_dropped);
  std::fprintf(f,
               "  \"slo\": {\"objective_ms\": %.3f, \"target\": %.5f, "
               "\"within\": %llu, \"violations\": %llu, "
               "\"goodput\": %.6f, \"fast_burn_rate\": %.4f, "
               "\"slow_burn_rate\": %.4f, \"hist_p99_ms\": %.4f, "
               "\"incidents_opened\": %llu, \"incidents_open\": %llu, "
               "\"incident_recovered\": %s, \"trace_captured\": %s, "
               "\"dropped_samples\": %llu}\n",
               slo.objective_ms, slo.target, slo.within, slo.violations,
               slo.goodput, slo.fast_burn_rate, slo.slow_burn_rate,
               slo.hist_p99_ms,
               slo.incidents_opened, slo.incidents_open,
               slo.incident_recovered ? "true" : "false",
               slo.trace_captured ? "true" : "false",
               slo.dropped_samples);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace milr;
  bool smoke = false;
  bool json = false;
  const char* trace_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  const char* net = std::getenv("MILR_NET");
  if (net == nullptr) net = smoke ? "tiny" : "cifar_large";
  const double seconds =
      smoke ? 0.3
            : static_cast<double>(EnvSize("MILR_BENCH_SECONDS", 2));
  const std::size_t clients = EnvSize("MILR_CLIENTS", 2);
  const std::size_t workers = EnvSize("MILR_WORKERS", 2);
  const std::vector<std::size_t> batches =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 4, 8, 16};

  std::printf("runtime_throughput%s: net=%s, %zu clients, %zu workers, "
              "%.1fs per phase, scrubber on\n",
              smoke ? " (smoke)" : "", net, clients, workers, seconds);

  nn::Model model = BuildServingModel(net);
  const auto golden = model.SnapshotParams();
  Prng probe_prng(3);
  std::vector<Tensor> probes;
  for (int i = 0; i < 16; ++i) {
    probes.push_back(RandomTensor(model.input_shape(), probe_prng));
  }

  const std::vector<ModelSweepRow> sweep =
      RunModelSweep(model, batches, smoke ? 0.1 : 0.5);
  const std::vector<std::string> kernels = FastPlanDescriptions(model);
  const AgreementResult agreement =
      MeasureAgreement(model, smoke ? 64 : 256);
  const TrainedAgreementResult trained = RunTrainedAgreement(smoke);

  // exact first (the baseline), then fast, then int8; per-batch results
  // are kept so the final table prints the fast/exact and int8/fast
  // speedups at equal batch size.
  std::vector<PhaseResult> exact_results;
  std::vector<PhaseResult> fast_results;
  std::vector<PhaseRow> phase_rows;
  for (const nn::KernelConfig kernel :
       {nn::KernelConfig::kExact, nn::KernelConfig::kFast,
        nn::KernelConfig::kInt8}) {
    std::printf("kernel=%s\n", nn::KernelConfigName(kernel));
    double batch1_rps = 0.0;
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
      const std::size_t max_batch = batches[bi];
      const PhaseResult r = RunPhase(model, golden, probes, kernel,
                                     max_batch, workers, clients, seconds);
      if (bi == 0) batch1_rps = r.rps;
      std::printf("  max_batch=%-2zu  %9.1f req/s  (%.2fx vs first)  "
                  "p50=%.2fms p99=%.2fms  mean_batch=%.2f  batch_ms=%.2f  "
                  "scrub_cycles=%llu",
                  max_batch, r.rps,
                  batch1_rps > 0.0 ? r.rps / batch1_rps : 1.0, r.p50, r.p99,
                  r.mean_batch, r.batch_ms, r.scrub_cycles);
      if (kernel == nn::KernelConfig::kExact) {
        exact_results.push_back(r);
      } else if (kernel == nn::KernelConfig::kFast) {
        fast_results.push_back(r);
        if (bi < exact_results.size() && exact_results[bi].rps > 0.0) {
          std::printf("  fast/exact=%.2fx", r.rps / exact_results[bi].rps);
        }
      } else if (bi < fast_results.size() && fast_results[bi].rps > 0.0) {
        std::printf("  int8/fast=%.2fx", r.rps / fast_results[bi].rps);
      }
      std::printf("\n");
      phase_rows.push_back(
          PhaseRow{nn::KernelConfigName(kernel), max_batch, r});
    }
  }

  // Multi-model co-hosting: the ServingHost acceptance sweep. Smoke runs
  // N=2 only (the CI tripwire); the full run also checks that the shared
  // pool keeps paying off as co-tenancy grows.
  const std::vector<std::size_t> cohost_counts =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  const std::vector<CoHostRow> cohost =
      RunCoHostSweep(net, cohost_counts, workers, /*max_batch=*/8, seconds);

  // Request-queue microbench: the lock-free MPMC ring vs the mutex
  // oracle from tests/, identical driver, sweeping producers×consumers
  // contention.
  const QueueBenchResult queue_bench = RunQueueSweep(smoke);

  // Flight-recorder acceptance: enabled-vs-disabled QPS on the largest
  // batch config, plus the Chrome trace dump when --trace was given.
  const TracingOverheadResult tracing = RunTracingOverhead(
      model, golden, probes, batches.back(), workers, clients, seconds,
      trace_path);

  // SLO + incident-journal acceptance phase over a fixed request count.
  const SloPhaseResult slo = RunSloPhase(
      model, golden, probes, workers, clients,
      /*total_requests=*/smoke ? 4000 : 12000, "BENCH_incidents.json",
      "incident_traces");

  if (json) {
    WriteBenchJson("BENCH_runtime.json", net, smoke, clients, workers,
                   seconds,
                   static_cast<double>(model.TotalParamBytes()) / 1e6,
                   sweep, kernels, agreement, trained, phase_rows, cohost,
                   queue_bench, tracing, slo);
  }
  return 0;
}
