#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "memory/fault_injector.h"
#include "nn/init.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/fault_drive.h"
#include "support/prng.h"

namespace milr::runtime {
namespace {

using namespace std::chrono_literals;

/// Same topology as the protector tests: every solve mode is exercised and
/// layers 0 (conv) and 8 (dense) are known exactly recoverable.
nn::Model TestModel() {
  nn::Model model(Shape{10, 10, 1});
  model.AddConv(3, 12, nn::Padding::kValid).AddBias().AddReLU();  // 0,1,2
  model.AddMaxPool(2);                                            // 3
  model.AddConv(3, 8, nn::Padding::kValid).AddBias().AddReLU();   // 4,5,6
  model.AddFlatten();                                             // 7
  model.AddDense(6).AddBias().AddReLU();                          // 8,9,10
  model.AddDense(3).AddBias();                                    // 11,12
  nn::InitHeUniform(model, 42);
  return model;
}

std::vector<Tensor> Probes(const nn::Model& model, std::size_t count) {
  Prng prng(1234);
  std::vector<Tensor> probes;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(RandomTensor(model.input_shape(), prng));
  }
  return probes;
}

// --------------------------------------------------------- InferenceEngine

TEST(InferenceEngineTest, ServesPredictionsMatchingDirectForward) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 4);
  std::vector<Tensor> expected;
  for (const auto& probe : probes) expected.push_back(model.Predict(probe));

  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Tensor output = engine.Predict(probes[i]);
    EXPECT_EQ(MaxAbsDiff(output, expected[i]), 0.0f);
  }
  const auto metrics = engine.Snapshot();
  EXPECT_EQ(metrics.requests_served, probes.size());
  EXPECT_GT(metrics.latency_p50_ms, 0.0);
}

TEST(InferenceEngineTest, ConcurrentSubmissionsAllComplete) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 8);

  EngineConfig config;
  config.worker_threads = 3;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();

  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(engine.Submit(probes[i % probes.size()]));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().shape(), model.output_shape());
  }
  EXPECT_EQ(engine.Snapshot().requests_served, 64u);
}

TEST(InferenceEngineTest, TrySubmitShedsLoadAtTheQueueBound) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 1);

  EngineConfig config;
  config.queue_capacity = 2;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  // Not started: nothing drains, so the bound is reached deterministically.
  auto a = engine.TrySubmit(probes[0]);
  auto b = engine.TrySubmit(probes[0]);
  auto c = engine.TrySubmit(probes[0]);
  EXPECT_TRUE(a.has_value());
  EXPECT_TRUE(b.has_value());
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(engine.Snapshot().requests_rejected, 1u);
  engine.Start();  // the admitted two are served on startup
  EXPECT_EQ(a->get().shape(), model.output_shape());
  EXPECT_EQ(b->get().shape(), model.output_shape());
}

// Satellite contract (restart footgun): Start() after Stop() is a clean
// restart — admission reopens, the pool respawns, counters accumulate.
TEST(InferenceEngineTest, RestartAfterStopServesAgain) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 1);
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);

  engine.Start();
  EXPECT_EQ(engine.Predict(probes[0]).shape(), model.output_shape());
  engine.Stop();
  EXPECT_FALSE(engine.running());
  // Between Stop and restart the admission contract holds.
  EXPECT_THROW(engine.Submit(probes[0]), std::runtime_error);
  EXPECT_FALSE(engine.TrySubmit(probes[0]).has_value());

  engine.Start();
  EXPECT_TRUE(engine.running());
  EXPECT_EQ(engine.Predict(probes[0]).shape(), model.output_shape());
  EXPECT_EQ(engine.Snapshot().requests_served, 2u);
  engine.Stop();
}

// Satellite contract (submission-after-shutdown): submitters racing the
// drain get either a fulfilled future or std::runtime_error — never UB —
// and TrySubmit degrades to nullopt.
TEST(InferenceEngineTest, SubmittersRacingStopServeOrThrow) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 2);
  EngineConfig config;
  config.worker_threads = 2;
  config.queue_capacity = 8;  // small bound: Push blocks during the race
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();

  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<Tensor>>> futures(3);
  for (std::size_t t = 0; t < futures.size(); ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0;; ++i) {
        try {
          futures[t].push_back(engine.Submit(probes[i % probes.size()]));
        } catch (const std::runtime_error&) {
          return;  // queue closed by Stop: the documented signal
        }
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(20ms);
  engine.Stop();
  for (auto& thread : submitters) thread.join();

  std::size_t admitted = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      ASSERT_EQ(future.wait_for(0ms), std::future_status::ready)
          << "Stop() abandoned an admitted request";
      EXPECT_EQ(future.get().shape(), model.output_shape());
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(engine.Snapshot().requests_served, admitted);
  EXPECT_THROW(engine.Submit(probes[0]), std::runtime_error);
  EXPECT_FALSE(engine.TrySubmit(probes[0]).has_value());
}

TEST(InferenceEngineTest, StopDrainsQueuedRequests) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 1);
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 16; ++i) futures.push_back(engine.Submit(probes[0]));
  engine.Start();
  engine.Stop();  // must not abandon admitted work
  for (auto& future : futures) {
    EXPECT_EQ(future.get().shape(), model.output_shape());
  }
  EXPECT_THROW(engine.Submit(probes[0]), std::runtime_error);
}

TEST(InferenceEngineTest, ScrubNowOnCleanModelFlagsNothing) {
  nn::Model model = TestModel();
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();
  const auto report = engine.ScrubNow();
  EXPECT_EQ(report.flagged_layers, 0u);
  EXPECT_EQ(report.recovered_layers, 0u);
  EXPECT_GT(report.detect_seconds, 0.0);
  const auto metrics = engine.Snapshot();
  EXPECT_EQ(metrics.scrub_cycles, 1u);
  EXPECT_EQ(metrics.detections, 0u);
}

TEST(InferenceEngineTest, SynchronousScrubRepairsInjectedCorruption) {
  nn::Model model = TestModel();
  const auto golden = model.SnapshotParams();
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();

  Prng prng(9);
  const auto injection = engine.InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 8, prng);
  });
  EXPECT_EQ(injection.corrupted_weights, model.layer(8).ParamCount());
  EXPECT_EQ(engine.Snapshot().faults_injected, 1u);

  const auto report = engine.ScrubNow();
  EXPECT_GE(report.flagged_layers, 1u);
  EXPECT_GE(report.recovered_layers, 1u);
  EXPECT_TRUE(report.recovery_ok);
  EXPECT_GT(report.outage_seconds, 0.0);

  auto params = model.layer(8).Params();
  for (std::size_t p = 0; p < params.size(); ++p) {
    EXPECT_NEAR(params[p], golden[8][p], 1e-3f);
  }
}

// The flagship scenario the issue demands: under continuous serving load,
// a whole-layer corruption is detected by the *background* scrubber and
// recovered online, with traffic served both before and after the fault.
TEST(InferenceEngineTest, ScrubberHealsLiveCorruptionUnderLoad) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 4);
  std::vector<Tensor> golden_outputs;
  for (const auto& probe : probes) {
    golden_outputs.push_back(model.Predict(probe));
  }

  EngineConfig config;
  config.worker_threads = 2;
  config.scrub_period = std::chrono::milliseconds(5);
  InferenceEngine engine(model, config);
  engine.Start();

  // Phase 1: serve clean traffic.
  for (const auto& probe : probes) engine.Predict(probe);
  const auto before = engine.Snapshot();
  ASSERT_GT(before.requests_served, 0u);

  // Phase 2: corrupt a whole recoverable layer in the live engine while a
  // client keeps hammering it.
  std::atomic<bool> stop{false};
  std::thread client([&] {
    std::size_t i = 0;
    while (!stop.load()) {
      engine.Predict(probes[i++ % probes.size()]);
    }
  });

  Prng prng(11);
  engine.InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 0, prng);
  });

  // Phase 3: the background scrubber must detect and recover online.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (engine.Snapshot().recoveries < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  stop.store(true);
  client.join();

  const auto after = engine.Snapshot();
  ASSERT_GE(after.detections, 1u) << "scrubber never flagged the corruption";
  ASSERT_GE(after.recoveries, 1u) << "scrubber never recovered online";
  EXPECT_GE(after.layers_flagged, 1u);
  EXPECT_GE(after.layers_recovered, 1u);
  EXPECT_GT(after.scrub_cycles, 0u);
  EXPECT_GT(after.downtime_seconds, 0.0);
  EXPECT_GT(after.mttr_seconds, 0.0);
  EXPECT_LT(after.availability, 1.0);
  EXPECT_GT(after.requests_served, before.requests_served)
      << "no traffic served after the fault";

  // Phase 4: predictions match the golden outputs again.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Tensor healed = engine.Predict(probes[i]);
    EXPECT_TRUE(AllClose(healed, golden_outputs[i], 1e-2f))
        << "probe " << i << " deviates by "
        << MaxAbsDiff(healed, golden_outputs[i]);
  }
  engine.Stop();
}

// ----------------------------------------------------------- Micro-batching

TEST(InferenceEngineTest, DefaultWorkerThreadsTracksHardware) {
  const EngineConfig config;
  EXPECT_GE(config.worker_threads, 1u);
  // ParallelWorkerCount() is hardware_concurrency with a floor of 1,
  // subject to the MILR_THREADS cap — the engine default must match it so
  // one knob governs the whole process.
  EXPECT_EQ(config.worker_threads, ParallelWorkerCount());
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0 && std::getenv("MILR_THREADS") == nullptr) {
    EXPECT_EQ(config.worker_threads, static_cast<std::size_t>(hw));
  }
}

// Queued backlog is served in micro-batches whose outputs must be
// indistinguishable from the single-sample path, including the final
// non-divisible batch (6 requests, max_batch 4 -> e.g. 4 + 2).
TEST(InferenceEngineTest, MicroBatchedServingMatchesSinglePath) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 6);
  std::vector<Tensor> expected;
  for (const auto& probe : probes) expected.push_back(model.Predict(probe));

  EngineConfig config;
  config.worker_threads = 1;  // deterministic drain order
  config.max_batch = 4;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  // Queue everything before Start so the worker sees a full backlog and
  // must split it 4 + 2.
  std::vector<std::future<Tensor>> futures;
  for (const auto& probe : probes) futures.push_back(engine.Submit(probe));
  engine.Start();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(futures[i].get(), expected[i]), 0.0f) << i;
  }

  const auto metrics = engine.Snapshot();
  EXPECT_EQ(metrics.requests_served, probes.size());
  EXPECT_EQ(metrics.batches_served, 2u);
  EXPECT_EQ(metrics.batch_size_max, 4u);
  ASSERT_GT(metrics.batch_histogram.size(), 4u);
  EXPECT_EQ(metrics.batch_histogram[4], 1u);
  EXPECT_EQ(metrics.batch_histogram[2], 1u);
}

TEST(InferenceEngineTest, BatchHistogramAccountsForEveryRequest) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 4);

  EngineConfig config;
  config.worker_threads = 2;
  config.max_batch = 8;
  config.batch_linger = std::chrono::microseconds(200);
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(engine.Submit(probes[i % probes.size()]));
  }
  for (auto& future : futures) future.get();

  const auto metrics = engine.Snapshot();
  EXPECT_EQ(metrics.requests_served, 40u);
  EXPECT_GE(metrics.batches_served, 5u);   // at most 8 riders per batch
  EXPECT_LE(metrics.batches_served, 40u);
  EXPECT_LE(metrics.batch_size_max, 8u);
  std::uint64_t accounted = 0;
  for (std::size_t s = 1; s < metrics.batch_histogram.size(); ++s) {
    accounted += metrics.batch_histogram[s] * s;
  }
  EXPECT_EQ(accounted, metrics.requests_served);
  EXPECT_NEAR(metrics.batch_size_mean,
              static_cast<double>(metrics.requests_served) /
                  static_cast<double>(metrics.batches_served),
              1e-9);
}

// A misshapen input sharing a drain with healthy requests must fail alone.
TEST(InferenceEngineTest, MisshapenRequestFailsWithoutPoisoningTheBatch) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 2);

  EngineConfig config;
  config.worker_threads = 1;
  config.max_batch = 4;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  auto good_a = engine.Submit(probes[0]);
  auto bad = engine.Submit(Tensor(Shape{3, 3, 1}));  // wrong input shape
  auto good_b = engine.Submit(probes[1]);
  engine.Start();
  EXPECT_EQ(MaxAbsDiff(good_a.get(), model.Predict(probes[0])), 0.0f);
  EXPECT_EQ(MaxAbsDiff(good_b.get(), model.Predict(probes[1])), 0.0f);
  EXPECT_THROW(bad.get(), std::invalid_argument);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, JsonSnapshotCarriesEveryCounter) {
  Metrics metrics;
  metrics.MarkStarted();
  metrics.RecordLatency(1.5);
  metrics.RecordRejected();
  metrics.RecordScrubCycle();
  metrics.RecordDetection(2);
  metrics.RecordDowntime(0.25);
  metrics.RecordRecovery(2, 0.25);
  metrics.RecordInjection(64);

  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.requests_served, 1u);
  EXPECT_EQ(snap.requests_rejected, 1u);
  EXPECT_EQ(snap.scrub_cycles, 1u);
  EXPECT_EQ(snap.detections, 1u);
  EXPECT_EQ(snap.layers_flagged, 2u);
  EXPECT_EQ(snap.recoveries, 1u);
  EXPECT_EQ(snap.layers_recovered, 2u);
  EXPECT_EQ(snap.failed_recoveries, 0u);
  EXPECT_EQ(snap.faults_injected, 1u);
  EXPECT_EQ(snap.corrupted_weights, 64u);
  EXPECT_NEAR(snap.downtime_seconds, 0.25, 1e-6);
  EXPECT_NEAR(snap.recovery_downtime_seconds, 0.25, 1e-6);
  EXPECT_NEAR(snap.mttr_seconds, 0.25, 1e-6);
  // Percentiles come from the log-bucketed histogram: exact value is
  // quantized to a bucket midpoint within the documented relative bound.
  EXPECT_NEAR(snap.latency_p50_ms, 1.5,
              1.5 * obs::LatencyHistogram::kMaxRelativeError);

  const std::string json = snap.ToJson();
  for (const char* key :
       {"requests_served", "requests_rejected", "scheduler_grants",
        "linger_skips", "dropped_samples", "queue_depth",
        "in_flight_batches", "scrub_cycles", "detections", "layers_flagged",
        "recoveries", "layers_recovered", "failed_recoveries",
        "faults_injected", "corrupted_weights", "uptime_seconds",
        "downtime_seconds", "availability", "recovery_downtime_seconds",
        "mttr_seconds", "approx_percentiles", "latency_mean_ms",
        "latency_p50_ms", "latency_p99_ms", "queue_wait_p50_ms",
        "queue_wait_p99_ms", "throughput_rps", "slo_enabled",
        "slo_objective_ms", "slo_target", "slo_within", "slo_violations",
        "slo_goodput", "slo_fast_burn_rate", "slo_slow_burn_rate"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(MetricsTest, GrantAndLingerSkipCountersSurface) {
  Metrics metrics;
  metrics.RecordGrant();
  metrics.RecordGrant();
  metrics.RecordLingerSkip();
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.scheduler_grants, 2u);
  EXPECT_EQ(snap.linger_skips, 1u);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"scheduler_grants\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"linger_skips\": 1"), std::string::npos);
}

TEST(MetricsTest, DowntimeWithoutRecoveryLeavesMttrZero) {
  Metrics metrics;
  metrics.RecordDowntime(0.1);  // quarantine that found nothing to fix
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.recoveries, 0u);
  EXPECT_NEAR(snap.downtime_seconds, 0.1, 1e-6);
  EXPECT_DOUBLE_EQ(snap.mttr_seconds, 0.0);
}

// Contract pin (metrics issue #2): Snapshot() before MarkStarted() must
// see a construction-stamped epoch — a default-constructed time_point
// would turn uptime/availability/throughput into epoch-scale garbage.
// (Verification showed the member initializer was already present; this
// test pins the invariant so it cannot regress silently.)
TEST(MetricsTest, SnapshotBeforeMarkStartedIsSane) {
  Metrics metrics;
  metrics.RecordLatency(2.0);
  const auto snap = metrics.Snapshot();
  EXPECT_GE(snap.uptime_seconds, 0.0);
  EXPECT_LT(snap.uptime_seconds, 60.0) << "uptime epoch was never stamped";
  EXPECT_GE(snap.availability, 0.0);
  EXPECT_LE(snap.availability, 1.0);
  EXPECT_GE(snap.throughput_rps, 0.0);
  // 1 request over well under a minute cannot be below 1/60 rps.
  EXPECT_GT(snap.throughput_rps, 1.0 / 60.0);
}

// Regression (metrics bug #3): a quarantine whose recovery failed used to
// push its outage into the MTTR numerator while the denominator only
// counted successes, inflating MTTR. Failed repairs must charge
// availability and the failure counter — never MTTR.
TEST(MetricsTest, FailedRecoveryDoesNotInflateMttr) {
  Metrics metrics;
  metrics.MarkStarted();
  // One failed repair (0.5 s quarantine), then one success (0.2 s).
  metrics.RecordDowntime(0.5);
  metrics.RecordFailedRecovery();
  metrics.RecordDowntime(0.2);
  metrics.RecordRecovery(1, 0.2);

  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.recoveries, 1u);
  EXPECT_EQ(snap.failed_recoveries, 1u);
  EXPECT_NEAR(snap.downtime_seconds, 0.7, 1e-6);       // availability: all
  EXPECT_NEAR(snap.recovery_downtime_seconds, 0.2, 1e-6);
  EXPECT_NEAR(snap.mttr_seconds, 0.2, 1e-6)
      << "failed-recovery downtime leaked into MTTR";
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"failed_recoveries\": 1"), std::string::npos);
}

// Restart contract: MarkStarted restamps the rate epoch. Counters stay
// lifetime, but throughput/availability must describe the NEW epoch —
// dividing lifetime counts by a fresh epoch's uptime reported absurd
// throughput and zero availability after a Stop -> Start restart.
TEST(MetricsTest, RestartRestampsRateEpochButKeepsCounters) {
  Metrics metrics;
  metrics.MarkStarted();
  metrics.RecordLatency(1.0);
  metrics.RecordDowntime(1000.0);  // catastrophic first epoch
  metrics.MarkStarted();           // restart
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.requests_served, 1u);             // lifetime counter
  EXPECT_NEAR(snap.downtime_seconds, 1000.0, 1e-6);  // lifetime counter
  EXPECT_DOUBLE_EQ(snap.throughput_rps, 0.0)
      << "pre-restart requests leaked into the new epoch's rate";
  EXPECT_GT(snap.availability, 0.99)
      << "pre-restart downtime leaked into the new epoch's availability";
}

// RecordRecovery with zero layers is a misuse (the scrubber no longer
// emits it); it must not fabricate a recovery event or MTTR mass.
TEST(MetricsTest, ZeroLayerRecoveryIsIgnored) {
  Metrics metrics;
  metrics.RecordRecovery(0, 0.3);
  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.recoveries, 0u);
  EXPECT_DOUBLE_EQ(snap.recovery_downtime_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.downtime_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snap.mttr_seconds, 0.0);
}

// --------------------------------------------------- AggregateSnapshots
// Pins the documented aggregation math, including the request-weighted
// percentile approximation and its "approx_percentiles" honesty marker.

TEST(MetricsTest, AggregateSnapshotsEmptyIsZeroAndExact) {
  const auto agg = AggregateSnapshots({});
  EXPECT_EQ(agg.requests_served, 0u);
  EXPECT_DOUBLE_EQ(agg.latency_p99_ms, 0.0);
  EXPECT_DOUBLE_EQ(agg.availability, 1.0);
  EXPECT_FALSE(agg.approx_percentiles)
      << "an empty aggregate approximates nothing";
}

TEST(MetricsTest, AggregateSnapshotsSinglePartPassesThroughExactly) {
  MetricsSnapshot one;
  one.requests_served = 10;
  one.latency_p50_ms = 2.5;
  one.latency_p99_ms = 7.5;
  one.queue_wait_p99_ms = 1.25;
  one.availability = 0.875;
  one.queue_depth = 3;
  one.in_flight_batches = 2;
  one.scheduler_grants = 11;
  const auto agg = AggregateSnapshots({one});
  EXPECT_DOUBLE_EQ(agg.latency_p50_ms, 2.5);
  EXPECT_DOUBLE_EQ(agg.latency_p99_ms, 7.5);
  EXPECT_DOUBLE_EQ(agg.queue_wait_p99_ms, 1.25);
  EXPECT_DOUBLE_EQ(agg.availability, 0.875);
  EXPECT_EQ(agg.queue_depth, 3u);
  EXPECT_EQ(agg.in_flight_batches, 2u);
  EXPECT_EQ(agg.scheduler_grants, 11u);
  EXPECT_FALSE(agg.approx_percentiles)
      << "one part's percentiles are exact, not approximated";
}

TEST(MetricsTest, AggregateSnapshotsSkewedTrafficWeightsByRequests) {
  MetricsSnapshot hot;
  hot.requests_served = 900;
  hot.latency_p99_ms = 10.0;
  hot.queue_wait_p99_ms = 2.0;
  hot.availability = 1.0;
  hot.throughput_rps = 90.0;
  hot.queue_depth = 5;
  MetricsSnapshot cold;
  cold.requests_served = 100;
  cold.latency_p99_ms = 110.0;
  cold.queue_wait_p99_ms = 42.0;
  cold.availability = 0.5;
  cold.throughput_rps = 10.0;
  cold.queue_depth = 1;

  const auto agg = AggregateSnapshots({hot, cold});
  EXPECT_EQ(agg.requests_served, 1000u);
  // Request-weighted: (900*10 + 100*110) / 1000 — the hot model dominates.
  EXPECT_NEAR(agg.latency_p99_ms, 20.0, 1e-9);
  EXPECT_NEAR(agg.queue_wait_p99_ms, 6.0, 1e-9);
  // Availability is the per-model mean (each model is its own SLO).
  EXPECT_NEAR(agg.availability, 0.75, 1e-12);
  EXPECT_NEAR(agg.throughput_rps, 100.0, 1e-9);
  EXPECT_EQ(agg.queue_depth, 6u);  // gauges sum across models
  EXPECT_TRUE(agg.approx_percentiles);
  EXPECT_NE(agg.ToJson().find("\"approx_percentiles\": true"),
            std::string::npos)
      << "the approximation caveat must be visible in the JSON itself";
}

// Live snapshots carry histogram buckets, so a multi-model aggregate merges
// them bucket-wise and recomputes percentiles EXACTLY (to within the bucket
// bound) instead of request-weighting per-model percentiles. The honesty
// marker must read false on this path.
TEST(MetricsTest, AggregateSnapshotsMergesHistogramsExactly) {
  Metrics hot;
  Metrics cold;
  // Hot model: 900 fast requests around 2 ms. Cold model: 100 slow ones at
  // 80 ms. A request-weighted p99 would blend the two per-model p99s; the
  // exact merged p99 must land in the slow mode (rank 990 of 1000 > 900).
  for (int i = 0; i < 900; ++i) hot.RecordLatency(2.0);
  for (int i = 0; i < 100; ++i) cold.RecordLatency(80.0);

  const auto agg = AggregateSnapshots({hot.Snapshot(), cold.Snapshot()});
  EXPECT_EQ(agg.requests_served, 1000u);
  EXPECT_FALSE(agg.approx_percentiles)
      << "merged histograms are exact, not request-weighted";
  constexpr double kBound = obs::LatencyHistogram::kMaxRelativeError;
  EXPECT_NEAR(agg.latency_p50_ms, 2.0, 2.0 * kBound);
  EXPECT_NEAR(agg.latency_p99_ms, 80.0, 80.0 * kBound);
  // The merged count is the sum of per-part bucket mass.
  EXPECT_EQ(agg.latency_hist.count, 1000u);
  EXPECT_NE(agg.ToJson().find("\"approx_percentiles\": false"),
            std::string::npos);
}

// NaN and negative latencies (clock skew, subtraction of unordered
// timestamps) must not poison the histogram: they clamp to bucket zero and
// increment the dropped_samples diagnostic counter.
TEST(MetricsTest, NonFiniteAndNegativeLatenciesAreClampedAndCounted) {
  Metrics metrics;
  metrics.RecordLatency(std::numeric_limits<double>::quiet_NaN());
  metrics.RecordLatency(-3.0);
  metrics.RecordQueueWait(std::numeric_limits<double>::quiet_NaN());
  metrics.RecordQueueWait(-1.0);
  metrics.RecordLatency(5.0);  // one honest sample

  const auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.requests_served, 3u) << "clamped samples still count served";
  EXPECT_EQ(snap.dropped_samples, 4u);
  EXPECT_EQ(snap.latency_hist.count, 3u);
  EXPECT_EQ(snap.queue_wait_hist.count, 2u);
  // p99 rides the honest sample; the clamped ones sit at 0.
  constexpr double kBound = obs::LatencyHistogram::kMaxRelativeError;
  EXPECT_NEAR(snap.latency_p99_ms, 5.0, 5.0 * kBound);
  EXPECT_DOUBLE_EQ(snap.queue_wait_p50_ms, 0.0);
  EXPECT_NE(snap.ToJson().find("\"dropped_samples\": 4"), std::string::npos);
}

// The snapshot's latency percentiles against the exact quantiles of the
// recorded samples: a seeded heavy-tailed (Pareto, alpha 1.5) set through
// the production record path must read back within the histogram's
// documented bucket bound at p50 and p99 (rank rule as histogram_test).
TEST(MetricsTest, LatencyPercentilesMatchSortedSamplesWithinBound) {
  Metrics metrics;
  Prng prng(20261017);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double u = prng.NextDouble();  // [0, 1)
    samples.push_back(std::min(0.3 * std::pow(1.0 - u, -1.0 / 1.5), 1e4));
    metrics.RecordLatency(samples.back());
  }
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    std::size_t rank =
        static_cast<std::size_t>(q * static_cast<double>(samples.size()) + 0.5);
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
  };
  const auto snap = metrics.Snapshot();
  constexpr double kBound = obs::LatencyHistogram::kMaxRelativeError;
  const double p50 = quantile(0.5);
  const double p99 = quantile(0.99);
  EXPECT_NEAR(snap.latency_p50_ms, p50, p50 * kBound);
  EXPECT_NEAR(snap.latency_p99_ms, p99, p99 * kBound);
  EXPECT_GT(p99, 10.0 * p50) << "the sample set should be heavy-tailed";
}

TEST(InferenceEngineTest, SnapshotCarriesLiveQueueDepthGauge) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 3);
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  std::vector<std::future<Tensor>> futures;
  for (const auto& probe : probes) futures.push_back(engine.Submit(probe));
  // Not started yet: all three requests sit in the queue.
  EXPECT_EQ(engine.Snapshot().queue_depth, 3u);
  engine.Start();
  for (auto& future : futures) future.get();
  engine.Stop();
  const auto snap = engine.Snapshot();
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.in_flight_batches, 0u);
  EXPECT_GE(snap.scheduler_grants, 1u);
}

// ------------------------------------------------------ trace coverage

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Span coverage: with the flight recorder on, every served request leaves
// an enqueue instant and a done instant, batches leave complete spans
// (begin + duration in one "X" event, so nothing can be orphaned), layer
// execution leaves per-layer spans, and a scrub cycle is visible.
TEST(TraceCoverageTest, EveryServedRequestAppearsInTheTrace) {
  auto& tracer = obs::Tracer::Get();
  tracer.Enable(1u << 12);

  constexpr std::size_t kRequests = 32;
  {
    nn::Model model = TestModel();
    const auto probes = Probes(model, 1);
    EngineConfig config;
    config.worker_threads = 2;
    config.scrubber_enabled = false;
    InferenceEngine engine(model, config);
    engine.Start();
    std::vector<std::future<Tensor>> futures;
    futures.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      futures.push_back(engine.Submit(probes[0]));
    }
    for (auto& future : futures) future.get();
    engine.ScrubNow();
    engine.Stop();
  }
  tracer.Disable();
  const std::string json = tracer.ChromeTraceJson();
  tracer.Clear();

  EXPECT_EQ(CountOccurrences(json, "\"name\": \"enqueue\""), kRequests);
  EXPECT_EQ(CountOccurrences(json, "\"name\": \"done\""), kRequests);
  EXPECT_GE(CountOccurrences(json, "\"name\": \"batch\""), 1u);
  EXPECT_GE(CountOccurrences(json, "\"name\": \"grant\""), 1u);
  EXPECT_GE(CountOccurrences(json, "\"name\": \"scrub_cycle\""), 1u);
  // Per-layer spans: the test model has dense and conv2d layers, and layer
  // spans carry the kernel tier as their category.
  EXPECT_GE(CountOccurrences(json, "\"name\": \"dense\""), 1u);
  EXPECT_GE(CountOccurrences(json, "\"name\": \"conv2d\""), 1u);
  EXPECT_GE(CountOccurrences(json, "\"cat\": \"exact\""), 1u);
  // Worker threads are named in the trace metadata. A name reaches the
  // export only for workers that emitted an event, and the eventcount
  // scheduler's single-waiter grants mean WHICH workers serve a burst is
  // scheduling-dependent — so assert some worker appears, not a specific
  // index.
  EXPECT_GE(CountOccurrences(json, "\"worker_"), 1u);
}

// ------------------------------------------------------- JSON strictness

// Minimal strict parser for the snapshot's JSON subset: objects whose
// values are numbers or nested objects. Returns the position after the
// value, or npos on any syntax error.
std::size_t ParseJsonValue(const std::string& s, std::size_t pos);

std::size_t SkipSpace(const std::string& s, std::size_t pos) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t' ||
                            s[pos] == '\n' || s[pos] == '\r')) {
    ++pos;
  }
  return pos;
}

std::size_t ParseJsonString(const std::string& s, std::size_t pos) {
  if (pos >= s.size() || s[pos] != '"') return std::string::npos;
  ++pos;
  while (pos < s.size() && s[pos] != '"') {
    if (s[pos] == '\\' || static_cast<unsigned char>(s[pos]) < 0x20) {
      return std::string::npos;  // snapshot keys never need escapes
    }
    ++pos;
  }
  return pos < s.size() ? pos + 1 : std::string::npos;
}

std::size_t ParseJsonNumber(const std::string& s, std::size_t pos) {
  const std::size_t start = pos;
  if (pos < s.size() && s[pos] == '-') ++pos;
  std::size_t digits = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos, ++digits;
  if (digits == 0) return std::string::npos;
  if (pos < s.size() && s[pos] == '.') {
    ++pos;
    digits = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos, ++digits;
    if (digits == 0) return std::string::npos;
  }
  // Leading zeros like "00" are invalid JSON.
  if (s[start] == '0' && pos > start + 1 && s[start + 1] != '.') {
    return std::string::npos;
  }
  if (s[start] == '-' && s[start + 1] == '0' && pos > start + 2 &&
      s[start + 2] != '.') {
    return std::string::npos;
  }
  return pos;
}

std::size_t ParseJsonObject(const std::string& s, std::size_t pos) {
  if (pos >= s.size() || s[pos] != '{') return std::string::npos;
  pos = SkipSpace(s, pos + 1);
  if (pos < s.size() && s[pos] == '}') return pos + 1;
  for (;;) {
    pos = ParseJsonString(s, SkipSpace(s, pos));
    if (pos == std::string::npos) return std::string::npos;
    pos = SkipSpace(s, pos);
    if (pos >= s.size() || s[pos] != ':') return std::string::npos;
    pos = ParseJsonValue(s, SkipSpace(s, pos + 1));
    if (pos == std::string::npos) return std::string::npos;
    pos = SkipSpace(s, pos);
    if (pos >= s.size()) return std::string::npos;
    if (s[pos] == '}') return pos + 1;
    if (s[pos] != ',') return std::string::npos;
    ++pos;
  }
}

std::size_t ParseJsonValue(const std::string& s, std::size_t pos) {
  if (pos >= s.size()) return std::string::npos;
  if (s[pos] == '{') return ParseJsonObject(s, pos);
  if (s[pos] == '"') return ParseJsonString(s, pos);
  if (s.compare(pos, 4, "true") == 0) return pos + 4;
  if (s.compare(pos, 5, "false") == 0) return pos + 5;
  return ParseJsonNumber(s, pos);
}

void ExpectStrictJson(const std::string& json) {
  const std::size_t end = ParseJsonObject(json, 0);
  ASSERT_NE(end, std::string::npos) << "not parseable as JSON: " << json;
  EXPECT_EQ(SkipSpace(json, end), json.size())
      << "trailing garbage after JSON object: " << json;
}

TEST(MetricsTest, ToJsonIsStrictlyValidWhenEmpty) {
  // Fresh registry: zero counters and — the tricky case — an empty batch
  // histogram, which must render as "{}" and not break the object syntax.
  Metrics metrics;
  ExpectStrictJson(metrics.Snapshot().ToJson());
}

TEST(MetricsTest, ToJsonIsStrictlyValidWhenPopulated) {
  Metrics metrics;
  metrics.MarkStarted();
  metrics.RecordLatency(1.25);
  metrics.RecordLatency(3.75);
  metrics.RecordBatch(2, 0.5);
  metrics.RecordBatch(7, 1.5);
  metrics.RecordRejected();
  metrics.RecordScrubCycle();
  metrics.RecordDetection(1);
  metrics.RecordDowntime(0.125);
  metrics.RecordRecovery(1, 0.125);
  metrics.RecordFailedRecovery();
  metrics.RecordInjection(9);
  const auto snap = metrics.Snapshot();
  ExpectStrictJson(snap.ToJson());
  // Histogram carries only observed sizes, as quoted integer keys.
  EXPECT_NE(snap.ToJson().find("\"2\": 1"), std::string::npos);
  EXPECT_NE(snap.ToJson().find("\"7\": 1"), std::string::npos);
}

// ----------------------------------------------- worker-count resolution

// Regression (engine bug #1): Start() clamps worker_threads = 0 to one
// worker, but the serial-region guard compared the raw config value, so
// the clamped pool and the guard could disagree. The effective count must
// be resolved once and visible.
TEST(InferenceEngineTest, WorkerThreadsZeroResolvesToOneWorker) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 1);
  EngineConfig config;
  config.worker_threads = 0;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  EXPECT_EQ(engine.effective_worker_threads(), 1u);
  // The guard decision must key off the effective count: with one worker
  // it pins exactly when one worker already covers the machine.
  EXPECT_EQ(engine.pins_nested_parallelism(),
            ParallelWorkerCount() <= 1);
  engine.Start();
  EXPECT_EQ(engine.Predict(probes[0]).shape(), model.output_shape());
  engine.Stop();
}

// ------------------------------------------------------- kernel config

TEST(InferenceEngineTest, FastKernelServesWithinToleranceOfExact) {
  nn::Model model = TestModel();
  const auto probes = Probes(model, 3);
  std::vector<Tensor> exact_outputs;
  for (const auto& probe : probes) {
    exact_outputs.push_back(model.Predict(probe));
  }

  EngineConfig config;
  config.scrubber_enabled = false;
  config.kernel = nn::KernelConfig::kFast;
  InferenceEngine engine(model, config);
  EXPECT_EQ(engine.model().kernel_config(), nn::KernelConfig::kFast);
  engine.Start();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Tensor served = engine.Predict(probes[i]);
    EXPECT_TRUE(AllClose(served, exact_outputs[i], 1e-3f))
        << "probe " << i << " deviates by "
        << MaxAbsDiff(served, exact_outputs[i]);
  }
  engine.Stop();
  // The engine reconfigured the model; restore the default for any later
  // use of this model object.
  model.set_kernel_config(nn::KernelConfig::kExact);
}

TEST(InferenceEngineTest, DefaultKernelConfigStaysExact) {
  nn::Model model = TestModel();
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  EXPECT_EQ(engine.config().kernel, nn::KernelConfig::kExact);
  EXPECT_EQ(engine.model().kernel_config(), nn::KernelConfig::kExact);
}

// -------------------------------------------------------------- FaultDrive

TEST(FaultDriveTest, FiresBoundedCampaignAgainstLiveEngine) {
  nn::Model model = TestModel();
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();

  FaultCampaign campaign;
  campaign.kind = FaultCampaign::Kind::kExactWeights;
  campaign.count = 8;
  campaign.max_events = 3;
  campaign.period = std::chrono::milliseconds(1);
  campaign.seed = 21;
  FaultDrive drive(engine, campaign);
  for (std::size_t i = 0; i < campaign.max_events; ++i) {
    const auto report = drive.FireOnce();
    EXPECT_EQ(report.corrupted_weights, campaign.count);
  }
  EXPECT_EQ(drive.events(), 3u);
  const auto metrics = engine.Snapshot();
  EXPECT_EQ(metrics.faults_injected, 3u);
  EXPECT_EQ(metrics.corrupted_weights, 24u);

  // The scrubber sees the accumulated damage.
  const auto report = engine.ScrubNow();
  EXPECT_GE(report.flagged_layers, 1u);
}

TEST(FaultDriveTest, BackgroundCampaignStopsAtMaxEvents) {
  nn::Model model = TestModel();
  EngineConfig config;
  config.scrubber_enabled = false;
  InferenceEngine engine(model, config);
  engine.Start();

  FaultCampaign campaign;
  campaign.kind = FaultCampaign::Kind::kExactWeights;
  campaign.count = 4;
  campaign.max_events = 2;
  campaign.period = std::chrono::milliseconds(1);
  FaultDrive drive(engine, campaign);
  drive.Start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (drive.events() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  drive.Stop();
  EXPECT_GE(drive.events(), 2u);
  EXPECT_LE(drive.events(), 3u);  // one in-flight event may straddle the cap
}

}  // namespace
}  // namespace milr::runtime
