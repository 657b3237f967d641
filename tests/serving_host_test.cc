// Multi-model serving: shared WorkerPool + DRR Scheduler + per-model
// runtimes + single Scrubber (the ServingHost decomposition).
//
// The concurrency-heavy tests here (racing submitters during the drain,
// saturation + trickle fairness with concurrent fault injection) also run
// under ThreadSanitizer in CI — keep their phases short but real.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "memory/fault_injector.h"
#include "nn/init.h"
#include "obs/trace.h"
#include "runtime/serving_host.h"
#include "support/prng.h"

namespace milr::runtime {
namespace {

using namespace std::chrono_literals;

/// Same topology as the protector/runtime tests: every solve mode is
/// exercised and layers 0 (conv) and 8 (dense) are known exactly
/// recoverable.
nn::Model TestModel(std::uint64_t seed) {
  nn::Model model(Shape{10, 10, 1});
  model.AddConv(3, 12, nn::Padding::kValid).AddBias().AddReLU();  // 0,1,2
  model.AddMaxPool(2);                                            // 3
  model.AddConv(3, 8, nn::Padding::kValid).AddBias().AddReLU();   // 4,5,6
  model.AddFlatten();                                             // 7
  model.AddDense(6).AddBias().AddReLU();                          // 8,9,10
  model.AddDense(3).AddBias();                                    // 11,12
  nn::InitHeUniform(model, seed);
  return model;
}

std::vector<Tensor> Probes(const nn::Model& model, std::size_t count,
                           std::uint64_t seed) {
  Prng prng(seed);
  std::vector<Tensor> probes;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(RandomTensor(model.input_shape(), prng));
  }
  return probes;
}

// ------------------------------------------------------------ correctness

TEST(ServingHostTest, CoHostedModelsServeTheirOwnOutputs) {
  nn::Model model_a = TestModel(42);
  nn::Model model_b = TestModel(43);
  const auto probes_a = Probes(model_a, 4, 100);
  const auto probes_b = Probes(model_b, 4, 200);
  std::vector<Tensor> expected_a, expected_b;
  for (const auto& p : probes_a) expected_a.push_back(model_a.Predict(p));
  for (const auto& p : probes_b) expected_b.push_back(model_b.Predict(p));

  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrubber_enabled = false;
  ServingHost host(config);
  auto a = host.AddModel(model_a, {}, "a");
  auto b = host.AddModel(model_b, {}, "b");
  host.Start();

  // Interleave so the scheduler must route between the two queues; the
  // exact tier makes per-model outputs bit-identical to direct Predict.
  for (std::size_t i = 0; i < probes_a.size(); ++i) {
    EXPECT_EQ(MaxAbsDiff(a->Predict(probes_a[i]), expected_a[i]), 0.0f)
        << "model a, probe " << i;
    EXPECT_EQ(MaxAbsDiff(b->Predict(probes_b[i]), expected_b[i]), 0.0f)
        << "model b, probe " << i;
  }
  EXPECT_EQ(a->Snapshot().requests_served, probes_a.size());
  EXPECT_EQ(b->Snapshot().requests_served, probes_b.size());

  const auto aggregate = host.AggregateSnapshot();
  EXPECT_EQ(aggregate.requests_served, probes_a.size() + probes_b.size());
  host.Stop();
}

TEST(ServingHostTest, ModelsAddAndRemoveWhileRunning) {
  nn::Model model_a = TestModel(7);
  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrubber_enabled = false;
  ServingHost host(config);
  auto a = host.AddModel(model_a, {}, "resident");
  host.Start();
  const auto probes_a = Probes(model_a, 1, 300);
  EXPECT_EQ(a->Predict(probes_a[0]).shape(), model_a.output_shape());

  // A model added to the running host serves immediately.
  nn::Model model_b = TestModel(8);
  const auto probes_b = Probes(model_b, 1, 301);
  auto b = host.AddModel(model_b, {}, "guest");
  EXPECT_EQ(host.models().size(), 2u);
  std::vector<std::future<Tensor>> b_futures;
  for (int i = 0; i < 12; ++i) b_futures.push_back(b->Submit(probes_b[0]));

  // RemoveModel drains admitted work through the shared pool first: every
  // future must be ready the moment it returns.
  host.RemoveModel(b);
  for (auto& future : b_futures) {
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(future.get().shape(), model_b.output_shape());
  }
  EXPECT_EQ(host.models().size(), 1u);
  EXPECT_THROW(b->Submit(probes_b[0]), std::runtime_error);

  // The resident model is unaffected.
  EXPECT_EQ(a->Predict(probes_a[0]).shape(), model_a.output_shape());
  host.Stop();
}

// ------------------------------------------------- shutdown & restart

// Satellite contract: once Stop() has run, Submit throws and TrySubmit
// returns nullopt — including for submitters racing the drain. Every
// future a racing submitter DID obtain must still be fulfilled (admitted
// work is never abandoned by Stop).
TEST(ServingHostTest, RacingSubmittersDuringStopEitherServeOrThrow) {
  nn::Model model = TestModel(11);
  const auto probes = Probes(model, 2, 400);
  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrubber_enabled = false;
  ServingHost host(config);
  ModelRuntimeConfig runtime_config;
  runtime_config.queue_capacity = 16;  // small: submitters block in Push too
  auto handle = host.AddModel(model, runtime_config, "target");
  host.Start();

  std::atomic<bool> go{false};
  std::atomic<std::size_t> admitted{0};
  std::atomic<std::size_t> refused{0};
  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<Tensor>>> futures(4);
  for (std::size_t t = 0; t < futures.size(); ++t) {
    submitters.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0;; ++i) {
        try {
          if (i % 3 == 0) {
            auto maybe = handle->TrySubmit(probes[i % probes.size()]);
            if (maybe.has_value()) {
              futures[t].push_back(std::move(*maybe));
              admitted.fetch_add(1);
            } else if (!host.running()) {
              // Shed because closed (not merely full): contract observed.
              refused.fetch_add(1);
              return;
            }
          } else {
            futures[t].push_back(handle->Submit(probes[i % probes.size()]));
            admitted.fetch_add(1);
          }
        } catch (const std::runtime_error&) {
          refused.fetch_add(1);
          return;  // closed: the documented shutdown signal
        }
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(30ms);  // let the drain race real traffic
  host.Stop();
  for (auto& thread : submitters) thread.join();

  EXPECT_GT(admitted.load(), 0u);
  EXPECT_EQ(refused.load(), submitters.size())
      << "every racing submitter must eventually observe the closed queue";
  std::size_t fulfilled = 0;
  for (auto& lane : futures) {
    for (auto& future : lane) {
      ASSERT_EQ(future.wait_for(0s), std::future_status::ready)
          << "Stop() abandoned an admitted request";
      EXPECT_EQ(future.get().shape(), model.output_shape());
      ++fulfilled;
    }
  }
  EXPECT_EQ(fulfilled, admitted.load());

  // Quiescent post-conditions of the same contract.
  EXPECT_THROW(handle->Submit(probes[0]), std::runtime_error);
  const auto rejected_before = handle->Snapshot().requests_rejected;
  EXPECT_FALSE(handle->TrySubmit(probes[0]).has_value());
  EXPECT_EQ(handle->Snapshot().requests_rejected, rejected_before + 1);
}

// Deterministic DRR contract: saturated peers serve in weight ratio. The
// scheduler and runtimes are driven directly, single-threaded, so the
// grant sequence is exact — a weight-2 model must take two consecutive
// full batches per round against a weight-1 peer's one.
TEST(ServingHostTest, WeightedDrrServesSaturatedPeersInWeightRatio) {
  nn::Model model_heavy = TestModel(61);
  nn::Model model_light = TestModel(62);
  const auto heavy_probes = Probes(model_heavy, 1, 900);
  const auto light_probes = Probes(model_light, 1, 901);

  ModelRuntimeConfig heavy_config;
  heavy_config.max_batch = 4;
  heavy_config.weight = 2.0;
  ModelRuntimeConfig light_config;
  light_config.max_batch = 4;
  light_config.weight = 1.0;
  auto heavy =
      std::make_shared<ModelRuntime>(model_heavy, heavy_config, "heavy");
  auto light =
      std::make_shared<ModelRuntime>(model_light, light_config, "light");

  Scheduler scheduler;
  scheduler.Register(heavy);
  scheduler.Register(light);
  // Saturate both queues up front (no pool: this test IS the worker).
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(heavy->Submit(heavy_probes[0]));
    futures.push_back(light->Submit(light_probes[0]));
  }

  std::size_t heavy_served = 0, light_served = 0;
  while (light_served < 12) {
    auto grant = scheduler.NextWork();
    ASSERT_TRUE(grant.has_value());
    const std::size_t served = grant->runtime->ServeSome(grant->quota);
    scheduler.SettleGrant(grant->runtime.get(), grant->quota - served);
    (grant->runtime == heavy ? heavy_served : light_served) += served;
  }
  // Exact sequence is heavy,heavy,light repeating; allow one grant of
  // slack either way rather than pinning the implementation's phase.
  EXPECT_GE(heavy_served + 4, 2 * light_served)
      << "heavy " << heavy_served << " vs light " << light_served;
  EXPECT_LE(heavy_served, 2 * light_served + 4)
      << "heavy " << heavy_served << " vs light " << light_served;

  // Drain the rest so every submitted future resolves.
  for (;;) {
    heavy->CloseQueue();
    light->CloseQueue();
    scheduler.BeginShutdown();
    auto grant = scheduler.NextWork();
    if (!grant.has_value()) break;
    const std::size_t served = grant->runtime->ServeSome(grant->quota);
    scheduler.SettleGrant(grant->runtime.get(), grant->quota - served);
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().shape(), model_heavy.output_shape());
  }
}

// Regression: a weight small enough that one scan's credit truncates to
// zero requests (weight < 1/max_batch) used to park the worker on the
// scheduler cv with backlog pending — the submit's wake-up had already
// fired, so the grant never came and Predict hung. The scheduler must
// rescan until the deficit crosses a whole request.
TEST(ServingHostTest, FractionalWeightModelStillGetsServed) {
  nn::Model starved = TestModel(51);
  nn::Model neighbor = TestModel(52);
  const auto starved_probes = Probes(starved, 1, 800);
  const auto neighbor_probes = Probes(neighbor, 1, 801);
  ServingHostConfig config;
  config.worker_threads = 1;  // one worker: a parked worker hangs everyone
  config.scrubber_enabled = false;
  ServingHost host(config);
  ModelRuntimeConfig tiny_share;
  tiny_share.max_batch = 8;
  tiny_share.weight = 0.05;  // quantum = 0.4 requests per scan
  auto low = host.AddModel(starved, tiny_share, "tiny-share");
  auto peer = host.AddModel(neighbor, {}, "peer");
  host.Start();
  EXPECT_EQ(low->Predict(starved_probes[0]).shape(),
            starved.output_shape());
  EXPECT_EQ(peer->Predict(neighbor_probes[0]).shape(),
            neighbor.output_shape());
  EXPECT_EQ(low->Predict(starved_probes[0]).shape(),
            starved.output_shape());
  host.Stop();
}

// Regression: AddModel on a STOPPED host must hand out closed admission
// (Submit throws like every other post-Stop path), not an open queue into
// a workerless host; the next Start reopens it with the rest.
TEST(ServingHostTest, ModelAddedAfterStopHasClosedAdmission) {
  nn::Model resident = TestModel(53);
  nn::Model late = TestModel(54);
  const auto late_probes = Probes(late, 1, 802);
  ServingHostConfig config;
  config.worker_threads = 1;
  config.scrubber_enabled = false;
  ServingHost host(config);
  host.AddModel(resident, {}, "resident");
  host.Start();
  host.Stop();

  auto handle = host.AddModel(late, {}, "latecomer");
  EXPECT_THROW(handle->Submit(late_probes[0]), std::runtime_error);
  EXPECT_FALSE(handle->TrySubmit(late_probes[0]).has_value());

  host.Start();  // restart reopens the latecomer's admission too
  EXPECT_EQ(handle->Predict(late_probes[0]).shape(), late.output_shape());
  host.Stop();
}

TEST(ServingHostTest, StopThenStartIsACleanRestart) {
  nn::Model model = TestModel(17);
  const auto probes = Probes(model, 1, 500);
  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrubber_enabled = false;
  ServingHost host(config);
  auto handle = host.AddModel(model, {}, "phoenix");

  host.Start();
  EXPECT_EQ(handle->Predict(probes[0]).shape(), model.output_shape());
  host.Stop();
  EXPECT_FALSE(host.running());
  EXPECT_THROW(handle->Submit(probes[0]), std::runtime_error);

  host.Start();  // restart: admission reopens, workers respawn
  EXPECT_TRUE(host.running());
  EXPECT_EQ(handle->Predict(probes[0]).shape(), model.output_shape());
  // Counters accumulate across restarts (only the uptime epoch restamps).
  EXPECT_EQ(handle->Snapshot().requests_served, 2u);
  host.Stop();
}

// --------------------------------------------------- protection (scrub)

TEST(ServingHostTest, BackgroundScrubberHealsEachModelIndependently) {
  nn::Model model_a = TestModel(23);
  nn::Model model_b = TestModel(24);
  const auto probes_a = Probes(model_a, 2, 600);
  const auto probes_b = Probes(model_b, 2, 601);
  std::vector<Tensor> golden_a, golden_b;
  for (const auto& p : probes_a) golden_a.push_back(model_a.Predict(p));
  for (const auto& p : probes_b) golden_b.push_back(model_b.Predict(p));

  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrub_period = 5ms;
  ServingHost host(config);
  auto a = host.AddModel(model_a, {}, "a");
  auto b = host.AddModel(model_b, {}, "b");
  host.Start();

  // Corrupt a whole recoverable layer in each model.
  Prng prng(29);
  a->InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 0, prng);
  });
  b->InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 8, prng);
  });

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while ((a->Snapshot().recoveries < 1 || b->Snapshot().recoveries < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  const auto snap_a = a->Snapshot();
  const auto snap_b = b->Snapshot();
  ASSERT_GE(snap_a.recoveries, 1u) << "model a never recovered online";
  ASSERT_GE(snap_b.recoveries, 1u) << "model b never recovered online";
  // Downtime is charged per model, to the model that was quarantined.
  EXPECT_GT(snap_a.downtime_seconds, 0.0);
  EXPECT_GT(snap_b.downtime_seconds, 0.0);

  for (std::size_t i = 0; i < probes_a.size(); ++i) {
    EXPECT_TRUE(AllClose(a->Predict(probes_a[i]), golden_a[i], 1e-2f));
    EXPECT_TRUE(AllClose(b->Predict(probes_b[i]), golden_b[i], 1e-2f));
  }
  host.Stop();
}

// Incident-journal contract: every fault-drive-induced quarantine opens
// exactly one incident, recovery closes it with the measured downtime, and
// with tracing + a trace dir configured each open auto-captures a Chrome
// trace of the window leading up to the quarantine.
TEST(ServingHostTest, EveryQuarantineOpensAndClosesOneIncidentWithTrace) {
  namespace fs = std::filesystem;
  const fs::path trace_dir =
      fs::temp_directory_path() / "milr_host_incident_traces";
  fs::remove_all(trace_dir);
  auto& tracer = obs::Tracer::Get();
  tracer.Enable(1u << 12);

  nn::Model model = TestModel(31);
  const auto probes = Probes(model, 2, 700);
  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrubber_enabled = false;  // deterministic: scrub on demand
  config.incident_trace_dir = trace_dir.string();
  ServingHost host(config);
  auto handle = host.AddModel(model, {}, "victim");
  host.Start();

  constexpr std::size_t kCampaigns = 3;
  Prng prng(37);
  for (std::size_t i = 0; i < kCampaigns; ++i) {
    for (const auto& probe : probes) handle->Predict(probe);
    handle->InjectFault([&](nn::Model& live) {
      return memory::CorruptWholeLayer(live, 0, prng);
    });
    const ScrubReport report = handle->ScrubCycle();
    ASSERT_GE(report.flagged_layers, 1u) << "campaign " << i;
    ASSERT_TRUE(report.recovery_ok) << "campaign " << i;
  }
  host.Stop();
  tracer.Disable();
  tracer.Clear();

  const auto& journal = host.incident_journal();
  const auto snap = handle->Snapshot();
  EXPECT_EQ(snap.detections, kCampaigns);
  // One incident per quarantine, no extras, all closed.
  EXPECT_EQ(journal.incidents_opened(), kCampaigns);
  EXPECT_EQ(journal.open_incidents(), 0u);
  const auto incidents = journal.Incidents();
  ASSERT_EQ(incidents.size(), kCampaigns);
  double incident_downtime = 0.0;
  for (const auto& incident : incidents) {
    EXPECT_EQ(incident.kind, obs::IncidentKind::kQuarantine);
    EXPECT_EQ(incident.model, "victim");
    EXPECT_FALSE(incident.open);
    EXPECT_TRUE(incident.recovered);
    EXPECT_GT(incident.downtime_seconds, 0.0);
    EXPECT_LT(incident.downtime_seconds, 60.0);
    EXPECT_GE(incident.layers_flagged, 1u);
    EXPECT_GE(incident.layers_recovered, 1u);
    ASSERT_FALSE(incident.trace_path.empty())
        << "tracing was on and a trace dir was configured";
    EXPECT_TRUE(fs::exists(incident.trace_path)) << incident.trace_path;
    incident_downtime += incident.downtime_seconds;
  }
  // The journal's downtime must agree with the metrics' ledger.
  EXPECT_NEAR(incident_downtime, snap.recovery_downtime_seconds, 1e-6);
  // Fault injections are journaled as standalone events.
  std::size_t injections = 0;
  for (const auto& event : journal.Events()) {
    if (event.kind == obs::IncidentEventKind::kFaultInjection) ++injections;
  }
  EXPECT_EQ(injections, kCampaigns);
  // The structured JSON view renders and carries the incidents.
  const std::string json = host.IncidentJournalJson();
  EXPECT_NE(json.find("\"incidents\""), std::string::npos);
  EXPECT_NE(json.find("\"model\": \"victim\""), std::string::npos);
  fs::remove_all(trace_dir);
}

// The SLO pipeline through a live host: every served request is counted
// against the model's objective exactly once. An objective far above any
// service time admits every request; one below any service time (1 ns)
// counts every request as a violation.
TEST(ServingHostTest, SloCountsEveryServedRequestAgainstTheObjective) {
  constexpr std::size_t kRequests = 64;
  for (const double slo_ms : {60'000.0, 1e-6}) {
    nn::Model model = TestModel(51);
    const auto probes = Probes(model, 4, 800);
    ServingHostConfig config;
    config.worker_threads = 2;
    config.scrubber_enabled = false;
    ServingHost host(config);
    ModelRuntimeConfig runtime_config;
    runtime_config.slo_ms = slo_ms;
    auto handle = host.AddModel(model, runtime_config, "slo");
    host.Start();
    std::vector<std::future<Tensor>> inflight;
    for (std::size_t i = 0; i < kRequests; ++i) {
      inflight.push_back(handle->Submit(probes[i % probes.size()]));
    }
    for (auto& result : inflight) result.get();
    const obs::SloSnapshot slo = handle->Snapshot().slo;
    host.Stop();

    ASSERT_TRUE(slo.enabled) << "slo_ms=" << slo_ms;
    if (slo_ms > 1.0) {
      EXPECT_EQ(slo.within, kRequests);
      EXPECT_EQ(slo.violations, 0u);
      EXPECT_EQ(slo.goodput, 1.0);
    } else {
      EXPECT_EQ(slo.within, 0u);
      EXPECT_EQ(slo.violations, kRequests);
      EXPECT_EQ(slo.goodput, 0.0);
    }
  }
}

// ----------------------------------------------------- scheduler fairness

// The flagship multi-model scenario: a saturating model and a trickle
// model share one pool while BOTH take whole-layer faults and recover
// online. Deficit round-robin must keep the trickle model's queue wait
// bounded — the acceptance bar is p99 under saturation < 10x its solo
// p99. Sub-5ms solo p99s are floored: at that scale the measurement is
// timer/scheduler noise, not queue wait (and TSan inflates every
// constant), so the bound stays meaningful without going flaky.
TEST(ServingHostTest, TrickleModelKeepsBoundedQueueWaitUnderSaturation) {
  const auto trickle_phase = [](ServingHost& host,
                                ServingHost::ModelHandle& trickle,
                                const std::vector<Tensor>& probes,
                                std::size_t requests) {
    for (std::size_t i = 0; i < requests; ++i) {
      trickle->Predict(probes[i % probes.size()]);
      std::this_thread::sleep_for(2ms);
    }
    (void)host;
  };
  constexpr std::size_t kTrickleRequests = 100;

  // Phase 1 — solo baseline: the trickle model alone on the host.
  double solo_p99 = 0.0;
  {
    nn::Model model = TestModel(31);
    const auto probes = Probes(model, 4, 700);
    ServingHostConfig config;
    config.worker_threads = 2;
    config.scrubber_enabled = false;
    ServingHost host(config);
    auto trickle = host.AddModel(model, {}, "trickle-solo");
    host.Start();
    trickle_phase(host, trickle, probes, kTrickleRequests);
    solo_p99 = trickle->Snapshot().queue_wait_p99_ms;
    host.Stop();
  }

  // Phase 2 — co-hosted: a saturating neighbor plus live faults on both.
  nn::Model hot_model = TestModel(32);
  nn::Model trickle_model = TestModel(33);
  const auto hot_probes = Probes(hot_model, 4, 701);
  const auto trickle_probes = Probes(trickle_model, 4, 702);
  std::vector<Tensor> trickle_golden;
  for (const auto& p : trickle_probes) {
    trickle_golden.push_back(trickle_model.Predict(p));
  }

  ServingHostConfig config;
  config.worker_threads = 2;
  config.scrub_period = 5ms;  // scrubber ON: recovery must work under load
  ServingHost host(config);
  auto hot = host.AddModel(hot_model, {}, "hot");
  auto trickle = host.AddModel(trickle_model, {}, "trickle");
  host.Start();

  std::atomic<bool> stop_load{false};
  std::vector<std::thread> saturators;
  for (int c = 0; c < 2; ++c) {
    saturators.emplace_back([&, c] {
      std::deque<std::future<Tensor>> inflight;
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop_load.load(std::memory_order_relaxed)) {
        inflight.push_back(hot->Submit(hot_probes[i++ % hot_probes.size()]));
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

  // Fault both models while the load runs.
  Prng prng(37);
  hot->InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 0, prng);
  });
  trickle->InjectFault([&](nn::Model& live) {
    return memory::CorruptWholeLayer(live, 0, prng);
  });

  trickle_phase(host, trickle, trickle_probes, kTrickleRequests);

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while ((hot->Snapshot().recoveries < 1 ||
          trickle->Snapshot().recoveries < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  stop_load.store(true);
  for (auto& thread : saturators) thread.join();

  const auto hot_snap = hot->Snapshot();
  const auto trickle_snap = trickle->Snapshot();
  ASSERT_GE(hot_snap.recoveries, 1u) << "hot model never recovered online";
  ASSERT_GE(trickle_snap.recoveries, 1u)
      << "trickle model never recovered online";
  EXPECT_GT(hot_snap.requests_served, trickle_snap.requests_served)
      << "the saturator never actually saturated";

  const double bound = 10.0 * std::max(solo_p99, 5.0);
  EXPECT_LT(trickle_snap.queue_wait_p99_ms, bound)
      << "trickle p99 queue wait " << trickle_snap.queue_wait_p99_ms
      << "ms vs solo " << solo_p99 << "ms: the saturating model starved it";

  // Trickle model serves golden outputs again after its online recovery.
  for (std::size_t i = 0; i < trickle_probes.size(); ++i) {
    EXPECT_TRUE(AllClose(trickle->Predict(trickle_probes[i]),
                         trickle_golden[i], 1e-2f))
        << "probe " << i;
  }
  host.Stop();
}

}  // namespace
}  // namespace milr::runtime
