// InferenceEngine: MILR as an always-on, self-healing serving layer.
//
// Since the multi-model refactor this is a thin single-model facade over
// ServingHost: one ModelRuntime (model + shared_mutex + MilrProtector +
// bounded queue + Metrics) on a private WorkerPool, with the host's
// background Scrubber doing online detect/quarantine/recover. The moving
// parts and the locking discipline are documented in model_runtime.h,
// worker_pool.h and serving_host.h; the shape is unchanged from PR 1:
//
//   clients ──Submit──▶ BoundedQueue ──▶ worker pool ──PredictBatch──▶ futures
//                          (micro-batch: drain ≤ max_batch) │ shared lock
//                    Scrubber (detect concurrently; quarantine + MILR
//                    recovery on a flagged layer)      │ exclusive lock
//                    FaultDrive / InjectFault (attacks)│ exclusive lock
//
// Inference and the cheap detection phase share the model; recovery and
// fault injection quarantine it. Downtime is therefore *exactly* the time
// spent holding the exclusive lock for repair — the quantity eq. 6 models
// and Metrics measures.
//
// Lifecycle: construct -> [Submit/TrySubmit]* -> Start -> serve -> Stop,
// repeatable. Requests may be queued before Start() and are served once it
// runs. Stop() closes admission (Submit throws std::runtime_error,
// TrySubmit returns nullopt), drains every admitted request, and joins the
// service threads; it is idempotent and also runs in the destructor.
// Start() after Stop() is a clean restart: admission reopens and the same
// worker/scrubber configuration respawns. Metrics counters accumulate
// across restarts, but the uptime epoch restamps at every Start(), so
// rate-derived quantities (throughput, availability) reset.
// Co-hosting several models on one shared pool is ServingHost's job —
// new code should prefer it; this facade keeps the one-model API stable.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <optional>

#include "memory/fault_injector.h"
#include "milr/config.h"
#include "milr/protector.h"
#include "nn/model.h"
#include "runtime/serving_host.h"
#include "tensor/tensor.h"

namespace milr::runtime {

struct EngineConfig {
  /// Size of the worker pool. When workers >= hardware cores the engine
  /// pins each worker's nested ParallelFor (inside PredictBatch) to serial
  /// execution, so the pool itself is the only parallelism; with fewer
  /// workers than cores, batched layers fan out internally instead.
  std::size_t worker_threads = DefaultWorkerThreads();
  std::size_t queue_capacity = 256;
  /// Dynamic micro-batching: a worker drains up to `max_batch` queued
  /// requests and serves them with one PredictBatch under a single
  /// shared-lock acquisition. 1 disables batching entirely.
  std::size_t max_batch = 8;
  /// How long a worker holding a partial batch waits for more arrivals
  /// before serving what it has. 0 (the default) is pure opportunistic
  /// batching: batches form only from backlog and an idle queue serves
  /// single requests immediately. Raise it to trade a bounded latency
  /// slice for fuller batches under bursty load.
  std::chrono::microseconds batch_linger{0};
  bool scrubber_enabled = true;
  std::chrono::milliseconds scrub_period{50};
  /// Latency SLO in milliseconds; <= 0 (default) declares no objective.
  /// With one set, Snapshot() reports goodput and fast/slow burn rates
  /// (see ModelRuntimeConfig::slo_ms).
  double slo_ms = 0.0;
  /// Target within-SLO fraction (error budget = 1 - slo_target).
  double slo_target = 0.999;
  /// Incident-journal auto-trace directory (see
  /// ServingHostConfig::incident_trace_dir). Empty disables capture.
  std::string incident_trace_dir;
  /// GEMM tier for the serving path. kExact keeps served outputs
  /// bit-identical to the reference kernels — the fault-injection
  /// experiments and equivalence oracles assume it. kFast serves from the
  /// packed k-blocked SIMD kernels (tolerance-equivalent outputs). kInt8
  /// serves dense layers from a quantized int8 weight replica
  /// (quantization-tolerance outputs; the pick for weight sets larger
  /// than L2, see nn/kernel_config.h). MILR detection/recovery are
  /// unaffected in every case because the protector's passes always run
  /// the exact per-sample kernels, and the fast/int8 weight caches are
  /// rebuilt from the fp32 master after every recovery or injection.
  ///
  /// The engine applies this to the caller-owned model at construction and
  /// does NOT restore the previous value: the model keeps serving this
  /// tier even after the engine stops. Callers that use the model directly
  /// afterwards and need a different tier must call
  /// Model::set_kernel_config themselves.
  nn::KernelConfig kernel = nn::KernelConfig::kExact;
  /// Protection preset for the embedded MilrProtector. The extended preset
  /// matters here: its detection tolerance keeps a layer recovered online
  /// (float-rounding residue) from being re-flagged every cycle.
  core::MilrConfig milr = core::ExtendedMilrConfig();
};

class InferenceEngine {
 public:
  /// `model` must be in its golden state (initialization records the
  /// protection data) and must outlive the engine. The engine does not own
  /// the model, mirroring MilrProtector.
  explicit InferenceEngine(nn::Model& model, EngineConfig config = {});

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Spawns the worker pool (and the scrubber when enabled). Requests may
  /// be queued before Start(), but nothing is served until it runs. Also
  /// restarts a stopped engine (see the lifecycle note above).
  void Start() { host_.Start(); }

  /// Stops admission, drains every queued request, and joins all service
  /// threads. Idempotent; also run by the destructor. See ServingHost::Stop
  /// for the load-bearing shutdown order (scrubber -> queue -> workers).
  void Stop() { host_.Stop(); }

  bool running() const { return host_.running(); }

  /// Enqueues a request; blocks for backpressure while the queue is full.
  /// Throws std::runtime_error if the engine has been stopped.
  std::future<Tensor> Submit(Tensor input) {
    return runtime_->Submit(std::move(input));
  }

  /// Load-shedding admission: nullopt (and a rejection metric) when full.
  std::optional<std::future<Tensor>> TrySubmit(Tensor input) {
    return runtime_->TrySubmit(std::move(input));
  }

  /// Synchronous convenience: Submit and wait.
  Tensor Predict(const Tensor& input) { return runtime_->Predict(input); }

  /// Runs one synchronous scrub cycle (see ModelRuntime::ScrubCycle).
  ScrubReport ScrubNow() { return runtime_->ScrubCycle(); }

  /// Fault-drive hook: runs `attack` against the live parameter memory
  /// under quarantine (data-race-free with the worker pool) and records it.
  memory::InjectionReport InjectFault(
      const std::function<memory::InjectionReport(nn::Model&)>& attack) {
    return runtime_->InjectFault(attack);
  }

  /// Maintenance hook: exclusive access to the model without counting an
  /// injection (golden-restore between benchmark phases, etc.).
  void WithModelExclusive(const std::function<void(nn::Model&)>& fn) {
    runtime_->WithModelExclusive(fn);
  }

  MetricsSnapshot Snapshot() const { return runtime_->Snapshot(); }
  Metrics& metrics() { return runtime_->metrics(); }
  /// The host-wide incident journal (fault/detect/quarantine/recovery
  /// records; see obs/incident.h).
  obs::IncidentJournal& incident_journal() {
    return host_.incident_journal();
  }
  std::string IncidentJournalJson() const {
    return host_.IncidentJournalJson();
  }
  const nn::Model& model() const { return runtime_->model(); }
  core::MilrProtector& protector() { return runtime_->protector(); }
  const EngineConfig& config() const { return config_; }

  /// Worker-pool size actually used: config worker_threads clamped to >= 1.
  /// Resolved once (construction) and used both to spawn the pool and to
  /// decide nested-parallelism pinning, so the two can never disagree.
  std::size_t effective_worker_threads() const {
    return host_.worker_threads();
  }

  /// True when each worker pins its nested ParallelFor serial because the
  /// pool alone covers the cores (see WorkerPool::WorkerLoop).
  bool pins_nested_parallelism() const {
    return host_.pins_nested_parallelism();
  }

  /// The underlying single-model runtime — the ServingHost handle — for
  /// callers migrating to the multi-model API.
  ServingHost::ModelHandle runtime() { return runtime_; }

 private:
  EngineConfig config_;
  ServingHost host_;
  ServingHost::ModelHandle runtime_;
};

}  // namespace milr::runtime
