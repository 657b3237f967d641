// ModelRuntime: everything that belongs to ONE protected model in a
// multi-model serving host.
//
// The PR-1 engine fused model, queue, protector, lock, metrics, workers and
// scrubber into a single class, so co-hosting N models cost N thread pools
// fighting over the same cores. This type is the per-model slice of that
// design: it owns the model's reader/writer gate, its MilrProtector, its
// bounded admission queue, its micro-batching parameters and its Metrics —
// and nothing thread-shaped. Threads come from a shared WorkerPool that
// asks the Scheduler which runtime to drain next (worker_pool.h), and one
// host-wide Scrubber calls ScrubCycle() per runtime (scrubber.h).
//
// The reader/writer discipline is unchanged and per-model: inference and
// the cheap detection phase share the model; recovery and fault injection
// quarantine it. Because each runtime has its own shared_mutex, one model's
// quarantine never blocks another model's serving — downtime is charged to
// the quarantined model's Metrics only.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "memory/fault_injector.h"
#include "milr/config.h"
#include "milr/protector.h"
#include "nn/model.h"
#include "obs/incident.h"
#include "obs/trace.h"
#include "runtime/metrics.h"
#include "runtime/request_queue.h"
#include "runtime/scrubber.h"
#include "support/stopwatch.h"
#include "tensor/tensor.h"

namespace milr::runtime {

class Scheduler;

/// Per-model serving knobs. The worker pool and scrub period are host-wide
/// (ServingHostConfig); everything request-path lives here.
struct ModelRuntimeConfig {
  std::size_t queue_capacity = 256;
  /// Dynamic micro-batching: a worker drains up to `max_batch` queued
  /// requests and serves them with one PredictBatch under a single
  /// shared-lock acquisition. 1 disables batching entirely.
  std::size_t max_batch = 8;
  /// How long a worker holding a partial batch waits for more arrivals
  /// before serving what it has (see EngineConfig::batch_linger). The
  /// shared pool is scheduler-aware about it: when any co-hosted peer has
  /// backlog AT GRANT TIME the worker skips the linger entirely and
  /// serves the partial batch at once. That closes the standing
  /// cross-model tax a non-zero linger used to impose, but it is a
  /// grant-time sample, not a continuous one: a peer request arriving
  /// mid-linger still waits out the remainder of the window (bounded by
  /// this value) before that worker frees up. Size it with that worst
  /// case in mind on small pools.
  std::chrono::microseconds batch_linger{0};
  /// GEMM tier for this model's serving path (see EngineConfig::kernel).
  /// Applied to the caller-owned model at runtime construction and not
  /// restored afterwards.
  nn::KernelConfig kernel = nn::KernelConfig::kExact;
  /// Latency SLO for this model, in milliseconds; <= 0 (default) declares
  /// no objective and disables SLO tracking. With an objective set,
  /// Metrics tracks goodput (requests within the objective) and SRE-style
  /// fast/slow burn rates (obs/slo.h), and a fast-burn trip opens an
  /// incident in the attached journal.
  double slo_ms = 0.0;
  /// Target fraction of requests within the objective (error budget =
  /// 1 - slo_target). Only meaningful with slo_ms > 0.
  double slo_target = 0.999;
  /// Protection preset for the embedded MilrProtector.
  core::MilrConfig milr = core::ExtendedMilrConfig();
  /// Deficit-round-robin share of the shared worker pool relative to its
  /// co-hosted peers: a weight-2 model earns serving credit twice as fast
  /// as a weight-1 model when both have backlog. Idle models accrue
  /// nothing, so weights only matter under contention. Clamped to a small
  /// positive floor.
  double weight = 1.0;
};

class ModelRuntime {
 public:
  /// `model` must be in its golden state (protector initialization records
  /// the protection data) and must outlive the runtime; the runtime does
  /// not own it. Applies `config.kernel` to the model (see
  /// ModelRuntimeConfig::kernel).
  ModelRuntime(nn::Model& model, ModelRuntimeConfig config,
               std::string name);

  ModelRuntime(const ModelRuntime&) = delete;
  ModelRuntime& operator=(const ModelRuntime&) = delete;

  // ------------------------------------------------------------ admission

  /// Enqueues a request; blocks for backpressure while the queue is full.
  /// Throws std::runtime_error once the queue is closed (host stopped or
  /// model removed).
  std::future<Tensor> Submit(Tensor input);

  /// Load-shedding admission: nullopt (and a rejection metric) when full
  /// or closed.
  std::optional<std::future<Tensor>> TrySubmit(Tensor input);

  /// Synchronous convenience: Submit and wait.
  Tensor Predict(const Tensor& input);

  // ----------------------------------------------------------- worker API

  /// Drains up to min(quota, max_batch) queued requests and serves them as
  /// one micro-batch. Returns the number of requests served; 0 when the
  /// queue was empty (never blocks on empty). Called by pool workers
  /// holding a scheduler grant. `allow_linger` gates batch_linger: the
  /// pool passes false when the scheduler sees other runtimes with
  /// backlog, so a worker never parks on this model's partial batch while
  /// co-hosted peers have work (the cross-model latency cost documented
  /// on ModelRuntimeConfig::batch_linger).
  std::size_t ServeSome(std::size_t quota, bool allow_linger = true);

  // ------------------------------------------------- protection & faults

  /// One detect -> (quarantine + recover) cycle under this runtime's own
  /// lock; cycles are serialized per runtime. Called by the host Scrubber
  /// and by InferenceEngine::ScrubNow.
  ScrubReport ScrubCycle();

  /// Runs `attack` against the live parameter memory under quarantine
  /// (data-race-free with the worker pool) and records it.
  memory::InjectionReport InjectFault(
      const std::function<memory::InjectionReport(nn::Model&)>& attack);

  /// Maintenance hook: exclusive access to the model without counting an
  /// injection (golden-restore between benchmark phases, etc.).
  void WithModelExclusive(const std::function<void(nn::Model&)>& fn);

  // ------------------------------------------------------------ lifecycle
  // Driven by ServingHost; not part of the client-facing surface.

  void CloseQueue() { queue_.Close(); }
  void ReopenQueue() { queue_.Reopen(); }
  /// Stamps the metrics uptime epoch (host Start, or AddModel on a
  /// running host).
  void MarkStarted() { metrics_.MarkStarted(); }
  /// True when no queued requests remain and no worker is mid-batch; the
  /// queue must be closed first for this to be a stable condition. Read
  /// order is load-bearing and pairs with ServeSome's
  /// in_flight-rises-before-pop: on a closed queue, "queue empty" means
  /// every pop already happened, and each popping worker raised in_flight_
  /// before its pop — so a subsequent in_flight_ == 0 proves those
  /// batches finished. Checking in_flight_ first would let a worker slip
  /// between the two reads (increment + drain the backlog) and report
  /// drained mid-service.
  bool Drained() const {
    return queue_.size() == 0 &&
           in_flight_.load(std::memory_order_acquire) == 0;
  }
  std::size_t QueueDepth() const { return queue_.size(); }
  /// Advisory backlog for the scheduler's scan: no queue mutex taken (see
  /// BoundedQueue::DepthRelaxed), so NextWork's per-entry visit is
  /// lock-free and never serializes against this runtime's producers.
  std::size_t QueueDepthRelaxed() const { return queue_.DepthRelaxed(); }

  /// The scheduler this runtime signals on new work; set by ServingHost
  /// at registration. Held weakly: a handle that outlives the host (or
  /// races its destruction) finds the pointer expired and skips the
  /// signal instead of touching a freed scheduler — an in-flight signal
  /// pins the scheduler alive through the lock()ed shared_ptr.
  void AttachScheduler(std::weak_ptr<Scheduler> scheduler) {
    std::lock_guard<std::mutex> lock(scheduler_mutex_);
    scheduler_ = std::move(scheduler);
  }

  /// The incident journal this runtime reports its fault → detect →
  /// quarantine → recover lifecycle to; set by ServingHost at
  /// registration (standalone runtimes and tests may leave it unset —
  /// every journal call is null-guarded). Shared ownership: the journal
  /// outlives handles that outlive the host.
  void AttachIncidentJournal(std::shared_ptr<obs::IncidentJournal> journal) {
    std::lock_guard<std::mutex> lock(journal_mutex_);
    journal_ = std::move(journal);
  }

  // ------------------------------------------------------------ accessors

  /// Counter snapshot plus the live gauges only this runtime can read
  /// (instantaneous queue depth, workers currently mid-batch).
  MetricsSnapshot Snapshot() const {
    MetricsSnapshot snap = metrics_.Snapshot();
    snap.queue_depth = queue_.DepthRelaxed();
    snap.in_flight_batches = in_flight_.load(std::memory_order_relaxed);
    return snap;
  }
  Metrics& metrics() { return metrics_; }
  /// Flight-recorder track id for this model (obs::Tracer), so the worker
  /// pool can tag grant spans with the model they were granted for.
  std::uint16_t trace_track() const { return trace_track_; }
  const nn::Model& model() const { return *model_; }
  core::MilrProtector& protector() { return *protector_; }
  const ModelRuntimeConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

 private:
  struct Request {
    Tensor input;
    std::promise<Tensor> result;
    /// Stamps the Submit call; RecordLatency reads it, so end-to-end
    /// latency includes any backpressure block in Push — what the client
    /// actually waited.
    Stopwatch queued;
    /// Re-stamped at queue admission (after the backpressure wait);
    /// RecordQueueWait reads it, so the fairness observable measures
    /// admission -> worker pick-up only — scheduler delay, not admission
    /// backpressure no scheduler change could remove.
    Stopwatch admitted;
  };

  void NotifyScheduler();
  /// Pins the attached journal for one call sequence (or null).
  std::shared_ptr<obs::IncidentJournal> Journal() const;
  /// Serves one drained micro-batch: conforming requests go through a
  /// single PredictBatch; misfits fall back to the single-sample path so a
  /// bad input only fails its own promise.
  void ServeBatch(std::vector<Request>& batch);
  void ServeSingle(Request& request);

  nn::Model* model_;
  ModelRuntimeConfig config_;
  std::string name_;
  std::uint16_t trace_track_ = 0;  // registered at construction
  std::unique_ptr<core::MilrProtector> protector_;
  mutable std::shared_mutex model_mutex_;
  std::mutex scrub_cycle_mutex_;  // serializes ScrubCycle across threads
  Metrics metrics_;
  BoundedQueue<Request> queue_;
  std::atomic<std::size_t> in_flight_{0};  // workers currently serving us
  std::mutex scheduler_mutex_;
  std::weak_ptr<Scheduler> scheduler_;
  mutable std::mutex journal_mutex_;
  std::shared_ptr<obs::IncidentJournal> journal_;
};

}  // namespace milr::runtime
