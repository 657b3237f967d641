#include "runtime/model_runtime.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/worker_pool.h"

namespace milr::runtime {

ModelRuntime::ModelRuntime(nn::Model& model, ModelRuntimeConfig config,
                           std::string name)
    : model_(&model),
      config_(config),
      name_(std::move(name)),
      trace_track_(obs::Tracer::Get().RegisterTrack(name_)),
      protector_(std::make_unique<core::MilrProtector>(model, config.milr)),
      queue_(config.queue_capacity) {
  // After protector construction: MILR initialization records its golden
  // data through the per-sample exact kernels regardless, but the serving
  // tier must be in place before the first PredictBatch (and for the fast
  // tier this packs the dense weight panels once, here, not per request).
  model_->set_kernel_config(config_.kernel);
  if (config_.slo_ms > 0.0) {
    obs::SloConfig slo;
    slo.objective_ms = config_.slo_ms;
    slo.target = config_.slo_target;
    metrics_.ConfigureSlo(slo);
  }
}

std::shared_ptr<obs::IncidentJournal> ModelRuntime::Journal() const {
  std::lock_guard<std::mutex> lock(journal_mutex_);
  return journal_;
}

void ModelRuntime::NotifyScheduler() {
  std::shared_ptr<Scheduler> scheduler;
  {
    std::lock_guard<std::mutex> lock(scheduler_mutex_);
    scheduler = scheduler_.lock();  // pins it for the call, or expired
  }
  if (scheduler) scheduler->NotifyWork();
}

std::future<Tensor> ModelRuntime::Submit(Tensor input) {
  Request request;
  request.input = std::move(input);
  std::future<Tensor> future = request.result.get_future();
  const bool admitted = queue_.PushWith(
      std::move(request), [](Request& r) { r.admitted.Restart(); });
  if (!admitted) {
    throw std::runtime_error("ModelRuntime[" + name_ +
                             "]: submit after Stop/RemoveModel");
  }
  obs::TraceInstantOn(trace_track_, "enqueue", "request",
                      queue_.DepthRelaxed());
  NotifyScheduler();
  return future;
}

std::optional<std::future<Tensor>> ModelRuntime::TrySubmit(Tensor input) {
  Request request;
  request.input = std::move(input);
  std::future<Tensor> future = request.result.get_future();
  request.admitted.Restart();  // TryPush never blocks: admission is now
  if (!queue_.TryPush(request)) {
    metrics_.RecordRejected();
    obs::TraceInstantOn(trace_track_, "reject", "request",
                        queue_.DepthRelaxed());
    return std::nullopt;
  }
  obs::TraceInstantOn(trace_track_, "enqueue", "request",
                      queue_.DepthRelaxed());
  NotifyScheduler();
  return future;
}

Tensor ModelRuntime::Predict(const Tensor& input) {
  return Submit(Tensor(input)).get();
}

std::size_t ModelRuntime::ServeSome(std::size_t quota, bool allow_linger) {
  const std::size_t max_batch =
      std::clamp<std::size_t>(quota, 1, std::max<std::size_t>(
                                            1, config_.max_batch));
  // in_flight_ rises BEFORE the pop so Drained() can never observe an
  // empty queue while popped-but-unserved requests exist; RAII keeps the
  // decrement exception-safe (ServeBatch fails per-promise, but allocation
  // in the pop path could still throw).
  struct InFlightGuard {
    std::atomic<std::size_t>* counter;
    ~InFlightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  };
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  InFlightGuard guard{&in_flight_};

  // Layer spans emitted inside PredictBatch inherit this model's track;
  // the batch span is emitted manually (not RAII) so an empty poll leaves
  // no event behind.
  obs::ScopedTrack track_scope(trace_track_);
  const bool tracing = obs::TracingEnabled();
  const std::uint64_t batch_begin = tracing ? obs::TraceNowNanos() : 0;

  std::vector<Request> batch;
  batch.reserve(max_batch);
  const std::size_t taken = queue_.TryPopBatch(
      batch, max_batch,
      allow_linger ? config_.batch_linger : std::chrono::microseconds{0});
  if (taken == 0) return 0;
  // Queue wait (admission -> here, batch formation) is the scheduler
  // fairness observable; from here on the request is in service (lock
  // wait + model time), which RecordLatency's submit-rooted stopwatch
  // covers.
  for (const auto& request : batch) {
    metrics_.RecordQueueWait(request.admitted.ElapsedMillis());
  }
  ServeBatch(batch);
  if (tracing) {
    // Covers batch formation (pop + linger) and service; a = the quota
    // the scheduler granted, b = requests actually served.
    const std::uint64_t now = obs::TraceNowNanos();
    obs::Tracer::Get().EmitSpan("batch", "sched", batch_begin,
                                now - batch_begin, quota,
                                static_cast<std::uint32_t>(taken),
                                trace_track_);
  }
  return taken;
}

ScrubReport ModelRuntime::ScrubCycle() {
  std::lock_guard<std::mutex> cycle_lock(scrub_cycle_mutex_);
  ScrubReport report;

  obs::ScopedTrack track_scope(trace_track_);
  obs::TraceSpan cycle_span("scrub_cycle", "scrub");

  Stopwatch detect_watch;
  core::DetectionReport detection;
  {
    obs::TraceSpan detect_span("detect", "scrub");
    std::shared_lock<std::shared_mutex> lock(model_mutex_);
    detection = protector_->Detect();
    detect_span.set_args(detection.flagged_layers.size(), 0);
  }
  report.detect_seconds = detect_watch.ElapsedSeconds();
  metrics_.RecordScrubCycle();
  // The SLO fast-burn poll rides the scrub cadence (periodic, off the
  // request path): a burn-rate excursion with no quarantine behind it —
  // overload, a kernel regression — still opens an incident with its
  // trace capture. Edge-triggered in the tracker: one excursion, one
  // incident, regardless of poll frequency.
  if (const auto journal = Journal();
      journal && metrics_.SloFastBurnTripped()) {
    journal->OpenIncident(obs::IncidentKind::kSloFastBurn, name_,
                          "fast-window SLO burn rate crossed 1.0");
  }
  if (!detection.any()) return report;

  report.flagged_layers = detection.flagged_layers.size();
  metrics_.RecordDetection(detection.flagged_layers.size());

  // The flagged detection forces a quarantine: that is the incident. Open
  // it BEFORE taking the exclusive lock — the journal's auto trace
  // capture then snapshots the flight recorder's window leading up to the
  // quarantine (the fault landing, the detect cycle), which is the
  // forensic record the recovery story needs.
  const std::shared_ptr<obs::IncidentJournal> journal = Journal();
  std::uint64_t incident_id = 0;
  if (journal) {
    obs::IncidentEvent detected;
    detected.kind = obs::IncidentEventKind::kDetection;
    detected.model = name_;
    detected.detail = "scrub detect flagged layers";
    detected.layers = detection.flagged_layers;
    journal->RecordEvent(std::move(detected));
    incident_id = journal->OpenIncident(
        obs::IncidentKind::kQuarantine, name_,
        "scrub detection flagged " +
            std::to_string(detection.flagged_layers.size()) + " layer(s)",
        detection.flagged_layers);
  }

  Stopwatch outage;
  {
    obs::TraceSpan quarantine_span("quarantine", "scrub",
                                   report.flagged_layers);
    std::unique_lock<std::shared_mutex> lock(model_mutex_);
    // Faults may have landed between the concurrent detect and acquiring
    // the exclusive lock; re-detect so recovery sees the full damage.
    detection = protector_->Detect();
    if (detection.any()) {
      const auto recovery = protector_->Recover(detection);
      for (const auto& layer : recovery.layers) {
        if (layer.status.ok()) {
          ++report.recovered_layers;
        } else {
          report.recovery_ok = false;
        }
      }
    }
    quarantine_span.set_args(report.flagged_layers,
                             static_cast<std::uint32_t>(
                                 report.recovered_layers));
  }
  report.outage_seconds = outage.ElapsedSeconds();
  cycle_span.set_args(report.flagged_layers,
                      static_cast<std::uint32_t>(report.recovered_layers));
  // Downtime and recovery accounting are split on purpose: every exclusive
  // quarantine charges availability, but only quarantines that actually
  // repaired layers feed the MTTR numerator/denominator. Lumping failed
  // repairs' outage into RecordRecovery inflated MTTR (downtime in the
  // numerator, no matching recovery in the denominator).
  //
  // Known approximation: a mixed cycle (some layers repaired, one solve
  // failed) charges its full outage to MTTR because Recover() does not
  // time individual layer solves — the failure is still visible in
  // failed_recoveries. Per-layer outage attribution needs per-solve
  // timing in MilrProtector first.
  metrics_.RecordDowntime(report.outage_seconds);
  if (report.recovered_layers > 0) {
    metrics_.RecordRecovery(report.recovered_layers, report.outage_seconds);
  }
  if (!report.recovery_ok) metrics_.RecordFailedRecovery();
  if (journal && incident_id != 0) {
    journal->CloseIncident(
        incident_id, report.recovery_ok, report.outage_seconds,
        report.recovered_layers,
        report.recovery_ok
            ? "online recovery repaired " +
                  std::to_string(report.recovered_layers) + " layer(s)"
            : "recovery failed for at least one layer");
  }
  return report;
}

memory::InjectionReport ModelRuntime::InjectFault(
    const std::function<memory::InjectionReport(nn::Model&)>& attack) {
  memory::InjectionReport report;
  {
    std::unique_lock<std::shared_mutex> lock(model_mutex_);
    report = attack(*model_);
    metrics_.RecordInjection(report.corrupted_weights);
    obs::TraceInstantOn(trace_track_, "fault_inject", "fault",
                        report.corrupted_weights, 1);
  }
  // Journal outside the exclusive lock: the entry is forensic, not part
  // of the quarantine, and the journal's mutex must not extend downtime.
  if (const auto journal = Journal()) {
    obs::IncidentEvent event;
    event.kind = obs::IncidentEventKind::kFaultInjection;
    event.model = name_;
    event.detail = "fault drive injection";
    event.weights_touched = report.corrupted_weights;
    journal->RecordEvent(std::move(event));
  }
  return report;
}

void ModelRuntime::WithModelExclusive(
    const std::function<void(nn::Model&)>& fn) {
  std::unique_lock<std::shared_mutex> lock(model_mutex_);
  fn(*model_);
}

void ModelRuntime::ServeSingle(Request& request) {
  try {
    Tensor output;
    double service_ms = 0.0;
    {
      std::shared_lock<std::shared_mutex> lock(model_mutex_);
      // Start after the lock: service time is model time, not a quarantine
      // stall spent waiting out the scrubber's exclusive section.
      Stopwatch service;
      output = model_->Predict(request.input);
      service_ms = service.ElapsedMillis();
    }
    metrics_.RecordBatch(1, service_ms);
    // Record before fulfilling the promise: a client observing its
    // result must also observe the request in the served counter.
    const double latency_ms = request.queued.ElapsedMillis();
    metrics_.RecordLatency(latency_ms);
    obs::TraceInstantOn(trace_track_, "done", "serve",
                        static_cast<std::uint64_t>(latency_ms * 1e3), 1);
    request.result.set_value(std::move(output));
  } catch (...) {
    request.result.set_exception(std::current_exception());
  }
}

void ModelRuntime::ServeBatch(std::vector<Request>& batch) {
  // Only requests shaped like the model input can share a batch tensor;
  // anything else takes the single-sample path, where the layer shape check
  // throws into that request's own promise.
  std::vector<Request*> conforming;
  conforming.reserve(batch.size());
  for (auto& request : batch) {
    if (request.input.shape() == model_->input_shape()) {
      conforming.push_back(&request);
    } else {
      ServeSingle(request);
    }
  }
  if (conforming.empty()) return;
  if (conforming.size() == 1) {
    ServeSingle(*conforming.front());
    return;
  }

  const std::size_t b = conforming.size();
  std::size_t fulfilled = 0;
  try {
    // Pack in place rather than through Model::PredictBatch(vector): the
    // requests already own their tensors, so this is the only copy. The
    // allocation lives inside the try — it is the largest on the serve
    // path, and an escaping bad_alloc would exit the worker thread and
    // terminate the process instead of failing these riders' promises.
    const std::size_t in_stride = model_->input_shape().NumElements();
    Tensor packed(WithBatchAxis(b, model_->input_shape()));
    for (std::size_t s = 0; s < b; ++s) {
      std::copy_n(conforming[s]->input.data(), in_stride,
                  packed.data() + s * in_stride);
    }

    Tensor outputs;
    double service_ms = 0.0;
    {
      std::shared_lock<std::shared_mutex> lock(model_mutex_);
      // Start after the lock (see ServeSingle): lock-wait is downtime
      // accounting, not batch service cost.
      Stopwatch service;
      outputs = model_->PredictBatch(std::move(packed));
      service_ms = service.ElapsedMillis();
    }
    metrics_.RecordBatch(b, service_ms);
    const std::size_t out_stride = model_->output_shape().NumElements();
    for (std::size_t s = 0; s < b; ++s) {
      Tensor one(model_->output_shape());
      std::copy_n(outputs.data() + s * out_stride, out_stride, one.data());
      const double latency_ms = conforming[s]->queued.ElapsedMillis();
      metrics_.RecordLatency(latency_ms);
      obs::TraceInstantOn(trace_track_, "done", "serve",
                          static_cast<std::uint64_t>(latency_ms * 1e3),
                          static_cast<std::uint32_t>(b));
      conforming[s]->result.set_value(std::move(one));
      ++fulfilled;
    }
  } catch (...) {
    // A failure with conforming shapes is a model-side (or allocation)
    // error; every rider not yet fulfilled gets the same exception. The
    // already-fulfilled prefix must be skipped — set_exception on a
    // satisfied promise throws out of the handler and would terminate.
    for (std::size_t s = fulfilled; s < b; ++s) {
      try {
        conforming[s]->result.set_exception(std::current_exception());
      } catch (...) {
        // Promise raced to a satisfied state; its client already has a
        // result, nothing more to deliver.
      }
    }
  }
}

}  // namespace milr::runtime
