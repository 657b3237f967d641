// Metrics registry for the protected inference runtime.
//
// Counters are written from four kinds of threads at once (client submit
// paths, inference workers, the scrubber, the fault drive), so everything
// hot is a relaxed atomic — including the latency distributions, which are
// lock-free log-bucketed histograms (obs/histogram.h). The record path
// (RecordLatency/RecordQueueWait) therefore takes no mutex at all; the one
// mutex in this class guards
// the uptime-epoch trio, which is only touched by MarkStarted (a lifecycle
// event) and Snapshot (the read path). Snapshot() computes the derived
// quantities (availability, MTTR, p50/p99, throughput, goodput, burn
// rates) the availability experiments report.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/slo.h"

namespace milr::runtime {

/// Point-in-time view of the runtime's counters (totals since Start()).
struct MetricsSnapshot {
  std::uint64_t requests_served = 0;
  std::uint64_t requests_rejected = 0;   // load shed at the queue bound
  /// Scheduler decisions, previously invisible: how many worker grants this
  /// model received, and how many times a worker skipped its batch linger
  /// because another model had pending work (the HasPendingOther fast
  /// path). grants ~ served batches under fair sharing; a model with many
  /// linger_skips is yielding its batching window to co-hosted traffic.
  std::uint64_t scheduler_grants = 0;
  std::uint64_t linger_skips = 0;
  /// Latency/queue-wait samples rejected at the door (NaN or negative —
  /// a broken clock or a caller bug) and clamped to 0 instead of
  /// poisoning the distribution.
  std::uint64_t dropped_samples = 0;
  std::uint64_t scrub_cycles = 0;
  std::uint64_t detections = 0;          // scrub cycles that flagged layers
  std::uint64_t layers_flagged = 0;
  std::uint64_t recoveries = 0;          // successful online recovery events
  std::uint64_t layers_recovered = 0;
  std::uint64_t failed_recoveries = 0;   // quarantines whose repair failed
  std::uint64_t faults_injected = 0;     // fault-drive events against us
  std::uint64_t corrupted_weights = 0;   // weights hit by those events

  double uptime_seconds = 0.0;           // wall time since (re)Start()
  double downtime_seconds = 0.0;         // total quarantine time (all causes)
  /// 1 - downtime/uptime over the CURRENT serving epoch: counters are
  /// lifetime, but rate-derived fields subtract the MarkStarted baseline
  /// so a restarted runtime reports sane rates (see Metrics::MarkStarted).
  double availability = 1.0;
  /// Quarantine time attributable to *successful* recoveries only; the
  /// MTTR numerator. Failed-recovery downtime still counts against
  /// availability (downtime_seconds) but must not inflate MTTR.
  double recovery_downtime_seconds = 0.0;
  double mttr_seconds = 0.0;             // recovery_downtime / recoveries

  // Latency statistics over ALL samples since construction (the
  // histogram is cumulative), with bounded relative error per
  // obs::LatencyHistogram::kMaxRelativeError.
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Queue wait alone (admission -> worker pick-up), the scheduler-fairness
  /// observable: under multi-model serving a starved model shows up here
  /// long before end-to-end latency separates wait from service.
  double queue_wait_mean_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double throughput_rps = 0.0;           // epoch requests served / uptime

  /// The raw bucket counts behind the percentiles above. Carried on the
  /// snapshot so AggregateSnapshots can merge them EXACTLY (bucket-wise
  /// sum) instead of request-weighting the derived percentiles. Empty on
  /// hand-built or legacy snapshots — the aggregate then falls back to
  /// the weighted approximation and says so.
  obs::HistogramSnapshot latency_hist;
  obs::HistogramSnapshot queue_wait_hist;

  /// Per-model SLO view (goodput, burn rates); enabled == false when the
  /// model declares no latency objective. See obs/slo.h.
  obs::SloSnapshot slo;

  // Micro-batching statistics: one "batch" is one PredictBatch (or single
  // Predict) executed under one shared-lock acquisition by a worker.
  std::uint64_t batches_served = 0;
  double batch_size_mean = 0.0;          // requests per batch
  std::uint64_t batch_size_max = 0;
  double batch_service_mean_ms = 0.0;    // model time per batch (lock held)
  /// batch_histogram[s] counts batches of exactly s requests (index 0
  /// unused; sizes above kBatchHistogramMax clamp into the last bucket).
  std::vector<std::uint64_t> batch_histogram;

  // Live gauges, stamped by ModelRuntime::Snapshot at snapshot time (they
  // are instantaneous reads, not counters the Metrics registry owns).
  std::uint64_t queue_depth = 0;       // requests waiting right now
  std::uint64_t in_flight_batches = 0; // workers inside ServeSome right now

  /// True only when the latency/queue-wait percentiles are the
  /// request-weighted fallback (a merge over parts that carried no
  /// histogram buckets). Exact bucket-wise merges — the normal case since
  /// snapshots carry their histograms — keep this false; the JSON carries
  /// it as "approx_percentiles" for dashboard compatibility.
  bool approx_percentiles = false;

  /// Flat JSON object with every field above, for dashboards and logs.
  std::string ToJson() const;
};

/// Folds per-model snapshots into one host-level view: counters, downtime
/// and histograms sum; uptime is the max (the runtimes share one wall
/// clock); availability is the per-model mean; MTTR re-derives from the
/// summed recovery downtime. Latency/queue-wait percentiles are EXACT when
/// every traffic-bearing part carries its histogram buckets (the merge is
/// a bucket-wise sum and the percentiles recompute from the merged
/// distribution); parts without buckets degrade the merge to the old
/// request-weighted approximation, flagged by approx_percentiles. SLO
/// counters sum (goodput recomputes exactly); burn rates and the latency
/// objective report the worst (max) across parts — the alerting-relevant
/// rollup.
MetricsSnapshot AggregateSnapshots(const std::vector<MetricsSnapshot>& parts);

/// Thread-safe registry shared by the engine, scrubber and fault drive.
class Metrics {
 public:
  /// Stamps the uptime epoch; called on every (re)start of the owning
  /// runtime. Counters keep accumulating across epochs, but the
  /// rate-derived snapshot quantities (throughput_rps, availability) are
  /// computed against baselines captured here — without them a restart
  /// would divide lifetime counts by the fresh epoch's uptime.
  void MarkStarted();

  /// Declares this model's latency objective; Record/Snapshot then track
  /// goodput and burn rates. Call before traffic starts (the runtime
  /// configures at construction). No objective = tracking disabled.
  void ConfigureSlo(const obs::SloConfig& config) { slo_.Configure(config); }

  /// Largest batch size tracked exactly by the histogram; bigger batches
  /// clamp into this bucket.
  static constexpr std::size_t kBatchHistogramMax = 64;

  /// Records one served request and its end-to-end latency. Lock-free
  /// (two relaxed fetch_adds into the histogram plus the SLO counters).
  /// NaN/negative samples clamp to 0 and count dropped_samples.
  void RecordLatency(double millis);
  /// Records how long one request sat queued before a worker picked it up
  /// (recorded at batch formation, before the model lock is taken).
  /// Lock-free; same NaN/negative hardening.
  void RecordQueueWait(double millis);
  void RecordRejected();

  /// Records one scheduler grant handed to a worker for this model.
  void RecordGrant();
  /// Records one linger skip: a worker bypassed this model's batch linger
  /// because HasPendingOther reported waiting co-hosted work.
  void RecordLingerSkip();

  /// Records one executed micro-batch: how many requests it carried and how
  /// long the model ran (the shared-lock hold time).
  void RecordBatch(std::size_t batch_size, double service_millis);

  void RecordScrubCycle();
  void RecordDetection(std::size_t flagged_layers);
  /// Records exclusive-quarantine wall time (the availability numerator).
  /// Every quarantine — successful repair, failed repair, or a re-detect
  /// that found nothing — goes through here exactly once.
  void RecordDowntime(double outage_seconds);
  /// Records one *successful* recovery event: `layers_recovered` > 0 layers
  /// repaired during a quarantine of `outage_seconds`. The outage feeds the
  /// MTTR numerator only — pair with RecordDowntime for the availability
  /// charge (this method does not double-count it).
  void RecordRecovery(std::size_t layers_recovered, double outage_seconds);
  /// Records a quarantine whose recovery failed (no layer repaired, or a
  /// layer solve returned an error). Keeps failed repairs out of MTTR
  /// while still making them visible in the snapshot/JSON.
  void RecordFailedRecovery();
  void RecordInjection(std::size_t corrupted_weights);

  /// Periodic SLO fast-burn poll for the incident journal: true exactly
  /// once per excursion of the fast burn rate above 1.0 (see
  /// obs::SloTracker::FastBurnTripped). Called off the hot path (scrub
  /// cycles).
  bool SloFastBurnTripped() {
    return slo_.FastBurnTripped(obs::SloTracker::NowNanos());
  }

  MetricsSnapshot Snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> scheduler_grants_{0};
  std::atomic<std::uint64_t> linger_skips_{0};
  std::atomic<std::uint64_t> dropped_samples_{0};
  std::atomic<std::uint64_t> scrub_cycles_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> layers_flagged_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> layers_recovered_{0};
  std::atomic<std::uint64_t> failed_recoveries_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> corrupted_weights_{0};
  // Seconds stored as nanosecond integers so they can be atomics too.
  std::atomic<std::uint64_t> downtime_nanos_{0};
  std::atomic<std::uint64_t> recovery_downtime_nanos_{0};

  std::atomic<std::uint64_t> batches_served_{0};
  std::atomic<std::uint64_t> batch_samples_{0};
  std::atomic<std::uint64_t> batch_size_max_{0};
  std::atomic<std::uint64_t> batch_service_nanos_{0};
  std::array<std::atomic<std::uint64_t>, kBatchHistogramMax + 1>
      batch_histogram_{};

  /// Sanitizes one latency sample: NaN/negative clamps to 0 (counting
  /// dropped_samples_) and the result converts to histogram nanos.
  std::uint64_t SanitizeToNanos(double millis);

  // The latency truth: lock-free log-bucketed histograms. Both record
  // paths are relaxed fetch_adds; percentiles derive from the buckets at
  // Snapshot() time with bounded relative error.
  obs::LatencyHistogram latency_hist_;
  obs::LatencyHistogram queue_wait_hist_;
  obs::SloTracker slo_;

  /// Guards the epoch trio below only (NOT the sample path). Restart
  /// support makes MarkStarted a live operation (host Start) that can
  /// race a monitoring thread's Snapshot; the three epoch fields must be
  /// read and written as one consistent set — a fresh epoch stamp paired
  /// with stale baselines would emit one absurd throughput/availability
  /// sample at every restart.
  mutable std::mutex epoch_mutex_;
  // Initialized at construction so a Snapshot() taken before MarkStarted()
  // (engine built but not yet Start()ed) reports a sane, near-zero uptime
  // instead of epoch-scale garbage; MarkStarted() then resets the epoch.
  Clock::time_point started_ = Clock::now();
  // Epoch baselines (see MarkStarted): counter values at the last epoch
  // stamp, subtracted when deriving rates so throughput/availability
  // describe the current serving epoch, not the process lifetime.
  std::uint64_t epoch_served_base_ = 0;
  std::uint64_t epoch_downtime_base_nanos_ = 0;
};

}  // namespace milr::runtime
