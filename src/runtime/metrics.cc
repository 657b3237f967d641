#include "runtime/metrics.h"

#include <algorithm>
#include <cstdio>

namespace milr::runtime {
namespace {

void AppendField(std::string& out, const char* key, double value,
                 bool last = false) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %.6f%s", key, value,
                last ? "" : ", ");
  out += buffer;
}

void AppendField(std::string& out, const char* key, std::uint64_t value,
                 bool last = false) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(value), last ? "" : ", ");
  out += buffer;
}

void AppendField(std::string& out, const char* key, bool value,
                 bool last = false) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %s%s", key,
                value ? "true" : "false", last ? "" : ", ");
  out += buffer;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  AppendField(out, "requests_served", requests_served);
  AppendField(out, "requests_rejected", requests_rejected);
  AppendField(out, "scheduler_grants", scheduler_grants);
  AppendField(out, "linger_skips", linger_skips);
  AppendField(out, "dropped_samples", dropped_samples);
  AppendField(out, "queue_depth", queue_depth);
  AppendField(out, "in_flight_batches", in_flight_batches);
  AppendField(out, "scrub_cycles", scrub_cycles);
  AppendField(out, "detections", detections);
  AppendField(out, "layers_flagged", layers_flagged);
  AppendField(out, "recoveries", recoveries);
  AppendField(out, "layers_recovered", layers_recovered);
  AppendField(out, "failed_recoveries", failed_recoveries);
  AppendField(out, "faults_injected", faults_injected);
  AppendField(out, "corrupted_weights", corrupted_weights);
  AppendField(out, "uptime_seconds", uptime_seconds);
  AppendField(out, "downtime_seconds", downtime_seconds);
  AppendField(out, "availability", availability);
  AppendField(out, "recovery_downtime_seconds", recovery_downtime_seconds);
  AppendField(out, "mttr_seconds", mttr_seconds);
  // The percentile block carries its own honesty marker: true when these
  // values are the request-weighted fallback (a merge over parts without
  // histogram buckets) rather than percentiles of one distribution.
  AppendField(out, "approx_percentiles", approx_percentiles);
  AppendField(out, "latency_mean_ms", latency_mean_ms);
  AppendField(out, "latency_p50_ms", latency_p50_ms);
  AppendField(out, "latency_p99_ms", latency_p99_ms);
  AppendField(out, "queue_wait_mean_ms", queue_wait_mean_ms);
  AppendField(out, "queue_wait_p50_ms", queue_wait_p50_ms);
  AppendField(out, "queue_wait_p99_ms", queue_wait_p99_ms);
  AppendField(out, "throughput_rps", throughput_rps);
  // SLO block (all zeros / goodput 1.0 when no objective is configured).
  AppendField(out, "slo_enabled", slo.enabled);
  AppendField(out, "slo_objective_ms", slo.objective_ms);
  AppendField(out, "slo_target", slo.target);
  AppendField(out, "slo_within", slo.within);
  AppendField(out, "slo_violations", slo.violations);
  AppendField(out, "slo_goodput", slo.goodput);
  AppendField(out, "slo_fast_burn_rate", slo.fast_burn_rate);
  AppendField(out, "slo_slow_burn_rate", slo.slow_burn_rate);
  AppendField(out, "batches_served", batches_served);
  AppendField(out, "batch_size_mean", batch_size_mean);
  AppendField(out, "batch_size_max", batch_size_max);
  AppendField(out, "batch_service_mean_ms", batch_service_mean_ms);
  // Histogram rendered sparsely: only batch sizes actually observed.
  out += "\"batch_histogram\": {";
  bool first = true;
  for (std::size_t s = 1; s < batch_histogram.size(); ++s) {
    if (batch_histogram[s] == 0) continue;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%s\"%zu\": %llu",
                  first ? "" : ", ", s,
                  static_cast<unsigned long long>(batch_histogram[s]));
    out += buffer;
    first = false;
  }
  out += "}}";
  return out;
}

void Metrics::MarkStarted() {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  started_ = Clock::now();
  epoch_served_base_ = requests_served_.load(std::memory_order_relaxed);
  epoch_downtime_base_nanos_ =
      downtime_nanos_.load(std::memory_order_relaxed);
}

std::uint64_t Metrics::SanitizeToNanos(double millis) {
  // NaN fails every comparison, so test for "good" and invert: both NaN
  // and negatives clamp to 0 and count as dropped (a poisoned sample must
  // not park in the top bucket and own p99 forever).
  if (!(millis >= 0.0)) {
    dropped_samples_.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  return static_cast<std::uint64_t>(millis * 1e6);
}

void Metrics::RecordLatency(double millis) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t nanos = SanitizeToNanos(millis);
  latency_hist_.Record(nanos);
  if (slo_.enabled()) slo_.Record(nanos, obs::SloTracker::NowNanos());
}

void Metrics::RecordQueueWait(double millis) {
  queue_wait_hist_.Record(SanitizeToNanos(millis));
}

void Metrics::RecordRejected() {
  requests_rejected_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::RecordGrant() {
  scheduler_grants_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::RecordLingerSkip() {
  linger_skips_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::RecordBatch(std::size_t batch_size, double service_millis) {
  if (batch_size == 0) return;
  batches_served_.fetch_add(1, std::memory_order_relaxed);
  batch_samples_.fetch_add(batch_size, std::memory_order_relaxed);
  batch_service_nanos_.fetch_add(
      static_cast<std::uint64_t>(service_millis * 1e6),
      std::memory_order_relaxed);
  const std::size_t bucket = std::min(batch_size, kBatchHistogramMax);
  batch_histogram_[bucket].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = batch_size_max_.load(std::memory_order_relaxed);
  while (seen < batch_size &&
         !batch_size_max_.compare_exchange_weak(seen, batch_size,
                                                std::memory_order_relaxed)) {
  }
}

void Metrics::RecordScrubCycle() {
  scrub_cycles_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::RecordDetection(std::size_t flagged_layers) {
  detections_.fetch_add(1, std::memory_order_relaxed);
  layers_flagged_.fetch_add(flagged_layers, std::memory_order_relaxed);
}

void Metrics::RecordDowntime(double outage_seconds) {
  downtime_nanos_.fetch_add(static_cast<std::uint64_t>(outage_seconds * 1e9),
                            std::memory_order_relaxed);
}

void Metrics::RecordRecovery(std::size_t layers_recovered,
                             double outage_seconds) {
  if (layers_recovered == 0) return;  // not a recovery; see RecordDowntime
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  layers_recovered_.fetch_add(layers_recovered, std::memory_order_relaxed);
  recovery_downtime_nanos_.fetch_add(
      static_cast<std::uint64_t>(outage_seconds * 1e9),
      std::memory_order_relaxed);
}

void Metrics::RecordFailedRecovery() {
  failed_recoveries_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::RecordInjection(std::size_t corrupted_weights) {
  faults_injected_.fetch_add(1, std::memory_order_relaxed);
  corrupted_weights_.fetch_add(corrupted_weights, std::memory_order_relaxed);
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot snap;
  snap.requests_served = requests_served_.load(std::memory_order_relaxed);
  snap.requests_rejected = requests_rejected_.load(std::memory_order_relaxed);
  snap.scheduler_grants = scheduler_grants_.load(std::memory_order_relaxed);
  snap.linger_skips = linger_skips_.load(std::memory_order_relaxed);
  snap.dropped_samples = dropped_samples_.load(std::memory_order_relaxed);
  snap.scrub_cycles = scrub_cycles_.load(std::memory_order_relaxed);
  snap.detections = detections_.load(std::memory_order_relaxed);
  snap.layers_flagged = layers_flagged_.load(std::memory_order_relaxed);
  snap.recoveries = recoveries_.load(std::memory_order_relaxed);
  snap.layers_recovered = layers_recovered_.load(std::memory_order_relaxed);
  snap.failed_recoveries = failed_recoveries_.load(std::memory_order_relaxed);
  snap.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  snap.corrupted_weights = corrupted_weights_.load(std::memory_order_relaxed);

  // One locked read of the epoch mark (a consistent trio — see the
  // epoch_mutex_ comment).
  Clock::time_point started;
  std::uint64_t served_base = 0;
  std::uint64_t downtime_base_nanos = 0;
  {
    std::lock_guard<std::mutex> lock(epoch_mutex_);
    started = started_;
    served_base = epoch_served_base_;
    downtime_base_nanos = epoch_downtime_base_nanos_;
  }

  snap.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  const std::uint64_t downtime_nanos =
      downtime_nanos_.load(std::memory_order_relaxed);
  snap.downtime_seconds = static_cast<double>(downtime_nanos) / 1e9;
  // Rates are per serving epoch (since the last MarkStarted), not per
  // process lifetime: after a Stop -> Start restart the counters keep
  // accumulating but uptime restamps, and dividing lifetime counts by the
  // fresh epoch would report nonsense (huge throughput, zero
  // availability).
  const std::uint64_t downtime_base =
      std::min(downtime_nanos, downtime_base_nanos);
  const double epoch_downtime =
      static_cast<double>(downtime_nanos - downtime_base) / 1e9;
  snap.availability =
      snap.uptime_seconds > 0.0
          ? 1.0 - std::min(epoch_downtime, snap.uptime_seconds) /
                      snap.uptime_seconds
          : 1.0;
  snap.recovery_downtime_seconds =
      static_cast<double>(
          recovery_downtime_nanos_.load(std::memory_order_relaxed)) /
      1e9;
  snap.mttr_seconds = snap.recoveries > 0
                          ? snap.recovery_downtime_seconds /
                                static_cast<double>(snap.recoveries)
                          : 0.0;
  const std::uint64_t epoch_served =
      snap.requests_served - std::min(snap.requests_served, served_base);
  snap.throughput_rps =
      snap.uptime_seconds > 0.0
          ? static_cast<double>(epoch_served) / snap.uptime_seconds
          : 0.0;

  snap.batches_served = batches_served_.load(std::memory_order_relaxed);
  const std::uint64_t batch_samples =
      batch_samples_.load(std::memory_order_relaxed);
  snap.batch_size_mean =
      snap.batches_served > 0
          ? static_cast<double>(batch_samples) /
                static_cast<double>(snap.batches_served)
          : 0.0;
  snap.batch_size_max = batch_size_max_.load(std::memory_order_relaxed);
  snap.batch_service_mean_ms =
      snap.batches_served > 0
          ? static_cast<double>(
                batch_service_nanos_.load(std::memory_order_relaxed)) /
                1e6 / static_cast<double>(snap.batches_served)
          : 0.0;
  snap.batch_histogram.resize(batch_histogram_.size());
  for (std::size_t s = 0; s < batch_histogram_.size(); ++s) {
    snap.batch_histogram[s] = batch_histogram_[s].load(
        std::memory_order_relaxed);
  }

  // Latency truth: the lock-free histograms. The bucket snapshot rides
  // on the MetricsSnapshot so host-level aggregation can merge exactly.
  snap.latency_hist = latency_hist_.Snapshot();
  snap.queue_wait_hist = queue_wait_hist_.Snapshot();
  if (!snap.latency_hist.empty()) {
    snap.latency_mean_ms = snap.latency_hist.MeanMillis();
    snap.latency_p50_ms = snap.latency_hist.QuantileMillis(0.5);
    snap.latency_p99_ms = snap.latency_hist.QuantileMillis(0.99);
  }
  if (!snap.queue_wait_hist.empty()) {
    snap.queue_wait_mean_ms = snap.queue_wait_hist.MeanMillis();
    snap.queue_wait_p50_ms = snap.queue_wait_hist.QuantileMillis(0.5);
    snap.queue_wait_p99_ms = snap.queue_wait_hist.QuantileMillis(0.99);
  }

  snap.slo = slo_.Snapshot(obs::SloTracker::NowNanos());
  return snap;
}

MetricsSnapshot AggregateSnapshots(
    const std::vector<MetricsSnapshot>& parts) {
  MetricsSnapshot agg;
  if (parts.empty()) return agg;
  // Exact merge is possible when every traffic-bearing part carries its
  // histogram buckets (always true for snapshots taken from a live
  // Metrics); hand-built or deserialized snapshots without buckets force
  // the request-weighted fallback below.
  bool exact = true;
  for (const auto& p : parts) {
    if (p.requests_served > 0 &&
        (p.latency_hist.empty() && p.queue_wait_hist.empty())) {
      exact = false;
      break;
    }
  }
  double availability_sum = 0.0;
  double latency_mean_w = 0.0, latency_p50_w = 0.0, latency_p99_w = 0.0;
  double wait_mean_w = 0.0, wait_p50_w = 0.0, wait_p99_w = 0.0;
  std::uint64_t batch_samples = 0;
  double batch_service_ms = 0.0;
  bool slo_enabled = false;
  for (const auto& p : parts) {
    agg.requests_served += p.requests_served;
    agg.requests_rejected += p.requests_rejected;
    agg.scheduler_grants += p.scheduler_grants;
    agg.linger_skips += p.linger_skips;
    agg.dropped_samples += p.dropped_samples;
    agg.queue_depth += p.queue_depth;
    agg.in_flight_batches += p.in_flight_batches;
    agg.scrub_cycles += p.scrub_cycles;
    agg.detections += p.detections;
    agg.layers_flagged += p.layers_flagged;
    agg.recoveries += p.recoveries;
    agg.layers_recovered += p.layers_recovered;
    agg.failed_recoveries += p.failed_recoveries;
    agg.faults_injected += p.faults_injected;
    agg.corrupted_weights += p.corrupted_weights;
    agg.uptime_seconds = std::max(agg.uptime_seconds, p.uptime_seconds);
    agg.downtime_seconds += p.downtime_seconds;
    agg.recovery_downtime_seconds += p.recovery_downtime_seconds;
    availability_sum += p.availability;
    const double w = static_cast<double>(p.requests_served);
    latency_mean_w += w * p.latency_mean_ms;
    latency_p50_w += w * p.latency_p50_ms;
    latency_p99_w += w * p.latency_p99_ms;
    wait_mean_w += w * p.queue_wait_mean_ms;
    wait_p50_w += w * p.queue_wait_p50_ms;
    wait_p99_w += w * p.queue_wait_p99_ms;
    agg.throughput_rps += p.throughput_rps;
    agg.latency_hist.Merge(p.latency_hist);
    agg.queue_wait_hist.Merge(p.queue_wait_hist);
    // SLO: request counters sum (goodput recomputes exactly below); burn
    // rates and the objective roll up as the worst model's — the value a
    // host-level alert should fire on.
    slo_enabled = slo_enabled || p.slo.enabled;
    agg.slo.within += p.slo.within;
    agg.slo.violations += p.slo.violations;
    agg.slo.objective_ms = std::max(agg.slo.objective_ms, p.slo.objective_ms);
    agg.slo.target = std::max(agg.slo.target, p.slo.target);
    agg.slo.fast_burn_rate =
        std::max(agg.slo.fast_burn_rate, p.slo.fast_burn_rate);
    agg.slo.slow_burn_rate =
        std::max(agg.slo.slow_burn_rate, p.slo.slow_burn_rate);
    agg.batches_served += p.batches_served;
    batch_samples +=
        static_cast<std::uint64_t>(p.batch_size_mean *
                                   static_cast<double>(p.batches_served) +
                                   0.5);
    agg.batch_size_max = std::max(agg.batch_size_max, p.batch_size_max);
    batch_service_ms += p.batch_service_mean_ms *
                        static_cast<double>(p.batches_served);
    if (p.batch_histogram.size() > agg.batch_histogram.size()) {
      agg.batch_histogram.resize(p.batch_histogram.size(), 0);
    }
    for (std::size_t s = 0; s < p.batch_histogram.size(); ++s) {
      agg.batch_histogram[s] += p.batch_histogram[s];
    }
  }
  agg.availability = availability_sum / static_cast<double>(parts.size());
  agg.mttr_seconds = agg.recoveries > 0
                         ? agg.recovery_downtime_seconds /
                               static_cast<double>(agg.recoveries)
                         : 0.0;
  agg.slo.enabled = slo_enabled;
  const std::uint64_t slo_total = agg.slo.within + agg.slo.violations;
  agg.slo.goodput = slo_total > 0 ? static_cast<double>(agg.slo.within) /
                                        static_cast<double>(slo_total)
                                  : 1.0;
  agg.slo.fast_burn_alert = agg.slo.fast_burn_rate >= 1.0;
  if (exact) {
    // The merged buckets ARE the union distribution: percentiles of the
    // whole host, exact to the shared bucket error bound.
    if (!agg.latency_hist.empty()) {
      agg.latency_mean_ms = agg.latency_hist.MeanMillis();
      agg.latency_p50_ms = agg.latency_hist.QuantileMillis(0.5);
      agg.latency_p99_ms = agg.latency_hist.QuantileMillis(0.99);
    }
    if (!agg.queue_wait_hist.empty()) {
      agg.queue_wait_mean_ms = agg.queue_wait_hist.MeanMillis();
      agg.queue_wait_p50_ms = agg.queue_wait_hist.QuantileMillis(0.5);
      agg.queue_wait_p99_ms = agg.queue_wait_hist.QuantileMillis(0.99);
    }
    agg.approx_percentiles = false;
  } else {
    if (agg.requests_served > 0) {
      const double total = static_cast<double>(agg.requests_served);
      agg.latency_mean_ms = latency_mean_w / total;
      agg.latency_p50_ms = latency_p50_w / total;
      agg.latency_p99_ms = latency_p99_w / total;
      agg.queue_wait_mean_ms = wait_mean_w / total;
      agg.queue_wait_p50_ms = wait_p50_w / total;
      agg.queue_wait_p99_ms = wait_p99_w / total;
    }
    // A single bucketless part's percentiles pass through exactly; only
    // a true merge degrades to the request-weighted approximation.
    agg.approx_percentiles =
        parts.size() > 1 ||
        (parts.size() == 1 && parts.front().approx_percentiles);
  }
  if (agg.batches_served > 0) {
    agg.batch_size_mean = static_cast<double>(batch_samples) /
                          static_cast<double>(agg.batches_served);
    agg.batch_service_mean_ms =
        batch_service_ms / static_cast<double>(agg.batches_served);
  }
  return agg;
}

}  // namespace milr::runtime
