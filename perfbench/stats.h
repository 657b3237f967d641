// Arithmetic the benchmark reports with: quantiles under the sample-count
// rule, windowed rates, the seeded open-loop schedule and its lateness accounting, span
// self time, and the layer-sum-over-service ratio. Header-only and free of
// MILR code, so stats_test.cc can pin it down on its own.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------- quantiles

/// Quantile q in [0, 1] of `values`, interpolating linearly between order
/// statistics (position q·(n-1)). 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Continued fraction of the incomplete beta function (modified Lentz).
inline double BetaContinuedFraction(double x, double a, double b) {
  constexpr double kTiny = 1e-300;
  constexpr double kEpsilon = 1e-15;
  const auto guard = [](double v) { return std::abs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0));
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2));
    d = 1.0 / guard(1.0 + aa * d);
    c = guard(1.0 + aa / c);
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < kEpsilon) break;
  }
  return h;
}

/// The regularized incomplete beta function I_x(a, b): the CDF at x of a
/// Beta(a, b) variable.
inline double RegularizedBeta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(x, a, b) / a;
  }
  return 1.0 - front * BetaContinuedFraction(1.0 - x, b, a) / b;
}

/// Harrell-Davis estimate of quantile q: a weighted mean of all order
/// statistics, the i-th weighted by P((i-1)/n < B <= i/n) for
/// B ~ Beta(q(n+1), (1-q)(n+1)). Far less noisy than one order statistic
/// when few samples lie beyond q, which is the case for every tail this
/// benchmark reports. Weights beyond 12 standard deviations of B are
/// dropped (they are below 1e-30). 0 for an empty sample.
inline double HarrellDavis(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  q = std::clamp(q, 0.0, 1.0);
  const double a = q * (n + 1.0);
  const double b = (1.0 - q) * (n + 1.0);
  if (a <= 0.0) return values.front();
  if (b <= 0.0) return values.back();
  const double sd = std::sqrt(a * b / ((a + b) * (a + b) * (a + b + 1.0)));
  const double lo_x = std::max(0.0, q - 12.0 * sd);
  const double hi_x = std::min(1.0, q + 12.0 * sd);
  const std::size_t first = static_cast<std::size_t>(std::floor(lo_x * n));
  const std::size_t last = std::min(
      values.size(), static_cast<std::size_t>(std::ceil(hi_x * n)));
  double sum = 0.0;
  double weight_sum = 0.0;
  double cdf = RegularizedBeta(static_cast<double>(first) / n, a, b);
  for (std::size_t i = first; i < last; ++i) {
    const double next = RegularizedBeta(static_cast<double>(i + 1) / n, a, b);
    sum += (next - cdf) * values[i];
    weight_sum += next - cdf;
    cdf = next;
  }
  return weight_sum > 0.0 ? sum / weight_sum : Quantile(values, q);
}

/// A tail percentile is reported only with at least this many samples
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// The highest quantile <= `wanted` that a sample of `n` supports, i.e.
/// that leaves at least kMinBeyond samples beyond it: q <= 1 - kMinBeyond/n.
/// Never below the median — a sample too small for any tail reports its
/// median, and TailStat::q says so.
inline double SupportedQuantile(std::size_t n, double wanted) {
  if (n == 0) return 0.5;
  const double cap =
      1.0 - static_cast<double>(kMinBeyond) / static_cast<double>(n);
  return std::max(0.5, std::min(wanted, cap));
}

struct TailStat {
  double value = 0.0;  // the quantile actually reported
  double q = 0.0;      // which quantile that is (may be below the wanted one)
  std::size_t n = 0;   // sample count
};

/// The Harrell-Davis estimate of the highest quantile <= `wanted` that
/// `values` supports.
inline TailStat Tail(const std::vector<double>& values, double wanted) {
  TailStat tail;
  tail.n = values.size();
  tail.q = SupportedQuantile(tail.n, wanted);
  tail.value = HarrellDavis(values, tail.q);
  return tail;
}

/// Harrell-Davis quantile `wanted` of a phase's samples, robust to a brief
/// stall elsewhere on the host: the samples, in the order they were due, are cut
/// into as many equal-count slices (at most `max_slices`) as leave each
/// slice kMinBeyond samples beyond the quantile, and the median of the
/// per-slice quantiles is reported. Fewer than three such slices: the
/// pooled Tail().
inline TailStat SlicedTail(std::vector<std::pair<double, double>> due_value,
                           double wanted, std::size_t max_slices) {
  const std::size_t n = due_value.size();
  const double q = std::clamp(wanted, 0.5, 1.0);
  const std::size_t need = static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
  const std::size_t slices =
      std::min(max_slices, n / std::max<std::size_t>(need, 1));
  std::vector<double> values;
  values.reserve(n);
  if (slices < 3) {
    for (const auto& dv : due_value) values.push_back(dv.second);
    return Tail(values, wanted);
  }
  std::sort(due_value.begin(), due_value.end());
  std::vector<double> per_slice;
  for (std::size_t s = 0; s < slices; ++s) {
    values.clear();
    for (std::size_t i = s * n / slices; i < (s + 1) * n / slices; ++i) {
      values.push_back(due_value[i].second);
    }
    per_slice.push_back(HarrellDavis(values, q));
  }
  return {Median(per_slice), q, n};
}

/// Events per second over [begin, end), as the median over equal windows
/// about `window_s` long (one window if the phase is shorter). As with
/// SlicedTail, a brief stall elsewhere on the host slows one window, not
/// the figure. Times outside the phase are ignored.
inline double WindowedRate(const std::vector<double>& times, double begin,
                           double end, double window_s) {
  const double span = end - begin;
  if (span <= 0.0) return 0.0;
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(span / window_s));
  const double width = span / static_cast<double>(windows);
  std::vector<double> rates(windows, 0.0);
  for (const double t : times) {
    if (t < begin || t >= end) continue;
    const std::size_t w =
        std::min(windows - 1, static_cast<std::size_t>((t - begin) / width));
    rates[w] += 1.0 / width;
  }
  return Median(std::move(rates));
}

// ------------------------------------------------------- open-loop traffic

/// SplitMix64 step: the benchmark's own seeded stream, so schedules never
/// depend on a standard library's distribution implementation.
inline std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform in (0, 1] — never 0, so -log(u) is finite.
inline double UniformOpenZero(std::uint64_t& state) {
  return static_cast<double>((SplitMix(state) >> 11) + 1) * 0x1.0p-53;
}

/// Due times, in seconds from the phase start, of a Poisson arrival
/// process at `rate` per second over [0, seconds). The same seed gives the
/// same schedule.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           std::uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  std::uint64_t state = seed;
  double t = 0.0;
  for (;;) {
    t += -std::log(UniformOpenZero(state)) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

/// Open-loop accounting against a fixed latency limit. Every request is
/// timed from when it was due, so a late generator's stall counts against
/// the requests it delayed; how late the generator ran is kept apart.
class OpenLoopTally {
 public:
  explicit OpenLoopTally(double limit_s) : limit_s_(limit_s) {}

  /// A request due at `due`, sent at `sent`, that resolved at `done`;
  /// `ok` is false for a wrong answer or an exception.
  void Completed(double due, double sent, double done, bool ok) {
    ++sent_;
    lags_s_.push_back(std::max(0.0, sent - due));
    const double latency = done - due;
    if (ok) {
      due_latencies_s_.emplace_back(due, latency);
      latencies_s_.push_back(latency);
      sent_latencies_s_.push_back(done - sent);
    }
    if (!ok || latency > limit_s_) ++misses_;
  }

  /// A request refused at admission: it misses the limit by definition.
  void Rejected(double due, double sent) {
    ++sent_;
    lags_s_.push_back(std::max(0.0, sent - due));
    ++misses_;
  }

  std::size_t sent() const { return sent_; }
  std::size_t misses() const { return misses_; }
  double miss_share() const {
    return sent_ == 0 ? 0.0
                      : static_cast<double>(misses_) /
                            static_cast<double>(sent_);
  }
  /// Due -> resolved, successful requests only.
  const std::vector<double>& latencies_s() const { return latencies_s_; }
  /// The same latencies, each with its due time.
  const std::vector<std::pair<double, double>>& due_latencies_s() const {
    return due_latencies_s_;
  }
  /// Sent -> resolved (what the runtime itself can see), successful only.
  const std::vector<double>& sent_latencies_s() const {
    return sent_latencies_s_;
  }
  /// How late the generator sent each request (>= 0).
  const std::vector<double>& lags_s() const { return lags_s_; }

 private:
  double limit_s_;
  std::size_t sent_ = 0;
  std::size_t misses_ = 0;
  std::vector<double> latencies_s_;
  std::vector<std::pair<double, double>> due_latencies_s_;
  std::vector<double> sent_latencies_s_;
  std::vector<double> lags_s_;
};

// ------------------------------------------------------------------ spans

/// One timed interval recorded by the benchmark around a call into the
/// program. Spans of one request share `request`.
struct Span {
  std::uint64_t id = 0;       // unique within a run, > 0
  std::uint64_t parent = 0;   // 0 for a root span
  std::uint64_t request = 0;  // 0 when the span serves no request
  const char* name = "";      // static storage
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by the union of its children's intervals
/// (children may overlap one another and are clipped to the parent).
inline std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = index.find(span.parent);
    if (it != index.end()) {
      children[it->second].emplace_back(span.begin_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = spans[i].begin_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = begin;  // end of the union covered so far
    for (const auto& [kid_begin, kid_end] : kids) {
      const std::int64_t lo = std::max(kid_begin, cursor);
      const std::int64_t hi = std::min(kid_end, end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

// ------------------------------------------------------- layer attribution

/// One served model's share of the layer-sum check: the batches it served,
/// the summed per-layer probe time of one max_batch call, and its served
/// batch time.
struct ServiceSample {
  double batches = 0.0;
  double layer_sum_ms = 0.0;
  double service_ms = 0.0;
};

/// nn.layer_sum_over_service: summed per-layer time over served batch
/// time, each weighted across models by the batches the model served.
/// 0 when nothing was served.
inline double LayerSumOverService(const std::vector<ServiceSample>& models) {
  double layers = 0.0;
  double service = 0.0;
  for (const ServiceSample& m : models) {
    layers += m.batches * m.layer_sum_ms;
    service += m.batches * m.service_ms;
  }
  return service > 0.0 ? layers / service : 0.0;
}

}  // namespace perfbench
