// Copyright (c) 2026 moqo authors. MIT license.
//
// Log-bucketed concurrent latency histogram (PR 6).
//
// LatencyHistogram replaces the count/total/max LatencyStats aggregate: it
// records wall-clock milliseconds into logarithmic buckets (kSubBuckets
// per power of two, i.e. a worst-case relative bucket width of
// 2^(1/16)-1 ~ 4.4%) with one relaxed atomic increment per sample, so it
// is safe to Record() from any number of threads with no lock and no
// reader/writer coordination. Snapshot() yields a plain-value
// HistogramSnapshot that is mergeable (Merge) and answers quantile
// queries (Quantile/PercentileMs) by linear interpolation inside the
// landing bucket — the single percentile definition shared by the service
// stats, the bench harness, and the Prometheus exposition, replacing the
// bench's hand-rolled sort-based Percentile().
//
// Range: [2^-10 ms (~1us), 2^22 ms (~70min)); values outside clamp into
// the first/last bucket. The exact maximum is tracked separately (CAS on
// the bit pattern), so max_ms never suffers bucketing error and bounds
// every quantile estimate.

#ifndef MOQO_OBS_HISTOGRAM_H_
#define MOQO_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace moqo {

/// Plain-value copy of a histogram: mergeable, copyable, and the object
/// that actually answers quantile queries.
struct HistogramSnapshot {
  /// Buckets per power of two; 16 bounds the relative quantile error by
  /// half a bucket width (~2.2% at the midpoint, 4.4% worst case).
  static constexpr int kSubBuckets = 16;
  static constexpr int kMinExp = -10;  ///< 2^-10 ms ~ 1 us.
  static constexpr int kMaxExp = 22;   ///< 2^22 ms ~ 70 min.
  /// Log buckets plus one underflow (index 0) and one overflow (last).
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets + 2;

  uint64_t count = 0;
  double sum_ms = 0;
  double max_ms = 0;
  std::array<uint64_t, kNumBuckets> buckets{};

  /// Bucket index for one sample. <= 2^kMinExp (and non-finite garbage)
  /// lands in the underflow bucket, >= 2^kMaxExp in the overflow bucket.
  static int BucketIndex(double ms) {
    if (!(ms > MinMs())) return 0;
    if (ms >= MaxMs()) return kNumBuckets - 1;
    int exp = 0;
    const double mantissa = std::frexp(ms, &exp);  // [0.5, 1)
    const int octave = exp - 1 - kMinExp;          // [0, kMaxExp - kMinExp)
    const int sub = static_cast<int>((mantissa - 0.5) * 2 * kSubBuckets);
    return 1 + octave * kSubBuckets + std::min(sub, kSubBuckets - 1);
  }

  /// Inclusive lower / exclusive upper bound of bucket `index` in ms.
  static double BucketLowerMs(int index) {
    if (index <= 0) return 0;
    if (index >= kNumBuckets - 1) return MaxMs();
    const int b = index - 1;
    return std::ldexp(1.0 + static_cast<double>(b % kSubBuckets) /
                                kSubBuckets,
                      kMinExp + b / kSubBuckets);
  }
  static double BucketUpperMs(int index) {
    if (index <= 0) return MinMs();
    if (index >= kNumBuckets - 1) return MaxMs();
    return BucketLowerMs(index + 1);
  }

  double MeanMs() const { return count == 0 ? 0 : sum_ms / count; }

  /// Quantile estimate for q in [0, 1]: linear interpolation inside the
  /// bucket the q-th sample lands in, clamped by the exact max. 0 when
  /// empty.
  double Quantile(double q) const {
    if (count == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank in [1, count]; q = 0 asks for the smallest recorded sample.
    const double rank = std::max(1.0, q * static_cast<double>(count));
    uint64_t cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const uint64_t next = cumulative + buckets[i];
      if (static_cast<double>(next) >= rank) {
        const double into =
            (rank - static_cast<double>(cumulative)) / buckets[i];
        const double lower = BucketLowerMs(i);
        const double upper = i >= kNumBuckets - 1 ? std::max(max_ms, MaxMs())
                                                  : BucketUpperMs(i);
        return std::min(lower + (upper - lower) * into,
                        max_ms > 0 ? max_ms : upper);
      }
      cumulative = next;
    }
    return max_ms;  // Unreachable unless counts raced; max is safe.
  }

  /// Percentile in [0, 100] — the drop-in replacement for the harness's
  /// sort-based Percentile().
  double PercentileMs(double p) const { return Quantile(p / 100.0); }

  /// Count of samples <= `ms` (bucket-resolution; the straddling bucket
  /// contributes a linear fraction). Feeds the Prometheus cumulative
  /// `_bucket{le=...}` series.
  uint64_t CountAtMost(double ms) const {
    if (!(ms >= 0)) return 0;
    uint64_t cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (buckets[i] == 0) continue;
      const double upper = BucketUpperMs(i);
      if (upper <= ms) {
        cumulative += buckets[i];
        continue;
      }
      const double lower = BucketLowerMs(i);
      if (ms > lower && upper > lower) {
        cumulative += static_cast<uint64_t>(
            buckets[i] * ((ms - lower) / (upper - lower)));
      }
      break;
    }
    return cumulative;
  }

  void Merge(const HistogramSnapshot& other) {
    count += other.count;
    sum_ms += other.sum_ms;
    max_ms = std::max(max_ms, other.max_ms);
    for (int i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
  }

 private:
  static double MinMs() { return std::ldexp(1.0, kMinExp); }
  static double MaxMs() { return std::ldexp(1.0, kMaxExp); }
};

/// The concurrent recorder. Record() is wait-free apart from the max CAS
/// (which loops only while the max is actually being raised); Snapshot()
/// reads with relaxed ordering — counts may skew by in-flight samples but
/// the snapshot's count always equals the sum of its buckets.
class LatencyHistogram {
 public:
  LatencyHistogram() {
    for (auto& bucket : buckets_) {
      bucket.store(0, std::memory_order_relaxed);
    }
  }

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(double ms) {
    buckets_[HistogramSnapshot::BucketIndex(ms)].fetch_add(
        1, std::memory_order_relaxed);
    AtomicAdd(&sum_bits_, ms);
    AtomicMax(&max_bits_, ms);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot snapshot;
    uint64_t total = 0;
    for (int i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
      snapshot.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
      total += snapshot.buckets[i];
    }
    snapshot.count = total;
    snapshot.sum_ms =
        std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
    snapshot.max_ms =
        std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
    return snapshot;
  }

 private:
  static void AtomicAdd(std::atomic<uint64_t>* cell, double delta) {
    uint64_t observed = cell->load(std::memory_order_relaxed);
    while (!cell->compare_exchange_weak(
        observed,
        std::bit_cast<uint64_t>(std::bit_cast<double>(observed) + delta),
        std::memory_order_relaxed)) {
    }
  }

  static void AtomicMax(std::atomic<uint64_t>* cell, double value) {
    uint64_t observed = cell->load(std::memory_order_relaxed);
    while (std::bit_cast<double>(observed) < value &&
           !cell->compare_exchange_weak(observed,
                                        std::bit_cast<uint64_t>(value),
                                        std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<uint64_t>, HistogramSnapshot::kNumBuckets> buckets_;
  std::atomic<uint64_t> sum_bits_{0};  // Bit pattern of 0.0.
  std::atomic<uint64_t> max_bits_{0};
};

/// One-shot aggregation of a sample vector — what bench code that used to
/// sort-and-interpolate calls now; every percentile in the repo goes
/// through the same bucketing.
inline HistogramSnapshot SnapshotOfSamples(const std::vector<double>& ms) {
  LatencyHistogram histogram;
  for (double sample : ms) histogram.Record(sample);
  return histogram.Snapshot();
}

}  // namespace moqo

#endif  // MOQO_OBS_HISTOGRAM_H_
