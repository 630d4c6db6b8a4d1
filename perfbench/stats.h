// Copyright (c) 2026 moqo authors. MIT license.
//
// The benchmark's own statistics and result encoding: exact (sort-based)
// percentiles that refuse to report a tail resting on fewer than ten
// samples, the failure share, the metric-name and unit charsets, and the
// one-line JSON result every run ends with.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A reported percentile needs at least this many samples above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` (in (0, 100)) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie above that rank (p99 therefore
/// needs >= 1000 samples, p50 >= 20).
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Plain median (mean of the middle two for even sizes); nullopt if empty.
/// For small repeat counts such as set-up repetitions, not for tails.
std::optional<double> Median(std::vector<double> samples);

/// failed / attempted; nullopt when nothing was attempted.
std::optional<double> FailureShare(uint64_t failed, uint64_t attempted);

/// 1-64 characters of [A-Za-z0-9_.-], starting with a letter or digit.
bool ValidMetricName(std::string_view name);

/// 1-16 characters of [A-Za-z0-9_/%.-].
bool ValidUnit(std::string_view unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
/// "unit":..}}}. Values keep all 17 significant digits. Returns nullopt
/// (and names the culprit in *error) for an invalid or duplicate name, an
/// invalid unit, a non-finite value, or attempted == 0.
std::optional<std::string> ResultLine(bool correct, uint64_t attempted,
                                      uint64_t failed,
                                      const std::vector<Metric>& metrics,
                                      std::string* error);

/// Minimal JSON string escaping for names, messages and file contents.
std::string JsonEscape(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
