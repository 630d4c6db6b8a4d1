// Copyright (c) 2026 moqo authors. MIT license.

#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0) || !(p < 100)) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> Median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> FailureShare(uint64_t failed, uint64_t attempted) {
  if (attempted == 0) return std::nullopt;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::optional<std::string> ResultLine(bool correct, uint64_t attempted,
                                      uint64_t failed,
                                      const std::vector<Metric>& metrics,
                                      std::string* error) {
  if (attempted == 0) {
    *error = "no operation attempted";
    return std::nullopt;
  }
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    if (!ValidMetricName(metric.name) || !seen.insert(metric.name).second) {
      *error = "invalid or duplicate metric name '" + metric.name + "'";
      return std::nullopt;
    }
    if (!ValidUnit(metric.unit)) {
      *error = "invalid unit '" + metric.unit + "' of " + metric.name;
      return std::nullopt;
    }
    if (!std::isfinite(metric.value)) {
      *error = "non-finite value of " + metric.name;
      return std::nullopt;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) out += ", ";
    out += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
