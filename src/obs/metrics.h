// Copyright (c) 2026 moqo authors. MIT license.
//
// MetricsRegistry (PR 6): pull-model metrics with Prometheus text
// exposition.
//
// Producers register *callbacks*, not cells: the registry stores
// {name, help, type, labels, sampler} and evaluates the samplers at
// RenderPrometheus() time, so registration adds zero cost to the request
// path — the live statistics already exist as Counter blocks
// (obs/counter.h), caches and pools, and the registry just projects them
// into the exposition format; CounterSampler reads one Counter field.
// Metrics sharing a name (e.g. one counter per algorithm label) are
// grouped under a single # HELP/# TYPE header, as the format requires.
//
// Histograms render as the standard cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`, with a fixed le-bound set (sub-ms to seconds)
// resolved against HistogramSnapshot::CountAtMost.

#ifndef MOQO_OBS_METRICS_H_
#define MOQO_OBS_METRICS_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/counter.h"
#include "obs/histogram.h"

namespace moqo {

/// A sampler reading `field` of the Counter block `block` points to. Pass
/// a shared_ptr when the block's owner may go before the registry: the
/// sampler then shares the block, and a later scrape reads final values.
template <typename BlockPtr, typename Block>
std::function<double()> CounterSampler(BlockPtr block, Counter Block::*field) {
  return [block = std::move(block), field] {
    return static_cast<double>(((*block).*field).value());
  };
}

class MetricsRegistry {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddCounter(std::string name, std::string help,
                  std::function<double()> sampler) {
    AddCounter(std::move(name), std::move(help), Labels{}, std::move(sampler));
  }
  void AddCounter(std::string name, std::string help, Labels labels,
                  std::function<double()> sampler);

  void AddGauge(std::string name, std::string help,
                std::function<double()> sampler) {
    AddGauge(std::move(name), std::move(help), Labels{}, std::move(sampler));
  }
  void AddGauge(std::string name, std::string help, Labels labels,
                std::function<double()> sampler);

  void AddHistogram(std::string name, std::string help,
                    std::function<HistogramSnapshot()> sampler) {
    AddHistogram(std::move(name), std::move(help), Labels{},
                 std::move(sampler));
  }
  void AddHistogram(std::string name, std::string help, Labels labels,
                    std::function<HistogramSnapshot()> sampler);

  /// Prometheus text exposition (format version 0.0.4) over every
  /// registered metric, samplers evaluated now.
  std::string RenderPrometheus() const;

  size_t size() const { return entries_.size(); }

 private:
  enum class Type { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    std::string help;
    Type type = Type::kGauge;
    Labels labels;
    std::function<double()> scalar;               ///< counter / gauge
    std::function<HistogramSnapshot()> histogram; ///< histogram
  };

  /// Upper bounds (ms) for the exported `le` series; +Inf is implicit.
  static const std::vector<double>& BucketBoundsMs();

  std::vector<Entry> entries_;
};

}  // namespace moqo

#endif  // MOQO_OBS_METRICS_H_
