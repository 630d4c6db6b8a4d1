// Copyright (c) 2026 moqo authors. MIT license.
//
// The benchmark's workloads and the metric tables every run reports from.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "harness.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run; a workload must set each one.
const std::vector<MetricSpec>& EndToEndMetrics();

/// Reported by every traced run; a metric of a layer the workload does not
/// exercise reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

Report RunTpchCold(const RunConfig& config);
Report RunTpchHot(const RunConfig& config);
Report RunWireAnytime(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
