// Copyright (c) 2026 moqo authors. MIT license.

#include "service/stats.h"

#include <sstream>

namespace moqo {
namespace {

/// "p50=1.2 p95=3.4 p99=5.6 max=7.8" — the snapshot's uniform latency
/// rendering.
void AppendQuantiles(std::ostringstream* out, const HistogramSnapshot& h) {
  *out << "p50_ms=" << h.PercentileMs(50) << " p95_ms=" << h.PercentileMs(95)
       << " p99_ms=" << h.PercentileMs(99) << " max_ms=" << h.max_ms;
}

}  // namespace

ServiceStatsSnapshot ServiceStatsRegistry::Snapshot() const {
  ServiceStatsSnapshot snapshot;
  static_cast<ServiceCounters&>(snapshot) = counters;
  snapshot.step_latency = step_latency.Snapshot();
  snapshot.first_frontier_latency = first_frontier.Snapshot();
  for (int i = 0; i < kNumAlgorithmKinds; ++i) {
    snapshot.latency_by_algorithm[i] = latency[i].Snapshot();
  }
  return snapshot;
}

std::string ServiceStatsSnapshot::ToString() const {
  std::ostringstream out;
  out << "requests=" << requests_total << " completed=" << completed
      << " cache_hits=" << cache_hits << " cache_misses=" << cache_misses
      << " hit_rate=" << CacheHitRate() << " exact_hits=" << exact_hits
      << " frontier_hits=" << frontier_hits
      << " coalesced=" << coalesced_hits << " tier_hits=" << tier_hits
      << " rejected=" << admissions_rejected
      << " errors=" << internal_errors << " timeouts=" << deadline_timeouts
      << " evictions=" << cache_evictions << "\n"
      << "  sessions: opened=" << sessions_opened
      << " coalesced=" << sessions_coalesced
      << " active=" << sessions_active
      << " refinement_steps=" << refinement_steps
      << " refinement_sheds=" << refinement_sheds
      << " watchdog_fires=" << watchdog_fires << "\n"
      << "  pool: queue_depth=" << pool_queue_depth << " queue_wait ";
  AppendQuantiles(&out, pool_queue_wait);
  out << "\n  step_latency: runs=" << step_latency.count << " ";
  AppendQuantiles(&out, step_latency);
  out << "\n  first_frontier: sessions=" << first_frontier_latency.count
      << " ";
  AppendQuantiles(&out, first_frontier_latency);
  out << "\n";
  for (int i = 0; i < static_cast<int>(latency_by_algorithm.size()); ++i) {
    const HistogramSnapshot& lat = latency_by_algorithm[i];
    if (lat.count == 0) continue;
    out << "  " << AlgorithmName(static_cast<AlgorithmKind>(i))
        << ": runs=" << lat.count << " mean_ms=" << lat.MeanMs() << " ";
    AppendQuantiles(&out, lat);
    out << "\n";
  }
  if (!slow_queries.empty()) {
    out << "  slow_queries (worst " << slow_queries.size() << "):\n";
    for (const SlowQueryEntry& q : slow_queries) {
      out << "    sig=" << std::hex << q.signature << std::dec
          << " algo=" << q.algorithm << " total_ms=" << q.total_ms
          << " queue_ms=" << q.queue_ms << " optimize_ms=" << q.optimize_ms
          << " alpha=" << q.alpha << " frontier=" << q.frontier_size
          << " phase=" << q.phase << "\n";
    }
  }
  return out.str();
}

}  // namespace moqo
