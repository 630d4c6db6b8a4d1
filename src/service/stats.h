// Copyright (c) 2026 moqo authors. MIT license.
//
// ServiceStatsRegistry: counters and per-algorithm latency histograms of
// the optimization service, consumed by the bench harness and exposed for
// monitoring. Counters are one ServiceCounters block of relaxed Counter
// cells (obs/counter.h), incremented in place and copied whole into each
// snapshot; latencies go into log-bucketed concurrent histograms
// (obs/histogram.h), so the snapshot reports p50/p95/p99. First-frontier
// latency (time from session open to the first published frontier) is a
// first-class histogram here: it is the anytime API's headline metric and
// the network front end's acceptance gauge (ROADMAP). Cache hits and
// misses are ServiceCounters cells too: the open path that judges a
// plan-cache probe counts it, once per open, and the caches themselves
// count only their own insertions and evictions.

#ifndef MOQO_SERVICE_STATS_H_
#define MOQO_SERVICE_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "obs/counter.h"
#include "obs/histogram.h"
#include "obs/slow_query_log.h"

namespace moqo {

/// The service's own counters (and its one gauge, sessions_active), each
/// declared once: the registry increments them in place and every
/// ServiceStatsSnapshot carries a copy.
struct ServiceCounters {
  Counter requests_total;
  /// The open path's verdict on its cache probe, one per open that
  /// probes (Submit or OpenFrontier with the cache enabled): a hit is an
  /// open the cache answered (born done, from RAM or the tier); a miss is
  /// one it did not — it ran, joined a running session, or was shed.
  Counter cache_hits;
  Counter cache_misses;
  /// Cache hits whose preference matched the cached selection verbatim.
  Counter exact_hits;
  /// Cache hits resolved by SelectPlan over the shared PlanSet (the
  /// preference — weights/bounds — differed from the cached one).
  Counter frontier_hits;
  /// Requests that waited on an identical in-flight session instead of
  /// optimizing again, then selected from its frontier.
  Counter coalesced_hits;
  /// Cache hits served from the RAM→disk tier (the entry had been evicted
  /// from RAM, demoted to a segment file, and was promoted back by this
  /// probe). Labeled by provenance: a tier hit counts here — not in
  /// exact/frontier hits — whatever the preference match.
  Counter tier_hits;
  Counter admissions_rejected;
  Counter deadline_timeouts;  ///< Requests degraded to quick mode.
  /// Invalid requests (null query) and optimizer failures (e.g. OOM) —
  /// distinct from load shedding.
  Counter internal_errors;
  Counter completed;
  /// Anytime-session counters (PR 5). `sessions_opened` counts public
  /// OpenFrontier calls (Submit's internal one-step sessions count as
  /// requests, not sessions); `sessions_coalesced` counts opens
  /// (including Submit calls) that attached to an already running
  /// identical session instead of starting their own.
  Counter sessions_opened;
  Counter sessions_coalesced;
  /// Refinement ladders currently running (gauge; each holds one
  /// admission slot).
  Counter sessions_active;
  /// Completed ladder rungs across all sessions (includes Submit's
  /// one-step rungs).
  Counter refinement_steps;
  /// Ladders ended early by priority admission under overload (PR 7):
  /// the session kept everything it had published, but its remaining
  /// refinement rungs were shed so first-frontier work never queues
  /// behind background refinement. Distinct from admissions_rejected —
  /// a shed caller still got an answer.
  Counter refinement_sheds;
  /// Sessions force-finished DONE{degraded} by the rung watchdog because
  /// a rung ran past four times its step_deadline_ms (PR 8).
  Counter watchdog_fires;
};

/// Plain-value snapshot of the service, safe to copy around: its own
/// counters and histograms, plus the pool and slow-log state sampled from
/// their owners. The caches' statistics are CacheStats() and MemoStats().
struct ServiceStatsSnapshot : ServiceCounters {
  /// CacheStats().evictions, the one cache statistic copied here:
  /// perfbench reads it from this snapshot.
  uint64_t cache_evictions = 0;
  /// Optimize-pool state sampled at snapshot time: tasks waiting for a
  /// worker and the queue-wait distribution they experienced.
  size_t pool_queue_depth = 0;
  HistogramSnapshot pool_queue_wait;
  /// Per-rung latency over all refinement steps.
  HistogramSnapshot step_latency;
  /// Session-open → first published frontier (the anytime API's headline
  /// latency; ROADMAP's net-front-end acceptance metric is its p99).
  HistogramSnapshot first_frontier_latency;
  /// Indexed by static_cast<int>(AlgorithmKind).
  std::array<HistogramSnapshot, kNumAlgorithmKinds> latency_by_algorithm;
  /// Worst-N finished requests, slowest first (sampled at snapshot time).
  std::vector<SlowQueryEntry> slow_queries;

  double CacheHitRate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0 : static_cast<double>(cache_hits) / lookups;
  }

  /// Multi-line human-readable rendering for the bench harness.
  std::string ToString() const;
};

/// The live counters and histograms. Callers add and record in place; the
/// metric samplers read each one directly, and Snapshot() copies them all.
class ServiceStatsRegistry {
 public:
  ServiceCounters counters;
  /// Fresh (non-cached) optimization latency, service side, indexed by
  /// static_cast<int>(AlgorithmKind).
  std::array<LatencyHistogram, kNumAlgorithmKinds> latency;
  /// One sample per completed refinement step (ladder rung).
  LatencyHistogram step_latency;
  /// One sample per session: open → first published frontier.
  LatencyHistogram first_frontier;

  /// The snapshot's pool_*, slow_queries and cache_evictions fields are
  /// sampled by the service from their owners; this leaves them empty.
  ServiceStatsSnapshot Snapshot() const;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_STATS_H_
