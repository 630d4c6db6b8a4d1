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
  /// a rung exceeded step_deadline_ms * watchdog_factor (PR 8).
  Counter watchdog_fires;
};

/// Plain-value snapshot of the service, safe to copy around: its own
/// counters plus fields sampled from the components that own them.
struct ServiceStatsSnapshot : ServiceCounters {
  uint64_t cache_evictions = 0;
  /// Resident cache footprint (sampled from the PlanCache at snapshot
  /// time): entry count, accounted bytes, and the summed frontier sizes of
  /// the cached PlanSets.
  size_t cache_entries = 0;
  size_t cache_bytes = 0;
  size_t cached_frontier_plans = 0;
  /// Cross-query subplan memo counters (sampled from the SubplanMemo at
  /// snapshot time; all zero when the memo is disabled). Hits/misses are
  /// the DP's verdicts per *table set*, not per request — one
  /// optimization probes once per big-enough table set of its DP, and an
  /// entry whose rows do not fit the set is a miss.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_insertions = 0;
  uint64_t memo_evictions = 0;
  uint64_t memo_invalidations = 0;
  size_t memo_entries = 0;
  size_t memo_bytes = 0;
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

  /// Fraction of table-set probes answered by the cross-query memo.
  double MemoHitRate() const {
    const uint64_t lookups = memo_hits + memo_misses;
    return lookups == 0 ? 0 : static_cast<double>(memo_hits) / lookups;
  }

  /// Mean plans per cached entry (how big the resident frontiers are).
  double MeanCachedFrontier() const {
    return cache_entries == 0
               ? 0
               : static_cast<double>(cached_frontier_plans) / cache_entries;
  }

  /// Multi-line human-readable rendering for the bench harness.
  std::string ToString() const;
};

class ServiceStatsRegistry {
 public:
  static constexpr int kNumAlgorithms = kNumAlgorithmKinds;

  /// Incremented in place; Snapshot() and the metric samplers read it.
  ServiceCounters counters;

  /// Records one completed refinement step (ladder rung) and its latency.
  void RecordRefinementStep(double ms) {
    counters.refinement_steps.Add();
    step_latency_.Record(ms);
  }

  /// Records one fresh (non-cached) optimization's service-side latency.
  void RecordLatency(AlgorithmKind algorithm, double ms) {
    latency_[static_cast<int>(algorithm)].Record(ms);
  }

  /// Records a session's open → first published frontier latency.
  void RecordFirstFrontier(double ms) { first_frontier_.Record(ms); }

  /// The cache_* fields outside ServiceCounters and the memo_*, pool_*,
  /// and slow_queries snapshot fields are sampled from their owning
  /// components (PlanCache, SubplanMemo, ThreadPool, SlowQueryLog) by the
  /// service at snapshot time; this registry leaves them zero/empty.
  ServiceStatsSnapshot Snapshot() const;

 private:
  std::array<LatencyHistogram, kNumAlgorithms> latency_;
  LatencyHistogram step_latency_;
  LatencyHistogram first_frontier_;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_STATS_H_
