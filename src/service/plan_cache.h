// Copyright (c) 2026 moqo authors. MIT license.
//
// PlanCache: the whole-query cache of optimization frontiers, keyed by
// ProblemSignature.
//
// The Pareto-frontier computation that MOQO amortizes here is orders of
// magnitude more expensive than a lookup, so the cache sits in front of the
// worker pool and resolves repeated or structurally identical requests
// without re-running the DP. The cached value is a CachedFrontier: the cold
// run's immutable OptimizerResult (which owns the full PlanSet) plus the
// preference its stored selection answers — an equal preference is an
// *exact hit* (the stored selection is reused verbatim), any other
// preference is a *frontier hit* (O(|frontier|) SelectPlan over the shared
// PlanSet).
//
// Signatures of frontier-producing algorithms are alpha-free
// (service/signature.h) and each entry is tagged with the alpha its run
// *achieved*. A lookup hands back the entry whatever its tag; the service
// applies the relaxed alpha identity — an alpha-approximate Pareto set is
// an alpha'-approximate Pareto set for every alpha' >= alpha, so an entry
// answers every open whose target is at least its tag — and counts the
// verdict. Re-inserting under an existing key replaces the stored value
// only when the incoming entry is at least as tight, so a session's
// refinement ladder upgrades the entry and a later coarse run can never
// downgrade it.
//
// All of the storage — sharding, LRU, the byte budget, the replace rule,
// the disk tier and snapshot export/restore — is the shared
// persist::TieredLru (persist/tiered_lru.h); this file supplies only the
// entry type and its codec. Results own their plan storage via
// shared_ptr<const PlanSet>, so a cached plan stays valid for as long as
// any response still references it, even after eviction.

#ifndef MOQO_SERVICE_PLAN_CACHE_H_
#define MOQO_SERVICE_PLAN_CACHE_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/optimizer.h"
#include "persist/tiered_lru.h"
#include "service/signature.h"

namespace moqo {

/// One cached optimization outcome: the run's result (sharing the
/// PlanSet), the preference that produced its stored selection, and the
/// approximation guarantee the run achieved.
struct CachedFrontier {
  std::shared_ptr<const OptimizerResult> result;
  /// The preference `result`'s plan/cost/weighted_cost answer. Requests
  /// with a different preference re-select over result->plan_set.
  WeightVector weights;
  BoundVector bounds;
  /// The alpha guarantee of result->plan_set (1.0 for exact runs). The
  /// entry answers any request whose required alpha is >= this.
  double achieved_alpha = 1.0;
};

/// The TieredLru codec of a CachedFrontier: kPlanCacheEntry records (in
/// snapshots and disk-tier segments alike), tagged with the achieved alpha.
/// The payload:
///
///   u32 weights_size, u32 bounds_size
///   f64 weights[weights_size], f64 bounds[bounds_size]
///   PlanSet block (persist/plan_set_codec.h)
///
/// The alpha travels in the record header, not the payload, so the tier
/// can gate relaxed-alpha probes without touching disk. Decode rebuilds
/// the OptimizerResult by re-running SelectPlan over the restored frontier
/// with the stored preference: the scan is deterministic over
/// bit-identical costs, so the restored selection (plan, cost, weighted
/// cost) matches what the original entry served. Cold-run metrics are not
/// persisted; a restored entry's metrics read zero, as this process never
/// ran that optimization.
struct PlanCacheEntryCodec {
  static constexpr persist::RecordKind kKind =
      persist::RecordKind::kPlanCacheEntry;
  static double Alpha(const CachedFrontier& entry) {
    return entry.achieved_alpha;
  }
  static size_t Plans(const CachedFrontier& entry);
  /// The shared PlanSet (the dominant term — plans plus cost matrix) and
  /// the entry and result structs around it.
  static size_t Footprint(const CachedFrontier& entry);
  /// False (nothing appended) for an entry with no frontier to restore.
  static bool Encode(const CachedFrontier& entry, std::string* out);
  /// Null on any malformed payload, including an alpha that is not finite
  /// or is below 1, a non-empty frontier whose cost columns differ from
  /// the weight count, or a bound count that is neither 0 nor the weight
  /// count; never throws.
  static std::shared_ptr<const CachedFrontier> Decode(std::string_view payload,
                                                      double alpha);
  /// The `cache.insert` failpoint; `return_error` drops the insert.
  static bool DropInsert();
};

using PlanCache = persist::TieredLru<CachedFrontier, PlanCacheEntryCodec>;

}  // namespace moqo

#endif  // MOQO_SERVICE_PLAN_CACHE_H_
