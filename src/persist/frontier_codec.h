// Copyright (c) 2026 moqo authors. MIT license.
//
// Payload codec of the plan cache's record kind (snapshot records and
// disk-tier records share it; memo records are memo/subplan_memo.h's):
//
//   kPlanCacheEntry — a whole-query CachedFrontier:
//     u32 weights_size, u32 bounds_size
//     f64 weights[weights_size], f64 bounds[bounds_size]
//     PlanSet block (plan_set_codec.h)
//
// The achieved alpha travels in the container's record header (snapshot
// record / tier index entry), not the payload, so the tier can gate
// relaxed-alpha probes without touching disk.
//
// Decoding a CachedFrontier rebuilds its OptimizerResult by re-running
// SelectPlan over the restored frontier with the stored preference:
// SelectPlan's scan is deterministic over bit-identical costs, so the
// restored selection (plan index, cost, weighted cost) matches what the
// original entry served. Cold-run metrics are not persisted — a restored
// entry's metrics read as zero, which is truthful: this process never ran
// that optimization.

#ifndef MOQO_PERSIST_FRONTIER_CODEC_H_
#define MOQO_PERSIST_FRONTIER_CODEC_H_

#include <memory>
#include <string>

#include "service/plan_cache.h"

namespace moqo {
namespace persist {

/// Appends the payload encoding of `entry` to `out`. False (nothing
/// appended) for entries with no restorable frontier (null result or
/// plan_set) — degenerate values that were never worth persisting.
bool EncodeFrontierPayload(const CachedFrontier& entry, std::string* out);

/// Decodes a kPlanCacheEntry payload tagged `achieved_alpha`. Returns
/// nullptr on any malformed input, including a tag that is not finite or
/// is below 1, a non-empty frontier whose cost columns differ from the
/// weight count, or a bound count that is neither 0 nor the weight count;
/// never throws.
std::shared_ptr<const CachedFrontier> DecodeFrontierPayload(
    const void* data, size_t size, double achieved_alpha);

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_FRONTIER_CODEC_H_
