// Copyright (c) 2026 moqo authors. MIT license.

#include "service/plan_cache.h"

#include <cmath>

#include "cost/objective.h"
#include "persist/plan_set_codec.h"
#include "rt/failpoint.h"
#include "util/byte_codec.h"

namespace moqo {

size_t PlanCacheEntryCodec::Plans(const CachedFrontier& entry) {
  return entry.result != nullptr && entry.result->plan_set != nullptr
             ? static_cast<size_t>(entry.result->plan_set->size())
             : 0;
}

size_t PlanCacheEntryCodec::Footprint(const CachedFrontier& entry) {
  size_t bytes = sizeof(CachedFrontier);
  if (entry.result != nullptr) {
    bytes += sizeof(OptimizerResult);
    if (entry.result->plan_set != nullptr) {
      bytes += entry.result->plan_set->MemoryBytes();
    }
  }
  return bytes;
}

bool PlanCacheEntryCodec::Encode(const CachedFrontier& entry,
                                 std::string* out) {
  if (entry.result == nullptr || entry.result->plan_set == nullptr) {
    return false;
  }
  PutU32(out, static_cast<uint32_t>(entry.weights.size()));
  PutU32(out, static_cast<uint32_t>(entry.bounds.size()));
  for (int i = 0; i < entry.weights.size(); ++i) {
    PutDouble(out, entry.weights[i]);
  }
  for (int i = 0; i < entry.bounds.size(); ++i) {
    PutDouble(out, entry.bounds[i]);
  }
  persist::PlanSetCodec::Append(*entry.result->plan_set, out);
  return true;
}

std::shared_ptr<const CachedFrontier> PlanCacheEntryCodec::Decode(
    std::string_view payload, double alpha) {
  // The service tags every entry with a finite alpha of at least 1. A NaN
  // tag would never answer a request (NaN <= target is false) nor ever be
  // replaced (alpha <= NaN is false), so it would pin its key to a miss.
  if (!std::isfinite(alpha) || alpha < 1.0) return nullptr;
  ByteReader reader(payload.data(), payload.size());
  uint32_t weights_size, bounds_size;
  if (!reader.GetU32(&weights_size) || !reader.GetU32(&bounds_size)) {
    return nullptr;
  }
  // The service stores the preference resolved against the request's
  // objectives: bounds are empty or one per weight.
  if (weights_size > static_cast<uint32_t>(kNumObjectives) ||
      (bounds_size != 0 && bounds_size != weights_size)) {
    return nullptr;
  }
  WeightVector weights(static_cast<int>(weights_size));
  for (uint32_t i = 0; i < weights_size; ++i) {
    double v;
    if (!reader.GetDouble(&v)) return nullptr;
    weights[static_cast<int>(i)] = v;
  }
  BoundVector bounds(static_cast<int>(bounds_size));
  for (uint32_t i = 0; i < bounds_size; ++i) {
    double v;
    if (!reader.GetDouble(&v)) return nullptr;
    bounds[static_cast<int>(i)] = v;
  }
  std::string_view block;
  reader.GetView(reader.remaining(), &block);
  std::shared_ptr<const PlanSet> plan_set =
      persist::PlanSetCodec::Decode(block.data(), block.size(), nullptr);
  // One weight per cost column, or SelectPlan would weigh a frontier of
  // other objectives.
  if (plan_set == nullptr ||
      (!plan_set->empty() &&
       plan_set->cost(0).size() != static_cast<int>(weights_size))) {
    return nullptr;
  }

  // Rebuild the stored selection the way the service builds frontier-hit
  // results: deterministic SelectPlan over the restored, bit-identical
  // frontier.
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = plan_set;
  result->Select(weights, bounds);
  auto entry = std::make_shared<CachedFrontier>();
  entry->result = std::move(result);
  entry->weights = weights;
  entry->bounds = bounds;
  entry->achieved_alpha = alpha;
  return entry;
}

bool PlanCacheEntryCodec::DropInsert() {
  // The cache is an accelerator: a lost insert only costs a future miss.
  return MOQO_FAILPOINT_HIT("cache.insert");
}

}  // namespace moqo
