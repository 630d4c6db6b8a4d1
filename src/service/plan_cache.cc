// Copyright (c) 2026 moqo authors. MIT license.

#include "service/plan_cache.h"

#include "persist/frontier_codec.h"
#include "rt/failpoint.h"

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
  return persist::EncodeFrontierPayload(entry, out);
}

std::shared_ptr<const CachedFrontier> PlanCacheEntryCodec::Decode(
    std::string_view payload, double alpha) {
  return persist::DecodeFrontierPayload(payload.data(), payload.size(), alpha);
}

bool PlanCacheEntryCodec::DropInsert() {
  // The cache is an accelerator: a lost insert only costs a future miss.
  return MOQO_FAILPOINT_HIT("cache.insert");
}

}  // namespace moqo
