// Copyright (c) 2026 moqo authors. MIT license.

#include "service/signature.h"

#include <bit>
#include <limits>

#include "query/canonical.h"
#include "util/byte_codec.h"

namespace moqo {
namespace {

constexpr uint64_t kUnboundedSentinel = std::numeric_limits<uint64_t>::max();

/// Hashes the bytes of `key` past `prefix_size`, chained from `prefix_hash`
/// (the FNV-1a state after the first `prefix_size` bytes): equal to a
/// from-scratch Fnv1a of the whole key.
uint64_t ChainHash(const std::string& key, size_t prefix_size,
                   uint64_t prefix_hash) {
  return Fnv1a(key.data() + prefix_size, key.size() - prefix_size,
               prefix_hash);
}

}  // namespace

ProblemSignature ComputeSignature(const Query& query,
                                  const ObjectiveSet& objectives,
                                  AlgorithmKind algorithm, double alpha,
                                  const OptimizerOptions& options,
                                  const WeightVector* weights,
                                  const BoundVector* bounds) {
  // The query's encoding is cached on the Query; only the short spec
  // suffix below is encoded and hashed per call.
  const std::shared_ptr<const CanonicalQueryForm> form = query.CanonicalForm();
  std::string key;
  key.reserve(form->bytes.size() + 256);
  key.append(form->bytes);

  // Objective selection, in order: the order fixes CostVector dimensions.
  PutU64(&key, static_cast<uint64_t>(objectives.size()));
  for (Objective objective : objectives) {
    PutU64(&key, static_cast<uint64_t>(objective));
  }

  // Resolved algorithm: an RTA result must never be served to a request
  // the policy resolved to the EXA, and vice versa. The precision alpha is
  // deliberately NOT part of the frontier-algorithm key — the cache tags
  // entries with their achieved alpha and serves any looser request from a
  // tighter entry (relaxed identity; see the header comment).
  PutU64(&key, static_cast<uint64_t>(algorithm));

  // Result-relevant optimizer switches (the timeout is deliberately
  // excluded: only non-timed-out results are cached, so a cached entry is
  // valid for any deadline).
  uint64_t flags = 0;
  flags |= options.bushy ? 1u : 0u;
  flags |= options.cartesian_heuristic ? 2u : 0u;
  flags |= options.aggressive_delete ? 4u : 0u;
  flags |= options.operators.enable_sampling ? 8u : 0u;
  flags |= options.operators.enable_index_scan ? 16u : 0u;
  flags |= options.operators.enable_parallelism ? 32u : 0u;
  PutU64(&key, flags);
  // The IRA iteration cap is a constant, keyed anyway so that existing
  // keys and snapshots stay valid.
  PutU64(&key, static_cast<uint64_t>(kIraMaxIterations));
  AppendCanonicalOperatorLists(&key, options.operators);

  // Preference-dependent algorithms only: their frontier is tailored to
  // the given precision and weights/bounds, so equal keys must mean equal
  // requests. Frontier-producing algorithms skip this block entirely —
  // that is what makes a weight-only change (and, since PR 5, an
  // alpha-only relaxation) a cache hit.
  if (IsPreferenceDependent(algorithm)) {
    PutDouble(&key, alpha);
    const int num_weights = weights != nullptr ? weights->size() : 0;
    PutU64(&key, static_cast<uint64_t>(num_weights));
    for (int i = 0; i < num_weights; ++i) {
      PutDouble(&key, (*weights)[i]);
    }
    // A default-constructed (size-0) BoundVector and an explicit
    // all-unbounded one describe the same weighted-MOQO instance
    // (Definition 1); canonicalize both to the empty encoding so they
    // share cache entries.
    if (bounds == nullptr || bounds->AllUnbounded()) {
      PutU64(&key, 0);
    } else {
      PutU64(&key, static_cast<uint64_t>(bounds->size()));
      for (int i = 0; i < bounds->size(); ++i) {
        PutU64(&key, bounds->IsUnbounded(i)
                         ? kUnboundedSentinel
                         : std::bit_cast<uint64_t>((*bounds)[i]));
      }
    }
  }

  ProblemSignature signature;
  signature.hash = ChainHash(key, form->bytes.size(), form->hash);
  signature.key = std::move(key);
  return signature;
}

ProblemSignature ExtendSignature(const ProblemSignature& base, double alpha) {
  return ExtendSignature(base, std::vector<double>{alpha});
}

ProblemSignature ExtendSignature(const ProblemSignature& base,
                                 const std::vector<double>& values) {
  ProblemSignature extended;
  extended.key.reserve(base.key.size() + sizeof(double) * values.size());
  extended.key.append(base.key);
  for (double value : values) PutDouble(&extended.key, value);
  extended.hash = ChainHash(extended.key, base.key.size(), base.hash);
  return extended;
}

}  // namespace moqo
