// Copyright (c) 2026 moqo authors. MIT license.
//
// ProblemSignature: the canonical cache key of the optimization service.
//
// A signature captures everything that determines the *frontier* an
// optimizer produces: the query structure (canonical join-graph encoding,
// src/query/canonical), the active objective selection, the resolved
// algorithm, and the plan-space switches. It is deliberately
// **weight-free**: for the frontier-producing algorithms (EXA, RTA,
// Selinger) the approximate Pareto set does not depend on the request's
// preference, so any weight or bound change on a cached query is answered
// by O(|frontier|) SelectPlan over the shared PlanSet instead of a new DP
// run. Since PR 5 it is also **alpha-free** for those algorithms — the
// relaxed identity the anytime sessions rely on: the precision alpha
// determines how *good* a frontier is, not which problem it answers, so
// the PlanCache tags each entry with its achieved alpha and a
// tighter-alpha entry serves any looser-alpha request (see
// service/plan_cache.h). Contexts that do need exact-run identity — the
// in-flight coalescing map, the session registry — extend the base
// signature with the precision via ExtendSignature. The two
// preference-dependent algorithms (the IRA refines toward its bounds, the
// weighted-sum baseline prunes by weighted cost) encode alpha AND the
// preference bit-exactly, so their entries are reused only for identical
// requests. The full key participates in equality, so hash collisions can
// never return a wrong plan.

#ifndef MOQO_SERVICE_SIGNATURE_H_
#define MOQO_SERVICE_SIGNATURE_H_

#include <vector>

#include "core/optimizer.h"
#include "core/algorithm.h"
#include "util/byte_codec.h"

namespace moqo {

/// The whole-query cache key. `hash` is FNV-1a of `key` from
/// kFnv1aOffsetBasis; every function below keeps that invariant and chains
/// from it.
using ProblemSignature = CanonicalKey;

/// True iff the algorithm's full output — not just the selected plan —
/// depends on the request's weights/bounds, making its cache entries
/// preference-specific.
inline bool IsPreferenceDependent(AlgorithmKind algorithm) {
  return algorithm == AlgorithmKind::kIra ||
         algorithm == AlgorithmKind::kWeightedSum;
}

/// Computes the signature of running `algorithm` with precision `alpha` on
/// `query` over `objectives` under `options` (only result-relevant
/// switches are encoded: plan space, operator space, pruning mode — not
/// the timeout). `alpha`, `weights` and `bounds` are encoded only when the
/// algorithm IsPreferenceDependent; pass null preferences otherwise (or
/// always — they are ignored for frontier-producing algorithms, whose
/// signatures are alpha- and preference-free by design). The query part
/// of the key is copied from Query::CanonicalForm(), so a query is encoded
/// once and each call hashes only its short spec suffix, chained from the
/// form's hash.
ProblemSignature ComputeSignature(const Query& query,
                                  const ObjectiveSet& objectives,
                                  AlgorithmKind algorithm, double alpha,
                                  const OptimizerOptions& options,
                                  const WeightVector* weights = nullptr,
                                  const BoundVector* bounds = nullptr);

/// `base` with `alpha` appended bit-exactly, its hash chained from
/// `base.hash` over the 8 new bytes: the exact-run identity used where
/// relaxed alpha matching would be wrong — two in-flight runs at different
/// precisions must not coalesce, and two sessions refining to different
/// targets must not share a ladder.
ProblemSignature ExtendSignature(const ProblemSignature& base, double alpha);

/// `base` with every value of `values` appended bit-exactly, in order:
/// equal to chaining the single-value overload over `values`, but copies
/// `base.key` once and hashes only the appended bytes.
ProblemSignature ExtendSignature(const ProblemSignature& base,
                                 const std::vector<double>& values);

}  // namespace moqo

#endif  // MOQO_SERVICE_SIGNATURE_H_
