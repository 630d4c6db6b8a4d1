// Copyright (c) 2026 moqo authors. MIT license.

#include "service/policy.h"

#include <thread>

namespace moqo {

namespace {

/// EXA handles queries up to this many tables / objectives exactly.
constexpr int kExaMaxTables = 4;
constexpr int kExaMaxObjectives = 3;
/// Default user precision for the approximation schemes.
constexpr double kDefaultAlpha = 1.5;
/// Deadlines at or below this are "tight": prefer approximation over
/// exactness and coarsen alpha.
constexpr int64_t kTightDeadlineMs = 250;
/// Precision used under tight deadlines.
constexpr double kTightAlpha = 2.5;

/// Deterministic for a fixed host: hardware concurrency only enters when
/// max_parallelism = 0, and parallelism never affects the frontier (or the
/// cache signature), so routing stays reproducible where it matters.
int ResolveParallelism(const PolicyOptions& options) {
  int cap = options.max_parallelism;
  if (cap == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    cap = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return cap < 1 ? 1 : cap;
}

}  // namespace

PolicyDecision ChooseAlgorithm(const Query& query,
                               const ObjectiveSet& objectives,
                               int64_t deadline_ms,
                               const PolicyOptions& options) {
  PolicyDecision decision;
  const bool tight = deadline_ms >= 0 && deadline_ms <= kTightDeadlineMs;
  const int num_tables = query.num_tables();
  const int num_objectives = objectives.size();
  decision.parallelism = ResolveParallelism(options);

  if (num_objectives <= 1) {
    // Single-objective: the classic Selinger DP is exact and cheapest.
    decision.algorithm = AlgorithmKind::kSelinger;
    decision.alpha = 1.0;
    return decision;
  }

  if (!tight && num_tables <= kExaMaxTables &&
      num_objectives <= kExaMaxObjectives) {
    decision.algorithm = AlgorithmKind::kExa;
    decision.alpha = 1.0;
    return decision;
  }

  decision.algorithm = AlgorithmKind::kRta;
  decision.alpha = tight ? kTightAlpha : kDefaultAlpha;
  return decision;
}

}  // namespace moqo
