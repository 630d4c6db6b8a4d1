#include "harness/experiment.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>


namespace moqo {

RunOutcome RunCase(AlgorithmKind kind, const Catalog& catalog,
                   const TestCase& test_case,
                   const OptimizerOptions& options) {
  Query query = MakeTpcHQuery(&catalog, test_case.query_number);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = test_case.objectives;
  problem.weights = test_case.weights;
  problem.bounds = test_case.bounds;

  std::unique_ptr<OptimizerBase> optimizer = MakeOptimizer(kind, options);
  OptimizerResult result = optimizer->Optimize(problem);

  RunOutcome outcome;
  outcome.weighted_cost = result.weighted_cost;
  outcome.respects_bounds = result.respects_bounds;
  outcome.has_plan = result.plan != nullptr;
  outcome.metrics = result.metrics;
  return outcome;
}

std::vector<double> BestWeightedPerCase(
    const std::vector<std::vector<RunOutcome>>& outcomes_by_algorithm) {
  std::vector<double> best;
  if (outcomes_by_algorithm.empty()) return best;
  const size_t cases = outcomes_by_algorithm.front().size();
  best.assign(cases, std::numeric_limits<double>::infinity());
  // Prefer bound-respecting plans as reference, as the relative-cost
  // definition (Definition 3) judges bound violators as infinitely bad.
  for (size_t c = 0; c < cases; ++c) {
    bool any_respecting = false;
    for (const auto& outcomes : outcomes_by_algorithm) {
      if (outcomes[c].has_plan && outcomes[c].respects_bounds) {
        any_respecting = true;
        best[c] = std::min(best[c], outcomes[c].weighted_cost);
      }
    }
    if (!any_respecting) {
      for (const auto& outcomes : outcomes_by_algorithm) {
        if (outcomes[c].has_plan) {
          best[c] = std::min(best[c], outcomes[c].weighted_cost);
        }
      }
    }
  }
  return best;
}

CellStats Aggregate(const std::vector<RunOutcome>& outcomes,
                    const std::vector<double>& best_weighted) {
  CellStats stats;
  stats.cases = static_cast<int>(outcomes.size());
  if (outcomes.empty()) return stats;
  int timeouts = 0;
  double time_sum = 0, memory_sum = 0, pareto_sum = 0, iter_sum = 0;
  double cost_pct_sum = 0;
  int cost_cases = 0;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& o = outcomes[i];
    if (o.metrics.timed_out) ++timeouts;
    time_sum += o.metrics.optimization_ms;
    memory_sum += static_cast<double>(o.metrics.memory_bytes) / 1024.0;
    pareto_sum += o.metrics.last_complete_pareto_count;
    iter_sum += o.metrics.iterations;
    if (i < best_weighted.size() && best_weighted[i] > 0 &&
        std::isfinite(best_weighted[i]) && o.has_plan) {
      cost_pct_sum += 100.0 * o.weighted_cost / best_weighted[i];
      ++cost_cases;
    }
  }
  stats.timeout_pct = 100.0 * timeouts / stats.cases;
  stats.mean_time_ms = time_sum / stats.cases;
  stats.mean_memory_kb = memory_sum / stats.cases;
  stats.mean_pareto_plans = pareto_sum / stats.cases;
  stats.mean_iterations = iter_sum / stats.cases;
  stats.mean_weighted_cost_pct =
      cost_cases > 0 ? cost_pct_sum / cost_cases : 0;
  return stats;
}

namespace {

/// A set but malformed knob would otherwise run a silently wrong workload
/// (atoi read "abc" as 0): report it and stop.
[[noreturn]] void ExitOnMalformedEnv(const char* name, const char* value) {
  std::fprintf(stderr, "%s=\"%s\" is not a valid number\n", name, value);
  std::exit(2);
}

}  // namespace

int EnvInt(const char* name, int default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr) return default_value;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    ExitOnMalformedEnv(name, value);
  }
  return static_cast<int>(parsed);
}

double EnvDouble(const char* name, double default_value) {
  const char* value = std::getenv(name);
  if (value == nullptr) return default_value;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE ||
      !std::isfinite(parsed)) {
    ExitOnMalformedEnv(name, value);
  }
  return parsed;
}

}  // namespace moqo
