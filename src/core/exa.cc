#include "core/exa.h"

namespace moqo {

OptimizerResult ExactMOQO::Optimize(const MOQOProblem& problem) {
  // Algorithm 1: the exact DP, then SelectBest over the full frontier.
  return RunOnce(problem, /*internal_alpha=*/1.0);
}

}  // namespace moqo
