#include "core/rta.h"

namespace moqo {

OptimizerResult RTAOptimizer::Optimize(const MOQOProblem& problem) {
  // Algorithm 2: Algorithm 1's DP at the internal precision derived from
  // alpha_U. Bounds are honored at selection time over the finished
  // frontier — the same bounded SelectBest the service applies on frontier
  // hits, so cold misses and cache hits agree.
  return RunOnce(problem, RTAInternalPrecision(options_.alpha,
                                               problem.query->num_tables()));
}

}  // namespace moqo
