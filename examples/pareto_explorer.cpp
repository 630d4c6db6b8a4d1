// pareto_explorer: visualizing — and progressively refining — the
// (approximate) Pareto frontier.
//
// "Users cannot make optimal choices for bounds and weights if they are
// not aware of the possible tradeoffs between different objectives."
// (Section 4). All moqo optimizers return the approximate Pareto frontier
// as a PlanSet — cost vectors AND plans; this example renders 2-D
// projections of it for a TPC-H query at two approximation precisions,
// mirroring the prototype's frontier visualization (Figure 4).
//
// It then does what an interactive client should do since PR 5: open an
// anytime FrontierSession instead of picking a precision up front. The
// session yields a quick-mode frontier immediately, refines it over a
// geometric alpha ladder in the background (publishing every improvement),
// and answers every preference below by SelectPlan over the best frontier
// so far — nothing is ever re-optimized, and a second OpenFrontier for
// the same spec within this process is served straight from the
// service's alpha-tagged (in-memory) plan cache.

#include <cstdio>
#include <iostream>
#include <limits>

#include "core/plan_set.h"
#include "core/rta.h"
#include "frontier/frontier.h"
#include "plan/plan_printer.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"

using namespace moqo;

int main(int argc, char** argv) {
  const int query_number = argc > 1 ? std::atoi(argv[1]) : 5;
  Catalog catalog = Catalog::TpcH(0.01);
  Query query = MakeTpcHQuery(&catalog, query_number);
  std::printf("Pareto frontier explorer: TPC-H q%d\n", query_number);
  std::printf("objectives: tuple_loss (x), buffer (y1), total_time (y2)\n\n");

  const ObjectiveSet objectives({Objective::kTupleLoss,
                                 Objective::kBufferFootprint,
                                 Objective::kTotalTime});

  // Part 1: the Figure-4 visualization, at a coarse and a fine precision.
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = objectives;
  problem.weights = WeightVector::Uniform(3);
  for (double alpha : {2.0, 1.25}) {
    OptimizerOptions options;
    options.alpha = alpha;
    options.timeout_ms = 30000;
    options.operators.sampling_rates = {0.05, 0.02, 0.01};
    options.operators.dops = {1, 4};
    RTAOptimizer rta(options);
    OptimizerResult result = rta.Optimize(problem);

    std::printf("---- alpha = %.2f: %d frontier points (%.0f ms) ----\n",
                alpha, result.frontier_size(),
                result.metrics.optimization_ms);
    std::printf("\ntuple_loss x total_time:\n%s",
                AsciiScatter(Project(result.frontier(), {0, 2}), 64, 14,
                             "tuple_loss", "time")
                    .c_str());
    std::printf("\ntuple_loss x buffer:\n%s",
                AsciiScatter(Project(result.frontier(), {0, 1}), 64, 14,
                             "tuple_loss", "buffer")
                    .c_str());
    // Frontier quality metric: hypervolume of the loss/time projection.
    std::vector<CostVector> projected = Project(result.frontier(), {0, 2});
    CostVector reference(2);
    reference[0] = 1.0;
    for (const CostVector& p : projected) {
      reference[1] = std::max(reference[1], p[1] * 1.05);
    }
    std::printf("\nhypervolume (loss x time, ref=(1, max*1.05)): %.3g\n\n",
                Hypervolume2D(ExtractParetoFrontier(projected), reference));
  }
  std::printf("finer alpha -> more points, closer to the true frontier\n\n");

  // Part 2: the anytime session. One OpenFrontier call replaces the
  // pick-a-precision-and-wait loop above: the call returns at once, the
  // quick-mode plan arrives first, and every published refinement is
  // reported as it lands (the subscription replays what came before it).
  ServiceOptions service_options;
  service_options.operators.sampling_rates = {0.05, 0.02, 0.01};
  service_options.operators.dops = {1, 4};
  OptimizationService service(service_options);

  ProblemSpec spec;
  spec.query = UnownedQuery(&query);
  spec.objectives = objectives;
  spec.algorithm = AlgorithmKind::kRta;
  spec.alpha = 1.25;

  SessionOptions session_options;
  session_options.alpha_start = 3.0;
  session_options.max_steps = 3;

  std::printf("---- anytime session: ladder 3.0 -> 1.25 ----\n");
  auto session = service.OpenFrontier(spec, session_options);
  session->OnRefined([](const RefinedFrontier& frontier) {
    if (frontier.alpha ==
        std::numeric_limits<double>::infinity()) {
      std::printf("  published: quick-mode frontier, %d plans (%.1f ms) — "
                  "first valid plan, no guarantee yet\n",
                  frontier.plan_set->size(), frontier.step_ms);
    } else {
      std::printf("  published: alpha %.3f, %d plans (%.1f ms)%s\n",
                  frontier.alpha, frontier.plan_set->size(),
                  frontier.step_ms,
                  frontier.from_cache ? " [from cache]" : "");
    }
  });
  session->AwaitTarget();
  std::printf("target reached: alpha %.3f, %d plans\n\n",
              session->BestAlpha(), session->BestFrontier()->size());

  // Walk the frontier: three preferences, three plans — all selected from
  // the session's best frontier in O(|frontier|) each, exactly what the
  // service does on every frontier hit (and what Select answers mid-
  // refinement, from whatever the best frontier is at that moment).
  struct Profile {
    const char* name;
    double w_loss, w_buffer, w_time;
  };
  const Profile profiles[] = {
      {"exactness-first (loss ~ priceless)", 1e6, 1e-9, 1.0},
      {"balanced", 2e3, 1e-7, 1.0},
      {"speed-first (sampling welcome)", 1.0, 1e-9, 50.0},
  };
  std::printf("request-time plan selection over the session's frontier:\n");
  for (const Profile& profile : profiles) {
    Preference preference;
    WeightVector weights(3);
    weights[0] = profile.w_loss;
    weights[1] = profile.w_buffer;
    weights[2] = profile.w_time;
    preference.weights = weights;
    const SessionSelection pick = session->Select(preference);
    std::printf(
        "  %-36s -> frontier[%d]: loss %.4f, buffer %.2e, time %.1f "
        "(%d ops, %s)\n",
        profile.name, pick.selection.index, pick.selection.cost[0],
        pick.selection.cost[1], pick.selection.cost[2],
        pick.selection.plan->NodeCount(),
        pick.selection.plan->IsLeftDeep() ? "left-deep" : "bushy");
  }
  session->Cancel();
  return 0;
}
