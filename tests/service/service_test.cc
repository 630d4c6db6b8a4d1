// Copyright (c) 2026 moqo authors. MIT license.

#include "service/optimization_service.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "core/exa.h"
#include "core/rta.h"
#include "harness/service_experiment.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "rt/failpoint.h"
#include "service/policy.h"
#include "testing/test_helpers.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;
using testing::SmallOptions;

ServiceOptions SmallServiceOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = SmallOperatorSpace();
  return options;
}

ObjectiveSet FirstObjectives(int num_objectives) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  return ObjectiveSet(objectives);
}

ServiceRequest StarRequest(const Catalog* catalog, int num_dims,
                           int num_objectives) {
  ServiceRequest request;
  request.spec.query =
      std::make_shared<Query>(MakeStarQuery(catalog, num_dims));
  request.spec.objectives = FirstObjectives(num_objectives);
  request.preference.weights = WeightVector::Uniform(num_objectives);
  return request;
}

/// Total optimizer invocations recorded by the service (all algorithms).
uint64_t OptimizerRuns(const OptimizationService& service) {
  uint64_t runs = 0;
  for (const HistogramSnapshot& lat : service.Stats().latency_by_algorithm) {
    runs += lat.count;
  }
  return runs;
}

/// Brute-force SelectBest over a PlanSet's frontier.
double MinWeightedCost(const PlanSet& set, const WeightVector& weights) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < set.size(); ++i) {
    best = std::min(best, weights.WeightedCost(set.cost(i)));
  }
  return best;
}

TEST(PolicyTest, RoutesBySpecShape) {
  Catalog catalog = MakeTinyCatalog();
  Query small = MakeStarQuery(&catalog, 2);

  // Single-objective: Selinger.
  EXPECT_EQ(
      ChooseAlgorithm(small, ObjectiveSet::Only(Objective::kTotalTime), -1)
          .algorithm,
      AlgorithmKind::kSelinger);

  // Small weighted instance: EXA.
  EXPECT_EQ(ChooseAlgorithm(small,
                            ObjectiveSet({Objective::kTotalTime,
                                          Objective::kIOLoad,
                                          Objective::kEnergy}),
                            -1)
                .algorithm,
            AlgorithmKind::kExa);

  // Many objectives: RTA with the default precision.
  PolicyDecision relaxed = ChooseAlgorithm(small, ObjectiveSet::All(), -1);
  EXPECT_EQ(relaxed.algorithm, AlgorithmKind::kRta);

  // Tight deadline: still RTA but coarser.
  PolicyDecision tight = ChooseAlgorithm(small, ObjectiveSet::All(), 50);
  EXPECT_EQ(tight.algorithm, AlgorithmKind::kRta);
  EXPECT_GT(tight.alpha, relaxed.alpha);

  // Routing is a pure function of the spec: preferences (weights/bounds)
  // are not even parameters, which keeps the cache key weight-free. The
  // IRA is reachable via ProblemSpec::algorithm only.

  // Every spec gets the parallelism cap; the DP fans out only the levels
  // whose work clears its gate. Six objectives in the bench operator
  // space: a three-table query fans nothing out at parallelism 4, TPC-H
  // Q8 does.
  PolicyOptions fan_out;
  fan_out.max_parallelism = 4;
  const Catalog tpch = Catalog::TpcH(0.01);
  const ObjectiveSet six({Objective::kTotalTime, Objective::kStartupTime,
                          Objective::kIOLoad, Objective::kEnergy,
                          Objective::kBufferFootprint,
                          Objective::kTupleLoss});
  OperatorRegistry::Options bench_space;
  bench_space.sampling_rates = {0.05};
  bench_space.dops = {1, 2};
  const OperatorRegistry registry(bench_space);
  ThreadPool pool(3);
  const auto dp_stats = [&](const Query& query) {
    const PolicyDecision decision = ChooseAlgorithm(query, six, -1, fan_out);
    const CostModel model(&query, &registry, six);
    Arena arena;
    DPPlanGenerator generator(&model, &registry, &arena);
    DPOptions options;
    options.alpha = RTAInternalPrecision(decision.alpha, query.num_tables());
    options.parallelism = decision.parallelism;
    options.pool = &pool;
    generator.Run(query, options);
    return generator.stats();
  };
  const Query q3 = MakeTpcHQuery(&tpch, 3);
  const Query q8 = MakeTpcHQuery(&tpch, 8);
  EXPECT_EQ(ChooseAlgorithm(q3, six, -1, fan_out).parallelism, 4);
  const DPStats q3_stats = dp_stats(q3);
  EXPECT_EQ(q3_stats.parallel_levels, 0);
  EXPECT_EQ(q3_stats.parallel_rounds, 0);
  EXPECT_GT(dp_stats(q8).parallel_levels, 0);
  fan_out.max_parallelism = 1;  // Cap 1 = parallelism off everywhere.
  EXPECT_EQ(ChooseAlgorithm(q8, six, -1, fan_out).parallelism, 1);
  EXPECT_EQ(dp_stats(q8).parallel_levels, 0);
}

TEST(ServiceTest, ExactHitIsBitIdenticalToFreshOptimization) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  EXPECT_FALSE(cold.cache_hit());
  ASSERT_NE(cold.result, nullptr);
  ASSERT_NE(cold.result->plan, nullptr);
  ASSERT_NE(cold.plan_set(), nullptr);

  const ServiceResponse warm = service.SubmitAndWait(request);
  ASSERT_EQ(warm.status, ResponseStatus::kCompleted);
  EXPECT_EQ(warm.cache, CacheOutcome::kExactHit);
  EXPECT_TRUE(warm.cache_hit());
  ASSERT_NE(warm.result, nullptr);

  // An exact hit is the same complete result object: plan shape, cost
  // vector, and the shared PlanSet are identical.
  EXPECT_EQ(warm.result.get(), cold.result.get());
  EXPECT_TRUE(PlansEqual(cold.result->plan, warm.result->plan));
  EXPECT_EQ(cold.result->cost, warm.result->cost);
  EXPECT_EQ(cold.result->weighted_cost, warm.result->weighted_cost);
  EXPECT_EQ(warm.plan_set().get(), cold.plan_set().get());

  // And identical to a fresh single-shot optimization with the same
  // resolved algorithm and options.
  MOQOProblem problem;
  problem.query = request.spec.query.get();
  problem.objectives = request.spec.objectives;
  problem.weights = request.preference.weights;
  OptimizerOptions opts = SmallOptions(warm.alpha);
  std::unique_ptr<OptimizerBase> fresh = MakeOptimizer(warm.algorithm, opts);
  const OptimizerResult reference = fresh->Optimize(problem);
  ASSERT_NE(reference.plan, nullptr);
  EXPECT_TRUE(PlansEqual(reference.plan, warm.result->plan));
  EXPECT_EQ(reference.cost, warm.result->cost);
  EXPECT_EQ(reference.frontier(), warm.result->frontier());

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests_total, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.frontier_hits, 0u);
}

// The PR-2 acceptance criterion: a weight-only change on a previously
// optimized query is served from the cache — a frontier hit resolved by
// SelectPlan, with NO optimizer invocation.
TEST(ServiceTest, WeightOnlyChangeIsFrontierHitWithoutOptimizerRun) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_EQ(OptimizerRuns(service), 1u);

  Xoshiro256 rng(17);
  constexpr int kSweeps = 8;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (int i = 0; i < 3; ++i) {
      request.preference.weights[i] = rng.NextDouble() + 1e-3;
    }
    const ServiceResponse response = service.SubmitAndWait(request);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.cache, CacheOutcome::kFrontierHit) << sweep;
    EXPECT_TRUE(response.cache_hit());
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);

    // The response aliases the SAME PlanSet the cold run produced...
    EXPECT_EQ(response.plan_set().get(), cold.plan_set().get());
    // ...and its plan is the weighted-cost minimizer over that frontier.
    EXPECT_DOUBLE_EQ(
        response.result->weighted_cost,
        MinWeightedCost(*response.plan_set(), request.preference.weights));
    EXPECT_EQ(response.result->weighted_cost,
              request.preference.weights.WeightedCost(response.result->cost));
  }

  // The optimizer never ran again: every weight change was pure selection.
  EXPECT_EQ(OptimizerRuns(service), 1u);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.frontier_hits, static_cast<uint64_t>(kSweeps));
  EXPECT_EQ(stats.exact_hits, 0u);
}

// A one-objective spec routes to the Selinger DP. Its cold answer, an
// exact hit and a frontier hit all weigh the cost by the request's weight,
// so the weighted cost does not depend on which of them answered.
TEST(ServiceTest, OneObjectiveAnswersWeighTheCostByTheRequest) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  ServiceRequest request = StarRequest(&catalog, 2, 1);
  const std::vector<std::pair<double, CacheOutcome>> steps = {
      {2.0, CacheOutcome::kMiss},
      {2.0, CacheOutcome::kExactHit},
      {3.0, CacheOutcome::kFrontierHit},
  };
  for (const auto& [weight, outcome] : steps) {
    request.preference.weights[0] = weight;
    const ServiceResponse response = service.SubmitAndWait(request);
    ASSERT_EQ(response.status, ResponseStatus::kCompleted) << weight;
    EXPECT_EQ(response.algorithm, AlgorithmKind::kSelinger);
    EXPECT_EQ(response.cache, outcome) << weight;
    ASSERT_NE(response.result, nullptr);
    EXPECT_EQ(response.result->weighted_cost,
              request.preference.weights.WeightedCost(response.result->cost))
        << weight;
  }
}

// Property test: for randomized weight sweeps on TPC-H queries, SelectPlan
// over the cached PlanSet returns a plan whose weighted cost is within
// alpha of a cold-run (exact) optimum.
TEST(ServiceTest, WeightSweepSelectionWithinAlphaOfColdOptimum) {
  Catalog catalog = Catalog::TpcH(0.01);
  const double alpha = 1.5;
  for (int query_number : {3, 10}) {
    OptimizationService service(SmallServiceOptions(2));
    ServiceRequest request;
    request.spec.query =
        std::make_shared<Query>(MakeTpcHQuery(&catalog, query_number));
    request.spec.objectives = FirstObjectives(3);
    request.spec.algorithm = AlgorithmKind::kRta;
    request.spec.alpha = alpha;

    Xoshiro256 rng(100 + query_number);
    for (int trial = 0; trial < 8; ++trial) {
      WeightVector weights(3);
      for (int i = 0; i < 3; ++i) weights[i] = rng.NextDouble() + 1e-3;
      request.preference.weights = weights;
      const ServiceResponse response = service.SubmitAndWait(request);
      ASSERT_EQ(response.status, ResponseStatus::kCompleted);
      if (trial > 0) {
        EXPECT_EQ(response.cache, CacheOutcome::kFrontierHit)
            << "q" << query_number << " trial " << trial;
      }
      ASSERT_NE(response.result, nullptr);
      ASSERT_NE(response.result->plan, nullptr);

      // Cold-run optimum for this preference.
      MOQOProblem problem;
      problem.query = request.spec.query.get();
      problem.objectives = request.spec.objectives;
      problem.weights = weights;
      const OptimizerResult exact =
          ExactMOQO(SmallOptions()).Optimize(problem);
      ASSERT_NE(exact.plan, nullptr);
      EXPECT_LE(response.result->weighted_cost,
                exact.weighted_cost * alpha + 1e-9)
          << "q" << query_number << " trial " << trial;
    }
    EXPECT_EQ(OptimizerRuns(service), 1u) << "q" << query_number;
  }
}

TEST(ServiceTest, BoundedPreferenceHonoredAtSelectionTime) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  std::shared_ptr<const PlanSet> frontier = cold.plan_set();
  ASSERT_NE(frontier, nullptr);
  ASSERT_GE(frontier->size(), 1);

  // Feasible bounds anchored at a frontier plan's cost: the selection must
  // respect them — resolved from the cached frontier, no optimizer run.
  const CostVector anchor = frontier->cost(frontier->size() / 2);
  request.preference.bounds = BoundVector::Unbounded(3);
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = anchor[i];
  const ServiceResponse bounded = service.SubmitAndWait(request);
  ASSERT_EQ(bounded.status, ResponseStatus::kCompleted);
  EXPECT_EQ(bounded.cache, CacheOutcome::kFrontierHit);
  ASSERT_NE(bounded.result, nullptr);
  EXPECT_TRUE(bounded.result->respects_bounds);
  EXPECT_TRUE(request.preference.bounds.Respects(bounded.result->cost));

  // Unsatisfiable bounds: falls back to the global weighted optimum and
  // says so.
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = 1e-15;
  const ServiceResponse infeasible = service.SubmitAndWait(request);
  ASSERT_EQ(infeasible.status, ResponseStatus::kCompleted);
  ASSERT_NE(infeasible.result, nullptr);
  EXPECT_FALSE(infeasible.result->respects_bounds);
  EXPECT_DOUBLE_EQ(
      infeasible.result->weighted_cost,
      MinWeightedCost(*frontier, request.preference.weights));

  EXPECT_EQ(OptimizerRuns(service), 1u);
}

TEST(ServiceTest, ColdBoundedRtaMissHonorsBoundsLikeFrontierHit) {
  // Regression: a cold miss must apply the same bounded selection as a
  // frontier hit — cache temperature never changes the answer.
  Catalog catalog = MakeTinyCatalog();

  // Derive feasible bounds from a library-level RTA run's frontier.
  Query query = MakeStarQuery(&catalog, 3);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = FirstObjectives(3);
  problem.weights = WeightVector::Uniform(3);
  const OptimizerResult reference =
      MakeOptimizer(AlgorithmKind::kRta, SmallOptions(1.5))->Optimize(problem);
  ASSERT_GE(reference.frontier_size(), 1);
  const CostVector anchor =
      reference.plan_set->cost(reference.frontier_size() / 2);

  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 3, 3);
  request.spec.algorithm = AlgorithmKind::kRta;
  request.spec.alpha = 1.5;
  request.preference.bounds = BoundVector::Unbounded(3);
  for (int i = 0; i < 3; ++i) request.preference.bounds[i] = anchor[i];

  const ServiceResponse cold = service.SubmitAndWait(request);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  EXPECT_EQ(cold.cache, CacheOutcome::kMiss);
  ASSERT_NE(cold.result, nullptr);
  EXPECT_TRUE(cold.result->respects_bounds);
  EXPECT_TRUE(request.preference.bounds.Respects(cold.result->cost));

  // The same preference resubmitted is an exact hit with the same plan.
  const ServiceResponse warm = service.SubmitAndWait(request);
  EXPECT_EQ(warm.cache, CacheOutcome::kExactHit);
  EXPECT_TRUE(PlansEqual(warm.result->plan, cold.result->plan));
}

TEST(ServiceTest, ExplicitIraOverrideIsPreferenceKeyed) {
  // The IRA's output is tailored to its weights/bounds, so its cache
  // entries are shared only between identical preferences: same request
  // twice = exact hit, any weight change = full re-optimization.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(2));
  ServiceRequest request = StarRequest(&catalog, 2, 3);
  request.spec.algorithm = AlgorithmKind::kIra;
  request.spec.alpha = 1.5;
  request.preference.bounds = BoundVector::Unbounded(3);
  request.preference.bounds[0] = 1e12;  // Loose finite bound.

  const ServiceResponse first = service.SubmitAndWait(request);
  ASSERT_EQ(first.status, ResponseStatus::kCompleted);
  EXPECT_EQ(first.cache, CacheOutcome::kMiss);
  EXPECT_EQ(first.algorithm, AlgorithmKind::kIra);

  const ServiceResponse repeat = service.SubmitAndWait(request);
  EXPECT_EQ(repeat.cache, CacheOutcome::kExactHit);

  request.preference.weights[0] = 3.5;
  const ServiceResponse reweighted = service.SubmitAndWait(request);
  EXPECT_EQ(reweighted.cache, CacheOutcome::kMiss);
  EXPECT_EQ(OptimizerRuns(service), 2u);
}

// IRA and weighted-sum run as one-step sessions keyed by their
// preference: the answer is a direct run's, a repeat is the same cached
// object, and any weight change runs again.
TEST(ServiceTest, PreferenceDependentOverridesMatchDirectRuns) {
  Catalog catalog = MakeTinyCatalog();
  for (AlgorithmKind kind :
       {AlgorithmKind::kIra, AlgorithmKind::kWeightedSum}) {
    SCOPED_TRACE(AlgorithmName(kind));
    ServiceOptions options = SmallServiceOptions(2);
    options.subplan_memo.min_tables = 2;  // Every multi-table set qualifies.
    OptimizationService service(options);

    // An RTA run first, so the memo holds entries a memo-sharing
    // weighted-sum run could hit or add to.
    ServiceRequest warm = StarRequest(&catalog, 3, 3);
    warm.spec.algorithm = AlgorithmKind::kRta;
    ASSERT_EQ(service.Submit(warm).get().status, ResponseStatus::kCompleted);
    const SubplanMemo::Stats memo_before = service.MemoStats();
    ASSERT_GT(memo_before.insertions, 0u);

    ServiceRequest request = StarRequest(&catalog, 3, 3);
    request.spec.algorithm = kind;
    request.spec.alpha = 1.5;
    request.preference.weights[0] = 2.0;
    if (kind == AlgorithmKind::kIra) {
      request.preference.bounds = BoundVector::Unbounded(3);
      request.preference.bounds[0] = 1e12;  // Finite: the bounded IRA.
    }

    const ServiceResponse first = service.Submit(request).get();
    ASSERT_EQ(first.status, ResponseStatus::kCompleted);
    EXPECT_EQ(first.cache, CacheOutcome::kMiss);
    EXPECT_EQ(first.algorithm, kind);
    ASSERT_NE(first.result, nullptr);
    ASSERT_NE(first.result->plan, nullptr);

    MOQOProblem problem;
    problem.query = request.spec.query.get();
    problem.objectives = request.spec.objectives;
    problem.weights = request.preference.weights;
    problem.bounds = request.preference.bounds;
    const OptimizerResult direct =
        MakeOptimizer(kind, SmallOptions(1.5))->Optimize(problem);
    ASSERT_NE(direct.plan, nullptr);
    EXPECT_TRUE(PlansEqual(direct.plan, first.result->plan));
    EXPECT_EQ(direct.cost, first.result->cost);
    EXPECT_EQ(direct.frontier(), first.result->frontier());

    const ServiceResponse repeat = service.Submit(request).get();
    EXPECT_EQ(repeat.cache, CacheOutcome::kExactHit);
    EXPECT_EQ(repeat.result.get(), first.result.get());

    request.preference.weights[1] = 3.5;
    const ServiceResponse reweighted = service.Submit(request).get();
    ASSERT_EQ(reweighted.status, ResponseStatus::kCompleted);
    EXPECT_EQ(reweighted.cache, CacheOutcome::kMiss);
    EXPECT_EQ(OptimizerRuns(service), 3u);  // RTA warm-up + two runs.

    if (kind == AlgorithmKind::kWeightedSum) {
      // Its per-set output depends on the weights: never memo-shared.
      EXPECT_EQ(service.MemoStats().hits, memo_before.hits);
      EXPECT_EQ(service.MemoStats().insertions, memo_before.insertions);
    }
  }
}

// Coalescing (TSan-covered): duplicate cache misses on one signature
// optimize once — later arrivals wait on the first miss and are served
// from its frontier by selection.
TEST(ServiceTest, CoalescedDuplicateMissesOptimizeOnce) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  // Occupy the single worker so the duplicate spec stays queued.
  ServiceRequest heavy = StarRequest(&catalog, 3, 9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 2000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  // Identical spec, rotating weights: the first becomes the queued
  // primary, the rest coalesce behind it.
  constexpr int kDuplicates = 6;
  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  std::vector<std::future<ServiceResponse>> futures;
  std::vector<WeightVector> weights;
  for (int i = 0; i < kDuplicates; ++i) {
    ServiceRequest request = dup;
    request.preference.weights = WeightVector::Uniform(3);
    request.preference.weights[0] = 1.0 + i;
    weights.push_back(request.preference.weights);
    futures.push_back(service.Submit(request));
  }

  int misses = 0, coalesced = 0;
  for (int i = 0; i < kDuplicates; ++i) {
    const ServiceResponse response = futures[i].get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted) << i;
    ASSERT_NE(response.result, nullptr);
    ASSERT_NE(response.result->plan, nullptr);
    if (response.cache == CacheOutcome::kMiss) ++misses;
    if (response.cache == CacheOutcome::kCoalescedHit) {
      ++coalesced;
      // Waiters get their own preference's selection from the shared set.
      EXPECT_DOUBLE_EQ(response.result->weighted_cost,
                       MinWeightedCost(*response.plan_set(), weights[i]));
    }
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(coalesced, kDuplicates - 1);

  const ServiceResponse heavy_response = heavy_future.get();
  EXPECT_NE(heavy_response.status, ResponseStatus::kRejected);

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.coalesced_hits, static_cast<uint64_t>(kDuplicates - 1));
  // Two optimizer runs total: the heavy blocker and ONE run for all six
  // duplicate-spec requests.
  EXPECT_EQ(OptimizerRuns(service), 2u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, DegradedPrimaryPromotesOneWaiterNotAll) {
  // A request that quick-modes cannot serve waiters (its plan depends on
  // its own weights and carries no guarantee), so a deadline-bounded
  // request never becomes a primary: the doomed request below degrades
  // on its own, the first deadline-free waiter runs the ONE full
  // optimization, and the rest are served from that run — no thundering
  // herd of identical DPs. (Waiters of a shared run that does degrade
  // retry as one new primary; JoinersOfAFailedRungRetryAsOnePrimary.)
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  // The subplan memo would let the heavy runs below share their DP work
  // (their alpha overrides distinguish *cache* keys, but EXA's internal
  // alpha — what the memo keys on — is always 1), collapsing the runway
  // this test depends on. Coalescing, not the memo, is under test here.
  options.enable_subplan_memo = false;
  OptimizationService service(options);

  // Pin the single worker behind a queue of heavy runs (distinct
  // objective subsets = distinct signatures, so they neither coalesce nor
  // hit the cache — alpha no longer distinguishes keys under the relaxed
  // identity): one ~5 ms EXA is not enough runway under a loaded parallel
  // test host — the submit loop below must finish parking every waiter
  // before the worker reaches the doomed primary.
  constexpr int kHeavy = 10;
  std::vector<std::future<ServiceResponse>> heavy_futures;
  for (int i = 0; i < kHeavy; ++i) {
    ServiceRequest heavy = StarRequest(&catalog, 3, 9);
    // Drop one rotating objective (and for i >= 8, two) from the full
    // set: every subset is distinct, every run stays heavy.
    std::vector<Objective> picked;
    for (int k = 0; k < kNumObjectives; ++k) {
      if (k == 1 + (i % 8)) continue;
      if (i >= 8 && k == 1 + ((i + 1) % 8)) continue;
      picked.push_back(kAllObjectives[k]);
    }
    heavy.spec.objectives = ObjectiveSet(picked);
    heavy.preference.weights =
        WeightVector::Uniform(heavy.spec.objectives.size());
    heavy.spec.algorithm = AlgorithmKind::kExa;
    heavy.preference.deadline_ms = 10000;
    heavy_futures.push_back(service.Submit(heavy));
  }

  // An already-hopeless deadline: by the time the single worker reaches
  // it, it degrades to quick mode and cannot be cached.
  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  ServiceRequest doomed = dup;
  doomed.preference.deadline_ms = 1;
  std::future<ServiceResponse> doomed_future = service.Submit(doomed);

  constexpr int kWaiters = 4;
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < kWaiters; ++i) {
    ServiceRequest request = dup;  // Deadline-free: may coalesce.
    request.preference.weights = WeightVector::Uniform(3);
    request.preference.weights[0] = 2.0 + i;
    futures.push_back(service.Submit(request));
  }

  EXPECT_EQ(doomed_future.get().status, ResponseStatus::kCompletedQuick);
  int promoted_misses = 0, coalesced = 0;
  for (std::future<ServiceResponse>& future : futures) {
    const ServiceResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    ASSERT_NE(response.result, nullptr);
    EXPECT_NE(response.result->plan, nullptr);
    if (response.cache == CacheOutcome::kMiss) ++promoted_misses;
    if (response.cache == CacheOutcome::kCoalescedHit) ++coalesced;
  }
  EXPECT_EQ(promoted_misses, 1);
  EXPECT_EQ(coalesced, kWaiters - 1);
  for (std::future<ServiceResponse>& future : heavy_futures) future.get();
  // kHeavy heavies + doomed quick run + ONE promoted full run.
  EXPECT_EQ(OptimizerRuns(service), kHeavy + 2u);
  EXPECT_EQ(service.InFlight(), 0u);
}

TEST(ServiceTest, DispatchFailureRejectsAndLeavesNoSessionBehind) {
  // A pool that refuses the first rung rejects the open after it
  // registered: the session ends failed, gives back its slot and its
  // registry entry, and the same request then runs as a fresh primary.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  struct Disarm {
    ~Disarm() { rt::FailpointRegistry::Global().DisarmAll(); }
  } disarm;
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));
  const ServiceRequest request = StarRequest(&catalog, 2, 3);

  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("pool.dispatch",
                                                  "always:return_error"));
  const ServiceResponse rejected = service.SubmitAndWait(request);
  EXPECT_EQ(rejected.status, ResponseStatus::kRejected);
  EXPECT_EQ(rejected.cache, CacheOutcome::kMiss);
  EXPECT_EQ(rejected.result, nullptr);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.admissions_rejected, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(service.InFlight(), 0u);

  rt::FailpointRegistry::Global().DisarmAll();
  const ServiceResponse fresh = service.SubmitAndWait(request);
  EXPECT_EQ(fresh.status, ResponseStatus::kCompleted);
  EXPECT_EQ(fresh.cache, CacheOutcome::kMiss);
  EXPECT_EQ(service.Stats().sessions_coalesced, 0u);
  EXPECT_EQ(service.SubmitAndWait(request).cache, CacheOutcome::kExactHit);
}

TEST(ServiceTest, JoinersOfAFailedRungRetryAsOnePrimary) {
  // When the shared run itself fails, its waiters cannot be served from
  // it: each re-opens, and the re-opens coalesce again — ONE retry runs,
  // the other waiters wait on it.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  struct Disarm {
    ~Disarm() { rt::FailpointRegistry::Global().DisarmAll(); }
  } disarm;
  // Rung visit 1 is the blocker's and runs; visit 2 is the shared
  // primary's and throws; visit 3 is the retry's and runs.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("session.rung",
                                                  "every_nth(2):throw"));

  Catalog catalog = MakeTinyCatalog();
  Catalog tpch = Catalog::TpcH(0.01);
  ServiceOptions options = SmallServiceOptions(1);
  options.trace.enabled = true;
  OptimizationService service(options);

  // Pin the single worker: an exact nine-objective run over TPC-H Q8's
  // eight tables cannot finish inside its deadline, so every duplicate
  // below is parked before the primary's rung starts.
  ServiceRequest blocker;
  blocker.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 8));
  blocker.spec.objectives = FirstObjectives(kNumObjectives);
  blocker.spec.algorithm = AlgorithmKind::kExa;
  blocker.spec.parallelism = 1;
  blocker.preference.deadline_ms = 300;
  std::future<ServiceResponse> blocker_future = service.Submit(blocker);

  const ServiceRequest dup = StarRequest(&catalog, 2, 3);
  std::future<ServiceResponse> primary_future = service.Submit(dup);
  constexpr int kWaiters = 4;
  std::vector<std::future<ServiceResponse>> futures;
  std::vector<WeightVector> weights;
  for (int i = 0; i < kWaiters; ++i) {
    ServiceRequest request = dup;
    request.preference.weights[0] = 2.0 + i;
    weights.push_back(request.preference.weights);
    futures.push_back(service.Submit(request));
  }

  // The primary's rung died: it answers with the quick-mode fallback.
  const ServiceResponse primary = primary_future.get();
  EXPECT_EQ(primary.status, ResponseStatus::kCompletedQuick);
  EXPECT_EQ(primary.cache, CacheOutcome::kMiss);
  ASSERT_NE(primary.result, nullptr);
  EXPECT_NE(primary.result->plan, nullptr);

  int retried = 0, coalesced = 0;
  for (int i = 0; i < kWaiters; ++i) {
    const ServiceResponse response = futures[i].get();
    ASSERT_EQ(response.status, ResponseStatus::kCompleted) << i;
    ASSERT_NE(response.result, nullptr) << i;
    ASSERT_NE(response.result->plan, nullptr) << i;
    if (response.cache == CacheOutcome::kMiss) ++retried;
    if (response.cache == CacheOutcome::kCoalescedHit) {
      ++coalesced;
      EXPECT_DOUBLE_EQ(response.result->weighted_cost,
                       MinWeightedCost(*response.plan_set(), weights[i]));
    }
  }
  EXPECT_EQ(retried, 1);
  EXPECT_EQ(coalesced, kWaiters - 1);
  EXPECT_NE(blocker_future.get().status, ResponseStatus::kRejected);

  EXPECT_EQ(rt::FailpointRegistry::Global().Register("session.rung").hits(),
            1u);
  EXPECT_EQ(service.Stats().coalesced_hits,
            static_cast<uint64_t>(kWaiters - 1));
  // The blocker and the one retry; the failed rung never reached the
  // optimizer.
  EXPECT_EQ(OptimizerRuns(service), 2u);
  EXPECT_EQ(service.InFlight(), 0u);

  // Every wait is traced, the one that ended in a retry too: kWaiters on
  // the failed session, kWaiters - 1 on the retry's.
  const std::string trace = service.tracer()->ExportChromeTrace();
  const std::string wait_event = "\"name\":\"coalesce.wait\"";
  int waits = 0;
  for (size_t at = trace.find(wait_event); at != std::string::npos;
       at = trace.find(wait_event, at + 1)) {
    ++waits;
  }
  EXPECT_EQ(waits, 2 * kWaiters - 1);
}

TEST(ServiceTest, DeadlineBoundedDuplicatesDoNotCoalesce) {
  // A waiter cannot degrade to quick mode while parked, so duplicates
  // carrying a deadline must keep their own optimizer run.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  ServiceRequest heavy = StarRequest(&catalog, 3, 9);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.preference.deadline_ms = 2000;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  ServiceRequest dup = StarRequest(&catalog, 2, 3);
  std::future<ServiceResponse> primary_future = service.Submit(dup);
  ServiceRequest bounded = dup;
  bounded.preference.deadline_ms = 1;  // Must honor its own budget.
  std::future<ServiceResponse> bounded_future = service.Submit(bounded);

  const ServiceResponse bounded_response = bounded_future.get();
  EXPECT_EQ(bounded_response.cache, CacheOutcome::kMiss);
  ASSERT_NE(bounded_response.result, nullptr);
  ASSERT_NE(bounded_response.result->plan, nullptr);  // Quick or full.

  EXPECT_EQ(primary_future.get().status, ResponseStatus::kCompleted);
  EXPECT_NE(heavy_future.get().status, ResponseStatus::kRejected);
  EXPECT_EQ(service.Stats().coalesced_hits, 0u);
  EXPECT_EQ(OptimizerRuns(service), 3u);  // heavy + primary + bounded dup.
}

TEST(ServiceTest, ExpiredDeadlineReturnsQuickModePlanNeverNull) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  options.enable_cache = false;
  OptimizationService service(options);

  ServiceRequest request = StarRequest(&catalog, 3, 3);
  request.preference.deadline_ms = 0;  // Already expired at submit.
  const ServiceResponse response = service.SubmitAndWait(request);

  EXPECT_EQ(response.status, ResponseStatus::kCompletedQuick);
  ASSERT_NE(response.result, nullptr);
  ASSERT_NE(response.result->plan, nullptr);  // Quick-mode plan, not null.
  EXPECT_TRUE(response.result->metrics.timed_out);
  EXPECT_EQ(response.result->plan->tables.Cardinality(), 4);
  EXPECT_GE(service.Stats().deadline_timeouts, 1u);
}

TEST(ServiceTest, TimedOutResultsAreNotCached) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(SmallServiceOptions(1));

  ServiceRequest request = StarRequest(&catalog, 3, 3);
  // Pin algorithm and alpha: otherwise the tight- and no-deadline requests
  // resolve to different policy decisions and thus different cache keys,
  // and the !timed_out cacheability guard would never be exercised.
  request.spec.algorithm = AlgorithmKind::kExa;
  request.spec.alpha = 1.0;
  request.preference.deadline_ms = 0;
  const ServiceResponse quick = service.SubmitAndWait(request);
  EXPECT_EQ(quick.status, ResponseStatus::kCompletedQuick);

  // The same problem with no deadline must re-optimize, not serve the
  // degraded quick-mode plan from the cache.
  request.preference.deadline_ms = -1;
  const ServiceResponse full = service.SubmitAndWait(request);
  EXPECT_EQ(full.status, ResponseStatus::kCompleted);
  EXPECT_FALSE(full.cache_hit());
  EXPECT_FALSE(full.result->metrics.timed_out);
}

TEST(ServiceTest, AdmissionControlShedsLoadBeyondMaxInflight) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  options.enable_cache = false;
  options.max_inflight = 1;
  OptimizationService service(options);

  // Occupy the single worker long enough to observe rejections: an exact
  // nine-objective run over TPC-H Q8's eight tables cannot finish inside
  // its deadline, so it stays in flight for the whole deadline however
  // the submitting thread is scheduled. (The full tiny star finishes in
  // about 2 ms, which a preempted submitter can miss.)
  Catalog tpch = Catalog::TpcH(0.01);
  ServiceRequest heavy;
  heavy.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 8));
  heavy.spec.objectives = FirstObjectives(kNumObjectives);
  heavy.spec.algorithm = AlgorithmKind::kExa;
  heavy.spec.parallelism = 1;
  heavy.preference.weights = WeightVector::Uniform(kNumObjectives);
  heavy.preference.deadline_ms = 300;
  std::future<ServiceResponse> heavy_future = service.Submit(heavy);

  // Admission counts queued + running, so these reject synchronously while
  // the heavy request is in flight.
  int rejected = 0;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest light = StarRequest(&catalog, 2, 2);
    const ServiceResponse response = service.SubmitAndWait(light);
    if (response.status == ResponseStatus::kRejected) {
      ++rejected;
      EXPECT_EQ(response.result, nullptr);
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GE(service.Stats().admissions_rejected,
            static_cast<uint64_t>(rejected));

  const ServiceResponse heavy_response = heavy_future.get();
  EXPECT_NE(heavy_response.status, ResponseStatus::kRejected);
  ASSERT_NE(heavy_response.result, nullptr);
  EXPECT_NE(heavy_response.result->plan, nullptr);
}

TEST(ServiceTest, ConcurrentMixedWorkloadCorrectPerRequestResults) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(4);
  OptimizationService service(options);

  // Four distinct problems, each with a known fresh reference result.
  struct Case {
    ServiceRequest request;
    OptimizerResult reference;
  };
  std::vector<Case> cases;
  for (int dims = 1; dims <= 2; ++dims) {
    for (int objectives = 2; objectives <= 3; ++objectives) {
      Case c;
      c.request = StarRequest(&catalog, dims, objectives);
      MOQOProblem problem;
      problem.query = c.request.spec.query.get();
      problem.objectives = c.request.spec.objectives;
      problem.weights = c.request.preference.weights;
      const PolicyDecision decision =
          ChooseAlgorithm(*c.request.spec.query, c.request.spec.objectives,
                          -1, options.policy);
      std::unique_ptr<OptimizerBase> optimizer =
          MakeOptimizer(decision.algorithm, SmallOptions(decision.alpha));
      c.reference = optimizer->Optimize(problem);
      cases.push_back(std::move(c));
    }
  }

  // 8 client threads x 16 requests, round-robin over the cases.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const Case& c = cases[(t + i) % cases.size()];
        const ServiceResponse response =
            service.SubmitAndWait(c.request);
        if (response.status != ResponseStatus::kCompleted ||
            response.result == nullptr ||
            response.result->plan == nullptr ||
            !(response.result->cost == c.reference.cost) ||
            !PlansEqual(response.result->plan, c.reference.plan) ||
            response.result->frontier() != c.reference.frontier()) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "client thread " << t;
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.requests_total,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.completed, stats.requests_total);
  // At least the first encounter of each distinct problem misses; racing
  // first encounters coalesce behind it instead of optimizing twice.
  EXPECT_GE(stats.cache_misses, cases.size());
  // Every request does exactly one counted cache lookup (coalesced
  // waiters record their miss, then wait).
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests_total);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits, stats.exact_hits + stats.frontier_hits);
}

TEST(ServiceTest, SustainsManyConcurrentInflightRequests) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(4);
  options.enable_cache = false;  // Force every request through the pool.
  options.max_inflight = 256;
  OptimizationService service(options);

  constexpr int kRequests = 80;  // > 64 concurrently in flight.
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ServiceRequest request = StarRequest(&catalog, 1 + i % 3, 2 + i % 2);
    request.preference.deadline_ms = 30000;
    futures.push_back(service.Submit(request));
  }

  int resolved = 0;
  for (std::future<ServiceResponse>& future : futures) {
    const ServiceResponse response = future.get();
    EXPECT_NE(response.status, ResponseStatus::kRejected);
    ASSERT_NE(response.result, nullptr);
    EXPECT_NE(response.result->plan, nullptr);
    ++resolved;
  }
  EXPECT_EQ(resolved, kRequests);
  EXPECT_EQ(service.InFlight(), 0u);
}

/// Threads of this process: one entry each under /proc/self/task.
size_t ProcessThreads() {
  return static_cast<size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

TEST(ServiceTest, WatchdogThreadStartsWithTheFirstBudgetedSession) {
  // The watchdog watches only sessions with a per-rung budget, so a
  // service starts its thread when the first of them opens: Submit's
  // one-step sessions have none.
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options = SmallServiceOptions(1);
  options.policy.max_parallelism = 1;  // Never spawns the DP helper pool.
  const size_t before = ProcessThreads();
  OptimizationService service(options);
  EXPECT_EQ(ProcessThreads(), before + 1);  // The one worker.
  ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 2)).status,
            ResponseStatus::kCompleted);
  EXPECT_EQ(ProcessThreads(), before + 1);

  SessionOptions budgeted;
  budgeted.step_deadline_ms = 30000;
  std::shared_ptr<FrontierSession> session =
      service.OpenFrontier(StarRequest(&catalog, 3, 2).spec, budgeted);
  EXPECT_EQ(ProcessThreads(), before + 2);
  session->AwaitFor(30000);
  EXPECT_TRUE(session->Done());
  EXPECT_FALSE(session->Degraded());
}

TEST(ServiceTest, NullQueryIsRejectedNotCrashed) {
  OptimizationService service(SmallServiceOptions(1));
  ServiceRequest request;  // spec.query == nullptr
  const ServiceResponse response = service.SubmitAndWait(request);
  EXPECT_EQ(response.status, ResponseStatus::kRejected);
  EXPECT_EQ(response.result, nullptr);
  EXPECT_EQ(response.plan_set(), nullptr);
  EXPECT_EQ(service.Stats().internal_errors, 1u);
}

TEST(ServiceTest, NonFiniteAlphaIsRejectedAndLeavesTheCacheServing) {
  // RTA cache keys are alpha-free: a run at alpha NaN would insert a
  // NaN-tagged entry under the key every default request probes — one no
  // lookup admits and no insert replaces.
  Catalog tpch = Catalog::TpcH(0.01);
  OptimizationService service(SmallServiceOptions(1));
  ServiceRequest request;
  request.spec.query = std::make_shared<Query>(MakeTpcHQuery(&tpch, 5));
  request.spec.objectives = FirstObjectives(6);
  request.preference.weights = WeightVector::Uniform(6);

  for (double alpha : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    ServiceRequest invalid = request;
    invalid.spec.alpha = alpha;
    const ServiceResponse response = service.SubmitAndWait(invalid);
    EXPECT_EQ(response.status, ResponseStatus::kRejected);
    EXPECT_EQ(response.result, nullptr);
  }
  EXPECT_EQ(service.Stats().internal_errors, 2u);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.SubmitAndWait(request).status,
              ResponseStatus::kCompleted);
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

/// A fresh directory path (not created: the service creates it).
std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "moqo_service_" + tag +
                          "_" + std::to_string(::getpid());
  EXPECT_EQ(std::system(("rm -rf " + dir).c_str()), 0);
  return dir;
}

/// A service whose plan cache holds one entry and overflows into a disk
/// tier under `dir`; no snapshot is read or written.
ServiceOptions OneEntryTierOptions(const std::string& dir) {
  ServiceOptions options = SmallServiceOptions(1);
  options.cache.capacity = 1;
  options.cache.shards = 1;
  options.persist.directory = dir;
  options.persist.tier_capacity_bytes = size_t{8} << 20;
  options.persist.restore_on_start = false;
  options.persist.snapshot_on_shutdown = false;
  return options;
}

std::string CodecBytes(const PlanSet& set) {
  std::string bytes;
  persist::PlanSetCodec::Append(set, &bytes);
  return bytes;
}

TEST(ServiceTest, DemotedEntryAnswersAsATierHitCountedOnce) {
  // The second query's entry demotes the first's from the one-entry cache;
  // a looser request for the first query is then answered from the tier:
  // kTierHit, the entry's own alpha, the run's frontier bit for bit, one
  // counted cache hit and no optimizer run.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(OneEntryTierOptions(FreshDir("tier_hit")));
  ServiceRequest first = StarRequest(&catalog, 3, 3);
  first.spec.algorithm = AlgorithmKind::kRta;
  first.spec.alpha = 1.2;
  const ServiceResponse cold = service.SubmitAndWait(first);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 3)).status,
            ResponseStatus::kCompleted);
  ASSERT_EQ(service.CacheStats().evictions, 1u);

  ServiceRequest looser = first;
  looser.spec.alpha = 1.5;
  const ServiceResponse warm = service.SubmitAndWait(looser);
  ASSERT_EQ(warm.status, ResponseStatus::kCompleted);
  EXPECT_EQ(warm.cache, CacheOutcome::kTierHit);
  EXPECT_DOUBLE_EQ(warm.alpha, 1.2);
  ASSERT_NE(warm.plan_set(), nullptr);
  EXPECT_EQ(CodecBytes(*warm.plan_set()), CodecBytes(*cold.plan_set()));

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.tier_hits, 1u);
  EXPECT_EQ(OptimizerRuns(service), 2u);
}

TEST(ServiceTest, LooserDemotedEntrySeedsTheLadder) {
  // An OpenFrontier whose only cache entry is a looser, demoted one: the
  // probe promotes it from the tier and judges it too loose to answer (one
  // counted miss); the session publishes it first, from_cache, and its
  // ladder runs only the rungs below the entry's alpha.
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(OneEntryTierOptions(FreshDir("tier_seed")));
  ServiceRequest loose = StarRequest(&catalog, 3, 3);
  loose.spec.algorithm = AlgorithmKind::kRta;
  loose.spec.alpha = 2.0;
  const ServiceResponse cold = service.SubmitAndWait(loose);
  ASSERT_EQ(cold.status, ResponseStatus::kCompleted);
  ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 3)).status,
            ResponseStatus::kCompleted);
  ASSERT_EQ(service.CacheStats().evictions, 1u);
  const ServiceStatsSnapshot before = service.Stats();

  // Ladder 4.0, 2.90, 2.10, 1.52, 1.1: the last two are below 2.0.
  SessionOptions options;
  options.alpha_start = 4.0;
  options.alpha_target = 1.1;
  options.max_steps = 5;
  std::shared_ptr<FrontierSession> session =
      service.OpenFrontier(loose.spec, options);
  ASSERT_TRUE(session->AwaitTarget());
  const std::vector<double>& ladder = session->ladder();
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_LT(ladder.front(), 2.0);
  EXPECT_DOUBLE_EQ(ladder.back(), 1.1);
  const std::vector<RefinedFrontier> history = session->History();
  ASSERT_EQ(history.size(), 1 + ladder.size());
  EXPECT_TRUE(history[0].from_cache);
  EXPECT_DOUBLE_EQ(history[0].alpha, 2.0);
  EXPECT_EQ(CodecBytes(*history[0].plan_set), CodecBytes(*cold.plan_set()));
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_FALSE(history[i].from_cache) << i;
    EXPECT_DOUBLE_EQ(history[i].alpha, ladder[i - 1]) << i;
  }

  const ServiceStatsSnapshot after = service.Stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits);
  EXPECT_EQ(after.cache_misses, before.cache_misses + 1);
  EXPECT_EQ(OptimizerRuns(service), 2u + ladder.size());
  session->Cancel();
}

TEST(ServiceTest, WorkloadDriverEndToEnd) {
  Catalog catalog = Catalog::TpcH(0.01);
  OptimizerOptions gen_options = SmallOptions();
  WorkloadGenerator generator(&catalog, gen_options);

  ServiceWorkloadOptions workload_options;
  workload_options.query_numbers = {3, 10};
  workload_options.cases_per_query = 2;
  workload_options.num_objectives = 3;
  std::vector<ServiceRequest> requests =
      BuildServiceWorkload(&catalog, &generator, workload_options);
  ASSERT_EQ(requests.size(), 4u);

  ServiceOptions options = SmallServiceOptions(2);
  OptimizationService service(options);
  const ServiceRunStats cold = DriveService(&service, requests);
  EXPECT_EQ(cold.completed + cold.quick, cold.total);
  EXPECT_EQ(cold.rejected, 0);
  EXPECT_EQ(cold.null_plans, 0);

  // Re-driving the same workload resolves every request from the cache
  // (exact hits where the cached preference matches, frontier hits where a
  // same-spec sibling's preference populated the entry).
  const ServiceRunStats warm = DriveService(&service, requests);
  EXPECT_EQ(warm.cache_hits, warm.total);
}

// --------------------------------------------------------------------------
// Cross-query subplan memo through the service.

/// Chain catalog for overlap tests: distinct cardinalities, each scaled by
/// `row_scale`, and an indexed key.
Catalog MakeServiceChainCatalog(int tables, long row_scale = 1) {
  Catalog catalog;
  for (int i = 0; i < tables; ++i) {
    const long rows = row_scale * 300 * (1 + (i * 3) % 5);
    Table table("c" + std::to_string(i), rows, 40);
    ColumnStats key;
    key.name = "k";
    key.ndv = 40;
    key.min_value = 0;
    key.max_value = 39;
    key.histogram = Histogram::Uniform(0, 39, 8, rows);
    table.AddColumn(key);
    table.AddIndex("k");
    catalog.AddTable(std::move(table));
  }
  return catalog;
}

ServiceRequest ChainRequest(const Catalog* catalog, int lo, int hi) {
  auto query = std::make_shared<Query>(
      Query(catalog, "chain" + std::to_string(lo) + std::to_string(hi)));
  std::vector<int> locals;
  for (int i = lo; i <= hi; ++i) {
    locals.push_back(query->AddTable("c" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < locals.size(); ++i) {
    query->AddJoin(locals[i], "k", locals[i + 1], "k");
  }
  ServiceRequest request;
  request.spec.query = std::move(query);
  request.spec.objectives = FirstObjectives(3);
  request.preference.weights = WeightVector::Uniform(3);
  return request;
}

TEST(ServiceTest, SubplanMemoSharesAcrossOverlappingQueries) {
  Catalog catalog = MakeServiceChainCatalog(6);
  // Same-length chains (the memo key carries the resolved precision, and
  // RTA's internal alpha depends on query size): both route identically.
  const ServiceRequest a = ChainRequest(&catalog, 0, 3);
  const ServiceRequest b = ChainRequest(&catalog, 1, 4);

  ServiceOptions memo_on = SmallServiceOptions(1);
  memo_on.subplan_memo.min_tables = 2;
  OptimizationService service(memo_on);
  ASSERT_NE(service.subplan_memo(), nullptr);

  const ServiceResponse response_a = service.SubmitAndWait(a);
  ASSERT_EQ(response_a.status, ResponseStatus::kCompleted);
  EXPECT_EQ(service.MemoStats().hits, 0u);
  EXPECT_GT(service.MemoStats().insertions, 0u);

  const ServiceResponse response_b = service.SubmitAndWait(b);
  ASSERT_EQ(response_b.status, ResponseStatus::kCompleted);
  // Distinct specs: the whole-query cache cannot help, the memo does.
  EXPECT_EQ(response_b.cache, CacheOutcome::kMiss);
  EXPECT_GT(service.MemoStats().hits, 0u);
  EXPECT_GT(service.MemoStats().HitRate(), 0.0);

  // The frontier served with memo sharing is byte-identical to a
  // memo-disabled service's.
  ServiceOptions memo_off = SmallServiceOptions(1);
  memo_off.enable_subplan_memo = false;
  OptimizationService reference(memo_off);
  EXPECT_EQ(reference.subplan_memo(), nullptr);
  const ServiceResponse reference_b = reference.SubmitAndWait(b);
  ASSERT_EQ(reference_b.status, ResponseStatus::kCompleted);
  ASSERT_NE(response_b.plan_set(), nullptr);
  ASSERT_NE(reference_b.plan_set(), nullptr);
  EXPECT_EQ(response_b.plan_set()->costs(), reference_b.plan_set()->costs());
  EXPECT_EQ(response_b.result->cost, reference_b.result->cost);
  std::string memo_on_bytes;
  std::string memo_off_bytes;
  persist::PlanSetCodec::Append(*response_b.plan_set(), &memo_on_bytes);
  persist::PlanSetCodec::Append(*reference_b.plan_set(), &memo_off_bytes);
  EXPECT_EQ(memo_on_bytes, memo_off_bytes);
  EXPECT_EQ(reference.MemoStats().hits, 0u);
}

TEST(ServiceTest, PermutedObjectivesMissTheCacheButReplayTheMemo) {
  // The plan cache keys the objectives in request order (a cached
  // PlanSet's cost columns follow it), the memo keys the objective set: a
  // request that reverses another's objectives misses the cache, and its
  // DP seals every memo-eligible set from the first run's entries. Its
  // frontier equals a memo-disabled service's byte for byte.
  Catalog catalog = MakeServiceChainCatalog(5);
  const ServiceRequest forward = ChainRequest(&catalog, 0, 4);
  const std::vector<Objective>& order = forward.spec.objectives.objectives();
  ServiceRequest reversed = forward;
  reversed.spec.objectives =
      ObjectiveSet(std::vector<Objective>(order.rbegin(), order.rend()));

  OptimizationService service(SmallServiceOptions(1));
  ASSERT_EQ(service.SubmitAndWait(forward).status,
            ResponseStatus::kCompleted);
  const SubplanMemo::Stats cold = service.MemoStats();
  EXPECT_GT(cold.insertions, 0u);

  const ServiceResponse response = service.SubmitAndWait(reversed);
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  EXPECT_EQ(response.cache, CacheOutcome::kMiss);
  const SubplanMemo::Stats warm = service.MemoStats();
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.insertions, cold.insertions);

  ServiceOptions memo_off = SmallServiceOptions(1);
  memo_off.enable_subplan_memo = false;
  OptimizationService reference(memo_off);
  const ServiceResponse expected = reference.SubmitAndWait(reversed);
  ASSERT_EQ(expected.status, ResponseStatus::kCompleted);
  ASSERT_NE(response.plan_set(), nullptr);
  ASSERT_NE(expected.plan_set(), nullptr);
  std::string memo_on_bytes;
  std::string memo_off_bytes;
  persist::PlanSetCodec::Append(*response.plan_set(), &memo_on_bytes);
  persist::PlanSetCodec::Append(*expected.plan_set(), &memo_off_bytes);
  EXPECT_EQ(memo_on_bytes, memo_off_bytes);
}

TEST(ServiceTest, ChangedStatisticsNeverReplayTheMemo) {
  // New statistics arrive as a new catalog. A memo key names each member
  // table's content, so a window over the rescaled catalog replays none of
  // the original's entries and serves a memo-disabled service's frontier
  // byte for byte; the same window over the original catalog replays them.
  const Catalog catalog = MakeServiceChainCatalog(5);
  const Catalog scaled = MakeServiceChainCatalog(5, /*row_scale=*/10);
  ServiceOptions options = SmallServiceOptions(1);
  options.subplan_memo.min_tables = 2;
  OptimizationService service(options);

  ASSERT_EQ(service.SubmitAndWait(ChainRequest(&catalog, 0, 3)).status,
            ResponseStatus::kCompleted);
  const SubplanMemo::Stats cold = service.MemoStats();
  ASSERT_GT(cold.entries, 0u);

  const ServiceRequest rescaled = ChainRequest(&scaled, 1, 4);
  const ServiceResponse response = service.SubmitAndWait(rescaled);
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  const SubplanMemo::Stats after_rescaled = service.MemoStats();
  EXPECT_EQ(after_rescaled.hits, cold.hits);

  ServiceOptions memo_off = SmallServiceOptions(1);
  memo_off.enable_subplan_memo = false;
  OptimizationService reference(memo_off);
  const ServiceResponse expected = reference.SubmitAndWait(rescaled);
  ASSERT_EQ(expected.status, ResponseStatus::kCompleted);
  ASSERT_NE(response.plan_set(), nullptr);
  ASSERT_NE(expected.plan_set(), nullptr);
  std::string memo_on_bytes;
  std::string memo_off_bytes;
  persist::PlanSetCodec::Append(*response.plan_set(), &memo_on_bytes);
  persist::PlanSetCodec::Append(*expected.plan_set(), &memo_off_bytes);
  EXPECT_EQ(memo_on_bytes, memo_off_bytes);

  ASSERT_EQ(service.SubmitAndWait(ChainRequest(&catalog, 1, 4)).status,
            ResponseStatus::kCompleted);
  EXPECT_GT(service.MemoStats().hits, after_rescaled.hits);
}

}  // namespace
}  // namespace moqo
