// Copyright (c) 2026 moqo authors. MIT license.
//
// The parallel DP engine on TPC-H Q5 and Q8 in the bench operator space
// (sampling {0.05}, DOP {1, 2}) with six objectives, where levels clear the
// fan-out gate and the one-set top levels build in rounds: byte-identical
// frontiers and identical counts at every thread count, exact and
// approximate pruning alike; the round commit on the counter-example that
// rules out merging partial sets; a deadline expiring mid-round; the
// aggressive_delete ablation; the service-level parallelism override; and
// the cooperative ThreadPool::ParallelFor primitive underneath it all.
// Runs under TSan in CI (see .github/workflows/ci.yml).

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dp_driver.h"
#include "core/plan_set.h"
#include "core/rta.h"
#include "frontier/frontier.h"
#include "obs/trace.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace moqo {
namespace {

/// What one DP run leaves behind: the PlanSetCodec bytes of every table
/// set's sealed frontier (plans and cost bits), by mask, and the stats.
struct DpOutcome {
  std::vector<std::string> frontiers;
  DPStats stats;
};

class ParallelDpTest : public ::testing::Test {
 protected:
  ParallelDpTest()
      : catalog_(Catalog::TpcH(0.01)),
        objectives_({Objective::kTotalTime, Objective::kStartupTime,
                     Objective::kIOLoad, Objective::kCores,
                     Objective::kDiskFootprint, Objective::kTupleLoss}),
        registry_(testing::SmallOperatorSpace()) {}

  /// The RTA's internal precision for user precision 1.5 on `query`.
  static double RtaAlpha(const Query& query) {
    return RTAInternalPrecision(1.5, query.num_tables());
  }

  DpOutcome RunDp(const Query& query, double alpha, int parallelism,
                  ThreadPool* pool, bool aggressive_delete = false) {
    const CostModel model(&query, &registry_, objectives_);
    Arena arena;
    DPPlanGenerator generator(&model, &registry_, &arena);
    DPOptions options;
    options.alpha = alpha;
    options.aggressive_delete = aggressive_delete;
    options.parallelism = parallelism;
    options.pool = pool;
    generator.Run(query, options);
    DpOutcome outcome;
    const uint64_t all = query.AllTables().mask();
    for (uint64_t mask = 1; mask <= all; ++mask) {
      std::string bytes;
      persist::PlanSetCodec::Append(
          *PlanSet::FromParetoSet(generator.SetFor(TableSet(mask))), &bytes);
      outcome.frontiers.push_back(std::move(bytes));
    }
    outcome.stats = generator.stats();
    return outcome;
  }

  /// Runs `query` at parallelism 1, 2 and 4 and requires the same bytes
  /// and counts each time; returns the parallelism-4 run.
  DpOutcome ExpectSameAtEveryThreadCount(const Query& query, double alpha) {
    const DpOutcome serial = RunDp(query, alpha, 1, nullptr);
    EXPECT_EQ(serial.stats.parallel_levels, 0);
    EXPECT_EQ(serial.stats.parallel_rounds, 0);
    ThreadPool pool(3);
    DpOutcome parallel;
    for (int parallelism : {2, 4}) {
      parallel = RunDp(query, alpha, parallelism, &pool);
      const DPStats& stats = parallel.stats;
      EXPECT_EQ(parallel.frontiers, serial.frontiers)
          << query.name() << " alpha " << alpha << " parallelism "
          << parallelism;
      EXPECT_EQ(stats.considered_plans, serial.stats.considered_plans);
      EXPECT_EQ(stats.inserted_plans, serial.stats.inserted_plans);
      EXPECT_EQ(stats.complete_sets, serial.stats.complete_sets);
      EXPECT_EQ(stats.last_complete_set, serial.stats.last_complete_set);
      EXPECT_FALSE(stats.timed_out);
    }
    return parallel;
  }

  Catalog catalog_;
  ObjectiveSet objectives_;
  OperatorRegistry registry_;
};

TEST_F(ParallelDpTest, FrontiersIdenticalAcrossThreadCounts) {
  for (int number : {5, 8}) {
    const Query query = MakeTpcHQuery(&catalog_, number);
    const DpOutcome parallel =
        ExpectSameAtEveryThreadCount(query, /*alpha=*/1.0);
    EXPECT_GT(parallel.stats.parallel_levels, 0) << "Q" << number;
    EXPECT_GT(parallel.stats.parallel_rounds, 0) << "Q" << number;
  }
}

TEST_F(ParallelDpTest, ApproximatePruningDeterministicAndCovering) {
  // Identity holds for alpha > 1 too: a round drops only candidates the
  // round-start set rejects, which the serial run rejects as well ...
  ThreadPool pool(3);
  for (int number : {5, 8}) {
    const Query query = MakeTpcHQuery(&catalog_, number);
    const DpOutcome parallel =
        ExpectSameAtEveryThreadCount(query, RtaAlpha(query));
    // Both fan-out paths ran, so no case passes on the serial path.
    EXPECT_GT(parallel.stats.parallel_levels, 0) << "Q" << number;
    EXPECT_GT(parallel.stats.parallel_rounds, 0) << "Q" << number;

    // ... and on top of it the Theorem 3 guarantee: the parallel RTA
    // frontier 1.5-covers the exact frontier of the full table set.
    const CostModel model(&query, &registry_, objectives_);
    const auto frontier = [&](double alpha) {
      Arena arena;
      DPPlanGenerator generator(&model, &registry_, &arena);
      DPOptions options;
      options.alpha = alpha;
      options.parallelism = 4;
      options.pool = &pool;
      return generator.Run(query, options).Frontier();
    };
    EXPECT_EQ(FindUncoveredVector(frontier(RtaAlpha(query)),
                                  frontier(1.0), 1.5),
              std::nullopt)
        << "Q" << number;
  }
}

TEST_F(ParallelDpTest, StatsAggregationAcrossSlotsLosesNoUpdates) {
  // Fanned-out slots count into their own padded blocks (across sets) or
  // chunk-local counters (rounds), merged at each barrier. A lost update
  // would surface as a considered/inserted mismatch against the serial
  // run; a sharing bug would trip the TSan job this file runs under.
  const Query query = MakeTpcHQuery(&catalog_, 8);
  const DpOutcome serial = RunDp(query, RtaAlpha(query), 1, nullptr);
  EXPECT_EQ(serial.stats.parallel_levels, 0);
  EXPECT_EQ(serial.stats.parallel_rounds, 0);
  EXPECT_EQ(serial.stats.barrier_wait_us, 0);

  ThreadPool pool(4);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const DpOutcome parallel = RunDp(query, RtaAlpha(query), 4, &pool);
    const DPStats& stats = parallel.stats;
    EXPECT_EQ(stats.considered_plans, serial.stats.considered_plans)
        << "repeat " << repeat;
    EXPECT_EQ(stats.inserted_plans, serial.stats.inserted_plans)
        << "repeat " << repeat;
    // Levels 4-7 fan out across sets, the top level in rounds; the idle
    // attribution never goes negative.
    EXPECT_GE(stats.parallel_levels, 2);
    EXPECT_GT(stats.parallel_rounds, 0);
    EXPECT_GE(stats.barrier_wait_us, 0);
  }
}

TEST_F(ParallelDpTest, AggressiveDeleteAtParallelismFourEqualsSerial) {
  // The ablation's deletions are approximate, so its sets never build in
  // rounds; across-set fan-out still applies.
  ThreadPool pool(3);
  for (int number : {5, 8}) {
    const Query query = MakeTpcHQuery(&catalog_, number);
    const DpOutcome serial =
        RunDp(query, RtaAlpha(query), 1, nullptr, /*aggressive_delete=*/true);
    const DpOutcome parallel =
        RunDp(query, RtaAlpha(query), 4, &pool, /*aggressive_delete=*/true);
    EXPECT_EQ(parallel.frontiers, serial.frontiers) << "Q" << number;
    EXPECT_EQ(parallel.stats.considered_plans,
              serial.stats.considered_plans);
    EXPECT_EQ(parallel.stats.inserted_plans, serial.stats.inserted_plans);
    EXPECT_EQ(parallel.stats.parallel_rounds, 0);
  }
}

/// Feeds `costs` through the round protocol of the DP's one-set levels,
/// with a round ending before every index in `round_starts` (ascending,
/// each in (0, costs.size())): each round's candidates are first checked
/// against the set as it stood at the round start, then the survivors are
/// committed in order against the rows kept in this round, then the
/// round's deletions run. Returns the sealed set's plans.
std::vector<const PlanNode*> CommitInRounds(
    const std::vector<const PlanNode*>& plans,
    const std::vector<size_t>& round_starts,
    const ParetoSet::PruneOptions& options) {
  ParetoSet set;
  ParetoSet::Rejecters rejecters;
  size_t begin = 0;
  for (size_t r = 0; r <= round_starts.size(); ++r) {
    const size_t end =
        r < round_starts.size() ? round_starts[r] : plans.size();
    std::vector<const PlanNode*> survivors;
    for (size_t i = begin; i < end; ++i) {
      if (set.WouldInsert(plans[i]->cost, options, &rejecters)) {
        survivors.push_back(plans[i]);
      }
    }
    const int mark = set.row_count();
    for (const PlanNode* plan : survivors) {
      if (set.WouldInsert(plan->cost, options, nullptr, mark)) set.Append(plan);
    }
    set.DeleteDominatedSince(mark, options);
    begin = end;
  }
  set.Seal();
  return set.plans();
}

PlanNode* CostPlan(Arena* arena, std::vector<double> values) {
  PlanNode* plan = arena->New<PlanNode>();
  plan->cost = CostVector(static_cast<int>(values.size()));
  for (size_t d = 0; d < values.size(); ++d) plan->cost[d] = values[d];
  return plan;
}

TEST_F(ParallelDpTest, RoundCommitKeepsCounterExampleAtEverySplit) {
  // ROADMAP item 3's counter-example, alpha = 1.5, arriving a, b, c:
  // serially a rejects b, and c survives a. A per-slot partial set holding
  // b and c would drop c because of b, then the merge would drop b because
  // of a, losing c. The round commit must keep {a, c} however the three
  // are split into rounds.
  Arena arena;
  const std::vector<const PlanNode*> plans = {
      CostPlan(&arena, {1, 3}), CostPlan(&arena, {1.4, 2.1}),
      CostPlan(&arena, {1.9, 1.45})};
  const ParetoSet::PruneOptions options{1.5, false};
  const std::vector<const PlanNode*> expected = {plans[0], plans[2]};
  for (const std::vector<size_t>& round_starts :
       std::vector<std::vector<size_t>>{{}, {1}, {2}, {1, 2}}) {
    EXPECT_EQ(CommitInRounds(plans, round_starts, options), expected)
        << "rounds split before " << ::testing::PrintToString(round_starts);
  }
}

TEST_F(ParallelDpTest, RoundCommitMatchesSerialPruneOnRandomStreams) {
  // The same protocol on random streams and random round splits: the
  // sealed set equals serial Prune's, plan for plan and in order.
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 300; ++trial) {
    Arena arena;
    const int dims = 2 + static_cast<int>(rng.NextInt(3));
    const double alpha = std::vector<double>{1.0, 1.05, 1.5}[trial % 3];
    const ParetoSet::PruneOptions options{alpha, false};
    std::vector<const PlanNode*> plans;
    ParetoSet serial;
    for (int i = 0; i < 200; ++i) {
      PlanNode* plan = arena.New<PlanNode>();
      plan->cost = testing::RandomCostVector(&rng, dims);
      plans.push_back(plan);
      serial.Prune(plan, options);
    }
    serial.Seal();
    std::vector<size_t> round_starts;
    for (size_t i = 1; i < plans.size(); ++i) {
      if (rng.NextInt(16) == 0) round_starts.push_back(i);
    }
    EXPECT_EQ(CommitInRounds(plans, round_starts, options), serial.plans())
        << "trial " << trial;
  }
}

TEST_F(ParallelDpTest, DeadlineExpiringMidRoundEndsTimedOutWithPlan) {
  // Expire the run once its first round has ended (a dp.round span is
  // recorded): the top set's remaining rounds see the deadline, its
  // partial set is discarded, and quick mode still yields a plan.
  const Query query = MakeTpcHQuery(&catalog_, 8);
  const CostModel model(&query, &registry_, objectives_);
  ThreadPool pool(3);
  Tracer tracer;
  tracer.SetEnabled(true);
  std::atomic<bool> cancel{false};
  std::atomic<bool> finished{false};
  std::thread watcher([&] {
    while (!finished.load()) {
      if (tracer.ExportChromeTrace().find("\"dp.round\"") !=
          std::string::npos) {
        cancel.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  Arena arena;
  DPPlanGenerator generator(&model, &registry_, &arena);
  DPOptions options;
  options.parallelism = 4;
  options.pool = &pool;
  options.tracer = &tracer;
  options.deadline = Deadline().WithCancel(&cancel);
  const ParetoSet& result = generator.Run(query, options);
  finished.store(true);
  watcher.join();

  EXPECT_TRUE(cancel.load());
  EXPECT_TRUE(generator.stats().timed_out);
  EXPECT_GT(generator.stats().parallel_rounds, 0);
  ASSERT_EQ(result.size(), 1);
  EXPECT_EQ(result.at(0)->tables, query.AllTables());
}

TEST_F(ParallelDpTest, OptimizerParallelMatchesSerial) {
  const Query query = MakeTpcHQuery(&catalog_, 8);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = objectives_;
  problem.weights = WeightVector::Uniform(objectives_.size());

  OptimizerResult serial =
      RTAOptimizer(testing::SmallOptions(1.5)).Optimize(problem);

  ThreadPool pool(3);
  OptimizerOptions parallel_options = testing::SmallOptions(1.5);
  parallel_options.parallelism = 4;
  parallel_options.dp_pool = &pool;
  OptimizerResult parallel = RTAOptimizer(parallel_options).Optimize(problem);

  ASSERT_NE(parallel.plan, nullptr);
  EXPECT_EQ(parallel.frontier(), serial.frontier());
  EXPECT_EQ(parallel.cost, serial.cost);
  EXPECT_DOUBLE_EQ(parallel.weighted_cost, serial.weighted_cost);
  EXPECT_EQ(parallel.metrics.considered_plans,
            serial.metrics.considered_plans);
}

TEST_F(ParallelDpTest, ParallelTimeoutStillYieldsPlan) {
  const Query query = MakeTpcHQuery(&catalog_, 8);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = objectives_;
  problem.weights = WeightVector::Uniform(objectives_.size());

  ThreadPool pool(3);
  OptimizerOptions options = testing::SmallOptions(1.5);
  options.parallelism = 4;
  options.dp_pool = &pool;
  options.timeout_ms = 0;  // Already expired: Section 5.1 quick mode.
  OptimizerResult result = RTAOptimizer(options).Optimize(problem);
  ASSERT_NE(result.plan, nullptr);
  EXPECT_TRUE(result.metrics.timed_out);
  EXPECT_EQ(result.plan->tables, query.AllTables());
}

TEST_F(ParallelDpTest, ServiceParallelismOverrideMatchesSerial) {
  ServiceOptions options;
  options.num_workers = 2;
  options.num_dp_helpers = 2;
  options.enable_cache = false;  // Force both requests through the DP.
  options.enable_subplan_memo = false;
  options.operators = testing::SmallOperatorSpace();
  OptimizationService service(options);

  ServiceRequest request;
  request.spec.query =
      std::make_shared<Query>(MakeTpcHQuery(&catalog_, 8));
  request.spec.objectives = objectives_;
  request.spec.parallelism = 1;
  request.preference.weights = WeightVector::Uniform(objectives_.size());

  ServiceRequest parallel_request = request;
  parallel_request.spec.parallelism = 4;

  const ServiceResponse serial = service.SubmitAndWait(request);
  const ServiceResponse parallel = service.SubmitAndWait(parallel_request);
  ASSERT_EQ(serial.status, ResponseStatus::kCompleted);
  ASSERT_EQ(parallel.status, ResponseStatus::kCompleted);
  ASSERT_NE(serial.result, nullptr);
  ASSERT_NE(parallel.result, nullptr);
  EXPECT_EQ(parallel.result->frontier(), serial.result->frontier());
  EXPECT_DOUBLE_EQ(parallel.result->weighted_cost,
                   serial.result->weighted_cost);
}

TEST(ThreadPoolParallelForTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  std::atomic<int> max_slot{0};
  pool.ParallelFor(kN, /*max_helpers=*/4, [&](int index, int slot) {
    counts[index].fetch_add(1, std::memory_order_relaxed);
    int seen = max_slot.load(std::memory_order_relaxed);
    while (slot > seen &&
           !max_slot.compare_exchange_weak(seen, slot,
                                           std::memory_order_relaxed)) {
    }
  });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
  EXPECT_LE(max_slot.load(), 4);
}

TEST(ThreadPoolParallelForTest, CompletesWithoutHelpers) {
  // A shut-down pool accepts no helper tasks; the caller must still drain
  // the whole batch itself (the no-deadlock property the DP relies on).
  ThreadPool pool(2);
  pool.Shutdown();
  std::vector<int> seen_slot(64, -1);
  pool.ParallelFor(64, /*max_helpers=*/2, [&](int index, int slot) {
    seen_slot[index] = slot;
  });
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(seen_slot[i], 0) << "index " << i;
  }
}

TEST(ThreadPoolParallelForTest, TaskExceptionRethrownOnCallerAfterBarrier) {
  // A throwing task must not escape into a worker thread (std::terminate)
  // or unwind the caller before the barrier: the batch completes, then the
  // first exception resurfaces on the calling thread — so the service's
  // optimizer fence catches parallel-DP failures like serial ones.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.ParallelFor(32, /*max_helpers=*/2,
                       [&](int index, int) {
                         executed.fetch_add(1, std::memory_order_relaxed);
                         if (index == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Barrier held: every index ran (throwing ones still count as done).
  EXPECT_EQ(executed.load(), 32);
}

TEST(ThreadPoolParallelForTest, NestedBatchesDoNotDeadlock) {
  // Batches issued from inside pool tasks share the same pool: caller
  // participation guarantees progress even with every worker occupied.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(8, /*max_helpers=*/2, [&](int outer, int) {
    (void)outer;
    pool.ParallelFor(8, /*max_helpers=*/2, [&](int inner, int) {
      (void)inner;
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolLaneTest, InteractiveLaneAlwaysDequeuesFirst) {
  // Two-lane priority (PR 7): with the single worker parked on a gate
  // task, queue refinement work first, then interactive work. On release
  // every interactive task must run before any refinement task, and order
  // within each lane stays FIFO.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool gate_open = false;
  bool gate_entered = false;
  ASSERT_TRUE(pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    gate_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return gate_open; });
  }));
  {
    // Park the worker on the gate before queueing, so queue depths below
    // count exactly the tasks this test submits.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return gate_entered; });
  }

  std::vector<int> order;
  std::mutex order_mu;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(tag);
    };
  };
  // Refinement tagged 100+, interactive tagged 0+ — submitted AFTER.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(record(100 + i), TaskLane::kRefinement));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.Submit(record(i), TaskLane::kInteractive));
  }
  EXPECT_EQ(pool.QueueDepth(TaskLane::kRefinement), 3u);
  EXPECT_EQ(pool.QueueDepth(TaskLane::kInteractive), 3u);
  {
    std::lock_guard<std::mutex> lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  pool.Shutdown();  // Drains both queues before joining.

  const std::vector<int> expected = {0, 1, 2, 100, 101, 102};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace moqo
