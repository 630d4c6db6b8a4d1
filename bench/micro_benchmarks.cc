// Micro benchmarks (google-benchmark) for the optimizer's hot paths:
// dominance checks, Pareto-set pruning, cost-model combination, the
// pricing of one operand pair's join configs, subset enumeration, and
// end-to-end optimization of small queries — plus the per-request work
// of a plan-cache hit: signature computation and extension, and
// SelectPlan over a cached frontier — the memo and persistence layers:
// all-hit DP re-runs through the subplan memo, and the PlanSet codec over
// a real frontier — and the wire client's read side: one FRONTIER_UPDATE
// split and decoded.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/dp_driver.h"
#include "core/exa.h"
#include "core/pareto_set.h"
#include "core/rta.h"
#include "memo/subplan_memo.h"
#include "model/cost_model.h"
#include "net/wire.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "service/signature.h"
#include "util/random.h"

namespace moqo {
namespace {

CostVector RandomVector(Xoshiro256* rng, int dims) {
  CostVector c(dims);
  for (int i = 0; i < dims; ++i) c[i] = rng->NextDouble() * 100;
  return c;
}

void BM_Dominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Xoshiro256 rng(1);
  const CostVector a = RandomVector(&rng, dims);
  const CostVector b = RandomVector(&rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dominates(a, b));
  }
}
BENCHMARK(BM_Dominates)->Arg(3)->Arg(6)->Arg(9);

void BM_ApproxDominates(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Xoshiro256 rng(2);
  const CostVector a = RandomVector(&rng, dims);
  const CostVector b = RandomVector(&rng, dims);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxDominates(a, b, 1.2));
  }
}
BENCHMARK(BM_ApproxDominates)->Arg(3)->Arg(9);

void BM_ParetoSetPrune(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  const double alpha = state.range(1) / 100.0;
  Xoshiro256 rng(3);
  Arena arena;
  std::vector<PlanNode*> plans;
  for (int i = 0; i < 20000; ++i) {
    PlanNode* plan = arena.New<PlanNode>();
    plan->cost = RandomVector(&rng, dims);
    plans.push_back(plan);
  }
  const ParetoSet::PruneOptions options{alpha, false};
  // The DP's protocol: one check through the caller's rejecter cache, then
  // Insert for a kept plan.
  for (auto _ : state) {
    ParetoSet set;
    ParetoSet::Rejecters hot;
    for (PlanNode* plan : plans) {
      if (set.WouldInsert(plan->cost, options, &hot)) set.Insert(plan, options);
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * plans.size());
}
// {6, 107}: six objectives at alpha_i ~= 1.07, the internal precision of a
// six-table RTA run at alpha = 1.5 (the tpch_cold workload's shape).
BENCHMARK(BM_ParetoSetPrune)
    ->Args({3, 100})
    ->Args({6, 100})
    ->Args({6, 107})
    ->Args({9, 100})
    ->Args({9, 115})
    ->Args({9, 150});

void BM_CostModelCombine(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(0.01);
  Query query = MakeTpcHQuery(&catalog, 3);
  OperatorRegistry registry;
  CostModel model(&query, &registry, ObjectiveSet::All());
  Arena arena;
  const PlanNode* left =
      model.MakeScan(registry.scan_configs()[0], 0, &arena);
  const PlanNode* right =
      model.MakeScan(registry.scan_configs()[0], 1, &arena);
  const auto split = model.AnalyzeSplit(left->tables, right->tables);
  int config = 0;
  const auto& joins = registry.join_configs();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.JoinNode(joins[config % joins.size()], left, right, split));
    ++config;
  }
}
BENCHMARK(BM_CostModelCombine);

// Every join config of one TPC-H (left, right) pair, priced the way the DP
// prices a pair: the operand terms once, then one CombineJoinCost per
// applicable config. Six objectives and the tpch_cold operator space
// (sampling {0.05}, DOP {1, 2}: eight join configs).
void BM_JoinConfigs(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(1.0);
  Query query = MakeTpcHQuery(&catalog, 3);
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05};
  operators.dops = {1, 2};
  OperatorRegistry registry(operators);
  CostModel model(&query, &registry,
                  ObjectiveSet({Objective::kTotalTime, Objective::kIOLoad,
                                Objective::kCores, Objective::kDiskFootprint,
                                Objective::kEnergy, Objective::kTupleLoss}));
  Arena arena;
  const PlanNode* left =
      model.MakeScan(registry.scan_configs()[0], 0, &arena);
  const PlanNode* right =
      model.MakeScan(registry.scan_configs()[0], 1, &arena);
  const CostModel::SplitInfo split =
      model.AnalyzeSplit(left->tables, right->tables);
  long priced = 0;
  for (auto _ : state) {
    const CostModel::JoinOperands operands =
        model.Operands(*left, *right, split);
    for (int config : registry.join_configs()) {
      const OperatorConfig& op = registry.config(config);
      if (!model.JoinApplicableFast(op, split)) continue;
      benchmark::DoNotOptimize(model.CombineJoinCost(op, operands));
      ++priced;
    }
  }
  state.SetItemsProcessed(priced);
}
BENCHMARK(BM_JoinConfigs);

void BM_SubsetEnumeration(benchmark::State& state) {
  const TableSet universe = TableSet::Prefix(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    uint64_t acc = 0;
    for (SubsetIterator it(universe); !it.Done(); it.Next()) {
      acc ^= it.Current().mask();
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_SubsetEnumeration)->Arg(8)->Arg(12)->Arg(16);

void BM_OptimizeTpcH(benchmark::State& state) {
  const int query_number = static_cast<int>(state.range(0));
  const int num_objectives = static_cast<int>(state.range(1));
  Catalog catalog = Catalog::TpcH(0.01);
  Query query = MakeTpcHQuery(&catalog, query_number);
  MOQOProblem problem;
  problem.query = &query;
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  problem.objectives = ObjectiveSet(objectives);
  problem.weights = WeightVector::Uniform(num_objectives);
  OptimizerOptions options;
  options.alpha = 1.5;
  options.operators.sampling_rates = {0.05, 0.01};
  options.operators.dops = {1, 4};
  for (auto _ : state) {
    RTAOptimizer rta(options);
    benchmark::DoNotOptimize(rta.Optimize(problem).weighted_cost);
  }
}
BENCHMARK(BM_OptimizeTpcH)
    ->Args({3, 3})
    ->Args({3, 6})
    ->Args({10, 3})
    ->Args({10, 6})
    ->Unit(benchmark::kMillisecond);

ObjectiveSet FirstObjectives(int num_objectives) {
  return ObjectiveSet(std::vector<Objective>(
      kAllObjectives.begin(), kAllObjectives.begin() + num_objectives));
}

/// The plan-cache signature of an RTA spec on TPC-H query `q`. With
/// `warm` = 1 the query's cached canonical form is reused across
/// iterations (every request after the first); with 0 each iteration
/// signs a never-used copy, which encodes the query from scratch.
void BM_ComputeSignature(benchmark::State& state) {
  const int query_number = static_cast<int>(state.range(0));
  const bool warm = state.range(1) != 0;
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, query_number);
  const ObjectiveSet objectives = FirstObjectives(6);
  const OptimizerOptions options;
  for (auto _ : state) {
    if (warm) {
      benchmark::DoNotOptimize(ComputeSignature(
          query, objectives, AlgorithmKind::kRta, 1.5, options));
    } else {
      const Query fresh = query;
      benchmark::DoNotOptimize(ComputeSignature(
          fresh, objectives, AlgorithmKind::kRta, 1.5, options));
    }
  }
  state.counters["key_bytes"] = static_cast<double>(
      ComputeSignature(query, objectives, AlgorithmKind::kRta, 1.5, options)
          .key.size());
}
BENCHMARK(BM_ComputeSignature)
    ->ArgNames({"q", "warm"})
    ->ArgsProduct({{3, 5, 8}, {0, 1}});

/// Extends a TPC-H Q5 signature with `n` values: n = 1 through the
/// single-value overload (the coalescing identity), n > 1 through the
/// vector overload (a session key: the ladder plus the rung deadline).
void BM_ExtendSignature(benchmark::State& state) {
  const int num_values = static_cast<int>(state.range(0));
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 5);
  const ProblemSignature base = ComputeSignature(
      query, FirstObjectives(6), AlgorithmKind::kRta, 1.5, OptimizerOptions());
  std::vector<double> values;
  for (int i = 0; i < num_values; ++i) values.push_back(4.0 / (1 + i));
  for (auto _ : state) {
    if (num_values == 1) {
      benchmark::DoNotOptimize(ExtendSignature(base, values[0]));
    } else {
      benchmark::DoNotOptimize(ExtendSignature(base, values));
    }
  }
}
BENCHMARK(BM_ExtendSignature)->Arg(1)->Arg(6);

/// Request-time scalarization: SelectPlan over a real RTA frontier
/// (TPC-H Q7, six objectives, alpha 1.5; the `plans` counter reports its
/// size) with a fresh random preference per iteration, as a plan-cache hit
/// does.
void BM_SelectPlan(benchmark::State& state) {
  Catalog catalog = Catalog::TpcH(1.0);
  Query query = MakeTpcHQuery(&catalog, 7);
  constexpr int kObjectives = 6;
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = FirstObjectives(kObjectives);
  problem.weights = WeightVector::Uniform(kObjectives);
  OptimizerOptions options;
  options.alpha = 1.5;
  options.operators.sampling_rates = {0.05};
  options.operators.dops = {1, 2};
  const std::shared_ptr<const PlanSet> frontier =
      RTAOptimizer(options).Optimize(problem).plan_set;
  Xoshiro256 rng(7);
  std::vector<WeightVector> preferences;
  for (int i = 0; i < 64; ++i) {
    WeightVector weights(kObjectives);
    for (int d = 0; d < kObjectives; ++d) weights[d] = rng.NextDouble();
    preferences.push_back(weights);
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectPlan(*frontier, preferences[next++ % preferences.size()]));
  }
  state.counters["plans"] = frontier->size();
}
BENCHMARK(BM_SelectPlan);

/// The bench operator space (one sampling rate, DOP 1 and 2).
OperatorRegistry::Options BenchOperators() {
  OperatorRegistry::Options operators;
  operators.sampling_rates = {0.05};
  operators.dops = {1, 2};
  return operators;
}

/// A memo hit's work, end to end: the DP over TPC-H Q8 (six objectives,
/// bench operator space, RTA 1.5's internal precision) under `warm` after
/// a cold run under `cold` published every set of three or more tables,
/// so each of those is sealed by pricing its entry's candidates again.
/// The `hits` counter reports the sets sealed from the memo per run.
void MemoRerun(benchmark::State& state, const ObjectiveSet& cold,
               const ObjectiveSet& warm) {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 8);
  const OperatorRegistry registry(BenchOperators());
  SubplanMemo memo;
  DPOptions options;
  options.alpha = RTAInternalPrecision(1.5, query.num_tables());
  options.subplan_memo = &memo;
  {
    const CostModel model(&query, &registry, cold);
    Arena arena;
    DPPlanGenerator(&model, &registry, &arena).Run(query, options);
  }
  const CostModel model(&query, &registry, warm);
  long hits = 0;
  for (auto _ : state) {
    Arena arena;
    DPPlanGenerator generator(&model, &registry, &arena);
    benchmark::DoNotOptimize(generator.Run(query, options).size());
    hits = generator.stats().memo_hits;
  }
  state.counters["hits"] = static_cast<double>(hits);
}

/// Re-runs in the cold run's objective order.
void BM_MemoWarmRun(benchmark::State& state) {
  MemoRerun(state, FirstObjectives(6), FirstObjectives(6));
}
BENCHMARK(BM_MemoWarmRun)->Unit(benchmark::kMicrosecond);

/// Re-runs in the reversed order: memo keys name the objective set, so
/// these hit as often as BM_MemoWarmRun's and price in their own order.
void BM_MemoPermutedRun(benchmark::State& state) {
  const std::vector<Objective> order = FirstObjectives(6).objectives();
  MemoRerun(state, FirstObjectives(6),
            ObjectiveSet(std::vector<Objective>(order.rbegin(), order.rend())));
}
BENCHMARK(BM_MemoPermutedRun)->Unit(benchmark::kMicrosecond);

/// TPC-H Q8's RTA frontier (six objectives, alpha 1.5, bench operator
/// space): what a plan-cache record or a snapshot carries.
std::shared_ptr<const PlanSet> Q8Frontier() {
  const Catalog catalog = Catalog::TpcH(1.0);
  const Query query = MakeTpcHQuery(&catalog, 8);
  MOQOProblem problem;
  problem.query = &query;
  problem.objectives = FirstObjectives(6);
  problem.weights = WeightVector::Uniform(6);
  OptimizerOptions options;
  options.alpha = 1.5;
  options.operators = BenchOperators();
  return RTAOptimizer(options).Optimize(problem).plan_set;
}

/// Encoding Q8's frontier as a PlanSet block; `bytes` is its length.
void BM_PlanSetCodecAppend(benchmark::State& state) {
  const std::shared_ptr<const PlanSet> frontier = Q8Frontier();
  std::string block;
  for (auto _ : state) {
    block.clear();
    persist::PlanSetCodec::Append(*frontier, &block);
    benchmark::DoNotOptimize(block.data());
    benchmark::ClobberMemory();
  }
  state.counters["plans"] = frontier->size();
  state.counters["bytes"] = static_cast<double>(block.size());
}
BENCHMARK(BM_PlanSetCodecAppend)->Unit(benchmark::kMicrosecond);

/// Decoding Q8's frontier from its PlanSet block, as a restore does.
void BM_PlanSetCodecDecode(benchmark::State& state) {
  const std::shared_ptr<const PlanSet> frontier = Q8Frontier();
  std::string block;
  persist::PlanSetCodec::Append(*frontier, &block);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        persist::PlanSetCodec::Decode(block.data(), block.size(), nullptr));
  }
  state.counters["plans"] = frontier->size();
  state.counters["bytes"] = static_cast<double>(block.size());
}
BENCHMARK(BM_PlanSetCodecDecode)->Unit(benchmark::kMicrosecond);

/// A wire client's read side for one FRONTIER_UPDATE the size of a
/// wire_anytime rung (10-table chain windows at three objectives, bench
/// operator space, alpha 4 to 1.5: 33-162 plans, 85 on average): a
/// long-lived FrameDecoder is fed the frame, splits it off, and
/// DecodeFrontierUpdate parses its payload. `bytes` is the frame's length.
void BM_FrameDecoder(benchmark::State& state) {
  constexpr int kPlans = 85;
  constexpr uint32_t kDims = 3;
  Xoshiro256 rng(11);
  net::FrontierUpdateMsg update;
  update.step = 3;
  update.alpha = 1.5;
  update.step_ms = 2.0;
  update.dims = kDims;
  for (uint32_t i = 0; i < kPlans * kDims; ++i) {
    update.costs.push_back(rng.NextDouble() * 1e4);
  }
  const std::string frame = net::EncodeFrontierUpdate(update);
  net::FrameDecoder decoder;
  net::MsgType type;
  std::vector<uint8_t> payload;
  net::FrontierUpdateMsg decoded;
  for (auto _ : state) {
    decoder.Feed(frame.data(), frame.size());
    if (decoder.Next(&type, &payload) != net::FrameDecoder::Status::kFrame ||
        !net::DecodeFrontierUpdate(payload.data(), payload.size(),
                                   &decoded)) {
      state.SkipWithError("the frame did not decode");
      break;
    }
    benchmark::DoNotOptimize(decoded.costs.data());
    benchmark::ClobberMemory();
  }
  state.counters["plans"] = kPlans;
  state.counters["bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_FrameDecoder);

}  // namespace
}  // namespace moqo
