// Copyright (c) 2026 moqo authors. MIT license.
//
// The two in-process TPC-H workloads.
//
// tpch_cold: one closed-loop client sends a seeded, never-repeating stream
// of six-objective specs over the ten TPC-H queries with >= 3 tables. Every
// request misses the plan cache, so the time goes to the RTA's DP, the cost
// model and the dominance kernel. Requests alternate between SubmitAndWait
// and Submit().get(), the two request paths of the service.
//
// tpch_hot: three closed-loop clients send fresh preferences over a small
// warmed working set. Every request is a cache hit, so the time goes to
// service dispatch, the plan-cache probe and SelectPlan.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "catalog/catalog.h"
#include "core/dp_driver.h"
#include "core/plan_set.h"
#include "core/rta.h"
#include "frontier/frontier.h"
#include "model/cost_model.h"
#include "persist/plan_set_codec.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"
#include "util/arena.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::CacheOutcome;
using moqo::Catalog;
using moqo::ObjectiveSet;
using moqo::OptimizationService;
using moqo::PlanSet;
using moqo::Query;
using moqo::ServiceOptions;
using moqo::ServiceRequest;
using moqo::ServiceResponse;
using moqo::WeightVector;

constexpr double kAlpha = 1.5;          // The policy's default precision.
constexpr double kScaleFactor = 0.01;   // TPC-H SF of the catalog.
constexpr int kSetupRepeats = 25;       // Set-ups per run (median reported).
constexpr int kHotSetupRepeats = 3;     // Hot set-up includes the warm-up.
constexpr int kHotClients = 3;          // nproc - 1 on the reference host.
constexpr int kHotSubsetsPerQuery = 8;  // Working set: 10 x 8 = 80 specs.
/// Hot operations per --seconds unit (about one second of work on a
/// 4-core host); the count, not the clock, fixes a run's work.
constexpr int kHotOpsPerSecond = 40000;
/// One cold pass takes about this many seconds of work; --seconds sets the
/// number of passes.
constexpr int kColdPassSeconds = 15;

int DpThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// A spec of the TPC-H streams: the query is shared, the objective order is
/// the spec's own.
struct TpchSpec {
  std::shared_ptr<const Query> query;
  ObjectiveSet objectives;
};

std::map<int, std::shared_ptr<const Query>> BuildQueries(
    const Catalog* catalog) {
  std::map<int, std::shared_ptr<const Query>> queries;
  for (int number : BigTpcHQueries()) {
    queries[number] =
        std::make_shared<const Query>(moqo::MakeTpcHQuery(catalog, number));
  }
  return queries;
}

ServiceRequest MakeRequest(const TpchSpec& spec, WeightVector weights) {
  ServiceRequest request;
  request.spec.query = spec.query;
  request.spec.objectives = spec.objectives;
  request.preference.weights = std::move(weights);
  return request;
}

WeightVector RandomWeights(int size, moqo::Xoshiro256* rng) {
  WeightVector weights(size);
  for (int i = 0; i < size; ++i) weights[i] = rng->NextDouble(0.05, 1.0);
  return weights;
}

/// Frontiers compared byte for byte through the snapshot codec, which
/// encodes every plan tree and every cost bit.
bool SameFrontier(const PlanSet& a, const PlanSet& b) {
  std::string bytes_a, bytes_b;
  moqo::persist::PlanSetCodec::Append(a, &bytes_a);
  moqo::persist::PlanSetCodec::Append(b, &bytes_b);
  return bytes_a == bytes_b;
}

/// The direct core call the service makes for `spec` (same precision,
/// operator space and parallelism as the policy picks), without service,
/// cache or memo.
moqo::OptimizerOptions CoreOptions(const TpchSpec& spec, moqo::ThreadPool* pool) {
  moqo::OptimizerOptions options;
  options.alpha = kAlpha;
  options.operators = BenchOperatorSpace();
  if (pool != nullptr && spec.query->num_tables() >= 7) {
    options.parallelism = DpThreads();
    options.dp_pool = pool;
  }
  return options;
}

moqo::OptimizerResult RunCore(const TpchSpec& spec, moqo::ThreadPool* pool) {
  moqo::MOQOProblem problem;
  problem.query = spec.query.get();
  problem.objectives = spec.objectives;
  problem.weights = WeightVector::Uniform(spec.objectives.size());
  return moqo::RTAOptimizer(CoreOptions(spec, pool)).Optimize(problem);
}

/// Checks every frontier against the enumeration truth (3-table queries)
/// or a direct serial core run (byte identity), on up to four threads.
/// `frontiers[i]` is the service's frontier for `specs[i]`.
void CheckFrontiers(const std::vector<TpchSpec>& specs,
                    const std::vector<std::shared_ptr<const PlanSet>>& frontiers,
                    const std::vector<uint64_t>& op_ids, Failures* failures,
                    CoverageTally* coverage) {
  std::vector<size_t> small, large;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (frontiers[i] == nullptr) continue;  // Already failed.
    (specs[i].query->num_tables() <= kMaxNaiveTables ? small : large)
        .push_back(i);
  }
  // Heaviest first so the threads finish together.
  std::sort(large.begin(), large.end(), [&specs](size_t a, size_t b) {
    return specs[a].query->num_tables() > specs[b].query->num_tables();
  });
  std::atomic<size_t> next{0};
  auto byte_identity = [&] {
    for (size_t k = next.fetch_add(1); k < large.size(); k = next.fetch_add(1)) {
      const size_t i = large[k];
      const moqo::OptimizerResult direct = RunCore(specs[i], nullptr);
      if (direct.plan_set == nullptr ||
          !SameFrontier(*direct.plan_set, *frontiers[i])) {
        failures->Fail(op_ids[i], "frontier differs from a direct serial run");
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < DpThreads(); ++t) threads.emplace_back(byte_identity);
  for (size_t i : small) {
    const double alpha = moqo::CoverageAlpha(
        frontiers[i]->costs(),
        NaiveFrontier(*specs[i].query, specs[i].objectives));
    coverage->Add(alpha);
    if (!(alpha <= kAlpha * (1 + 1e-9))) {
      failures->Fail(op_ids[i], "coverage alpha " + std::to_string(alpha) +
                                    " above " + std::to_string(kAlpha));
    }
  }
  byte_identity();
  for (std::thread& thread : threads) thread.join();
}

// ---------------------------------------------------------------- cold --

ServiceOptions ColdServiceOptions() {
  ServiceOptions options;
  options.num_workers = 1;  // One closed-loop client.
  options.num_dp_helpers = DpThreads() - 1;
  options.policy.max_parallelism = DpThreads();
  options.operators = BenchOperatorSpace();
  return options;
}

/// Per pass: every six-of-nine subset of the nine smaller queries in two
/// distinct seeded orders, plus half of Q8's subsets (alternating halves
/// between passes) in one; Q8 alone would otherwise take most of the run.
/// The multiset of (query, subset) pairs, and so the DP work, does not
/// depend on the seed, which picks the orders and the sequence. No ordered
/// spec repeats.
std::vector<TpchSpec> BuildColdStream(const Catalog* catalog, uint64_t seed,
                                      int passes) {
  const auto queries = BuildQueries(catalog);
  moqo::Xoshiro256 rng(MixSeed(seed, 1));
  std::set<std::pair<int, std::vector<moqo::Objective>>> used;
  std::vector<TpchSpec> stream;
  const std::vector<uint32_t>& masks = SixOfNineMasks();
  for (int pass = 0; pass < passes; ++pass) {
    for (int number : BigTpcHQueries()) {
      for (size_t m = 0; m < masks.size(); ++m) {
        const int copies =
            number == 8 ? (static_cast<int>(m % 2) == pass % 2 ? 1 : 0) : 2;
        for (int c = 0; c < copies; ++c) {
          TpchSpec spec{queries.at(number), {}};
          do {
            spec.objectives = OrderedObjectives(masks[m], &rng);
          } while (!used.emplace(number, spec.objectives.objectives()).second);
          stream.push_back(std::move(spec));
        }
      }
    }
  }
  for (size_t i = stream.size() - 1; i > 0; --i) {
    std::swap(stream[i], stream[rng.NextInt(static_cast<uint64_t>(i + 1))]);
  }
  return stream;
}

struct ColdPass {
  double wall_ms = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<std::shared_ptr<const PlanSet>> frontiers;
  long considered_plans = 0;
  uint64_t frontier_plans = 0;
};

/// The timed loop. Request i uses SubmitAndWait when i is even and
/// Submit().get() when odd; every response must be a completed cache miss
/// with a plan.
ColdPass RunColdPass(OptimizationService* service,
                     const std::vector<TpchSpec>& stream, uint64_t op_base,
                     SpanLog* spans, Failures* failures) {
  std::vector<ServiceRequest> requests;
  requests.reserve(stream.size());
  for (const TpchSpec& spec : stream) {
    requests.push_back(
        MakeRequest(spec, WeightVector::Uniform(spec.objectives.size())));
  }
  ColdPass pass;
  pass.latency_ms.reserve(stream.size());
  pass.frontiers.resize(stream.size());
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    const uint64_t op = op_base + i;
    ServiceResponse response;
    const Clock::time_point sent = Clock::now();
    {
      ScopedSpan op_span(spans, "tpch_cold.op", op);
      if (i % 2 == 0) {
        ScopedSpan span(spans, "service.submit_and_wait", op);
        response = service->SubmitAndWait(requests[i]);
      } else {
        std::future<ServiceResponse> future;
        {
          ScopedSpan span(spans, "service.submit", op);
          future = service->Submit(requests[i]);
        }
        ScopedSpan span(spans, "service.future_get", op);
        response = future.get();
      }
    }
    pass.latency_ms.push_back(MsSince(sent));
    pass.queue_ms.push_back(response.queue_ms);
    if (response.status != moqo::ResponseStatus::kCompleted ||
        response.result == nullptr || response.result->plan == nullptr ||
        response.plan_set() == nullptr) {
      failures->Fail(op, "rejected, degraded or planless response");
      continue;
    }
    if (response.cache != CacheOutcome::kMiss) {
      failures->Fail(op, "cold request was not a cache miss");
    }
    pass.frontiers[i] = response.plan_set();
    pass.considered_plans += response.result->metrics.considered_plans;
    pass.frontier_plans += response.plan_set()->size();
  }
  pass.wall_ms = MsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  return pass;
}

struct Setup {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<OptimizationService> service;
};

/// Builds catalog + service kSetupRepeats times; returns the last build and
/// sets the median build time.
Setup RepeatColdSetup(double* median_s) {
  std::vector<double> seconds;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    setup = Setup{};  // Tear down the previous build outside the timing.
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    setup.catalog = std::make_unique<Catalog>(Catalog::TpcH(kScaleFactor));
    setup.service = std::make_unique<OptimizationService>(ColdServiceOptions());
    seconds.push_back(MsSince(start) / 1000.0);
  }
  *median_s = *Median(seconds);
  return setup;
}

void AddServiceCounts(const OptimizationService& service, Report* report) {
  const moqo::SubplanMemo::Stats memo = service.MemoStats();
  const moqo::ServiceStatsSnapshot stats = service.Stats();
  report->counts.push_back({"memo.hits", static_cast<double>(memo.hits)});
  report->counts.push_back({"memo.misses", static_cast<double>(memo.misses)});
  report->counts.push_back(
      {"memo.insertions", static_cast<double>(memo.insertions)});
  report->counts.push_back(
      {"service.cache_evictions", static_cast<double>(stats.cache_evictions)});
}

void AddPassCounts(const ColdPass& pass, Report* report) {
  report->counts.push_back(
      {"core.considered_plans", static_cast<double>(pass.considered_plans)});
  report->counts.push_back(
      {"core.frontier_plans_mean",
       static_cast<double>(pass.frontier_plans) / pass.latency_ms.size()});
}

/// Per-operation time of a two-call path (e.g. Submit then future.get()).
std::vector<double> PathTimes(const std::map<std::string, SpanSummary>& summary,
                              const std::string& first,
                              const std::string& second) {
  std::vector<double> out;
  auto a = summary.find(first);
  auto b = summary.find(second);
  if (a == summary.end() || b == summary.end()) return out;
  for (size_t i = 0; i < a->second.durations_ms.size() &&
                     i < b->second.durations_ms.size();
       ++i) {
    out.push_back(a->second.durations_ms[i] + b->second.durations_ms[i]);
  }
  return out;
}


// ----------------------------------------------------------------- hot --

ServiceOptions HotServiceOptions() {
  ServiceOptions options = ColdServiceOptions();
  options.num_workers = 1;  // Warm-up only: hits are served on the caller.
  return options;
}

/// One warmed spec: its warm preference and the responses that warmed it.
struct HotEntry {
  TpchSpec spec;
  WeightVector warm_weights;
  std::shared_ptr<const moqo::OptimizerResult> warm;
  /// IRA result for the same spec and warm weights (<= 4-table specs only).
  std::shared_ptr<const moqo::OptimizerResult> warm_ira;
};

/// Per query, kHotSubsetsPerQuery subsets spread evenly over the 84 (the
/// same for every seed, so the warm-up work is too); the seed picks the
/// objective orders and warm weights.
std::vector<HotEntry> BuildHotWorkingSet(const Catalog* catalog,
                                         uint64_t seed) {
  const auto queries = BuildQueries(catalog);
  moqo::Xoshiro256 rng(MixSeed(seed, 2));
  const std::vector<uint32_t>& masks = SixOfNineMasks();
  std::vector<HotEntry> entries;
  for (int number : BigTpcHQueries()) {
    for (int k = 0; k < kHotSubsetsPerQuery; ++k) {
      HotEntry entry;
      entry.spec = {queries.at(number),
                    OrderedObjectives(masks[k * masks.size() /
                                            kHotSubsetsPerQuery],
                                      &rng)};
      entry.warm_weights = RandomWeights(6, &rng);
      entries.push_back(std::move(entry));
    }
  }
  return entries;
}

ServiceRequest IraRequest(const HotEntry& entry) {
  ServiceRequest request = MakeRequest(entry.spec, entry.warm_weights);
  request.spec.algorithm = moqo::AlgorithmKind::kIra;
  request.spec.alpha = kAlpha;
  return request;
}

/// Optimizes every working-set spec once (and IRA on the small ones).
void WarmUp(OptimizationService* service, std::vector<HotEntry>* entries,
            Failures* failures) {
  for (size_t i = 0; i < entries->size(); ++i) {
    HotEntry& entry = (*entries)[i];
    const ServiceResponse response =
        service->SubmitAndWait(MakeRequest(entry.spec, entry.warm_weights));
    if (response.status != moqo::ResponseStatus::kCompleted ||
        response.result == nullptr || response.result->plan == nullptr) {
      failures->Fail(~uint64_t{0} - i, "warm-up request failed");
      continue;
    }
    entry.warm = response.result;
    if (entry.spec.query->num_tables() <= 4) {
      const ServiceResponse ira = service->SubmitAndWait(IraRequest(entry));
      if (ira.status != moqo::ResponseStatus::kCompleted ||
          ira.result == nullptr || ira.result->plan == nullptr) {
        failures->Fail(~uint64_t{0} - i, "IRA warm-up request failed");
        continue;
      }
      entry.warm_ira = ira.result;
    }
  }
}

enum class HotKind : uint8_t { kFresh, kExact, kSubmitGet, kIra };

/// Fixed shares per eight operations: 1 exact repeat of the warm
/// preference, 2 Submit().get() with a fresh preference, 1 IRA repeat,
/// 4 SubmitAndWait with a fresh preference.
HotKind KindOf(uint64_t j) {
  switch (j % 8) {
    case 0: return HotKind::kExact;
    case 1: case 5: return HotKind::kSubmitGet;
    case 3: return HotKind::kIra;
    default: return HotKind::kFresh;
  }
}

/// What one hot operation returned, kept for the checks after the loop.
struct HotRecord {
  uint32_t entry = 0;
  CacheOutcome outcome = CacheOutcome::kMiss;
  bool ok = false;
  const PlanSet* plan_set = nullptr;
  const moqo::PlanNode* plan = nullptr;
};

/// One client's operation stream. Replaying it with the same seed yields
/// the same (entry, weights) sequence, which the checks rely on.
class HotStream {
 public:
  HotStream(uint64_t seed, int client, const std::vector<HotEntry>& entries,
            const std::vector<uint32_t>& ira_entries)
      : rng_(MixSeed(seed, 100 + client)),
        entries_(entries),
        ira_entries_(ira_entries) {}

  /// Entry index and preference of operation `j` (call with j = 0, 1, ...).
  std::pair<uint32_t, WeightVector> Next(uint64_t j) {
    const HotKind kind = KindOf(j);
    if (kind == HotKind::kIra) {
      const uint32_t entry = ira_entries_[rng_.NextInt(ira_entries_.size())];
      return {entry, entries_[entry].warm_weights};
    }
    const uint32_t entry =
        static_cast<uint32_t>(rng_.NextInt(entries_.size()));
    if (kind == HotKind::kExact) return {entry, entries_[entry].warm_weights};
    return {entry, RandomWeights(entries_[entry].spec.objectives.size(), &rng_)};
  }

 private:
  moqo::Xoshiro256 rng_;
  const std::vector<HotEntry>& entries_;
  const std::vector<uint32_t>& ira_entries_;
};

struct HotPass {
  double wall_ms = 0;
  double cpu_s = 0;
  std::vector<std::vector<double>> latency_ms;  // [client][op]
  std::vector<std::vector<HotRecord>> records;  // [client][op]
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

HotPass RunHotPass(OptimizationService* service,
                   const std::vector<HotEntry>& entries,
                   const std::vector<uint32_t>& ira_entries, uint64_t seed,
                   uint64_t ops_per_client, uint64_t op_base,
                   std::vector<std::unique_ptr<SpanLog>>* spans) {
  HotPass pass;
  pass.latency_ms.resize(kHotClients);
  pass.records.resize(kHotClients);
  const moqo::ServiceStatsSnapshot before = service->Stats();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kHotClients; ++c) {
    clients.emplace_back([&, c] {
      SpanLog* log = spans->empty() ? nullptr : (*spans)[c].get();
      HotStream stream(seed, c, entries, ira_entries);
      std::vector<double>& latency = pass.latency_ms[c];
      std::vector<HotRecord>& records = pass.records[c];
      latency.reserve(ops_per_client);
      records.reserve(ops_per_client);
      for (uint64_t j = 0; j < ops_per_client; ++j) {
        const uint64_t op = op_base + c * ops_per_client + j;
        auto [entry, weights] = stream.Next(j);
        const HotKind kind = KindOf(j);
        ServiceRequest request =
            kind == HotKind::kIra
                ? IraRequest(entries[entry])
                : MakeRequest(entries[entry].spec, std::move(weights));
        ServiceResponse response;
        const Clock::time_point sent = Clock::now();
        {
          ScopedSpan op_span(log, "tpch_hot.op", op);
          if (kind == HotKind::kSubmitGet) {
            std::future<ServiceResponse> future;
            {
              ScopedSpan span(log, "service.submit", op);
              future = service->Submit(std::move(request));
            }
            ScopedSpan span(log, "service.future_get", op);
            response = future.get();
          } else {
            ScopedSpan span(log, "service.submit_and_wait", op);
            response = service->SubmitAndWait(std::move(request));
          }
        }
        latency.push_back(MsSince(sent));
        HotRecord record;
        record.entry = entry;
        record.outcome = response.cache;
        record.ok = response.status == moqo::ResponseStatus::kCompleted &&
                    response.result != nullptr &&
                    response.result->plan != nullptr;
        if (record.ok) {
          record.plan_set = response.result->plan_set.get();
          record.plan = response.result->plan;
        }
        records.push_back(record);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  pass.wall_ms = MsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  const moqo::ServiceStatsSnapshot after = service->Stats();
  pass.cache_hits = after.cache_hits - before.cache_hits;
  pass.cache_misses = after.cache_misses - before.cache_misses;
  return pass;
}

/// Checks every hot operation after the loop: completed with a plan, the
/// expected cache outcome, the warmed frontier, and the plan the
/// preference selects (a direct SelectPlan over the same frontier). With
/// `select_spans`, each direct SelectPlan of a fresh SubmitAndWait is
/// timed as "core.select_plan".
void CheckHotPass(const HotPass& pass, const std::vector<HotEntry>& entries,
                  const std::vector<uint32_t>& ira_entries, uint64_t seed,
                  uint64_t op_base, Failures* failures,
                  SpanLog* select_spans) {
  const uint64_t ops_per_client = pass.records[0].size();
  for (int c = 0; c < kHotClients; ++c) {
    HotStream stream(seed, c, entries, ira_entries);
    for (uint64_t j = 0; j < pass.records[c].size(); ++j) {
      const uint64_t op = op_base + c * ops_per_client + j;
      const auto [entry_index, weights] = stream.Next(j);
      const HotRecord& record = pass.records[c][j];
      const HotEntry& entry = entries[entry_index];
      const HotKind kind = KindOf(j);
      if (!record.ok) {
        failures->Fail(op, "rejected or planless response");
        continue;
      }
      const bool repeat = kind == HotKind::kExact || kind == HotKind::kIra;
      const CacheOutcome expected =
          repeat ? CacheOutcome::kExactHit : CacheOutcome::kFrontierHit;
      if (record.outcome != expected) {
        failures->Fail(op, "unexpected cache outcome");
        continue;
      }
      const moqo::OptimizerResult& warm =
          kind == HotKind::kIra ? *entry.warm_ira : *entry.warm;
      if (record.plan_set != warm.plan_set.get()) {
        failures->Fail(op, "hit served a frontier other than the warmed one");
        continue;
      }
      if (repeat) {
        if (record.plan != warm.plan) failures->Fail(op, "repeat changed plan");
        continue;
      }
      moqo::PlanSelection selection;
      {
        ScopedSpan span(kind == HotKind::kFresh ? select_spans : nullptr,
                        "core.select_plan", op);
        selection = moqo::SelectPlan(*record.plan_set, weights);
      }
      if (selection.plan != record.plan) {
        failures->Fail(op, "selected plan differs from SelectPlan");
      }
    }
  }
}

void BuildHotSetup(uint64_t seed, Setup* setup, std::vector<HotEntry>* entries,
                   Failures* failures, double* seconds) {
  const Clock::time_point start = Clock::now();
  setup->catalog = std::make_unique<Catalog>(Catalog::TpcH(kScaleFactor));
  setup->service = std::make_unique<OptimizationService>(HotServiceOptions());
  double ms = MsSince(start);
  // Input generation is not set-up work.
  *entries = BuildHotWorkingSet(setup->catalog.get(), seed);
  const Clock::time_point warm = Clock::now();
  WarmUp(setup->service.get(), entries, failures);
  ms += MsSince(warm);
  *seconds = ms / 1000.0;
}

}  // namespace

Report RunTpchCold(const RunConfig& config) {
  Report report;
  Failures failures;
  MetricSink sink(&report.metrics);
  const int passes = std::max(1, (config.seconds + kColdPassSeconds / 2) /
                                     kColdPassSeconds);
  double setup_s = 0;
  Setup setup = RepeatColdSetup(&setup_s);
  const std::vector<TpchSpec> stream =
      BuildColdStream(setup.catalog.get(), config.seed, passes);
  const double ops = static_cast<double>(stream.size());
  std::vector<uint64_t> op_ids(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) op_ids[i] = i;
  report.counts.push_back({"stream_specs", ops});

  CoverageTally coverage;
  if (!config.trace) {
    const ColdPass pass =
        RunColdPass(setup.service.get(), stream, 0, nullptr, &failures);
    const double rss_mb = PeakRssMb();
    AddServiceCounts(*setup.service, &report);
    CheckFrontiers(stream, pass.frontiers, op_ids, &failures, &coverage);
    report.attempted = stream.size();
    report.failed = failures.count();
    sink.Add("setup_s", setup_s);
    sink.Add("throughput_ops_s", ops / (pass.wall_ms / 1000.0));
    sink.AddPercentile("latency_p50_ms", pass.latency_ms, 50);
    // The one-shot request paths publish their only frontier with the
    // response, so on this workload the first frontier is the response.
    sink.AddPercentile("first_frontier_p50_ms", pass.latency_ms, 50);
    sink.Add("rss_peak_mb", rss_mb);
    sink.Add("ok_ratio", 1.0 - *FailureShare(report.failed, report.attempted));
    sink.Add("coverage_alpha_max", coverage.alpha_max);
    AddPassCounts(pass, &report);
  } else {
    // Untraced pass on its own service: the reference for the tracing
    // overhead and the process CPU per operation.
    const ColdPass plain =
        RunColdPass(setup.service.get(), stream, 0, nullptr, &failures);
    setup.service = std::make_unique<OptimizationService>(ColdServiceOptions());
    SpanLog spans(0, Clock::now());
    const uint64_t base = stream.size();
    for (uint64_t& id : op_ids) id += base;
    const ColdPass traced =
        RunColdPass(setup.service.get(), stream, base, &spans, &failures);
    const moqo::ServiceStatsSnapshot stats = setup.service->Stats();
    const moqo::SubplanMemo::Stats memo = setup.service->MemoStats();
    AddServiceCounts(*setup.service, &report);
    AddPassCounts(traced, &report);

    // The same specs through the core directly, on a benchmark-owned pool.
    moqo::ThreadPool pool(DpThreads() - 1);
    for (size_t i = 0; i < stream.size(); ++i) {
      ScopedSpan span(&spans, "core.optimize", base + i);
      RunCore(stream[i], &pool);
    }
    // Barrier attribution over the specs whose DP levels fan out.
    double barrier_wait_us = 0;
    double slot_us = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
      const TpchSpec& spec = stream[i];
      const int n = spec.query->num_tables();
      if (n < 7) continue;
      moqo::OperatorRegistry registry(BenchOperatorSpace());
      moqo::CostModel model(spec.query.get(), &registry, spec.objectives);
      moqo::Arena arena;
      moqo::DPPlanGenerator generator(&model, &registry, &arena);
      moqo::DPOptions dp;
      dp.alpha = moqo::RTAInternalPrecision(kAlpha, n);
      dp.parallelism = DpThreads();
      dp.pool = &pool;
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(&spans, "core.dp_run", base + i);
        generator.Run(*spec.query, dp);
      }
      slot_us += MsSince(start) * 1000.0 * DpThreads();
      barrier_wait_us += generator.stats().barrier_wait_us;
    }
    CheckFrontiers(stream, traced.frontiers, op_ids, &failures, &coverage);
    report.attempted = 2 * stream.size();
    report.failed = failures.count();

    const auto summary = Summarize({&spans});
    std::printf("%s", FormatSummary(summary).c_str());
    WriteTrace({&spans}, config, &report);
    sink.AddPercentile("e2e.latency_ms_p99", plain.latency_ms, 99);
    sink.AddPercentile("service.queue_ms_p99", traced.queue_ms, 99);
    sink.AddPercentile("service.submit_and_wait_ms_p50",
                       summary.at("service.submit_and_wait").durations_ms, 50);
    sink.AddPercentile("service.submit_get_ms_p50",
                       PathTimes(summary, "service.submit",
                                 "service.future_get"),
                       50);
    sink.Add("service.cache_hit_ratio", stats.CacheHitRate());
    sink.Add("service.cache_evictions",
             static_cast<double>(stats.cache_evictions));
    sink.AddPercentile("core.optimize_ms_p50",
                       summary.at("core.optimize").durations_ms, 50);
    sink.AddPercentile("core.optimize_ms_p99",
                       summary.at("core.optimize").durations_ms, 99);
    sink.Add("core.considered_plans",
             static_cast<double>(traced.considered_plans));
    sink.Add("core.frontier_plans_mean", traced.frontier_plans / ops);
    sink.Add("core.barrier_wait_share",
             slot_us > 0 ? barrier_wait_us / slot_us : 0);
    sink.Add("memo.hit_ratio", memo.HitRate());
    sink.Add("memo.bytes", static_cast<double>(memo.bytes));
    sink.Add("memo.evictions", static_cast<double>(memo.evictions));
    sink.Add("pool.queue_wait_ms_p99", stats.pool_queue_wait.PercentileMs(99));
    sink.Add("proc.cpu_ms_per_op", plain.cpu_s * 1000.0 / ops);
    sink.Add("trace.overhead_pct",
             (traced.wall_ms / plain.wall_ms - 1.0) * 100.0);
  }
  report.errors.insert(report.errors.end(), sink.errors().begin(),
                       sink.errors().end());
  failures.PrintSample();
  return report;
}


Report RunTpchHot(const RunConfig& config) {
  Report report;
  Failures failures;
  MetricSink sink(&report.metrics);
  const uint64_t ops_per_client =
      static_cast<uint64_t>(config.seconds) * kHotOpsPerSecond / kHotClients;
  const uint64_t ops = ops_per_client * kHotClients;

  Setup setup;
  std::vector<HotEntry> entries;
  std::vector<double> setup_seconds;
  for (int r = 0; r < (config.trace ? 1 : kHotSetupRepeats); ++r) {
    setup = Setup{};
    entries.clear();
    ReleaseFreedMemory();
    double seconds = 0;
    BuildHotSetup(config.seed, &setup, &entries, &failures, &seconds);
    setup_seconds.push_back(seconds);
  }
  std::vector<uint32_t> ira_entries;
  for (uint32_t i = 0; i < entries.size(); ++i) {
    if (entries[i].warm_ira != nullptr) ira_entries.push_back(i);
  }
  if (failures.count() != 0 || ira_entries.empty()) {
    failures.PrintSample();
    report.errors.push_back("warm-up failed");
    return report;
  }
  long warm_considered = 0;
  for (const HotEntry& entry : entries) {
    warm_considered += entry.warm->metrics.considered_plans;
  }
  report.counts.push_back({"working_set_specs", static_cast<double>(entries.size())});
  report.counts.push_back({"warm.considered_plans", static_cast<double>(warm_considered)});

  auto frontier_plans_mean = [](const HotPass& pass) {
    double plans = 0, n = 0;
    for (const auto& records : pass.records) {
      for (const HotRecord& record : records) {
        if (record.plan_set != nullptr) plans += record.plan_set->size();
        ++n;
      }
    }
    return n > 0 ? plans / n : 0;
  };
  auto all_latencies = [](const HotPass& pass) {
    std::vector<double> out;
    for (const auto& latency : pass.latency_ms) {
      out.insert(out.end(), latency.begin(), latency.end());
    }
    return out;
  };

  // Coverage and byte identity of the warmed frontiers.
  std::vector<TpchSpec> specs;
  std::vector<std::shared_ptr<const PlanSet>> frontiers;
  std::vector<uint64_t> check_ids;
  for (size_t i = 0; i < entries.size(); ++i) {
    specs.push_back(entries[i].spec);
    frontiers.push_back(entries[i].warm->plan_set);
    check_ids.push_back(~uint64_t{0} - i);
  }

  CoverageTally coverage;
  if (!config.trace) {
    std::vector<std::unique_ptr<SpanLog>> no_spans;
    const HotPass pass = RunHotPass(setup.service.get(), entries, ira_entries,
                                    config.seed, ops_per_client, 0, &no_spans);
    const double rss_mb = PeakRssMb();
    CheckHotPass(pass, entries, ira_entries, config.seed, 0, &failures,
                 nullptr);
    CheckFrontiers(specs, frontiers, check_ids, &failures, &coverage);
    report.attempted = ops;
    report.failed = failures.count();
    const std::vector<double> latency = all_latencies(pass);
    sink.Add("setup_s", *Median(setup_seconds));
    sink.Add("throughput_ops_s", ops / (pass.wall_ms / 1000.0));
    sink.AddPercentile("latency_p50_ms", latency, 50);
    // One-shot paths: the first frontier arrives with the response.
    sink.AddPercentile("first_frontier_p50_ms", latency, 50);
    sink.Add("rss_peak_mb", rss_mb);
    sink.Add("ok_ratio", 1.0 - *FailureShare(report.failed, report.attempted));
    sink.Add("coverage_alpha_max", coverage.alpha_max);
    report.counts.push_back({"core.frontier_plans_mean", frontier_plans_mean(pass)});
  } else {
    std::vector<std::unique_ptr<SpanLog>> no_spans;
    const HotPass plain = RunHotPass(setup.service.get(), entries, ira_entries,
                                     config.seed, ops_per_client, 0, &no_spans);
    CheckHotPass(plain, entries, ira_entries, config.seed, 0, &failures,
                 nullptr);
    const Clock::time_point epoch = Clock::now();
    std::vector<std::unique_ptr<SpanLog>> spans;
    for (int c = 0; c <= kHotClients; ++c) {
      spans.push_back(std::make_unique<SpanLog>(c, epoch));
    }
    const HotPass traced = RunHotPass(setup.service.get(), entries, ira_entries,
                                      config.seed, ops_per_client, ops, &spans);
    SpanLog* checker = spans[kHotClients].get();
    CheckHotPass(traced, entries, ira_entries, config.seed, ops, &failures,
                 checker);
    CheckFrontiers(specs, frontiers, check_ids, &failures, &coverage);
    report.attempted = 2 * ops;
    report.failed = failures.count();

    std::vector<const SpanLog*> logs;
    for (const auto& log : spans) logs.push_back(log.get());
    const auto summary = Summarize(logs);
    std::printf("%s", FormatSummary(summary).c_str());
    WriteTrace(logs, config, &report);
    // Dispatch: the service call minus a direct SelectPlan of the same
    // preference over the same frontier.
    const std::map<uint64_t, double> calls =
        DurationsByOp(logs, "service.submit_and_wait");
    const std::map<uint64_t, double> selects =
        DurationsByOp(logs, "core.select_plan");
    std::vector<double> dispatch_us, select_us;
    for (const auto& [op, select_ms] : selects) {
      select_us.push_back(select_ms * 1000.0);
      auto it = calls.find(op);
      if (it != calls.end()) dispatch_us.push_back((it->second - select_ms) * 1000.0);
    }
    const moqo::ServiceStatsSnapshot stats = setup.service->Stats();
    const moqo::SubplanMemo::Stats memo = setup.service->MemoStats();
    sink.AddPercentile("e2e.latency_ms_p99", all_latencies(plain), 99);
    sink.AddPercentile("service.dispatch_us_p50", dispatch_us, 50);
    sink.AddPercentile("core.select_us_p50", select_us, 50);
    sink.AddPercentile("service.submit_and_wait_ms_p50",
                       summary.at("service.submit_and_wait").durations_ms, 50);
    sink.AddPercentile("service.submit_get_ms_p50",
                       PathTimes(summary, "service.submit",
                                 "service.future_get"),
                       50);
    const double lookups = traced.cache_hits + traced.cache_misses;
    sink.Add("service.cache_hit_ratio",
             lookups > 0 ? traced.cache_hits / lookups : 0);
    sink.Add("service.cache_evictions",
             static_cast<double>(stats.cache_evictions));
    sink.Add("core.considered_plans", static_cast<double>(warm_considered));
    sink.Add("core.frontier_plans_mean", frontier_plans_mean(traced));
    sink.Add("memo.hit_ratio", memo.HitRate());
    sink.Add("memo.bytes", static_cast<double>(memo.bytes));
    sink.Add("memo.evictions", static_cast<double>(memo.evictions));
    sink.Add("pool.queue_wait_ms_p99", stats.pool_queue_wait.PercentileMs(99));
    sink.Add("proc.cpu_ms_per_op", plain.cpu_s * 1000.0 / ops);
    sink.Add("trace.overhead_pct",
             (traced.wall_ms / plain.wall_ms - 1.0) * 100.0);
  }
  report.errors.insert(report.errors.end(), sink.errors().begin(),
                       sink.errors().end());
  failures.PrintSample();
  return report;
}

}  // namespace perfbench
