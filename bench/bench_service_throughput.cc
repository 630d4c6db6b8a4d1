// Copyright (c) 2026 moqo authors. MIT license.
//
// Service throughput bench: quantifies what the serving layer adds on top
// of the single-shot optimizers.
//
//   1. Cache amortization. A Section-8 style workload over TPC-H join
//      graphs is driven through the service twice; the second (warm) pass
//      resolves entirely from the plan-signature cache. Reported: cold vs
//      warm mean latency and the speedup factor (expected >= 10x — a cache
//      hit skips the whole Pareto-frontier DP).
//   2. Weight sweep. The same queries with ROTATING preference weights:
//      under the PR-2 weight-free signatures every weight variation after
//      the first request per query is a frontier hit — O(|frontier|)
//      SelectPlan, no optimizer run. Reported: frontier-hit rate and the
//      speedup of a frontier hit over a cold optimization.
//   3. Overlapping queries. A sliding-window chain workload: every request
//      is a DISTINCT query (distinct whole-query signature, so the plan
//      cache never hits), but consecutive queries share most of their join
//      subgraph. With the cross-query subplan memo enabled, each query
//      seals the shared table sets from the memo instead of rebuilding
//      them. Reported: memo hit rate (must exceed 50%) and the p50 latency
//      with the memo on vs off (on must be lower).
//   4. Anytime frontier sessions. The same shared-subgraph workload
//      driven through OpenFrontier with a multi-rung alpha ladder: each
//      session publishes a quick-mode frontier first, then refines
//      toward the target. Reported: time-to-first-frontier, per-rung p50
//      latencies, and the SubplanMemo hit rate across ladder steps
//      (sessions over overlapping queries reuse each other's same-alpha
//      sub-frontiers; must be > 0). Monotone alpha per session is a hard
//      check.
//   5. Worker scaling. The same workload, cache disabled, for increasing
//      worker counts. On a multi-core host throughput rises with workers
//      until the core count; on a single core it stays flat.
//
// Env knobs (see bench_config.h conventions):
//   MOQO_SF          TPC-H scale factor        (default 0.01)
//   MOQO_CASES       cases per query           (default 2)
//   MOQO_OBJECTIVES  objectives per case       (default 6)
//   MOQO_SWEEPS      weight draws per query    (default 16)
//   MOQO_MAX_WORKERS scaling sweep upper bound (default 8)
//   MOQO_OVERLAP_TABLES      tables per overlapping query    (default 10)
//   MOQO_OVERLAP_QUERIES     sliding-window query count      (default 8)
//   MOQO_OVERLAP_OBJECTIVES  objectives in the overlap phase (default 3)
//   MOQO_SESSION_QUERIES     sessions in the anytime phase   (default 6)
//   MOQO_SESSION_TABLES      tables per session query        (default 9)
//   MOQO_SESSION_STEPS       ladder rungs per session        (default 3)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_json.h"
#include "harness/experiment.h"
#include "harness/service_experiment.h"
#include "obs/histogram.h"
#include "harness/workload.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"
#include "util/random.h"

namespace moqo {
namespace {

OperatorRegistry::Options BenchOperatorSpace() {
  OperatorRegistry::Options options;
  options.sampling_rates = {0.05};
  options.dops = {1, 2};
  return options;
}

/// Drives the overlap workload sequentially, returning per-request
/// latencies (sequential so each latency cleanly attributes to one DP run).
std::vector<double> DriveOverlap(OptimizationService* service,
                                 const std::vector<ServiceRequest>& requests,
                                 bool* ok) {
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  for (const ServiceRequest& request : requests) {
    const ServiceResponse response = service->SubmitAndWait(request);
    if (response.status != ResponseStatus::kCompleted ||
        response.result == nullptr || response.result->plan == nullptr ||
        response.cache != CacheOutcome::kMiss) {
      *ok = false;
      return latencies;
    }
    latencies.push_back(response.service_ms);
  }
  return latencies;
}

/// One drive's aggregate as a JSON object for the BENCH_service.json
/// artifact.
bench::Json RunJson(const ServiceRunStats& stats) {
  bench::Json json = bench::Json::Object();
  json.Set("requests", stats.total)
      .Set("ops_per_s", stats.Throughput())
      .Set("wall_ms", stats.wall_ms)
      .Set("mean_ms", stats.mean_service_ms)
      .Set("p50_ms", stats.PercentileMs(50))
      .Set("p95_ms", stats.PercentileMs(95))
      .Set("p99_ms", stats.PercentileMs(99))
      .Set("max_ms", stats.max_service_ms)
      .Set("cache_hits", stats.cache_hits)
      .Set("mean_frontier", stats.mean_frontier);
  return json;
}

int Run() {
  const double sf = EnvDouble("MOQO_SF", 0.01);
  const int cases = EnvInt("MOQO_CASES", 2);
  const int objectives =
      std::clamp(EnvInt("MOQO_OBJECTIVES", 6), 1, kNumObjectives);
  const int max_workers = EnvInt("MOQO_MAX_WORKERS", 8);

  Catalog catalog = Catalog::TpcH(sf);
  OptimizerOptions gen_options;
  gen_options.operators = BenchOperatorSpace();
  WorkloadGenerator generator(&catalog, gen_options);

  ServiceWorkloadOptions workload_options;
  // Mid-to-large queries (4-6 tables): large enough that optimization
  // dominates dispatch, small enough that the cold pass stays in seconds.
  workload_options.query_numbers = {10, 21, 2, 5, 7};
  workload_options.cases_per_query = cases;
  workload_options.num_objectives = objectives;
  const std::vector<ServiceRequest> requests =
      BuildServiceWorkload(&catalog, &generator, workload_options);

  std::printf("== service throughput bench ==\n");
  std::printf("workload: %zu requests (%zu TPC-H queries x %d cases, "
              "%d objectives)\n\n",
              requests.size(), workload_options.query_numbers.size(), cases,
              objectives);

  bench::Json doc = bench::Json::Object();
  doc.Set("bench", "service_throughput")
      .Set("requests", static_cast<int>(requests.size()))
      .Set("objectives", objectives);

  // Phase 1: cache amortization.
  {
    ServiceOptions options;
    options.num_workers = 2;
    options.operators = BenchOperatorSpace();
    OptimizationService service(options);

    const ServiceRunStats cold = DriveService(&service, requests);
    const ServiceRunStats warm = DriveService(&service, requests);

    std::printf("-- cache amortization (2 workers) --\n");
    std::printf("cold: %s\n", cold.ToString().c_str());
    std::printf("warm: %s\n", warm.ToString().c_str());
    const double speedup = warm.mean_service_ms > 0
                               ? cold.mean_service_ms / warm.mean_service_ms
                               : 0;
    std::printf("cached speedup: %.1fx (mean %.3f ms -> %.4f ms)\n",
                speedup, cold.mean_service_ms, warm.mean_service_ms);
    std::printf("stats: %s\n", service.Stats().ToString().c_str());
    const PlanCache::Stats cache = service.CacheStats();
    bench::Json phase = bench::Json::Object();
    phase.Set("cold", RunJson(cold))
        .Set("warm", RunJson(warm))
        .Set("cached_speedup", speedup)
        .Set("cache_bytes", cache.bytes)
        .Set("mean_cached_frontier",
             cache.entries == 0 ? 0.0
                                : static_cast<double>(cache.frontier_plans) /
                                      cache.entries);
    doc.Set("cache_amortization", std::move(phase));
    if (warm.cache_hits != warm.total) {
      std::printf("ERROR: warm pass expected all cache hits\n");
      return 1;
    }
    if (speedup < 10.0) {
      std::printf("WARNING: cached speedup below 10x\n");
    }
  }

  // Phase 2: weight sweep — same specs, rotating preferences. With
  // weight-free signatures, each query optimizes once and every further
  // weight draw is a frontier hit.
  {
    const int sweeps = EnvInt("MOQO_SWEEPS", 16);
    ServiceOptions options;
    options.num_workers = 2;
    options.operators = BenchOperatorSpace();
    OptimizationService service(options);

    std::vector<ServiceRequest> sweep_requests;
    Xoshiro256 rng(7);
    for (int query_number : workload_options.query_numbers) {
      auto query = std::make_shared<Query>(
          MakeTpcHQuery(&catalog, query_number));
      std::vector<Objective> objective_pick(
          kAllObjectives.begin(), kAllObjectives.begin() + objectives);
      for (int s = 0; s < sweeps; ++s) {
        ServiceRequest request;
        request.spec.query = query;
        request.spec.objectives = ObjectiveSet(objective_pick);
        WeightVector weights(objectives);
        for (int i = 0; i < objectives; ++i) {
          weights[i] = rng.NextDouble();
        }
        request.preference.weights = weights;
        sweep_requests.push_back(std::move(request));
      }
    }

    // Sequential drive so each request's latency attributes cleanly to
    // its outcome (miss = full DP, frontier hit = SelectPlan only).
    double miss_ms = 0, hit_ms = 0;
    int misses = 0, frontier_hits = 0, other = 0;
    for (const ServiceRequest& request : sweep_requests) {
      const ServiceResponse response = service.SubmitAndWait(request);
      if (response.status == ResponseStatus::kRejected ||
          response.result == nullptr || response.result->plan == nullptr) {
        std::printf("ERROR: weight-sweep request failed\n");
        return 1;
      }
      switch (response.cache) {
        case CacheOutcome::kMiss:
          ++misses;
          miss_ms += response.service_ms;
          break;
        case CacheOutcome::kFrontierHit:
          ++frontier_hits;
          hit_ms += response.service_ms;
          break;
        default:  // Exact or coalesced: identical weights can't recur here.
          ++other;
          break;
      }
    }

    const int total = static_cast<int>(sweep_requests.size());
    const int queries =
        static_cast<int>(workload_options.query_numbers.size());
    const double cold_mean = misses == 0 ? 0 : miss_ms / misses;
    const double hit_mean = frontier_hits == 0 ? 0 : hit_ms / frontier_hits;
    std::printf("\n-- weight sweep (%d weight draws per query) --\n", sweeps);
    std::printf("requests=%d optimizer_runs=%d frontier_hits=%d other=%d\n",
                total, misses, frontier_hits, other);
    std::printf("frontier-hit rate: %.3f\n",
                total == 0 ? 0 : static_cast<double>(frontier_hits) / total);
    std::printf("weight-change speedup: %.1fx (cold %.3f ms -> hit %.4f ms)\n",
                hit_mean > 0 ? cold_mean / hit_mean : 0, cold_mean, hit_mean);
    std::printf("stats: %s\n", service.Stats().ToString().c_str());
    bench::Json phase = bench::Json::Object();
    phase.Set("requests", total)
        .Set("optimizer_runs", misses)
        .Set("frontier_hits", frontier_hits)
        .Set("frontier_hit_rate",
             total == 0 ? 0.0 : static_cast<double>(frontier_hits) / total)
        .Set("cold_mean_ms", cold_mean)
        .Set("hit_mean_ms", hit_mean)
        .Set("weight_change_speedup",
             hit_mean > 0 ? cold_mean / hit_mean : 0.0);
    doc.Set("weight_sweep", std::move(phase));
    if (misses != queries || frontier_hits != total - queries) {
      std::printf("ERROR: every weight draw after the first per query must "
                  "be a frontier hit (expected %d runs, %d hits)\n",
                  queries, total - queries);
      return 1;
    }
  }

  // Phase 3: overlapping queries — the cross-query subplan memo's home
  // turf. Distinct queries (zero plan-cache hits) sharing join subgraphs;
  // the memo turns the shared sub-frontiers into table-set-level hits.
  {
    const int overlap_tables = EnvInt("MOQO_OVERLAP_TABLES", 10);
    const int overlap_queries = EnvInt("MOQO_OVERLAP_QUERIES", 8);
    const int overlap_objectives =
        std::clamp(EnvInt("MOQO_OVERLAP_OBJECTIVES", 3), 1, kNumObjectives);
    SharedSubgraphOptions overlap_workload;
    overlap_workload.num_queries = overlap_queries;
    overlap_workload.tables_per_query = overlap_tables;
    overlap_workload.num_objectives = overlap_objectives;
    Catalog overlap_catalog = MakeSharedSubgraphCatalog(overlap_workload);
    const std::vector<ServiceRequest> overlap_requests =
        BuildSharedSubgraphWorkload(&overlap_catalog, overlap_workload);

    // Serial DP so each request's latency measures exactly one engine's
    // work; one worker so the memo warms in submission order.
    ServiceOptions base;
    base.num_workers = 1;
    base.operators = BenchOperatorSpace();
    base.policy.max_parallelism = 1;

    ServiceOptions memo_off = base;
    memo_off.enable_subplan_memo = false;
    bool ok = true;
    std::vector<double> cold_ms, warm_ms;
    SubplanMemo::Stats memo_stats;
    {
      OptimizationService service(memo_off);
      cold_ms = DriveOverlap(&service, overlap_requests, &ok);
    }
    if (ok) {
      OptimizationService service(base);
      warm_ms = DriveOverlap(&service, overlap_requests, &ok);
      memo_stats = service.MemoStats();
    }
    if (!ok) {
      std::printf("ERROR: overlapping-query request failed\n");
      return 1;
    }

    const double cold_p50 = SnapshotOfSamples(cold_ms).PercentileMs(50);
    const double warm_p50 = SnapshotOfSamples(warm_ms).PercentileMs(50);
    const double hit_rate = memo_stats.HitRate();
    std::printf("\n-- overlapping queries (%d windows x %d tables, "
                "%d objectives) --\n",
                overlap_queries, overlap_tables, overlap_objectives);
    std::printf("memo: hits=%llu misses=%llu hit_rate=%.3f entries=%zu "
                "bytes=%zu\n",
                static_cast<unsigned long long>(memo_stats.hits),
                static_cast<unsigned long long>(memo_stats.misses),
                hit_rate, memo_stats.entries, memo_stats.bytes);
    std::printf("p50: memo-off %.2f ms -> memo-on %.2f ms (%.2fx)\n",
                cold_p50, warm_p50,
                warm_p50 > 0 ? cold_p50 / warm_p50 : 0);
    bench::Json phase = bench::Json::Object();
    phase.Set("queries", overlap_queries)
        .Set("tables_per_query", overlap_tables)
        .Set("objectives", overlap_objectives)
        .Set("memo_hits", static_cast<long long>(memo_stats.hits))
        .Set("memo_misses", static_cast<long long>(memo_stats.misses))
        .Set("memo_hit_rate", hit_rate)
        .Set("memo_entries", memo_stats.entries)
        .Set("memo_bytes", memo_stats.bytes)
        .Set("memo_off_p50_ms", cold_p50)
        .Set("memo_on_p50_ms", warm_p50)
        .Set("p50_speedup", warm_p50 > 0 ? cold_p50 / warm_p50 : 0.0);
    doc.Set("overlapping_memo", std::move(phase));
    if (hit_rate <= 0.5) {
      std::printf("ERROR: memo hit rate %.3f below the 0.5 target on an "
                  "overlapping workload\n",
                  hit_rate);
      return 1;
    }
    // The hit-rate check above is deterministic; this one is wall-clock.
    // On dedicated hardware memo-on wins ~2x, but CI smoke runs on noisy
    // shared runners with single-digit sample counts, so only a *clear*
    // regression (25% slower) fails hard — a mere non-win warns.
    if (warm_p50 > cold_p50 * 1.25) {
      std::printf("ERROR: memo-on p50 (%.2f ms) clearly above memo-off p50 "
                  "(%.2f ms)\n",
                  warm_p50, cold_p50);
      return 1;
    }
    if (warm_p50 >= cold_p50) {
      std::printf("WARNING: memo-on p50 (%.2f ms) not below memo-off p50 "
                  "(%.2f ms) this run\n",
                  warm_p50, cold_p50);
    }
  }

  // Phase 4: anytime frontier sessions — the PR-5 serving shape. Each
  // session publishes a quick-mode frontier first, refines over an alpha
  // ladder, and publishes every rung; overlapping sessions reuse each
  // other's same-alpha table-set frontiers through the SubplanMemo, so
  // ladder steps get cheaper as the stream progresses.
  {
    const int session_queries = EnvInt("MOQO_SESSION_QUERIES", 6);
    const int session_tables = EnvInt("MOQO_SESSION_TABLES", 9);
    const int session_steps = std::max(EnvInt("MOQO_SESSION_STEPS", 3), 1);
    SharedSubgraphOptions session_workload;
    session_workload.num_queries = session_queries;
    session_workload.tables_per_query = session_tables;
    session_workload.num_objectives = 3;
    Catalog session_catalog = MakeSharedSubgraphCatalog(session_workload);
    std::vector<ProblemSpec> specs =
        BuildSharedSubgraphSpecs(&session_catalog, session_workload);
    for (ProblemSpec& spec : specs) {
      spec.algorithm = AlgorithmKind::kRta;
      spec.alpha = 1.25;
      spec.parallelism = 1;  // Serial DP: latencies attribute cleanly.
    }

    ServiceOptions options;
    options.num_workers = 1;  // The memo warms in submission order.
    options.operators = BenchOperatorSpace();
    options.policy.max_parallelism = 1;
    // This phase doubles as the tracing exemplar: the recorded spans
    // (request -> rung -> DP level -> memo probe) become the
    // TRACE_service.json artifact CI smoke-validates.
    options.trace.enabled = true;
    OptimizationService service(options);

    SessionOptions session_options;
    session_options.alpha_start = 2.5;
    session_options.max_steps = session_steps;

    bool ok = true;
    std::vector<double> first_frontier_ms;       // Open -> first plan.
    std::vector<double> target_ms;               // Open -> target alpha.
    std::vector<std::vector<double>> step_ms;    // [rung][session].
    for (const ProblemSpec& spec : specs) {
      StopWatch watch;
      auto session = service.OpenFrontier(spec, session_options);
      // Anytime contract: step 0 is the quick-mode prelude or a cache
      // seed. The open runs no optimizer, so it is stamped where it is
      // published (the replay delivers a seed published at open).
      double first_ms = -1;
      bool first_is_early = false;
      const int first_id =
          session->OnRefined([&](const RefinedFrontier& refined) {
            if (refined.step != 0) return;
            first_ms = watch.ElapsedMillis();
            first_is_early = std::isinf(refined.alpha) || refined.from_cache;
          });
      if (!session->AwaitTarget()) {
        std::printf("ERROR: session failed to reach its target alpha\n");
        ok = false;
        break;
      }
      target_ms.push_back(watch.ElapsedMillis());
      session->RemoveCallback(first_id);
      if (!first_is_early) {
        std::printf("ERROR: step 0 is neither the quick-mode frontier nor a "
                    "cache seed\n");
        ok = false;
        break;
      }
      first_frontier_ms.push_back(first_ms);
      const std::vector<RefinedFrontier> history = session->History();
      int rung = 0;
      for (size_t i = 0; i < history.size(); ++i) {
        if (i > 0 && history[i].alpha >= history[i - 1].alpha) {
          std::printf("ERROR: published alpha did not decrease at step "
                      "%zu\n", i);
          ok = false;
        }
        if (history[i].from_cache) continue;  // Seeded, not a rung.
        if (std::isinf(history[i].alpha)) continue;  // Quick prelude.
        if (static_cast<size_t>(rung) >= step_ms.size()) {
          step_ms.emplace_back();
        }
        step_ms[rung++].push_back(history[i].step_ms);
      }
      session->Cancel();
    }
    if (!ok) return 1;

    const ServiceStatsSnapshot stats = service.Stats();
    const SubplanMemo::Stats memo = service.MemoStats();
    const double memo_hit_rate = memo.HitRate();
    std::printf("\n-- anytime sessions (%d windows x %d tables, ladder "
                "2.5 -> 1.25 in %d steps) --\n",
                session_queries, session_tables, session_steps);
    // Open-side wall clocks (measured here) and the service's own
    // first-frontier histogram report the same quantity; the JSON carries
    // both so a drift between them is visible in the artifact.
    const HistogramSnapshot first_frontier =
        SnapshotOfSamples(first_frontier_ms);
    const HistogramSnapshot target = SnapshotOfSamples(target_ms);
    std::printf("first frontier: p50 %.2f ms (service-side p50 %.2f "
                "p95 %.2f p99 %.2f); target: p50 %.2f ms\n",
                first_frontier.PercentileMs(50),
                stats.first_frontier_latency.PercentileMs(50),
                stats.first_frontier_latency.PercentileMs(95),
                stats.first_frontier_latency.PercentileMs(99),
                target.PercentileMs(50));
    bench::Json steps = bench::Json::Array();
    for (size_t rung = 0; rung < step_ms.size(); ++rung) {
      const double p50 = SnapshotOfSamples(step_ms[rung]).PercentileMs(50);
      std::printf("rung %zu: p50 %.2f ms over %zu sessions\n", rung, p50,
                  step_ms[rung].size());
      bench::Json row = bench::Json::Object();
      row.Set("rung", static_cast<int>(rung))
          .Set("sessions", static_cast<int>(step_ms[rung].size()))
          .Set("p50_ms", p50);
      steps.Push(std::move(row));
    }
    std::printf("memo across ladder steps: hits=%llu misses=%llu "
                "hit_rate=%.3f; refinement_steps=%llu\n",
                static_cast<unsigned long long>(memo.hits),
                static_cast<unsigned long long>(memo.misses),
                memo_hit_rate,
                static_cast<unsigned long long>(stats.refinement_steps));
    bench::Json phase = bench::Json::Object();
    phase.Set("sessions", session_queries)
        .Set("tables_per_query", session_tables)
        .Set("ladder_steps", session_steps)
        .Set("first_frontier_p50_ms", first_frontier.PercentileMs(50))
        .Set("first_frontier_service_p50_ms",
             stats.first_frontier_latency.PercentileMs(50))
        .Set("first_frontier_service_p95_ms",
             stats.first_frontier_latency.PercentileMs(95))
        .Set("first_frontier_service_p99_ms",
             stats.first_frontier_latency.PercentileMs(99))
        .Set("step_latency_p50_ms", stats.step_latency.PercentileMs(50))
        .Set("step_latency_p99_ms", stats.step_latency.PercentileMs(99))
        .Set("target_p50_ms", target.PercentileMs(50))
        .Set("per_step_p50", std::move(steps))
        .Set("memo_hits", static_cast<long long>(memo.hits))
        .Set("memo_hit_rate", memo_hit_rate)
        .Set("refinement_steps",
             static_cast<long long>(stats.refinement_steps))
        .Set("sessions_opened",
             static_cast<long long>(stats.sessions_opened));
    doc.Set("anytime_sessions", std::move(phase));
    if (memo.hits == 0) {
      std::printf("ERROR: ladder steps never reused the subplan memo\n");
      return 1;
    }

    // Dump the phase's spans as a Perfetto-loadable Chrome trace; an empty
    // trace means the instrumentation fell out of the request path.
    const std::string trace_path = "TRACE_service.json";
    if (!service.tracer()->WriteChromeTrace(trace_path)) {
      std::printf("ERROR: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    const uint64_t trace_events = service.tracer()->recorded_events();
    std::printf("trace: %llu span events -> %s (dropped=%llu)\n",
                static_cast<unsigned long long>(trace_events),
                trace_path.c_str(),
                static_cast<unsigned long long>(
                    service.tracer()->dropped_events()));
    if (trace_events == 0) {
      std::printf("ERROR: tracing was enabled but recorded no events\n");
      return 1;
    }
    doc.Set("trace_file", trace_path.c_str())
        .Set("trace_events", static_cast<long long>(trace_events));
  }

  // Phase 5: worker scaling (cache off: every request runs the DP).
  std::printf("\n-- worker scaling (cache disabled) --\n");
  std::printf("%8s %12s %12s %12s %9s\n", "workers", "wall_ms", "rps",
              "mean_ms", "speedup");
  bench::Json scaling = bench::Json::Array();
  double base_wall = 0;
  for (int workers = 1; workers <= max_workers; workers *= 2) {
    ServiceOptions options;
    options.num_workers = workers;
    options.enable_cache = false;
    options.operators = BenchOperatorSpace();
    OptimizationService service(options);
    const ServiceRunStats stats = DriveService(&service, requests);
    if (workers == 1) base_wall = stats.wall_ms;
    const double speedup =
        stats.wall_ms > 0 ? base_wall / stats.wall_ms : 0;
    std::printf("%8d %12.1f %12.2f %12.3f %8.2fx\n", workers, stats.wall_ms,
                stats.Throughput(), stats.mean_service_ms, speedup);
    bench::Json row = RunJson(stats);
    row.Set("workers", workers).Set("speedup_vs_1_worker", speedup);
    scaling.Push(std::move(row));
    if (stats.null_plans != 0 || stats.rejected != 0) {
      std::printf("ERROR: unexpected nulls/rejects at %d workers\n",
                  workers);
      return 1;
    }
  }
  doc.Set("worker_scaling", std::move(scaling));

  const std::string path = "BENCH_service.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace moqo

int main() { return moqo::Run(); }
