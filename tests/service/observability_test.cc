// Copyright (c) 2026 moqo authors. MIT license.
//
// Service-level observability (PR 6): the instrumented request path end to
// end. With tracing on, an anytime session's exported Chrome trace must
// contain the request -> DP-level -> memo-probe -> rung-publish span chain;
// stats ToString must report p50/p95/p99; the Prometheus exposition must
// cover counters, occupancy gauges, and latency histograms; and the
// slow-query log must retain the worst requests.

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/workload.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;

ServiceOptions TracedServiceOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = SmallOperatorSpace();
  options.trace.enabled = true;
  return options;
}

ObjectiveSet FirstObjectives(int num_objectives) {
  std::vector<Objective> objectives(kAllObjectives.begin(),
                                    kAllObjectives.begin() + num_objectives);
  return ObjectiveSet(objectives);
}

/// RTA-routed star spec; the explicit override keeps the session ladder
/// multi-rung on a query this small.
ProblemSpec RtaStarSpec(const Catalog* catalog, int num_dims,
                        int num_objectives, double alpha) {
  ProblemSpec spec;
  spec.query = std::make_shared<Query>(MakeStarQuery(catalog, num_dims));
  spec.objectives = FirstObjectives(num_objectives);
  spec.algorithm = AlgorithmKind::kRta;
  spec.alpha = alpha;
  return spec;
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

TEST(ObservabilityTest, SessionTraceContainsTheWholeSpanChain) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(TracedServiceOptions(2));

  SessionOptions session_options;
  session_options.alpha_start = 3.0;
  session_options.max_steps = 3;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 3, 3, 1.25), session_options);
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->AwaitTarget());
  session->Cancel();

  EXPECT_GT(service.tracer()->recorded_events(), 0u);
  // AwaitTarget wakes on the done publish, but worker spans record on
  // destruction just after — and since the rung split (PR 7) each rung is
  // its own pool task, so rung 0's "request"/"pool.task" pair can close on
  // a different (possibly descheduled) worker than the final rung that
  // woke us. Poll until both the rung-0 request span and some pool.task
  // span are in the export.
  const auto complete = [](const std::string& t) {
    return t.find("\"name\":\"pool.task\"") != std::string::npos &&
           t.find("\"name\":\"request\"") != std::string::npos;
  };
  std::string trace = service.tracer()->ExportChromeTrace();
  for (int i = 0; i < 5000 && !complete(trace); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    trace = service.tracer()->ExportChromeTrace();
  }
  // The acceptance chain: request -> DP level -> memo probe -> rung
  // publish, plus the session's first-frontier marker.
  EXPECT_NE(trace.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"request.open\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"dp.level\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"memo.probe\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"rung.publish\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"session.first_frontier\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"optimize\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"pool.task\""), std::string::npos);
  // quick_first defaults on, so rung 0's task records the prelude span too.
  EXPECT_NE(trace.find("\"name\":\"quick.prelude\""), std::string::npos);
  // Chrome trace-event envelope.
  EXPECT_EQ(trace.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(trace.substr(trace.size() - 2), "]}");
}

TEST(ObservabilityTest, TracingDisabledByDefaultRecordsNothing) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = SmallOperatorSpace();
  OptimizationService service(options);

  const ServiceResponse response =
      service.SubmitAndWait(StarRequest(&catalog, 2, 2));
  ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  EXPECT_FALSE(service.tracer()->enabled());
  EXPECT_EQ(service.tracer()->recorded_events(), 0u);
}

TEST(ObservabilityTest, StatsToStringReportsQuantilesAndSlowQueries) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = SmallOperatorSpace();
  OptimizationService service(options);

  for (int dims = 1; dims <= 3; ++dims) {
    const ServiceResponse response =
        service.SubmitAndWait(StarRequest(&catalog, dims, 2));
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
  }

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_FALSE(stats.slow_queries.empty());
  // Worst first, and every entry carries the breakdown.
  for (size_t i = 1; i < stats.slow_queries.size(); ++i) {
    EXPECT_GE(stats.slow_queries[i - 1].total_ms,
              stats.slow_queries[i].total_ms);
  }
  for (const SlowQueryEntry& entry : stats.slow_queries) {
    EXPECT_NE(entry.signature, 0u);
    EXPECT_GT(entry.total_ms, 0);
    EXPECT_STRNE(entry.algorithm, "");
    EXPECT_STRNE(entry.phase, "");
  }

  const std::string text = stats.ToString();
  EXPECT_NE(text.find("p50_ms="), std::string::npos);
  EXPECT_NE(text.find("p95_ms="), std::string::npos);
  EXPECT_NE(text.find("p99_ms="), std::string::npos);
  EXPECT_NE(text.find("pool: queue_depth="), std::string::npos);
  EXPECT_NE(text.find("step_latency: runs="), std::string::npos);
  EXPECT_NE(text.find("first_frontier: sessions="), std::string::npos);
  EXPECT_NE(text.find("slow_queries (worst"), std::string::npos);
}

TEST(ObservabilityTest, FirstFrontierHistogramCountsSessions) {
  Catalog catalog = MakeTinyCatalog();
  OptimizationService service(TracedServiceOptions(2));

  SessionOptions session_options;
  session_options.alpha_start = 2.0;
  session_options.max_steps = 2;
  auto session =
      service.OpenFrontier(RtaStarSpec(&catalog, 2, 3, 1.25), session_options);
  ASSERT_NE(session, nullptr);
  session->AwaitTarget();
  // One sample per session, taken at its first publish.
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.first_frontier_latency.count, 1u);
  EXPECT_GT(stats.first_frontier_latency.max_ms, 0);
  session->Cancel();
}

TEST(ObservabilityTest, MetricsTextCoversCountersOccupancyAndHistograms) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = SmallOperatorSpace();
  OptimizationService service(options);

  // One miss then one exact hit so cache counters are nonzero.
  ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 2)).status,
            ResponseStatus::kCompleted);
  ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 2)).status,
            ResponseStatus::kCompleted);

  const std::string text = service.MetricsText();
  // Counters with families.
  EXPECT_NE(text.find("# TYPE moqo_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("moqo_cache_lookups_total{result=\"hit\"} "),
            std::string::npos);
  EXPECT_NE(text.find("moqo_cache_lookups_total{result=\"miss\"} "),
            std::string::npos);
  EXPECT_NE(text.find("moqo_memo_lookups_total{result=\"hit\"} "),
            std::string::npos);
  // Occupancy gauges.
  EXPECT_NE(text.find("# TYPE moqo_cache_entries gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE moqo_pool_queue_depth gauge"),
            std::string::npos);
  // Histograms: the per-algorithm family and the pool queue wait.
  EXPECT_NE(text.find("# TYPE moqo_request_latency_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("moqo_request_latency_ms_bucket{algorithm="),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("moqo_pool_queue_wait_ms_sum"), std::string::npos);
  EXPECT_NE(text.find("moqo_pool_queue_wait_ms_count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE moqo_first_frontier_ms histogram"),
            std::string::npos);
  // The completed counter reflects the two requests at render time.
  EXPECT_NE(text.find("moqo_completed_total 2"), std::string::npos);
}

TEST(ObservabilityTest, SlowQueryLogHonorsConfiguredCapacity) {
  Catalog catalog = MakeTinyCatalog();
  ServiceOptions options;
  options.num_workers = 1;
  options.operators = SmallOperatorSpace();
  options.enable_cache = false;  // Every request optimizes (and is logged).
  options.slow_query_log_size = 2;
  OptimizationService service(options);

  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(service.SubmitAndWait(StarRequest(&catalog, 2, 2)).status,
              ResponseStatus::kCompleted);
  }
  EXPECT_LE(service.Stats().slow_queries.size(), 2u);
  EXPECT_FALSE(service.Stats().slow_queries.empty());
}

}  // namespace
}  // namespace moqo
