// Copyright (c) 2026 moqo authors. MIT license.
//
// The Prometheus exposition as a contract. A service with a persist
// directory, a disk tier and a started NetServer serves a fixed mix (one
// miss, one exact hit, one frontier hit, one wire session). Then:
//   (a) the ordered # HELP / # TYPE lines and every sample's name and
//       label set equal a recorded literal, so no metric is renamed,
//       retyped, relabelled, reordered, added or dropped unnoticed;
//   (b) every counter and gauge sample equals the stats field it exports.
// The scrape is RenderPrometheus(), not MetricsText(): the failpoint block
// MetricsText() appends depends on which tests registered sites earlier.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/blocking_client.h"
#include "net/net_server.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using net::BlockingNetClient;
using net::NetServer;
using net::OpenFrontierMsg;
using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;

constexpr int64_t kEventTimeoutMs = 30000;

/// The recorded exposition shape: header lines verbatim, each sample as
/// its name and label set, one per line.
constexpr char kExpositionShape[] = R"(
# HELP moqo_requests_total One-shot requests submitted
# TYPE moqo_requests_total counter
moqo_requests_total
# HELP moqo_completed_total Requests answered with a plan
# TYPE moqo_completed_total counter
moqo_completed_total
# HELP moqo_rejected_total Requests shed by admission control
# TYPE moqo_rejected_total counter
moqo_rejected_total
# HELP moqo_internal_errors_total Invalid requests and optimizer failures
# TYPE moqo_internal_errors_total counter
moqo_internal_errors_total
# HELP moqo_deadline_timeouts_total Requests degraded to quick mode
# TYPE moqo_deadline_timeouts_total counter
moqo_deadline_timeouts_total
# HELP moqo_sessions_opened_total Anytime frontier sessions opened
# TYPE moqo_sessions_opened_total counter
moqo_sessions_opened_total
# HELP moqo_refinement_steps_total Completed ladder rungs across all sessions
# TYPE moqo_refinement_steps_total counter
moqo_refinement_steps_total
# HELP moqo_refinement_sheds_total Refinement ladders shed by overload priority
# TYPE moqo_refinement_sheds_total counter
moqo_refinement_sheds_total
# HELP moqo_watchdog_fires_total Sessions force-finished by the rung watchdog
# TYPE moqo_watchdog_fires_total counter
moqo_watchdog_fires_total
# HELP moqo_sessions_active Refinement ladders running now
# TYPE moqo_sessions_active gauge
moqo_sessions_active
# HELP moqo_inflight Requests queued or running
# TYPE moqo_inflight gauge
moqo_inflight
# HELP moqo_cache_lookups_total PlanCache lookups
# TYPE moqo_cache_lookups_total counter
moqo_cache_lookups_total{result="hit"}
moqo_cache_lookups_total{result="miss"}
# HELP moqo_cache_entries Resident PlanCache entries
# TYPE moqo_cache_entries gauge
moqo_cache_entries
# HELP moqo_cache_bytes Resident PlanCache bytes
# TYPE moqo_cache_bytes gauge
moqo_cache_bytes
# HELP moqo_memo_lookups_total Cross-query subplan memo probes
# TYPE moqo_memo_lookups_total counter
moqo_memo_lookups_total{result="hit"}
moqo_memo_lookups_total{result="miss"}
# HELP moqo_memo_entries Resident memo entries
# TYPE moqo_memo_entries gauge
moqo_memo_entries
# HELP moqo_memo_bytes Resident memo bytes
# TYPE moqo_memo_bytes gauge
moqo_memo_bytes
# HELP moqo_pool_queue_depth Tasks waiting for a worker (request + DP pools)
# TYPE moqo_pool_queue_depth gauge
moqo_pool_queue_depth
# HELP moqo_pool_queue_wait_ms Task enqueue-to-pickup wait (request + DP pools)
# TYPE moqo_pool_queue_wait_ms histogram
moqo_pool_queue_wait_ms_bucket{le="0.1"}
moqo_pool_queue_wait_ms_bucket{le="0.5"}
moqo_pool_queue_wait_ms_bucket{le="1"}
moqo_pool_queue_wait_ms_bucket{le="5"}
moqo_pool_queue_wait_ms_bucket{le="10"}
moqo_pool_queue_wait_ms_bucket{le="50"}
moqo_pool_queue_wait_ms_bucket{le="100"}
moqo_pool_queue_wait_ms_bucket{le="500"}
moqo_pool_queue_wait_ms_bucket{le="1000"}
moqo_pool_queue_wait_ms_bucket{le="5000"}
moqo_pool_queue_wait_ms_bucket{le="+Inf"}
moqo_pool_queue_wait_ms_sum
moqo_pool_queue_wait_ms_count
# HELP moqo_step_latency_ms Per-rung refinement step latency
# TYPE moqo_step_latency_ms histogram
moqo_step_latency_ms_bucket{le="0.1"}
moqo_step_latency_ms_bucket{le="0.5"}
moqo_step_latency_ms_bucket{le="1"}
moqo_step_latency_ms_bucket{le="5"}
moqo_step_latency_ms_bucket{le="10"}
moqo_step_latency_ms_bucket{le="50"}
moqo_step_latency_ms_bucket{le="100"}
moqo_step_latency_ms_bucket{le="500"}
moqo_step_latency_ms_bucket{le="1000"}
moqo_step_latency_ms_bucket{le="5000"}
moqo_step_latency_ms_bucket{le="+Inf"}
moqo_step_latency_ms_sum
moqo_step_latency_ms_count
# HELP moqo_first_frontier_ms Session open to first published frontier
# TYPE moqo_first_frontier_ms histogram
moqo_first_frontier_ms_bucket{le="0.1"}
moqo_first_frontier_ms_bucket{le="0.5"}
moqo_first_frontier_ms_bucket{le="1"}
moqo_first_frontier_ms_bucket{le="5"}
moqo_first_frontier_ms_bucket{le="10"}
moqo_first_frontier_ms_bucket{le="50"}
moqo_first_frontier_ms_bucket{le="100"}
moqo_first_frontier_ms_bucket{le="500"}
moqo_first_frontier_ms_bucket{le="1000"}
moqo_first_frontier_ms_bucket{le="5000"}
moqo_first_frontier_ms_bucket{le="+Inf"}
moqo_first_frontier_ms_sum
moqo_first_frontier_ms_count
# HELP moqo_request_latency_ms Fresh optimization latency by algorithm
# TYPE moqo_request_latency_ms histogram
moqo_request_latency_ms_bucket{algorithm="EXA",le="0.1"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="0.5"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="1"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="5"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="10"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="50"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="100"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="500"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="1000"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="5000"}
moqo_request_latency_ms_bucket{algorithm="EXA",le="+Inf"}
moqo_request_latency_ms_sum{algorithm="EXA"}
moqo_request_latency_ms_count{algorithm="EXA"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="0.1"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="0.5"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="1"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="5"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="10"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="50"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="100"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="500"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="1000"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="5000"}
moqo_request_latency_ms_bucket{algorithm="RTA",le="+Inf"}
moqo_request_latency_ms_sum{algorithm="RTA"}
moqo_request_latency_ms_count{algorithm="RTA"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="0.1"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="0.5"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="1"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="5"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="10"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="50"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="100"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="500"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="1000"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="5000"}
moqo_request_latency_ms_bucket{algorithm="IRA",le="+Inf"}
moqo_request_latency_ms_sum{algorithm="IRA"}
moqo_request_latency_ms_count{algorithm="IRA"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="0.1"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="0.5"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="1"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="5"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="10"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="50"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="100"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="500"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="1000"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="5000"}
moqo_request_latency_ms_bucket{algorithm="Selinger",le="+Inf"}
moqo_request_latency_ms_sum{algorithm="Selinger"}
moqo_request_latency_ms_count{algorithm="Selinger"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="0.1"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="0.5"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="1"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="5"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="10"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="50"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="100"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="500"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="1000"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="5000"}
moqo_request_latency_ms_bucket{algorithm="WeightedSum",le="+Inf"}
moqo_request_latency_ms_sum{algorithm="WeightedSum"}
moqo_request_latency_ms_count{algorithm="WeightedSum"}
# HELP moqo_slow_query_worst_ms Slowest retained slow-log request
# TYPE moqo_slow_query_worst_ms gauge
moqo_slow_query_worst_ms
# HELP moqo_trace_events_recorded Span events recorded by the tracer
# TYPE moqo_trace_events_recorded gauge
moqo_trace_events_recorded
# HELP moqo_tier_hits_total Requests served from the RAM→disk tier
# TYPE moqo_tier_hits_total counter
moqo_tier_hits_total
# HELP moqo_persist_snapshots_total Warm-state snapshots written
# TYPE moqo_persist_snapshots_total counter
moqo_persist_snapshots_total
# HELP moqo_persist_snapshot_failures_total Snapshot writes that failed (I/O or injected fault)
# TYPE moqo_persist_snapshot_failures_total counter
moqo_persist_snapshot_failures_total
# HELP moqo_persist_snapshot_records_total Records written across all snapshots
# TYPE moqo_persist_snapshot_records_total counter
moqo_persist_snapshot_records_total
# HELP moqo_persist_snapshot_bytes_total Encoded snapshot bytes written
# TYPE moqo_persist_snapshot_bytes_total counter
moqo_persist_snapshot_bytes_total
# HELP moqo_persist_restores_total Restore attempts (header validated or not)
# TYPE moqo_persist_restores_total counter
moqo_persist_restores_total
# HELP moqo_persist_restored_entries_total Entries restored from snapshots
# TYPE moqo_persist_restored_entries_total counter
moqo_persist_restored_entries_total{cache="plan"}
moqo_persist_restored_entries_total{cache="memo"}
# HELP moqo_persist_restore_bytes_total Payload bytes restored
# TYPE moqo_persist_restore_bytes_total counter
moqo_persist_restore_bytes_total
# HELP moqo_persist_restore_skipped_total Snapshot records skipped on restore
# TYPE moqo_persist_restore_skipped_total counter
moqo_persist_restore_skipped_total{reason="epoch"}
moqo_persist_restore_skipped_total{reason="version"}
moqo_persist_restore_skipped_total{reason="checksum"}
# HELP moqo_persist_restore_truncated_total Snapshot records lost to a torn or short tail
# TYPE moqo_persist_restore_truncated_total counter
moqo_persist_restore_truncated_total
# HELP moqo_persist_tier_demotions_total Evicted entries demoted to the disk tier
# TYPE moqo_persist_tier_demotions_total counter
moqo_persist_tier_demotions_total{cache="plan"}
# HELP moqo_persist_tier_promotions_total Tier hits promoted back to RAM
# TYPE moqo_persist_tier_promotions_total counter
moqo_persist_tier_promotions_total{cache="plan"}
# HELP moqo_persist_tier_dropped_total Tier entries lost to shard resets
# TYPE moqo_persist_tier_dropped_total counter
moqo_persist_tier_dropped_total{cache="plan"}
# HELP moqo_persist_tier_entries Live tier index entries
# TYPE moqo_persist_tier_entries gauge
moqo_persist_tier_entries{cache="plan"}
# HELP moqo_persist_tier_bytes Live tier on-disk record bytes
# TYPE moqo_persist_tier_bytes gauge
moqo_persist_tier_bytes{cache="plan"}
# HELP moqo_persist_tier_demotions_total Evicted entries demoted to the disk tier
# TYPE moqo_persist_tier_demotions_total counter
moqo_persist_tier_demotions_total{cache="memo"}
# HELP moqo_persist_tier_promotions_total Tier hits promoted back to RAM
# TYPE moqo_persist_tier_promotions_total counter
moqo_persist_tier_promotions_total{cache="memo"}
# HELP moqo_persist_tier_dropped_total Tier entries lost to shard resets
# TYPE moqo_persist_tier_dropped_total counter
moqo_persist_tier_dropped_total{cache="memo"}
# HELP moqo_persist_tier_entries Live tier index entries
# TYPE moqo_persist_tier_entries gauge
moqo_persist_tier_entries{cache="memo"}
# HELP moqo_persist_tier_bytes Live tier on-disk record bytes
# TYPE moqo_persist_tier_bytes gauge
moqo_persist_tier_bytes{cache="memo"}
# HELP moqo_net_connections_total Connections accepted by the front end
# TYPE moqo_net_connections_total counter
moqo_net_connections_total
# HELP moqo_net_connections_active Currently open connections
# TYPE moqo_net_connections_active gauge
moqo_net_connections_active
# HELP moqo_net_sessions_total Frontier sessions opened over the wire
# TYPE moqo_net_sessions_total counter
moqo_net_sessions_total
# HELP moqo_net_bytes_total Bytes received by the front end
# TYPE moqo_net_bytes_total counter
moqo_net_bytes_total{direction="in"}
moqo_net_bytes_total{direction="out"}
# HELP moqo_net_frames_in_total Complete frames decoded from clients
# TYPE moqo_net_frames_in_total counter
moqo_net_frames_in_total
# HELP moqo_net_pushes_total Frontier updates written to clients
# TYPE moqo_net_pushes_total counter
moqo_net_pushes_total
# HELP moqo_net_pushes_dropped_total Frontier updates superseded by newest-wins backpressure
# TYPE moqo_net_pushes_dropped_total counter
moqo_net_pushes_dropped_total
# HELP moqo_net_push_queue_depth Frames queued across all connections
# TYPE moqo_net_push_queue_depth gauge
moqo_net_push_queue_depth
# HELP moqo_net_protocol_errors_total Connections failed on malformed or out-of-order frames
# TYPE moqo_net_protocol_errors_total counter
moqo_net_protocol_errors_total
# HELP moqo_net_connections_reaped_total Connections closed by the handshake/idle deadline sweep
# TYPE moqo_net_connections_reaped_total counter
moqo_net_connections_reaped_total
)";

struct Sample {
  std::string series;  ///< Name plus label set, as rendered.
  std::string type;    ///< The TYPE its family declared.
  double value = 0;
};

/// Returns the shape of a text exposition — header lines verbatim, each
/// sample reduced to its series, one per line after a leading newline —
/// and appends its samples to `samples`.
std::string ParseExposition(const std::string& text,
                            std::vector<Sample>* samples) {
  std::istringstream lines(text);
  std::string shape = "\n";
  std::string line;
  std::string type;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) type = line.substr(line.rfind(' ') + 1);
    if (line.rfind("# ", 0) == 0) {
      shape += line + "\n";
      continue;
    }
    const size_t space = line.rfind(' ');
    Sample sample;
    sample.series = line.substr(0, space);
    sample.type = type;
    sample.value = std::strtod(line.c_str() + space + 1, nullptr);
    shape += sample.series + "\n";
    samples->push_back(sample);
  }
  return shape;
}

bool WaitFor(const std::function<bool()>& condition, int ms) {
  for (int i = 0; i < ms; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

ServiceRequest StarRequest(const std::shared_ptr<const Query>& query,
                           const WeightVector& weights) {
  ServiceRequest request;
  request.spec.query = query;
  request.spec.objectives = ObjectiveSet(
      {Objective::kTotalTime, Objective::kStartupTime, Objective::kIOLoad});
  request.preference.weights = weights;
  return request;
}

TEST(MetricsExpositionTest, ShapeAndValuesMatchEveryStatsSurface) {
  const std::string dir = ::testing::TempDir() + "moqo_metrics_exposition_" +
                          std::to_string(::getpid());
  ASSERT_EQ(std::system(("rm -rf " + dir).c_str()), 0);

  Catalog catalog = MakeTinyCatalog();
  auto star3 = std::make_shared<const Query>(MakeStarQuery(&catalog, 3));
  auto star2 = std::make_shared<const Query>(MakeStarQuery(&catalog, 2));
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = SmallOperatorSpace();
  options.persist.directory = dir;
  options.persist.tier_capacity_bytes = size_t{1} << 20;
  OptimizationService service(options);
  net::NetOptions net_options;
  net_options.resolve_query = [&](const std::string& id) {
    return id == "star2" ? star2 : nullptr;
  };
  NetServer server(&service, net_options);
  ASSERT_TRUE(server.Start());

  // The in-process mix: a miss, its exact hit, a frontier hit.
  const WeightVector uniform = WeightVector::Uniform(3);
  WeightVector skewed(3);
  skewed[0] = 1.0;
  skewed[1] = 2.0;
  skewed[2] = 3.0;
  EXPECT_EQ(service.SubmitAndWait(StarRequest(star3, uniform)).cache,
            CacheOutcome::kMiss);
  EXPECT_EQ(service.SubmitAndWait(StarRequest(star3, uniform)).cache,
            CacheOutcome::kExactHit);
  EXPECT_EQ(service.SubmitAndWait(StarRequest(star3, skewed)).cache,
            CacheOutcome::kFrontierHit);

  // One wire session: a three-rung RTA ladder over another query.
  {
    BlockingNetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    OpenFrontierMsg open;
    open.query_id = "star2";
    open.objectives = {0, 1, 2};
    open.algorithm = static_cast<int8_t>(AlgorithmKind::kRta);
    open.alpha = 1.25;
    open.alpha_start = 3.0;
    open.max_steps = 3;
    ASSERT_TRUE(client.SendOpen(open));
    BlockingNetClient::Event event;
    ASSERT_TRUE(client.AwaitDone(&event, nullptr, kEventTimeoutMs));
    EXPECT_EQ(event.done.target_reached, 1);
    client.SendClose();
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return server.Stats().connections_active == 0 &&
               service.Stats().sessions_active == 0 &&
               service.InFlight() == 0;
      },
      10000));

  const std::string text = service.metrics_registry()->RenderPrometheus();
  const ServiceStatsSnapshot stats = service.Stats();
  const PlanCache::Stats cache = service.CacheStats();
  const SubplanMemo::Stats memo = service.MemoStats();
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  const net::NetStatsSnapshot wire = server.Stats();

  std::vector<Sample> samples;
  EXPECT_EQ(ParseExposition(text, &samples), kExpositionShape);

  std::map<std::string, double> expected;
  const auto set = [&expected](const std::string& series, double value) {
    expected[series] = value;
  };
  set("moqo_requests_total", stats.requests_total);
  set("moqo_completed_total", stats.completed);
  set("moqo_rejected_total", stats.admissions_rejected);
  set("moqo_internal_errors_total", stats.internal_errors);
  set("moqo_deadline_timeouts_total", stats.deadline_timeouts);
  set("moqo_sessions_opened_total", stats.sessions_opened);
  set("moqo_refinement_steps_total", stats.refinement_steps);
  set("moqo_refinement_sheds_total", stats.refinement_sheds);
  set("moqo_watchdog_fires_total", stats.watchdog_fires);
  set("moqo_sessions_active", stats.sessions_active);
  set("moqo_inflight", service.InFlight());
  set("moqo_cache_lookups_total{result=\"hit\"}", stats.cache_hits);
  set("moqo_cache_lookups_total{result=\"miss\"}", stats.cache_misses);
  set("moqo_cache_entries", cache.entries);
  set("moqo_cache_bytes", cache.bytes);
  set("moqo_memo_lookups_total{result=\"hit\"}", memo.hits);
  set("moqo_memo_lookups_total{result=\"miss\"}", memo.misses);
  set("moqo_memo_entries", memo.entries);
  set("moqo_memo_bytes", memo.bytes);
  set("moqo_pool_queue_depth", stats.pool_queue_depth);
  set("moqo_slow_query_worst_ms",
      stats.slow_queries.empty() ? 0 : stats.slow_queries.front().total_ms);
  set("moqo_trace_events_recorded", service.tracer()->recorded_events());
  set("moqo_tier_hits_total", stats.tier_hits);
  set("moqo_persist_snapshots_total", persisted.snapshots_written);
  set("moqo_persist_snapshot_failures_total", persisted.snapshot_failures);
  set("moqo_persist_snapshot_records_total", persisted.snapshot_records);
  set("moqo_persist_snapshot_bytes_total", persisted.snapshot_bytes);
  set("moqo_persist_restores_total", persisted.restores_attempted);
  set("moqo_persist_restored_entries_total{cache=\"plan\"}",
      persisted.restored_plan_entries);
  set("moqo_persist_restored_entries_total{cache=\"memo\"}",
      persisted.restored_memo_entries);
  set("moqo_persist_restore_bytes_total", persisted.restore_bytes);
  set("moqo_persist_restore_skipped_total{reason=\"epoch\"}",
      persisted.restore_skipped_epoch);
  set("moqo_persist_restore_skipped_total{reason=\"version\"}",
      persisted.restore_skipped_version);
  set("moqo_persist_restore_skipped_total{reason=\"checksum\"}",
      persisted.restore_skipped_checksum);
  set("moqo_persist_restore_truncated_total", persisted.restore_truncated);
  // The tiers have no service accessor. Nothing in this mix is evicted, so
  // both stay empty and promote nothing.
  for (const char* label : {"plan", "memo"}) {
    const std::string labels = std::string("{cache=\"") + label + "\"}";
    set("moqo_persist_tier_demotions_total" + labels, 0);
    set("moqo_persist_tier_promotions_total" + labels, 0);
    set("moqo_persist_tier_dropped_total" + labels, 0);
    set("moqo_persist_tier_entries" + labels, 0);
    set("moqo_persist_tier_bytes" + labels, 0);
  }
  set("moqo_net_connections_total", wire.connections_accepted);
  set("moqo_net_connections_active", wire.connections_active);
  set("moqo_net_sessions_total", wire.sessions_opened);
  set("moqo_net_bytes_total{direction=\"in\"}", wire.bytes_in);
  set("moqo_net_bytes_total{direction=\"out\"}", wire.bytes_out);
  set("moqo_net_frames_in_total", wire.frames_in);
  set("moqo_net_pushes_total", wire.pushes_sent);
  set("moqo_net_pushes_dropped_total", wire.pushes_dropped);
  set("moqo_net_push_queue_depth", wire.push_queue_depth);
  set("moqo_net_protocol_errors_total", wire.protocol_errors);
  set("moqo_net_connections_reaped_total", wire.connections_reaped);

  // The mix moved the counters it should, so equality below is not 0 == 0.
  EXPECT_EQ(stats.requests_total, 3u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(wire.sessions_opened, 1u);
  EXPECT_GT(wire.bytes_out, 0u);
  EXPECT_EQ(persisted.restores_attempted, 1u);

  size_t scalars = 0;
  for (const Sample& sample : samples) {
    if (sample.type != "counter" && sample.type != "gauge") continue;
    ++scalars;
    auto it = expected.find(sample.series);
    ASSERT_NE(it, expected.end()) << "unmapped sample " << sample.series;
    EXPECT_NEAR(sample.value, it->second, 1e-5 * std::max(1.0, it->second))
        << sample.series;
  }
  EXPECT_EQ(scalars, expected.size());
}

}  // namespace
}  // namespace moqo
