// Copyright (c) 2026 moqo authors. MIT license.
//
// Network front-end bench (PR 7): drives the epoll streaming server over
// loopback and quantifies the serving properties the wire layer adds on
// top of FrontierSession:
//
//   1. Connection churn. Threads open/tear down connections (abrupt
//      disconnects, cancel-then-vanish, polite close) as fast as they
//      can. Reported: sustained opens/sec. Hard checks: zero protocol
//      errors, every connection reaped, no leaked in-flight session.
//   2. Slow reader. A client opens a multi-rung ladder and reads NOTHING
//      until the ladder finishes. The event loop must stay responsive (a
//      concurrent fast client keeps completing opens) and the session
//      must refine at full speed — newest-wins queueing means a slow
//      reader skips rungs, never stalls them. Reported: pushes dropped,
//      rungs the slow reader still saw, fast-client p50 during the stall.
//   3. Cancel storm. Every client cancels immediately after OPEN.
//      Hard checks: every connection gets its DONE, server drains clean.
//   4. Mixed fairness — the acceptance gate. Closed-loop interactive
//      clients (single-rung ladders, quick_first=false, so the first
//      frontier is the rung itself; like every first frontier, it rides
//      the worker pool) measure OPEN -> first-frontier latency while
//      background clients hold long refinement ladders.
//      Three configs: floor (no background), FIFO (priority_admission
//      off), priority (on). Hard checks: zero first-frontier rejects,
//      priority sheds refinement (sheds > 0) while FIFO sheds nothing,
//      and priority p99 must not regress vs FIFO (> 1.25x fails).
//
// Env knobs (quick CI sizes by default):
//   MOQO_NET_TABLES        tables per query            (default 6)
//   MOQO_NET_QUERIES       distinct queries            (default 6)
//   MOQO_NET_CHURN_THREADS churn client threads        (default 4)
//   MOQO_NET_CHURN_CONNS   connections per thread      (default 16)
//   MOQO_NET_REFINERS      background ladder clients   (default 4)
//   MOQO_NET_INTERACTIVE   interactive clients         (default 2)
//   MOQO_NET_OPENS         opens per interactive client (default 15)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_json.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "obs/histogram.h"
#include "rt/failpoint.h"
#include "service/optimization_service.h"
#include "util/deadline.h"

namespace moqo {
namespace {

using net::BlockingNetClient;
using net::FrontierUpdateMsg;
using net::MsgType;
using net::NetOptions;
using net::NetServer;
using net::OpenFrontierMsg;

OperatorRegistry::Options BenchOperatorSpace() {
  OperatorRegistry::Options options;
  options.sampling_rates = {0.05};
  options.dops = {1, 2};
  return options;
}

/// Catalog + query table + a fresh service/server pair per scenario, so
/// every phase starts with clean counters.
struct NetBenchRig {
  NetBenchRig(const SharedSubgraphOptions& workload,
              ServiceOptions service_options, NetOptions net_options = {}) {
    catalog = MakeSharedSubgraphCatalog(workload);
    std::vector<ProblemSpec> specs =
        BuildSharedSubgraphSpecs(&catalog, workload);
    for (size_t i = 0; i < specs.size(); ++i) {
      queries["q" + std::to_string(i)] = specs[i].query;
    }
    service =
        std::make_unique<OptimizationService>(std::move(service_options));
    net_options.resolve_query =
        [this](const std::string& id) -> std::shared_ptr<const Query> {
      auto it = queries.find(id);
      return it == queries.end() ? nullptr : it->second;
    };
    server = std::make_unique<NetServer>(service.get(), net_options);
  }

  ~NetBenchRig() { server->Stop(); }

  std::string QueryId(int i) const {
    return "q" + std::to_string(static_cast<size_t>(i) % queries.size());
  }

  Catalog catalog;
  std::unordered_map<std::string, std::shared_ptr<const Query>> queries;
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<NetServer> server;
};

ServiceOptions BaseServiceOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = BenchOperatorSpace();
  // Every open runs a real ladder: the bench measures serving, not cache
  // echoes.
  options.enable_cache = false;
  options.enable_coalescing = false;
  return options;
}

/// Interactive shape: one cheap rung, first frontier via the worker pool.
OpenFrontierMsg InteractiveOpen(const std::string& query_id) {
  OpenFrontierMsg open;
  open.query_id = query_id;
  open.objectives = {0, 1, 2};
  open.algorithm = static_cast<int8_t>(AlgorithmKind::kRta);
  open.alpha = 2.0;
  open.alpha_start = 2.0;
  open.max_steps = 1;
  open.quick_first = 0;
  return open;
}

/// Background shape: a long refinement ladder.
OpenFrontierMsg RefinementOpen(const std::string& query_id) {
  OpenFrontierMsg open = InteractiveOpen(query_id);
  open.alpha = 1.05;
  open.alpha_start = 8.0;
  open.max_steps = 8;
  return open;
}

bool AwaitActiveConnections(const NetBenchRig& rig, uint64_t want,
                            int timeout_ms) {
  StopWatch watch;
  while (watch.ElapsedMillis() < timeout_ms) {
    if (rig.server->Stats().connections_active == want &&
        rig.service->InFlight() == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// ---------------------------------------------------------------- churn --

int RunChurn(bench::Json* doc, const SharedSubgraphOptions& workload) {
  const int threads = EnvInt("MOQO_NET_CHURN_THREADS", 4);
  const int conns = EnvInt("MOQO_NET_CHURN_CONNS", 16);
  NetBenchRig rig(workload, BaseServiceOptions(2));
  if (!rig.server->Start()) {
    std::printf("ERROR: churn server failed to start\n");
    return 1;
  }
  const uint16_t port = rig.server->port();

  std::atomic<int> failures{0};
  StopWatch watch;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < conns; ++i) {
        BlockingNetClient client;
        if (!client.Connect("127.0.0.1", port)) {
          failures.fetch_add(1);
          continue;
        }
        OpenFrontierMsg open = InteractiveOpen(rig.QueryId(t * conns + i));
        open.quick_first = i % 2;
        if (!client.SendOpen(open)) failures.fetch_add(1);
        switch (i % 3) {
          case 0:
            client.Disconnect();
            break;
          case 1:
            client.SendCancel();
            client.Disconnect();
            break;
          default: {
            BlockingNetClient::Event event;
            if (!client.AwaitDone(&event, nullptr, 30000)) {
              failures.fetch_add(1);
            }
            client.SendClose();
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  const double wall_ms = watch.ElapsedMillis();
  const bool drained = AwaitActiveConnections(rig, 0, 10000);
  const net::NetStatsSnapshot stats = rig.server->Stats();

  const int total = threads * conns;
  const double opens_per_s = wall_ms > 0 ? total / (wall_ms / 1000.0) : 0;
  std::printf("-- churn (%d threads x %d conns) --\n", threads, conns);
  std::printf("%d opens in %.1f ms (%.0f opens/s), protocol_errors=%llu, "
              "drained=%d\n",
              total, wall_ms, opens_per_s,
              static_cast<unsigned long long>(stats.protocol_errors),
              drained ? 1 : 0);
  bench::Json phase = bench::Json::Object();
  phase.Set("threads", threads)
      .Set("conns_per_thread", conns)
      .Set("wall_ms", wall_ms)
      .Set("opens_per_s", opens_per_s)
      .Set("accepted", static_cast<long long>(stats.connections_accepted))
      .Set("protocol_errors",
           static_cast<long long>(stats.protocol_errors));
  doc->Set("churn", std::move(phase));

  if (failures.load() != 0 || stats.protocol_errors != 0 ||
      stats.connections_accepted != static_cast<uint64_t>(total) ||
      !drained) {
    std::printf("ERROR: churn left failures=%d errors=%llu drained=%d\n",
                failures.load(),
                static_cast<unsigned long long>(stats.protocol_errors),
                drained ? 1 : 0);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------- slow reader --

int RunSlowReader(bench::Json* doc, const SharedSubgraphOptions& workload) {
  NetOptions net_options;
  net_options.max_queued_pushes = 2;  // Tight, so stalls would show.
  NetBenchRig rig(workload, BaseServiceOptions(2), net_options);
  if (!rig.server->Start()) {
    std::printf("ERROR: slow-reader server failed to start\n");
    return 1;
  }
  const uint16_t port = rig.server->port();

  // The slow reader: opens a long ladder, then reads nothing.
  BlockingNetClient slow;
  if (!slow.Connect("127.0.0.1", port) ||
      !slow.SendOpen(RefinementOpen(rig.QueryId(0)))) {
    std::printf("ERROR: slow reader failed to open\n");
    return 1;
  }
  // The OPEN is processed asynchronously by the loop thread; wait until
  // the ladder is actually in flight before measuring around it.
  {
    StopWatch watch;
    while (rig.server->Stats().sessions_opened == 0 &&
           watch.ElapsedMillis() < 10000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (rig.server->Stats().sessions_opened == 0) {
      std::printf("ERROR: slow reader's OPEN was never served\n");
      return 1;
    }
  }

  // Meanwhile a fast client keeps the event loop honest.
  std::vector<double> fast_ms;
  StopWatch ladder_watch;
  int fast_opens = 0;
  while (rig.service->InFlight() > 0 &&
         ladder_watch.ElapsedMillis() < 60000) {
    BlockingNetClient fast;
    StopWatch watch;
    BlockingNetClient::Event event;
    if (!fast.Connect("127.0.0.1", port) ||
        !fast.SendOpen(InteractiveOpen(rig.QueryId(++fast_opens))) ||
        !fast.AwaitDone(&event, nullptr, 30000)) {
      std::printf("ERROR: fast client starved during slow-reader stall\n");
      return 1;
    }
    fast_ms.push_back(watch.ElapsedMillis());
    fast.SendClose();
  }
  const double ladder_ms = ladder_watch.ElapsedMillis();

  // Now drain the slow reader's backlog: it must still end in DONE, with
  // whatever rungs newest-wins kept.
  int rungs_seen = 0;
  BlockingNetClient::Event event;
  if (!slow.AwaitDone(
          &event,
          [&](const FrontierUpdateMsg&) { ++rungs_seen; }, 30000)) {
    std::printf("ERROR: slow reader never received DONE\n");
    return 1;
  }
  slow.SendClose();
  slow.Disconnect();
  // Let the loop thread process the close before snapshotting: the queue
  // depth must return to zero once the connection is reaped.
  AwaitActiveConnections(rig, 0, 5000);
  const net::NetStatsSnapshot stats = rig.server->Stats();

  const double fast_p50 = SnapshotOfSamples(fast_ms).PercentileMs(50);
  std::printf("\n-- slow reader (max_queued_pushes=2) --\n");
  std::printf("ladder finished in %.1f ms while the reader slept; reader "
              "still saw %d rungs (%llu pushes dropped server-wide)\n",
              ladder_ms, rungs_seen,
              static_cast<unsigned long long>(stats.pushes_dropped));
  std::printf("fast client during stall: %d opens, p50 %.2f ms\n",
              fast_opens, fast_p50);
  bench::Json phase = bench::Json::Object();
  phase.Set("ladder_ms", ladder_ms)
      .Set("rungs_seen", rungs_seen)
      .Set("pushes_dropped", static_cast<long long>(stats.pushes_dropped))
      .Set("fast_opens_during_stall", fast_opens)
      .Set("fast_p50_ms", fast_p50)
      .Set("queue_depth_after", static_cast<long long>(
                                    stats.push_queue_depth));
  doc->Set("slow_reader", std::move(phase));

  if (rungs_seen < 1 || stats.push_queue_depth != 0) {
    std::printf("ERROR: slow reader saw %d rungs, residual queue depth "
                "%llu\n",
                rungs_seen,
                static_cast<unsigned long long>(stats.push_queue_depth));
    return 1;
  }
  return 0;
}

// --------------------------------------------------------- cancel storm --

int RunCancelStorm(bench::Json* doc, const SharedSubgraphOptions& workload) {
  const int threads = EnvInt("MOQO_NET_CHURN_THREADS", 4);
  const int conns = EnvInt("MOQO_NET_CHURN_CONNS", 16);
  NetBenchRig rig(workload, BaseServiceOptions(2));
  if (!rig.server->Start()) {
    std::printf("ERROR: cancel-storm server failed to start\n");
    return 1;
  }
  const uint16_t port = rig.server->port();

  std::atomic<int> failures{0};
  std::atomic<int> dones{0};
  StopWatch watch;
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < conns; ++i) {
        BlockingNetClient client;
        if (!client.Connect("127.0.0.1", port)) {
          failures.fetch_add(1);
          continue;
        }
        if (!client.SendOpen(RefinementOpen(rig.QueryId(t * conns + i))) ||
            !client.SendCancel()) {
          failures.fetch_add(1);
          continue;
        }
        BlockingNetClient::Event event;
        if (client.AwaitDone(&event, nullptr, 30000)) {
          dones.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
        client.SendClose();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  const double wall_ms = watch.ElapsedMillis();
  const bool drained = AwaitActiveConnections(rig, 0, 10000);
  const net::NetStatsSnapshot stats = rig.server->Stats();

  const int total = threads * conns;
  std::printf("\n-- cancel storm (%d cancels) --\n", total);
  std::printf("%d/%d DONEs in %.1f ms, protocol_errors=%llu, drained=%d\n",
              dones.load(), total, wall_ms,
              static_cast<unsigned long long>(stats.protocol_errors),
              drained ? 1 : 0);
  bench::Json phase = bench::Json::Object();
  phase.Set("cancels", total)
      .Set("dones", dones.load())
      .Set("wall_ms", wall_ms)
      .Set("protocol_errors",
           static_cast<long long>(stats.protocol_errors));
  doc->Set("cancel_storm", std::move(phase));

  if (failures.load() != 0 || dones.load() != total ||
      stats.protocol_errors != 0 || !drained) {
    std::printf("ERROR: cancel storm failures=%d dones=%d/%d drained=%d\n",
                failures.load(), dones.load(), total, drained ? 1 : 0);
    return 1;
  }
  return 0;
}

// ------------------------------------------------------- mixed fairness --

struct FairnessResult {
  bool ok = false;
  double p50_ms = 0;
  double p99_ms = 0;
  int opens = 0;
  int rejects = 0;       ///< First-frontier opens rejected by admission.
  uint64_t sheds = 0;    ///< service-side refinement sheds.
  uint64_t client_sheds = 0;  ///< DONE frames with shed=1 at refiners.
};

/// One closed-loop scenario: `refiners` background clients hold long
/// ladders while `interactive` clients measure OPEN -> first frontier.
FairnessResult RunFairnessScenario(const SharedSubgraphOptions& workload,
                                   bool priority_admission, int refiners,
                                   int interactive, int opens_per_client) {
  FairnessResult result;
  ServiceOptions service_options = BaseServiceOptions(2);
  service_options.max_inflight = 8;
  service_options.refinement_shed_fraction = 0.5;
  service_options.priority_admission = priority_admission;
  NetBenchRig rig(workload, service_options);
  if (!rig.server->Start()) return result;
  const uint16_t port = rig.server->port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> refiner_sheds{0};
  std::vector<std::thread> background;
  for (int r = 0; r < refiners; ++r) {
    background.emplace_back([&, r] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        BlockingNetClient client;
        if (!client.Connect("127.0.0.1", port)) break;
        if (!client.SendOpen(RefinementOpen(rig.QueryId(r + i)))) break;
        BlockingNetClient::Event event;
        if (!client.AwaitDone(&event, nullptr, 60000)) break;
        if (event.done.shed) refiner_sheds.fetch_add(1);
        client.SendClose();
      }
    });
  }

  std::atomic<int> rejects{0};
  std::atomic<int> failures{0};
  std::mutex latencies_mu;
  std::vector<double> latencies;
  std::vector<std::thread> clients;
  for (int c = 0; c < interactive; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < opens_per_client; ++i) {
        BlockingNetClient client;
        StopWatch watch;
        if (!client.Connect("127.0.0.1", port) ||
            !client.SendOpen(
                InteractiveOpen(rig.QueryId(c * opens_per_client + i)))) {
          failures.fetch_add(1);
          continue;
        }
        // First FRONTIER_UPDATE is the measurement; a DONE first means
        // the open was rejected or failed before publishing.
        bool measured = false;
        BlockingNetClient::Event event;
        while (client.NextEvent(&event, 60000)) {
          if (event.type == MsgType::kFrontierUpdate) {
            latencies_mu.lock();
            latencies.push_back(watch.ElapsedMillis());
            latencies_mu.unlock();
            measured = true;
            break;
          }
          if (event.type == MsgType::kDone) {
            if (event.done.rejected) rejects.fetch_add(1);
            break;
          }
          if (event.type == MsgType::kError) break;
        }
        if (!measured && !event.done.rejected) failures.fetch_add(1);
        client.Disconnect();  // Server cancels the remainder.
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  stop.store(true);
  for (std::thread& thread : background) thread.join();
  AwaitActiveConnections(rig, 0, 10000);

  const HistogramSnapshot snapshot = SnapshotOfSamples(latencies);
  result.ok = failures.load() == 0 && !latencies.empty();
  result.p50_ms = snapshot.PercentileMs(50);
  result.p99_ms = snapshot.PercentileMs(99);
  result.opens = static_cast<int>(latencies.size());
  result.rejects = rejects.load();
  result.sheds = rig.service->Stats().refinement_sheds;
  result.client_sheds = refiner_sheds.load();
  return result;
}

bench::Json FairnessJson(const FairnessResult& result) {
  bench::Json json = bench::Json::Object();
  json.Set("first_frontier_p50_ms", result.p50_ms)
      .Set("first_frontier_p99_ms", result.p99_ms)
      .Set("opens_measured", result.opens)
      .Set("first_frontier_rejects", result.rejects)
      .Set("refinement_sheds", static_cast<long long>(result.sheds))
      .Set("refiner_shed_dones", static_cast<long long>(result.client_sheds));
  return json;
}

int RunFairness(bench::Json* doc, const SharedSubgraphOptions& workload) {
  const int refiners = EnvInt("MOQO_NET_REFINERS", 4);
  const int interactive = EnvInt("MOQO_NET_INTERACTIVE", 2);
  const int opens = EnvInt("MOQO_NET_OPENS", 15);

  std::printf("\n-- mixed fairness (%d refiners, %d interactive x %d "
              "opens) --\n",
              refiners, interactive, opens);
  const FairnessResult floor =
      RunFairnessScenario(workload, true, 0, interactive, opens);
  const FairnessResult fifo =
      RunFairnessScenario(workload, false, refiners, interactive, opens);
  const FairnessResult priority =
      RunFairnessScenario(workload, true, refiners, interactive, opens);
  if (!floor.ok || !fifo.ok || !priority.ok) {
    std::printf("ERROR: fairness scenario failed (floor=%d fifo=%d "
                "priority=%d)\n",
                floor.ok, fifo.ok, priority.ok);
    return 1;
  }

  std::printf("floor    (no load): p50 %7.2f ms  p99 %7.2f ms\n",
              floor.p50_ms, floor.p99_ms);
  std::printf("fifo     (loaded):  p50 %7.2f ms  p99 %7.2f ms  sheds=%llu "
              "rejects=%d\n",
              fifo.p50_ms, fifo.p99_ms,
              static_cast<unsigned long long>(fifo.sheds), fifo.rejects);
  std::printf("priority (loaded):  p50 %7.2f ms  p99 %7.2f ms  sheds=%llu "
              "rejects=%d\n",
              priority.p50_ms, priority.p99_ms,
              static_cast<unsigned long long>(priority.sheds),
              priority.rejects);
  const double improvement =
      priority.p99_ms > 0 ? fifo.p99_ms / priority.p99_ms : 0;
  std::printf("first-frontier p99: fifo/priority = %.2fx\n", improvement);

  bench::Json phase = bench::Json::Object();
  phase.Set("refiners", refiners)
      .Set("interactive_clients", interactive)
      .Set("opens_per_client", opens)
      .Set("floor", FairnessJson(floor))
      .Set("fifo", FairnessJson(fifo))
      .Set("priority", FairnessJson(priority))
      .Set("p99_improvement", improvement);
  doc->Set("fairness", std::move(phase));

  // Hard gates (acceptance criteria):
  // 1. Overload is absorbed by shedding refinement, never by rejecting
  //    first-frontier work.
  if (floor.rejects + fifo.rejects + priority.rejects != 0) {
    std::printf("ERROR: first-frontier opens were rejected (floor=%d "
                "fifo=%d priority=%d)\n",
                floor.rejects, fifo.rejects, priority.rejects);
    return 1;
  }
  if (priority.sheds == 0) {
    std::printf("ERROR: priority admission shed no refinement under "
                "overload\n");
    return 1;
  }
  if (fifo.sheds != 0) {
    std::printf("ERROR: FIFO config shed refinement (%llu) — admission "
                "leaked into the control run\n",
                static_cast<unsigned long long>(fifo.sheds));
    return 1;
  }
  // 2. Priority admission must not regress first-frontier p99 vs FIFO.
  //    (On dedicated hardware it wins clearly; noisy CI runners get 25%
  //    headroom before this counts as a regression.)
  if (priority.p99_ms > fifo.p99_ms * 1.25) {
    std::printf("ERROR: first-frontier p99 regressed under priority "
                "admission (%.2f ms vs fifo %.2f ms)\n",
                priority.p99_ms, fifo.p99_ms);
    return 1;
  }
  if (priority.p99_ms >= fifo.p99_ms) {
    std::printf("WARNING: priority p99 (%.2f ms) not below fifo p99 "
                "(%.2f ms) this run\n",
                priority.p99_ms, fifo.p99_ms);
  }
  return 0;
}

// --------------------------------------------------------- fault phase --

struct FaultMeasureResult {
  std::vector<double> healthy_ms;  ///< First-frontier, fault-free conns.
  int retried = 0;   ///< Opens that lost their connection and re-opened.
  int failures = 0;  ///< Opens that never reached a terminal outcome.
};

/// Closed-loop first-frontier measurement that survives injected faults:
/// an open whose connection dies mid-stream re-opens (capped retries) so
/// the session still reaches a terminal outcome, but only opens served on
/// a fault-free connection count toward the latency distribution — the
/// gate asks what faults elsewhere cost the *healthy* traffic.
FaultMeasureResult MeasureFirstFrontier(uint16_t port, NetBenchRig* rig,
                                        int clients, int opens_per_client) {
  FaultMeasureResult result;
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < opens_per_client; ++i) {
        net::RetryOptions retry;
        retry.max_attempts = 4;
        retry.base_backoff_ms = 1;
        retry.max_backoff_ms = 20;
        retry.jitter_seed = 977u * static_cast<uint64_t>(c) + i;
        BlockingNetClient client;
        StopWatch watch;
        if (!client.ConnectWithRetry("127.0.0.1", port, retry)) {
          std::lock_guard<std::mutex> lock(mu);
          ++result.failures;
          continue;
        }
        bool sent = client.SendOpen(
            InteractiveOpen(rig->QueryId(c * opens_per_client + i)));
        bool measured = false;
        bool terminal = false;
        int attempt = 0;
        for (; attempt < 4; ++attempt) {
          if (attempt > 0 || !sent) {
            if (!client.Reopen(retry)) continue;
            watch.Restart();
          }
          BlockingNetClient::Event event;
          bool eof = true;
          while (client.NextEvent(&event, 30000)) {
            if (event.type == MsgType::kFrontierUpdate) {
              if (attempt == 0) {
                std::lock_guard<std::mutex> lock(mu);
                result.healthy_ms.push_back(watch.ElapsedMillis());
              }
              measured = true;
              terminal = true;  // First frontier in hand is the outcome.
              eof = false;
              break;
            }
            if (event.type == MsgType::kDone ||
                event.type == MsgType::kError) {
              terminal = true;
              eof = false;
              break;
            }
          }
          if (!eof) break;
          // Connection killed by an injected fault before any outcome.
        }
        client.Disconnect();
        std::lock_guard<std::mutex> lock(mu);
        if (attempt > 0) ++result.retried;
        if (!terminal && !measured) ++result.failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return result;
}

int RunFaults(bench::Json* doc, const SharedSubgraphOptions& workload) {
  if (!rt::kFailpointsEnabled) {
    std::printf("\n-- fault phase skipped (MOQO_FAILPOINTS=OFF) --\n");
    bench::Json phase = bench::Json::Object();
    phase.Set("skipped", 1);
    doc->Set("faults", std::move(phase));
    return 0;
  }
  const int clients = EnvInt("MOQO_NET_INTERACTIVE", 2);
  const int opens = EnvInt("MOQO_NET_FAULT_OPENS", 40);
  std::printf("\n-- fault phase (%d clients x %d opens, 1%% read/write "
              "faults + forced reconnects) --\n",
              clients, opens);

  // Baseline and fault runs share one rig (cache off: every open is real
  // work) so the only variable is the injected faults.
  NetBenchRig rig(workload, BaseServiceOptions(2));
  if (!rig.server->Start()) {
    std::printf("ERROR: server start failed\n");
    return 1;
  }
  const uint16_t port = rig.server->port();

  // The same background load runs in BOTH phases — a churn thread of
  // forced reconnect cycles (abrupt disconnects mid-stream followed by
  // idempotent re-OPENs) — so the armed failpoints are the only variable
  // between the two measurements.
  std::atomic<bool> stop{false};
  const auto churn_main = [&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      net::RetryOptions retry;
      retry.max_attempts = 2;
      retry.base_backoff_ms = 1;
      retry.jitter_seed = 31u + static_cast<uint64_t>(i);
      BlockingNetClient client;
      if (!client.ConnectWithRetry("127.0.0.1", port, retry)) continue;
      if (!client.SendOpen(RefinementOpen(rig.QueryId(i)))) continue;
      BlockingNetClient::Event event;
      client.NextEvent(&event, 5000);
      client.Disconnect();  // Abrupt: no CLOSE, stream still live.
      if (client.Reopen(retry)) client.NextEvent(&event, 5000);
    }
  };

  std::thread baseline_churn(churn_main);
  const FaultMeasureResult baseline =
      MeasureFirstFrontier(port, &rig, clients, opens);
  stop.store(true);
  baseline_churn.join();
  if (baseline.failures != 0 || baseline.healthy_ms.empty()) {
    std::printf("ERROR: fault-free baseline failed (%d failures)\n",
                baseline.failures);
    return 1;
  }

  // 1% of reads and writes fail, on a seeded schedule that replays.
  rt::FailpointRegistry::Global().Arm(
      "net.read", "probability(0.01,seed=11):return_error");
  rt::FailpointRegistry::Global().Arm(
      "net.write", "probability(0.01,seed=13):return_error");
  stop.store(false);
  std::thread fault_churn(churn_main);
  const FaultMeasureResult faulted =
      MeasureFirstFrontier(port, &rig, clients, opens);
  stop.store(true);
  fault_churn.join();
  const uint64_t read_hits =
      rt::FailpointRegistry::Global().Register("net.read").hits();
  const uint64_t write_hits =
      rt::FailpointRegistry::Global().Register("net.write").hits();
  rt::FailpointRegistry::Global().DisarmAll();
  const bool drained = AwaitActiveConnections(rig, 0, 10000);

  const double baseline_p99 =
      SnapshotOfSamples(baseline.healthy_ms).PercentileMs(99);
  const double fault_p99 =
      SnapshotOfSamples(faulted.healthy_ms).PercentileMs(99);
  const double ratio = baseline_p99 > 0 ? fault_p99 / baseline_p99 : 0;
  std::printf("fault-free p99 %7.2f ms   fault-phase healthy p99 %7.2f ms "
              "(%.2fx)\n",
              baseline_p99, fault_p99, ratio);
  std::printf("injected: %llu read, %llu write; retried opens=%d\n",
              static_cast<unsigned long long>(read_hits),
              static_cast<unsigned long long>(write_hits), faulted.retried);

  bench::Json phase = bench::Json::Object();
  phase.Set("clients", clients)
      .Set("opens_per_client", opens)
      .Set("baseline_p99_ms", baseline_p99)
      .Set("fault_p99_ms", fault_p99)
      .Set("p99_ratio", ratio)
      .Set("healthy_measured", static_cast<int>(faulted.healthy_ms.size()))
      .Set("retried_opens", faulted.retried)
      .Set("injected_read_errors", static_cast<long long>(read_hits))
      .Set("injected_write_errors", static_cast<long long>(write_hits));
  doc->Set("faults", std::move(phase));

  // Hard gates: faults must be contained — no lost sessions, a drained
  // server, and healthy-connection latency within 20% of fault-free.
  if (faulted.failures != 0) {
    std::printf("ERROR: %d opens never reached a terminal outcome under "
                "faults\n",
                faulted.failures);
    return 1;
  }
  if (!drained) {
    std::printf("ERROR: connections/in-flight sessions leaked after the "
                "fault phase\n");
    return 1;
  }
  if (fault_p99 > baseline_p99 * 1.2) {
    std::printf("ERROR: healthy-connection first-frontier p99 regressed "
                ">20%% under faults (%.2f ms vs %.2f ms)\n",
                fault_p99, baseline_p99);
    return 1;
  }
  return 0;
}

int Run() {
  SharedSubgraphOptions workload;
  workload.num_queries = EnvInt("MOQO_NET_QUERIES", 6);
  workload.tables_per_query = EnvInt("MOQO_NET_TABLES", 6);
  workload.num_objectives = 3;

  std::printf("== net front-end bench (%d queries x %d tables) ==\n\n",
              workload.num_queries, workload.tables_per_query);
  bench::Json doc = bench::Json::Object();
  doc.Set("bench", "net")
      .Set("queries", workload.num_queries)
      .Set("tables_per_query", workload.tables_per_query);

  if (RunChurn(&doc, workload) != 0) return 1;
  if (RunSlowReader(&doc, workload) != 0) return 1;
  if (RunCancelStorm(&doc, workload) != 0) return 1;
  if (RunFairness(&doc, workload) != 0) return 1;
  if (RunFaults(&doc, workload) != 0) return 1;

  const std::string path = "BENCH_net.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace moqo

int main() { return moqo::Run(); }
