// Copyright (c) 2026 moqo authors. MIT license.
//
// Chaos suite (PR 8): seeded fault schedules against the full serving
// stack. The invariants under injected faults are the PR's acceptance
// bar:
//
//   - every opened session reaches a terminal state (DONE or ERROR frame
//     over the wire; done_ in process) — no crash, no silent hang;
//   - published frontiers stay strictly monotone in alpha;
//   - the connection table drains to zero and no admission slot leaks;
//   - every armed site actually fired (hit counters via MetricsText).
//
// Fault schedules are pure functions of MOQO_CHAOS_SEED (default 1), so a
// CI failure replays locally from the seed it printed. CI runs this file
// under ASan with several fixed seeds.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "net/blocking_client.h"
#include "net/net_server.h"
#include "rt/failpoint.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"
#include "util/deadline.h"

namespace moqo {
namespace {

using net::BlockingNetClient;
using net::MsgType;
using net::NetOptions;
using net::NetServer;
using net::OpenFrontierMsg;
using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;

uint64_t ChaosSeed() {
  const char* env = std::getenv("MOQO_CHAOS_SEED");
  if (env == nullptr) return 1;
  const uint64_t seed = std::strtoull(env, nullptr, 10);
  return seed == 0 ? 1 : seed;
}

bool WaitFor(const std::function<bool()>& condition, int ms) {
  for (int i = 0; i < ms; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

/// A site and the one action that exercises its degradation path without
/// violating the site's contract (allocation sites throw OOM, error-path
/// sites take their error return, rung bodies throw).
struct SiteSpec {
  const char* site;
  const char* action;
};

constexpr SiteSpec kServiceSites[] = {
    {"arena.new_block", "oom"},     {"planset.snapshot", "oom"},
    {"cache.insert", "return_error"}, {"memo.insert", "return_error"},
    {"pool.dispatch", "return_error"}, {"session.rung", "throw"},
    // PR 9: the persistence layer rides the same hot path — the one-slot
    // chaos cache demotes on every insert (persist.tier.write) and probes
    // the disk tier on every RAM miss (persist.tier.read).
    {"persist.tier.write", "return_error"},
    {"persist.tier.read", "return_error"},
};

constexpr SiteSpec kNetSites[] = {
    {"net.accept", "return_error"},
    {"net.read", "return_error"},
    {"net.write", "return_error"},
    {"net.push.encode", "throw"},
};

/// Arms every listed site at `probability`, each with its own seed
/// derived from the run seed (sites must not fire in lockstep).
template <size_t N>
void ArmSites(const SiteSpec (&sites)[N], double probability,
              uint64_t seed) {
  for (size_t i = 0; i < N; ++i) {
    const std::string spec =
        "probability(" + std::to_string(probability) +
        ",seed=" + std::to_string(seed * 1000 + i) + "):" + sites[i].action;
    ASSERT_TRUE(rt::FailpointRegistry::Global().Arm(sites[i].site, spec))
        << sites[i].site << "=" << spec;
  }
}

template <size_t N>
bool AllSitesHit(const SiteSpec (&sites)[N]) {
  for (const SiteSpec& s : sites) {
    if (rt::FailpointRegistry::Global().Register(s.site).hits() == 0) {
      return false;
    }
  }
  return true;
}

/// Per-site assertion variant: a failure names the site that never fired.
template <size_t N>
void ExpectAllSitesHit(const SiteSpec (&sites)[N]) {
  for (const SiteSpec& s : sites) {
    EXPECT_GT(rt::FailpointRegistry::Global().Register(s.site).hits(), 0u)
        << "armed site never fired: " << s.site;
  }
}

/// Service + net front end over the tiny star catalog, mirroring the
/// net_server_test harness.
struct ChaosHarness {
  explicit ChaosHarness(ServiceOptions service_options,
                        NetOptions net_options = {}) {
    catalog = MakeTinyCatalog();
    for (int dims = 2; dims <= 3; ++dims) {
      queries["star" + std::to_string(dims)] =
          std::make_shared<Query>(MakeStarQuery(&catalog, dims));
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

  ~ChaosHarness() {
    rt::FailpointRegistry::Global().DisarmAll();  // Before teardown.
    server->Stop();
  }

  /// `alpha` is varied per open so the plan cache cannot absorb the run:
  /// a distinct target means a distinct signature, so every open walks
  /// the full ladder and visits every service-side failpoint.
  std::shared_ptr<FrontierSession> OpenStar(int dims, bool quick_first,
                                            double alpha) {
    ProblemSpec spec;
    spec.query = queries["star" + std::to_string(dims)];
    std::vector<Objective> objectives;
    for (int i = 0; i < dims; ++i) {
      objectives.push_back(static_cast<Objective>(i));
    }
    spec.objectives = ObjectiveSet(std::move(objectives));
    spec.algorithm = AlgorithmKind::kRta;
    spec.alpha = alpha;
    SessionOptions options;
    options.alpha_start = 3.0;
    options.max_steps = 3;
    options.quick_first = quick_first;
    return service->OpenFrontier(std::move(spec), options);
  }

  Catalog catalog;
  std::unordered_map<std::string, std::shared_ptr<const Query>> queries;
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<NetServer> server;
};

ServiceOptions ChaosServiceOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = SmallOperatorSpace();
  // One cache slot: the star2/star3 alternation keeps evicting it, so
  // almost every open walks a fresh ladder (visiting the service-side
  // failpoints) while cache.insert itself stays on the hot path. A
  // full-size cache would absorb the whole run after the first tight
  // frontier — Lookup serves any looser target from the same signature.
  options.cache.capacity = 1;
  options.cache.shards = 1;
  // A live disk tier behind the one-slot cache: every eviction demotes
  // (persist.write) and every miss probes disk (persist.read), putting
  // the persistence failpoints on the chaos hot path. Snapshots stay off
  // here — the restart-cycle test below owns cross-restart state.
  static std::atomic<int> persist_dir_counter{0};
  options.persist.directory = ::testing::TempDir() + "moqo_chaos_persist_" +
                              std::to_string(::getpid()) + "_" +
                              std::to_string(persist_dir_counter.fetch_add(1));
  options.persist.tier_capacity_bytes = size_t{4} << 20;
  options.persist.restore_on_start = false;
  options.persist.snapshot_on_shutdown = false;
  return options;
}

OpenFrontierMsg StarOpen(int dims, double alpha) {
  OpenFrontierMsg open;
  open.query_id = "star" + std::to_string(dims);
  for (int i = 0; i < dims; ++i) {
    open.objectives.push_back(static_cast<uint8_t>(i));
  }
  open.algorithm = static_cast<int8_t>(AlgorithmKind::kRta);
  open.alpha = alpha;
  open.alpha_start = 3.0;
  open.max_steps = 3;
  return open;
}

/// Tracks the strictly-decreasing-alpha invariant across one session's
/// publish stream. The first publish may carry alpha = +infinity (the
/// quick-mode prelude: valid plans, no guarantee yet) — only publishes
/// after it must strictly tighten.
struct AlphaMonotone {
  bool has_prior = false;
  double last = 0;
  /// Returns false on a violation.
  bool Observe(double alpha) {
    const bool ok = !has_prior || alpha < last;
    has_prior = true;
    last = alpha;
    return ok;
  }
};

// ---- In-process chaos: the service-layer degradation paths. ------------

TEST(ChaosTest, InProcessSessionsAlwaysReachTerminalState) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("MOQO_CHAOS_SEED=" + std::to_string(seed));
  ChaosHarness harness(ChaosServiceOptions(2));
  ArmSites(kServiceSites, 0.05, seed);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> not_terminal{0};
  std::atomic<int> monotonicity_violations{0};
  const auto run_batch = [&](int per_thread, int batch_tag) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < per_thread; ++i) {
          const int id = batch_tag * 1000 + t * kPerThread + i;
          std::shared_ptr<FrontierSession> session = harness.OpenStar(
              2 + (t + i) % 2, i % 2 == 0, /*alpha=*/1.1 + 0.001 * id);
          if (session == nullptr) continue;  // Admission shed: terminal.
          auto monotone = std::make_shared<AlphaMonotone>();
          session->OnRefined([monotone, &monotonicity_violations](
                                 const RefinedFrontier& refined) {
            // Strictly monotone: every publish tightens the guarantee.
            if (!monotone->Observe(refined.alpha)) {
              monotonicity_violations.fetch_add(1);
            }
          });
          // Terminal within the timeout, whatever faults the ladder ate;
          // degraded and failed both count — hanging does not.
          session->AwaitFor(30000);
          if (!session->Done()) not_terminal.fetch_add(1);
          session->Cancel();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  };

  run_batch(kPerThread, 0);
  // Some seeds schedule a sparse site's first fire past the initial
  // batch's visit count; top up until every armed site has fired.
  int extra_batches = 0;
  while (!AllSitesHit(kServiceSites) && extra_batches < 15) {
    run_batch(5, ++extra_batches);
  }

  EXPECT_EQ(not_terminal.load(), 0);
  EXPECT_EQ(monotonicity_violations.load(), 0);
  rt::FailpointRegistry::Global().DisarmAll();
  // No admission slot leaks: every ladder released its slot.
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
  ExpectAllSitesHit(kServiceSites);
}

TEST(ChaosTest, RungFailureFallsBackToQuickModeFrontier) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  ChaosHarness harness(ChaosServiceOptions(2));
  // Every rung dies. quick_first=false, so the ONLY possible frontier is
  // the degradation path's quick-mode fallback.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("session.rung",
                                                  "always:throw"));
  std::shared_ptr<FrontierSession> session =
      harness.OpenStar(3, /*quick_first=*/false, /*alpha=*/1.25);
  ASSERT_NE(session, nullptr);
  session->AwaitFor(30000);
  ASSERT_TRUE(session->Done());
  EXPECT_TRUE(session->Degraded());
  // "Never return null" (paper Section 5.1): the caller still holds a
  // usable frontier, just without a finite guarantee.
  EXPECT_NE(session->BestFrontier(), nullptr);
  session->Cancel();
  rt::FailpointRegistry::Global().DisarmAll();
}

TEST(ChaosTest, WatchdogForceFinishesWedgedRung) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  ChaosHarness harness(ChaosServiceOptions(2));
  // The first rung wedges for far longer than four step deadlines; the
  // watchdog must force the session to DONE{degraded} long before the
  // worker wakes, and the late rung must stand down quietly.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm(
      "session.rung", "first_n(1):delay_ms(1500)"));

  ProblemSpec spec;
  spec.query = harness.queries["star3"];
  std::vector<Objective> objectives;
  for (int i = 0; i < 3; ++i) objectives.push_back(static_cast<Objective>(i));
  spec.objectives = ObjectiveSet(std::move(objectives));
  spec.algorithm = AlgorithmKind::kRta;
  spec.alpha = 1.25;
  SessionOptions session_options;
  session_options.alpha_start = 3.0;
  session_options.max_steps = 3;
  session_options.step_deadline_ms = 50;  // Watchdog budget: 200 ms.
  std::shared_ptr<FrontierSession> session =
      harness.service->OpenFrontier(std::move(spec), session_options);
  ASSERT_NE(session, nullptr);

  StopWatch watch;
  session->AwaitFor(30000);
  ASSERT_TRUE(session->Done());
  // Forced finish, not the rung completing: well before the 1.5 s wedge.
  EXPECT_LT(watch.ElapsedMillis(), 1000.0);
  EXPECT_TRUE(session->Degraded());
  // A watchdog fire is not a caller cancel.
  EXPECT_FALSE(session->Cancelled());
  EXPECT_GE(harness.service->Stats().watchdog_fires, 1u);
  const std::string metrics = harness.service->MetricsText();
  EXPECT_NE(metrics.find("moqo_watchdog_fires_total"), std::string::npos);
  session->Cancel();
  rt::FailpointRegistry::Global().DisarmAll();
  // The wedged worker wakes, stands down, and releases its slot.
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
}

// ---- Loopback chaos: the PR's acceptance run. --------------------------

TEST(ChaosTest, LoopbackSessionsSurviveInjectedFaultsEverywhere) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("MOQO_CHAOS_SEED=" + std::to_string(seed));
  ChaosHarness harness(ChaosServiceOptions(2));
  ASSERT_TRUE(harness.server->Start());
  const uint16_t port = harness.server->port();

  // The acceptance schedule: every site armed at probability(0.01).
  ArmSites(kServiceSites, 0.01, seed);
  ArmSites(kNetSites, 0.01, seed + 7);
  // Override: a DEAD disk tier (every probe errors). The dedicated
  // persist chaos test proves the tier serving; this run proves the tier
  // failing leaves PR-8 behavior intact — RAM misses fall through to
  // real optimizer runs, which also keeps the memo (and its memo.insert
  // site) in play under the one-slot chaos cache. A probabilistically
  // healthy tier would absorb those misses as promotions and starve the
  // memo of traffic.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("persist.tier.read",
                                                  "always:return_error"));

  std::atomic<int> opened{0};
  std::atomic<int> terminal{0};       // DONE or ERROR frame received.
  std::atomic<int> dropped{0};        // Connection killed, retries spent.
  std::atomic<int> monotonicity_violations{0};

  // One chaos client lifetime: open, stream, and on a killed connection
  // reconnect + re-OPEN (idempotent server-side) with seeded backoff. The
  // target alpha is unique per lifetime (fresh ladder work, no cache
  // absorption) but stable across its reopens (a retried open may land on
  // the cache — that is the cheap idempotent path working as intended).
  const auto run_one = [&](uint64_t client_seed, int dims, double alpha) {
    net::RetryOptions retry;
    retry.max_attempts = 4;
    retry.base_backoff_ms = 1;
    retry.max_backoff_ms = 20;
    retry.jitter_seed = client_seed;
    BlockingNetClient client;
    if (!client.ConnectWithRetry("127.0.0.1", port, retry)) {
      dropped.fetch_add(1);
      return;
    }
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (attempt == 0) {
        if (!client.SendOpen(StarOpen(dims, alpha))) {
          if (!client.Reopen(retry)) continue;
        }
      } else if (!client.Reopen(retry)) {
        continue;
      }
      opened.fetch_add(1);
      // Each (re)open is a fresh session: monotonicity restarts.
      AlphaMonotone monotone;
      BlockingNetClient::Event event;
      while (client.NextEvent(&event, 30000)) {
        if (event.type == MsgType::kFrontierUpdate) {
          if (!monotone.Observe(event.frontier.alpha)) {
            monotonicity_violations.fetch_add(1);
          }
        } else if (event.type == MsgType::kDone ||
                   event.type == MsgType::kError) {
          terminal.fetch_add(1);
          client.SendClose();
          return;
        }
      }
      // EOF mid-stream: an injected net fault killed the connection.
    }
    dropped.fetch_add(1);
  };

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;  // 200 client lifetimes minimum.
  const auto run_batch = [&](int per_thread, uint64_t batch_tag) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < per_thread; ++i) {
          const uint64_t id = batch_tag * 131071 + t * 8191 + i;
          run_one(seed ^ id, 2 + (t + i) % 2,
                  /*alpha=*/1.1 + 1e-6 * static_cast<double>(id % 100000));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  };

  run_batch(kPerThread, 0);
  // Rarely-visited sites (one net.accept visit per connection at p=0.01)
  // may legitimately need more traffic before their first hit.
  int extra_batches = 0;
  while (!(AllSitesHit(kServiceSites) && AllSitesHit(kNetSites)) &&
         extra_batches < 15) {
    run_batch(5, static_cast<uint64_t>(++extra_batches));
  }

  // Zero hangs is enforced structurally (every read has a deadline);
  // every lifetime must have ended in a terminal frame — connection
  // kills are absorbed by reconnect + re-OPEN.
  EXPECT_GE(opened.load(), kThreads * kPerThread);
  EXPECT_EQ(dropped.load(), 0);
  EXPECT_GT(terminal.load(), 0);
  EXPECT_EQ(monotonicity_violations.load(), 0);

  rt::FailpointRegistry::Global().DisarmAll();
  // The connection table drains and no admission slot leaks.
  EXPECT_TRUE(WaitFor(
      [&] { return harness.server->Stats().connections_active == 0; },
      10000));
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));

  // Every armed site fired, and the proof is scrape-visible.
  ExpectAllSitesHit(kServiceSites);
  ExpectAllSitesHit(kNetSites);
  const std::string metrics = harness.service->MetricsText();
  for (const SiteSpec& site : kServiceSites) {
    EXPECT_NE(metrics.find("moqo_failpoint_hits_total{site=\"" +
                           std::string(site.site) + "\"}"),
              std::string::npos)
        << site.site;
  }
  for (const SiteSpec& site : kNetSites) {
    EXPECT_NE(metrics.find("moqo_failpoint_hits_total{site=\"" +
                           std::string(site.site) + "\"}"),
              std::string::npos)
        << site.site;
  }
}

// ---- Persistence chaos: fault schedules across restart cycles. ---------

/// A SubmitAndWait request against the chaos star catalog; alpha varies
/// per call so each request is a distinct cache signature.
ServiceRequest ChaosStarRequest(
    const std::unordered_map<std::string,
                             std::shared_ptr<const Query>>& queries,
    int dims, double alpha) {
  ServiceRequest request;
  request.spec.query = queries.at("star" + std::to_string(dims));
  std::vector<Objective> objectives;
  for (int i = 0; i < dims; ++i) {
    objectives.push_back(static_cast<Objective>(i));
  }
  request.spec.objectives = ObjectiveSet(std::move(objectives));
  request.spec.algorithm = AlgorithmKind::kRta;
  request.spec.alpha = alpha;
  request.preference.weights = WeightVector::Uniform(dims);
  return request;
}

TEST(ChaosTest, PersistFaultsAndTornSnapshotsAcrossRestartsStayClean) {
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("MOQO_CHAOS_SEED=" + std::to_string(seed));

  const std::string dir = ::testing::TempDir() + "moqo_chaos_restart_" +
                          std::to_string(::getpid());
  const std::string snapshot_path = dir + "/moqo.snapshot";
  std::string cmd = "rm -rf " + dir;
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  Catalog catalog = MakeTinyCatalog();
  std::unordered_map<std::string, std::shared_ptr<const Query>> queries;
  for (int dims = 2; dims <= 3; ++dims) {
    queries["star" + std::to_string(dims)] =
        std::make_shared<Query>(MakeStarQuery(&catalog, dims));
  }
  const auto restart_options = [&] {
    ServiceOptions options = ChaosServiceOptions(2);
    options.persist.directory = dir;  // Shared across generations.
    options.persist.restore_on_start = true;
    options.persist.snapshot_on_shutdown = true;
    return options;
  };
  const auto tear_snapshot = [&](int drop_bytes) {
    struct stat st;
    if (::stat(snapshot_path.c_str(), &st) != 0) return;
    if (st.st_size > drop_bytes) {
      EXPECT_EQ(::truncate(snapshot_path.c_str(), st.st_size - drop_bytes),
                0);
    }
  };

  // Probabilistic generations: persist faults fire at random through
  // snapshot writes, restores, demotions, and tier probes, and every
  // other generation restarts from a torn snapshot. Persistence is a
  // cache of a cache: NO request may fail, whatever the schedule does.
  constexpr SiteSpec kPersistSites[] = {
      {"persist.write", "return_error"},
      {"persist.read", "return_error"},
      {"persist.tier.write", "return_error"},
      {"persist.tier.read", "return_error"},
  };
  ArmSites(kPersistSites, 0.2, seed + 17);
  for (int round = 0; round < 5; ++round) {
    {
      OptimizationService service(restart_options());
      for (int i = 0; i < 6; ++i) {
        ServiceResponse response = service.SubmitAndWait(ChaosStarRequest(
            queries, 2 + i % 2, 1.1 + 0.01 * (round * 6 + i)));
        EXPECT_EQ(response.status, ResponseStatus::kCompleted)
            << "round " << round << " request " << i;
      }
    }  // Teardown writes the next generation's snapshot (unless the
       // schedule eats it).
    // Every other generation boots from a torn file.
    if (round % 2 == 0) tear_snapshot(3 + round);
  }
  rt::FailpointRegistry::Global().DisarmAll();

  // Deterministic epilogue: each site in always-fire mode, so the suite
  // proves every degradation path individually (and AllSitesHit cannot
  // depend on the seed). First, a clean generation writes a good
  // snapshot.
  {
    OptimizationService service(restart_options());
    ServiceResponse response =
        service.SubmitAndWait(ChaosStarRequest(queries, 2, 1.05));
    ASSERT_EQ(response.status, ResponseStatus::kCompleted);
    ASSERT_TRUE(service.SnapshotNow());
  }
  // persist.read always: the restore open fails -> clean cold start.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("persist.read",
                                                  "always:return_error"));
  {
    ServiceOptions options = restart_options();
    options.persist.snapshot_on_shutdown = false;
    OptimizationService service(options);
    EXPECT_EQ(service.PersistStats().restored_entries(), 0u);
    EXPECT_EQ(service
                  .SubmitAndWait(ChaosStarRequest(queries, 2, 1.05))
                  .status,
              ResponseStatus::kCompleted);
  }
  rt::FailpointRegistry::Global().DisarmAll();
  // persist.write always: the snapshot fails cleanly; the previous good
  // file survives (tmp + rename) for the next boot.
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("persist.write",
                                                  "always:return_error"));
  {
    ServiceOptions options = restart_options();
    options.persist.restore_on_start = false;
    OptimizationService service(options);
    EXPECT_FALSE(service.SnapshotNow());
    EXPECT_GE(service.PersistStats().snapshot_failures, 1u);
  }
  rt::FailpointRegistry::Global().DisarmAll();
  {
    ServiceOptions options = restart_options();
    options.persist.snapshot_on_shutdown = false;
    OptimizationService service(options);
    EXPECT_GT(service.PersistStats().restored_entries(), 0u);
  }
  ExpectAllSitesHit(kPersistSites);
}

// ---- Submit() under chaos: every future resolves. ----------------------

TEST(ChaosTest, EverySubmitFutureResolves) {
  // Submit's future is completed from its one-step session's OnDone, so a
  // lost completion — or a joiner retry that never lands — would leave a
  // future unresolved forever. Duplicate-heavy load from several threads
  // keeps sessions shared (deadline-free requests coalesce, deadline-
  // bounded ones run privately) while faults degrade and fail their runs.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  const uint64_t seed = ChaosSeed();
  SCOPED_TRACE("MOQO_CHAOS_SEED=" + std::to_string(seed));
  ChaosHarness harness(ChaosServiceOptions(2));
  ArmSites(kServiceSites, 0.05, seed);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::atomic<int> unresolved{0};
  std::atomic<int> planless{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<ServiceResponse>> futures;
      for (int i = 0; i < kPerThread; ++i) {
        // Four specs shared by every thread: mostly duplicates.
        ServiceRequest request = ChaosStarRequest(
            harness.queries, 2 + i % 2, /*alpha=*/1.1 + 0.05 * (i % 4 / 2));
        request.preference.weights[0] = 1.0 + t;
        if ((t + i) % 2 == 1) request.preference.deadline_ms = 5;
        futures.push_back(harness.service->Submit(std::move(request)));
      }
      for (std::future<ServiceResponse>& future : futures) {
        if (future.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unresolved.fetch_add(1);
          continue;
        }
        const ServiceResponse response = future.get();
        if (response.status != ResponseStatus::kRejected &&
            (response.result == nullptr || response.result->plan == nullptr)) {
          planless.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  rt::FailpointRegistry::Global().DisarmAll();

  ASSERT_EQ(unresolved.load(), 0);
  EXPECT_EQ(planless.load(), 0);
  // Every slot comes back before the future that held it resolves.
  EXPECT_EQ(harness.service->InFlight(), 0u);
}

}  // namespace
}  // namespace moqo
