// Copyright (c) 2026 moqo authors. MIT license.
//
// NetServer loopback tests (PR 7). The acceptance bar: frontiers served
// over the wire are byte-identical to what an in-process FrontierSession
// publishes for the same spec and ladder; protocol violations and unknown
// queries fail the connection with a typed ERROR; connection churn with
// concurrent cancels tears down cleanly (this file runs under TSan in
// CI). Newest-wins drop mechanics are covered deterministically in
// frame_codec_test.cc (PushQueue) — over a real socket they are
// timing-dependent by design.

#include "net/net_server.h"

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/blocking_client.h"
#include "rt/failpoint.h"
#include "service/optimization_service.h"
#include "testing/test_helpers.h"

namespace moqo {
namespace {

using net::BlockingNetClient;
using net::EncodeFrontierUpdate;
using net::ErrorCode;
using net::FrontierUpdateMsg;
using net::MakeFrontierUpdate;
using net::MsgType;
using net::NetOptions;
using net::NetServer;
using net::OpenFrontierMsg;
using net::SelectMsg;
using testing::MakeStarQuery;
using testing::MakeTinyCatalog;
using testing::SmallOperatorSpace;

constexpr int64_t kEventTimeoutMs = 30000;

/// Polls `condition` for up to `ms` milliseconds (loopback teardown is
/// asynchronous: the loop thread sees EOF on its next wake).
bool WaitFor(const std::function<bool()>& condition, int ms) {
  for (int i = 0; i < ms; ++i) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return condition();
}

/// A service + server + catalog bundle: every test serves the tiny star
/// catalog under query ids "star2".."star4".
struct Harness {
  explicit Harness(ServiceOptions service_options,
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

  ~Harness() { server->Stop(); }  // Before the service it serves.

  Catalog catalog;
  std::unordered_map<std::string, std::shared_ptr<const Query>> queries;
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<NetServer> server;
};

ServiceOptions FreshRunOptions(int workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.operators = SmallOperatorSpace();
  // Every open optimizes from scratch: the byte-identity comparison needs
  // two independent runs, not one run and its cache echo.
  options.enable_cache = false;
  options.enable_coalescing = false;
  return options;
}

/// The OPEN frame used throughout: RTA-routed 3-dim star, 3-rung ladder —
/// the same shape the in-process session tests refine.
OpenFrontierMsg StarOpen(const std::string& query_id, int num_objectives) {
  OpenFrontierMsg open;
  open.query_id = query_id;
  for (int i = 0; i < num_objectives; ++i) {
    open.objectives.push_back(static_cast<uint8_t>(i));
  }
  open.algorithm = static_cast<int8_t>(AlgorithmKind::kRta);
  open.alpha = 1.25;
  open.alpha_start = 3.0;
  open.max_steps = 3;
  return open;
}

/// The in-process twin of StarOpen for the same harness.
std::shared_ptr<FrontierSession> OpenTwinSession(Harness* harness,
                                                 const std::string& id,
                                                 int num_objectives) {
  ProblemSpec spec;
  spec.query = harness->queries[id];
  std::vector<Objective> objectives;
  for (int i = 0; i < num_objectives; ++i) {
    objectives.push_back(static_cast<Objective>(i));
  }
  spec.objectives = ObjectiveSet(std::move(objectives));
  spec.algorithm = AlgorithmKind::kRta;
  spec.alpha = 1.25;
  SessionOptions options;
  options.alpha_start = 3.0;
  options.max_steps = 3;
  return harness->service->OpenFrontier(std::move(spec), options);
}

/// Canonical frontier bytes: the encoded FRONTIER_UPDATE with step_ms
/// zeroed (wall time is the one legitimately run-dependent field).
std::string FrontierBytes(FrontierUpdateMsg msg) {
  msg.step_ms = 0;
  return EncodeFrontierUpdate(msg);
}

TEST(NetServerTest, WireFrontiersByteIdenticalToInProcessSession) {
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());

  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  ASSERT_TRUE(client.SendOpen(StarOpen("star3", 3)));

  std::vector<std::string> wire_frontiers;
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(
      &event,
      [&](const FrontierUpdateMsg& update) {
        wire_frontiers.push_back(FrontierBytes(update));
      },
      kEventTimeoutMs));
  EXPECT_EQ(event.done.target_reached, 1);
  EXPECT_EQ(event.done.steps_published,
            static_cast<int32_t>(wire_frontiers.size()));

  // Run the identical session in-process and encode its history through
  // the same summary builder.
  auto session = OpenTwinSession(&harness, "star3", 3);
  ASSERT_NE(session, nullptr);
  ASSERT_TRUE(session->AwaitTarget());
  std::vector<std::string> local_frontiers;
  for (const RefinedFrontier& refined : session->History()) {
    local_frontiers.push_back(FrontierBytes(
        MakeFrontierUpdate(refined.step, refined.alpha, refined.from_cache,
                           refined.step_ms, *refined.plan_set)));
  }
  session->Cancel();

  // Byte-identical: same steps, same alphas (bit-exact), same cost
  // matrices (bit-exact), same order.
  ASSERT_GE(wire_frontiers.size(), 2u);  // Quick prelude + rungs.
  EXPECT_EQ(wire_frontiers, local_frontiers);

  client.SendClose();
}

TEST(NetServerTest, SelectOverWireMatchesInProcessSelect) {
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());

  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  ASSERT_TRUE(client.SendOpen(StarOpen("star3", 3)));
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(&event, nullptr, kEventTimeoutMs));

  SelectMsg select;
  select.tag = 77;
  select.weights = {1.0, 2.0, 3.0};
  ASSERT_TRUE(client.SendSelect(select));
  ASSERT_TRUE(client.NextEvent(&event, kEventTimeoutMs));
  ASSERT_EQ(event.type, MsgType::kSelectResult);
  EXPECT_EQ(event.select_result.tag, 77u);

  auto session = OpenTwinSession(&harness, "star3", 3);
  ASSERT_TRUE(session->AwaitTarget());
  Preference preference;
  WeightVector weights(3);
  weights[0] = 1.0;
  weights[1] = 2.0;
  weights[2] = 3.0;
  preference.weights = weights;
  const SessionSelection local = session->Select(preference);
  session->Cancel();

  EXPECT_EQ(event.select_result.step, local.step);
  EXPECT_EQ(event.select_result.alpha, local.alpha);
  EXPECT_EQ(event.select_result.plan_index, local.selection.index);
  EXPECT_EQ(event.select_result.weighted_cost,
            local.selection.weighted_cost);
  ASSERT_EQ(static_cast<int>(event.select_result.cost.size()),
            local.selection.cost.size());
  for (int i = 0; i < local.selection.cost.size(); ++i) {
    EXPECT_EQ(event.select_result.cost[i], local.selection.cost[i]);
  }
  client.SendClose();
}

TEST(NetServerTest, CancelOverWireCompletesWithDoneAndSelectStillWorks) {
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());

  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  OpenFrontierMsg open = StarOpen("star3", 3);
  open.alpha = 1.01;  // Tight target, long ladder: cancel lands mid-flight.
  open.alpha_start = 8.0;
  open.max_steps = 8;
  ASSERT_TRUE(client.SendOpen(open));
  ASSERT_TRUE(client.SendCancel());

  int updates = 0;
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(
      &event, [&](const FrontierUpdateMsg&) { ++updates; },
      kEventTimeoutMs));
  // Cancelled mid-ladder or (if the tiny query outran the CANCEL frame)
  // completed — either way the session is over and announced it.
  EXPECT_TRUE(event.done.cancelled == 1 || event.done.target_reached == 1);

  // The anytime contract survives completion: SELECT still answers from
  // whatever the session had published.
  SelectMsg select;
  select.tag = 5;
  ASSERT_TRUE(client.SendSelect(select));
  ASSERT_TRUE(client.NextEvent(&event, kEventTimeoutMs));
  ASSERT_EQ(event.type, MsgType::kSelectResult);
  if (updates > 0) EXPECT_GE(event.select_result.plan_index, 0);
  client.SendClose();
}

TEST(NetServerTest, ProtocolViolationsGetTypedErrorThenClose) {
  Harness harness(FreshRunOptions(1));
  ASSERT_TRUE(harness.server->Start());

  // SELECT before OPEN.
  {
    BlockingNetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
    SelectMsg select;
    ASSERT_TRUE(client.SendSelect(select));
    BlockingNetClient::Event event;
    ASSERT_TRUE(client.NextEvent(&event, kEventTimeoutMs));
    ASSERT_EQ(event.type, MsgType::kError);
    EXPECT_EQ(event.error.code, static_cast<uint8_t>(ErrorCode::kProtocol));
    EXPECT_FALSE(client.NextEvent(&event, kEventTimeoutMs));  // EOF.
  }
  // Unknown query id.
  {
    BlockingNetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
    ASSERT_TRUE(client.SendOpen(StarOpen("no_such_query", 3)));
    BlockingNetClient::Event event;
    ASSERT_TRUE(client.NextEvent(&event, kEventTimeoutMs));
    ASSERT_EQ(event.type, MsgType::kError);
    EXPECT_EQ(event.error.code,
              static_cast<uint8_t>(ErrorCode::kUnknownQuery));
    EXPECT_FALSE(client.NextEvent(&event, kEventTimeoutMs));
  }
  // Garbage header: no ERROR frame is promised (the stream is unframed),
  // just a close.
  {
    BlockingNetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
    ASSERT_TRUE(client.SendRaw("this is not a moqo frame"));
    BlockingNetClient::Event event;
    client.NextEvent(&event, kEventTimeoutMs);  // ERROR or EOF.
    EXPECT_FALSE(client.NextEvent(&event, kEventTimeoutMs));
  }
  EXPECT_TRUE(WaitFor(
      [&] { return harness.server->Stats().connections_active == 0; },
      5000));
  EXPECT_GE(harness.server->Stats().protocol_errors, 3u);
}

TEST(NetServerTest, OutOfRangeLadderKnobsGetProtocolErrorAndNoSession) {
  Harness harness(FreshRunOptions(1));
  ASSERT_TRUE(harness.server->Start());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Each knob just past its bound; the step cap is 64.
  const std::vector<std::function<void(OpenFrontierMsg*)>> out_of_range = {
      [](OpenFrontierMsg* open) { open->max_steps = 65; },
      [](OpenFrontierMsg* open) { open->max_steps = 0; },
      [&](OpenFrontierMsg* open) { open->alpha_start = nan; },
      [&](OpenFrontierMsg* open) { open->alpha_start = inf; },
      [&](OpenFrontierMsg* open) { open->alpha_target = nan; },
      [&](OpenFrontierMsg* open) { open->alpha = inf; },
  };
  for (size_t i = 0; i < out_of_range.size(); ++i) {
    OpenFrontierMsg open = StarOpen("star3", 3);
    out_of_range[i](&open);
    BlockingNetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
    ASSERT_TRUE(client.SendOpen(open));
    BlockingNetClient::Event event;
    ASSERT_TRUE(client.NextEvent(&event, kEventTimeoutMs)) << i;
    ASSERT_EQ(event.type, MsgType::kError) << i;
    EXPECT_EQ(event.error.code, static_cast<uint8_t>(ErrorCode::kProtocol))
        << i;
    EXPECT_FALSE(client.NextEvent(&event, kEventTimeoutMs)) << i;  // EOF.
  }
  EXPECT_EQ(harness.server->Stats().sessions_opened, 0u);
  EXPECT_EQ(harness.service->Stats().sessions_opened, 0u);
}

TEST(NetServerTest, ConnectionChurnWithConcurrentCancels) {
  ServiceOptions options = FreshRunOptions(2);
  Harness harness(options);
  ASSERT_TRUE(harness.server->Start());
  const uint16_t port = harness.server->port();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        BlockingNetClient client;
        if (!client.Connect("127.0.0.1", port)) {
          failures.fetch_add(1);
          continue;
        }
        OpenFrontierMsg open = StarOpen(t % 2 == 0 ? "star2" : "star3",
                                        t % 2 == 0 ? 2 : 3);
        open.quick_first = i % 2;
        if (!client.SendOpen(open)) failures.fetch_add(1);
        switch (i % 3) {
          case 0:
            // Abrupt disconnect mid-session: server must cancel + reap.
            client.Disconnect();
            break;
          case 1: {
            // Cancel, then vanish without reading the DONE.
            client.SendCancel();
            client.Disconnect();
            break;
          }
          default: {
            BlockingNetClient::Event event;
            if (!client.AwaitDone(&event, nullptr, kEventTimeoutMs)) {
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

  EXPECT_EQ(failures.load(), 0);
  // A client that disconnected at once may still sit in the listen
  // backlog: wait for every accept, not just for no open connection.
  EXPECT_TRUE(WaitFor(
      [&] {
        const net::NetStatsSnapshot stats = harness.server->Stats();
        return stats.connections_accepted == kThreads * kPerThread &&
               stats.connections_active == 0;
      },
      10000));
  const net::NetStatsSnapshot stats = harness.server->Stats();
  EXPECT_EQ(stats.connections_accepted,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.protocol_errors, 0u);
  // Every refining ladder was reaped: no session leaks a slot.
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
}

TEST(NetServerTest, MetricsTextCoversNetFamily) {
  Harness harness(FreshRunOptions(1));
  ASSERT_TRUE(harness.server->Start());
  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  ASSERT_TRUE(client.SendOpen(StarOpen("star2", 2)));
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(&event, nullptr, kEventTimeoutMs));
  client.SendClose();

  const std::string text = harness.service->MetricsText();
  EXPECT_NE(text.find("# TYPE moqo_net_connections_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("moqo_net_bytes_total{direction=\"in\"} "),
            std::string::npos);
  EXPECT_NE(text.find("moqo_net_bytes_total{direction=\"out\"} "),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE moqo_net_push_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("moqo_net_pushes_total "), std::string::npos);
  EXPECT_NE(text.find("moqo_net_sessions_total 1"), std::string::npos);

  const net::NetStatsSnapshot stats = harness.server->Stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_GT(stats.bytes_in, 0u);
  EXPECT_GT(stats.bytes_out, 0u);
  EXPECT_GT(stats.pushes_sent, 0u);
}

TEST(NetServerTest, ServerStopWithLiveConnectionsTearsDownCleanly) {
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());
  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  OpenFrontierMsg open = StarOpen("star3", 3);
  open.alpha = 1.01;
  open.alpha_start = 8.0;
  open.max_steps = 8;
  ASSERT_TRUE(client.SendOpen(open));
  // Stop while the ladder is (likely) still refining: the server must
  // remove callbacks, cancel the session, and join without hanging.
  harness.server->Stop();
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
  // The client observes EOF (possibly after buffered frames).
  BlockingNetClient::Event event;
  while (client.NextEvent(&event, 1000)) {
  }
  SUCCEED();
}

TEST(NetServerTest, StopRacingDelayedPushEncodeTearsDownCleanly) {
  // Regression (PR 8): Stop() used to race in-flight OnRefined encodes —
  // a rung worker could be building/enqueuing a FRONTIER_UPDATE for a
  // connection the stop path was concurrently tearing down. Found by
  // stretching the encode window with a delay_ms failpoint; the fix keeps
  // the closed flag and outbox under one lock and fences the callback.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  ASSERT_TRUE(rt::FailpointRegistry::Global().Arm("net.push.encode",
                                                  "always:delay_ms(20)"));
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());
  std::vector<std::unique_ptr<BlockingNetClient>> clients;
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<BlockingNetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", harness.server->port()));
    OpenFrontierMsg open = StarOpen("star3", 3);
    open.alpha = 1.01;
    open.alpha_start = 8.0;
    open.max_steps = 8;
    ASSERT_TRUE(clients.back()->SendOpen(open));
  }
  // Give the ladders time to start pushing, then stop mid-encode: every
  // in-flight delayed encode is now racing the connection teardown.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  harness.server->Stop();
  rt::FailpointRegistry::Global().DisarmAll();
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
  EXPECT_EQ(harness.server->Stats().connections_active, 0u);
  for (auto& client : clients) {
    BlockingNetClient::Event event;
    while (client->NextEvent(&event, 1000)) {
    }
  }
}

TEST(NetServerTest, ThrowingPushEncodeDropsPushButDoneStillArrives) {
  // A push that dies inside the refinement callback must cost only that
  // push: the exception is fenced at the subscriber boundary (counted as
  // a dropped push) and the session still terminates with DONE.
  if (!rt::kFailpointsEnabled) {
    GTEST_SKIP() << "built with MOQO_FAILPOINTS=OFF";
  }
  ASSERT_TRUE(
      rt::FailpointRegistry::Global().Arm("net.push.encode", "always:throw"));
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());
  BlockingNetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.server->port()));
  ASSERT_TRUE(client.SendOpen(StarOpen("star3", 3)));
  int updates = 0;
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(
      &event, [&](const FrontierUpdateMsg&) { ++updates; },
      kEventTimeoutMs));
  EXPECT_EQ(updates, 0);  // Every FRONTIER_UPDATE died at the failpoint.
  EXPECT_GE(harness.server->Stats().pushes_dropped, 1u);
  rt::FailpointRegistry::Global().DisarmAll();
  client.SendClose();
}

TEST(NetServerTest, QuietConnectionsReapedOnHandshakeAndIdleDeadlines) {
  NetOptions net_options;
  net_options.handshake_timeout_ms = 50;
  net_options.idle_timeout_ms = 150;
  Harness harness(FreshRunOptions(2), net_options);
  ASSERT_TRUE(harness.server->Start());

  // Client A connects and never sends a frame: reaped at the handshake
  // deadline with a typed ERROR.
  BlockingNetClient silent;
  ASSERT_TRUE(silent.Connect("127.0.0.1", harness.server->port()));

  // Client B completes a session, then goes quiet without closing:
  // reaped at the idle deadline (server pushes counted as activity, so
  // the clock only starts once the ladder stops talking).
  BlockingNetClient idle;
  ASSERT_TRUE(idle.Connect("127.0.0.1", harness.server->port()));
  ASSERT_TRUE(idle.SendOpen(StarOpen("star3", 3)));
  BlockingNetClient::Event event;
  ASSERT_TRUE(idle.AwaitDone(&event, nullptr, kEventTimeoutMs));

  EXPECT_TRUE(WaitFor(
      [&] { return harness.server->Stats().connections_reaped >= 2; },
      10000));
  // The reap is announced, not silent: if any frame reaches the client
  // before EOF, it is the timeout ERROR.
  if (silent.NextEvent(&event, 1000)) {
    EXPECT_EQ(event.type, MsgType::kError);
    EXPECT_EQ(static_cast<ErrorCode>(event.error.code), ErrorCode::kTimeout);
  }
  EXPECT_TRUE(WaitFor(
      [&] { return harness.server->Stats().connections_active == 0; },
      10000));
  EXPECT_TRUE(WaitFor([&] { return harness.service->InFlight() == 0; },
                      10000));
}

TEST(NetServerTest, ConnectWithRetryAndReopenRecoverTheStream) {
  Harness harness(FreshRunOptions(2));
  ASSERT_TRUE(harness.server->Start());
  net::RetryOptions retry;
  retry.max_attempts = 3;
  retry.base_backoff_ms = 1;
  retry.jitter_seed = 7;

  BlockingNetClient client;
  ASSERT_TRUE(
      client.ConnectWithRetry("127.0.0.1", harness.server->port(), retry));
  // Reopen before any OPEN was sent has nothing to replay.
  EXPECT_FALSE(client.Reopen(retry));

  ASSERT_TRUE(client.SendOpen(StarOpen("star3", 3)));
  BlockingNetClient::Event event;
  ASSERT_TRUE(client.AwaitDone(&event, nullptr, kEventTimeoutMs));

  // Simulate a dropped connection: Reopen reconnects and re-sends the
  // remembered OPEN; the server replays the stream to DONE again.
  client.Disconnect();
  ASSERT_TRUE(client.Reopen(retry));
  ASSERT_TRUE(client.AwaitDone(&event, nullptr, kEventTimeoutMs));
  EXPECT_EQ(event.done.target_reached, 1);
  client.SendClose();

  // Against a dead endpoint, retries are bounded and fail cleanly.
  harness.server->Stop();
  EXPECT_FALSE(client.Reopen(retry));
}

TEST(NetServerTest, ErrorCodeNamesAreStable) {
  // The names are printed by clients and keyed on by log pipelines; the
  // values are wire contract (README, protocol table).
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kProtocol), "protocol");
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kUnknownQuery), "unknown_query");
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kRejected), "rejected");
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kOverloaded), "overloaded");
  EXPECT_STREQ(net::ErrorCodeName(ErrorCode::kTimeout), "timeout");
  EXPECT_STREQ(net::ErrorCodeName(static_cast<ErrorCode>(250)), "unknown");
}

}  // namespace
}  // namespace moqo
