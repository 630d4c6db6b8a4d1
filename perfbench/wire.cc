// Copyright (c) 2026 moqo authors. MIT license.
//
// wire_anytime: two closed-loop BlockingNetClient connections over
// loopback to an in-process NetServer. Every session opens a never-repeated
// window of a long chain of tables (10 tables, 3 objectives, stride 1, so
// consecutive windows share 9 tables), streams the anytime ladder with the
// wire defaults (quick first frontier, alpha 4 -> 1.5 in 4 rungs), sends one
// SELECT after its first update and one after DONE, and closes. This is the
// only workload through net/ and the session ladder; the overlapping
// windows make the subplan memo do most of the DP.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "core/exa.h"
#include "frontier/frontier.h"
#include "net/blocking_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "service/optimization_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using moqo::Catalog;
using moqo::CostVector;
using moqo::OptimizationService;
using moqo::Query;
using moqo::net::BlockingNetClient;
using moqo::net::FrontierUpdateMsg;
using moqo::net::MsgType;

constexpr int kConnections = 2;
constexpr int kWindowTables = 10;
constexpr int kObjectives = 3;
constexpr double kTargetAlpha = 1.5;  // The policy default the ladder ends at.
constexpr int kSetupRepeats = 25;  // Set-ups per run (median reported).
/// Sessions per --seconds unit (about one second of work on a 4-core
/// host); the count, not the clock, fixes a run's work.
constexpr int kSessionsPerSecond = 68;
/// Every this-many-th session's final frontier is checked against an exact
/// (EXA) run of its window.
constexpr int kCoverageEvery = 64;
constexpr int64_t kEventTimeoutMs = 60000;

/// A chain r0 - r1 - ... of `tables` tables joined on one indexed column,
/// with seeded cardinalities (distinct content per table, so windows are
/// distinct specs and share work only where they share tables).
std::unique_ptr<Catalog> MakeChainCatalog(int tables, uint64_t seed) {
  auto catalog = std::make_unique<Catalog>();
  moqo::Xoshiro256 rng(MixSeed(seed, 3));
  for (int i = 0; i < tables; ++i) {
    const double rows = 500.0 * (1 + static_cast<int>(rng.NextInt(uint64_t{13})));
    moqo::Table table("r" + std::to_string(i), rows, 48);
    moqo::ColumnStats key;
    key.name = "k";
    key.ndv = 100;
    key.min_value = 0;
    key.max_value = 99;
    key.histogram = moqo::Histogram::Uniform(0, 99, 8, rows);
    table.AddColumn(key);
    table.AddIndex("k");
    catalog->AddTable(std::move(table));
  }
  return catalog;
}

std::shared_ptr<const Query> WindowQuery(const Catalog* catalog, int first) {
  auto query = std::make_shared<Query>(catalog, "w" + std::to_string(first));
  std::vector<int> locals;
  for (int i = first; i < first + kWindowTables; ++i) {
    locals.push_back(query->AddTable("r" + std::to_string(i)));
  }
  for (size_t i = 0; i + 1 < locals.size(); ++i) {
    query->AddJoin(locals[i], "k", locals[i + 1], "k");
  }
  return query;
}

/// Connection c runs the sessions s with s * kConnections / sessions == c,
/// in order.
int ConnectionOf(int session, int sessions) {
  return session * kConnections / sessions;
}

/// First table of session `s`'s window. Consecutive sessions of a
/// connection share kWindowTables - 1 tables; each connection starts
/// kWindowTables - 1 tables past the previous one's last window, so the
/// connections share no tables and each one's memo reuse is the same on
/// every run.
int WindowStart(int session, int sessions) {
  return session + ConnectionOf(session, sessions) * (kWindowTables - 1);
}

moqo::ServiceOptions WireServiceOptions() {
  moqo::ServiceOptions options;
  // Two workers with DP parallelism 2 sharing one helper, plus the event
  // loop: at most four busy threads on four cores.
  options.num_workers = 2;
  options.num_dp_helpers = 1;
  options.policy.max_parallelism = 2;
  options.operators = BenchOperatorSpace();
  return options;
}

struct WireSetup {
  std::unique_ptr<Catalog> catalog;
  std::unordered_map<std::string, std::shared_ptr<const Query>> queries;
  std::unique_ptr<OptimizationService> service;
  std::unique_ptr<moqo::net::NetServer> server;

  ~WireSetup() {
    if (server != nullptr) server->Stop();  // Before the service dies.
  }
};

/// Catalog, service and started server; false if the server cannot bind.
bool BuildWireSetup(int sessions, uint64_t seed, WireSetup* setup) {
  const int tables = WindowStart(sessions - 1, sessions) + kWindowTables;
  setup->catalog = MakeChainCatalog(tables, seed);
  setup->service = std::make_unique<OptimizationService>(WireServiceOptions());
  moqo::net::NetOptions options;
  auto* queries = &setup->queries;
  options.resolve_query =
      [queries](const std::string& id) -> std::shared_ptr<const Query> {
    auto it = queries->find(id);
    return it == queries->end() ? nullptr : it->second;
  };
  setup->server =
      std::make_unique<moqo::net::NetServer>(setup->service.get(), options);
  return setup->server->Start();
}

/// What one session saw, for metrics and checks.
struct SessionRecord {
  bool ok = false;
  double latency_ms = 0;         ///< OPEN sent -> DONE decoded.
  double first_frontier_ms = 0;  ///< OPEN sent -> first update decoded.
  double quick_step_ms = 0;      ///< Server-side time of the quick frontier.
  std::vector<double> rung_step_ms;
  std::vector<double> select_rtt_ms;
  bool shed = false;
  /// The final frontier as received (row-major costs).
  FrontierUpdateMsg last;
  /// Every update, kept by traced runs for the decode timing.
  std::vector<FrontierUpdateMsg> updates;
};

/// Runs one session on a fresh connection; failures are recorded against
/// `op`.
SessionRecord RunSession(uint16_t port, int window, uint64_t op, bool keep,
                         SpanLog* spans, Failures* failures) {
  SessionRecord record;
  BlockingNetClient client;
  {
    ScopedSpan span(spans, "net.connect", op);
    if (!client.Connect("127.0.0.1", port)) {
      failures->Fail(op, "connect failed");
      return record;
    }
  }
  ScopedSpan session_span(spans, "wire_anytime.session", op);
  moqo::net::OpenFrontierMsg open;  // Wire defaults for everything else.
  open.query_id = "w" + std::to_string(window);
  open.objectives = {0, 1, 2};
  BlockingNetClient::Event event;
  const Clock::time_point opened = Clock::now();
  if (!client.SendOpen(open)) {
    failures->Fail(op, "OPEN send failed");
    return record;
  }
  bool done = false;
  double last_alpha = std::numeric_limits<double>::infinity();
  Clock::time_point select_sent[2];
  bool select_answered[2] = {false, false};
  bool select_pending[2] = {false, false};
  moqo::net::DoneMsg done_msg;
  auto fail = [&](const std::string& why) {
    failures->Fail(op, why);
    return record;
  };
  {
    ScopedSpan span(spans, "net.await_first_update", op);
    if (!client.NextEvent(&event, kEventTimeoutMs)) return fail("no event");
    if (event.type != MsgType::kFrontierUpdate) {
      return fail("first frame is not a FRONTIER_UPDATE");
    }
  }
  record.first_frontier_ms = MsSince(opened);
  record.quick_step_ms = event.frontier.step_ms;
  if (!std::isinf(event.frontier.alpha)) {
    return fail("first update is not the quick-mode frontier");
  }
  if (keep) record.updates.push_back(event.frontier);
  record.last = event.frontier;
  select_sent[0] = Clock::now();
  select_pending[0] = true;
  moqo::net::SelectMsg select;
  select.tag = 1;
  if (!client.SendSelect(select)) return fail("SELECT send failed");

  auto handle_select = [&](const moqo::net::SelectResultMsg& result) {
    const int index = static_cast<int>(result.tag) - 1;
    if (index < 0 || index > 1 || !select_pending[index] ||
        select_answered[index]) {
      failures->Fail(op, "unexpected SELECT_RESULT");
      return;
    }
    select_answered[index] = true;
    record.select_rtt_ms.push_back(MsSince(select_sent[index]));
    if (result.plan_index < 0) failures->Fail(op, "SELECT found no plan");
  };
  {
    ScopedSpan span(spans, "net.await_done", op);
    while (!done) {
      if (!client.NextEvent(&event, kEventTimeoutMs)) return fail("no event");
      switch (event.type) {
        case MsgType::kFrontierUpdate:
          if (!(event.frontier.alpha < last_alpha)) {
            failures->Fail(op, "published alpha did not decrease");
          }
          last_alpha = event.frontier.alpha;
          record.rung_step_ms.push_back(event.frontier.step_ms);
          if (keep) record.updates.push_back(event.frontier);
          record.last = event.frontier;
          break;
        case MsgType::kSelectResult:
          handle_select(event.select_result);
          break;
        case MsgType::kDone:
          done = true;
          done_msg = event.done;
          break;
        default:
          return fail("ERROR frame: " + event.error.message);
      }
    }
  }
  record.latency_ms = MsSince(opened);
  record.shed = done_msg.shed != 0;
  if (!done_msg.target_reached || done_msg.rejected || done_msg.degraded ||
      done_msg.shed || done_msg.cancelled) {
    failures->Fail(op, "session ended without reaching its target alpha");
  }
  if (!(done_msg.best_alpha <= kTargetAlpha * (1 + 1e-12)) ||
      done_msg.best_alpha != last_alpha) {
    failures->Fail(op, "DONE alpha disagrees with the streamed frontiers");
  }
  {
    ScopedSpan span(spans, "net.select_after_done", op);
    select_sent[1] = Clock::now();
    select_pending[1] = true;
    select.tag = 2;
    if (!client.SendSelect(select)) return fail("SELECT send failed");
    while (!select_answered[0] || !select_answered[1]) {
      if (!client.NextEvent(&event, kEventTimeoutMs)) return fail("no event");
      if (event.type != MsgType::kSelectResult) {
        return fail("unexpected frame after DONE");
      }
      handle_select(event.select_result);
      // The post-DONE answer selects from the final frontier: its cost row
      // must be that frontier's, bit for bit.
      if (event.select_result.tag == 2) {
        const auto& result = event.select_result;
        const uint32_t dims = record.last.dims;
        const bool in_range = result.plan_index >= 0 &&
                              static_cast<uint32_t>(result.plan_index) <
                                  record.last.num_plans() &&
                              result.cost.size() == dims;
        bool same = in_range;
        for (uint32_t d = 0; same && d < dims; ++d) {
          same = result.cost[d] ==
                 record.last.costs[result.plan_index * dims + d];
        }
        if (!same) failures->Fail(op, "SELECT after DONE off the final frontier");
      }
    }
  }
  client.SendClose();
  record.ok = true;
  return record;
}

struct WirePass {
  double wall_ms = 0;
  double cpu_s = 0;
  std::vector<SessionRecord> sessions;
  moqo::net::NetStatsSnapshot net;
  moqo::ServiceStatsSnapshot service;
  moqo::SubplanMemo::Stats memo;
};

/// Runs every session, each connection its own (see WindowStart).
WirePass RunWirePass(WireSetup* setup, int sessions, uint64_t op_base,
                     std::vector<std::unique_ptr<SpanLog>>* spans,
                     Failures* failures) {
  WirePass pass;
  pass.sessions.resize(sessions);
  const uint16_t port = setup->server->port();
  const double cpu_start = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      SpanLog* log = spans->empty() ? nullptr : (*spans)[c].get();
      for (int s = 0; s < sessions; ++s) {
        if (ConnectionOf(s, sessions) != c) continue;
        pass.sessions[s] = RunSession(port, WindowStart(s, sessions),
                                      op_base + s, log != nullptr, log,
                                      failures);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  pass.wall_ms = MsSince(start);
  pass.cpu_s = ProcessCpuSeconds() - cpu_start;
  pass.net = setup->server->Stats();
  pass.service = setup->service->Stats();
  pass.memo = setup->service->MemoStats();
  if (pass.net.protocol_errors != 0) {
    failures->Fail(op_base, "server counted protocol errors");
  }
  return pass;
}

/// Coverage of sampled final frontiers against an exact run of the window.
void CheckCoverage(const WireSetup& setup, const WirePass& pass,
                   uint64_t op_base, Failures* failures,
                   CoverageTally* coverage) {
  moqo::OptimizerOptions options;
  options.operators = BenchOperatorSpace();
  const moqo::ObjectiveSet objectives(std::vector<moqo::Objective>(
      moqo::kAllObjectives.begin(), moqo::kAllObjectives.begin() + kObjectives));
  const int sessions = static_cast<int>(pass.sessions.size());
  for (int s = 0; s < sessions; s += kCoverageEvery) {
    const SessionRecord& record = pass.sessions[s];
    if (!record.ok) continue;
    const std::shared_ptr<const Query> query = setup.queries.at(
        "w" + std::to_string(WindowStart(s, sessions)));
    moqo::MOQOProblem problem;
    problem.query = query.get();
    problem.objectives = objectives;
    problem.weights = moqo::WeightVector::Uniform(kObjectives);
    const moqo::OptimizerResult exact = moqo::ExactMOQO(options).Optimize(problem);
    std::vector<CostVector> received;
    const uint32_t dims = record.last.dims;
    for (uint32_t p = 0; p < record.last.num_plans(); ++p) {
      CostVector cost(static_cast<int>(dims));
      for (uint32_t d = 0; d < dims; ++d) {
        cost[d] = record.last.costs[p * dims + d];
      }
      received.push_back(cost);
    }
    const double alpha = moqo::CoverageAlpha(received, exact.frontier());
    coverage->Add(alpha);
    if (!(alpha <= kTargetAlpha * (1 + 1e-9))) {
      failures->Fail(op_base + s, "final frontier coverage alpha " +
                                      std::to_string(alpha));
    }
  }
}

}  // namespace

Report RunWireAnytime(const RunConfig& config) {
  Report report;
  Failures failures;
  MetricSink sink(&report.metrics);
  const int sessions = config.seconds * kSessionsPerSecond;

  // Catalog, service and started server (timed), then the window queries
  // (input generation, not set-up work). Null if the server cannot start.
  auto build = [&](double* seconds) -> std::unique_ptr<WireSetup> {
    auto setup = std::make_unique<WireSetup>();
    const Clock::time_point start = Clock::now();
    if (!BuildWireSetup(sessions, config.seed, setup.get())) return nullptr;
    *seconds = MsSince(start) / 1000.0;
    for (int s = 0; s < sessions; ++s) {
      const int first = WindowStart(s, sessions);
      setup->queries["w" + std::to_string(first)] =
          WindowQuery(setup->catalog.get(), first);
    }
    return setup;
  };
  std::vector<double> setup_seconds;
  std::unique_ptr<WireSetup> setup;
  for (int r = 0; r < (config.trace ? 1 : kSetupRepeats); ++r) {
    setup.reset();
    ReleaseFreedMemory();
    double seconds = 0;
    setup = build(&seconds);
    if (setup == nullptr) {
      report.errors.push_back("server failed to start");
      return report;
    }
    setup_seconds.push_back(seconds);
  }

  CoverageTally coverage;
  auto rungs = [](const WirePass& pass) {
    double total = 0;
    for (const SessionRecord& record : pass.sessions) {
      total += record.rung_step_ms.size();
    }
    return total / pass.sessions.size();
  };
  if (!config.trace) {
    std::vector<std::unique_ptr<SpanLog>> no_spans;
    const WirePass pass =
        RunWirePass(setup.get(), sessions, 0, &no_spans, &failures);
    const double rss_mb = PeakRssMb();
    CheckCoverage(*setup, pass, 0, &failures, &coverage);
    report.attempted = sessions;
    report.failed = failures.count();
    sink.Add("setup_s", *Median(setup_seconds));
    sink.Add("throughput_ops_s", sessions / (pass.wall_ms / 1000.0));
    std::vector<double> latency, first;
    for (const SessionRecord& record : pass.sessions) {
      if (!record.ok) continue;
      latency.push_back(record.latency_ms);
      first.push_back(record.first_frontier_ms);
    }
    sink.AddPercentile("latency_p50_ms", latency, 50);
    sink.AddPercentile("first_frontier_p50_ms", first, 50);
    sink.Add("rss_peak_mb", rss_mb);
    sink.Add("ok_ratio", 1.0 - *FailureShare(report.failed, report.attempted));
    sink.Add("coverage_alpha_max", coverage.alpha_max);
    report.counts.push_back({"session.rungs_per_session", rungs(pass)});
    report.counts.push_back({"memo.hits", static_cast<double>(pass.memo.hits)});
    report.counts.push_back(
        {"memo.misses", static_cast<double>(pass.memo.misses)});
    report.counts.push_back(
        {"coverage_checked", static_cast<double>(coverage.checked)});
  } else {
    std::vector<std::unique_ptr<SpanLog>> no_spans;
    const WirePass plain =
        RunWirePass(setup.get(), sessions, 0, &no_spans, &failures);
    // A fresh service and server, so the traced pass repeats the same work
    // from empty caches.
    setup.reset();
    double unused = 0;
    setup = build(&unused);
    if (setup == nullptr) {
      report.errors.push_back("server failed to start");
      return report;
    }
    const Clock::time_point epoch = Clock::now();
    std::vector<std::unique_ptr<SpanLog>> spans;
    for (int c = 0; c <= kConnections; ++c) {
      spans.push_back(std::make_unique<SpanLog>(c, epoch));
    }
    const WirePass traced =
        RunWirePass(setup.get(), sessions, sessions, &spans, &failures);
    // Decode cost of the received frames: each update re-encoded (the
    // codec is bit-exact, so these are the bytes that crossed the wire),
    // then split and decoded as a client does.
    SpanLog* decoder_log = spans[kConnections].get();
    uint64_t decoded = 0;
    for (size_t s = 0; s < traced.sessions.size(); ++s) {
      for (const FrontierUpdateMsg& update : traced.sessions[s].updates) {
        const std::string bytes = moqo::net::EncodeFrontierUpdate(update);
        moqo::net::FrameDecoder decoder;
        MsgType type;
        std::vector<uint8_t> payload;
        FrontierUpdateMsg out;
        bool ok = false;
        {
          ScopedSpan span(decoder_log, "net.decode", sessions + s);
          decoder.Feed(bytes.data(), bytes.size());
          ok = decoder.Next(&type, &payload) ==
                   moqo::net::FrameDecoder::Status::kFrame &&
               moqo::net::DecodeFrontierUpdate(payload.data(), payload.size(),
                                               &out);
        }
        if (!ok || out.costs != update.costs) {
          failures.Fail(sessions + s, "frame did not decode back");
        }
        ++decoded;
      }
    }
    CheckCoverage(*setup, traced, sessions, &failures, &coverage);
    report.attempted = 2 * sessions;
    report.failed = failures.count();

    std::vector<const SpanLog*> logs;
    for (const auto& log : spans) logs.push_back(log.get());
    const auto summary = Summarize(logs);
    std::printf("%s", FormatSummary(summary).c_str());
    WriteTrace(logs, config, &report);

    std::vector<double> rung_ms, quick_ms, overhead_ms, rtt_ms, decode_us;
    std::vector<double> plain_latency, plain_first;
    for (const SessionRecord& record : plain.sessions) {
      if (!record.ok) continue;
      plain_latency.push_back(record.latency_ms);
      plain_first.push_back(record.first_frontier_ms);
    }
    double sheds = 0;
    for (const SessionRecord& record : traced.sessions) {
      if (!record.ok) continue;
      rung_ms.insert(rung_ms.end(), record.rung_step_ms.begin(),
                     record.rung_step_ms.end());
      quick_ms.push_back(record.quick_step_ms);
      overhead_ms.push_back(record.first_frontier_ms - record.quick_step_ms);
      rtt_ms.insert(rtt_ms.end(), record.select_rtt_ms.begin(),
                    record.select_rtt_ms.end());
      sheds += record.shed ? 1 : 0;
    }
    for (double ms : summary.at("net.decode").durations_ms) {
      decode_us.push_back(ms * 1000.0);
    }
    sink.AddPercentile("session.rung_ms_p50", rung_ms, 50);
    sink.AddPercentile("session.quick_ms_p50", quick_ms, 50);
    sink.Add("session.rungs_per_session", rungs(traced));
    sink.Add("session.sheds", sheds);
    sink.AddPercentile("e2e.latency_ms_p99", plain_latency, 99);
    sink.AddPercentile("e2e.first_frontier_ms_p99", plain_first, 99);
    sink.AddPercentile("net.first_frontier_overhead_ms_p50", overhead_ms, 50);
    sink.AddPercentile("net.select_rtt_ms_p50", rtt_ms, 50);
    sink.AddPercentile("net.decode_us_p50", decode_us, 50);
    sink.Add("net.bytes_out_per_session",
             static_cast<double>(traced.net.bytes_out) / sessions);
    sink.Add("net.pushes_dropped",
             static_cast<double>(traced.net.pushes_dropped));
    sink.Add("service.cache_hit_ratio", traced.service.CacheHitRate());
    sink.Add("service.cache_evictions",
             static_cast<double>(traced.service.cache_evictions));
    sink.Add("memo.hit_ratio", traced.memo.HitRate());
    sink.Add("memo.bytes", static_cast<double>(traced.memo.bytes));
    sink.Add("memo.evictions", static_cast<double>(traced.memo.evictions));
    sink.Add("pool.queue_wait_ms_p99",
             traced.service.pool_queue_wait.PercentileMs(99));
    sink.Add("proc.cpu_ms_per_op", plain.cpu_s * 1000.0 / sessions);
    sink.Add("trace.overhead_pct",
             (traced.wall_ms / plain.wall_ms - 1.0) * 100.0);
    report.counts.push_back({"net.frames_decoded", static_cast<double>(decoded)});
  }
  report.errors.insert(report.errors.end(), sink.errors().begin(),
                       sink.errors().end());
  failures.PrintSample();
  return report;
}

}  // namespace perfbench
