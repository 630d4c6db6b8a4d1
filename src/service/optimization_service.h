// Copyright (c) 2026 moqo authors. MIT license.
//
// OptimizationService: the concurrent serving layer over the MOQO
// optimizers, redesigned around anytime frontier sessions (PR 5).
//
// The primary API is OpenFrontier(ProblemSpec, SessionOptions) ->
// FrontierSession: an anytime handle that publishes a first frontier
// (cached at open, or quick-mode from the first rung's pool task), refines
// it in the background over a geometric alpha ladder, answers
// Select(preference) at any moment in O(|frontier|), and supports
// cancellation and per-rung deadlines (see
// service/frontier_session.h for the full story). The one-shot calls ride
// the same machinery — there is one request path:
//
//   - Submit() opens a ONE-STEP session: ladder = {resolved alpha}, no
//     quick prelude, the request deadline as the total budget (a rung
//     that expires degrades to Section 5.1 quick mode). Its future is
//     completed from the session's OnDone — before Submit returns for a
//     cache hit or a rejection, which the session records as its answer.
//     Identical deadline-free requests coalesce onto one session. The
//     preference-dependent algorithms (IRA, weighted-sum) run the same
//     way: their cache key, and so their session key, encodes alpha,
//     weights and bounds.
//   - SubmitAndWait() is Submit().get(); its results are byte-identical
//     to driving a one-step session by hand.
//
// Every path shares the PlanCache under *relaxed alpha identity*:
// signatures of frontier-producing algorithms are alpha-free
// (service/signature.h), entries are tagged with the alpha their run
// achieved, and the open path judges the entry the cache hands back — a
// tighter-alpha entry answers any looser-alpha open, and a looser one
// seeds the ladder. So a session's refinement ladder progressively
// upgrades one entry that every later request benefits from, and a
// request under a tight deadline (coarse policy alpha) is answered by any
// precise frontier already cached. Each open that probes counts one cache
// hit or miss (ServiceCounters). Exact-run identity, where it matters
// (the session registry that coalescing uses), extends the signature with
// the ladder, the per-rung budget and quick_first.

#ifndef MOQO_SERVICE_OPTIMIZATION_SERVICE_H_
#define MOQO_SERVICE_OPTIMIZATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>  // std::once_flag only; mutexes are util/mutex.h Mutex
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/optimizer.h"
#include "core/algorithm.h"
#include "core/plan_set.h"
#include "memo/subplan_memo.h"
#include "obs/metrics.h"
#include "persist/persist_stats.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "rt/failpoint.h"
#include "service/frontier_session.h"
#include "service/plan_cache.h"
#include "service/policy.h"
#include "service/request.h"
#include "service/signature.h"
#include "service/stats.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace moqo {

namespace persist {
class DiskTier;
}  // namespace persist

/// Persistence knobs (PR 9, src/persist/): warm-state snapshots across
/// restarts and the RAM→disk demotion tier under both caches. Everything
/// is off until `directory` is set — a service without a persist
/// directory behaves exactly as before this subsystem existed.
struct PersistOptions {
  /// Where snapshots and tier segment files live; created on demand.
  /// Empty disables persistence entirely.
  std::string directory;
  /// Load `<directory>/moqo.snapshot` into the PlanCache and SubplanMemo
  /// at construction (RestoreNow). Any row of the snapshot.h validation
  /// matrix that fails skips cleanly: a bad snapshot is a cold start,
  /// never a crash.
  bool restore_on_start = true;
  /// Write the snapshot in the destructor, after workers drain (the
  /// caches are quiescent and maximally warm at that point).
  bool snapshot_on_shutdown = true;
  /// Byte budget of the RAM→disk tier, split evenly between the
  /// PlanCache's and the SubplanMemo's tiers; 0 disables demotion (the
  /// snapshot path still works).
  size_t tier_capacity_bytes = 0;
  /// A deployment tag the caller sets, say a version of its table
  /// statistics. Stamped into snapshot headers and compared on restore: a
  /// snapshot written under a different tag is skipped wholesale (its
  /// content-derived keys are unreachable anyway; skipping just avoids
  /// loading dead weight).
  uint64_t catalog_epoch = 0;
};

struct ServiceOptions {
  /// Worker threads; 0 = one per hardware thread.
  int num_workers = 0;
  /// Helper threads of the shared intra-query DP pool (0 = one per
  /// hardware thread). DP levels with enough work fan out over this pool
  /// (see PolicyOptions::max_parallelism and core/dp_driver.h); the pool
  /// is shared by all in-flight requests and sized independently of the
  /// request workers.
  int num_dp_helpers = 0;
  /// Admission limit: maximum requests queued or running at once. An
  /// actively refining session holds one slot for its whole ladder.
  size_t max_inflight = 256;
  /// Two-class session scheduling (PR 7, the network front end's fairness
  /// knob). When true, every ladder rung after a session's first runs as
  /// a separate refinement-lane pool task — queued first-frontier and
  /// one-shot work always dequeues first — and refinement is shed under
  /// overload: a ladder whose next rung would start while InFlight() has
  /// reached refinement_shed_fraction * max_inflight ends early instead,
  /// keeping every guarantee it already published (FrontierSession::Shed(),
  /// the sessions_shed counter, moqo_refinement_sheds_total). False
  /// restores the single-lane FIFO behaviour: rungs still run as separate
  /// tasks, but nothing preempts and nothing is shed.
  bool priority_admission = true;
  /// Overload watermark for shedding refinement, as a fraction of
  /// max_inflight. Below ~1/max_inflight nothing refines; at >= 1.0
  /// refinement only sheds once first-frontier work is itself about to be
  /// rejected (too late to help).
  double refinement_shed_fraction = 0.75;
  /// Set false to bypass the cache entirely (benchmarking cold paths).
  bool enable_cache = true;
  /// Set false to disable coalescing of identical sessions and
  /// deadline-free requests (each duplicate then runs its own
  /// optimization).
  bool enable_coalescing = true;
  /// Cross-query subplan memo: a service-wide, byte-budgeted cache of
  /// table-set-level Pareto frontiers shared by ALL requests' DP runs —
  /// including every rung of every session's ladder, which is what makes
  /// refinement steps of overlapping sessions reuse each other's work.
  /// Orthogonal to the whole-query PlanCache: that one short-circuits
  /// repeated *queries*, this one shares work between *different*
  /// queries. Frontiers are byte-identical with the memo on or off.
  bool enable_subplan_memo = true;
  /// Capacity, sharding and min_tables knobs of the memo.
  SubplanMemo::Options subplan_memo;
  PlanCache::Options cache;
  PolicyOptions policy;
  /// Plan space shared by every request the service runs.
  OperatorRegistry::Options operators;
  /// Observability (PR 6): request tracing knobs. Disabled by default —
  /// the instrumentation then costs one relaxed load per span site.
  /// Enable (or flip at runtime via tracer()->SetEnabled) to record
  /// request → DP-level → memo → rung spans, exportable as Chrome trace
  /// JSON through tracer()->WriteChromeTrace().
  TraceOptions trace;
  /// Worst-N slow-request log surfaced in Stats().slow_queries, ToString,
  /// and the Prometheus export.
  int slow_query_log_size = 8;
  /// Warm-state persistence (PR 9): snapshots across restarts and the
  /// RAM→disk tier. Off until persist.directory is set.
  PersistOptions persist;
};

class OptimizationService {
 public:
  explicit OptimizationService(ServiceOptions options = {});

  OptimizationService(const OptimizationService&) = delete;
  OptimizationService& operator=(const OptimizationService&) = delete;

  /// Drains accepted requests and refining sessions, then joins the
  /// workers. Session handles stay valid afterwards (they stop refining).
  ~OptimizationService();

  /// Opens an anytime refinement session for `spec` (see
  /// service/frontier_session.h). Returns immediately and runs no
  /// optimizer: the session holds a frontier on return only when the cache
  /// answered or seeded the open (subscribe with OnRefined for the rest).
  /// Identical (spec, schedule) opens coalesce onto one running session —
  /// each caller still owns one Cancel().
  /// Never returns null: invalid specs (null query, non-finite alpha,
  /// preference-dependent algorithm override) and admission rejections
  /// yield a session that is born Done() with no frontier.
  std::shared_ptr<FrontierSession> OpenFrontier(ProblemSpec spec,
                                                SessionOptions options = {});

  /// Runs `request` as a one-step session (ladder = {resolved alpha})
  /// and answers from its frontier — byte-identical to opening that
  /// session by hand. The future always resolves: cache hits and
  /// rejections before Submit returns, runs and coalesced waits when the
  /// session completes (accepted requests run to completion even during
  /// shutdown). Never throws on load: overload surfaces as kRejected.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// Submit(request).get().
  ServiceResponse SubmitAndWait(ServiceRequest request);

  /// Currently queued or running requests, including coalesced waiters
  /// and actively refining sessions (cache hits never count). A Submit
  /// frees every slot it took before its future resolves.
  size_t InFlight() const { return inflight_.load(std::memory_order_relaxed); }

  int num_workers() const { return pool_.num_threads(); }

  /// The service's own counters and histograms, pool and slow-log state,
  /// and the PlanCache's eviction count.
  ServiceStatsSnapshot Stats() const;
  /// The PlanCache's own events and occupancy; the open path's hits and
  /// misses are in Stats().
  PlanCache::Stats CacheStats() const { return cache_.GetStats(); }

  /// Cross-query memo counters and occupancy; all-zero when the memo is
  /// disabled.
  SubplanMemo::Stats MemoStats() const {
    return subplan_memo_ ? subplan_memo_->GetStats() : SubplanMemo::Stats{};
  }

  /// The shared memo, or null when disabled. Exposed for tests/benches.
  SubplanMemo* subplan_memo() const { return subplan_memo_.get(); }

  /// The service-wide span recorder (always present; cheap when
  /// disabled). Use WriteChromeTrace()/ExportChromeTrace() on it to dump
  /// a Perfetto-loadable trace.
  Tracer* tracer() { return &tracer_; }

  /// Prometheus text exposition over the service's counters, cache/memo
  /// occupancy, pool queue state, latency histograms, and (when any
  /// failpoint site has registered) per-site injected-fault hit counters.
  std::string MetricsText() const {
    return metrics_.RenderPrometheus() +
           rt::FailpointRegistry::Global().MetricsText();
  }

  /// The registry behind MetricsText(). The network front end registers
  /// its net_* samplers here so one scrape covers service and wire path;
  /// samplers must own (share) whatever state they read, since they can
  /// outlive their registrant.
  MetricsRegistry* metrics_registry() { return &metrics_; }

  const ServiceOptions& options() const { return options_; }

  /// Writes the current PlanCache + SubplanMemo contents to
  /// `<persist.directory>/moqo.snapshot` (tmp + rename, so a crash
  /// mid-write never corrupts the previous snapshot). Thread-safe
  /// (serialized under an internal mutex); entries inserted concurrently
  /// may or may not be included. False when persistence is disabled or
  /// the write failed (counted in snapshot_failures).
  bool SnapshotNow();

  /// Loads the snapshot into the caches. persist::ReadSnapshot applies the
  /// snapshot.h matrix against this build's cost-model version and
  /// persist.catalog_epoch; this adds its per-reason skip counts to
  /// PersistStats(). Returns the number of entries restored. Called
  /// automatically at construction when persist.restore_on_start is set.
  size_t RestoreNow();

  /// Snapshot and restore counters; all-zero when persistence is
  /// disabled. Tier traffic is in the moqo_persist_tier_* metrics.
  persist::PersistStatsSnapshot PersistStats() const {
    return *persist_stats_;
  }

 private:
  struct PendingSubmit;  // One Submit() call until its future resolves.

  /// Optimizer options for one request given its remaining budget, its
  /// resolved intra-query parallelism (1 = serial, no pool attached), and
  /// whether its DP may use the cross-query subplan memo.
  OptimizerOptions MakeOptimizerOptions(double alpha, int64_t timeout_ms,
                                        int parallelism, bool use_memo);

  /// The shared open path behind OpenFrontier and Submit. `preference`
  /// is null for OpenFrontier (sessions are preference-free, so the
  /// preference-dependent algorithms are rejected). Submit passes the
  /// request's: it seeds the cached selection, its deadline feeds the
  /// policy and bounds the whole ladder (a deadline-bounded open never
  /// coalesces — a waiter could not degrade to quick mode mid-wait), and
  /// a joiner takes an admission slot so Submit's waiters stay bounded.
  /// `*joined` is set when the open attached to an already running
  /// session; every other answer is recorded in the returned session.
  std::shared_ptr<FrontierSession> OpenSession(ProblemSpec spec,
                                               const SessionOptions& options,
                                               const Preference* preference,
                                               bool* joined);

  /// Opens `call`'s one-step session and completes its promise from the
  /// session's OnDone — before this returns when the open already
  /// answered it (a cache hit or a rejection).
  void OpenOneStep(const std::shared_ptr<PendingSubmit>& call);

  /// Answers `call` from its done one-step session: a joiner selects over
  /// the shared frontier (or re-opens when the shared run degraded or
  /// failed); every other opener gets the session's own answer — a cache
  /// hit, a run, a quick-mode plan, or a rejection.
  void CompleteOneStep(const std::shared_ptr<PendingSubmit>& call,
                       FrontierSession& session, bool joined,
                       const StopWatch& since_open);

  /// Serves a session directly from a cache entry that answers the open
  /// (born done, no ladder): counts the cache hit, records how the cache
  /// served it (tier, exact or frontier hit against the opener's
  /// preference), publishes the entry's frontier, and marks the session
  /// done with the answer selected for that preference. Session fields
  /// are written under its lock — by the time the post-registration
  /// re-probe calls this, joiners may already share the session.
  void ServeSessionBornDone(
      const std::shared_ptr<FrontierSession>& session,
      const std::shared_ptr<const CachedFrontier>& cached, bool from_tier);

  /// Takes the session out of the registry (if it is still the entry
  /// there) and frees its admission slot. Only an admitted session is
  /// released: the stage-3 re-probe and FinishSession both run after
  /// admission.
  void ReleaseSession(const std::shared_ptr<FrontierSession>& session);

  /// Enqueues rung `rung` of the session's ladder as its own pool task —
  /// no worker is held across rungs (PR 7). Rung 0 rides the interactive
  /// lane; later rungs are refinement: low-priority lane plus the
  /// overload shed check when priority_admission is on. Finishes the
  /// session on a shed or a shutdown race (a refused rung 0 rejects it).
  void ScheduleSessionRung(const std::shared_ptr<FrontierSession>& session,
                           size_t rung);

  /// The pool task running exactly one ladder rung: one independent
  /// optimizer run at ladder_[rung] (rungs share work only through the
  /// SubplanMemo, so the frontiers are byte-identical to the monolithic
  /// PR-5 runner). Chains the next rung through ScheduleSessionRung or
  /// finishes the session.
  void RunSessionRung(const std::shared_ptr<FrontierSession>& session,
                      size_t rung);

  /// Publishes one completed (not timed-out) rung: per-rung stats,
  /// PlanCache insert (tagged with the rung's alpha), session publish.
  void OnSessionRung(const std::shared_ptr<FrontierSession>& session,
                     int rung, double alpha,
                     std::shared_ptr<const OptimizerResult> result);

  /// Completes a session: final state, ReleaseSession (after the last
  /// cache insert — the race-closing re-probe relies on that order; and
  /// before MarkDone — Submit's joiner retry relies on that one), gauges.
  void FinishSession(const std::shared_ptr<FrontierSession>& session,
                     std::shared_ptr<const OptimizerResult> final_result,
                     bool degraded, bool failed);

  /// Computes and publishes the paper's Section 5.1 quick-mode frontier
  /// (alpha = infinity: no guarantee, but valid plans) serially and fully
  /// fenced. Serves both the quick_first prelude — a selectable frontier
  /// that rung 0's task publishes before the rung — and the last-resort
  /// degradation when a rung dies mid-flight (allocation failure,
  /// injected fault) with nothing completed: "never return null". Null
  /// only if quick mode fails.
  std::shared_ptr<const OptimizerResult> RunQuickMode(
      const std::shared_ptr<FrontierSession>& session);

  /// The watchdog thread body: every kWatchdogPollMs it force-finishes
  /// the watched sessions whose rung has run past kWatchdogFactor times
  /// their step_deadline_ms.
  void WatchdogMain();

  /// Registers every Prometheus metric once, at construction. Samplers
  /// read live state (stats registry, cache, memo, pools) at render time.
  void RegisterMetrics();

  /// moqo_persist_* metrics; samplers capture the shared counter blocks
  /// (service + tiers) so a scrape racing teardown reads frozen counters.
  void RegisterPersistMetrics();

  /// The snapshot file's live name under persist.directory.
  std::string SnapshotPath() const;

  ServiceOptions options_;
  /// Span recorder; declared before both pools so every worker thread
  /// dies before the buffers it records into.
  Tracer tracer_;
  SlowQueryLog slow_log_;
  std::atomic<uint64_t> slow_seq_{0};
  MetricsRegistry metrics_;
  PlanCache cache_;
  /// Cross-query subplan memo shared by every request's DP run; null when
  /// disabled. Declared before pool_ so workers never outlive it.
  std::unique_ptr<SubplanMemo> subplan_memo_;
  ServiceStatsRegistry stats_;
  std::atomic<size_t> inflight_{0};

  /// Persistence state (PR 9); all null/idle when persist.directory is
  /// empty. The tiers are attached to cache_/subplan_memo_ via
  /// shared_ptr, so their lifetime is safe regardless of declaration
  /// order; counters are shared with metric samplers (teardown-safe).
  std::shared_ptr<persist::DiskTier> cache_tier_;
  std::shared_ptr<persist::DiskTier> memo_tier_;
  std::shared_ptr<persist::PersistStatsSnapshot> persist_stats_ =
      std::make_shared<persist::PersistStatsSnapshot>();
  Mutex snapshot_mu_;  ///< Serializes SnapshotNow/RestoreNow.

  /// Live refinement sessions by exact session key (spec + ladder + step
  /// budget); entries are removed when the ladder finishes, *after* its
  /// final cache insert.
  Mutex session_mu_;
  std::unordered_map<ProblemSignature, std::shared_ptr<FrontierSession>>
      sessions_by_key_ MOQO_GUARDED_BY(session_mu_);

  /// Intra-query DP helpers, shared by all requests and spawned lazily on
  /// the first request that actually fans out — a service whose policy
  /// keeps everything serial never pays the helper threads. Declared
  /// before pool_: request workers submit into it, so it must outlive
  /// them (destruction runs in reverse order).
  std::once_flag dp_pool_once_;
  std::unique_ptr<ThreadPool> dp_pool_;
  /// Published copy of dp_pool_.get() for observers (Stats, metric
  /// samplers) that race with the lazy creation; call_once only
  /// synchronizes the creating threads.
  std::atomic<ThreadPool*> dp_pool_ptr_{nullptr};

  /// Session watchdog (PR 8): force-finishes a session whose rung runs
  /// far past its step_deadline_ms (a wedged worker, a lost wakeup, an
  /// injected stall). The session completes DONE{degraded} with whatever
  /// it already published; the rung is cancelled through the session's
  /// token and its late output dropped. Fires count in
  /// Stats().watchdog_fires. Only sessions with a per-rung deadline are
  /// watched, so the first of them starts the thread. The watch list
  /// holds weak refs: a session kept alive only by the list would never
  /// finish, and expired entries self-prune on the next sweep. The thread
  /// is joined in the destructor before pool_ shuts down (it may call
  /// FinishSession, which touches the same state the workers do).
  Mutex watchdog_mu_;
  CondVar watchdog_cv_;
  bool watchdog_stop_ MOQO_GUARDED_BY(watchdog_mu_) = false;
  std::vector<std::weak_ptr<FrontierSession>> watched_sessions_
      MOQO_GUARDED_BY(watchdog_mu_);
  std::thread watchdog_ MOQO_GUARDED_BY(watchdog_mu_);

  ThreadPool pool_;  ///< Last member: workers die before the state above.
};

}  // namespace moqo

#endif  // MOQO_SERVICE_OPTIMIZATION_SERVICE_H_
