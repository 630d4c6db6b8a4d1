// Copyright (c) 2026 moqo authors. MIT license.

#include "service/optimization_service.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "model/cost_model.h"
#include "persist/disk_tier.h"
#include "persist/snapshot.h"
#include "rt/failpoint.h"
#include "util/deadline.h"

namespace moqo {

namespace {

constexpr double kInfiniteAlpha = std::numeric_limits<double>::infinity();

/// mkdir -p, best-effort: any real failure surfaces when the tier or the
/// snapshot writer tries to create files inside.
void MakePersistDir(const std::string& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') ::mkdir(path.substr(0, i).c_str(), 0755);
  }
  ::mkdir(path.c_str(), 0755);
}

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ResolveWorkers(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// EXA and Selinger are exact regardless of the requested precision, so
/// their cache entries are tagged alpha = 1 — maximally reusable under the
/// relaxed identity.
double AchievedAlpha(AlgorithmKind algorithm, double alpha) {
  const bool exact = algorithm == AlgorithmKind::kExa ||
                     algorithm == AlgorithmKind::kSelinger;
  return exact ? 1.0 : alpha;
}

/// The session's precision schedule: geometric in log-alpha from `start`
/// down to `target` in at most `max_steps` (<= kMaxLadderSteps) rungs,
/// strictly decreasing, ending bit-exactly at the target. A start <= the
/// target (Submit's one-step sessions) or a non-finite one collapses to
/// the single-rung {target} ladder: an infinite or NaN start would only
/// yield NaN rungs.
std::vector<double> MakeAlphaLadder(double start, double target,
                                    int max_steps) {
  if (target < 1.0) target = 1.0;
  max_steps = std::clamp(max_steps, 1, kMaxLadderSteps);
  if (!std::isfinite(start) || start <= target || max_steps == 1) {
    return {target};
  }
  std::vector<double> ladder;
  ladder.reserve(max_steps);
  const double log_start = std::log(start);
  const double log_target = std::log(target);
  for (int i = 0; i < max_steps; ++i) {
    const double t = static_cast<double>(i) / (max_steps - 1);
    ladder.push_back(std::exp(log_start + (log_target - log_start) * t));
  }
  ladder.back() = target;
  return ladder;
}

/// Exact identity of one refinement: the alpha-free cache key extended
/// with every rung precision, the per-rung budget and whether a quick-mode
/// frontier comes first. Sessions coalesce only when the whole schedule
/// matches — sharing a ladder that refines differently would change what a
/// caller observes.
ProblemSignature SessionKey(const ProblemSignature& base,
                            const std::vector<double>& ladder,
                            const SessionOptions& options) {
  std::vector<double> values = ladder;
  values.push_back(static_cast<double>(options.step_deadline_ms));
  values.push_back(options.quick_first ? 1.0 : 0.0);
  return ExtendSignature(base, values);
}

/// Scalarizes `base`'s shared PlanSet for a new preference: same frontier
/// and cold-run metrics, re-selected plan. O(|frontier|), no optimizer.
std::shared_ptr<const OptimizerResult> ReselectResult(
    const std::shared_ptr<const OptimizerResult>& base,
    const WeightVector& weights, const BoundVector& bounds) {
  auto result = std::make_shared<OptimizerResult>();
  result->plan_set = base->plan_set;
  result->metrics = base->metrics;
  result->Select(weights, bounds);
  return result;
}

/// Whether `entry` may serve a spec over `num_objectives` objectives. The
/// service stores each preference resolved against its spec's objectives,
/// so a weight count that differs names a frontier of other objectives (a
/// restored record under the wrong key), which must never be selected.
bool Fits(const CachedFrontier* entry, int num_objectives) {
  return entry != nullptr && entry->result != nullptr &&
         entry->weights.size() == num_objectives;
}

/// The open's verdict on a cache entry: it answers an open targeting
/// `target` when it fits the spec and is at least as tight — an
/// alpha-approximate Pareto set is alpha'-approximate for every
/// alpha' >= alpha.
bool Answers(const CachedFrontier* entry, int num_objectives, double target) {
  return Fits(entry, num_objectives) && entry->achieved_alpha <= target;
}

}  // namespace

OptimizationService::OptimizationService(ServiceOptions options)
    : options_(std::move(options)),
      tracer_(options_.trace),
      slow_log_(options_.slow_query_log_size),
      cache_(options_.cache),
      pool_(ResolveWorkers(options_.num_workers), &tracer_, "pool") {
  if (options_.enable_subplan_memo) {
    subplan_memo_ = std::make_unique<SubplanMemo>(options_.subplan_memo);
  }
  if (!options_.persist.directory.empty()) {
    MakePersistDir(options_.persist.directory);
    if (options_.persist.tier_capacity_bytes > 0) {
      persist::DiskTier::Options tier;
      tier.directory = options_.persist.directory;
      // The budget splits evenly: both caches overflow under the same
      // memory pressure, and a fixed split keeps accounting predictable.
      tier.capacity_bytes = options_.persist.tier_capacity_bytes / 2;
      tier.name = "cache_tier";
      cache_tier_ = std::make_shared<persist::DiskTier>(tier);
      if (!cache_tier_->ok()) cache_tier_.reset();
      cache_.AttachTier(cache_tier_);
      if (subplan_memo_ != nullptr) {
        tier.name = "memo_tier";
        memo_tier_ = std::make_shared<persist::DiskTier>(tier);
        if (!memo_tier_->ok()) memo_tier_.reset();
        subplan_memo_->AttachTier(memo_tier_);
      }
    }
  }
  RegisterMetrics();
  if (!options_.persist.directory.empty() &&
      options_.persist.restore_on_start) {
    RestoreNow();
  }
  if (options_.watchdog_poll_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogMain(); });
  }
}

OptimizationService::~OptimizationService() {
  {
    MutexLock lock(watchdog_mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.NotifyAll();
  if (watchdog_.joinable()) watchdog_.join();
  pool_.Shutdown();
  // After the drain: the caches are quiescent and as warm as they will
  // ever be — the snapshot taken here is what the next process restores.
  if (!options_.persist.directory.empty() &&
      options_.persist.snapshot_on_shutdown) {
    SnapshotNow();
  }
}

void OptimizationService::WatchdogMain() {
  watchdog_mu_.Lock();
  while (!watchdog_stop_) {
    watchdog_cv_.WaitFor(watchdog_mu_,
                         std::chrono::milliseconds(options_.watchdog_poll_ms));
    if (watchdog_stop_) break;
    // Sweep under the list lock, act outside it: the force-finish path
    // (FinishSession -> MarkDone -> subscriber callbacks) must not run
    // under watchdog_mu_, which OpenSession takes to register.
    std::vector<std::shared_ptr<FrontierSession>> fired;
    size_t keep = 0;
    for (size_t i = 0; i < watched_sessions_.size(); ++i) {
      std::shared_ptr<FrontierSession> session = watched_sessions_[i].lock();
      if (session == nullptr ||
          session->finished_.load(std::memory_order_acquire)) {
        continue;  // Finished or expired entries self-prune.
      }
      const int64_t started =
          session->rung_started_us_.load(std::memory_order_acquire);
      const int64_t budget_us = static_cast<int64_t>(
          static_cast<double>(session->session_options_.step_deadline_ms) *
          options_.watchdog_factor * 1000.0);
      if (started >= 0 && SteadyNowUs() - started > budget_us &&
          !session->watchdog_fired_.exchange(true)) {
        fired.push_back(std::move(session));
        continue;  // A fired session leaves the watch list.
      }
      // Guard the compaction against i == keep: self-move-assigning a
      // weak_ptr empties it, silently dropping the session from watch.
      if (keep != i) watched_sessions_[keep] = std::move(watched_sessions_[i]);
      ++keep;
    }
    watched_sessions_.resize(keep);
    if (fired.empty()) continue;
    watchdog_mu_.Unlock();
    for (const std::shared_ptr<FrontierSession>& session : fired) {
      // Force-finish: the opener gets DONE{degraded} now, with everything
      // the session already published — never a silent hang. The wedged
      // rung is cancelled through the session's token (the DP unwinds at
      // its next deadline poll); if it is wedged beyond even that, its
      // eventual output is dropped by the done_/finished_ guards.
      stats_.counters.watchdog_fires.Add();
      session->cancel_flag_.store(true, std::memory_order_relaxed);
      FinishSession(session, nullptr, /*degraded=*/true, /*failed=*/false);
    }
    watchdog_mu_.Lock();
  }
  watchdog_mu_.Unlock();
}

std::shared_ptr<const OptimizerResult> OptimizationService::RunQuickMode(
    const std::shared_ptr<FrontierSession>& session) {
  try {
    // Quick mode (timeout 0), serial, no memo: the smallest possible
    // footprint, maximizing the chance it survives whatever killed a
    // rung (e.g. memory pressure).
    OptimizerOptions opts =
        MakeOptimizerOptions(session->decision_.alpha, /*timeout_ms=*/0,
                             /*parallelism=*/1, /*use_memo=*/false);
    opts.tracer = &tracer_;
    opts.trace_id = session->trace_id_;
    std::unique_ptr<OptimizerBase> optimizer =
        MakeOptimizer(session->decision_.algorithm, opts);
    StopWatch quick_watch;
    auto result = std::make_shared<OptimizerResult>(
        optimizer->Optimize(session->problem_));
    if (result->plan_set == nullptr) return nullptr;
    // No guarantee, but valid plans; dropped by the monotonicity guard if
    // the session already holds any frontier.
    session->Publish(kInfiniteAlpha, result->plan_set,
                     quick_watch.ElapsedMillis(), /*from_cache=*/false);
    return result;
  } catch (...) {
    return nullptr;
  }
}

OptimizerOptions OptimizationService::MakeOptimizerOptions(
    double alpha, int64_t timeout_ms, int parallelism, bool use_memo) {
  OptimizerOptions opts;
  opts.alpha = alpha;
  opts.timeout_ms = timeout_ms;
  opts.operators = options_.operators;
  if (parallelism > 1) {
    std::call_once(dp_pool_once_, [this] {
      dp_pool_ = std::make_unique<ThreadPool>(
          ResolveWorkers(options_.num_dp_helpers), &tracer_, "dp_pool");
      dp_pool_ptr_.store(dp_pool_.get(), std::memory_order_release);
    });
    opts.parallelism = parallelism;
    opts.dp_pool = dp_pool_.get();
  }
  if (use_memo) opts.subplan_memo = subplan_memo_.get();
  return opts;
}

// ---------------------------------------------------------------------------
// Anytime frontier sessions.

std::shared_ptr<FrontierSession> OptimizationService::OpenFrontier(
    ProblemSpec spec, SessionOptions options) {
  stats_.counters.sessions_opened.Add();
  bool joined = false;
  return OpenSession(std::move(spec), options, /*preference=*/nullptr,
                     &joined);
}

std::shared_ptr<FrontierSession> OptimizationService::OpenSession(
    ProblemSpec spec, const SessionOptions& session_options,
    const Preference* preference, bool* joined) {
  const int64_t deadline_ms =
      preference != nullptr ? preference->deadline_ms : -1;
  std::shared_ptr<FrontierSession> session(new FrontierSession());
  session->session_options_ = session_options;
  session->spec_ = std::move(spec);
  session->total_deadline_ms_ = deadline_ms;
  session->stats_registry_ = &stats_;
  session->tracer_ = &tracer_;
  session->trace_id_ = tracer_.NextId();
  session->Attach();
  TraceSpan open_span(&tracer_, "service", "request.open",
                      session->trace_id_);

  // Every rejection at open ends here, counted under `reason`: the session
  // is born done and failed, without a frontier. A rejected open never
  // registers, so no joiner can share the session yet.
  const auto reject = [&session](Counter& reason) {
    reason.Add();
    {
      MutexLock lock(session->mu_);
      session->rejected_ = true;
    }
    session->MarkDone(nullptr, /*degraded=*/false, /*failed=*/true);
    return session;
  };

  // Invalid specs: no query, or a non-finite alpha (RTA cache keys are
  // alpha-free, so a NaN tag would poison its key's entry for good — no
  // open would accept it and no insert would replace it).
  if (session->spec_.query == nullptr ||
      (session->spec_.alpha && !std::isfinite(*session->spec_.alpha))) {
    return reject(stats_.counters.internal_errors);
  }

  // The opener's preference, resolved against the spec: it seeds the
  // quick-mode weights, the stored cache selection, and — for Submit's
  // one-step sessions — the final result's selection.
  const int num_objectives = session->spec_.objectives.size();
  const Preference resolved = Resolved(
      preference != nullptr ? *preference : Preference{}, num_objectives);
  session->problem_.query = session->spec_.query.get();
  session->problem_.objectives = session->spec_.objectives;
  session->problem_.weights = resolved.weights;
  session->problem_.bounds = resolved.bounds;

  PolicyDecision decision =
      ChooseAlgorithm(*session->spec_.query, session->spec_.objectives,
                      deadline_ms, options_.policy);
  if (session->spec_.algorithm) decision.algorithm = *session->spec_.algorithm;
  if (session->spec_.alpha) decision.alpha = *session->spec_.alpha;
  if (session->spec_.parallelism) {
    decision.parallelism =
        *session->spec_.parallelism < 1 ? 1 : *session->spec_.parallelism;
  }
  session->decision_ = decision;

  // OpenFrontier's sessions are preference-free; the algorithms whose
  // whole output depends on the preference need Submit's, which their
  // cache key (and so their session key) encodes.
  if (preference == nullptr && IsPreferenceDependent(decision.algorithm)) {
    return reject(stats_.counters.internal_errors);
  }

  // Resolve the refinement schedule: the explicit target, else the spec's
  // alpha as the policy resolved it; exact algorithms always target 1.
  double target = session_options.alpha_target > 0
                      ? session_options.alpha_target
                      : decision.alpha;
  if (target < 1.0) target = 1.0;
  target = AchievedAlpha(decision.algorithm, target);
  session->target_alpha_ = target;
  session->ladder_ =
      decision.algorithm == AlgorithmKind::kRta
          ? MakeAlphaLadder(session_options.alpha_start, target,
                            session_options.max_steps)
          : std::vector<double>{target};
  session->cache_signature_ = ComputeSignature(
      *session->spec_.query, session->spec_.objectives, decision.algorithm,
      target,
      MakeOptimizerOptions(target, -1, /*parallelism=*/1, /*use_memo=*/false),
      &resolved.weights, &resolved.bounds);

  // Stage 1: one cache probe before registration. The cache hands back
  // whatever it holds for the key, and the open judges it against its
  // target. An entry at least as tight answers the open: the session is
  // born done, with no ladder. A looser one still beats the quick-mode
  // prelude (it carries a real guarantee): it is published first, and the
  // ladder keeps only the rungs below its alpha. This runs before the
  // session becomes joinable, so the schedule is immutable once shared.
  if (options_.enable_cache) {
    TraceSpan probe_span(&tracer_, "service", "cache.probe",
                         session->trace_id_);
    bool from_tier = false;
    std::shared_ptr<const CachedFrontier> cached =
        cache_.Lookup(session->cache_signature_, &from_tier);
    if (cached != nullptr && !Fits(cached.get(), num_objectives)) {
      // No open of this key may use the entry, and the cache keeps the
      // tighter of two entries, so a looser run could never replace it.
      cache_.Erase(session->cache_signature_);
    }
    const bool answers = Answers(cached.get(), num_objectives, target);
    probe_span.AddArg("hit", answers ? 1 : 0);
    probe_span.End();
    if (answers) {
      ServeSessionBornDone(session, cached, from_tier);
      return session;
    }
    if (Fits(cached.get(), num_objectives) &&
        session->Publish(cached->achieved_alpha, cached->result->plan_set, 0,
                         /*from_cache=*/true)) {
      std::vector<double> trimmed;
      for (double alpha : session->ladder_) {
        if (alpha < cached->achieved_alpha) trimmed.push_back(alpha);
      }
      // The target rung always survives (an entry at or below the target
      // answered above), so the trimmed ladder is never empty.
      if (!trimmed.empty()) session->ladder_ = std::move(trimmed);
    }
  }

  // Only a session that may run needs its exact identity: the key copies
  // the whole signature once more, which born-done hits never pay for.
  session->session_key_ =
      SessionKey(session->cache_signature_, session->ladder_, session_options);

  // The cache has not answered this open: each exit below counts it as
  // one miss, unless the stage-3 re-probe answers it after all.
  const auto count_miss = [this] {
    if (options_.enable_cache) stats_.counters.cache_misses.Add();
  };
  // Takes one admission slot; an open that gets none is shed.
  const auto admit = [this] {
    const size_t prior = inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (prior < options_.max_inflight) return true;
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    return false;
  };
  const auto shed = [&] {
    count_miss();
    return reject(stats_.counters.admissions_rejected);
  };

  // Stage 2: coalesce onto a live identical refinement, or register as
  // its primary. Admission happens under the lock, before the session
  // becomes joinable, so joiners only ever park behind admitted primaries.
  // Deadline-bounded opens stay private: a waiter cannot degrade to quick
  // mode when its budget expires mid-wait.
  TraceSpan admission_span(&tracer_, "service", "admission",
                           session->trace_id_);
  if (options_.enable_coalescing && deadline_ms < 0) {
    std::shared_ptr<FrontierSession> running;
    {
      MutexLock lock(session_mu_);
      auto it = sessions_by_key_.find(session->session_key_);
      // Never join a session whose every prior opener has already
      // cancelled: its runner is mid-abort and will not reach the target,
      // and attaching cannot un-cancel it. Register over it instead (its
      // FinishSession erases by pointer equality, so the replacement is
      // safe).
      if (it != sessions_by_key_.end() && !it->second->CancelRequested()) {
        if (preference != nullptr && !admit()) return shed();
        count_miss();
        it->second->Attach();
        stats_.counters.sessions_coalesced.Add();
        running = it->second;
      } else {
        if (!admit()) return shed();
        session->holds_slot_ = true;
        sessions_by_key_[session->session_key_] = session;
        session->registered_ = true;
      }
    }
    if (running != nullptr) {
      *joined = true;
      return running;
    }
  } else {
    if (!admit()) return shed();
    session->holds_slot_ = true;
  }
  admission_span.AddArg("inflight",
                        static_cast<int64_t>(
                            inflight_.load(std::memory_order_relaxed)));
  admission_span.End();

  // Stage 3: race-closing re-probe. A finishing identical session inserts
  // into the cache *before* it unregisters, so an entry that landed after
  // stage 1 is visible here. It may only answer the open (born done); it
  // never seeds, since joiners may already share this session.
  if (options_.enable_cache) {
    bool from_tier = false;
    std::shared_ptr<const CachedFrontier> cached =
        cache_.Lookup(session->cache_signature_, &from_tier);
    if (Answers(cached.get(), num_objectives, target)) {
      ReleaseSession(session);
      ServeSessionBornDone(session, cached, from_tier);
      return session;
    }
  }
  count_miss();

  // Watchdog registration (PR 8): ladders with a per-rung budget are
  // watched for wedged rungs. Weak refs only — the list must never keep a
  // session alive or delay its teardown.
  if (watchdog_.joinable() && session_options.step_deadline_ms >= 0) {
    MutexLock lock(watchdog_mu_);
    watched_sessions_.push_back(session);
  }

  // Stage 4: hand the first rung to the worker pool (each later rung
  // reschedules itself — no worker is held across rungs).
  stats_.counters.sessions_active.Add();
  ScheduleSessionRung(session, 0);
  return session;
}

void OptimizationService::ServeSessionBornDone(
    const std::shared_ptr<FrontierSession>& session,
    const std::shared_ptr<const CachedFrontier>& cached, bool from_tier) {
  stats_.counters.cache_hits.Add();
  const MOQOProblem& problem = session->problem_;
  const bool same_preference =
      cached->weights == problem.weights && cached->bounds == problem.bounds;
  {
    // Under the session lock: the post-registration re-probe path calls
    // this on a session joiners may already share. Provenance wins the
    // label: a disk-tier promotion is surfaced as kTierHit even when the
    // preference matches, so tier effectiveness is observable end to end.
    MutexLock lock(session->mu_);
    session->served_ = from_tier         ? CacheOutcome::kTierHit
                       : same_preference ? CacheOutcome::kExactHit
                                         : CacheOutcome::kFrontierHit;
    session->target_reached_ = true;
  }
  session->Publish(cached->achieved_alpha, cached->result->plan_set,
                   /*step_ms=*/0, /*from_cache=*/true);
  session->MarkDone(same_preference ? cached->result
                                    : ReselectResult(cached->result,
                                                     problem.weights,
                                                     problem.bounds),
                    /*degraded=*/false, /*failed=*/false);
}

void OptimizationService::ScheduleSessionRung(
    const std::shared_ptr<FrontierSession>& session, size_t rung) {
  if (rung > 0 && options_.priority_admission) {
    // Overload sheds refinement first: a ladder keeps refining only while
    // in-flight pressure stays under the watermark, so first-frontier
    // work hits max_inflight (a hard reject) only after every background
    // rung has already been given up. The watermark never goes below 2 —
    // a lone refining session (its own slot is counted) must not shed
    // itself on an idle service.
    const size_t watermark = std::max<size_t>(
        static_cast<size_t>(options_.refinement_shed_fraction *
                            static_cast<double>(options_.max_inflight)),
        2);
    if (inflight_.load(std::memory_order_acquire) >= watermark) {
      stats_.counters.refinement_sheds.Add();
      {
        MutexLock lock(session->mu_);
        session->shed_ = true;
      }
      FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/false);
      return;
    }
  }
  const TaskLane lane = (rung == 0 || !options_.priority_admission)
                            ? TaskLane::kInteractive
                            : TaskLane::kRefinement;
  if (!pool_.Submit([this, session, rung] { RunSessionRung(session, rung); },
                    lane)) {
    // Shutdown raced the dispatch. An open whose first rung never ran is
    // rejected; a later rung's session completes with the guarantees it
    // already published.
    if (rung == 0) {
      stats_.counters.admissions_rejected.Add();
      MutexLock lock(session->mu_);  // Joiners may already share it.
      session->rejected_ = true;
    }
    FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/rung == 0);
  }
}

void OptimizationService::RunSessionRung(
    const std::shared_ptr<FrontierSession>& session, size_t rung) {
  const PolicyDecision& decision = session->decision_;
  double queue_ms;
  {
    // queue_ms_ is read by FinishSession — possibly on the watchdog
    // thread, concurrently with this rung — so even the rung-0 stamp
    // happens under the session lock.
    MutexLock lock(session->mu_);
    if (rung == 0) session->queue_ms_ = session->since_open_.ElapsedMillis();
    queue_ms = session->queue_ms_;
  }
  TraceSpan request_span(&tracer_, "service",
                         rung == 0 ? "request" : "request.rung",
                         session->trace_id_);
  request_span.AddArg("queue_us", static_cast<int64_t>(queue_ms * 1000.0));
  request_span.AddArg("rungs",
                      static_cast<int64_t>(session->ladder_.size()));

  // Cancelled while queued: complete with what was already published.
  if (session->CancelRequested()) {
    FinishSession(session, nullptr, /*degraded=*/false, /*failed=*/false);
    return;
  }

  // Quick-mode prelude — the Section 5.1 single-plan-per-set finish,
  // published before the first rung when the cache seeded nothing: no
  // guarantee (alpha = infinity), but valid plans. A failed prelude only
  // costs the early frontier; the rung still runs.
  if (rung == 0 && session->session_options_.quick_first &&
      session->BestFrontier() == nullptr) {
    TraceSpan quick_span(&tracer_, "service", "quick.prelude",
                         session->trace_id_);
    RunQuickMode(session);
  }

  // Remaining total budget (a one-step session's request deadline covers
  // open-to-response), tightened by the per-rung budget.
  int64_t timeout_ms = -1;
  if (session->total_deadline_ms_ >= 0) {
    const int64_t remaining =
        session->total_deadline_ms_ -
        static_cast<int64_t>(session->since_open_.ElapsedMillis());
    timeout_ms = remaining > 0 ? remaining : 0;
  }
  const int64_t step_ms = session->session_options_.step_deadline_ms;
  if (step_ms >= 0) {
    timeout_ms = timeout_ms < 0 ? step_ms : std::min(timeout_ms, step_ms);
  }

  std::shared_ptr<const OptimizerResult> degraded_result;
  bool completed_rung = false;
  bool threw = false;
  // Stamp the rung start for the watchdog; cleared after the try/catch.
  session->rung_started_us_.store(SteadyNowUs(), std::memory_order_release);
  try {
    // Injected rung faults: `throw`/`oom` exercise the quick-mode
    // fallback below, `delay_ms` simulates a wedged worker for the
    // watchdog.
    MOQO_FAILPOINT("session.rung");

    // One rung = one independent optimizer run at this rung's precision;
    // rungs share work only through the SubplanMemo (exactly the core
    // ladder's contract), so the published frontiers are byte-identical
    // to the monolithic runner's.
    OptimizerOptions opts = MakeOptimizerOptions(
        session->ladder_[rung], timeout_ms, decision.parallelism,
        /*use_memo=*/true);
    opts.cancel = &session->cancel_flag_;
    opts.tracer = &tracer_;
    opts.trace_id = session->trace_id_;
    std::unique_ptr<OptimizerBase> optimizer =
        MakeOptimizer(decision.algorithm, opts);
    StopWatch run_watch;
    TraceSpan optimize_span(&tracer_, "service", "optimize",
                            session->trace_id_);
    optimize_span.AddArg("parallelism", decision.parallelism);
    auto result = std::make_shared<OptimizerResult>(
        optimizer->Optimize(session->problem_));
    optimize_span.End();
    if (result->metrics.timed_out) {
      // This rung's budget expired; its quick-mode result is never
      // cached.
      stats_.counters.deadline_timeouts.Add();
      stats_.latency[static_cast<int>(decision.algorithm)].Record(
          run_watch.ElapsedMillis());
      degraded_result = std::move(result);
    } else {
      OnSessionRung(session, static_cast<int>(rung), session->ladder_[rung],
                    std::move(result));
      completed_rung = true;
    }
  } catch (...) {
    stats_.counters.internal_errors.Add();
    threw = true;
  }
  session->rung_started_us_.store(-1, std::memory_order_release);

  // A rung that timed out or died ends the ladder, and an earlier
  // completed rung's result stands (a death still reads degraded). With
  // nothing completed, the session ends degraded with a usable answer for
  // Submit: the timed-out run's quick-mode result, or — degrade, don't
  // die — the paper's Section 5.1 quick-mode frontier: "never return
  // null". Only when even quick mode fails does it end failed.
  bool degraded = false;
  bool failed = false;
  if (!completed_rung) {
    bool any_completed;
    {
      MutexLock lock(session->mu_);
      any_completed = session->final_result_ != nullptr;
    }
    if (any_completed) {
      degraded = threw;
      degraded_result = nullptr;
    } else {
      if (threw) degraded_result = RunQuickMode(session);
      degraded = degraded_result != nullptr;
      failed = degraded_result == nullptr;
    }
  }

  if (session->watchdog_fired_.load(std::memory_order_relaxed)) {
    // The watchdog already force-finished this session; the late rung
    // stands down (FinishSession below is a no-op under the once-guard).
    degraded = true;
  }

  if (completed_rung && rung + 1 < session->ladder_.size() &&
      !session->CancelRequested()) {
    // Release this worker between rungs: the next rung queues behind
    // (and, with priority admission, below) any first-frontier work.
    ScheduleSessionRung(session, rung + 1);
    return;
  }
  FinishSession(session, std::move(degraded_result), degraded, failed);
}

void OptimizationService::OnSessionRung(
    const std::shared_ptr<FrontierSession>& session, int rung, double alpha,
    std::shared_ptr<const OptimizerResult> result) {
  const double achieved =
      AchievedAlpha(session->decision_.algorithm, alpha);
  TraceSpan rung_span(&tracer_, "session", "rung.publish",
                      session->trace_id_);
  rung_span.AddArg("rung", rung);
  rung_span.AddArg("alpha_milli", static_cast<int64_t>(achieved * 1000.0));
  stats_.latency[static_cast<int>(session->decision_.algorithm)].Record(
      result->metrics.optimization_ms);
  stats_.counters.refinement_steps.Add();
  stats_.step_latency.Record(result->metrics.optimization_ms);
  if (options_.enable_cache) {
    // Insert before publishing (and before the registry erase in
    // FinishSession): late identical opens that miss the registry must
    // find the entry on their re-probe.
    cache_.Insert(session->cache_signature_,
                  std::make_shared<const CachedFrontier>(CachedFrontier{
                      result, session->problem_.weights,
                      session->problem_.bounds, achieved}));
  }
  {
    MutexLock lock(session->mu_);
    session->final_result_ = result;
  }
  session->Publish(achieved, result->plan_set,
                   result->metrics.optimization_ms, /*from_cache=*/false);
}

void OptimizationService::FinishSession(
    const std::shared_ptr<FrontierSession>& session,
    std::shared_ptr<const OptimizerResult> final_result, bool degraded,
    bool failed) {
  // Exactly-once: the watchdog's force-finish and the rung's own finish
  // may race; whichever loses must not double-release the slot, double-
  // erase the registry entry, or deliver DONE twice.
  if (session->finished_.exchange(true, std::memory_order_acq_rel)) return;
  // All bookkeeping happens BEFORE MarkDone wakes the waiters: a caller
  // returning from AwaitTarget must observe the registry entry gone, the
  // admission slot released, and the active-sessions gauge decremented.
  // (The cache inserts this ordering protects happened per rung, in
  // OnSessionRung — insert-before-unregister is what makes the open
  // path's race-closing re-probe sound.)
  ReleaseSession(session);
  stats_.counters.sessions_active.Sub();
  if (!failed) {
    // Slow-query log: one entry per ladder that actually ran (born-done
    // cache hits never reach FinishSession and are never slow).
    SlowQueryEntry entry;
    entry.signature = session->cache_signature_.hash;
    entry.algorithm = AlgorithmName(session->decision_.algorithm);
    entry.total_ms = session->since_open_.ElapsedMillis();
    entry.alpha = kInfiniteAlpha;
    {
      MutexLock lock(session->mu_);
      entry.queue_ms = session->queue_ms_;
      if (!session->history_.empty()) {
        entry.alpha = session->history_.back().alpha;
        entry.frontier_size = session->history_.back().plan_set->size();
      }
    }
    entry.optimize_ms = entry.total_ms - entry.queue_ms;
    entry.phase = entry.queue_ms > entry.optimize_ms ? "queue" : "optimize";
    entry.sequence = slow_seq_.fetch_add(1, std::memory_order_relaxed);
    slow_log_.Offer(entry);
  }
  session->MarkDone(std::move(final_result), degraded, failed);
}

void OptimizationService::ReleaseSession(
    const std::shared_ptr<FrontierSession>& session) {
  if (session->registered_) {
    MutexLock lock(session_mu_);
    auto it = sessions_by_key_.find(session->session_key_);
    if (it != sessions_by_key_.end() && it->second == session) {
      sessions_by_key_.erase(it);
    }
  }
  if (session->holds_slot_) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

// ---------------------------------------------------------------------------
// One-shot requests: one-step sessions.

/// What a retry re-opens with, and the promise the session completes.
struct OptimizationService::PendingSubmit {
  ProblemSpec spec;
  Preference preference;
  StopWatch since_submit;
  std::promise<ServiceResponse> promise;
};

std::future<ServiceResponse> OptimizationService::Submit(
    ServiceRequest request) {
  stats_.counters.requests_total.Add();
  auto call = std::make_shared<PendingSubmit>();
  call->spec = std::move(request.spec);
  call->preference = std::move(request.preference);
  std::future<ServiceResponse> future = call->promise.get_future();
  OpenOneStep(call);
  return future;
}

ServiceResponse OptimizationService::SubmitAndWait(ServiceRequest request) {
  return Submit(std::move(request)).get();
}

void OptimizationService::OpenOneStep(
    const std::shared_ptr<PendingSubmit>& call) {
  // One-step session: ladder = {resolved alpha}, no quick prelude (the
  // rung itself degrades to quick mode on expiry), the whole deadline as
  // the run budget.
  SessionOptions one_step;
  one_step.alpha_start = -1;
  one_step.max_steps = 1;
  one_step.quick_first = false;
  StopWatch since_open;
  bool joined = false;
  std::shared_ptr<FrontierSession> session =
      OpenSession(call->spec, one_step, &call->preference, &joined);
  // Answered when the session is done: at once for a cache hit or a
  // rejection (OnDone calls back before it returns), otherwise when the
  // run or the shared run completes. The callback holds a plain pointer —
  // a shared one would make the session own itself until MarkDone —
  // which stays valid because MarkDone runs under a reference its caller
  // holds (and OnDone on an already-done session calls back under
  // `session` here).
  FrontierSession* shared = session.get();
  session->OnDone([this, call, shared, joined, since_open] {
    CompleteOneStep(call, *shared, joined, since_open);
  });
}

void OptimizationService::CompleteOneStep(
    const std::shared_ptr<PendingSubmit>& call, FrontierSession& session,
    bool joined, const StopWatch& since_open) {
  std::shared_ptr<const OptimizerResult> result;
  bool failed = false, degraded = false, reached = false;
  CacheOutcome served = CacheOutcome::kMiss;
  ServiceResponse response;
  response.algorithm = session.decision_.algorithm;
  response.alpha = session.decision_.alpha;
  {
    MutexLock lock(session.mu_);
    result = session.final_result_;
    failed = session.failed_;
    degraded = session.degraded_;
    reached = session.target_reached_;
    served = session.served_;
    if (!joined) response.queue_ms = session.queue_ms_;
  }

  if (joined) {
    tracer_.RecordEndingNow(
        "service", "coalesce.wait", session.trace_id_,
        static_cast<int64_t>(since_open.ElapsedMillis() * 1000.0));
    inflight_.fetch_sub(1, std::memory_order_acq_rel);  // Joiner slot.
    if (!reached || failed || result == nullptr) {
      // The shared run degraded or failed, and its quick-mode plan depends
      // on the primary's weights: re-open. Identical retries coalesce
      // among themselves, so a failing signature promotes ONE new primary
      // per round instead of thundering — and each failed primary leaves
      // the retry population, so the chain terminates. Re-opening from
      // inside this session's OnDone is safe only because FinishSession
      // erased it from the registry before MarkDone: the retry can never
      // join the session that is delivering this callback.
      OpenOneStep(call);
      return;
    }
    const Preference preference =
        Resolved(call->preference, session.problem_.objectives.size());
    response.status = ResponseStatus::kCompleted;
    response.cache = CacheOutcome::kCoalescedHit;
    response.alpha = session.BestAlpha();
    response.result =
        ReselectResult(result, preference.weights, preference.bounds);
    stats_.counters.coalesced_hits.Add();
    stats_.counters.completed.Add();
  } else if (failed || result == nullptr) {
    response.status = ResponseStatus::kRejected;
  } else {
    // The session's own answer: a cache hit (selected for this
    // preference when the session was served), a completed rung, or a
    // quick-mode plan.
    response.cache = served;
    if (degraded || !reached) {
      response.status = ResponseStatus::kCompletedQuick;
    } else {
      response.status = ResponseStatus::kCompleted;
      // The guarantee the frontier actually carries: a cache hit's may
      // be tighter than requested under the relaxed alpha identity.
      response.alpha = session.BestAlpha();
    }
    response.result = std::move(result);
    switch (served) {
      case CacheOutcome::kExactHit:
        stats_.counters.exact_hits.Add();
        break;
      case CacheOutcome::kFrontierHit:
        stats_.counters.frontier_hits.Add();
        break;
      case CacheOutcome::kTierHit:
        stats_.counters.tier_hits.Add();
        break;
      default:
        break;
    }
    stats_.counters.completed.Add();
  }
  response.service_ms = call->since_submit.ElapsedMillis();
  call->promise.set_value(std::move(response));
}

ServiceStatsSnapshot OptimizationService::Stats() const {
  ServiceStatsSnapshot snapshot = stats_.Snapshot();
  snapshot.cache_evictions = cache_.GetStats().evictions;
  snapshot.pool_queue_depth = pool_.QueueDepth();
  snapshot.pool_queue_wait = pool_.QueueWaitSnapshot();
  if (ThreadPool* dp = dp_pool_ptr_.load(std::memory_order_acquire)) {
    snapshot.pool_queue_depth += dp->QueueDepth();
    snapshot.pool_queue_wait.Merge(dp->QueueWaitSnapshot());
  }
  snapshot.slow_queries = slow_log_.WorstFirst();
  return snapshot;
}

void OptimizationService::RegisterMetrics() {
  using C = ServiceCounters;
  const ServiceCounters* counters = &stats_.counters;
  metrics_.AddCounter("moqo_requests_total", "One-shot requests submitted",
                      CounterSampler(counters, &C::requests_total));
  metrics_.AddCounter("moqo_completed_total", "Requests answered with a plan",
                      CounterSampler(counters, &C::completed));
  metrics_.AddCounter("moqo_rejected_total",
                      "Requests shed by admission control",
                      CounterSampler(counters, &C::admissions_rejected));
  metrics_.AddCounter("moqo_internal_errors_total",
                      "Invalid requests and optimizer failures",
                      CounterSampler(counters, &C::internal_errors));
  metrics_.AddCounter("moqo_deadline_timeouts_total",
                      "Requests degraded to quick mode",
                      CounterSampler(counters, &C::deadline_timeouts));
  metrics_.AddCounter("moqo_sessions_opened_total",
                      "Anytime frontier sessions opened",
                      CounterSampler(counters, &C::sessions_opened));
  metrics_.AddCounter("moqo_refinement_steps_total",
                      "Completed ladder rungs across all sessions",
                      CounterSampler(counters, &C::refinement_steps));
  metrics_.AddCounter("moqo_refinement_sheds_total",
                      "Refinement ladders shed by overload priority",
                      CounterSampler(counters, &C::refinement_sheds));
  metrics_.AddCounter("moqo_watchdog_fires_total",
                      "Sessions force-finished by the rung watchdog",
                      CounterSampler(counters, &C::watchdog_fires));
  metrics_.AddGauge("moqo_sessions_active", "Refinement ladders running now",
                    CounterSampler(counters, &C::sessions_active));
  metrics_.AddGauge("moqo_inflight", "Requests queued or running", [this] {
    return static_cast<double>(InFlight());
  });

  metrics_.AddCounter("moqo_cache_lookups_total", "PlanCache lookups",
                      {{"result", "hit"}},
                      CounterSampler(counters, &C::cache_hits));
  metrics_.AddCounter("moqo_cache_lookups_total", "PlanCache lookups",
                      {{"result", "miss"}},
                      CounterSampler(counters, &C::cache_misses));
  metrics_.AddGauge("moqo_cache_entries", "Resident PlanCache entries",
                    [this] {
                      return static_cast<double>(cache_.GetStats().entries);
                    });
  metrics_.AddGauge("moqo_cache_bytes", "Resident PlanCache bytes", [this] {
    return static_cast<double>(cache_.GetStats().bytes);
  });

  metrics_.AddCounter("moqo_memo_lookups_total",
                      "Cross-query subplan memo probes", {{"result", "hit"}},
                      [this] {
                        return static_cast<double>(MemoStats().hits);
                      });
  metrics_.AddCounter("moqo_memo_lookups_total",
                      "Cross-query subplan memo probes", {{"result", "miss"}},
                      [this] {
                        return static_cast<double>(MemoStats().misses);
                      });
  metrics_.AddGauge("moqo_memo_entries", "Resident memo entries", [this] {
    return static_cast<double>(MemoStats().entries);
  });
  metrics_.AddGauge("moqo_memo_bytes", "Resident memo bytes", [this] {
    return static_cast<double>(MemoStats().bytes);
  });

  metrics_.AddGauge("moqo_pool_queue_depth",
                    "Tasks waiting for a worker (request + DP pools)",
                    [this] {
                      size_t depth = pool_.QueueDepth();
                      ThreadPool* dp =
                          dp_pool_ptr_.load(std::memory_order_acquire);
                      if (dp != nullptr) depth += dp->QueueDepth();
                      return static_cast<double>(depth);
                    });
  metrics_.AddHistogram("moqo_pool_queue_wait_ms",
                        "Task enqueue-to-pickup wait (request + DP pools)",
                        [this] {
                          HistogramSnapshot wait = pool_.QueueWaitSnapshot();
                          ThreadPool* dp =
                              dp_pool_ptr_.load(std::memory_order_acquire);
                          if (dp != nullptr) {
                            wait.Merge(dp->QueueWaitSnapshot());
                          }
                          return wait;
                        });
  metrics_.AddHistogram("moqo_step_latency_ms",
                        "Per-rung refinement step latency", [this] {
                          return stats_.step_latency.Snapshot();
                        });
  metrics_.AddHistogram("moqo_first_frontier_ms",
                        "Session open to first published frontier", [this] {
                          return stats_.first_frontier.Snapshot();
                        });
  for (int i = 0; i < kNumAlgorithmKinds; ++i) {
    metrics_.AddHistogram(
        "moqo_request_latency_ms", "Fresh optimization latency by algorithm",
        {{"algorithm", AlgorithmName(static_cast<AlgorithmKind>(i))}},
        [this, i] { return stats_.latency[i].Snapshot(); });
  }

  metrics_.AddGauge("moqo_slow_query_worst_ms",
                    "Slowest retained slow-log request", [this] {
                      return slow_log_.WorstMs();
                    });
  metrics_.AddGauge("moqo_trace_events_recorded",
                    "Span events recorded by the tracer", [this] {
                      return static_cast<double>(tracer_.recorded_events());
                    });
  metrics_.AddCounter("moqo_tier_hits_total",
                      "Requests served from the RAM→disk tier",
                      CounterSampler(counters, &C::tier_hits));
  RegisterPersistMetrics();
}

std::string OptimizationService::SnapshotPath() const {
  return options_.persist.directory + "/moqo.snapshot";
}

bool OptimizationService::SnapshotNow() {
  if (options_.persist.directory.empty()) return false;
  MutexLock lock(snapshot_mu_);
  persist::SnapshotWriter writer(options_.persist.catalog_epoch,
                                 kCostModelVersion);
  cache_.ExportTo(&writer);
  if (subplan_memo_ != nullptr) subplan_memo_->ExportTo(&writer);
  const bool ok = writer.WriteFile(SnapshotPath());
  if (ok) {
    persist_stats_->snapshots_written.Add();
    persist_stats_->snapshot_records.Add(writer.record_count());
    persist_stats_->snapshot_bytes.Add(writer.encoded_bytes());
  } else {
    persist_stats_->snapshot_failures.Add();
  }
  return ok;
}

size_t OptimizationService::RestoreNow() {
  if (options_.persist.directory.empty()) return 0;
  MutexLock lock(snapshot_mu_);
  persist::PersistStatsSnapshot& stats = *persist_stats_;
  stats.restores_attempted.Add();
  size_t restored = 0;
  uint64_t restored_bytes = 0;
  const persist::SnapshotReadResult result = persist::ReadSnapshot(
      SnapshotPath(),
      [this, &stats](const persist::SnapshotHeader& header) {
        // The two semantic gates of the validation matrix. Stale cost
        // models make every stored cost wrong; a different catalog epoch
        // makes every content-derived key unreachable — either way the
        // snapshot is dead weight and restoring it would only pollute
        // the caches.
        if (header.cost_model_version != kCostModelVersion) {
          stats.restore_skipped_version.Add(header.record_count);
          return false;
        }
        if (header.catalog_epoch != options_.persist.catalog_epoch) {
          stats.restore_skipped_epoch.Add(header.record_count);
          return false;
        }
        return true;
      },
      [this, &stats, &restored,
       &restored_bytes](const persist::SnapshotRecordView& record) {
        // Each cache restores only its own kind; a record no cache claims
        // (a future kind, or memo records with the memo off) is skipped.
        if (cache_.Restore(record)) {
          stats.restored_plan_entries.Add();
        } else if (subplan_memo_ != nullptr &&
                   subplan_memo_->Restore(record)) {
          stats.restored_memo_entries.Add();
        } else {
          return;
        }
        ++restored;
        restored_bytes += record.payload.size();
      });
  if (result.loaded) {
    stats.restores_loaded.Add();
    if (result.header.format_version != persist::kFormatVersion) {
      stats.restore_skipped_version.Add(result.header.record_count);
    }
  }
  stats.restore_skipped_checksum.Add(result.skipped_checksum);
  stats.restore_truncated.Add(result.truncated);
  stats.restore_bytes.Add(restored_bytes);
  return restored;
}

void OptimizationService::RegisterPersistMetrics() {
  // Samplers share the counter blocks (service + tiers), so a scrape
  // racing service teardown reads frozen counters, never freed memory —
  // the moqo_net_* pattern.
  using P = persist::PersistStatsSnapshot;
  const auto& counters = persist_stats_;
  metrics_.AddCounter("moqo_persist_snapshots_total",
                      "Warm-state snapshots written",
                      CounterSampler(counters, &P::snapshots_written));
  metrics_.AddCounter("moqo_persist_snapshot_failures_total",
                      "Snapshot writes that failed (I/O or injected fault)",
                      CounterSampler(counters, &P::snapshot_failures));
  metrics_.AddCounter("moqo_persist_snapshot_records_total",
                      "Records written across all snapshots",
                      CounterSampler(counters, &P::snapshot_records));
  metrics_.AddCounter("moqo_persist_snapshot_bytes_total",
                      "Encoded snapshot bytes written",
                      CounterSampler(counters, &P::snapshot_bytes));
  metrics_.AddCounter("moqo_persist_restores_total",
                      "Restore attempts (header validated or not)",
                      CounterSampler(counters, &P::restores_attempted));
  metrics_.AddCounter("moqo_persist_restored_entries_total",
                      "Entries restored from snapshots", {{"cache", "plan"}},
                      CounterSampler(counters, &P::restored_plan_entries));
  metrics_.AddCounter("moqo_persist_restored_entries_total",
                      "Entries restored from snapshots", {{"cache", "memo"}},
                      CounterSampler(counters, &P::restored_memo_entries));
  metrics_.AddCounter("moqo_persist_restore_bytes_total",
                      "Payload bytes restored",
                      CounterSampler(counters, &P::restore_bytes));
  metrics_.AddCounter("moqo_persist_restore_skipped_total",
                      "Snapshot records skipped on restore",
                      {{"reason", "epoch"}},
                      CounterSampler(counters, &P::restore_skipped_epoch));
  metrics_.AddCounter("moqo_persist_restore_skipped_total",
                      "Snapshot records skipped on restore",
                      {{"reason", "version"}},
                      CounterSampler(counters, &P::restore_skipped_version));
  metrics_.AddCounter("moqo_persist_restore_skipped_total",
                      "Snapshot records skipped on restore",
                      {{"reason", "checksum"}},
                      CounterSampler(counters, &P::restore_skipped_checksum));
  metrics_.AddCounter("moqo_persist_restore_truncated_total",
                      "Snapshot records lost to a torn or short tail",
                      CounterSampler(counters, &P::restore_truncated));

  const auto tier_metrics = [this](
                                const std::shared_ptr<persist::DiskTier>& tier,
                                const char* cache_label) {
    if (tier == nullptr) return;
    using T = persist::DiskTier::Stats;
    const std::shared_ptr<const T> stats = tier->shared_stats();
    const MetricsRegistry::Labels labels = {{"cache", cache_label}};
    metrics_.AddCounter("moqo_persist_tier_demotions_total",
                        "Evicted entries demoted to the disk tier", labels,
                        CounterSampler(stats, &T::demotions));
    metrics_.AddCounter("moqo_persist_tier_promotions_total",
                        "Tier hits promoted back to RAM", labels,
                        CounterSampler(stats, &T::promotions));
    metrics_.AddCounter("moqo_persist_tier_dropped_total",
                        "Tier entries lost to shard resets", labels,
                        CounterSampler(stats, &T::dropped));
    metrics_.AddGauge("moqo_persist_tier_entries", "Live tier index entries",
                      labels, CounterSampler(stats, &T::entries));
    metrics_.AddGauge("moqo_persist_tier_bytes",
                      "Live tier on-disk record bytes", labels,
                      CounterSampler(stats, &T::bytes));
  };
  tier_metrics(cache_tier_, "plan");
  tier_metrics(memo_tier_, "memo");
}

}  // namespace moqo
