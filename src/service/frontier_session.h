// Copyright (c) 2026 moqo authors. MIT license.
//
// FrontierSession: the anytime, progressively refining frontier API of the
// optimization service (PR 5).
//
// The paper's IRA (Section 6) rests on one observation: a coarse
// (large-alpha) approximate Pareto set is cheap, and precision can be
// bought *incrementally*. A FrontierSession turns that into the service's
// primary serving shape. OptimizationService::OpenFrontier(spec, options)
// runs no optimizer: it returns immediately with a session that
//
//   1. publishes a first frontier — at open, a cached one when the
//      PlanCache holds an entry for the spec; otherwise a Section 5.1
//      quick-mode frontier, which the first rung's pool task computes
//      before the rung itself (one pool hop plus quick-mode latency);
//   2. refines in the background over a geometric alpha ladder
//      (alpha_start -> ... -> alpha_target), publishing each completed
//      rung's PlanSet — every published frontier carries an alpha <= the
//      previous one — through BestFrontier(), History(), and OnRefined
//      callbacks;
//   3. answers Select(preference) at ANY time in O(|frontier|) from the
//      best frontier so far — the anytime property: a user dragging a
//      weight slider gets instant answers that silently sharpen as rungs
//      land;
//   4. supports Cancel() (mid-rung, via the cancellation token the DP
//      polls alongside its deadline), AwaitTarget()/AwaitFor(), and
//      per-rung deadlines.
//
// Sessions are integrated with the rest of the service: every completed
// rung is inserted into the PlanCache tagged with its achieved alpha (so
// one-shot requests and later sessions reuse it under the relaxed alpha
// identity), rungs share the cross-query SubplanMemo (ladder steps of
// overlapping sessions reuse each other's table-set frontiers), sessions
// with identical spec + ladder coalesce onto one runner, and a refining
// ladder occupies one admission-controlled in-flight slot.
//
// OpenFrontier's sessions are preference-free: the spec determines the
// ladder, and every preference is a selection over published frontiers.
// The preference-dependent algorithms (IRA, weighted-sum) therefore cannot
// back one; they run through Submit, whose one-step sessions carry the
// request's preference in their cache and session keys.
//
// Thread safety: all public members are safe to call from any thread, and
// a session handle remains valid (it just stops refining) after the
// service that opened it is destroyed.

#ifndef MOQO_SERVICE_FRONTIER_SESSION_H_
#define MOQO_SERVICE_FRONTIER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/optimizer.h"
#include "core/plan_set.h"
#include "service/policy.h"
#include "service/request.h"
#include "service/signature.h"
#include "util/deadline.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

class OptimizationService;
class ServiceStatsRegistry;
class Tracer;

/// Cap on SessionOptions::max_steps. The opening thread builds the whole
/// ladder — for a wire session, the server's event loop — so its length
/// is bounded; the wire rejects a larger request outright.
inline constexpr int kMaxLadderSteps = 64;

/// Knobs of one refinement session.
struct SessionOptions {
  /// First (coarsest) rung of the alpha ladder. Values <= the target, and
  /// non-finite values, collapse the ladder to a single rung at the
  /// target — that is how Submit becomes a one-step session.
  double alpha_start = 4.0;
  /// Final precision; <= 0 derives it from the spec's alpha override or
  /// the policy default.
  double alpha_target = -1;
  /// Maximum ladder rungs from alpha_start down to alpha_target
  /// (geometric in log space; clamped to [1, kMaxLadderSteps]).
  int max_steps = 4;
  /// Per-rung wall budget in ms; < 0 = none. A rung that exceeds it ends
  /// the ladder — the session keeps the guarantees it already published.
  int64_t step_deadline_ms = -1;
  /// Publish a quick-mode frontier (alpha = +infinity) as step 0 when the
  /// cache cannot seed one: the first rung's pool task computes it before
  /// the rung itself. Part of the session's identity — a quick_first open
  /// coalesces only onto a session that publishes one, and the reverse.
  bool quick_first = true;
};

/// One published frontier: a refinement step's output.
struct RefinedFrontier {
  /// Publish index within the session (0 = the cached or quick-mode
  /// frontier when one exists).
  int step = 0;
  /// The approximation guarantee of `plan_set`; +infinity for the
  /// quick-mode frontier (valid plans, no guarantee). Strictly decreasing
  /// over a session's published steps.
  double alpha = std::numeric_limits<double>::infinity();
  std::shared_ptr<const PlanSet> plan_set;
  /// Wall time of the step that produced it (0 for cache-served steps).
  double step_ms = 0;
  /// Served or seeded from the PlanCache rather than computed here.
  bool from_cache = false;
};

/// One scalarization of a session's best frontier at some instant.
struct SessionSelection {
  /// The selected plan and its derived quantities; plan is null iff the
  /// session has not published any frontier yet.
  PlanSelection selection;
  /// The frontier the selection came from — hold it as long as the plan
  /// is used.
  std::shared_ptr<const PlanSet> plan_set;
  /// Guarantee of that frontier (+infinity for quick-mode).
  double alpha = std::numeric_limits<double>::infinity();
  /// Publish index of that frontier; -1 if none yet.
  int step = -1;
};

class FrontierSession {
 public:
  using RefinedCallback = std::function<void(const RefinedFrontier&)>;
  using DoneCallback = std::function<void()>;

  FrontierSession(const FrontierSession&) = delete;
  FrontierSession& operator=(const FrontierSession&) = delete;

  /// The best (tightest-alpha) frontier published so far; null until the
  /// first publish (before OpenFrontier returns only when the cache
  /// answered or seeded the open; OnRefined reports it).
  std::shared_ptr<const PlanSet> BestFrontier() const;

  /// Guarantee of BestFrontier(): +infinity while only the quick-mode
  /// frontier exists, then the latest rung's alpha.
  double BestAlpha() const;

  /// The precision the ladder refines toward.
  double target_alpha() const { return target_alpha_; }
  /// The resolved rung precisions, coarsest first.
  const std::vector<double>& ladder() const { return ladder_; }
  AlgorithmKind algorithm() const { return decision_.algorithm; }

  /// Scalarizes the best frontier so far for `preference` —
  /// O(|frontier|), never blocks, callable at any time from any thread
  /// (including concurrently with refinement). Bounds are honored at
  /// selection (bounded SelectBest); the deadline field is ignored.
  SessionSelection Select(const Preference& preference) const;

  /// All published frontiers, oldest first; alphas strictly decrease.
  std::vector<RefinedFrontier> History() const;
  int StepsPublished() const;

  /// Ladder finished, failed, was cancelled, or was born satisfied.
  bool Done() const;
  /// Refinement reached alpha_target.
  bool TargetReached() const;
  bool Cancelled() const;
  /// Refinement was shed by priority admission under overload: the
  /// session ended early keeping every guarantee it already published
  /// (see ServiceOptions::refinement_shed_fraction).
  bool Shed() const;
  /// Shed by admission control at open (no ladder ever ran).
  bool Rejected() const;
  /// A rung timed out (or failed) before the target was reached.
  bool Degraded() const;

  /// Releases this opener's interest. When every OpenFrontier call that
  /// returned this session has cancelled, the runner aborts mid-rung (the
  /// DP's cancellation token) and the session completes with what it
  /// already published. Extra calls are no-ops.
  void Cancel();

  /// Blocks until the session is done; true iff the target was reached.
  bool AwaitTarget();
  /// Same with a timeout; false also when the wait timed out.
  bool AwaitFor(int64_t timeout_ms);

  /// Registers a callback invoked for every published frontier. Already-
  /// published steps are replayed synchronously before registration
  /// returns, so a late subscriber misses nothing; per callback, delivery
  /// order is publish order. Returns an id for RemoveCallback. Callbacks
  /// run on the refining (or registering, during replay) thread and must
  /// not block.
  int OnRefined(RefinedCallback callback) MOQO_EXCLUDES(callback_mu_, mu_);

  /// Registers a callback invoked exactly once when the session completes
  /// (every Done()-visible field is set before it runs). An already-done
  /// session invokes it synchronously before registration returns. Shares
  /// the id space (and RemoveCallback) with OnRefined; same threading and
  /// must-not-block rules. This is how the network front end turns
  /// completion into a server-pushed DONE frame without polling.
  int OnDone(DoneCallback callback) MOQO_EXCLUDES(callback_mu_, mu_);

  void RemoveCallback(int id) MOQO_EXCLUDES(callback_mu_, mu_);

 private:
  friend class OptimizationService;

  FrontierSession() = default;

  /// Appends a frontier (strictly tighter than the current best; looser
  /// ones are dropped), updates the best snapshot, wakes waiters, and
  /// delivers callbacks. Returns false if the frontier was dropped.
  bool Publish(double alpha, std::shared_ptr<const PlanSet> plan_set,
               double step_ms, bool from_cache)
      MOQO_EXCLUDES(callback_mu_, mu_);

  /// Marks the session finished and wakes every waiter.
  void MarkDone(std::shared_ptr<const OptimizerResult> final_result,
                bool degraded, bool failed) MOQO_EXCLUDES(callback_mu_, mu_);

  void Attach();  ///< One more OpenFrontier call returned this session.
  bool CancelRequested() const {
    return cancel_flag_.load(std::memory_order_relaxed);
  }

  // ---- Immutable after OpenFrontier (set by the service). ----
  ProblemSpec spec_;
  /// Points into spec_; weights and bounds are the opener's preference,
  /// Resolved() against the spec: what quick mode optimizes for, what
  /// cache inserts store, and what a cache hit's answer is selected for.
  MOQOProblem problem_;
  PolicyDecision decision_;
  /// Alpha-free cache key of the spec (relaxed identity).
  ProblemSignature cache_signature_;
  /// Exact identity of this refinement: cache key + ladder + step budget;
  /// what identical sessions coalesce on.
  ProblemSignature session_key_;
  std::vector<double> ladder_;
  double target_alpha_ = 1.0;
  SessionOptions session_options_;
  /// Total budget from open in ms (< 0 = none); Submit's one-step
  /// sessions set it so queue wait counts against the request deadline.
  int64_t total_deadline_ms_ = -1;
  bool registered_ = false;   ///< In the service's session registry.
  bool holds_slot_ = false;   ///< Owns one admission (in-flight) slot.
  StopWatch since_open_;
  /// Observability (PR 6), set by the owning service before the session is
  /// shared. Safe to dereference from publish paths: publishes only run on
  /// service threads, which the service joins before destroying either
  /// target. stats_registry_ receives the open-to-first-frontier latency;
  /// tracer_ (nullable) gets one "session.first_frontier" span, stamped
  /// with trace_id_ like every other span of this request.
  ServiceStatsRegistry* stats_registry_ = nullptr;
  Tracer* tracer_ = nullptr;
  uint64_t trace_id_ = 0;

  // ---- Mutable session state. ----
  mutable Mutex mu_;
  mutable CondVar cv_;
  /// Every published frontier; back() is the best one so far.
  std::vector<RefinedFrontier> history_ MOQO_GUARDED_BY(mu_);
  bool done_ MOQO_GUARDED_BY(mu_) = false;
  bool target_reached_ MOQO_GUARDED_BY(mu_) = false;
  /// Optimizer error; no further publishes.
  bool failed_ MOQO_GUARDED_BY(mu_) = false;
  /// Shed by admission control at open.
  bool rejected_ MOQO_GUARDED_BY(mu_) = false;
  /// A rung timed out before the target.
  bool degraded_ MOQO_GUARDED_BY(mu_) = false;
  /// Refinement shed by overload mid-ladder.
  bool shed_ MOQO_GUARDED_BY(mu_) = false;
  /// How the cache answered a session born done from it (exact, frontier
  /// or tier hit); kMiss for every session that ran or was rejected.
  CacheOutcome served_ MOQO_GUARDED_BY(mu_) = CacheOutcome::kMiss;
  /// What Submit answers from: a cache hit's result selected for
  /// problem_'s preference, the last completed rung's full result, or
  /// the degraded quick result when nothing completed.
  std::shared_ptr<const OptimizerResult> final_result_ MOQO_GUARDED_BY(mu_);
  /// Open-to-ladder-pickup wall time.
  double queue_ms_ MOQO_GUARDED_BY(mu_) = 0;
  int open_handles_ MOQO_GUARDED_BY(mu_) = 0;
  int next_callback_id_ MOQO_GUARDED_BY(mu_) = 0;

  /// Serializes callback delivery so each callback sees publishes in
  /// order, including the OnRefined replay and the one-shot OnDone
  /// delivery. Lock order everywhere: callback_mu_ before mu_ (the
  /// MOQO_ACQUIRED_BEFORE edge below lets the analysis check it). The
  /// callback lists are guarded by callback_mu_ itself — every reader and
  /// writer holds it — which is what lets OnRefined keep a reference into
  /// callbacks_ across the replay after dropping mu_.
  Mutex callback_mu_ MOQO_ACQUIRED_BEFORE(mu_);
  std::vector<std::pair<int, RefinedCallback>> callbacks_
      MOQO_GUARDED_BY(callback_mu_);
  std::vector<std::pair<int, DoneCallback>> done_callbacks_
      MOQO_GUARDED_BY(callback_mu_);

  /// Set when every opener has cancelled; polled by the DP through its
  /// Deadline (mid-rung cancellation point).
  std::atomic<bool> cancel_flag_{false};

  // ---- Robustness state (PR 8), owned by the service. ----
  /// Steady-clock microseconds when the currently executing rung started;
  /// -1 while no rung is on a worker. The watchdog compares it against
  /// step_deadline_ms * watchdog_factor.
  std::atomic<int64_t> rung_started_us_{-1};
  /// The watchdog force-finished this session (wedged rung). Makes the
  /// outcome read degraded — not cancelled — and tells the late rung to
  /// stand down.
  std::atomic<bool> watchdog_fired_{false};
  /// FinishSession once-guard: the watchdog's force-finish and the (late)
  /// rung's own finish may race; exactly one runs the terminal path.
  std::atomic<bool> finished_{false};
};

}  // namespace moqo

#endif  // MOQO_SERVICE_FRONTIER_SESSION_H_
