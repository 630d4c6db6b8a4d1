// Copyright (c) 2026 moqo authors. MIT license.

#include "service/frontier_session.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/trace.h"
#include "service/stats.h"

namespace moqo {

std::shared_ptr<const PlanSet> FrontierSession::BestFrontier() const {
  MutexLock lock(mu_);
  return history_.empty() ? nullptr : history_.back().plan_set;
}

double FrontierSession::BestAlpha() const {
  MutexLock lock(mu_);
  return history_.empty() ? std::numeric_limits<double>::infinity()
                          : history_.back().alpha;
}

SessionSelection FrontierSession::Select(const Preference& preference) const {
  SessionSelection result;
  {
    MutexLock lock(mu_);
    if (history_.empty()) return result;
    result.plan_set = history_.back().plan_set;
    result.alpha = history_.back().alpha;
    result.step = history_.back().step;
  }
  // Selection runs outside the lock over the immutable snapshot: a rung
  // landing concurrently appends to history_ but never mutates this
  // PlanSet.
  const Preference resolved =
      Resolved(preference, problem_.objectives.size());
  result.selection =
      SelectPlan(*result.plan_set, resolved.weights, resolved.bounds);
  return result;
}

std::vector<RefinedFrontier> FrontierSession::History() const {
  MutexLock lock(mu_);
  return history_;
}

int FrontierSession::StepsPublished() const {
  MutexLock lock(mu_);
  return static_cast<int>(history_.size());
}

bool FrontierSession::Done() const {
  MutexLock lock(mu_);
  return done_;
}

bool FrontierSession::TargetReached() const {
  MutexLock lock(mu_);
  return target_reached_;
}

bool FrontierSession::Cancelled() const {
  // A watchdog fire raises cancel_flag_ only as the unwind mechanism; the
  // outcome it produces is "degraded", not "cancelled by the opener".
  return CancelRequested() && !watchdog_fired_.load(std::memory_order_relaxed);
}

bool FrontierSession::Shed() const {
  MutexLock lock(mu_);
  return shed_;
}

bool FrontierSession::Rejected() const {
  MutexLock lock(mu_);
  return rejected_;
}

bool FrontierSession::Degraded() const {
  MutexLock lock(mu_);
  return degraded_;
}

void FrontierSession::Attach() {
  MutexLock lock(mu_);
  ++open_handles_;
}

void FrontierSession::Cancel() {
  bool cancel_now = false;
  {
    MutexLock lock(mu_);
    if (open_handles_ > 0) --open_handles_;
    cancel_now = open_handles_ == 0;
  }
  if (cancel_now) {
    // The runner observes the flag at its next deadline poll (mid-rung)
    // or rung boundary and completes the session with what it has.
    cancel_flag_.store(true, std::memory_order_relaxed);
    cv_.NotifyAll();
  }
}

bool FrontierSession::AwaitTarget() {
  MutexLock lock(mu_);
  while (!done_) cv_.Wait(mu_);
  return target_reached_;
}

bool FrontierSession::AwaitFor(int64_t timeout_ms) {
  MutexLock lock(mu_);
  if (timeout_ms < 0) {
    while (!done_) cv_.Wait(mu_);
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!done_) {
      // WaitUntil returns true on timeout; re-check the predicate once
      // more (the notify may have raced the deadline) before giving up.
      if (cv_.WaitUntil(mu_, deadline) && !done_) return false;
    }
  }
  return target_reached_;
}

int FrontierSession::OnRefined(RefinedCallback callback) {
  // callback_mu_ is taken first so no publish can deliver to the new
  // callback between the history snapshot and the replay: a publisher
  // either copied the callback list before registration (it will not call
  // us; the snapshot taken after its history append covers its step) or
  // blocks on callback_mu_ until the replay finished. Either way this
  // callback sees every step exactly once, in order.
  MutexLock delivery(callback_mu_);
  std::vector<RefinedFrontier> replay;
  int id;
  {
    MutexLock lock(mu_);
    id = next_callback_id_++;
    replay = history_;
    callbacks_.emplace_back(id, std::move(callback));
  }
  const RefinedCallback& registered = callbacks_.back().second;
  for (const RefinedFrontier& frontier : replay) registered(frontier);
  return id;
}

int FrontierSession::OnDone(DoneCallback callback) {
  // Same delivery-lock discipline as OnRefined: holding callback_mu_
  // across the done check and the (possible) synchronous invocation means
  // a concurrent MarkDone either already delivered to its snapshot (which
  // excludes us) or blocks until we returned — the callback fires exactly
  // once either way.
  MutexLock delivery(callback_mu_);
  bool already_done;
  int id;
  {
    MutexLock lock(mu_);
    id = next_callback_id_++;
    already_done = done_;
    if (!already_done) done_callbacks_.emplace_back(id, std::move(callback));
  }
  if (already_done) callback();
  return id;
}

void FrontierSession::RemoveCallback(int id) {
  // Block until in-flight deliveries finish so a removed callback is never
  // invoked after RemoveCallback returns.
  MutexLock delivery(callback_mu_);
  MutexLock lock(mu_);
  const auto matches = [id](const auto& entry) { return entry.first == id; };
  callbacks_.erase(
      std::remove_if(callbacks_.begin(), callbacks_.end(), matches),
      callbacks_.end());
  done_callbacks_.erase(
      std::remove_if(done_callbacks_.begin(), done_callbacks_.end(), matches),
      done_callbacks_.end());
}

bool FrontierSession::Publish(double alpha,
                              std::shared_ptr<const PlanSet> plan_set,
                              double step_ms, bool from_cache) {
  if (plan_set == nullptr) return false;
  // callback_mu_ is held across BOTH the callback-list snapshot and the
  // delivery (same order as OnRefined/RemoveCallback take the locks): a
  // RemoveCallback cannot slip between snapshot and delivery, so a
  // removed callback is provably never invoked after removal returns.
  MutexLock delivery(callback_mu_);
  RefinedFrontier frontier;
  std::vector<std::pair<int, RefinedCallback>> callbacks;
  bool first_publish = false;
  {
    MutexLock lock(mu_);
    // Monotonicity guard: after the first publish (which may be the
    // guarantee-free quick frontier at +infinity), every further frontier
    // must strictly tighten the guarantee. The ladder is strictly
    // decreasing by construction, so this only drops genuinely redundant
    // publishes (e.g. a rung at the alpha a cache seed already provided).
    // done_ additionally fences a late rung racing a forced finish (the
    // watchdog path): once DONE is out, the history is frozen.
    if (done_ || failed_ ||
        (!history_.empty() && alpha >= history_.back().alpha)) {
      return false;
    }
    first_publish = history_.empty();
    frontier.step = static_cast<int>(history_.size());
    frontier.alpha = alpha;
    frontier.plan_set = std::move(plan_set);
    frontier.step_ms = step_ms;
    frontier.from_cache = from_cache;
    history_.push_back(frontier);
    if (alpha <= target_alpha_) target_reached_ = true;
    callbacks = callbacks_;
  }
  if (first_publish) {
    // The anytime API's headline latency: open to first usable frontier
    // (quick-mode, cache seed, or first rung — whichever landed first).
    const double first_ms = since_open_.ElapsedMillis();
    if (stats_registry_ != nullptr) {
      stats_registry_->first_frontier.Record(first_ms);
    }
    if (tracer_ != nullptr) {
      tracer_->RecordEndingNow("session", "session.first_frontier",
                               trace_id_,
                               static_cast<int64_t>(first_ms * 1000.0),
                               "from_cache", from_cache ? 1 : 0);
    }
  }
  cv_.NotifyAll();
  for (const auto& [id, callback] : callbacks) callback(frontier);
  return true;
}

void FrontierSession::MarkDone(
    std::shared_ptr<const OptimizerResult> final_result, bool degraded,
    bool failed) {
  // callback_mu_ spans the state flip and the delivery (the Publish
  // discipline): an OnDone registering concurrently either lands in the
  // snapshot below or observes done_ and self-delivers — never both,
  // never neither.
  MutexLock delivery(callback_mu_);
  std::vector<std::pair<int, DoneCallback>> callbacks;
  {
    MutexLock lock(mu_);
    if (final_result != nullptr) final_result_ = std::move(final_result);
    degraded_ = degraded;
    failed_ = failed;
    done_ = true;
    callbacks.swap(done_callbacks_);
  }
  cv_.NotifyAll();
  for (const auto& [id, callback] : callbacks) callback();
}

}  // namespace moqo
