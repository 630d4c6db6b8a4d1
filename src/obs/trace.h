// Copyright (c) 2026 moqo authors. MIT license.
//
// Request tracing (PR 6): low-overhead span recording with Chrome
// trace-event export.
//
// A Tracer owns one fixed-size ring buffer per thread that ever records
// through it. Spans are recorded as complete events ("ph":"X") at span
// *end* — one fixed-size struct append under an uncontended per-thread
// mutex — so recording never allocates and never contends across threads;
// the mutex only synchronizes with the (rare) exporter. Span names,
// categories, and argument names must be string literals (static
// lifetime): events store the pointers.
//
// The disabled path is one relaxed atomic load per span site: TraceSpan's
// constructor checks Tracer::enabled() and degrades to an empty object,
// so instrumentation can stay compiled into the hot path (the
// acceptance bar is a disabled-tracing service p50 within 3% of
// un-instrumented).
//
// Sampling: `sample_period` N keeps every Nth span per thread — the knob
// for long-running services where even ring-buffer turnover is too much
// history loss. Dropped (wrapped-over) events are counted, never blocked
// on.
//
// ExportChromeTrace() emits the Chrome trace-event JSON format
// ({"traceEvents":[...]}), loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Timestamps are microseconds since the tracer's
// construction; each recording thread appears as its own track.
//
// Ownership: a Tracer must outlive every thread that records through it
// (the service owns its tracer and joins its pools before destruction).
// Thread-cached buffer handles are keyed by a process-unique tracer id,
// so a thread outliving one tracer can never write into a later tracer's
// storage by address reuse. A thread caches only its last tracer's buffer;
// switching back finds its registered buffer by thread id, so a thread
// keeps one track per tracer however often it alternates.

#ifndef MOQO_OBS_TRACE_H_
#define MOQO_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

struct TraceOptions {
  /// Master switch; off = every span site costs one relaxed load.
  bool enabled = false;
  /// Events retained per recording thread (ring; oldest overwritten).
  size_t ring_capacity = 1 << 14;
  /// Keep every Nth span per thread (1 = all). Values < 1 clamp to 1.
  int sample_period = 1;
};

/// One complete span. Name/category/argument-name pointers must be
/// string literals.
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  int64_t start_us = 0;  ///< Microseconds since the tracer epoch.
  int64_t dur_us = 0;
  uint64_t id = 0;       ///< Correlation id (request/session); 0 = none.
  const char* arg1_name = nullptr;
  int64_t arg1 = 0;
  const char* arg2_name = nullptr;
  int64_t arg2 = 0;
};

class Tracer {
 public:
  explicit Tracer(TraceOptions options = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  const TraceOptions& options() const { return options_; }

  /// Microseconds since this tracer's construction (steady clock).
  int64_t NowUs() const;

  /// Process-unique correlation id; cheap even when disabled.
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends one complete event to the calling thread's ring. Callers
  /// normally go through TraceSpan, which applies the enabled() gate.
  void Record(const TraceEvent& event);

  /// Records a span that ends now and lasted `dur_us`, a duration the
  /// caller measured itself (a wait, an open-to-publish latency). No-op
  /// while disabled. `arg_name`, if set, must be a literal.
  void RecordEndingNow(const char* category, const char* name, uint64_t id,
                       int64_t dur_us, const char* arg_name = nullptr,
                       int64_t arg = 0) {
    if (!enabled()) return;
    TraceEvent event;
    event.category = category;
    event.name = name;
    event.id = id;
    event.start_us = NowUs() - dur_us;
    event.dur_us = dur_us;
    event.arg1_name = arg_name;
    event.arg1 = arg;
    Record(event);
  }

  /// Chrome trace-event JSON over every thread's retained events
  /// ({"traceEvents":[...], "displayTimeUnit":"ms"}). Safe to call while
  /// other threads record (they keep appending; the export is a consistent
  /// per-thread prefix).
  std::string ExportChromeTrace() const;

  /// Writes ExportChromeTrace() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Events recorded (post-sampling) across all threads so far.
  uint64_t recorded_events() const;
  /// Events overwritten by ring wrap-around across all threads.
  uint64_t dropped_events() const;

 private:
  friend class TraceSpan;

  struct ThreadBuffer {
    /// The recording thread; set before the buffer is registered.
    std::thread::id owner;
    Mutex mu;
    /// Sized once to ring_capacity.
    std::vector<TraceEvent> ring MOQO_GUARDED_BY(mu);
    size_t next MOQO_GUARDED_BY(mu) = 0;      ///< Ring write cursor.
    uint64_t recorded MOQO_GUARDED_BY(mu) = 0;  ///< Events written.
    uint64_t sampled MOQO_GUARDED_BY(mu) = 0;   ///< Pre-sample hits.
    int tid MOQO_GUARDED_BY(mu) = 0;  ///< Stable per-tracer thread number.
  };

  /// The calling thread's buffer, registering it on the thread's first
  /// record through this tracer.
  ThreadBuffer* BufferForThisThread();

  TraceOptions options_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  uint64_t tracer_id_ = 0;  ///< Process-unique; keys the TLS buffer cache.
  std::chrono::steady_clock::time_point epoch_;

  mutable Mutex buffers_mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      MOQO_GUARDED_BY(buffers_mu_);
};

/// RAII span: captures the start time at construction, records one
/// complete event at destruction. Constructing against a null or disabled
/// tracer yields an inert object (no clock read).
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, const char* category, const char* name,
            uint64_t id = 0) {
    if (tracer != nullptr && tracer->enabled()) {
      tracer_ = tracer;
      event_.category = category;
      event_.name = name;
      event_.id = id;
      event_.start_us = tracer->NowUs();
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches up to two integer arguments (first call fills arg1, the
  /// second arg2, further calls are dropped). `name` must be a literal.
  void AddArg(const char* name, int64_t value) {
    if (tracer_ == nullptr) return;
    if (event_.arg1_name == nullptr) {
      event_.arg1_name = name;
      event_.arg1 = value;
    } else if (event_.arg2_name == nullptr) {
      event_.arg2_name = name;
      event_.arg2 = value;
    }
  }

  bool active() const { return tracer_ != nullptr; }

  /// Ends the span now (idempotent; the destructor is then a no-op).
  void End() {
    if (tracer_ == nullptr) return;
    event_.dur_us = tracer_->NowUs() - event_.start_us;
    tracer_->Record(event_);
    tracer_ = nullptr;
  }

  ~TraceSpan() { End(); }

 private:
  Tracer* tracer_ = nullptr;
  TraceEvent event_;
};

}  // namespace moqo

#endif  // MOQO_OBS_TRACE_H_
