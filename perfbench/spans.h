// Copyright (c) 2026 moqo authors. MIT license.
//
// Spans recorded by the benchmark around its own calls into each layer of
// the program (traced runs only). Each client thread owns one SpanLog, so
// recording takes no lock; spans nest by construction order, which gives
// every span its parent. After the run the logs are exported as Chrome
// trace-event JSON (the format obs/trace writes; Perfetto loads it) and
// summarised per span name, with self time = duration minus the time its
// children cover.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = nullptr;  ///< "<layer>.<call>"; a string literal.
  int64_t start_ns = 0;        ///< Since the shared epoch.
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index into the same log; -1 = root.
  uint64_t op = 0;      ///< Operation id shared by one operation's spans.
};

/// One thread's spans, in start order. Not thread-safe.
class SpanLog {
 public:
  SpanLog(int tid, Clock::time_point epoch) : tid_(tid), epoch_(epoch) {
    spans_.reserve(1 << 12);
  }

  int32_t Begin(const char* name, uint64_t op) {
    SpanRecord span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(span);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }

  /// Closes the innermost open span, which must be `index`.
  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  int tid() const { return tid_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  int tid_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log (untraced run) makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op) : log_(log) {
    if (log_ != nullptr) index_ = log_->Begin(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_ = -1;
};

/// Per-name aggregate over every log.
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> durations_ms;
};

std::map<std::string, SpanSummary> Summarize(
    const std::vector<const SpanLog*>& logs);

/// Durations (ms) of every span named `name`, keyed by operation id.
std::map<uint64_t, double> DurationsByOp(
    const std::vector<const SpanLog*>& logs, const std::string& name);

/// Writes {"traceEvents":[...],"displayTimeUnit":"ms"}: one complete ("X")
/// event per span with the operation id and parent in args. Only the first
/// kMaxExportedSpans spans of each log are written (the summary uses them
/// all); beyond that a file is too large to load.
inline constexpr size_t kMaxExportedSpans = 50000;
bool WriteChromeTrace(const std::vector<const SpanLog*>& logs,
                      const std::string& path);

/// Human-readable per-layer table (count, total, self, p50).
std::string FormatSummary(const std::map<std::string, SpanSummary>& summary);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
