// Copyright (c) 2026 moqo authors. MIT license.
//
// SlowQueryLog (PR 6): keep-worst-N record of the slowest requests with a
// per-phase latency breakdown, surfaced in ServiceStats ToString and the
// metrics export.
//
// The hot path pays one relaxed load against the current admission
// threshold; only requests that would actually enter the worst-N take the
// mutex. Entries store the problem-spec signature hash (stable across
// runs for the same spec, see service/signature.h) so a slow entry can be
// correlated with trace spans and replayed.

#ifndef MOQO_OBS_SLOW_QUERY_LOG_H_
#define MOQO_OBS_SLOW_QUERY_LOG_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

struct SlowQueryEntry {
  uint64_t signature = 0;        ///< ProblemSignature hash.
  const char* algorithm = "";    ///< Static name (e.g. "RTA").
  const char* phase = "";        ///< Where time went last: "optimize", ...
  double total_ms = 0;           ///< Queue + optimize (service-observed).
  double queue_ms = 0;
  double optimize_ms = 0;
  double alpha = 0;              ///< Final approximation factor reached.
  int frontier_size = 0;         ///< Result plans for the full table set.
  uint64_t sequence = 0;         ///< Admission order; ties broken by this.
};

class SlowQueryLog {
 public:
  explicit SlowQueryLog(int capacity = 8)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  int capacity() const { return capacity_; }

  /// Offers one finished request; kept iff it ranks in the worst N by
  /// total_ms. Thread-safe; sub-threshold offers are lock-free.
  void Offer(const SlowQueryEntry& entry) {
    // Bit pattern of a double compares like the double for non-negative
    // values, so the threshold probe needs no lock.
    const double threshold_ms =
        std::bit_cast<double>(threshold_bits_.load(std::memory_order_relaxed));
    if (entry.total_ms < threshold_ms) return;
    MutexLock lock(mu_);
    if (static_cast<int>(entries_.size()) < capacity_) {
      entries_.push_back(entry);
    } else {
      auto slowest_kept = std::min_element(
          entries_.begin(), entries_.end(),
          [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
            return a.total_ms < b.total_ms;
          });
      if (slowest_kept->total_ms >= entry.total_ms) return;
      *slowest_kept = entry;
    }
    if (static_cast<int>(entries_.size()) == capacity_) {
      double floor_ms = entries_[0].total_ms;
      for (const SlowQueryEntry& kept : entries_) {
        floor_ms = std::min(floor_ms, kept.total_ms);
      }
      threshold_bits_.store(std::bit_cast<uint64_t>(floor_ms),
                            std::memory_order_relaxed);
    }
  }

  /// Retained entries, worst (slowest) first.
  std::vector<SlowQueryEntry> WorstFirst() const {
    std::vector<SlowQueryEntry> out;
    {
      MutexLock lock(mu_);
      out = entries_;
    }
    std::sort(out.begin(), out.end(),
              [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
                if (a.total_ms != b.total_ms) return a.total_ms > b.total_ms;
                return a.sequence < b.sequence;
              });
    return out;
  }

  /// Slowest retained total_ms (0 when empty) — exported as a gauge.
  double WorstMs() const {
    MutexLock lock(mu_);
    double worst = 0;
    for (const SlowQueryEntry& entry : entries_) {
      worst = std::max(worst, entry.total_ms);
    }
    return worst;
  }

  size_t size() const {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  const int capacity_;
  /// Bit pattern of the smallest kept total_ms once the log is full;
  /// 0.0 until then (so every offer enters the locked path while filling).
  std::atomic<uint64_t> threshold_bits_{0};
  mutable Mutex mu_;
  std::vector<SlowQueryEntry> entries_ MOQO_GUARDED_BY(mu_);
};

}  // namespace moqo

#endif  // MOQO_OBS_SLOW_QUERY_LOG_H_
