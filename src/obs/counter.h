// Copyright (c) 2026 moqo authors. MIT license.
//
// Counter: one relaxed 64-bit statistics cell. A statistics block is a
// plain struct of Counters and is its own snapshot: copying a Counter
// reads it, so copying the block reads every field once (each field is
// exact; the fields are not read at one instant). Writers call Add/Sub,
// one relaxed fetch_add/fetch_sub each; readers read a field as a
// uint64_t. Metric samplers read a field through CounterSampler
// (obs/metrics.h), so a Stats() call and a scrape read the same cell.

#ifndef MOQO_OBS_COUNTER_H_
#define MOQO_OBS_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace moqo {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(uint64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }

  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  operator uint64_t() const { return value(); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace moqo

#endif  // MOQO_OBS_COUNTER_H_
