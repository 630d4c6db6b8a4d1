// Copyright (c) 2026 moqo authors. MIT license.
//
// Tracer: span recording under concurrency, ring wrap-around accounting,
// sampling, the disabled path, and Chrome trace-event JSON export
// (structural well-formedness: balanced braces, required keys, one track
// per recording thread).

#include "obs/trace.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace moqo {
namespace {

TraceOptions EnabledOptions(size_t ring_capacity = 1 << 12,
                            int sample_period = 1) {
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = ring_capacity;
  options.sample_period = sample_period;
  return options;
}

/// Occurrences of `needle` in `haystack` (non-overlapping).
int CountOccurrences(const std::string& haystack, const std::string& needle) {
  int count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Structural JSON check: quotes-aware brace/bracket balance. Not a full
/// parser, but catches every truncation/escaping bug a string builder can
/// produce.
bool BracesBalanced(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip the escaped character.
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer tracer;  // Default options: disabled.
  EXPECT_FALSE(tracer.enabled());
  {
    TraceSpan span(&tracer, "test", "noop");
    span.AddArg("x", 1);
    EXPECT_FALSE(span.active());
  }
  {
    TraceSpan span(nullptr, "test", "null-tracer");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.recorded_events(), 0u);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_TRUE(BracesBalanced(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceTest, SpanRecordsNameCategoryArgsAndDuration) {
  Tracer tracer(EnabledOptions());
  {
    TraceSpan span(&tracer, "service", "request", /*id=*/42);
    span.AddArg("queue_us", 123);
    span.AddArg("rungs", 3);
    span.AddArg("dropped", 999);  // Third arg: silently ignored.
  }
  EXPECT_EQ(tracer.recorded_events(), 1u);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_TRUE(BracesBalanced(json));
  EXPECT_NE(json.find("\"name\":\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"service\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_us\":123"), std::string::npos);
  EXPECT_NE(json.find("\"rungs\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"dropped\""), std::string::npos);
  // The id correlates spans of one request across categories.
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
}

TEST(TraceTest, ExplicitEndIsIdempotent) {
  Tracer tracer(EnabledOptions());
  {
    TraceSpan span(&tracer, "test", "once");
    span.End();
    span.End();  // No-op; the destructor must not double-record either.
  }
  EXPECT_EQ(tracer.recorded_events(), 1u);
}

TEST(TraceTest, EventOrderWithinThreadIsEndOrder) {
  Tracer tracer(EnabledOptions());
  {
    TraceSpan outer(&tracer, "test", "outer");
    TraceSpan inner(&tracer, "test", "inner");
  }  // inner ends (and records) before outer.
  const std::string json = tracer.ExportChromeTrace();
  const size_t inner_pos = json.find("\"name\":\"inner\"");
  const size_t outer_pos = json.find("\"name\":\"outer\"");
  ASSERT_NE(inner_pos, std::string::npos);
  ASSERT_NE(outer_pos, std::string::npos);
  EXPECT_LT(inner_pos, outer_pos);
}

TEST(TraceTest, ConcurrentThreadsEachGetATrackAndLoseNoEvents) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  Tracer tracer(EnabledOptions(/*ring_capacity=*/kSpansPerThread + 16));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span(&tracer, "worker", "unit");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(tracer.recorded_events(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_TRUE(BracesBalanced(json));
  // One thread_name metadata event per recording thread, and every span
  // present.
  EXPECT_EQ(CountOccurrences(json, "\"thread_name\""), kThreads);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"unit\""),
            kThreads * kSpansPerThread);
}

TEST(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  constexpr size_t kCapacity = 64;
  Tracer tracer(EnabledOptions(kCapacity));
  constexpr int kTotal = 200;
  for (int i = 0; i < kTotal; ++i) {
    TraceSpan span(&tracer, "test", "wrap");
    span.AddArg("seq", i);
  }
  EXPECT_EQ(tracer.recorded_events(), static_cast<uint64_t>(kTotal));
  EXPECT_EQ(tracer.dropped_events(), static_cast<uint64_t>(kTotal) - kCapacity);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"wrap\""),
            static_cast<int>(kCapacity));
  // The survivors are the NEWEST events (136 dropped, 136..199 kept, in
  // oldest-first order).
  EXPECT_EQ(json.find("\"seq\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"seq\":199"), std::string::npos);
  const size_t first_kept = json.find("\"seq\":136");
  const size_t last_kept = json.find("\"seq\":199");
  ASSERT_NE(first_kept, std::string::npos);
  EXPECT_LT(first_kept, last_kept);
}

TEST(TraceTest, SamplingKeepsEveryNth) {
  Tracer tracer(EnabledOptions(1 << 12, /*sample_period=*/4));
  for (int i = 0; i < 100; ++i) {
    TraceSpan span(&tracer, "test", "sampled");
  }
  EXPECT_EQ(tracer.recorded_events(), 25u);
}

TEST(TraceTest, SetEnabledFlipsRecordingAtRuntime) {
  Tracer tracer;  // Starts disabled.
  { TraceSpan span(&tracer, "test", "before"); }
  tracer.SetEnabled(true);
  { TraceSpan span(&tracer, "test", "during"); }
  tracer.SetEnabled(false);
  { TraceSpan span(&tracer, "test", "after"); }
  EXPECT_EQ(tracer.recorded_events(), 1u);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"name\":\"during\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"before\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"after\""), std::string::npos);
}

TEST(TraceTest, ThreadAlternatingTracersKeepsOneTrackInEach) {
  // A thread caches only its last tracer's buffer; switching back must
  // find the buffer it registered there, not register a new ring.
  Tracer first(EnabledOptions(/*ring_capacity=*/128));
  Tracer second(EnabledOptions(/*ring_capacity=*/128));
  for (int i = 0; i < 100; ++i) {
    { TraceSpan span(&first, "test", "first"); }
    { TraceSpan span(&second, "test", "second"); }
  }
  for (const Tracer* tracer : {&first, &second}) {
    EXPECT_EQ(tracer->recorded_events(), 100u);
    EXPECT_EQ(tracer->dropped_events(), 0u);
    EXPECT_EQ(CountOccurrences(tracer->ExportChromeTrace(), "\"thread_name\""),
              1);
  }
}

TEST(TraceTest, ThreadOutlivingOneTracerNeverWritesIntoTheNext) {
  // The TLS buffer cache is keyed by a process-unique tracer id: after
  // tracer A dies, the same OS thread recording through tracer B must
  // re-register, not dereference A's freed buffer.
  std::unique_ptr<Tracer> first = std::make_unique<Tracer>(EnabledOptions());
  std::unique_ptr<Tracer> second;
  std::thread worker([&] {
    { TraceSpan span(first.get(), "test", "first-tracer"); }
    first.reset();
    second = std::make_unique<Tracer>(EnabledOptions());
    { TraceSpan span(second.get(), "test", "second-tracer"); }
  });
  worker.join();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->recorded_events(), 1u);
  EXPECT_NE(second->ExportChromeTrace().find("\"second-tracer\""),
            std::string::npos);
}

}  // namespace
}  // namespace moqo
