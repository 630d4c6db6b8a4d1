// Copyright (c) 2026 moqo authors. MIT license.
//
// Tests of the benchmark's own statistics and result encoding.

#include "stats.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> out;
  for (int i = n; i >= 1; --i) out.push_back(i);  // Unsorted on purpose.
  return out;
}

TEST(PercentileTest, NeedsTenSamplesBeyondTheRank) {
  // p99 of 1000 samples leaves exactly ten above it.
  EXPECT_EQ(Percentile(OneTo(1000), 99), 990.0);
  EXPECT_FALSE(Percentile(OneTo(999), 99).has_value());
  // p50 needs 20 samples.
  EXPECT_EQ(Percentile(OneTo(20), 50), 10.0);
  EXPECT_FALSE(Percentile(OneTo(19), 50).has_value());
}

TEST(PercentileTest, NearestRankReturnsAnObservedSample) {
  const std::vector<double> samples = {0.25, 3.5, 1.125, 7.0, 2.0, 9.5, 4.0,
                                       8.25, 6.0, 5.5, 0.5, 1.5, 2.5, 3.0,
                                       4.5, 5.0, 6.5, 7.5, 8.0, 9.0, 10.0};
  const std::optional<double> p50 = Percentile(samples, 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 5.0);  // Rank ceil(0.5 * 21) = 11 of the sorted samples.
}

TEST(PercentileTest, RejectsEmptyAndOutOfRange) {
  EXPECT_FALSE(Percentile({}, 50).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 0).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 100).has_value());
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_FALSE(Median({}).has_value());
}

TEST(FailureShareTest, CountsAgainstAttempted) {
  EXPECT_EQ(FailureShare(0, 10), 0.0);
  EXPECT_EQ(FailureShare(3, 12), 0.25);
  EXPECT_FALSE(FailureShare(0, 0).has_value());
}

TEST(MetricNameTest, Charset) {
  EXPECT_TRUE(ValidMetricName("latency_p50_ms"));
  EXPECT_TRUE(ValidMetricName("net.decode_us_p50"));
  EXPECT_TRUE(ValidMetricName("9lives-x"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/name"));
}

TEST(UnitTest, Charset) {
  EXPECT_TRUE(ValidUnit("ms"));
  EXPECT_TRUE(ValidUnit("ops/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("seventeen_chars_x"));
  EXPECT_FALSE(ValidUnit("m s"));
}

TEST(ResultLineTest, EncodesEveryDigit) {
  std::string error;
  const std::optional<std::string> line = ResultLine(
      true, 1000, 0, {{"latency_ms", 1.25, "ms"},
                      {"setup_s", 0.1, "s"}},
      &error);
  ASSERT_TRUE(line.has_value()) << error;
  EXPECT_EQ(*line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, "
            "\"unit\": \"ms\"}, \"setup_s\": {\"value\": "
            "0.10000000000000001, \"unit\": \"s\"}}}");
}

TEST(ResultLineTest, RefusesBadInput) {
  std::string error;
  EXPECT_FALSE(ResultLine(true, 0, 0, {}, &error).has_value());
  EXPECT_FALSE(ResultLine(true, 1, 0, {{"a", 1, "ms"}, {"a", 2, "ms"}}, &error)
                   .has_value());
  EXPECT_FALSE(ResultLine(true, 1, 0, {{"bad name", 1, "ms"}}, &error)
                   .has_value());
  EXPECT_FALSE(ResultLine(true, 1, 0, {{"a", 1, "m s"}}, &error).has_value());
  EXPECT_FALSE(ResultLine(true, 1, 0,
                          {{"a", std::numeric_limits<double>::infinity(), "ms"}},
                          &error)
                   .has_value());
}

}  // namespace
}  // namespace perfbench
