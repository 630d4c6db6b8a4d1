// Copyright (c) 2026 moqo authors. MIT license.

#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "stats.h"

namespace perfbench {

std::map<std::string, SpanSummary> Summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanSummary> summary;
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& spans = log->spans();
    // Children of one thread never overlap, so the time they cover is the
    // sum of their durations.
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& span : spans) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double dur_ms = (spans[i].end_ns - spans[i].start_ns) / 1e6;
      SpanSummary& entry = summary[spans[i].name];
      ++entry.count;
      entry.total_ms += dur_ms;
      entry.self_ms += dur_ms - child_ns[i] / 1e6;
      entry.durations_ms.push_back(dur_ms);
    }
  }
  return summary;
}

std::map<uint64_t, double> DurationsByOp(
    const std::vector<const SpanLog*>& logs, const std::string& name) {
  std::map<uint64_t, double> out;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& span : log->spans()) {
      if (name == span.name) out[span.op] = (span.end_ns - span.start_ns) / 1e6;
    }
  }
  return out;
}

bool WriteChromeTrace(const std::vector<const SpanLog*>& logs,
                      const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& spans = log->spans();
    for (size_t i = 0; i < spans.size() && i < kMaxExportedSpans; ++i) {
      const SpanRecord& span = spans[i];
      const std::string name = span.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                    "\"args\":{\"op\":%llu,\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", JsonEscape(name).c_str(),
                    JsonEscape(layer).c_str(), span.start_ns / 1e3,
                    (span.end_ns - span.start_ns) / 1e3, log->tid(),
                    static_cast<unsigned long long>(span.op), i, span.parent);
      out << buf;
      first = false;
    }
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

std::string FormatSummary(const std::map<std::string, SpanSummary>& summary) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %9s %12s %12s %12s\n", "span",
                "count", "total_ms", "self_ms", "p50_us");
  out += line;
  for (const auto& [name, entry] : summary) {
    std::vector<double> sorted = entry.durations_ms;
    std::sort(sorted.begin(), sorted.end());
    const double p50 = sorted.empty() ? 0 : sorted[sorted.size() / 2];
    std::snprintf(line, sizeof(line), "%-34s %9llu %12.3f %12.3f %12.2f\n",
                  name.c_str(), static_cast<unsigned long long>(entry.count),
                  entry.total_ms, entry.self_ms, p50 * 1e3);
    out += line;
  }
  return out;
}

}  // namespace perfbench
