// Copyright (c) 2026 moqo authors. MIT license.
//
// moqo_perfbench: runs one workload for one seed and prints every metric by
// name and unit as the last line of stdout.
//
//   moqo_perfbench --workload tpch_cold|tpch_hot|wire_anytime --seed N
//                  --seconds S --trace 0|1 [--out-dir DIR] [--source ID]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a traced pass (plus an untraced reference pass
// for the tracing overhead) and writes DIR/trace-<workload>.json. Exit code
// 0 means a result line was printed; its "correct" field says whether
// every output check passed. Anything else (bad arguments, a metric the
// sample cannot support, a server that cannot start) exits 2 without a
// result.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"setup_s", "s"},
      {"throughput_ops_s", "ops/s"},
      {"latency_p50_ms", "ms"},
      {"first_frontier_p50_ms", "ms"},
      {"rss_peak_mb", "MiB"},
      {"ok_ratio", "ratio"},
      {"coverage_alpha_max", "ratio"},
  };
  return metrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> metrics = {
      {"e2e.latency_ms_p99", "ms"},
      {"e2e.first_frontier_ms_p99", "ms"},
      {"service.dispatch_us_p50", "us"},
      {"service.queue_ms_p99", "ms"},
      {"service.submit_and_wait_ms_p50", "ms"},
      {"service.submit_get_ms_p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"},
      {"session.rung_ms_p50", "ms"},
      {"session.quick_ms_p50", "ms"},
      {"session.rungs_per_session", "count"},
      {"session.sheds", "count"},
      {"core.optimize_ms_p50", "ms"},
      {"core.optimize_ms_p99", "ms"},
      {"core.considered_plans", "count"},
      {"core.frontier_plans_mean", "count"},
      {"core.barrier_wait_share", "ratio"},
      {"core.select_us_p50", "us"},
      {"memo.hit_ratio", "ratio"},
      {"memo.bytes", "bytes"},
      {"memo.evictions", "count"},
      {"net.first_frontier_overhead_ms_p50", "ms"},
      {"net.select_rtt_ms_p50", "ms"},
      {"net.decode_us_p50", "us"},
      {"net.bytes_out_per_session", "bytes"},
      {"net.pushes_dropped", "count"},
      {"pool.queue_wait_ms_p99", "ms"},
      {"proc.cpu_ms_per_op", "ms"},
      {"trace.overhead_pct", "%"},
      {"host.probe_ms", "ms"},
  };
  return metrics;
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "moqo_perfbench: %s\nusage: moqo_perfbench --workload "
               "tpch_cold|tpch_hot|wire_anytime --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--source ID]\n",
               why);
  return 2;
}

bool ParseInt(const std::string& text, long long min, long long max,
              long long* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || value < min || value > max) return false;
  *out = value;
  return true;
}

std::string Fingerprint(const RunConfig& config, const std::string& source) {
  __builtin_cpu_init();
  std::string out = "{\"workload\": \"" + JsonEscape(config.workload) + "\"";
  out += ", \"seed\": " + std::to_string(config.seed);
  out += ", \"seconds\": " + std::to_string(config.seconds);
  out += ", \"trace\": " + std::string(config.trace ? "1" : "0");
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"avx2\": " +
         std::string(__builtin_cpu_supports("avx2") ? "true" : "false");
  out += ", \"avx512f\": " +
         std::string(__builtin_cpu_supports("avx512f") ? "true" : "false");
  out += ", \"compiler\": \"" + JsonEscape(__VERSION__) + "\"";
  out += ", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  out += ", \"source\": \"" + JsonEscape(source) + "\"";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, (1LL << 62), &number)) return Usage("bad --seed");
      config.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &number)) return Usage("bad --seconds");
      config.seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &number)) return Usage("bad --trace");
      config.trace = number == 1;
      have_trace = true;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--source") {
      source = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Report (*run)(const RunConfig&) = nullptr;
  if (config.workload == "tpch_cold") run = RunTpchCold;
  if (config.workload == "tpch_hot") run = RunTpchHot;
  if (config.workload == "wire_anytime") run = RunWireAnytime;
  if (run == nullptr) return Usage("unknown workload");

  const double probe_start_ms = HostProbeMs();
  const double steal_start = StealTicks();
  Report report = run(config);
  const double steal_ticks = StealTicks() - steal_start;
  const double probe_end_ms = HostProbeMs();

  std::string context = Fingerprint(config, source);
  char number[64];
  std::snprintf(number, sizeof(number), "%.3f", probe_start_ms);
  context += std::string(", \"host.probe_ms_start\": ") + number;
  std::snprintf(number, sizeof(number), "%.3f", probe_end_ms);
  context += std::string(", \"host.probe_ms_end\": ") + number;
  std::snprintf(number, sizeof(number), "%.0f", steal_ticks);
  context += std::string(", \"host.steal_ticks\": ") + number;
  for (const auto& [name, value] : report.counts) {
    std::snprintf(number, sizeof(number), "%.17g", value);
    context += ", \"" + JsonEscape(name) + "\": " + number;
  }
  std::printf("context: %s}\n", context.c_str());

  const std::vector<MetricSpec>& table =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (config.trace) {
    report.metrics["host.probe_ms"] = 0.5 * (probe_start_ms + probe_end_ms);
  }
  std::vector<Metric> metrics;
  for (const MetricSpec& spec : table) {
    auto it = report.metrics.find(spec.name);
    if (it == report.metrics.end()) {
      // Per-layer metrics of layers this workload does not exercise read 0;
      // every end-to-end metric must be measured.
      if (!config.trace) {
        report.errors.push_back(std::string("unmeasured ") + spec.name);
        continue;
      }
      metrics.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    metrics.push_back({spec.name, it->second, spec.unit});
    report.metrics.erase(it);
  }
  for (const auto& [name, value] : report.metrics) {
    report.errors.push_back("metric outside the table: " + name);
  }
  std::string error;
  const std::optional<std::string> line =
      ResultLine(report.failed == 0, report.attempted, report.failed, metrics,
                 &error);
  if (!line) report.errors.push_back(error);
  if (!report.errors.empty()) {
    for (const std::string& message : report.errors) {
      std::fprintf(stderr, "moqo_perfbench: %s\n", message.c_str());
    }
    return 2;
  }
  std::printf("%s\n", line->c_str());
  return 0;
}
