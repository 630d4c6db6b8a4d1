// Copyright (c) 2026 moqo authors. MIT license.

#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "core/naive_enumerator.h"
#include "frontier/frontier.h"
#include "model/cost_model.h"
#include "util/arena.h"

namespace perfbench {

using moqo::CostVector;
using moqo::Objective;
using moqo::ObjectiveSet;

void Failures::Fail(uint64_t op, const std::string& why) {
  moqo::MutexLock lock(mu_);
  if (!ops_.insert(op).second) return;
  if (sample_.size() < 10) {
    sample_.push_back("op " + std::to_string(op) + ": " + why);
  }
}

uint64_t Failures::count() const {
  moqo::MutexLock lock(mu_);
  return ops_.size();
}

void Failures::PrintSample() const {
  moqo::MutexLock lock(mu_);
  for (const std::string& line : sample_) {
    std::fprintf(stderr, "check failed: %s\n", line.c_str());
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return 0;
}

void ReleaseFreedMemory() { malloc_trim(0); }

double StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  return cpu == "cpu" && stat ? fields[7] : 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double HostProbeMs() {
  // A single random cycle through 1M slots (8 MiB): every load depends on
  // the previous one, so the loop runs at memory latency.
  constexpr size_t kSlots = size_t{1} << 20;
  std::vector<uint64_t> next(kSlots);
  std::iota(next.begin(), next.end(), 0);
  moqo::Xoshiro256 rng(12345);
  // Sattolo's shuffle yields one cycle covering every slot.
  for (size_t i = kSlots - 1; i > 0; --i) {
    std::swap(next[i], next[rng.NextInt(static_cast<uint64_t>(i))]);
  }
  const Clock::time_point start = Clock::now();
  uint64_t at = 0;
  for (size_t step = 0; step < 4 * kSlots; ++step) at = next[at];
  const double ms = MsSince(start);
  if (at == kSlots) std::fprintf(stderr, "unreachable\n");  // Keeps `at` live.
  return ms;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

moqo::OperatorRegistry::Options BenchOperatorSpace() {
  moqo::OperatorRegistry::Options options;
  options.sampling_rates = {0.05};
  options.dops = {1, 2};
  return options;
}

const std::vector<int>& BigTpcHQueries() {
  static const std::vector<int> queries = {3, 11, 18, 10, 21, 2, 5, 7, 9, 8};
  return queries;
}

const std::vector<uint32_t>& SixOfNineMasks() {
  static const std::vector<uint32_t> masks = [] {
    std::vector<uint32_t> out;
    for (uint32_t mask = 0; mask < (1u << moqo::kNumObjectives); ++mask) {
      if (__builtin_popcount(mask) == 6) out.push_back(mask);
    }
    return out;
  }();
  return masks;
}

ObjectiveSet OrderedObjectives(uint32_t mask, moqo::Xoshiro256* rng) {
  std::vector<Objective> objectives;
  for (int i = 0; i < moqo::kNumObjectives; ++i) {
    if ((mask >> i) & 1u) objectives.push_back(moqo::kAllObjectives[i]);
  }
  for (size_t i = objectives.size() - 1; i > 0; --i) {
    std::swap(objectives[i],
              objectives[rng->NextInt(static_cast<uint64_t>(i + 1))]);
  }
  return ObjectiveSet(std::move(objectives));
}

namespace {

/// True iff every node of `plan` joins a connected set of tables.
bool InDpSpace(const moqo::PlanNode* plan, const moqo::Query& query) {
  if (plan == nullptr) return true;
  return query.InducedSubgraphConnected(plan->tables) &&
         InDpSpace(plan->left, query) && InDpSpace(plan->right, query);
}

}  // namespace

std::vector<CostVector> NaiveFrontier(const moqo::Query& query,
                                      const ObjectiveSet& objectives) {
  moqo::OperatorRegistry registry(BenchOperatorSpace());
  moqo::CostModel model(&query, &registry, objectives);
  moqo::Arena arena;
  moqo::NaiveEnumerator enumerator(&model, &registry, &arena);
  moqo::NaiveEnumerator::Options options;
  options.cartesian_heuristic = true;
  const bool connected = query.JoinGraphConnected();
  std::vector<CostVector> costs;
  enumerator.VisitAll(query, options, [&](const moqo::PlanNode* plan) {
    if (!connected || InDpSpace(plan, query)) costs.push_back(plan->cost);
  });
  return moqo::ExtractParetoFrontier(costs);
}

void MetricSink::AddPercentile(const std::string& name,
                               const std::vector<double>& samples, double p,
                               double scale) {
  const std::optional<double> value = Percentile(samples, p);
  if (!value) {
    errors_.push_back(name + ": " + std::to_string(samples.size()) +
                      " samples cannot support the percentile");
    return;
  }
  Add(name, *value * scale);
}

void WriteTrace(const std::vector<const SpanLog*>& logs,
                const RunConfig& config, Report* report) {
  const std::string path = config.out_dir + "/trace-" + config.workload + ".json";
  size_t spans = 0, exported = 0;
  for (const SpanLog* log : logs) {
    spans += log->spans().size();
    exported += std::min(log->spans().size(), kMaxExportedSpans);
  }
  if (!WriteChromeTrace(logs, path)) {
    report->errors.push_back("cannot write " + path);
    return;
  }
  std::printf("trace: %zu spans, %zu exported -> %s\n", spans, exported,
              path.c_str());
  report->counts.push_back({"trace.spans", static_cast<double>(spans)});
}

}  // namespace perfbench
