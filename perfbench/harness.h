// Copyright (c) 2026 moqo authors. MIT license.
//
// Shared plumbing of the benchmark's workloads: the run configuration, the
// report a workload hands back, per-operation failure accounting, process
// and host measurements, and the seeded TPC-H inputs plus their
// enumeration-based true frontiers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cost/cost_vector.h"
#include "cost/objective.h"
#include "plan/operators.h"
#include "query/query.h"
#include "spans.h"
#include "stats.h"
#include "util/mutex.h"
#include "util/random.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the fixed work of the run (see each workload); the work does
  /// not depend on how fast the host is.
  int seconds = 15;
  bool trace = false;
  /// Where traced runs write their Chrome trace and span summary.
  std::string out_dir = ".";
};

/// What one workload run hands back to main().
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by name.
  std::map<std::string, double> metrics;
  /// Failures of the run itself (a metric its sample cannot support, a
  /// server that cannot start): the run ends without a result.
  std::vector<std::string> errors;
  /// Exact work counts and diagnostics, printed as a context line.
  std::vector<std::pair<std::string, double>> counts;
};

/// Per-operation failure accounting: an operation fails once, however many
/// of its checks fail. Thread-safe.
class Failures {
 public:
  void Fail(uint64_t op, const std::string& why);
  uint64_t count() const;
  /// Prints the first few reasons to stderr.
  void PrintSample() const;

 private:
  mutable moqo::Mutex mu_;
  std::set<uint64_t> ops_ MOQO_GUARDED_BY(mu_);
  std::vector<std::string> sample_ MOQO_GUARDED_BY(mu_);
};

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Process peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Returns freed heap to the OS (glibc malloc_trim). Called between set-up
/// repetitions, so the peak RSS reflects one set-up rather than how much
/// freed memory the allocator happened to keep across repetitions.
void ReleaseFreedMemory();

/// Ticks (1/100 s) the hypervisor gave this machine's CPUs to others so
/// far (the "steal" column of /proc/stat); 0 where unavailable.
double StealTicks();

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// A memory-bound dependent-load loop over an 8 MiB buffer, independent of
/// the program under test; its time tracks slow phases of the host.
double HostProbeMs();

/// SplitMix64 finaliser: derives independent seeds from (seed, stream).
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// The operator space every workload optimizes over (the one the repo's
/// service benches use): one sampling rate, DOP 1 and 2.
moqo::OperatorRegistry::Options BenchOperatorSpace();

// ---- TPC-H inputs ----------------------------------------------------------

/// The ten TPC-H queries with at least three tables, smallest first:
/// Q3 Q11 Q18 (3 tables), Q10 Q21 (4), Q2 (5), Q5 Q7 Q9 (6), Q8 (8).
const std::vector<int>& BigTpcHQueries();

/// The 84 six-of-nine objective subsets as bitmasks over kAllObjectives,
/// ascending.
const std::vector<uint32_t>& SixOfNineMasks();

/// The objectives of `mask` in a seeded order. The order is part of a
/// spec's identity (it fixes the cost dimensions), so two orders of one
/// subset are distinct specs doing the same amount of DP work.
moqo::ObjectiveSet OrderedObjectives(uint32_t mask, moqo::Xoshiro256* rng);

/// Largest query, in tables, whose frontiers the checks compare against
/// NaiveFrontier.
constexpr int kMaxNaiveTables = 3;

/// True Pareto frontier of `query` under `objectives`, in their order, by
/// full plan enumeration (NaiveEnumerator) in the bench operator space,
/// restricted to the DP's plan space: bushy plans in which every sub-plan
/// joins a connected set of tables (the enumerator's Cartesian heuristic
/// alone still admits products of disconnected pairs, which the DP never
/// builds). The cost model is the spec's own, so the truth is exact by
/// construction however the model couples objectives.
///
/// Enumeration cost grows fast: a 3-table query has at most 28,672 plans in
/// the bench operator space, a 4-table one 4.0 million (seconds per spec),
/// so the checks use this for queries of at most kMaxNaiveTables tables.
std::vector<moqo::CostVector> NaiveFrontier(
    const moqo::Query& query, const moqo::ObjectiveSet& objectives);

/// Largest CoverageAlpha over the checked frontiers, with the count.
struct CoverageTally {
  double alpha_max = 1.0;
  uint64_t checked = 0;
  void Add(double alpha) {
    if (alpha > alpha_max) alpha_max = alpha;
    ++checked;
  }
};

/// Collects a run's metric values by name (units live in the metric tables
/// of workloads.h). A percentile the sample cannot support is recorded as
/// an error, which fails the run.
class MetricSink {
 public:
  explicit MetricSink(std::map<std::string, double>* out) : out_(out) {}
  void Add(const std::string& name, double value) { (*out_)[name] = value; }
  /// Adds percentile `p` of `samples`, multiplied by `scale`.
  void AddPercentile(const std::string& name,
                     const std::vector<double>& samples, double p,
                     double scale = 1.0);
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, double>* out_;
  std::vector<std::string> errors_;
};

/// Writes the traced run's spans as <out_dir>/trace-<workload>.json and
/// records the span count.
void WriteTrace(const std::vector<const SpanLog*>& logs,
                const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
