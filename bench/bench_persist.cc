// Copyright (c) 2026 moqo authors. MIT license.
//
// Persistence bench (PR 9): quantifies — and hard-gates — what snapshot
// warm-restore buys across a service restart.
//
// Phases (MOQO_PERSIST_MODE):
//   warm     cold pass (all misses) + warm pass (all RAM hits) through a
//            persist-enabled service, then SnapshotNow(). Leaves the
//            snapshot and the measured warm p50 under MOQO_PERSIST_DIR
//            for the restore phase.
//   restore  a FRESH process boots from that directory and re-drives the
//            identical workload. Hard gates (exit 1):
//              - restored_entries > 0 (a silent cold start is a fail);
//              - every request, served once untimed, is a cache hit
//                and the optimizer has still run zero times (warmth must
//                be usable immediately, not after re-optimization);
//              - the timed second pass's p50 <= 2x the pre-restart warm
//                p50 (a restored hit re-selects over a decoded frontier;
//                it must stay in the same latency class as a RAM hit).
//                Both timed passes follow an untimed pass over the same
//                requests, so both reuse each query's canonical form.
//   all      both phases in one process (two service instances) — the
//            local quick check. Default.
//
// The workload is env-free deterministic (fixed queries, objective
// prefix, uniform weights): the restore process must produce byte-
// identical signatures to the warm process or every gate fails.
//
// Env knobs: MOQO_PERSIST_MODE (all), MOQO_PERSIST_DIR
// (persist_bench_state), MOQO_SF (0.01). Artifact: BENCH_persist.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "harness/experiment.h"
#include "harness/service_experiment.h"
#include "persist/persist_stats.h"
#include "query/tpch_queries.h"
#include "service/optimization_service.h"

namespace moqo {
namespace {

OperatorRegistry::Options BenchOperatorSpace() {
  OperatorRegistry::Options options;
  options.sampling_rates = {0.05};
  options.dops = {1, 2};
  return options;
}

std::string EnvString(const char* name, const char* default_value) {
  const char* value = std::getenv(name);
  return value == nullptr || value[0] == '\0' ? default_value : value;
}

ServiceOptions PersistOptions(const std::string& dir, bool restore) {
  ServiceOptions options;
  options.num_workers = 2;
  options.operators = BenchOperatorSpace();
  options.persist.directory = dir;
  options.persist.restore_on_start = restore;
  // Snapshots are explicit here (SnapshotNow after the warm pass), so a
  // phase's teardown cannot overwrite the state under measurement.
  options.persist.snapshot_on_shutdown = false;
  options.persist.tier_capacity_bytes = size_t{32} << 20;
  return options;
}

/// The fixed workload both processes must derive identically: mid-size
/// TPC-H joins, first-3 objective prefix, uniform weights.
std::vector<ServiceRequest> BuildRequests(const Catalog* catalog) {
  const int kQueries[] = {10, 2, 5, 7};
  constexpr int kObjectives = 3;
  std::vector<ServiceRequest> requests;
  for (int number : kQueries) {
    ServiceRequest request;
    request.spec.query =
        std::make_shared<Query>(MakeTpcHQuery(catalog, number));
    request.spec.objectives = ObjectiveSet(std::vector<Objective>(
        kAllObjectives.begin(), kAllObjectives.begin() + kObjectives));
    request.preference.weights = WeightVector::Uniform(kObjectives);
    requests.push_back(std::move(request));
  }
  return requests;
}

uint64_t OptimizerRuns(const OptimizationService& service) {
  uint64_t runs = 0;
  for (const HistogramSnapshot& lat : service.Stats().latency_by_algorithm) {
    runs += lat.count;
  }
  return runs;
}

std::string WarmP50Path(const std::string& dir) {
  return dir + "/warm_p50.txt";
}

/// Cold + warm passes, snapshot, and the warm-p50 handoff file.
/// Returns the warm p50 (< 0 on failure).
double RunWarmPhase(const Catalog* catalog, const std::string& dir,
                    bench::Json* doc) {
  OptimizationService service(PersistOptions(dir, /*restore=*/false));
  const std::vector<ServiceRequest> requests = BuildRequests(catalog);

  const ServiceRunStats cold = DriveService(&service, requests);
  if (cold.completed + cold.quick != cold.total || cold.null_plans != 0) {
    std::printf("ERROR: cold pass failed (%d/%d completed)\n",
                cold.completed, cold.total);
    return -1;
  }
  const ServiceRunStats warm = DriveService(&service, requests);
  if (warm.cache_hits != warm.total) {
    std::printf("ERROR: warm pass missed the cache (%d/%d hits)\n",
                warm.cache_hits, warm.total);
    return -1;
  }
  if (!service.SnapshotNow()) {
    std::printf("ERROR: SnapshotNow failed\n");
    return -1;
  }
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  std::printf("warm: p50=%.3fms  snapshot: %llu records, %llu bytes\n",
              warm.PercentileMs(50),
              static_cast<unsigned long long>(persisted.snapshot_records),
              static_cast<unsigned long long>(persisted.snapshot_bytes));

  const double warm_p50 = warm.PercentileMs(50);
  FILE* handoff = std::fopen(WarmP50Path(dir).c_str(), "w");
  if (handoff == nullptr) {
    std::printf("ERROR: cannot write %s\n", WarmP50Path(dir).c_str());
    return -1;
  }
  std::fprintf(handoff, "%.17g\n", warm_p50);
  std::fclose(handoff);

  bench::Json phase = bench::Json::Object();
  phase.Set("requests", cold.total)
      .Set("cold_p50_ms", cold.PercentileMs(50))
      .Set("warm_p50_ms", warm_p50)
      .Set("snapshot_records",
           static_cast<long long>(persisted.snapshot_records))
      .Set("snapshot_bytes",
           static_cast<long long>(persisted.snapshot_bytes));
  doc->Set("warm_phase", std::move(phase));
  return warm_p50;
}

/// Boots from the snapshot and enforces the restore gates. Returns 0/1.
int RunRestorePhase(const Catalog* catalog, const std::string& dir,
                    double warm_p50, bench::Json* doc) {
  OptimizationService service(PersistOptions(dir, /*restore=*/true));
  const persist::PersistStatsSnapshot persisted = service.PersistStats();
  std::printf("restore: %llu plan + %llu memo entries, %llu bytes\n",
              static_cast<unsigned long long>(persisted.restored_plan_entries),
              static_cast<unsigned long long>(persisted.restored_memo_entries),
              static_cast<unsigned long long>(persisted.restore_bytes));
  if (persisted.restored_entries() == 0) {
    std::printf("ERROR: restore loaded zero entries\n");
    return 1;
  }

  // Serve every request once before timing. The pre-restart warm pass
  // reuses the canonical forms its cold pass built, while this process's
  // fresh queries each encode theirs on first use; this pass pays those
  // encodes, so both timed passes do the same work. Each must already be
  // a hit on the restored cache, with no optimizer run.
  const std::vector<ServiceRequest> requests = BuildRequests(catalog);
  for (size_t i = 0; i < requests.size(); ++i) {
    const ServiceResponse response = service.SubmitAndWait(requests[i]);
    if (!response.cache_hit() || OptimizerRuns(service) != 0) {
      std::printf("ERROR: post-restart request %zu was not served from "
                  "the restored cache (outcome=%d, optimizer_runs=%llu)\n",
                  i, static_cast<int>(response.cache),
                  static_cast<unsigned long long>(OptimizerRuns(service)));
      return 1;
    }
  }
  const ServiceRunStats restored = DriveService(&service, requests);
  if (restored.cache_hits != restored.total) {
    std::printf("ERROR: restored pass missed the cache (%d/%d hits)\n",
                restored.cache_hits, restored.total);
    return 1;
  }
  const double restored_p50 = restored.PercentileMs(50);
  const double ratio = warm_p50 > 0 ? restored_p50 / warm_p50 : 0;
  std::printf("restored-warm: p50=%.3fms (%.2fx pre-restart warm p50 "
              "%.3fms)\n",
              restored_p50, ratio, warm_p50);
  if (warm_p50 > 0 && restored_p50 > 2.0 * warm_p50) {
    std::printf("ERROR: restored-warm p50 exceeds 2x the pre-restart warm "
                "p50\n");
    return 1;
  }

  bench::Json phase = bench::Json::Object();
  phase.Set("restored_plan_entries",
            static_cast<long long>(persisted.restored_plan_entries))
      .Set("restored_memo_entries",
           static_cast<long long>(persisted.restored_memo_entries))
      .Set("restore_bytes", static_cast<long long>(persisted.restore_bytes))
      .Set("first_request_hit", true)
      .Set("restored_p50_ms", restored_p50)
      .Set("warm_p50_ms", warm_p50)
      .Set("p50_ratio_vs_warm", ratio);
  doc->Set("restore_phase", std::move(phase));
  return 0;
}

int Run() {
  const std::string mode = EnvString("MOQO_PERSIST_MODE", "all");
  const std::string dir =
      EnvString("MOQO_PERSIST_DIR", "persist_bench_state");
  const double sf = EnvDouble("MOQO_SF", 0.01);
  Catalog catalog = Catalog::TpcH(sf);

  std::printf("== persistence bench (mode=%s, dir=%s) ==\n", mode.c_str(),
              dir.c_str());
  bench::Json doc = bench::Json::Object();
  doc.Set("bench", "persist").Set("mode", mode.c_str());

  double warm_p50 = -1;
  if (mode == "warm" || mode == "all") {
    warm_p50 = RunWarmPhase(&catalog, dir, &doc);
    if (warm_p50 < 0) return 1;
  }
  int status = 0;
  if (mode == "restore" || mode == "all") {
    if (warm_p50 < 0) {  // Separate-process restore: read the handoff.
      FILE* handoff = std::fopen(WarmP50Path(dir).c_str(), "r");
      if (handoff == nullptr ||
          std::fscanf(handoff, "%lg", &warm_p50) != 1) {
        std::printf("ERROR: no warm-phase handoff at %s — run "
                    "MOQO_PERSIST_MODE=warm first\n",
                    WarmP50Path(dir).c_str());
        if (handoff != nullptr) std::fclose(handoff);
        return 1;
      }
      std::fclose(handoff);
    }
    status = RunRestorePhase(&catalog, dir, warm_p50, &doc);
  }
  if (status != 0) return status;

  const std::string path = "BENCH_persist.json";
  if (!bench::WriteJsonFile(path, doc)) {
    std::printf("ERROR: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace moqo

int main() { return moqo::Run(); }
