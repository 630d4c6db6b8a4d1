// Copyright (c) 2026 moqo authors. MIT license.
//
// cache_inspect: offline dumper for moqo snapshot files (src/persist/).
//
//   cache_inspect <path/to/moqo.snapshot> [--records]
//
// Prints the validated header (format/catalog epoch/cost-model version),
// per-kind record and byte totals, decoded frontier shapes, and the
// read-side validation tallies (checksum skips, truncated tail) — the
// operator's answer to "what warmth would a restart actually get from
// this file, and is it intact?". With --records every record is listed
// individually. Exits non-zero when the file is missing or its header is
// invalid, so CI can smoke-test snapshot integrity with a single call.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "memo/subplan_memo.h"
#include "persist/format.h"
#include "persist/snapshot.h"
#include "service/plan_cache.h"

namespace moqo {
namespace {

struct KindTally {
  uint64_t records = 0;
  uint64_t payload_bytes = 0;
  uint64_t undecodable = 0;
  uint64_t frontier_plans = 0;
  int max_frontier = 0;
};

const char* KindName(persist::RecordKind kind) {
  switch (kind) {
    case persist::RecordKind::kPlanCacheEntry:
      return "plan_cache";
    case persist::RecordKind::kMemoCandidates:
      return "memo";
    case persist::RecordKind::kMemoEntry:
      return "retired";
  }
  return "unknown";
}

int Inspect(const std::string& path, bool list_records) {
  KindTally plan_tally, memo_tally;
  uint64_t other_records = 0;
  // The --records lines, printed after the header the read validates.
  std::string record_lines;

  // No expected header: inspection reads any catalog epoch and cost model.
  const persist::SnapshotReadResult result = persist::ReadSnapshot(
      path, /*expected=*/nullptr,
      [&](const persist::SnapshotRecordView& record) {
        KindTally* tally =
            record.kind == persist::RecordKind::kPlanCacheEntry
                ? &plan_tally
                : record.kind == persist::RecordKind::kMemoCandidates
                      ? &memo_tally
                      : nullptr;
        if (tally == nullptr) {
          ++other_records;
          return;
        }
        ++tally->records;
        tally->payload_bytes += record.payload.size();

        // Decode the payload the way a restore would, to report the
        // frontier plans (memo: candidates) recoverable from this record;
        // -1 if none.
        int plans = -1;
        if (record.kind == persist::RecordKind::kPlanCacheEntry) {
          std::shared_ptr<const CachedFrontier> entry =
              PlanCacheEntryCodec::Decode(record.payload,
                                          record.achieved_alpha);
          if (entry != nullptr && entry->result != nullptr) {
            plans = entry->result->plan_set->size();
          }
        } else if (const std::shared_ptr<const MemoFrontier> entry =
                       MemoEntryCodec::Decode(record.payload,
                                              record.achieved_alpha)) {
          plans = static_cast<int>(entry->rows.size());
        }
        if (plans < 0) {
          ++tally->undecodable;
        } else {
          tally->frontier_plans += plans;
          if (plans > tally->max_frontier) tally->max_frontier = plans;
        }
        if (list_records) {
          char line[192];
          std::snprintf(
              line, sizeof(line),
              "  record kind=%-10s hash=%016" PRIx64
              " alpha=%-6g key=%zuB payload=%zuB frontier=%d\n",
              KindName(record.kind), record.key_hash, record.achieved_alpha,
              record.key.size(), record.payload.size(), plans);
          record_lines += line;
        }
      });

  if (!result.loaded) {
    std::fprintf(stderr,
                 "cache_inspect: %s: not a readable snapshot (missing, "
                 "short, bad magic, or corrupt header)\n",
                 path.c_str());
    return 1;
  }
  std::printf("snapshot %s\n", path.c_str());
  std::printf("  format_version      %u", result.header.format_version);
  if (result.skipped_version > 0) {
    // With no expected header, only a foreign format refuses the records.
    std::printf("  (this build reads %u: records not parsed)",
                persist::kFormatVersion);
  }
  std::printf("\n  record_count        %u\n", result.header.record_count);
  std::printf("  catalog_epoch       %" PRIu64 "\n",
              result.header.catalog_epoch);
  std::printf("  cost_model_version  %" PRIu64 "\n",
              result.header.cost_model_version);
  std::fputs(record_lines.c_str(), stdout);

  const auto print_tally = [](const char* name, const KindTally& tally) {
    std::printf("  %-12s %8" PRIu64 " records  %10" PRIu64
                " payload bytes  %6" PRIu64 " plans (max frontier %d)",
                name, tally.records, tally.payload_bytes,
                tally.frontier_plans, tally.max_frontier);
    if (tally.undecodable > 0) {
      std::printf("  [%" PRIu64 " UNDECODABLE]", tally.undecodable);
    }
    std::printf("\n");
  };
  std::printf("contents:\n");
  print_tally("plan_cache", plan_tally);
  print_tally("memo", memo_tally);
  if (other_records > 0) {
    std::printf("  %-12s %8" PRIu64
                " records (retired or unknown kind, skipped)\n",
                "other", other_records);
  }
  std::printf("validation: %" PRIu64 " ok, %" PRIu64
              " checksum-skipped, %" PRIu64 " truncated\n",
              result.records_ok, result.skipped_checksum, result.truncated);
  if (result.skipped_checksum > 0 || result.truncated > 0) {
    std::printf("note: file is damaged; a restore would load the %" PRIu64
                " intact records and ignore the rest\n",
                result.records_ok);
  }
  return 0;
}

}  // namespace
}  // namespace moqo

int main(int argc, char** argv) {
  bool list_records = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--records") == 0) {
      list_records = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <snapshot-file> [--records]\n",
                   argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s <snapshot-file> [--records]\n", argv[0]);
    return 2;
  }
  return moqo::Inspect(path, list_records);
}
