// Copyright (c) 2026 moqo authors. MIT license.
//
// Persistence counters of the optimization service: snapshot writes and
// warm restores, with per-reason skip accounting mirroring the snapshot
// validation matrix. (Each cache's RAM→disk tier traffic is its DiskTier's
// own Counters, exported as the moqo_persist_tier_* metrics.) The atomics
// live behind a shared_ptr owned jointly by the service and every metric
// sampler registered against them, so a scrape racing service teardown
// reads frozen counters instead of freed memory (the moqo_net_* pattern).

#ifndef MOQO_PERSIST_PERSIST_STATS_H_
#define MOQO_PERSIST_PERSIST_STATS_H_

#include <atomic>
#include <cstdint>

namespace moqo {
namespace persist {

/// Monotonic persistence counters (service lifetime).
struct PersistCounters {
  std::atomic<uint64_t> snapshots_written{0};
  std::atomic<uint64_t> snapshot_failures{0};
  std::atomic<uint64_t> snapshot_records{0};  ///< Across all snapshots.
  std::atomic<uint64_t> snapshot_bytes{0};    ///< Encoded bytes written.
  std::atomic<uint64_t> restores_attempted{0};
  std::atomic<uint64_t> restores_loaded{0};  ///< Header validated + parsed.
  std::atomic<uint64_t> restored_plan_entries{0};
  std::atomic<uint64_t> restored_memo_entries{0};
  std::atomic<uint64_t> restore_bytes{0};  ///< Payload bytes restored.
  /// Records skipped by the validation matrix, by reason. Epoch/version
  /// gates reject the whole file, so they count header.record_count at
  /// once; checksum/truncation count per record.
  std::atomic<uint64_t> restore_skipped_epoch{0};
  std::atomic<uint64_t> restore_skipped_version{0};
  std::atomic<uint64_t> restore_skipped_checksum{0};
  std::atomic<uint64_t> restore_truncated{0};
};

/// Plain-value snapshot of PersistCounters, assembled by
/// OptimizationService::PersistStats().
struct PersistStatsSnapshot {
  uint64_t snapshots_written = 0;
  uint64_t snapshot_failures = 0;
  uint64_t snapshot_records = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t restores_attempted = 0;
  uint64_t restores_loaded = 0;
  uint64_t restored_plan_entries = 0;
  uint64_t restored_memo_entries = 0;
  uint64_t restore_bytes = 0;
  uint64_t restore_skipped_epoch = 0;
  uint64_t restore_skipped_version = 0;
  uint64_t restore_skipped_checksum = 0;
  uint64_t restore_truncated = 0;

  uint64_t restored_entries() const {
    return restored_plan_entries + restored_memo_entries;
  }
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_PERSIST_STATS_H_
