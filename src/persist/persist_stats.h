// Copyright (c) 2026 moqo authors. MIT license.
//
// Persistence counters of the optimization service: snapshot writes and
// warm restores, with per-reason skip accounting mirroring the snapshot
// validation matrix. (Each cache's RAM→disk tier traffic is its DiskTier's
// own Stats, exported as the moqo_persist_tier_* metrics.) The service
// increments one block of these behind a shared_ptr that every metric
// sampler registered against it shares, so a scrape racing service
// teardown reads frozen counters instead of freed memory (the moqo_net_*
// pattern); OptimizationService::PersistStats() returns a copy.

#ifndef MOQO_PERSIST_PERSIST_STATS_H_
#define MOQO_PERSIST_PERSIST_STATS_H_

#include <cstdint>

#include "obs/counter.h"

namespace moqo {
namespace persist {

/// Monotonic persistence counters (service lifetime).
struct PersistStatsSnapshot {
  Counter snapshots_written;
  Counter snapshot_failures;
  Counter snapshot_records;  ///< Across all snapshots.
  Counter snapshot_bytes;    ///< Encoded bytes written.
  Counter restores_attempted;
  Counter restores_loaded;  ///< Header validated + parsed.
  Counter restored_plan_entries;
  Counter restored_memo_entries;
  Counter restore_bytes;  ///< Payload bytes restored.
  /// Records skipped by the validation matrix, by reason. Epoch/version
  /// gates reject the whole file, so they count header.record_count at
  /// once; checksum/truncation count per record.
  Counter restore_skipped_epoch;
  Counter restore_skipped_version;
  Counter restore_skipped_checksum;
  Counter restore_truncated;

  uint64_t restored_entries() const {
    return restored_plan_entries + restored_memo_entries;
  }
};

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_PERSIST_STATS_H_
