// Copyright (c) 2026 moqo authors. MIT license.
//
// Snapshot file: the cross-restart persistence format for the service's
// warm state (PlanCache + SubplanMemo entries).
//
// File layout (all little-endian; format.h has the record layout):
//
//   file header, 48 bytes:
//     u64 magic                "MOQOSNP1"
//     u32 format_version       kFormatVersion
//     u32 record_count
//     u64 catalog_epoch        writer's catalog epoch
//     u64 cost_model_version   writer's kCostModelVersion
//     u64 reserved             0
//     u64 header_checksum      FNV-1a over the 40 bytes above
//   records, record_count of: the format.h record, 40 bytes + key +
//     payload each
//
// Validation matrix, applied by ReadSnapshot top to bottom; the first
// failing row wins, and every outcome is a clean skip, never a crash:
//   bad magic / header checksum / short header -> whole file ignored
//   format_version != kFormatVersion           -> records not parsed,
//                                                 counted under version
//   cost_model_version != expected             -> records not parsed,
//                                                 counted under version
//   catalog_epoch != expected                  -> records not parsed,
//                                                 counted under epoch
//   record checksum mismatch or torn tail      -> that record and the rest
//                                                 of the file are dropped
//                                                 (a torn write corrupts a
//                                                 suffix)
//
// Writes go to `<path>.tmp` then rename(2), so a crash mid-snapshot
// leaves the previous snapshot intact and a torn tmp file is never seen
// under the live name.

#ifndef MOQO_PERSIST_SNAPSHOT_H_
#define MOQO_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "persist/format.h"

namespace moqo {
namespace persist {

struct SnapshotHeader {
  uint64_t magic = 0;
  uint32_t format_version = 0;
  uint32_t record_count = 0;
  uint64_t catalog_epoch = 0;
  uint64_t cost_model_version = 0;
};

/// One decoded record, viewing memory owned by the reader. Valid only for
/// the duration of the record callback.
using SnapshotRecordView = RecordView;

/// Accumulates records in memory, then writes the whole file atomically.
/// Single-threaded by design: the service serializes under its own
/// snapshot mutex.
class SnapshotWriter {
 public:
  SnapshotWriter(uint64_t catalog_epoch, uint64_t cost_model_version)
      : catalog_epoch_(catalog_epoch),
        cost_model_version_(cost_model_version) {}

  void AddRecord(RecordKind kind, std::string_view key, uint64_t key_hash,
                 double achieved_alpha, std::string_view payload);

  /// Writes header + records to `<path>.tmp`, fsyncs, renames over `path`.
  /// False on any I/O failure (tmp file removed) or when the
  /// `persist.write` failpoint fires.
  bool WriteFile(const std::string& path);

  uint32_t record_count() const { return record_count_; }
  /// Total encoded bytes (header + records) as written by WriteFile.
  size_t encoded_bytes() const;

 private:
  uint64_t catalog_epoch_;
  uint64_t cost_model_version_;
  uint32_t record_count_ = 0;
  std::string body_;
};

struct SnapshotReadResult {
  bool loaded = false;  ///< File opened and the header validated.
  SnapshotHeader header;
  uint64_t records_ok = 0;
  uint64_t skipped_checksum = 0;  ///< Records failing their checksum.
  uint64_t truncated = 0;         ///< Records lost to a torn/short tail.
  /// A refused file's record count, by the matrix row that refused it: a
  /// foreign format or cost-model version, or a foreign catalog epoch.
  uint64_t skipped_version = 0;
  uint64_t skipped_epoch = 0;
};

/// Reads `path`, applying every row of the matrix above, then calls
/// `record_cb` for every record whose checksum verifies. `expected` names
/// the cost-model version and catalog epoch the caller can use (its other
/// fields are ignored); null gates neither. The format version always
/// gates: another version's records have another layout. The
/// `persist.read` failpoint fails the open.
SnapshotReadResult ReadSnapshot(
    const std::string& path, const SnapshotHeader* expected,
    const std::function<void(const SnapshotRecordView&)>& record_cb);

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_SNAPSHOT_H_
