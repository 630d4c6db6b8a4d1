// Copyright (c) 2026 moqo authors. MIT license.
//
// On-disk format shared by the snapshot file (snapshot.h), the RAM→disk
// cache tier (disk_tier.h), and the PlanSet codec (plan_set_codec.h).
//
// Bytes go through util/byte_codec.h, the codec the wire protocol and the
// cache keys use too: little-endian fixed-width integers, doubles as
// IEEE-754 bit patterns. A snapshot written on one machine reads back
// bit-identically on any other, and round trips are bit-exact by
// construction (the acceptance criterion for cached frontiers, whose
// identity contract is "equal keys imply byte-identical frontiers").
//
// One record layout serves snapshot files and tier segments alike:
//
//   record header, 32 bytes:
//     u32 kind               RecordKind
//     u32 key_len
//     u64 key_hash           signature hash (FNV-1a of the key)
//     u64 alpha_bits         achieved alpha (f64 bits); 0.0 for memo
//     u32 payload_len
//     u32 reserved           0
//   u64 record_checksum      FNV-1a over record header + key + payload
//   key bytes                canonical signature string
//   payload bytes            kind-specific (see RecordKind)
//
// Integrity: FNV-1a 64-bit seeded with kChecksumSeed. Not cryptographic —
// it detects torn writes, truncation, and bit rot, which is all a local
// cache file needs.

#ifndef MOQO_PERSIST_FORMAT_H_
#define MOQO_PERSIST_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/byte_codec.h"

namespace moqo {
namespace persist {

/// "MOQOSNP1" as a little-endian u64 (first file byte = 'M').
inline constexpr uint64_t kSnapshotMagic = 0x31504E534F514F4Dull;

/// Bumped on any layout change; readers skip whole files from other
/// versions (restore_skipped{reason="version"}).
inline constexpr uint32_t kFormatVersion = 1;

/// Sentinel for "no child" in the PlanSet node table.
inline constexpr uint32_t kNoChild = 0xFFFFFFFFu;

/// Seed of every persist checksum: the standard FNV-1a offset basis with
/// its last decimal digit dropped. Every snapshot on disk is checksummed
/// with it, so it can never be corrected to the standard constant.
inline constexpr uint64_t kChecksumSeed = 1469598103934665603ull;

/// Record header plus checksum: a record occupies this many bytes plus
/// its key and payload.
inline constexpr size_t kRecordHeaderBytes = 40;

/// Record kinds in a snapshot file or tier segment. Each payload layout
/// belongs to the codec of the value it stores, next to that value.
enum class RecordKind : uint32_t {
  kPlanCacheEntry = 1,  ///< PlanCacheEntryCodec (service/plan_cache.h).
  kMemoEntry = 2,       ///< Retired (a PlanSet block): no cache claims it.
  kMemoCandidates = 3,  ///< MemoEntryCodec (memo/subplan_memo.h).
};

/// One decoded record, viewing the bytes it was read from.
struct RecordView {
  RecordKind kind = RecordKind::kPlanCacheEntry;
  uint64_t key_hash = 0;
  double achieved_alpha = 0;
  std::string_view key;
  std::string_view payload;
};

/// Appends one record, checksum included.
inline void AppendRecord(std::string* out, RecordKind kind,
                         std::string_view key, uint64_t key_hash,
                         double achieved_alpha, std::string_view payload) {
  const size_t start = out->size();
  PutU32(out, static_cast<uint32_t>(kind));
  PutU32(out, static_cast<uint32_t>(key.size()));
  PutU64(out, key_hash);
  PutDouble(out, achieved_alpha);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, 0);  // reserved
  uint64_t checksum = Fnv1a(out->data() + start, out->size() - start,
                            kChecksumSeed);
  checksum = Fnv1a(key.data(), key.size(), checksum);
  checksum = Fnv1a(payload.data(), payload.size(), checksum);
  PutU64(out, checksum);
  out->append(key);
  out->append(payload);
}

enum class ReadRecordStatus {
  kOk,
  kTruncated,  ///< Fewer bytes remain than the record declares.
  kCorrupt,    ///< Checksum mismatch.
};

/// Reads the record at the reader's cursor into `out`, whose views point
/// into the reader's range. On kCorrupt the cursor has moved past the
/// record, but the lengths that moved it are untrusted: a caller must not
/// parse on from there.
inline ReadRecordStatus ReadRecord(ByteReader* reader, RecordView* out) {
  std::string_view header;
  if (!reader->GetView(kRecordHeaderBytes - 8, &header)) {
    return ReadRecordStatus::kTruncated;
  }
  ByteReader fields(header.data(), header.size());
  uint32_t kind = 0, key_len = 0, payload_len = 0;
  uint64_t stored_checksum = 0;
  fields.GetU32(&kind);
  fields.GetU32(&key_len);
  fields.GetU64(&out->key_hash);
  fields.GetDouble(&out->achieved_alpha);
  fields.GetU32(&payload_len);
  if (!reader->GetU64(&stored_checksum) ||
      !reader->GetView(key_len, &out->key) ||
      !reader->GetView(payload_len, &out->payload)) {
    return ReadRecordStatus::kTruncated;
  }
  out->kind = static_cast<RecordKind>(kind);
  uint64_t checksum = Fnv1a(header.data(), header.size(), kChecksumSeed);
  checksum = Fnv1a(out->key.data(), out->key.size(), checksum);
  checksum = Fnv1a(out->payload.data(), out->payload.size(), checksum);
  return checksum == stored_checksum ? ReadRecordStatus::kOk
                                     : ReadRecordStatus::kCorrupt;
}

}  // namespace persist
}  // namespace moqo

#endif  // MOQO_PERSIST_FORMAT_H_
