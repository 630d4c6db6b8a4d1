// Copyright (c) 2026 moqo authors. MIT license.

#include "memo/subplan_memo.h"

#include "rt/failpoint.h"
#include "util/byte_codec.h"

namespace moqo {

bool MemoEntryCodec::Encode(const MemoFrontier& frontier, std::string* out) {
  if (frontier.rows.empty()) return false;
  out->reserve(out->size() + 4 + kRowBytes * frontier.rows.size());
  PutU32(out, static_cast<uint32_t>(frontier.rows.size()));
  for (const MemoFrontier::Row& row : frontier.rows) {
    PutI32(out, row.op_config);
    PutU32(out, row.left_row);
    PutU32(out, row.right_row);
    PutU64(out, row.left_ranks);
  }
  return true;
}

std::shared_ptr<const MemoFrontier> MemoEntryCodec::Decode(
    std::string_view payload, double /*alpha*/) {
  ByteReader reader(payload.data(), payload.size());
  uint32_t count = 0;
  if (!reader.GetU32(&count) || count == 0 ||
      reader.remaining() != kRowBytes * uint64_t{count}) {
    return nullptr;
  }
  // The length check above guarantees every read below succeeds.
  auto frontier = std::make_shared<MemoFrontier>();
  frontier->rows.resize(count);
  for (MemoFrontier::Row& row : frontier->rows) {
    reader.GetI32(&row.op_config);
    reader.GetU32(&row.left_row);
    reader.GetU32(&row.right_row);
    reader.GetU64(&row.left_ranks);
  }
  return frontier;
}

bool MemoEntryCodec::DropInsert() {
  // Equal keys name the same candidates, so a lost memo entry can only
  // cost future probe misses.
  return MOQO_FAILPOINT_HIT("memo.insert");
}

namespace {

/// The storage limits of `options`; the rest is the memo's own policy.
auto LruOptions(const SubplanMemo::Options& options) {
  persist::TieredLru<MemoFrontier, MemoEntryCodec>::Options lru;
  lru.capacity = options.capacity;
  lru.capacity_bytes = options.capacity_bytes;
  lru.shards = options.shards;
  return lru;
}

}  // namespace

SubplanMemo::SubplanMemo() : SubplanMemo(Options{}) {}

SubplanMemo::SubplanMemo(const Options& options)
    : options_(options), lru_(LruOptions(options)) {
  if (options_.min_tables < 2) options_.min_tables = 2;
}

SubplanMemo::Stats SubplanMemo::GetStats() const {
  Stats stats = stats_;
  static_cast<persist::TieredStats&>(stats) = lru_.GetStats();
  return stats;
}

}  // namespace moqo
