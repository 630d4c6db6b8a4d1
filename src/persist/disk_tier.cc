// Copyright (c) 2026 moqo authors. MIT license.

#include "persist/disk_tier.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "persist/format.h"
#include "rt/failpoint.h"

namespace moqo {
namespace persist {

namespace {

size_t RecordBytes(size_t key_len, size_t payload_len) {
  return kRecordHeaderBytes + key_len + payload_len;
}

}  // namespace

DiskTier::DiskTier(const Options& options) {
  const int requested = options.shards < 1 ? 1 : options.shards;
  const size_t num_shards = std::bit_ceil(static_cast<size_t>(requested));
  shard_mask_ = num_shards - 1;
  shard_capacity_bytes_ =
      (options.capacity_bytes + num_shards - 1) / num_shards;
  if (shard_capacity_bytes_ < kRecordHeaderBytes) {
    shard_capacity_bytes_ = kRecordHeaderBytes;
  }
  shards_.reserve(num_shards);
  bool all_open = true;
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    const std::string path = options.directory + "/" + options.name +
                             ".shard" + std::to_string(i) + ".seg";
    // O_TRUNC: the tier holds this process's overflow only; stale segments
    // from a previous run are unreachable (their index died with it).
    // The shard is not shared yet; the lock is for the thread-safety
    // analysis (fd is guarded, and Shard's own ctor/dtor never touch it).
    MutexLock lock(shard->mu);
    shard->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (shard->fd < 0) all_open = false;
    shards_.push_back(std::move(shard));
  }
  ok_ = all_open;
}

DiskTier::~DiskTier() {
  for (auto& shard : shards_) {
    // No concurrent Put/Take may be in flight at destruction; the lock
    // keeps the guarded fd read visible to the analysis.
    MutexLock lock(shard->mu);
    if (shard->fd >= 0) ::close(shard->fd);
  }
}

DiskTier::Shard& DiskTier::ShardFor(uint64_t key_hash) {
  // The multiply-and-fold mix of TieredLru's shard routing: every shard
  // stays reachable, and shard choice stays decorrelated from the index's
  // bucket choice.
  uint64_t mixed = key_hash * 0x9E3779B97F4A7C15ull;
  mixed ^= mixed >> 32;
  return *shards_[mixed & shard_mask_];
}

void DiskTier::ResetShard(Shard* shard) {
  stats_->dropped.Add(shard->index.size());
  stats_->entries.Sub(shard->index.size());
  stats_->bytes.Sub(shard->live_bytes);
  shard->index.clear();
  shard->live_bytes = 0;
  shard->append_offset = 0;
  if (::ftruncate(shard->fd, 0) != 0) {
    // Keeping the old length is harmless: the index is empty and appends
    // restart at offset 0, overwriting the stale region.
  }
}

bool DiskTier::Put(RecordKind kind, uint64_t key_hash, std::string_view key,
                   double achieved_alpha, std::string_view payload) {
  if (!ok_) return false;
  MOQO_FAILPOINT_RETURN("persist.tier.write", false);
  const size_t record_bytes = RecordBytes(key.size(), payload.size());
  if (record_bytes > shard_capacity_bytes_) return false;

  std::string record;
  record.reserve(record_bytes);
  AppendRecord(&record, kind, key, key_hash, achieved_alpha, payload);

  Shard& shard = ShardFor(key_hash);
  MutexLock lock(shard.mu);
  if (shard.fd < 0) return false;
  // Re-demotion of an unchanged entry (demote → promote → demote churn) is
  // the common case; an index entry with identical hash, shape, and alpha
  // is that entry with overwhelming likelihood, so skip the duplicate
  // append. (A same-shape different key would merely keep serving the
  // older record — the full-key check on Take keeps it from aliasing.)
  auto range = shard.index.equal_range(key_hash);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second.key_len == key.size() &&
        it->second.payload_len == payload.size() &&
        it->second.alpha == achieved_alpha) {
      return true;
    }
  }
  if (shard.append_offset + record_bytes > shard_capacity_bytes_) {
    ResetShard(&shard);
  }
  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::pwrite(shard.fd, record.data() + written, record.size() - written,
                 static_cast<off_t>(shard.append_offset + written));
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  IndexEntry entry;
  entry.offset = shard.append_offset;
  entry.key_len = static_cast<uint32_t>(key.size());
  entry.payload_len = static_cast<uint32_t>(payload.size());
  entry.alpha = achieved_alpha;
  shard.index.emplace(key_hash, entry);
  shard.append_offset += record_bytes;
  shard.live_bytes += record_bytes;
  stats_->demotions.Add();
  stats_->entries.Add();
  stats_->bytes.Add(record_bytes);
  return true;
}

bool DiskTier::Take(uint64_t key_hash, std::string_view key,
                    std::string* payload_out, double* alpha_out) {
  if (!ok_) return false;
  if (MOQO_FAILPOINT_HIT("persist.tier.read")) {
    stats_->misses.Add();
    return false;
  }
  Shard& shard = ShardFor(key_hash);
  MutexLock lock(shard.mu);
  std::vector<Index::iterator> candidates;
  auto range = shard.index.equal_range(key_hash);
  for (auto it = range.first; it != range.second; ++it) {
    candidates.push_back(it);
  }
  // Tightest first, so the first record that verifies and carries `key`
  // is the tightest verified one. Erasing an entry leaves the other
  // candidates' iterators valid.
  while (!candidates.empty()) {
    const auto tightest = std::min_element(
        candidates.begin(), candidates.end(),
        [](Index::iterator a, Index::iterator b) {
          return a->second.alpha < b->second.alpha;
        });
    const Index::iterator it = *tightest;
    candidates.erase(tightest);
    const IndexEntry& entry = it->second;
    const size_t record_bytes = RecordBytes(entry.key_len, entry.payload_len);
    std::string record(record_bytes, '\0');
    size_t done = 0;
    bool read_ok = true;
    while (done < record_bytes) {
      const ssize_t n =
          ::pread(shard.fd, record.data() + done, record_bytes - done,
                  static_cast<off_t>(entry.offset + done));
      if (n <= 0) {
        read_ok = false;
        break;
      }
      done += static_cast<size_t>(n);
    }
    ByteReader reader(record.data(), record.size());
    RecordView view;
    const bool corrupt =
        !read_ok || ReadRecord(&reader, &view) != ReadRecordStatus::kOk ||
        !reader.exhausted() || view.key_hash != key_hash ||
        view.achieved_alpha != entry.alpha;
    if (corrupt) {
      stats_->corrupt.Add();
      stats_->entries.Sub();
      stats_->bytes.Sub(record_bytes);
      shard.live_bytes -= record_bytes;
      shard.index.erase(it);
      continue;
    }
    // Full-key comparison: equal hashes with different keys must never
    // alias (the caches' identity contract).
    if (view.key != key) continue;
    payload_out->assign(view.payload);
    if (alpha_out != nullptr) *alpha_out = entry.alpha;
    shard.live_bytes -= record_bytes;
    shard.index.erase(it);
    stats_->promotions.Add();
    stats_->entries.Sub();
    stats_->bytes.Sub(record_bytes);
    return true;
  }
  stats_->misses.Add();
  return false;
}

}  // namespace persist
}  // namespace moqo
