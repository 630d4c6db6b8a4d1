// Copyright (c) 2026 moqo authors. MIT license.
//
// SubplanMemo: a concurrent, byte-budgeted, cross-query memo of
// table-set-level Pareto frontiers.
//
// The whole-query PlanCache (service/plan_cache.h) only amortizes repeats
// of the *same* query; real workloads share join subgraphs far more often
// than whole queries. This memo shares work at the granularity the DP
// actually spends its time on: the sealed approximate Pareto set of one
// table set. Keys are canonical table-set signatures (memo/subplan_key.h —
// equal keys imply byte-identical frontiers). A value is a MemoFrontier:
// the candidates that survived the set's DP, in sealed order, each named
// the way Theorem 1 stores a plan — its last join's operator config plus
// its two operands, here as rows of the run's sealed sub-frontiers. The
// DP driver probes before building a table set and, on a hit, prices
// those candidates again from its own sealed sub-frontiers. A set's key
// fixes each subset's key (a member's fragment carries all its incident
// join columns; a subset's induced edges are a subset of the set's), so
// those are, row for row, the sub-frontiers the entry was built over, and
// a hit builds exactly the nodes a local build would. After the level
// barrier the driver publishes newly sealed sets — publish-after-seal, so
// in-flight parallel tasks only ever read immutable entries. Frontiers
// are byte-identical with the memo on or off, cold or warm.
//
// Since an entry holds no costs, a key names the objective set, not its
// order: a request that permutes another's objectives seals the same
// candidates, priced in its own column order.
//
// Storage, the disk tier and snapshot export/restore are the same
// persist::TieredLru the PlanCache is (persist/tiered_lru.h), over
// MemoFrontier with the MemoEntryCodec below: entries are accounted by
// their row footprint plus key/index overhead and tagged alpha 0, since
// the key already carries the precision bit-exactly. Lookup only hands
// back the stored entry: whether it is a hit is decided by the DP, which
// prices its rows, and the DP reports each level's verdicts through
// RecordProbes. This class keeps only the memo's own policy, `min_tables`
// (small sets are cheaper to rebuild than to look up). Nothing is ever
// flushed: a key names each member table's full content, and registered
// tables never change, so an entry can only answer its own sub-problem.

#ifndef MOQO_MEMO_SUBPLAN_MEMO_H_
#define MOQO_MEMO_SUBPLAN_MEMO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "memo/subplan_key.h"
#include "obs/counter.h"
#include "persist/tiered_lru.h"

namespace moqo {

/// One memo entry: the candidates that survived a table set's DP, in
/// sealed order, over the set's dense member ranks (rank r = its r-th
/// member in ascending local order). A row holds no cost: a hit prices it
/// again, so a restored entry is trusted only for which candidates
/// survived. A hit misses if a row's left ranks are empty, the whole set
/// or outside it, an operand row is past its sealed sub-frontier, or the
/// config is not a join applicable to the split.
struct MemoFrontier {
  struct Row {
    int32_t op_config = -1;   ///< The join's operator config.
    uint32_t left_row = 0;    ///< Operand rows in their sealed frontiers.
    uint32_t right_row = 0;
    uint64_t left_ranks = 0;  ///< Left operand; the right is the rest.
  };
  std::vector<Row> rows;
};

/// The TieredLru codec of a memo entry: kMemoCandidates records whose
/// payload is a u32 row count, then per row i32 op_config, u32 left_row,
/// u32 right_row and u64 left_ranks; tagged alpha 0.
struct MemoEntryCodec {
  static constexpr persist::RecordKind kKind =
      persist::RecordKind::kMemoCandidates;
  static constexpr size_t kRowBytes = 20;
  static double Alpha(const MemoFrontier& /*frontier*/) { return 0.0; }
  static size_t Plans(const MemoFrontier& frontier) {
    return frontier.rows.size();
  }
  static size_t Footprint(const MemoFrontier& frontier) {
    return sizeof(frontier) +
           frontier.rows.capacity() * sizeof(MemoFrontier::Row);
  }
  /// False for an entry without rows: nothing worth persisting.
  static bool Encode(const MemoFrontier& frontier, std::string* out);
  /// Null unless the payload is a positive row count followed by exactly
  /// that many rows; the rows' values are checked on a hit.
  static std::shared_ptr<const MemoFrontier> Decode(std::string_view payload,
                                                    double alpha);
  /// The `memo.insert` failpoint; `return_error` drops the publish.
  static bool DropInsert();
};

class SubplanMemo {
 public:
  struct Options {
    /// Byte budget across all shards (entries accounted by row
    /// footprint + key/index overhead); 0 = unlimited.
    size_t capacity_bytes = size_t{64} << 20;  // 64 MiB
    /// Entry cap across all shards (secondary limit).
    size_t capacity = 65536;
    /// Independently locked shards; rounded up to a power of two.
    int shards = 8;
    /// Only table sets with at least this many members are probed or
    /// published (floored at 2: singletons are cheaper to rebuild than to
    /// look up). The DP skips memo work below this size entirely.
    int min_tables = 3;
  };

  struct Stats : persist::TieredStats {
    /// The DP's probe verdicts (RecordProbes): a hit is a set sealed from
    /// its entry; a miss is a probe that found no entry or one whose rows
    /// did not fit the set.
    Counter hits;
    Counter misses;

    double HitRate() const {
      const uint64_t probes = hits + misses;
      return probes == 0 ? 0 : static_cast<double>(hits) / probes;
    }
  };

  SubplanMemo();  ///< Default Options.
  explicit SubplanMemo(const Options& options);

  SubplanMemo(const SubplanMemo&) = delete;
  SubplanMemo& operator=(const SubplanMemo&) = delete;

  const Options& options() const { return options_; }
  int min_tables() const { return options_.min_tables; }

  /// Returns the shared entry for `signature` (promoting it to
  /// most-recently-used) or nullptr; see TieredLru::Lookup. Counts
  /// nothing: the caller judges the entry and reports via RecordProbes.
  std::shared_ptr<const MemoFrontier> Lookup(
      const SubplanSignature& signature) {
    return lru_.Lookup(signature);
  }

  /// Adds one batch of probe verdicts to Stats::hits and Stats::misses.
  void RecordProbes(uint64_t hits, uint64_t misses) {
    stats_.hits.Add(hits);
    stats_.misses.Add(misses);
  }

  /// Inserts (or replaces) an entry, evicting LRU entries of the target
  /// shard until it fits the byte budget and entry cap.
  void Insert(const SubplanSignature& signature,
              std::shared_ptr<const MemoFrontier> frontier) {
    lru_.Insert(signature, std::move(frontier));
  }

  /// See TieredLru: the RAM→disk tier, snapshot export and restore.
  void AttachTier(std::shared_ptr<persist::DiskTier> tier) {
    lru_.AttachTier(std::move(tier));
  }
  void ExportTo(persist::SnapshotWriter* writer) const {
    lru_.ExportTo(writer);
  }
  bool Restore(const persist::RecordView& record) {
    return lru_.Restore(record);
  }

  Stats GetStats() const;
  size_t size() const { return lru_.size(); }

 private:
  Options options_;
  persist::TieredLru<MemoFrontier, MemoEntryCodec> lru_;

  /// The memo's own cells; GetStats() overlays the TieredStats part from
  /// lru_.
  Stats stats_;
};

}  // namespace moqo

#endif  // MOQO_MEMO_SUBPLAN_MEMO_H_
