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
// equal keys imply byte-identical frontiers); values are immutable shared
// PlanSet snapshots holding the frontier's plans in the set's canonical
// dense-rank space (costs verbatim, plans DAG-shared, rebased on a hit via
// DeepCopyPlanRemapped). The DP driver probes before building a table set
// and seals the level entry directly on a hit; after the level barrier it
// publishes newly sealed sets — publish-after-seal, so in-flight parallel
// tasks only ever read immutable entries and a cold run's frontiers are
// byte-identical with the memo on or off.
//
// Storage, the disk tier and snapshot export/restore are the same
// persist::TieredLru the PlanCache is (persist/tiered_lru.h), over PlanSet
// with the MemoEntryCodec below: entries are accounted by their PlanSet
// footprint plus key/index overhead and tagged alpha 0, since the key
// already carries the precision bit-exactly. This class keeps only the
// memo's own policy. Admission is
// shaped by three knobs: `min_tables` (small sets are cheaper to rebuild
// than to copy), `admission_epsilon` (only frontiers already compact at
// the service's cache epsilon are worth pinning — a denser frontier would
// be compacted away at the whole-query cache anyway; entries are never
// stored compacted, since hits must reproduce the exact frontier), and
// `max_entry_plans` (a hard per-entry size cut). Per-catalog epochs keep
// the memo tidy: ObserveCatalog flushes all entries when a known
// catalog's epoch advances (Catalog::BumpEpoch after an in-place
// statistics refresh), evicting entries whose content-derived keys just
// became unreachable.

#ifndef MOQO_MEMO_SUBPLAN_MEMO_H_
#define MOQO_MEMO_SUBPLAN_MEMO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/plan_set.h"
#include "memo/subplan_key.h"
#include "obs/counter.h"
#include "persist/tiered_lru.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace moqo {

/// The TieredLru codec of a memo entry: kMemoEntry records whose payload
/// is the PlanSet block (persist/plan_set_codec.h), tagged alpha 0.
struct MemoEntryCodec {
  static constexpr persist::RecordKind kKind = persist::RecordKind::kMemoEntry;
  static double Alpha(const PlanSet& /*frontier*/) { return 0.0; }
  static size_t Plans(const PlanSet& frontier) {
    return static_cast<size_t>(frontier.size());
  }
  static size_t Footprint(const PlanSet& frontier) {
    return frontier.ApproxBytes();
  }
  /// False for the empty set: nothing worth persisting.
  static bool Encode(const PlanSet& frontier, std::string* out);
  static std::shared_ptr<const PlanSet> Decode(std::string_view payload,
                                               double alpha);
  /// The `memo.insert` failpoint; `return_error` drops the publish.
  static bool DropInsert();
};

class SubplanMemo {
 public:
  struct Options {
    /// Byte budget across all shards (entries accounted by PlanSet
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
    /// Epsilon-aware admission: a frontier is published only if it is
    /// already compact at this epsilon — no plan (1+epsilon)-dominated by
    /// an earlier one. 0 disables the check; a negative value means "use
    /// the owner's default" (the service substitutes its cache-compaction
    /// epsilon; a bare SubplanMemo treats it as disabled).
    double admission_epsilon = -1.0;
    /// Frontiers with more plans than this are never published; 0 = no cap.
    size_t max_entry_plans = 0;
  };

  struct Stats : persist::TieredStats {
    /// Publishes refused by admission (epsilon density / entry size).
    Counter admission_rejects;
    /// Epoch changes that flushed the memo.
    Counter invalidations;
  };

  SubplanMemo();  ///< Default Options.
  explicit SubplanMemo(const Options& options);

  SubplanMemo(const SubplanMemo&) = delete;
  SubplanMemo& operator=(const SubplanMemo&) = delete;

  const Options& options() const { return options_; }
  int min_tables() const { return options_.min_tables; }

  /// Returns the shared frontier for `signature` (promoting it to
  /// most-recently-used) or nullptr on miss; see TieredLru::Lookup.
  std::shared_ptr<const PlanSet> Lookup(const SubplanSignature& signature) {
    return lru_.Lookup(signature);
  }

  /// True iff `frontier` passes the admission policy (size cap and epsilon
  /// compactness); counts rejects. `alpha` is the pruning precision the
  /// frontier was built with: approximate pruning already guarantees
  /// compactness at alpha - 1 (no stored plan is alpha-dominated by an
  /// earlier one), so the effective admission epsilon is capped there and
  /// the O(n^2) density scan only ever runs — and prunes — for *exact*
  /// frontiers, the ones whose density is actually unbounded. The DP
  /// checks this before paying for the deep copy a publish requires.
  bool Admits(const ParetoSet& frontier, double alpha);

  /// Inserts (or refreshes) an admitted frontier, evicting LRU entries of
  /// the target shard until it fits the byte budget and entry cap. Equal
  /// keys imply byte-identical frontiers, so a refresh only touches
  /// recency and accounting.
  void Insert(const SubplanSignature& signature,
              std::shared_ptr<const PlanSet> frontier) {
    lru_.Insert(signature, std::move(frontier));
  }

  /// Declares that the catalog identified by `catalog` (any stable
  /// identity token — the service passes the Catalog address) is now at
  /// `epoch`. The first observation of an identity is adopted silently;
  /// observing a *changed* epoch for a known identity flushes every shard
  /// (counted as one invalidation). Thread-safe; cheap when unchanged.
  ///
  /// Note the flush is hygiene, not a correctness requirement: keys encode
  /// full table content read at run start, so a run after an in-place
  /// statistics change (Catalog::BumpEpoch) derives different keys and can
  /// never be answered from pre-change entries — the flush just evicts the
  /// newly unreachable ones instead of letting them rot until LRU
  /// eviction. Scoping per identity keeps a service juggling several
  /// catalogs (whose unrelated epoch counters differ) from flushing valid
  /// entries on every alternation.
  void ObserveCatalog(const void* catalog, uint64_t epoch);

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
  persist::TieredLru<PlanSet, MemoEntryCodec> lru_;

  /// Last-seen epoch per catalog identity; epoch_mu_ also serializes the
  /// flush an epoch change triggers.
  Mutex epoch_mu_;
  std::unordered_map<const void*, uint64_t> catalog_epochs_
      MOQO_GUARDED_BY(epoch_mu_);

  /// The memo's own cells; GetStats() overlays the TieredStats part from
  /// lru_.
  Stats stats_;
};

}  // namespace moqo

#endif  // MOQO_MEMO_SUBPLAN_MEMO_H_
