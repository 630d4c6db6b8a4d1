// Copyright (c) 2026 moqo authors. MIT license.
//
// DPPlanGenerator: the dynamic-programming engine shared by all optimizers
// (FindParetoPlans of Algorithms 1 and 2).
//
// It constructs plan sets for table sets of increasing cardinality; for
// each set it enumerates all ordered splits into two non-empty disjoint
// subsets (every split is one choice of operands for the last join), all
// applicable join operator configurations, and all combinations of stored
// sub-plans (Algorithm 1, lines 15-25). Pruning precision alpha
// distinguishes the EXA (alpha = 1) from the RTA (alpha = |Q|-th root of
// the user precision).
//
// Parallelism: table sets of cardinality k depend only on sets of
// cardinality < k, so each DP level is a parallel batch. With parallelism
// > 1 and a pool, a level runs on several slots (ThreadPool::ParallelFor
// participants) only when its memo-miss sets carry enough work: their
// summed candidate (left, right) pairs (SplitWorkProxy) must reach one
// constant, since fanning a few thousand pairs out costs more than it
// saves. A level that clears it goes one of two ways:
//
//  * Several memo-miss sets: each set is built by exactly one task, in
//    the serial split order, allocating surviving plans from a per-slot
//    scratch Arena, and the level seals at a barrier.
//  * One memo-miss set (the top level of every query): all slots build it
//    in rounds over its (split, left plan, right plan) stream, doubling in
//    size. The slots price contiguous chunks of a round and drop every
//    candidate the set as it stood at the round start rejects; the caller
//    then commits the survivors in candidate order, re-checking each only
//    against the rows kept in this round, and runs the round's deletions
//    at once (ParetoSet::Append / DeleteDominatedSince). This is exact: a
//    stored plan leaves a set only when a plain dominator q replaces it,
//    and q ⪯ p ⪯α c gives q ⪯α c, so every rejection by the round-start
//    set is a serial rejection too. Rounds pay off only when few
//    candidates survive the round-start set, so a set starts with one
//    serial round and runs each later round on all slots only while the
//    previous round's survivor ratio (its insert ratio, after a serial
//    round) stays under a constant. aggressive_delete, whose deletions are
//    approximate, never runs in rounds.
//
// Both ways run on the same per-slot state (arena, rejecter cache, counts,
// finish time; Slot below), sized once per Run(). After the build, one
// loop does every set's bookkeeping in level order and rebuilds the sets
// a deadline or single-plan mode left incomplete quickly. Either way,
// every table set's sealed frontier, `considered_plans` and
// `inserted_plans` are identical to the serial run's at any thread count,
// exact or approximate pruning alike.
//
// Cross-query subplan memo (PR 4): with DPOptions::subplan_memo set, the
// driver probes a shared SubplanMemo before building a table set, keyed by
// the set's canonical signature (memo/subplan_key.h). A hit prices the
// entry's candidates again from this run's sealed sub-frontiers, which the
// key fixes row for row, so it builds exactly the nodes a local build
// would; an entry whose rows do not fit is a miss. Each level's verdicts
// go to the memo's hit/miss counters (SubplanMemo::RecordProbes). Newly
// sealed sets are published back *after* the level barrier, on the
// caller thread, so in-flight tasks only ever read immutable memo state.
// Frontiers are byte-identical with the memo on or off.
//
// Postgres heuristics kept in place per Section 4: Cartesian-product splits
// are considered only for table sets where no predicate-connected split
// exists.
//
// Timeout handling per Section 5.1: when the deadline expires, the
// generator "finishes quickly by only generating one plan for all table
// sets that have not been treated so far" — remaining sets combine only the
// weighted-best sub-plans and store a single plan.

#ifndef MOQO_CORE_DP_DRIVER_H_
#define MOQO_CORE_DP_DRIVER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/pareto_set.h"
#include "memo/subplan_key.h"
#include "model/cost_model.h"
#include "util/arena.h"
#include "util/deadline.h"

namespace moqo {

struct MemoFrontier;
class SubplanMemo;
class ThreadPool;
class Tracer;

/// Knobs of one dynamic-programming run.
struct DPOptions {
  /// Internal pruning precision alpha_i; 1.0 = exact (EXA).
  double alpha = 1.0;
  /// Ablation only: also delete approximately dominated stored plans
  /// (destroys the near-optimality guarantee; Section 6.2).
  bool aggressive_delete = false;
  /// Consider bushy plans (paper default). false = left-deep only
  /// (right operand of every join is a base table) for the ablation bench.
  bool bushy = true;
  /// Consider Cartesian products only when no predicate-connected split
  /// exists (Postgres heuristic, Section 4).
  bool cartesian_heuristic = true;
  /// From the start, keep only the single weighted-best plan per table set.
  /// This degenerates the DP into the classic Selinger-style algorithm with
  /// the *weighted sum* as pruning metric — the heuristic that Example 1
  /// shows can be arbitrarily suboptimal. Used as an ablation baseline.
  bool single_plan_mode = false;
  /// Wall-clock budget; infinite by default.
  Deadline deadline;
  /// Weights used to pick the representative plan in timeout quick-mode /
  /// single-plan mode. Defaults to uniform when empty.
  WeightVector quick_mode_weights;
  /// Intra-query parallelism: cooperating threads per DP level (the caller
  /// counts as one). 1 = serial; > 1 requires `pool`. The result is
  /// independent of this value (see header comment).
  int parallelism = 1;
  /// Shared pool the level fan-out borrows helpers from; not owned. Null =
  /// serial regardless of `parallelism`.
  ThreadPool* pool = nullptr;
  /// Cross-query memo of sealed table-set frontiers, shared between runs
  /// and requests; not owned. Null = no cross-query reuse. Ignored in
  /// single_plan_mode (its per-set "frontier" depends on the weights) and
  /// for quick-mode (timed-out) sets, which are never published.
  SubplanMemo* subplan_memo = nullptr;
  /// Observability (PR 6): span recorder for per-level / per-set / memo
  /// spans; not owned, null = no tracing (the disabled path is one branch
  /// per level). `trace_id` correlates this run's spans with the request
  /// that issued it.
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
};

/// Counters and outcomes of one run, feeding the Figure 5/9/10 metrics.
struct DPStats {
  bool timed_out = false;
  /// Plans constructed and cost-evaluated (considered plans, Section 5.1).
  long considered_plans = 0;
  /// Plans that survived pruning at insertion time.
  long inserted_plans = 0;
  /// "#Pareto plans for the last table set that was treated completely".
  int last_complete_pareto_count = 0;
  TableSet last_complete_set;
  /// Table sets fully processed before the deadline.
  int complete_sets = 0;
  int total_sets = 0;
  /// Cross-query subplan memo traffic of this run (0 when no memo is
  /// attached): sets sealed from a memo entry, sets probed without a
  /// usable entry, and sets published after their level's barrier.
  long memo_hits = 0;
  long memo_misses = 0;
  long memo_publishes = 0;
  /// Fan-out attribution: DP levels that ran on several slots (across
  /// sets or in rounds), the rounds run on all slots, and the total time
  /// participating slots sat idle at barriers — at a level's end from each
  /// slot's last set; in a round from each slot's last chunk to the end of
  /// pricing (the caller) or of the round's commit (the helpers).
  int parallel_levels = 0;
  int parallel_rounds = 0;
  long barrier_wait_us = 0;
};

/// The DP engine. One instance per optimization run; plans live in the
/// provided arena (plus per-slot scratch arenas owned by the generator
/// when a run fans out).
class DPPlanGenerator {
 public:
  DPPlanGenerator(const CostModel* model, const OperatorRegistry* registry,
                  Arena* arena)
      : model_(model), registry_(registry), arena_(arena), query_(nullptr) {}

  /// Runs the DP over all non-empty subsets of the query's tables and
  /// returns the plan set for the full set. The returned reference is
  /// valid until the next Run() call.
  const ParetoSet& Run(const Query& query, const DPOptions& options);

  /// Plan set stored for `tables` (empty set if never built).
  const ParetoSet& SetFor(TableSet tables) const;

  const DPStats& stats() const { return stats_; }

  /// Memory metric: arena reservations (run arena + parallel slot arenas)
  /// plus plan-set container footprint.
  size_t MemoryBytes() const;

 private:
  void ProcessSingletons(const Query& query, const DPOptions& options);

  /// One ordered split with its precomputed plan-independent facts; in a
  /// candidate stream (StreamOf) also its operand frontiers and the number
  /// of (left plan, right plan) pairs of the splits ahead of it.
  struct Split {
    TableSet left;
    TableSet right;
    CostModel::SplitInfo info;
    const ParetoSet* left_plans = nullptr;
    const ParetoSet* right_plans = nullptr;
    uint64_t first_pair = 0;
  };

  /// A table set's candidate stream: its splits in enumeration order and
  /// the pairs of all of them.
  struct PairStream {
    std::vector<Split> splits;
    uint64_t pairs = 0;
  };

  /// Builds the plan set for `tables` into `set` on slot `slot` (its
  /// arena, rejecter cache, poll count and counts) and seals it. It runs
  /// in rounds of doubling size; with `slots` > 1 (the caller only, slot
  /// 0) a round may run on slots 0..slots-1 (see the header comment), kept
  /// plans allocated from the run arena. Returns false if the deadline
  /// expired mid-set (the caller discards the partial set and rebuilds it
  /// quickly).
  bool ProcessSetInto(const Query& query, TableSet tables,
                      const DPOptions& options, int slot, ParetoSet* set,
                      int slots = 1);

  /// Calls fn(config, left, right, operands, cost) for every applicable
  /// candidate of pairs [begin, end) of `stream`, in stream order. Returns
  /// false iff the deadline expired; `since_poll` carries the candidates
  /// since its last poll across calls.
  template <class Fn>
  bool PriceRange(const PairStream& stream, uint64_t begin, uint64_t end,
                  const Deadline& deadline, long* since_poll, Fn&& fn) const;

  /// One round of the rounds build: pairs [begin, end) of `stream` priced
  /// on `slots` slots against `set` as it stands, survivors committed in
  /// candidate order. Adds the round's counts to slot 0 and sets
  /// `*survivors` to the candidates the round-start set kept. Returns
  /// false iff the deadline expired.
  bool RunRound(const PairStream& stream, uint64_t begin, uint64_t end,
                const DPOptions& options, int slots, ParetoSet* set,
                long* survivors);

  /// Fans one level's memo-miss table sets (`work`, level indices) out
  /// over `slots` slots, one task per set (largest estimated sets first,
  /// to shorten the barrier tail), and sets `built[i]` for each set i
  /// built completely. `proxy[i]` is set i's SplitWorkProxy. Bookkeeping
  /// and quick rebuilds are left to the caller.
  void ProcessLevelParallel(const Query& query,
                            const std::vector<TableSet>& level,
                            const DPOptions& options, int slots,
                            std::vector<int> work,
                            const std::vector<uint64_t>& proxy,
                            std::vector<char>* built);

  /// Barrier-tail attribution, called as slots [first, last) go on after
  /// a level or a round, `now_us` on that fan-out's watch: each of them
  /// that finished a task since it last went on waited from then until
  /// now. Adds the waits to stats_ and the trace; clears the finish
  /// times.
  void CountBarrierWait(int first, int last, int64_t now_us,
                        const DPOptions& options);

  /// Seals memo_[tables] by pricing `entry`'s candidates from this run's
  /// sealed sub-frontiers, as PriceRange does. False, sealing nothing, if
  /// a row does not fit the set (see MemoFrontier).
  bool SealFromMemo(TableSet tables, const MemoFrontier& entry);

  /// The memo entry of the sealed set `tables`, read through row_of_.
  std::shared_ptr<const MemoFrontier> MemoEntryOf(TableSet tables) const;

  /// Records each plan's row of the sealed `set` in row_of_.
  void RecordRows(const ParetoSet& set);

  /// Estimated work of building `tables`: sum over its splits of |left
  /// frontier| * |right frontier|, the (left, right) pairs each priced
  /// under every join config. Cheap (frontiers of lower levels are sealed)
  /// and only a *scheduling* input — results never depend on it.
  uint64_t SplitWorkProxy(TableSet tables, const DPOptions& options) const;

  /// Quick mode: single weighted-best plan for `tables`.
  void ProcessSetQuick(const Query& query, TableSet tables,
                       const DPOptions& options);

  /// Ordered splits of `tables` honouring the Cartesian heuristic and the
  /// bushy/left-deep switch, with SplitInfo computed once per split.
  std::vector<Split> SplitsOf(const Query& query, TableSet tables,
                              const DPOptions& options) const;

  /// SplitsOf(tables) with their operand frontiers and pair offsets.
  PairStream StreamOf(const Query& query, TableSet tables,
                      const DPOptions& options) const;

  WeightVector EffectiveWeights(const DPOptions& options) const;

  const CostModel* model_;
  const OperatorRegistry* registry_;
  Arena* arena_;
  /// One fan-out slot (a ThreadPool::ParallelFor participant; slot 0 is
  /// the caller), on its own cache lines. The same slots serve the
  /// across-set and the rounds fan-out.
  struct alignas(64) Slot {
    /// A helper slot's plan arena (slot 0 allocates from the run arena);
    /// its plans live until the next Run().
    std::unique_ptr<Arena> arena;
    /// Valid for the set the slot is building or pricing.
    ParetoSet::Rejecters rejecters;
    /// Candidates since the slot's last deadline poll.
    long since_poll = 0;
    /// Plans considered and inserted, added to stats_ after each level.
    long considered = 0;
    long inserted = 0;
    /// When the slot finished its last task (a set or a round's chunk), in
    /// us on the fan-out's watch; -1 = none since the last barrier.
    int64_t last_finish_us = -1;
  };
  /// Sized once per Run(): min(parallelism, pool threads + 1) slots when
  /// the run may fan out, else one.
  std::vector<Slot> slots_;
  /// A round's survivor buffers, one per chunk, grown on first use and
  /// reused by every later round.
  struct alignas(64) RoundChunk {
    std::vector<PlanNode> survivors;
    long considered = 0;
  };
  std::vector<RoundChunk> round_chunks_;
  const Query* query_;
  std::unordered_map<uint64_t, ParetoSet> memo_;
  /// Each complete set's plans -> their rows in it; filled only when a
  /// subplan memo is attached, to name a published candidate's operands.
  std::unordered_map<const PlanNode*, uint32_t> row_of_;
  /// Canonical-signature builder of the current run; set iff a subplan
  /// memo is attached and active.
  std::unique_ptr<SubplanKeyContext> key_context_;
  DPStats stats_;
  ParetoSet empty_set_;
};

}  // namespace moqo

#endif  // MOQO_CORE_DP_DRIVER_H_
