#include "core/dp_driver.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>

#include "memo/subplan_memo.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace moqo {

namespace {

// Deadline polls are amortized over this many candidate evaluations so the
// steady-state cost of timeout support is one branch per candidate.
constexpr long kDeadlinePollInterval = 4096;

// The fan-out gate: a level runs on several slots only when its memo-miss
// sets' summed SplitWorkProxy pairs reach this. A pair costs about 0.45 us
// to price and check (TPC-H, six objectives, bench operator space, 4-vCPU
// AVX-512F host), so the smallest level that fans out holds about 1 ms of
// work. Over all 84 six-of-nine objective subsets at alpha 1.5, the
// largest level of a three- or four-table TPC-H query has 1,892 pairs, so
// those stay serial; Q2 (five tables) fans out on 22 subsets, Q5/Q7/Q9 on
// 56-79, Q8 on 83. In interleaved runs on that host (Q3, Q10, Q2, Q5,
// Q7, Q9 and Q8, three objective subsets each, four slots), gates of
// 1,024, 2,048, 4,096 and 8,192 pairs ran 1.18x, 1.12x, 1.09x and 0.87x
// as fast as fanning out every level with several sets; 2,048 is the
// smallest that keeps every four-table spec serial.
constexpr uint64_t kMinFanOutPairs = 2048;

// Rounds: the first round covers this many pairs, each later one twice the
// one before, so a set's early rounds, where most of its plans are kept,
// stay small. Starting at 512 pairs instead was within noise (interleaved
// runs of the TPC-H Q2/Q5/Q7/Q9/Q8 DP).
constexpr uint64_t kFirstRoundPairs = 64;

// The entry rule: a round runs on all slots only when at most this share
// of the previous round's candidates survived its round-start set. The
// caller commits survivors alone, so a round pays off only while they are
// few: on the TPC-H specs of the five- to eight-table queries, 2.5% of the
// candidates priced in rounds survived and 0.34% were kept, and the commit
// (with its deletion pass) took 0.27 s against 1.5 s of parallel pricing.
// A chain-12 round (three objectives, alpha 1.05) in which 44% survived ran
// slower on four slots than serially.
constexpr double kMaxRoundSurvivorShare = 0.10;

// Chunks per slot in a round, so slots that price faster take more. On a
// 4-vCPU host with steal, in interleaved runs of the TPC-H Q2/Q5/Q7/Q9/Q8
// DP, 8 chunks per slot beat 4 in 13 of 16 runs (median 218 vs 238 ms);
// 16 were no better than 8.
constexpr int kChunksPerSlot = 8;

}  // namespace

const ParetoSet& DPPlanGenerator::Run(const Query& query,
                                      const DPOptions& options) {
  query_ = &query;
  memo_.clear();
  row_of_.clear();
  stats_ = DPStats();

  const TableSet all = query.AllTables();
  const int n = query.num_tables();
  stats_.total_sets = (1 << n) - 1;

  // With a connected join graph, the Cartesian-product heuristic implies
  // that table sets inducing a disconnected subgraph are never needed: any
  // plan for such a set must contain a Cartesian product while predicate-
  // connected alternatives exist at every DP level (Postgres behaviour).
  const bool skip_disconnected =
      options.cartesian_heuristic && query.JoinGraphConnected();
  const bool parallel = options.parallelism > 1 && options.pool != nullptr &&
                        !options.single_plan_mode;

  // The slots, sized here and never during a level: tasks hold references
  // into them. Slots beyond the pool's helpers + the caller can never run,
  // so cap there: parallelism is request-supplied and must not size
  // allocations. Fresh slots release the previous run's helper arenas.
  slots_.clear();
  slots_.resize(parallel ? std::min(options.parallelism,
                                    options.pool->num_threads() + 1)
                         : 1);
  for (size_t s = 1; s < slots_.size(); ++s) {
    slots_[s].arena = std::make_unique<Arena>();
  }

  // Cross-query memo: single_plan_mode is excluded (its per-set output
  // depends on the request's weights, not just the sub-problem). The key
  // context encodes everything a table set's frontier depends on,
  // including skip_disconnected — it changes which splits have sub-plans.
  SubplanMemo* shared_memo =
      options.single_plan_mode ? nullptr : options.subplan_memo;
  key_context_.reset();
  if (shared_memo != nullptr) {
    key_context_ = std::make_unique<SubplanKeyContext>(
        query, model_->objectives(), options.alpha, registry_->options(),
        options.bushy, options.cartesian_heuristic, options.aggressive_delete,
        skip_disconnected);
  }

  ProcessSingletons(query, options);
  for (int k = 2; k <= n; ++k) {
    std::vector<TableSet> level;
    for (TableSet tables : SubsetsOfSize(all, k)) {
      if (skip_disconnected && !query.InducedSubgraphConnected(tables)) {
        --stats_.total_sets;
        continue;
      }
      level.push_back(tables);
    }
    if (level.empty()) continue;

    TraceSpan level_span(options.tracer, "dp", "dp.level", options.trace_id);
    level_span.AddArg("tables", k);
    level_span.AddArg("sets", static_cast<int64_t>(level.size()));

    // Memo probe, on the caller thread before any of this level's sets is
    // built: hits seal their entry from the memo entry's candidates;
    // misses remember their signature so publish-after-seal below needs no
    // re-encoding. Probing is skipped once the run is in quick mode —
    // quick-mode sets are weight-dependent and must not come from (or go
    // into) the memo.
    std::vector<char> from_memo(level.size(), 0);
    std::vector<SubplanSignature> signatures;
    const bool memo_level = shared_memo != nullptr &&
                            k >= shared_memo->min_tables() &&
                            !stats_.timed_out && !options.deadline.Expired();
    if (memo_level) {
      TraceSpan probe_span(options.tracer, "memo", "memo.probe",
                           options.trace_id);
      const long hits_before = stats_.memo_hits;
      const long misses_before = stats_.memo_misses;
      probe_span.AddArg("probes", static_cast<int64_t>(level.size()));
      signatures.resize(level.size());
      for (size_t i = 0; i < level.size(); ++i) {
        // Per-set deadline poll: signature encoding and hit
        // pricing are real work, and an expired run must fall to
        // quick mode as promptly as the build loops do. Expiry is
        // monotone, so the processing loops below see it too; un-probed
        // sets simply stay misses (their `built` flag can never be set,
        // so the publish loop skips their empty signatures).
        if (options.deadline.Expired()) break;
        signatures[i] = key_context_->SignatureFor(level[i]);
        // An entry whose rows do not fit this run (only a restored or
        // promoted record can) is a miss: the set is rebuilt and its
        // publish replaces the entry.
        const std::shared_ptr<const MemoFrontier> entry =
            shared_memo->Lookup(signatures[i]);
        if (entry != nullptr && SealFromMemo(level[i], *entry)) {
          from_memo[i] = 1;
          ++stats_.memo_hits;
        } else {
          ++stats_.memo_misses;
        }
      }
      probe_span.AddArg("hits", stats_.memo_hits - hits_before);
      shared_memo->RecordProbes(stats_.memo_hits - hits_before,
                                stats_.memo_misses - misses_before);
    }

    // The fan-out gate: the memo-miss sets' summed candidate pairs.
    int slots = 1;
    std::vector<int> work;
    std::vector<uint64_t> proxy;
    if (slots_.size() > 1 && !stats_.timed_out &&
        !options.deadline.Expired()) {
      proxy.assign(level.size(), 0);
      uint64_t level_pairs = 0;
      for (size_t i = 0; i < level.size(); ++i) {
        if (from_memo[i]) continue;
        work.push_back(static_cast<int>(i));
        proxy[i] = SplitWorkProxy(level[i], options);
        level_pairs += proxy[i];
      }
      if (level_pairs >= kMinFanOutPairs) {
        slots = static_cast<int>(slots_.size());
      }
    }

    // The build: `built[i]` marks the sets built completely by this run.
    std::vector<char> built(level.size(), 0);
    if (slots > 1 && work.size() > 1) {
      ProcessLevelParallel(query, level, options, slots, std::move(work),
                           proxy, &built);
    } else {
      // At most one memo-miss set here when slots > 1: it builds in rounds.
      const int set_slots = options.aggressive_delete ? 1 : slots;
      const int rounds_before = stats_.parallel_rounds;
      for (size_t i = 0; i < level.size(); ++i) {
        if (from_memo[i]) continue;
        // After an expiry, the sets left are rebuilt quickly below.
        if (stats_.timed_out || options.deadline.Expired() ||
            options.single_plan_mode) {
          break;
        }
        built[i] = ProcessSetInto(query, level[i], options, /*slot=*/0,
                                  &memo_[level[i].mask()], set_slots);
        if (!built[i]) stats_.timed_out = true;
      }
      if (stats_.parallel_rounds > rounds_before) ++stats_.parallel_levels;
    }
    for (Slot& slot : slots_) {
      stats_.considered_plans += slot.considered;
      stats_.inserted_plans += slot.inserted;
      slot.considered = 0;
      slot.inserted = 0;
    }

    // Seal bookkeeping, in level order (so the "last complete set" matches
    // the serial engine's): a memo hit or a complete build is complete;
    // any other set — single-plan mode, or one a deadline interrupted or
    // pre-empted — gets its one quick plan.
    for (size_t i = 0; i < level.size(); ++i) {
      if (from_memo[i] || built[i]) {
        ++stats_.complete_sets;
        stats_.last_complete_set = level[i];
        stats_.last_complete_pareto_count = SetFor(level[i]).size();
        if (shared_memo != nullptr) RecordRows(SetFor(level[i]));
      } else {
        if (!options.single_plan_mode) stats_.timed_out = true;
        ProcessSetQuick(query, level[i], options);
      }
    }

    // Publish-after-seal: every set built completely by THIS run (never
    // re-published hits, never quick-mode rebuilds) is offered to the
    // memo as its candidates in the set's dense-rank space. Running after
    // the level barrier on the caller thread keeps the parallel batch free
    // of shared-structure writes.
    if (memo_level) {
      TraceSpan publish_span(options.tracer, "memo", "memo.publish",
                             options.trace_id);
      const long publishes_before = stats_.memo_publishes;
      for (size_t i = 0; i < level.size(); ++i) {
        if (!built[i] || SetFor(level[i]).empty()) continue;
        shared_memo->Insert(signatures[i], MemoEntryOf(level[i]));
        ++stats_.memo_publishes;
      }
      publish_span.AddArg("publishes",
                          stats_.memo_publishes - publishes_before);
    }
  }
  return SetFor(all);
}

bool DPPlanGenerator::SealFromMemo(TableSet tables,
                                   const MemoFrontier& entry) {
  const std::vector<int> members = tables.Members();
  const uint64_t all_ranks =
      TableSet::Prefix(static_cast<int>(members.size())).mask();
  std::vector<const PlanNode*> plans;
  plans.reserve(entry.rows.size());
  // A split's rows are adjacent (the DP keeps candidates in split order),
  // so each split is analyzed once, as in PriceRange.
  uint64_t split_ranks = 0;
  const ParetoSet* left_plans = nullptr;
  const ParetoSet* right_plans = nullptr;
  CostModel::SplitInfo info;
  for (const MemoFrontier::Row& row : entry.rows) {
    if (row.left_ranks == 0 || (row.left_ranks & ~all_ranks) != 0 ||
        row.left_ranks == all_ranks) {
      return false;
    }
    if (row.left_ranks != split_ranks) {
      split_ranks = row.left_ranks;
      TableSet left;
      for (size_t r = 0; r < members.size(); ++r) {
        if ((split_ranks >> r) & 1) left = left.With(members[r]);
      }
      const TableSet right = tables.Minus(left);
      left_plans = &SetFor(left);
      right_plans = &SetFor(right);
      info = model_->AnalyzeSplit(left, right);
    }
    if (row.left_row >= static_cast<uint32_t>(left_plans->size()) ||
        row.right_row >= static_cast<uint32_t>(right_plans->size()) ||
        row.op_config < 0 || row.op_config >= registry_->num_configs()) {
      return false;
    }
    const OperatorConfig& op = registry_->config(row.op_config);
    if (op.IsScan() || !model_->JoinApplicableFast(op, info)) return false;
    const PlanNode* left = left_plans->at(static_cast<int>(row.left_row));
    const PlanNode* right = right_plans->at(static_cast<int>(row.right_row));
    const CostModel::JoinOperands operands =
        model_->Operands(*left, *right, info);
    plans.push_back(arena_->New<PlanNode>(
        model_->JoinNode(row.op_config, left, right, operands,
                         model_->CombineJoinCost(op, operands))));
  }
  memo_[tables.mask()].LoadSealed(plans);
  return true;
}

std::shared_ptr<const MemoFrontier> DPPlanGenerator::MemoEntryOf(
    TableSet tables) const {
  const std::vector<int> members = tables.Members();
  const ParetoSet& set = SetFor(tables);
  // Every operand of a complete set is a row of a sealed subset, recorded
  // when that subset sealed.
  const auto row_of = [this](const PlanNode* operand) {
    const auto it = row_of_.find(operand);
    assert(it != row_of_.end());
    return it->second;
  };
  auto entry = std::make_shared<MemoFrontier>();
  entry->rows.reserve(set.size());
  for (int i = 0; i < set.size(); ++i) {
    const PlanNode* plan = set.at(i);
    uint64_t left_ranks = 0;
    for (size_t r = 0; r < members.size(); ++r) {
      if (plan->left->tables.Contains(members[r])) {
        left_ranks |= uint64_t{1} << r;
      }
    }
    entry->rows.push_back({plan->op_config, row_of(plan->left),
                           row_of(plan->right), left_ranks});
  }
  return entry;
}

void DPPlanGenerator::RecordRows(const ParetoSet& set) {
  for (int i = 0; i < set.size(); ++i) {
    row_of_.emplace(set.at(i), static_cast<uint32_t>(i));
  }
}

uint64_t DPPlanGenerator::SplitWorkProxy(TableSet tables,
                                         const DPOptions& options) const {
  uint64_t work = 0;
  for (SubsetIterator it(tables); !it.Done(); it.Next()) {
    if (!options.bushy && it.Complement().Cardinality() != 1) continue;
    work += static_cast<uint64_t>(SetFor(it.Current()).size()) *
            static_cast<uint64_t>(SetFor(it.Complement()).size());
  }
  return work;
}

void DPPlanGenerator::ProcessLevelParallel(const Query& query,
                                           const std::vector<TableSet>& level,
                                           const DPOptions& options, int slots,
                                           std::vector<int> work,
                                           const std::vector<uint64_t>& proxy,
                                           std::vector<char>* built) {
  // Create this level's memo entries up front, on this thread: tasks then
  // only *read* the map (lower levels via SetFor, their own output through
  // these pointers, which unordered_map keeps stable), so the batch never
  // mutates shared structure. Memo-hit entries already exist and are
  // sealed; operator[] just returns them.
  std::vector<ParetoSet*> outputs;
  outputs.reserve(level.size());
  for (TableSet tables : level) outputs.push_back(&memo_[tables.mask()]);

  // Work list: the memo-miss sets, largest estimated work first. The level
  // ends at a barrier, so a huge set claimed last would serialize the tail
  // behind one thread; issuing big sets first lets the small ones pack the
  // stragglers. Stable sort on the precomputed proxy keeps the schedule
  // deterministic (results never depend on it — one task per set).
  std::stable_sort(work.begin(), work.end(), [&proxy](int a, int b) {
    return proxy[a] > proxy[b];
  });

  std::atomic<bool> expired{false};
  StopWatch level_watch;
  const auto level_us = [&level_watch] {
    return static_cast<int64_t>(level_watch.ElapsedMillis() * 1000.0);
  };

  // ParallelFor guarantees slot values are distinct across concurrent
  // participants, so each task writes only its own slot and its own set's
  // `built` entry.
  options.pool->ParallelFor(
      static_cast<int>(work.size()), slots - 1, [&](int wi, int slot) {
        // After the first expiry, unstarted sets are left for the quick
        // rebuild — the Section 5.1 behaviour.
        if (expired.load(std::memory_order_relaxed)) return;
        const int index = work[wi];
        TraceSpan set_span(options.tracer, "dp", "dp.set", options.trace_id);
        set_span.AddArg("tables", level[index].Cardinality());
        set_span.AddArg("split_work", static_cast<int64_t>(proxy[index]));
        if (ProcessSetInto(query, level[index], options, slot,
                           outputs[index])) {
          (*built)[index] = 1;
        } else {
          expired.store(true, std::memory_order_relaxed);
        }
        slots_[slot].last_finish_us = level_us();
      });

  CountBarrierWait(0, slots, level_us(), options);
  ++stats_.parallel_levels;
  if (expired.load(std::memory_order_relaxed)) stats_.timed_out = true;
}

void DPPlanGenerator::CountBarrierWait(int first, int last, int64_t now_us,
                                       const DPOptions& options) {
  // The sum is the fan-out's load-imbalance cost (ROADMAP: work stealing).
  for (int s = first; s < last; ++s) {
    Slot& slot = slots_[s];
    if (slot.last_finish_us < 0) continue;
    const int64_t wait_us = now_us - slot.last_finish_us;
    slot.last_finish_us = -1;
    stats_.barrier_wait_us += wait_us;
    if (options.tracer != nullptr) {
      options.tracer->RecordEndingNow("dp", "dp.barrier_wait",
                                      options.trace_id, wait_us, "wait_us",
                                      wait_us);
    }
  }
}

const ParetoSet& DPPlanGenerator::SetFor(TableSet tables) const {
  auto it = memo_.find(tables.mask());
  return it != memo_.end() ? it->second : empty_set_;
}

size_t DPPlanGenerator::MemoryBytes() const {
  size_t bytes = arena_->reserved_bytes();
  for (const Slot& slot : slots_) {
    if (slot.arena != nullptr) bytes += slot.arena->reserved_bytes();
  }
  for (const auto& [mask, set] : memo_) {
    bytes += set.MemoryBytes() + sizeof(mask);
  }
  return bytes;
}

WeightVector DPPlanGenerator::EffectiveWeights(
    const DPOptions& options) const {
  if (options.quick_mode_weights.size() == model_->objectives().size()) {
    return options.quick_mode_weights;
  }
  return WeightVector::Uniform(model_->objectives().size());
}

void DPPlanGenerator::ProcessSingletons(const Query& query,
                                        const DPOptions& options) {
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  const WeightVector weights = EffectiveWeights(options);
  for (int table = 0; table < query.num_tables(); ++table) {
    ParetoSet& set = memo_[TableSet::Singleton(table).mask()];
    if (options.single_plan_mode) {
      // Keep only the weighted-best access path.
      PlanNode best;
      double best_cost = std::numeric_limits<double>::infinity();
      for (int config : registry_->scan_configs()) {
        if (!model_->ScanApplicable(config, table)) continue;
        PlanNode candidate = model_->ScanNode(config, table);
        ++stats_.considered_plans;
        const double weighted = weights.WeightedCost(candidate.cost);
        if (weighted < best_cost) {
          best_cost = weighted;
          best = candidate;
        }
      }
      if (best_cost < std::numeric_limits<double>::infinity()) {
        set.Prune(arena_->New<PlanNode>(best), ParetoSet::PruneOptions());
        ++stats_.inserted_plans;
      }
    } else {
      for (int config : registry_->scan_configs()) {
        if (!model_->ScanApplicable(config, table)) continue;
        PlanNode candidate = model_->ScanNode(config, table);
        ++stats_.considered_plans;
        if (set.WouldInsert(candidate.cost, prune)) {
          set.Insert(arena_->New<PlanNode>(candidate), prune);
          ++stats_.inserted_plans;
        }
      }
    }
    set.Seal();
    if (key_context_ != nullptr) RecordRows(set);
    ++stats_.complete_sets;
    stats_.last_complete_set = TableSet::Singleton(table);
    stats_.last_complete_pareto_count = set.size();
  }
}

std::vector<DPPlanGenerator::Split> DPPlanGenerator::SplitsOf(
    const Query& query, TableSet tables, const DPOptions& options) const {
  (void)query;
  std::vector<Split> connected;
  std::vector<Split> all;
  for (SubsetIterator it(tables); !it.Done(); it.Next()) {
    const TableSet left = it.Current();
    const TableSet right = it.Complement();
    if (!options.bushy && right.Cardinality() != 1) continue;
    Split split{left, right, model_->AnalyzeSplit(left, right)};
    if (options.cartesian_heuristic && split.info.has_predicate) {
      connected.push_back(split);
    }
    all.push_back(split);
  }
  if (options.cartesian_heuristic && !connected.empty()) return connected;
  return all;
}

DPPlanGenerator::PairStream DPPlanGenerator::StreamOf(
    const Query& query, TableSet tables, const DPOptions& options) const {
  PairStream stream;
  stream.splits = SplitsOf(query, tables, options);
  for (Split& split : stream.splits) {
    split.left_plans = &SetFor(split.left);
    split.right_plans = &SetFor(split.right);
    split.first_pair = stream.pairs;
    stream.pairs += static_cast<uint64_t>(split.left_plans->size()) *
                    static_cast<uint64_t>(split.right_plans->size());
  }
  return stream;
}

template <class Fn>
bool DPPlanGenerator::PriceRange(const PairStream& stream, uint64_t begin,
                                 uint64_t end, const Deadline& deadline,
                                 long* since_poll, Fn&& fn) const {
  const std::vector<Split>& splits = stream.splits;
  // The split holding pair `begin`: the last one starting at or before it
  // (splits without pairs start where their successor does).
  size_t s = std::upper_bound(splits.begin(), splits.end(), begin,
                              [](uint64_t pair, const Split& split) {
                                return pair < split.first_pair;
                              }) -
             splits.begin() - 1;
  long polled = *since_poll;
  for (uint64_t pair = begin; pair < end; ++s) {
    const Split& split = splits[s];
    const uint64_t split_end = std::min(
        end, s + 1 < splits.size() ? splits[s + 1].first_pair : stream.pairs);
    if (pair >= split_end) continue;
    const ParetoSet& left_plans = *split.left_plans;
    const ParetoSet& right_plans = *split.right_plans;
    const uint64_t width = static_cast<uint64_t>(right_plans.size());
    int li = static_cast<int>((pair - split.first_pair) / width);
    int ri = static_cast<int>((pair - split.first_pair) % width);
    for (; pair < split_end; ++pair) {
      const PlanNode* left = left_plans.at(li);
      const PlanNode* right = right_plans.at(ri);
      // One set of operand terms per pair, shared by its join configs; a
      // candidate is priced on the stack and becomes a node only if the
      // set keeps it.
      const CostModel::JoinOperands operands =
          model_->Operands(*left, *right, split.info);
      for (int config : registry_->join_configs()) {
        if (++polled >= kDeadlinePollInterval) {
          polled = 0;
          if (deadline.Expired()) return false;
        }
        const OperatorConfig& op = registry_->config(config);
        if (!model_->JoinApplicableFast(op, split.info)) continue;
        fn(config, left, right, operands,
           model_->CombineJoinCost(op, operands));
      }
      if (++ri == static_cast<int>(width)) {
        ri = 0;
        ++li;
      }
    }
  }
  *since_poll = polled;
  return true;
}

bool DPPlanGenerator::ProcessSetInto(const Query& query, TableSet tables,
                                     const DPOptions& options, int slot_index,
                                     ParetoSet* set, int slots) {
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  const PairStream stream = StreamOf(query, tables, options);
  Slot& slot = slots_[slot_index];
  Arena* arena = slot_index == 0 ? arena_ : slot.arena.get();
  // A rejecter cache is valid for one set only.
  for (int s = slot_index; s < slot_index + slots; ++s) {
    slots_[s].rejecters = {};
  }
  const auto insert = [&](int config, const PlanNode* left,
                          const PlanNode* right,
                          const CostModel::JoinOperands& operands,
                          const CostVector& cost) {
    ++slot.considered;
    if (set->WouldInsert(cost, prune, &slot.rejecters)) {
      set->Insert(arena->New<PlanNode>(
                      model_->JoinNode(config, left, right, operands, cost)),
                  prune);
      ++slot.inserted;
    }
  };

  // Rounds of doubling size, each on this slot alone or, when the entry
  // rule holds, on all `slots`.
  bool on_all_slots = false;
  uint64_t size = kFirstRoundPairs;
  for (uint64_t begin = 0; begin < stream.pairs; begin += size, size *= 2) {
    const uint64_t end = std::min(stream.pairs, begin + size);
    const long considered_before = slot.considered;
    const long inserted_before = slot.inserted;
    long survivors = 0;
    if (on_all_slots
            ? !RunRound(stream, begin, end, options, slots, set, &survivors)
            : !PriceRange(stream, begin, end, options.deadline,
                          &slot.since_poll, insert)) {
      return false;
    }
    // Every candidate a serial round inserts survived the set as it stood,
    // so its insert count stands in for the survivor count.
    if (!on_all_slots) survivors = slot.inserted - inserted_before;
    on_all_slots = slots > 1 && survivors <= kMaxRoundSurvivorShare *
                                                 (slot.considered -
                                                  considered_before);
  }
  set->Seal();
  return true;
}

bool DPPlanGenerator::RunRound(const PairStream& stream, uint64_t begin,
                               uint64_t end, const DPOptions& options,
                               int slots, ParetoSet* set, long* survivors) {
  TraceSpan round_span(options.tracer, "dp", "dp.round", options.trace_id);
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  const int chunks = static_cast<int>(
      std::min<uint64_t>(end - begin, static_cast<uint64_t>(slots) *
                                          kChunksPerSlot));
  round_chunks_.resize(std::max(round_chunks_.size(),
                                static_cast<size_t>(chunks)));
  std::atomic<bool> expired{false};
  StopWatch round_watch;
  const auto round_us = [&round_watch] {
    return static_cast<int64_t>(round_watch.ElapsedMillis() * 1000.0);
  };

  // Pricing: each chunk keeps, in candidate order, the candidates the set
  // as it stands does not reject. Nothing writes the set meanwhile, and
  // each slot checks through its own rejecter cache.
  options.pool->ParallelFor(chunks, slots - 1, [&](int c, int s) {
    RoundChunk& chunk = round_chunks_[c];
    chunk.survivors.clear();
    chunk.considered = 0;
    if (expired.load(std::memory_order_relaxed)) return;
    Slot& slot = slots_[s];
    const uint64_t chunk_begin = begin + (end - begin) * c / chunks;
    const uint64_t chunk_end = begin + (end - begin) * (c + 1) / chunks;
    const bool priced = PriceRange(
        stream, chunk_begin, chunk_end, options.deadline, &slot.since_poll,
        [&](int config, const PlanNode* left, const PlanNode* right,
            const CostModel::JoinOperands& operands, const CostVector& cost) {
          ++chunk.considered;
          if (set->WouldInsert(cost, prune, &slot.rejecters)) {
            chunk.survivors.push_back(
                model_->JoinNode(config, left, right, operands, cost));
          }
        });
    if (!priced) expired.store(true, std::memory_order_relaxed);
    slot.last_finish_us = round_us();
  });
  // Idle slot time: the caller waits from its last chunk until pricing
  // ends; the helpers until the commit ends, or, after an expiry (the
  // caller then discards the set), until pricing ends too.
  const bool in_time = !expired.load(std::memory_order_relaxed);
  CountBarrierWait(0, in_time ? 1 : slots, round_us(), options);
  if (!in_time) return false;

  // Commit, in candidate order: a survivor is rejected serially iff a row
  // kept earlier in this round rejects it, and the round's deletions run
  // once at its end.
  const int mark = set->row_count();
  long round_considered = 0;
  long round_survivors = 0;
  long kept = 0;
  for (int c = 0; c < chunks; ++c) {
    const RoundChunk& chunk = round_chunks_[c];
    round_considered += chunk.considered;
    round_survivors += static_cast<long>(chunk.survivors.size());
    for (const PlanNode& node : chunk.survivors) {
      if (!set->WouldInsert(node.cost, prune, nullptr, mark)) continue;
      set->Append(arena_->New<PlanNode>(node));
      ++kept;
    }
  }
  set->DeleteDominatedSince(mark, prune);

  CountBarrierWait(1, slots, round_us(), options);
  slots_[0].considered += round_considered;
  slots_[0].inserted += kept;
  ++stats_.parallel_rounds;
  *survivors = round_survivors;
  round_span.AddArg("pairs", static_cast<int64_t>(end - begin));
  round_span.AddArg("survivors", round_survivors);
  return true;
}

void DPPlanGenerator::ProcessSetQuick(const Query& query, TableSet tables,
                                      const DPOptions& options) {
  const WeightVector weights = EffectiveWeights(options);
  ParetoSet& set = memo_[tables.mask()];
  set.clear();
  PlanNode best;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Split& split : SplitsOf(query, tables, options)) {
    const PlanNode* left = SetFor(split.left).SelectBestWeighted(weights);
    const PlanNode* right = SetFor(split.right).SelectBestWeighted(weights);
    if (left == nullptr || right == nullptr) continue;
    const CostModel::JoinOperands operands =
        model_->Operands(*left, *right, split.info);
    for (int config : registry_->join_configs()) {
      const OperatorConfig& op = registry_->config(config);
      if (!model_->JoinApplicableFast(op, split.info)) continue;
      const CostVector cost = model_->CombineJoinCost(op, operands);
      ++stats_.considered_plans;
      const double weighted = weights.WeightedCost(cost);
      if (weighted < best_cost) {
        best_cost = weighted;
        best = model_->JoinNode(config, left, right, operands, cost);
      }
    }
  }
  if (best_cost < std::numeric_limits<double>::infinity()) {
    set.Prune(arena_->New<PlanNode>(best), ParetoSet::PruneOptions());
    ++stats_.inserted_plans;
  }
}

}  // namespace moqo
