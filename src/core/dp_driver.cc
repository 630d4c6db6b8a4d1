#include "core/dp_driver.h"

#include <algorithm>
#include <atomic>
#include <limits>

#include "core/plan_set.h"
#include "memo/subplan_memo.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace moqo {

namespace {

// Deadline polls are amortized over this many candidate evaluations so the
// steady-state cost of timeout support is one branch per candidate.
constexpr long kDeadlinePollInterval = 4096;

}  // namespace

const ParetoSet& DPPlanGenerator::Run(const Query& query,
                                      const DPOptions& options) {
  query_ = &query;
  memo_.clear();
  slot_arenas_.clear();
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
    // built: hits seal their entry directly from the shared snapshot;
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
      probe_span.AddArg("probes", static_cast<int64_t>(level.size()));
      signatures.resize(level.size());
      for (size_t i = 0; i < level.size(); ++i) {
        // Per-set deadline poll: signature encoding and hit
        // materialization are real work, and an expired run must fall to
        // quick mode as promptly as the build loops do. Expiry is
        // monotone, so the processing loops below see it too; un-probed
        // sets simply stay misses (their `built` flag can never be set,
        // so the publish loop skips their empty signatures).
        if (options.deadline.Expired()) break;
        signatures[i] = key_context_->SignatureFor(level[i]);
        const std::shared_ptr<const PlanSet> entry =
            shared_memo->Lookup(signatures[i]);
        // An entry's plans must join exactly the set's dense ranks
        // 0..k-1, the space MaterializeFromMemo maps back to local
        // indices. The DP's own publishes always do; a restored or
        // promoted entry was only checked for internal consistency at
        // decode, so one over other ranks is a miss: the set is rebuilt
        // and its publish replaces the entry.
        if (entry != nullptr && !entry->empty() &&
            entry->plan(0)->tables == TableSet::Prefix(k)) {
          MaterializeFromMemo(level[i], *entry);
          from_memo[i] = 1;
          ++stats_.memo_hits;
        } else {
          ++stats_.memo_misses;
        }
      }
      probe_span.AddArg("hits", stats_.memo_hits - hits_before);
    }

    std::vector<char> built(level.size(), 0);
    if (parallel && level.size() > 1 && !stats_.timed_out &&
        !options.deadline.Expired()) {
      ProcessLevelParallel(query, level, options, from_memo, &built);
    } else {
      for (size_t i = 0; i < level.size(); ++i) {
        const TableSet tables = level[i];
        if (from_memo[i]) {
          // Sealed from the memo during the probe; only bookkeeping is
          // left, in level order like a local build's.
          ++stats_.complete_sets;
          stats_.last_complete_set = tables;
          stats_.last_complete_pareto_count = SetFor(tables).size();
          continue;
        }
        if (stats_.timed_out || options.deadline.Expired() ||
            options.single_plan_mode) {
          if (!options.single_plan_mode) stats_.timed_out = true;
          ProcessSetQuick(query, tables, options);
          continue;
        }
        ParetoSet& set = memo_[tables.mask()];
        if (ProcessSetInto(query, tables, options, arena_, &set, &stats_)) {
          built[i] = 1;
          ++stats_.complete_sets;
          stats_.last_complete_set = tables;
          stats_.last_complete_pareto_count = set.size();
        } else {
          // Deadline hit mid-set: discard the partial result and rebuild
          // this set (and all remaining ones) in quick mode.
          stats_.timed_out = true;
          set.clear();
          ProcessSetQuick(query, tables, options);
        }
      }
    }

    // Publish-after-seal: every set built completely by THIS run (never
    // re-published hits, never quick-mode rebuilds) is offered to the
    // memo, rebased into its canonical dense-rank space. Running after the
    // level barrier on the caller thread keeps the parallel batch free of
    // shared-structure writes.
    if (memo_level) {
      TraceSpan publish_span(options.tracer, "memo", "memo.publish",
                             options.trace_id);
      const long publishes_before = stats_.memo_publishes;
      for (size_t i = 0; i < level.size(); ++i) {
        if (!built[i]) continue;
        const ParetoSet& set = SetFor(level[i]);
        if (!shared_memo->Admits(set, options.alpha)) continue;
        std::vector<int> local_to_rank(query.num_tables(), -1);
        const std::vector<int> members = level[i].Members();
        for (size_t r = 0; r < members.size(); ++r) {
          local_to_rank[members[r]] = static_cast<int>(r);
        }
        shared_memo->Insert(signatures[i],
                            PlanSet::FromParetoSetRemapped(set,
                                                           local_to_rank));
        ++stats_.memo_publishes;
      }
      publish_span.AddArg("publishes",
                          stats_.memo_publishes - publishes_before);
    }
  }
  return SetFor(all);
}

void DPPlanGenerator::MaterializeFromMemo(TableSet tables,
                                          const PlanSet& entry) {
  // rank -> local: the entry stores plans over dense ranks 0..k-1 in the
  // set's ascending member order; Members() is exactly that mapping.
  const std::vector<int> rank_to_local = tables.Members();
  std::unordered_map<const PlanNode*, const PlanNode*> copied;
  copied.reserve(static_cast<size_t>(entry.size()) * 2);
  std::vector<const PlanNode*> plans;
  plans.reserve(entry.size());
  for (int i = 0; i < entry.size(); ++i) {
    plans.push_back(
        DeepCopyPlanRemapped(entry.plan(i), arena_, rank_to_local, &copied));
  }
  memo_[tables.mask()].LoadSealed(plans);
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
                                           const DPOptions& options,
                                           const std::vector<char>& from_memo,
                                           std::vector<char>* built) {
  // Slots beyond the pool's helpers + the caller can never run, so cap
  // here: parallelism is request-supplied and must not size allocations.
  const int slots =
      std::min(options.parallelism, options.pool->num_threads() + 1);
  while (static_cast<int>(slot_arenas_.size()) < slots - 1) {
    slot_arenas_.push_back(std::make_unique<Arena>());
  }

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
  std::vector<int> work;
  work.reserve(level.size());
  for (size_t i = 0; i < level.size(); ++i) {
    if (!from_memo[i]) work.push_back(static_cast<int>(i));
  }
  std::vector<uint64_t> proxy(level.size(), 0);
  for (int index : work) proxy[index] = SplitWorkProxy(level[index], options);
  std::stable_sort(work.begin(), work.end(), [&proxy](int a, int b) {
    return proxy[a] > proxy[b];
  });

  // One padded state block per slot. ParallelFor guarantees slot values
  // are distinct across concurrent participants, so per-slot counting is
  // race-free by construction (audited for PR 6; the TSan-filtered
  // ParallelDpTest covers it) — the padding only stops adjacent slots'
  // counters from false-sharing a cache line.
  struct alignas(64) SlotState {
    DPStats stats;
    /// When this slot finished its last claimed set, in level-watch us;
    /// -1 = the slot never ran a task.
    int64_t last_finish_us = -1;
  };
  std::vector<SlotState> slot_state(slots);
  std::vector<char> completed(level.size(), 0);
  std::atomic<bool> expired{false};

  StopWatch level_watch;
  const auto level_us = [&level_watch] {
    return static_cast<int64_t>(level_watch.ElapsedMillis() * 1000.0);
  };

  options.pool->ParallelFor(
      static_cast<int>(work.size()), slots - 1, [&](int wi, int slot) {
        // After the first expiry, unstarted sets are left empty and
        // rebuilt in quick mode below — the Section 5.1 behaviour.
        if (expired.load(std::memory_order_relaxed)) return;
        const int index = work[wi];
        Arena* arena =
            slot == 0 ? arena_ : slot_arenas_[slot - 1].get();
        TraceSpan set_span(options.tracer, "dp", "dp.set", options.trace_id);
        set_span.AddArg("tables", level[index].Cardinality());
        set_span.AddArg("split_work", static_cast<int64_t>(proxy[index]));
        if (ProcessSetInto(query, level[index], options, arena,
                           outputs[index], &slot_state[slot].stats)) {
          completed[index] = 1;
        } else {
          expired.store(true, std::memory_order_relaxed);
        }
        slot_state[slot].last_finish_us = level_us();
      });

  // Barrier-tail attribution: every slot that ran at least one task waited
  // from its last set's completion until the whole level sealed. The sum
  // is the level's load-imbalance cost (ROADMAP: work stealing).
  const int64_t barrier_us = level_us();
  ++stats_.parallel_levels;
  for (const SlotState& s : slot_state) {
    stats_.considered_plans += s.stats.considered_plans;
    stats_.inserted_plans += s.stats.inserted_plans;
    if (s.last_finish_us < 0) continue;
    const int64_t wait_us = barrier_us - s.last_finish_us;
    stats_.barrier_wait_us += wait_us;
    if (options.tracer != nullptr) {
      options.tracer->RecordEndingNow("dp", "dp.barrier_wait",
                                      options.trace_id, wait_us, "wait_us",
                                      wait_us);
    }
  }
  if (expired.load(std::memory_order_relaxed)) stats_.timed_out = true;
  // Merge step: completion bookkeeping in level order (so the "last
  // complete set" matches the serial engine), and quick rebuilds for sets
  // the expiry interrupted or pre-empted.
  for (size_t i = 0; i < level.size(); ++i) {
    if (from_memo[i]) {
      ++stats_.complete_sets;
      stats_.last_complete_set = level[i];
      stats_.last_complete_pareto_count = outputs[i]->size();
    } else if (completed[i]) {
      (*built)[i] = 1;
      ++stats_.complete_sets;
      stats_.last_complete_set = level[i];
      stats_.last_complete_pareto_count = outputs[i]->size();
    } else {
      outputs[i]->clear();
      ProcessSetQuick(query, level[i], options);
    }
  }
}

const ParetoSet& DPPlanGenerator::SetFor(TableSet tables) const {
  auto it = memo_.find(tables.mask());
  return it != memo_.end() ? it->second : empty_set_;
}

size_t DPPlanGenerator::MemoryBytes() const {
  size_t bytes = arena_->reserved_bytes();
  for (const std::unique_ptr<Arena>& arena : slot_arenas_) {
    bytes += arena->reserved_bytes();
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

bool DPPlanGenerator::ProcessSetInto(const Query& query, TableSet tables,
                                     const DPOptions& options, Arena* arena,
                                     ParetoSet* set, DPStats* stats) const {
  const ParetoSet::PruneOptions prune{options.alpha,
                                      options.aggressive_delete};
  long since_poll = 0;
  for (const Split& split : SplitsOf(query, tables, options)) {
    const ParetoSet& left_plans = SetFor(split.left);
    const ParetoSet& right_plans = SetFor(split.right);
    for (int li = 0; li < left_plans.size(); ++li) {
      const PlanNode* left = left_plans.at(li);
      for (int ri = 0; ri < right_plans.size(); ++ri) {
        const PlanNode* right = right_plans.at(ri);
        // One set of operand terms per pair, shared by its join configs;
        // a candidate is priced on the stack and becomes a node only if
        // the set keeps it.
        const CostModel::JoinOperands operands =
            model_->Operands(*left, *right, split.info);
        for (int config : registry_->join_configs()) {
          if (++since_poll >= kDeadlinePollInterval) {
            since_poll = 0;
            if (options.deadline.Expired()) return false;
          }
          const OperatorConfig& op = registry_->config(config);
          if (!model_->JoinApplicableFast(op, split.info)) continue;
          const CostVector cost = model_->CombineJoinCost(op, operands);
          ++stats->considered_plans;
          if (set->WouldInsert(cost, prune)) {
            const PlanNode* kept = arena->New<PlanNode>(
                model_->JoinNode(config, left, right, operands, cost));
            set->Insert(kept, prune);
            ++stats->inserted_plans;
          }
        }
      }
    }
  }
  set->Seal();
  return true;
}

void DPPlanGenerator::ProcessSetQuick(const Query& query, TableSet tables,
                                      const DPOptions& options) {
  const WeightVector weights = EffectiveWeights(options);
  ParetoSet& set = memo_[tables.mask()];
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
