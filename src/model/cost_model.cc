#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

namespace moqo {

namespace {

/// Cost-model constants, Postgres-flavoured units. Fixed: neither the
/// subplan memo key nor the plan cache signature encodes them, so changing
/// one means bumping kCostModelVersion.
struct Constants {
  double seq_page_cost = 1.0;       ///< Sequential page read (time units).
  double random_page_cost = 4.0;    ///< Random page read.
  double cpu_tuple_cost = 0.01;     ///< Per-tuple CPU work.
  double cpu_operator_cost = 0.0025;
  double index_probe_cost = 0.3;    ///< B-tree descent per probe.
  double parallel_setup_cost = 10.0;  ///< Per-core coordination overhead.
  double parallel_overhead = 0.05;  ///< Extra CPU fraction per extra core.
  double work_mem_bytes = 4.0 * 1024 * 1024;  ///< Spill threshold.
  double page_bytes = 8192.0;
  /// Energy: Joule per CPU time unit and per IO time unit. IO is weighted
  /// differently from CPU so that energy is correlated with but not
  /// proportional to time (Section 4: "Energy consumption is not always
  /// correlated with time").
  double energy_per_cpu = 0.08;
  double energy_per_io = 0.25;
  /// Extra energy fraction per additional core (coordination makes
  /// parallel plans faster but less energy-efficient).
  double energy_parallel_penalty = 0.12;
};

constexpr Constants kConstants;

double Log2Ceil(double x) { return std::log2(std::max(x, 2.0)); }

}  // namespace

bool CostModel::ScanApplicable(int config_id, int local_table) const {
  const OperatorConfig& op = registry_->config(config_id);
  if (!op.IsScan()) return false;
  // Algorithm 1's pruning only compares plans "generating the same result".
  // A sampled scan generates a different result than a full scan; that
  // difference is visible to the pruning metric only through the tuple-loss
  // objective. When tuple loss is not an active objective, sampling would
  // silently break the principle of optimality (a cost-dominating sub-plan
  // could carry a larger cardinality), so sampled variants are only
  // applicable when tuple loss is optimized.
  if (op.sampling_rate < 1.0 &&
      !objectives_.Contains(Objective::kTupleLoss)) {
    return false;
  }
  if (op.type == OperatorType::kSeqScan) return true;
  // IndexScan: require an index on a column this query touches (filter or
  // join column of the table occurrence).
  const Table& table = query_->table(local_table);
  for (const FilterPredicate* filter : query_->FiltersForTable(local_table)) {
    if (table.HasIndexOn(filter->column)) return true;
  }
  for (const JoinPredicate& join : query_->joins()) {
    if (join.left_table == local_table && table.HasIndexOn(join.left_column)) {
      return true;
    }
    if (join.right_table == local_table &&
        table.HasIndexOn(join.right_column)) {
      return true;
    }
  }
  return false;
}

bool CostModel::JoinApplicable(int config_id, const PlanNode& left,
                               const PlanNode& right) const {
  const OperatorConfig& op = registry_->config(config_id);
  if (!op.IsJoin()) return false;
  if (op.type != OperatorType::kIndexNLJoin) return true;
  // Index-nested-loop: the inner (right) operand must be a base-table scan
  // with an index on the join column of a predicate connecting the sides.
  if (!right.IsScan()) return false;
  const Table& inner = query_->table(right.table);
  for (const JoinPredicate* join :
       query_->JoinsForSplit(left.tables, right.tables)) {
    const bool inner_is_right = right.tables.Contains(join->right_table);
    const std::string& column =
        inner_is_right ? join->right_column : join->left_column;
    if (inner.HasIndexOn(column)) return true;
  }
  return false;
}

CostVector CostModel::ScanCost(const OperatorConfig& op, int local_table,
                               double output_rows) const {
  const Table& table = query_->table(local_table);
  const Constants& p = kConstants;
  const double s = op.sampling_rate;
  const double pages = table.page_count();
  const double rows = table.row_count();
  const int num_filters =
      static_cast<int>(query_->FiltersForTable(local_table).size());

  double io_time, io_pages, cpu_ops, cpu_time, startup, buffer;
  if (op.type == OperatorType::kSeqScan) {
    io_pages = pages * s;
    io_time = p.seq_page_cost * io_pages;
    cpu_ops = rows * s;
    cpu_time = p.cpu_tuple_cost * cpu_ops +
               p.cpu_operator_cost * cpu_ops * num_filters;
    startup = 0.0;
    buffer = p.page_bytes;  // One page of read buffer.
  } else {
    // IndexScan: fetch only rows surviving the filters; random I/O.
    const double fetched_rows = std::max(1.0, output_rows);
    io_pages = std::min(pages, fetched_rows);
    io_time = p.random_page_cost * io_pages + p.index_probe_cost;
    cpu_ops = fetched_rows;
    cpu_time = (p.cpu_tuple_cost + p.cpu_operator_cost) * fetched_rows;
    startup = p.index_probe_cost;
    buffer = 2 * p.page_bytes;  // Index page + heap page.
  }

  CostVector cost(objectives_.size());
  Set(&cost, Objective::kTotalTime, io_time + cpu_time);
  Set(&cost, Objective::kStartupTime, startup);
  Set(&cost, Objective::kIOLoad, io_pages);
  Set(&cost, Objective::kCPULoad, cpu_ops);
  Set(&cost, Objective::kCores, 1.0);
  Set(&cost, Objective::kDiskFootprint, 0.0);
  Set(&cost, Objective::kBufferFootprint, buffer);
  Set(&cost, Objective::kEnergy,
      p.energy_per_cpu * cpu_time + p.energy_per_io * io_time);
  Set(&cost, Objective::kTupleLoss, 1.0 - s);
  return cost;
}

CostModel::JoinOperands CostModel::Operands(const OperandStats& left_stats,
                                            const CostVector& left_cost,
                                            const OperandStats& right_stats,
                                            const CostVector& right_cost,
                                            double output_rows,
                                            double output_width) const {
  JoinOperands in;
  in.rows_left = std::max(left_stats.rows, 1.0);
  in.rows_right = std::max(right_stats.rows, 1.0);
  in.bytes_left = std::max(left_stats.bytes(), 1.0);
  in.bytes_right = std::max(right_stats.bytes(), 1.0);
  in.pages_left = left_stats.pages(kConstants.page_bytes);
  in.pages_right = right_stats.pages(kConstants.page_bytes);
  in.log_left = Log2Ceil(in.rows_left);
  in.log_right = Log2Ceil(in.rows_right);
  in.output_rows = output_rows;
  in.output_width = output_width;
  for (int o = 0; o < kNumObjectives; ++o) {
    const int index = dimension_[o];
    in.left_cost[o] = index >= 0 ? left_cost[index] : 0.0;
    in.right_cost[o] = index >= 0 ? right_cost[index] : 0.0;
  }
  return in;
}

CostModel::JoinOperands CostModel::Operands(const PlanNode& left,
                                            const PlanNode& right,
                                            const SplitInfo& split) const {
  return Operands(
      OperandStats{left.cardinality, left.row_width}, left.cost,
      OperandStats{right.cardinality, right.row_width}, right.cost,
      std::max(left.cardinality * right.cardinality * split.selectivity,
               1e-3),
      estimator_.JoinOutputWidth(left.row_width, right.row_width));
}

CostVector CostModel::CombineJoinCost(const OperatorConfig& op,
                                      const JoinOperands& in) const {
  const Constants& p = kConstants;
  const double tL = in.rows_left;
  const double tR = in.rows_right;
  const double bytesL = in.bytes_left;
  const double bytesR = in.bytes_right;
  const double pagesL = in.pages_left;
  const double pagesR = in.pages_right;
  const double output_rows = in.output_rows;
  const double d = static_cast<double>(op.dop);

  // ---- Operator-local terms. All depend only on operand cardinalities /
  // widths (plan properties), never on child *costs*; child costs are
  // folded in below exclusively via sum, max and scale-by-constant.
  double cpu_time = 0;      // Operator CPU work, time units, single core.
  double io_time = 0;       // Operator I/O work (spills), time units.
  double io_pages = 0;      // Pages moved by the operator itself.
  double cpu_ops = 0;       // Tuple operations (CPU-load objective).
  double buffer = 0;        // Operator-resident memory, bytes.
  double disk = 0;          // Operator temp-disk footprint, bytes.
  double inner_rescans = 1; // Scale on the inner child's additive costs.
  bool parallel_children = true;   // Operands generated concurrently?
  double startup_time = 0;  // Filled per operator below.

  const double startup_left_total = in.Left(Objective::kTotalTime);
  const double startup_right_total = in.Right(Objective::kTotalTime);
  const double left_startup = in.Left(Objective::kStartupTime);
  const double right_startup = in.Right(Objective::kStartupTime);
  const double setup = op.dop > 1 ? p.parallel_setup_cost * d : 0.0;

  switch (op.type) {
    case OperatorType::kHashJoin: {
      const double build_cpu_time = 2.0 * p.cpu_tuple_cost * tL;
      const double probe_cpu_time =
          p.cpu_tuple_cost * tR + p.cpu_operator_cost * output_rows;
      cpu_time = build_cpu_time + probe_cpu_time;
      cpu_ops = 2.0 * tL + tR + output_rows;
      const bool spills = bytesL > p.work_mem_bytes;
      if (spills) {
        io_pages = 2.0 * (pagesL + pagesR);  // Partition write + read.
        io_time = p.seq_page_cost * io_pages;
        disk = bytesL + bytesR;
      }
      // Hash table (capped by work_mem when spilling) with overhead.
      buffer = 1.5 * std::min(bytesL, p.work_mem_bytes) + 2 * p.page_bytes;
      // First output tuple after the whole build side is consumed.
      startup_time = startup_left_total + right_startup +
                     (build_cpu_time + io_time) / d + setup;
      break;
    }
    case OperatorType::kSortMergeJoin: {
      const double sort_cpu_time =
          2.0 * p.cpu_operator_cost * (tL * in.log_left + tR * in.log_right);
      const double merge_cpu_time =
          p.cpu_tuple_cost * (tL + tR) + p.cpu_operator_cost * output_rows;
      cpu_time = sort_cpu_time + merge_cpu_time;
      cpu_ops = tL * in.log_left + tR * in.log_right + tL + tR + output_rows;
      const bool spillL = bytesL > p.work_mem_bytes;
      const bool spillR = bytesR > p.work_mem_bytes;
      if (spillL) {
        io_pages += 4.0 * pagesL;  // External merge sort: 2 passes r/w.
        disk += bytesL;
      }
      if (spillR) {
        io_pages += 4.0 * pagesR;
        disk += bytesR;
      }
      io_time = p.seq_page_cost * io_pages;
      buffer = std::min(std::max(bytesL, bytesR), p.work_mem_bytes) +
               2 * p.page_bytes;
      // Both sides must be fully sorted before the first merge output.
      startup_time =
          std::max(startup_left_total, startup_right_total) +
          (sort_cpu_time + io_time) / d + setup;
      break;
    }
    case OperatorType::kBlockNLJoin: {
      inner_rescans = std::max(1.0, std::ceil(bytesL / p.work_mem_bytes));
      parallel_children = false;  // Outer drives inner rescans.
      cpu_time = p.cpu_operator_cost * tL * tR / 50.0 +
                 p.cpu_tuple_cost * output_rows;
      cpu_ops = tL * tR / 50.0 + output_rows;
      buffer = std::min(bytesL, p.work_mem_bytes) + 2 * p.page_bytes;
      // Pipelined: first result as soon as both inputs start producing.
      startup_time = left_startup + right_startup +
                     p.cpu_operator_cost * tR / d + setup;
      break;
    }
    case OperatorType::kIndexNLJoin: {
      // Inner is probed via its index; its full-scan cost is only partially
      // paid (amortized index maintenance / cache effects).
      inner_rescans = 0.1;
      parallel_children = false;
      const double matches_per_probe = std::max(output_rows / tL, 1e-6);
      const double probe_pages = std::max(1.0, matches_per_probe);
      io_pages = tL * probe_pages;
      // Every probe pays a B-tree descent plus random heap-page fetches —
      // cheap for selective outers, uncompetitive for full-table outers
      // (where hash/sort-merge win on total time, as in Figure 3(a)).
      io_time = tL * (p.index_probe_cost + p.random_page_cost * probe_pages);
      cpu_time = 3.0 * p.cpu_operator_cost * tL +
                 p.cpu_tuple_cost * output_rows;
      cpu_ops = 3.0 * tL + output_rows;
      buffer = 4 * p.page_bytes;  // Fully pipelined, no hash/sort state.
      startup_time = left_startup + right_startup + p.index_probe_cost + setup;
      break;
    }
    default:
      // Scans never reach CombineJoinCost.
      break;
  }

  const double own_time = (cpu_time + io_time) / d + setup;

  // ---- Fold in child costs per combination kind.
  CostVector cost(objectives_.size());

  // Total time: parallel operand generation takes the max; nested-loop
  // styles consume the outer first, then rescan the inner.
  {
    const double children =
        parallel_children
            ? std::max(startup_left_total, startup_right_total)
            : startup_left_total + inner_rescans * startup_right_total;
    Set(&cost, Objective::kTotalTime, children + own_time);
  }

  Set(&cost, Objective::kStartupTime, startup_time);

  Set(&cost, Objective::kIOLoad,
      in.Left(Objective::kIOLoad) +
          inner_rescans * in.Right(Objective::kIOLoad) + io_pages);

  Set(&cost, Objective::kCPULoad,
      in.Left(Objective::kCPULoad) +
          inner_rescans * in.Right(Objective::kCPULoad) +
          cpu_ops * (1.0 + p.parallel_overhead * (d - 1.0)));

  {
    const double left_cores = in.Left(Objective::kCores);
    const double right_cores = in.Right(Objective::kCores);
    const double children = parallel_children
                                ? left_cores + right_cores
                                : std::max(left_cores, right_cores);
    Set(&cost, Objective::kCores, std::max(children, d));
  }

  Set(&cost, Objective::kDiskFootprint,
      std::max({in.Left(Objective::kDiskFootprint),
                in.Right(Objective::kDiskFootprint), disk}));

  Set(&cost, Objective::kBufferFootprint,
      std::max(in.Left(Objective::kBufferFootprint),
               in.Right(Objective::kBufferFootprint)) +
          buffer);

  {
    const double own_energy =
        (p.energy_per_cpu * cpu_time + p.energy_per_io * io_time) *
        (1.0 + p.energy_parallel_penalty * (d - 1.0));
    Set(&cost, Objective::kEnergy,
        in.Left(Objective::kEnergy) +
            inner_rescans * in.Right(Objective::kEnergy) + own_energy);
  }

  {
    const double a = in.Left(Objective::kTupleLoss);
    const double b = in.Right(Objective::kTupleLoss);
    Set(&cost, Objective::kTupleLoss,
        std::clamp(a + b - a * b, 0.0, 1.0));  // 1-(1-a)(1-b)
  }

  return cost;
}

PlanNode CostModel::ScanNode(int config_id, int local_table) const {
  const OperatorConfig& op = registry_->config(config_id);
  PlanNode node;
  node.op_config = config_id;
  node.table = local_table;
  node.tables = TableSet::Singleton(local_table);
  node.cardinality = estimator_.ScanOutputRows(local_table, op.sampling_rate);
  node.row_width = query_->table(local_table).row_width_bytes();
  node.cost = ScanCost(op, local_table, node.cardinality);
  return node;
}

CostModel::SplitInfo CostModel::AnalyzeSplit(TableSet left_set,
                                             TableSet right_set) const {
  SplitInfo info;
  std::vector<double> selectivities;
  for (const JoinPredicate& join : query_->joins()) {
    if (!join.Connects(left_set, right_set)) continue;
    info.has_predicate = true;
    selectivities.push_back(estimator_.JoinPredicateSelectivity(join));
    // Index-nested-loop: inner must be a single base table with an index on
    // its side of a connecting predicate.
    if (right_set.Cardinality() == 1) {
      const bool inner_is_right = right_set.Contains(join.right_table);
      const int inner_table = inner_is_right ? join.right_table
                                             : join.left_table;
      const std::string& column =
          inner_is_right ? join.right_column : join.left_column;
      if (query_->table(inner_table).HasIndexOn(column)) {
        info.index_nl_applicable = true;
      }
    }
  }
  // Canonical fold: join insertion order must not leak into cost bytes
  // (see OrderedSelectivityProduct).
  info.selectivity =
      OrderedSelectivityProduct(info.selectivity, std::move(selectivities));
  return info;
}

PlanNode CostModel::JoinNode(int config_id, const PlanNode* left,
                             const PlanNode* right,
                             const JoinOperands& operands,
                             const CostVector& cost) const {
  PlanNode node;
  node.op_config = config_id;
  node.table = -1;
  node.left = left;
  node.right = right;
  node.tables = left->tables.Union(right->tables);
  node.cardinality = operands.output_rows;
  node.row_width = operands.output_width;
  node.cost = cost;
  return node;
}

PlanNode CostModel::JoinNode(int config_id, const PlanNode* left,
                             const PlanNode* right,
                             const SplitInfo& split) const {
  const JoinOperands operands = Operands(*left, *right, split);
  return JoinNode(config_id, left, right, operands,
                  CombineJoinCost(registry_->config(config_id), operands));
}

PlanNode CostModel::JoinNode(int config_id, const PlanNode* left,
                             const PlanNode* right) const {
  return JoinNode(config_id, left, right,
                  AnalyzeSplit(left->tables, right->tables));
}

}  // namespace moqo
