#include "query/query.h"

#include <cassert>
#include <cstdlib>
#include <sstream>

#include "query/canonical.h"

namespace moqo {

int Query::AddTable(int table_id) {
  assert(table_id >= 0 && table_id < catalog_->num_tables());
  assert(num_tables() < TableSet::kMaxTables);
  table_ids_.push_back(table_id);
  canonical_.Clear();
  return num_tables() - 1;
}

int Query::AddTable(const std::string& table_name) {
  const int id = catalog_->FindTable(table_name);
  assert(id >= 0 && "unknown table name");
  return AddTable(id);
}

void Query::AddJoin(int left_table, std::string left_column, int right_table,
                    std::string right_column) {
  assert(left_table != right_table);
  assert(left_table >= 0 && left_table < num_tables());
  assert(right_table >= 0 && right_table < num_tables());
  joins_.push_back(JoinPredicate{left_table, std::move(left_column),
                                 right_table, std::move(right_column)});
  canonical_.Clear();
}

void Query::AddFilter(FilterPredicate filter) {
  assert(filter.table >= 0 && filter.table < num_tables());
  filters_.push_back(std::move(filter));
  canonical_.Clear();
}

bool Query::SplitHasJoinPredicate(TableSet a, TableSet b) const {
  for (const JoinPredicate& join : joins_) {
    if (join.Connects(a, b)) return true;
  }
  return false;
}

std::vector<const JoinPredicate*> Query::JoinsForSplit(TableSet a,
                                                       TableSet b) const {
  std::vector<const JoinPredicate*> result;
  for (const JoinPredicate& join : joins_) {
    if (join.Connects(a, b)) result.push_back(&join);
  }
  return result;
}

std::vector<const FilterPredicate*> Query::FiltersForTable(
    int local_index) const {
  std::vector<const FilterPredicate*> result;
  for (const FilterPredicate& filter : filters_) {
    if (filter.table == local_index) result.push_back(&filter);
  }
  return result;
}

bool Query::JoinGraphConnected() const {
  return InducedSubgraphConnected(AllTables());
}

bool Query::InducedSubgraphConnected(TableSet tables) const {
  if (tables.Cardinality() <= 1) return true;
  TableSet reached = TableSet::Singleton(tables.First());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const JoinPredicate& join : joins_) {
      if (!tables.Contains(join.left_table) ||
          !tables.Contains(join.right_table)) {
        continue;
      }
      const bool left_in = reached.Contains(join.left_table);
      const bool right_in = reached.Contains(join.right_table);
      if (left_in != right_in) {
        reached = reached.With(left_in ? join.right_table : join.left_table);
        grew = true;
      }
    }
  }
  return reached == tables;
}

std::string Query::ToString() const {
  std::ostringstream out;
  out << name_ << ": tables[";
  for (int i = 0; i < num_tables(); ++i) {
    if (i > 0) out << ", ";
    out << i << "=" << table(i).name();
  }
  out << "] joins[";
  for (size_t i = 0; i < joins_.size(); ++i) {
    if (i > 0) out << ", ";
    out << joins_[i].ToString();
  }
  out << "] filters[";
  for (size_t i = 0; i < filters_.size(); ++i) {
    if (i > 0) out << ", ";
    out << filters_[i].ToString();
  }
  out << "]";
  return out.str();
}

std::shared_ptr<const CanonicalQueryForm> Query::CanonicalForm() const {
  MutexLock lock(canonical_.mu);
  if (canonical_.form == nullptr) {
    canonical_.form = std::make_shared<const CanonicalQueryForm>(
        BuildCanonicalQueryForm(*this));
  }
  return canonical_.form;
}

}  // namespace moqo
