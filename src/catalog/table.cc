#include "catalog/table.h"

#include <algorithm>

namespace moqo {

const ColumnStats* Table::FindColumn(const std::string& column_name) const {
  for (const ColumnStats& column : columns_) {
    if (column.name == column_name) return &column;
  }
  return nullptr;
}

bool Table::HasIndexOn(const std::string& column_name) const {
  return std::find(indexed_columns_.begin(), indexed_columns_.end(),
                   column_name) != indexed_columns_.end() &&
         FindColumn(column_name) != nullptr;
}

}  // namespace moqo
