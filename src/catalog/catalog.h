// Copyright (c) 2026 moqo authors. MIT license.
//
// Catalog: the table registry, plus the built-in TPC-H schema used by the
// experiments (Sections 5 and 8 evaluate on TPC-H).

#ifndef MOQO_CATALOG_CATALOG_H_
#define MOQO_CATALOG_CATALOG_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/table.h"

namespace moqo {

/// A registry of base tables. Table ids are dense indexes into the registry
/// and are what TableSet bits refer to after a Query binds names to ids.
/// A registered table never changes, so keys that encode its content stay
/// valid for the catalog's lifetime; new statistics make a new catalog.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; returns its id. Names must be unique.
  int AddTable(Table table);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const Table& table(int id) const { return *tables_[id]; }

  /// Returns the table id for `name`, or -1 if absent.
  int FindTable(const std::string& name) const;

  /// Builds the eight-table TPC-H schema at the given scale factor, with
  /// TPC-H-specified cardinalities (e.g. lineitem ~ 6M rows at SF 1),
  /// synthetic column statistics, and indexes on primary/foreign keys.
  static Catalog TpcH(double scale_factor = 1.0);

 private:
  std::vector<std::unique_ptr<Table>> tables_;
};

/// Dense ids of the TPC-H tables inside Catalog::TpcH(), in registration
/// order. Kept stable because the query definitions reference them.
enum TpcHTable : int {
  kRegion = 0,
  kNation = 1,
  kSupplier = 2,
  kCustomer = 3,
  kPart = 4,
  kPartsupp = 5,
  kOrders = 6,
  kLineitem = 7,
};

}  // namespace moqo

#endif  // MOQO_CATALOG_CATALOG_H_
