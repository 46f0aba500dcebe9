#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/database.h"

namespace perfbench {

/// Row counts of the HR / order-entry schema the workloads query.
struct DataSize {
  int locations = 50;
  int departments = 200;
  int jobs = 50;
  int employees = 20000;
  int job_history = 30000;
  int customers = 4000;
  int products = 800;
  int orders = 30000;
  int order_items = 60000;
  int accounts = 400;
  int months = 48;

  /// The full size divided by `divisor` (small dimension tables keep at
  /// least a handful of rows).
  static DataSize Scaled(int divisor);
};

struct BenchTable {
  cbqt::TableDef def;
  std::vector<cbqt::Row> rows;
};

/// Generated tables, in load order.
struct BenchData {
  std::vector<BenchTable> tables;
  /// Order-independent digest of every value, so that the oracle's cached
  /// answers are tied to the exact data they were computed on.
  uint64_t Digest() const;
};

/// Builds the tables from `seed`. `oltp_index` adds the orders(emp_id)
/// index used by the serving workload.
BenchData GenerateData(uint64_t seed, const DataSize& size, bool oltp_index);

/// Wall times of the three load steps, in milliseconds.
struct LoadTimes {
  double load_ms = 0;         ///< CreateTable + InsertBulk
  double index_build_ms = 0;  ///< BuildIndexes on every table
  double analyze_ms = 0;      ///< Analyze
};

/// Moves the generated rows into `db` through the program's loading API.
cbqt::Status LoadIntoEngine(BenchData data, cbqt::Database* db,
                            LoadTimes* times);

/// "YYYYMMDD" for day `index` counted from 1995-01-01 on a 360-day
/// calendar; sortable as text.
std::string DayString(int64_t index);

/// Days covered by every date column.
inline constexpr int kDays = 360 * 12;

extern const char* const kCountries[8];
extern const char* const kStatuses[4];
extern const char* const kSegments[4];

}  // namespace perfbench

#endif  // PERFBENCH_DATAGEN_H_
