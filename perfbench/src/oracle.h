#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "check.h"
#include "datagen.h"
#include "workloads.h"

struct sqlite3;

namespace perfbench {

/// The dialect map from the engine's SQL to SQLite's:
///  - `MINUS` becomes `EXCEPT` (same set semantics);
///  - a trailing `WHERE rownum <= k` on the outer block is removed and `k`
///    is returned in `*rownum_limit` (-1 when there is none): the oracle
///    then returns every qualifying row, and the result is checked by
///    property (check.h, Expected::kRownum);
///  - `expensive_filter(x)` needs no rewrite: the oracle registers it as
///    the one-argument identity function.
/// Everything else passes unchanged.
std::string ToSqliteDialect(const std::string& sql, int64_t* rownum_limit);

/// An in-memory SQLite database holding the benchmark's tables and the same
/// indexes, used as an independent row oracle.
class SqliteOracle {
 public:
  SqliteOracle() = default;
  ~SqliteOracle();
  SqliteOracle(const SqliteOracle&) = delete;
  SqliteOracle& operator=(const SqliteOracle&) = delete;

  /// Loads every table of `data`. Returns false (with `*error`) on failure.
  bool Load(const BenchData& data, std::string* error);

  /// Runs one engine statement through the dialect map.
  bool Answer(const std::string& engine_sql, Expected* out,
              std::string* error);

 private:
  bool Exec(const std::string& sql, std::string* error);
  bool Query(const std::string& sql, std::vector<CellRow>* rows,
             std::string* error);

  sqlite3* db_ = nullptr;
};

/// Digest tying cached answers to the exact data and statements.
uint64_t OracleKey(const BenchData& data,
                   const std::vector<Statement>& statements);

/// Writes the answers for `statements` to `path` (text format, one entry
/// per statement, followed by an index of entry offsets).
bool WriteOracleFile(const std::string& path, uint64_t key,
                     const std::vector<Expected>& answers,
                     std::string* error);

/// Random access to a written oracle file. Thread-safe.
class OracleFile {
 public:
  OracleFile() = default;
  ~OracleFile();
  OracleFile(const OracleFile&) = delete;
  OracleFile& operator=(const OracleFile&) = delete;

  /// Opens `path` and checks that it answers `count` statements under
  /// `key`.
  bool Open(const std::string& path, uint64_t key, size_t count,
            std::string* error);
  /// Reads the answer for statement `index`.
  bool Read(size_t index, Expected* out, std::string* error);

 private:
  std::mutex mu_;
  FILE* file_ = nullptr;
  std::vector<long> offsets_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
