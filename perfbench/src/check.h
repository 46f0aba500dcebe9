#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

/// One result value as the checker sees it. Engine values and SQLite
/// values both convert to this, so the comparison shares no code with the
/// engine's own semantics.
struct Cell {
  enum Kind { kNull, kInt, kReal, kText };
  Kind kind = kNull;
  int64_t i = 0;
  double r = 0;
  std::string s;

  static Cell Null() { return Cell{}; }
  static Cell Int(int64_t v) { return Cell{kInt, v, 0, {}}; }
  static Cell Real(double v) { return Cell{kReal, 0, v, {}}; }
  static Cell Text(std::string v) { return Cell{kText, 0, 0, std::move(v)}; }
  bool numeric() const { return kind == kInt || kind == kReal; }
  double number() const { return kind == kInt ? static_cast<double>(i) : r; }
};
using CellRow = std::vector<Cell>;

Cell FromEngineValue(const cbqt::Value& v);
CellRow FromEngineRow(const cbqt::Row& row);
std::vector<CellRow> FromEngineRows(const std::vector<cbqt::Row>& rows);

/// What the oracle says about one statement.
struct Expected {
  enum Kind {
    /// `rows` is the exact result multiset.
    kRows,
    /// A ROWNUM cutoff `limit` over an ordered view whose order key is the
    /// last select column. `qualifying` counts the rows the view returns
    /// without the cutoff; `rows` holds those whose key is at most the
    /// key of the limit-th row, sorted by key.
    kRownum,
  };
  Kind kind = kRows;
  int64_t limit = 0;
  int64_t qualifying = 0;
  std::vector<CellRow> rows;
};

/// Two numbers match when |a - b| <= kAbsTolerance + kRelTolerance *
/// max(|a|, |b|); integers and reals compare by value. Text and NULL match
/// exactly.
inline constexpr double kRelTolerance = 1e-9;
inline constexpr double kAbsTolerance = 1e-9;

/// Empty when `actual` is a correct answer, else what is wrong with it.
std::string CheckResult(const std::vector<CellRow>& actual,
                        const Expected& expected);

/// Empty when `rows` are in the order of an ORDER BY on `column` (ties in
/// any order; NULL first ascending), else where they are not.
std::string CheckOrder(const std::vector<cbqt::Row>& rows, size_t column,
                       bool descending);

/// Order-independent exact digest of a result (row order does not matter,
/// every bit of every value does).
uint64_t Fingerprint(const std::vector<cbqt::Row>& rows);

/// The nearest-rank `p` quantile (0 < p < 1) of `samples` (sorted in
/// place). Returns false, and reports nothing, when fewer than ten samples
/// lie beyond that rank.
bool Percentile(std::vector<double>* samples, double p, double* out);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
