#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "rng.h"

namespace perfbench {

namespace {

bool NumbersMatch(double a, double b) {
  if (a == b) return true;
  double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= kAbsTolerance + kRelTolerance * scale;
}

bool CellsMatch(const Cell& a, const Cell& b) {
  if (a.numeric() && b.numeric()) return NumbersMatch(a.number(), b.number());
  if (a.kind != b.kind) return false;
  if (a.kind == Cell::kText) return a.s == b.s;
  return true;  // both NULL
}

bool RowsMatch(const CellRow& a, const CellRow& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!CellsMatch(a[i], b[i])) return false;
  }
  return true;
}

/// Sort key of a row: its exact part (text, NULL and the positions of
/// numbers) and its numbers. Sorting both sides by it pairs rows that can
/// only differ within the numeric tolerance.
struct Keyed {
  std::string exact;
  std::vector<double> numbers;
  const CellRow* row;
};

Keyed KeyOf(const CellRow& row) {
  Keyed k{{}, {}, &row};
  for (const Cell& c : row) {
    if (c.numeric()) {
      k.exact += "#\x1f";
      k.numbers.push_back(c.number());
    } else if (c.kind == Cell::kNull) {
      k.exact += "N\x1f";
    } else {
      k.exact += "T" + c.s + "\x1f";
    }
  }
  return k;
}

std::vector<Keyed> Sorted(const std::vector<CellRow>& rows) {
  std::vector<Keyed> out;
  out.reserve(rows.size());
  for (const CellRow& r : rows) out.push_back(KeyOf(r));
  std::sort(out.begin(), out.end(), [](const Keyed& a, const Keyed& b) {
    if (a.exact != b.exact) return a.exact < b.exact;
    return a.numbers < b.numbers;
  });
  return out;
}

std::string RowText(const CellRow& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) s += ", ";
    const Cell& c = row[i];
    switch (c.kind) {
      case Cell::kNull: s += "NULL"; break;
      case Cell::kInt: s += std::to_string(c.i); break;
      case Cell::kReal: s += std::to_string(c.r); break;
      case Cell::kText: s += "'" + c.s + "'"; break;
    }
  }
  return s + ")";
}

/// Ordering of order-key cells: NULL first, numbers by value, text
/// bytewise.
int CompareKey(const Cell& a, const Cell& b) {
  if (a.kind == Cell::kNull || b.kind == Cell::kNull) {
    return (a.kind != Cell::kNull) - (b.kind != Cell::kNull);
  }
  if (a.numeric() && b.numeric()) {
    return (a.number() > b.number()) - (a.number() < b.number());
  }
  if (a.kind == Cell::kText && b.kind == Cell::kText) {
    return a.s.compare(b.s) < 0 ? -1 : (a.s == b.s ? 0 : 1);
  }
  return a.numeric() ? -1 : 1;
}

std::string CheckMultiset(const std::vector<CellRow>& actual,
                          const std::vector<CellRow>& expected) {
  if (actual.size() != expected.size()) {
    return "row count " + std::to_string(actual.size()) + ", expected " +
           std::to_string(expected.size());
  }
  std::vector<Keyed> a = Sorted(actual);
  std::vector<Keyed> e = Sorted(expected);
  for (size_t i = 0; i < a.size(); ++i) {
    if (!RowsMatch(*a[i].row, *e[i].row)) {
      return "row " + RowText(*a[i].row) + " where " + RowText(*e[i].row) +
             " was expected";
    }
  }
  return "";
}

std::string CheckRownum(const std::vector<CellRow>& actual,
                        const Expected& expected) {
  int64_t want = std::min(expected.limit, expected.qualifying);
  if (static_cast<int64_t>(actual.size()) != want) {
    return "ROWNUM row count " + std::to_string(actual.size()) +
           ", expected " + std::to_string(want);
  }
  if (actual.empty()) return "";
  // Every returned row qualifies: match it to an unused candidate.
  std::vector<bool> used(expected.rows.size(), false);
  const Cell* last = nullptr;
  for (const CellRow& row : actual) {
    if (row.empty()) return "ROWNUM row without an order key";
    bool found = false;
    for (size_t j = 0; j < expected.rows.size() && !found; ++j) {
      if (!used[j] && RowsMatch(row, expected.rows[j])) {
        used[j] = true;
        found = true;
      }
    }
    if (!found) {
      return "ROWNUM row " + RowText(row) + " is not among the first rows";
    }
    if (last == nullptr || CompareKey(row.back(), *last) > 0) {
      last = &row.back();
    }
  }
  // No excluded row sorts strictly before the last returned one.
  int64_t before_expected = 0;
  int64_t before_actual = 0;
  for (const CellRow& row : expected.rows) {
    before_expected += CompareKey(row.back(), *last) < 0;
  }
  for (const CellRow& row : actual) {
    before_actual += CompareKey(row.back(), *last) < 0;
  }
  if (before_expected != before_actual) {
    return "ROWNUM result skips a row that sorts before its last row";
  }
  return "";
}

uint64_t HashValue(const cbqt::Value& v) {
  uint64_t h = 1469598103934665603ULL ^ static_cast<uint64_t>(v.kind());
  switch (v.kind()) {
    case cbqt::ValueKind::kNull:
      break;
    case cbqt::ValueKind::kInt64:
      h = (h ^ static_cast<uint64_t>(v.AsInt())) * 1099511628211ULL;
      break;
    case cbqt::ValueKind::kDouble: {
      double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      h = (h ^ bits) * 1099511628211ULL;
      break;
    }
    case cbqt::ValueKind::kString:
      h = Fnv1a(v.AsString(), h);
      break;
    case cbqt::ValueKind::kBool:
      h = (h ^ (v.AsBool() ? 2 : 1)) * 1099511628211ULL;
      break;
  }
  return h;
}

}  // namespace

Cell FromEngineValue(const cbqt::Value& v) {
  switch (v.kind()) {
    case cbqt::ValueKind::kNull: return Cell::Null();
    case cbqt::ValueKind::kInt64: return Cell::Int(v.AsInt());
    case cbqt::ValueKind::kDouble: return Cell::Real(v.AsDouble());
    case cbqt::ValueKind::kString: return Cell::Text(v.AsString());
    case cbqt::ValueKind::kBool: return Cell::Int(v.AsBool() ? 1 : 0);
  }
  return Cell::Null();
}

CellRow FromEngineRow(const cbqt::Row& row) {
  CellRow out;
  out.reserve(row.size());
  for (const cbqt::Value& v : row) out.push_back(FromEngineValue(v));
  return out;
}

std::vector<CellRow> FromEngineRows(const std::vector<cbqt::Row>& rows) {
  std::vector<CellRow> out;
  out.reserve(rows.size());
  for (const cbqt::Row& r : rows) out.push_back(FromEngineRow(r));
  return out;
}

std::string CheckOrder(const std::vector<cbqt::Row>& rows, size_t column,
                       bool descending) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].size() <= column || rows[i].size() <= column) {
      return "row without an ORDER BY column";
    }
    int c = CompareKey(FromEngineValue(rows[i - 1][column]),
                       FromEngineValue(rows[i][column]));
    if (descending ? c < 0 : c > 0) {
      return "rows " + std::to_string(i - 1) + " and " + std::to_string(i) +
             " are out of ORDER BY order";
    }
  }
  return "";
}

std::string CheckResult(const std::vector<CellRow>& actual,
                        const Expected& expected) {
  return expected.kind == Expected::kRownum
             ? CheckRownum(actual, expected)
             : CheckMultiset(actual, expected.rows);
}

uint64_t Fingerprint(const std::vector<cbqt::Row>& rows) {
  uint64_t sum = rows.size();
  for (const cbqt::Row& row : rows) {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (const cbqt::Value& v : row) h = (h ^ HashValue(v)) * 0x100000001b3ULL;
    // Mix before summing so that equal rows do not cancel structure.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    sum += h;
  }
  return sum;
}

bool Percentile(std::vector<double>* samples, double p, double* out) {
  size_t n = samples->size();
  if (n == 0 || p <= 0 || p >= 1) return false;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (n - rank < 10) return false;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  *out = (*samples)[rank - 1];
  return true;
}

}  // namespace perfbench
