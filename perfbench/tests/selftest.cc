// Tests of the benchmark's own code: the result checks must reject wrong
// answers (canaries), the percentile helper must refuse a tail it cannot
// support, and inputs must depend on the seed alone.
//
//   .bench_build/cmake/perfbench_selftest      (built by run.py --selftest)

#include <cstdio>
#include <string>
#include <vector>

#include "cbqt/engine.h"
#include "check.h"
#include "datagen.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

bool Accepts(const std::vector<CellRow>& actual, const Expected& e) {
  return CheckResult(actual, e).empty();
}

Expected RowsOf(std::vector<CellRow> rows) {
  Expected e;
  e.rows = std::move(rows);
  return e;
}

void TestMultiset() {
  Expected e = RowsOf({{Cell::Int(1), Cell::Text("a"), Cell::Real(2.5)},
                       {Cell::Int(2), Cell::Text("b"), Cell::Real(3.25)},
                       {Cell::Int(2), Cell::Text("b"), Cell::Real(3.25)},
                       {Cell::Int(3), Cell::Null(), Cell::Real(-1)}});
  std::vector<CellRow> same = e.rows;
  Expect(Accepts(same, e), "identical result accepted");
  std::vector<CellRow> reordered = {e.rows[3], e.rows[1], e.rows[0],
                                    e.rows[2]};
  Expect(Accepts(reordered, e), "reordered result accepted");
  std::vector<CellRow> dropped = {e.rows[0], e.rows[1], e.rows[3]};
  Expect(!Accepts(dropped, e), "canary: one row dropped is rejected");
  std::vector<CellRow> duplicated = e.rows;
  duplicated.push_back(e.rows[0]);
  Expect(!Accepts(duplicated, e), "canary: one row duplicated is rejected");
  std::vector<CellRow> swapped_dup = {e.rows[0], e.rows[0], e.rows[1],
                                      e.rows[3]};
  Expect(!Accepts(swapped_dup, e),
         "canary: a duplicate replacing another row is rejected");
  std::vector<CellRow> changed_text = e.rows;
  changed_text[1][1] = Cell::Text("c");
  Expect(!Accepts(changed_text, e), "canary: one text value changed");
  std::vector<CellRow> changed_number = e.rows;
  changed_number[0][2] = Cell::Real(2.5001);
  Expect(!Accepts(changed_number, e), "canary: one number changed");
  std::vector<CellRow> changed_null = e.rows;
  changed_null[3][1] = Cell::Text("");
  Expect(!Accepts(changed_null, e), "canary: NULL replaced by a value");
  std::vector<CellRow> rounding = e.rows;
  rounding[0][2] = Cell::Real(2.5 * (1 + 1e-12));
  Expect(Accepts(rounding, e), "difference within tolerance accepted");
  std::vector<CellRow> int_vs_real = e.rows;
  int_vs_real[0][0] = Cell::Real(1.0);
  Expect(Accepts(int_vs_real, e), "integer and real of one value match");
}

void TestRownum() {
  // Qualifying rows sorted by their key (the last column); limit 3 cuts
  // inside a tie on key 20.
  Expected e;
  e.kind = Expected::kRownum;
  e.limit = 3;
  e.qualifying = 9;
  e.rows = {{Cell::Int(1), Cell::Text("d10")},
            {Cell::Int(2), Cell::Text("d20")},
            {Cell::Int(3), Cell::Text("d20")},
            {Cell::Int(4), Cell::Text("d20")}};
  Expect(Accepts({e.rows[0], e.rows[1], e.rows[2]}, e),
         "ROWNUM: one tie resolution accepted");
  Expect(Accepts({e.rows[3], e.rows[0], e.rows[1]}, e),
         "ROWNUM: another tie resolution accepted");
  Expect(!Accepts({e.rows[1], e.rows[2], e.rows[3]}, e),
         "canary: ROWNUM result skipping an earlier row is rejected");
  Expect(!Accepts({e.rows[0], e.rows[1]}, e),
         "canary: ROWNUM result with too few rows is rejected");
  Expect(!Accepts({e.rows[0], e.rows[1], {Cell::Int(9), Cell::Text("d20")}},
                  e),
         "canary: ROWNUM result with a non-qualifying row is rejected");
  Expect(!Accepts({e.rows[0], e.rows[1], e.rows[1]}, e),
         "canary: ROWNUM result repeating a row is rejected");
  Expected few = e;
  few.limit = 20;
  few.qualifying = 4;
  Expect(Accepts(e.rows, few), "ROWNUM: fewer qualifying rows than limit");
}

void TestOrder() {
  using cbqt::Value;
  std::vector<cbqt::Row> rows = {{Value::Int(7), Value::Real(90.5)},
                                 {Value::Int(3), Value::Real(40)},
                                 {Value::Int(5), Value::Real(40)},
                                 {Value::Int(1), Value::Real(12.25)}};
  Expect(CheckOrder(rows, 1, true).empty(),
         "ORDER BY DESC: rows in order (with a tie) accepted");
  std::vector<cbqt::Row> tie_swapped = {rows[0], rows[2], rows[1], rows[3]};
  Expect(CheckOrder(tie_swapped, 1, true).empty(),
         "ORDER BY DESC: the other order of a tie accepted");
  std::vector<cbqt::Row> swapped = {rows[0], rows[3], rows[2], rows[1]};
  Expect(!CheckOrder(swapped, 1, true).empty(),
         "canary: ORDER BY DESC result with two rows swapped is rejected");
  std::vector<cbqt::Row> ascending(rows.rbegin(), rows.rend());
  Expect(!CheckOrder(ascending, 1, true).empty() &&
             CheckOrder(ascending, 1, false).empty(),
         "ORDER BY: direction is checked");
}

void TestPercentile() {
  std::vector<double> v(1000);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  double p = 0;
  Expect(Percentile(&v, 0.99, &p) && p == 990,
         "p99 of 1000 samples (10 beyond it) is reported");
  v.pop_back();
  Expect(!Percentile(&v, 0.99, &p),
         "p99 of 999 samples (9 beyond it) is refused");
  std::vector<double> small(100, 1.0);
  Expect(!Percentile(&small, 0.99, &p), "p99 of 100 samples is refused");
  Expect(Percentile(&small, 0.5, &p) && p == 1.0, "p50 of 100 samples");
}

void TestDialect() {
  int64_t k = 0;
  Expect(ToSqliteDialect("SELECT a FROM t MINUS SELECT a FROM u", &k) ==
                 "SELECT a FROM t EXCEPT SELECT a FROM u" &&
             k == -1,
         "dialect: MINUS maps to EXCEPT");
  Expect(ToSqliteDialect("SELECT v.a FROM (SELECT a FROM t ORDER BY a) v "
                         "WHERE rownum <= 7",
                         &k) == "SELECT v.a FROM (SELECT a FROM t ORDER BY a) v" &&
             k == 7,
         "dialect: trailing ROWNUM cutoff is lifted");
}

void TestSeeds() {
  WorkloadSpec spec;
  bool all_same = true, all_differ = true;
  for (const std::string& name : WorkloadNames()) {
    FindWorkload(name, &spec);
    std::vector<Statement> a = GenerateRound(spec, 7);
    std::vector<Statement> b = GenerateRound(spec, 7);
    std::vector<Statement> c = GenerateRound(spec, 8);
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) same = a[i].sql == b[i].sql;
    bool differ = a.size() != c.size();
    for (size_t i = 0; !differ && i < a.size(); ++i) {
      differ = a[i].sql != c[i].sql;
    }
    all_same = all_same && same;
    all_differ = all_differ && differ;
  }
  Expect(all_same, "the same seed gives the same statements");
  Expect(all_differ, "another seed gives other statements");
  DataSize small = DataSize::Scaled(100);
  Expect(GenerateData(3, small, false).Digest() ==
             GenerateData(3, small, false).Digest(),
         "the same seed gives the same data");
  Expect(GenerateData(3, small, false).Digest() !=
             GenerateData(4, small, false).Digest(),
         "another seed gives other data");
}

void TestOracleAgainstEngine() {
  // The full path on small data: the engine's answer passes the oracle
  // check, and the same answer with one row dropped does not.
  BenchData data = GenerateData(5, DataSize::Scaled(100), false);
  SqliteOracle oracle;
  std::string error;
  Expect(oracle.Load(data, &error), "oracle loads the tables");
  cbqt::Database db;
  LoadTimes times;
  Expect(LoadIntoEngine(std::move(data), &db, &times).ok(),
         "engine loads the tables");
  cbqt::QueryEngine engine(db);
  const char* sql =
      "SELECT d.dept_name, COUNT(e.emp_id) AS n FROM departments d, "
      "employees e WHERE e.dept_id = d.dept_id AND e.salary > 60000 GROUP "
      "BY d.dept_name";
  Expected expected;
  Expect(oracle.Answer(sql, &expected, &error), "oracle answers");
  auto result = engine.Run(sql);
  Expect(result.ok(), "engine answers");
  if (!result.ok()) return;
  std::vector<CellRow> rows = FromEngineRows(result->rows);
  Expect(!rows.empty() && Accepts(rows, expected),
         "engine rows match the oracle");
  rows.pop_back();
  Expect(!Accepts(rows, expected), "canary: engine rows minus one rejected");
  Expect(Fingerprint(result->rows) != 0, "fingerprint is computed");
  std::vector<cbqt::Row> reversed(result->rows.rbegin(), result->rows.rend());
  Expect(Fingerprint(reversed) == Fingerprint(result->rows),
         "fingerprint ignores row order");
  std::vector<cbqt::Row> altered = result->rows;
  altered[0][1] = cbqt::Value::Str("changed");
  Expect(Fingerprint(altered) != Fingerprint(result->rows),
         "fingerprint sees a changed value");
}

void TestOracleFile(const std::string& dir) {
  std::vector<Expected> answers(2);
  answers[0].rows = {{Cell::Int(-4), Cell::Real(0.1), Cell::Null(),
                      Cell::Text("x y")}};
  answers[1].kind = Expected::kRownum;
  answers[1].limit = 5;
  answers[1].qualifying = 12;
  answers[1].rows = {{Cell::Text("20010101")}};
  std::string path = dir + "/selftest.oracle";
  std::string error;
  Expect(WriteOracleFile(path, 42, answers, &error), "oracle file written");
  OracleFile file;
  Expected back;
  Expect(file.Open(path, 42, 2, &error) && file.Read(1, &back, &error) &&
             back.kind == Expected::kRownum && back.limit == 5 &&
             back.qualifying == 12 && back.rows.size() == 1,
         "oracle file: ROWNUM entry read back");
  Expect(file.Read(0, &back, &error) && back.rows.size() == 1 &&
             Accepts(answers[0].rows, back) && back.rows[0][1].r == 0.1,
         "oracle file: rows read back exactly");
  OracleFile wrong_key;
  Expect(!wrong_key.Open(path, 43, 2, &error),
         "oracle file: another key is refused");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : ".";
  perfbench::TestMultiset();
  perfbench::TestRownum();
  perfbench::TestOrder();
  perfbench::TestPercentile();
  perfbench::TestDialect();
  perfbench::TestSeeds();
  perfbench::TestOracleAgainstEngine();
  perfbench::TestOracleFile(dir);
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
