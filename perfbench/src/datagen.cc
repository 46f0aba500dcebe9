#include "datagen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "rng.h"

namespace perfbench {

using cbqt::ColumnDef;
using cbqt::DataType;
using cbqt::Row;
using cbqt::TableDef;
using cbqt::Value;

const char* const kCountries[8] = {"US", "UK", "DE", "JP",
                                   "IN", "BR", "FR", "CA"};
const char* const kStatuses[4] = {"OPEN", "SHIPPED", "CLOSED", "CANCELLED"};
const char* const kSegments[4] = {"RETAIL", "CORP", "GOV", "SMB"};

namespace {

/// Zipf-distributed ranks in [0, n): rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(int n, double exponent) : cdf_(static_cast<size_t>(n)) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(i + 1.0, exponent);
      cdf_[static_cast<size_t>(i)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int64_t Sample(BenchRng& rng) const {
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    if (it == cdf_.end()) --it;
    return it - cdf_.begin();
  }

 private:
  std::vector<double> cdf_;
};

// Money-like doubles with two decimals, so both engines see the same
// exactly representable inputs.
Value Money(double v) { return Value::Real(std::round(v * 100) / 100); }

Value IntBelow(BenchRng& rng, int n) {
  return Value::Int(static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n))));
}

Value Day(BenchRng& rng) {
  return Value::Str(DayString(static_cast<int64_t>(rng.Below(kDays))));
}

std::string Name(const char* prefix, int i) {
  return std::string(prefix) + std::to_string(i);
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DataSize DataSize::Scaled(int divisor) {
  DataSize s;
  if (divisor <= 1) return s;
  auto shrink = [divisor](int v, int floor) {
    return std::max(floor, v / divisor);
  };
  s.locations = shrink(s.locations, 10);
  s.departments = shrink(s.departments, 20);
  s.jobs = shrink(s.jobs, 10);
  s.employees = shrink(s.employees, 100);
  s.job_history = shrink(s.job_history, 100);
  s.customers = shrink(s.customers, 50);
  s.products = shrink(s.products, 40);
  s.orders = shrink(s.orders, 100);
  s.order_items = shrink(s.order_items, 100);
  s.accounts = shrink(s.accounts, 20);
  return s;
}

std::string DayString(int64_t index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d%02d%02d",
                static_cast<int>(1995 + index / 360),
                static_cast<int>(1 + (index % 360) / 30),
                static_cast<int>(1 + index % 30));
  return buf;
}

uint64_t BenchData::Digest() const {
  uint64_t digest = 0;
  for (const BenchTable& t : tables) {
    uint64_t h = std::hash<std::string>{}(t.def.name);
    for (const Row& r : t.rows) {
      uint64_t rh = 1469598103934665603ULL;
      for (const Value& v : r) {
        rh = (rh ^ static_cast<uint64_t>(v.kind())) * 1099511628211ULL;
        rh = (rh ^ std::hash<std::string>{}(v.ToString())) * 1099511628211ULL;
      }
      h += rh;
    }
    digest = digest * 31 + h + t.rows.size();
  }
  return digest;
}

BenchData GenerateData(uint64_t seed, const DataSize& n, bool oltp_index) {
  BenchRng rng(MixSeed(seed, 0x64617461));
  const double skew = 0.4;
  Zipf dept_skew(n.departments, skew);
  Zipf cust_skew(n.customers, skew);
  Zipf prod_skew(n.products, skew);
  BenchData data;
  auto add = [&data](TableDef def) -> std::vector<Row>& {
    data.tables.push_back(BenchTable{std::move(def), {}});
    return data.tables.back().rows;
  };
  const DataType kInt = DataType::kInt64;
  const DataType kReal = DataType::kDouble;
  const DataType kText = DataType::kString;

  {
    TableDef t;
    t.name = "locations";
    t.columns = {ColumnDef{"loc_id", kInt, false},
                 ColumnDef{"city", kText, false},
                 ColumnDef{"country_id", kText, false}};
    t.primary_key = {"loc_id"};
    t.indexes = {{"loc_pk", {"loc_id"}, true}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.locations; ++i) {
      rows.push_back(Row{Value::Int(i), Value::Str(Name("city_", i)),
                         Value::Str(kCountries[i % 8])});
    }
  }
  {
    TableDef t;
    t.name = "departments";
    t.columns = {ColumnDef{"dept_id", kInt, false},
                 ColumnDef{"dept_name", kText, false},
                 ColumnDef{"loc_id", kInt, false},
                 ColumnDef{"budget", kReal, true}};
    t.primary_key = {"dept_id"};
    t.foreign_keys = {{{"loc_id"}, "locations", {"loc_id"}}};
    t.indexes = {{"dept_pk", {"dept_id"}, true},
                 {"dept_loc_idx", {"loc_id"}, false}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.departments; ++i) {
      rows.push_back(Row{Value::Int(i), Value::Str(Name("dept_", i)),
                         IntBelow(rng, n.locations),
                         rng.Chance(0.05) ? Value::Null()
                                          : Money(1e5 + rng.Unit() * 9e5)});
    }
  }
  {
    TableDef t;
    t.name = "jobs";
    t.columns = {ColumnDef{"job_id", kInt, false},
                 ColumnDef{"job_title", kText, false},
                 ColumnDef{"min_salary", kReal, true}};
    t.primary_key = {"job_id"};
    t.indexes = {{"jobs_pk", {"job_id"}, true}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.jobs; ++i) {
      rows.push_back(Row{Value::Int(i), Value::Str(Name("title_", i)),
                         Value::Real(30000 + 1000.0 * i)});
    }
  }
  {
    TableDef t;
    t.name = "employees";
    t.columns = {ColumnDef{"emp_id", kInt, false},
                 ColumnDef{"employee_name", kText, false},
                 ColumnDef{"dept_id", kInt, false},
                 ColumnDef{"salary", kReal, false},
                 ColumnDef{"mgr_id", kInt, true},
                 ColumnDef{"job_id", kInt, false},
                 ColumnDef{"hire_date", kText, false}};
    t.primary_key = {"emp_id"};
    t.foreign_keys = {{{"dept_id"}, "departments", {"dept_id"}},
                      {{"job_id"}, "jobs", {"job_id"}}};
    t.indexes = {{"emp_pk", {"emp_id"}, true},
                 {"emp_dept_idx", {"dept_id"}, false}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.employees; ++i) {
      Value dept = Value::Int(dept_skew.Sample(rng));
      Value salary = Money(30000 + rng.Unit() * 120000);
      Value mgr = rng.Chance(0.1) ? Value::Null() : IntBelow(rng, n.employees);
      rows.push_back(Row{Value::Int(i), Value::Str(Name("emp_", i)),
                         std::move(dept), std::move(salary), std::move(mgr),
                         IntBelow(rng, n.jobs), Day(rng)});
    }
  }
  {
    TableDef t;
    t.name = "job_history";
    t.columns = {ColumnDef{"emp_id", kInt, false},
                 ColumnDef{"job_id", kInt, false},
                 ColumnDef{"job_title", kText, false},
                 ColumnDef{"dept_id", kInt, false},
                 ColumnDef{"start_date", kText, false}};
    t.foreign_keys = {{{"emp_id"}, "employees", {"emp_id"}}};
    t.indexes = {{"jh_emp_idx", {"emp_id"}, false}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.job_history; ++i) {
      Value emp = IntBelow(rng, n.employees);
      int job = static_cast<int>(rng.Below(static_cast<uint64_t>(n.jobs)));
      Value dept = Value::Int(dept_skew.Sample(rng));
      rows.push_back(Row{std::move(emp), Value::Int(job),
                         Value::Str(Name("title_", job)), std::move(dept),
                         Day(rng)});
    }
  }
  {
    TableDef t;
    t.name = "customers";
    t.columns = {ColumnDef{"cust_id", kInt, false},
                 ColumnDef{"cust_name", kText, false},
                 ColumnDef{"country_id", kText, false},
                 ColumnDef{"segment", kText, false}};
    t.primary_key = {"cust_id"};
    t.indexes = {{"cust_pk", {"cust_id"}, true}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.customers; ++i) {
      const char* country = kCountries[rng.Below(8)];
      rows.push_back(Row{Value::Int(i), Value::Str(Name("cust_", i)),
                         Value::Str(country),
                         Value::Str(kSegments[rng.Below(4)])});
    }
  }
  {
    TableDef t;
    t.name = "products";
    t.columns = {ColumnDef{"product_id", kInt, false},
                 ColumnDef{"product_name", kText, false},
                 ColumnDef{"category_id", kInt, false},
                 ColumnDef{"list_price", kReal, false}};
    t.primary_key = {"product_id"};
    t.indexes = {{"prod_pk", {"product_id"}, true}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.products; ++i) {
      Value category = IntBelow(rng, 40);
      rows.push_back(Row{Value::Int(i), Value::Str(Name("prod_", i)),
                         std::move(category), Money(5 + rng.Unit() * 995)});
    }
  }
  {
    TableDef t;
    t.name = "orders";
    t.columns = {ColumnDef{"order_id", kInt, false},
                 ColumnDef{"cust_id", kInt, false},
                 ColumnDef{"emp_id", kInt, true},
                 ColumnDef{"order_date", kText, false},
                 ColumnDef{"status", kText, false},
                 ColumnDef{"total", kReal, false}};
    t.primary_key = {"order_id"};
    t.foreign_keys = {{{"cust_id"}, "customers", {"cust_id"}}};
    t.indexes = {{"ord_pk", {"order_id"}, true},
                 {"ord_cust_idx", {"cust_id"}, false}};
    if (oltp_index) t.indexes.push_back({"ord_emp_idx", {"emp_id"}, false});
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.orders; ++i) {
      Value cust = Value::Int(cust_skew.Sample(rng));
      Value emp = rng.Chance(0.05) ? Value::Null() : IntBelow(rng, n.employees);
      Value day = Day(rng);
      Value status = Value::Str(kStatuses[rng.Below(4)]);
      rows.push_back(Row{Value::Int(i), std::move(cust), std::move(emp),
                         std::move(day), std::move(status),
                         Money(10 + rng.Unit() * 4990)});
    }
  }
  {
    TableDef t;
    t.name = "order_items";
    t.columns = {ColumnDef{"order_id", kInt, false},
                 ColumnDef{"product_id", kInt, false},
                 ColumnDef{"quantity", kInt, false},
                 ColumnDef{"price", kReal, false}};
    t.foreign_keys = {{{"order_id"}, "orders", {"order_id"}},
                      {{"product_id"}, "products", {"product_id"}}};
    t.indexes = {{"oi_order_idx", {"order_id"}, false},
                 {"oi_prod_idx", {"product_id"}, false}};
    auto& rows = add(std::move(t));
    for (int i = 0; i < n.order_items; ++i) {
      Value order = IntBelow(rng, n.orders);
      Value product = Value::Int(prod_skew.Sample(rng));
      Value quantity = Value::Int(1 + static_cast<int64_t>(rng.Below(9)));
      rows.push_back(Row{std::move(order), std::move(product),
                         std::move(quantity), Money(5 + rng.Unit() * 495)});
    }
  }
  {
    TableDef t;
    t.name = "accounts";
    t.columns = {ColumnDef{"acct_id", kInt, false},
                 ColumnDef{"time", kInt, false},
                 ColumnDef{"balance", kReal, false}};
    t.indexes = {{"acct_idx", {"acct_id"}, false}};
    auto& rows = add(std::move(t));
    for (int a = 0; a < n.accounts; ++a) {
      double balance = 1000 + std::round(rng.Unit() * 9000);
      for (int m = 1; m <= n.months; ++m) {
        balance += std::round(rng.Unit() * 400) - 180;
        rows.push_back(Row{Value::Int(a), Value::Int(m), Value::Real(balance)});
      }
    }
  }
  return data;
}

cbqt::Status LoadIntoEngine(BenchData data, cbqt::Database* db,
                            LoadTimes* times) {
  std::vector<std::string> names;
  double t0 = NowMs();
  for (BenchTable& t : data.tables) {
    names.push_back(t.def.name);
    CBQT_RETURN_IF_ERROR(db->CreateTable(t.def));
    CBQT_RETURN_IF_ERROR(db->InsertBulk(t.def.name, std::move(t.rows)));
  }
  double t1 = NowMs();
  for (const std::string& name : names) {
    CBQT_RETURN_IF_ERROR(db->BuildIndexes(name));
  }
  double t2 = NowMs();
  CBQT_RETURN_IF_ERROR(db->Analyze());
  double t3 = NowMs();
  times->load_ms = t1 - t0;
  times->index_build_ms = t2 - t1;
  times->analyze_ms = t3 - t2;
  return cbqt::Status::OK();
}

}  // namespace perfbench
