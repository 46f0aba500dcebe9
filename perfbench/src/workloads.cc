#include "workloads.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>

#include "rng.h"

namespace perfbench {

namespace {

std::string Fmt(const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// One instance of a template. `u` and `v` are stratified draws in
/// [0, 1): the k-th of n instances takes the k-th stratum for `u` and a
/// fixed low-discrepancy stratum for `v`, with only the position inside
/// each stratum drawn from the seed. So every seed spreads the literals
/// over their ranges the same way, and the costliest instances look alike
/// from seed to seed. `k` also cycles categorical literals; `rng` supplies
/// literals whose value does not change the work much.
struct Instance {
  double u;
  double v;
  int k;
  BenchRng* rng;
};

/// The k-th of n points of the golden-ratio sequence, jittered inside its
/// stratum by `jitter` in [0, 1).
double GoldenStratum(int k, int n, double jitter) {
  double base = (k + 0.5) * 0.6180339887498949;
  base -= static_cast<int>(base);
  double x = base + (jitter - 0.5) / n;
  return x < 0 ? x + 1 : (x >= 1 ? x - 1 : x);
}

/// Date with about `keep` of the uniform date range after it.
std::string DateCut(double keep) {
  return DayString(static_cast<int64_t>((1.0 - keep) * kDays));
}

/// Salary with about `keep` of employees (uniform 30k..150k) above it.
std::string SalaryCut(double keep) {
  return Fmt("%.0f", 30000 + (1.0 - keep) * 120000);
}

int Pick(BenchRng& rng, int n) {
  return static_cast<int>(rng.Below(static_cast<uint64_t>(n)));
}

using Template = std::function<std::string(const Instance&)>;

struct Family {
  const char* name;
  std::vector<Template> templates;
};

// ---- analytic-mix: the twelve analytic families -------------------------

std::vector<Family> AnalyticFamilies(const DataSize& n) {
  std::vector<Family> f;
  f.push_back({"spj",
               {[n](const Instance& x) {
                  return Fmt(
                      "SELECT e.employee_name, d.dept_name FROM employees e, "
                      "departments d WHERE e.dept_id = d.dept_id AND e.salary "
                      "> %s AND d.loc_id = %d",
                      SalaryCut(x.u * 0.5).c_str(),
                      (x.k * 7 + Pick(*x.rng, 7)) % n.locations);
                },
                [](const Instance& x) {
                  return Fmt(
                      "SELECT c.cust_name, o.order_id, o.total FROM customers "
                      "c, orders o WHERE o.cust_id = c.cust_id AND o.status = "
                      "'%s' AND c.country_id = '%s'",
                      kStatuses[x.k % 4], kCountries[(x.k / 4 + x.k) % 8]);
                },
                [](const Instance& x) {
                  return Fmt(
                      "SELECT e.employee_name, d.dept_name, l.city FROM "
                      "employees e, departments d, locations l WHERE "
                      "e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND "
                      "l.country_id = '%s' AND e.salary > %s",
                      kCountries[x.k % 8], SalaryCut(x.u * 0.4).c_str());
                },
                [](const Instance& x) {
                  return Fmt(
                      "SELECT o.order_id, oi.product_id, oi.price FROM orders "
                      "o, order_items oi WHERE oi.order_id = o.order_id AND "
                      "o.order_date > '%s' AND oi.quantity >= %d",
                      DateCut(0.02 + x.u * 0.2).c_str(), 1 + x.k % 8);
                }}});
  f.push_back(
      {"agg-subquery",
       {[](const Instance& x) {
          // Correlated on the unindexed orders.emp_id.
          return Fmt(
              "SELECT e.employee_name FROM employees e WHERE e.salary > %s "
              "AND e.salary / 40 > (SELECT AVG(o.total) FROM orders o WHERE "
              "o.emp_id = e.emp_id)",
              SalaryCut(0.01 + x.u * 0.06).c_str());
        },
        [](const Instance& x) {
          double keep = x.k % 2 == 0 ? 0.002 + x.u * 0.01 : 0.2 + x.u * 0.6;
          return Fmt(
              "SELECT e1.employee_name, j.job_title FROM employees e1, "
              "job_history j WHERE e1.emp_id = j.emp_id AND j.start_date > "
              "'%s' AND e1.salary > (SELECT AVG(e2.salary) FROM employees e2 "
              "WHERE e2.dept_id = e1.dept_id)",
              DateCut(keep).c_str());
        },
        [](const Instance& x) {
          double keep = x.k % 2 == 0 ? 0.002 + x.u * 0.01 : 0.2 + x.u * 0.6;
          return Fmt(
              "SELECT c.cust_name, o.order_id FROM customers c, orders o "
              "WHERE o.cust_id = c.cust_id AND o.order_date > '%s' AND "
              "o.total > (SELECT AVG(o2.total) FROM orders o2 WHERE "
              "o2.cust_id = c.cust_id)",
              DateCut(keep).c_str());
        }}});
  f.push_back(
      {"semi-subquery",
       {[](const Instance& x) {
          return Fmt(
              "SELECT d.dept_name FROM departments d WHERE d.budget > %.0f "
              "AND EXISTS (SELECT 1 FROM employees e WHERE e.dept_id = "
              "d.dept_id AND e.salary > %s)",
              1e5 + x.u * 5e5, SalaryCut(0.05 + x.v * 0.3).c_str());
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT d.dept_name FROM departments d WHERE EXISTS (SELECT 1 "
              "FROM employees e, job_history j WHERE e.emp_id = j.emp_id AND "
              "e.dept_id = d.dept_id AND j.start_date > '%s')",
              DateCut(0.05 + x.u * 0.5).c_str());
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT o.order_id, o.total FROM orders o WHERE o.order_date > "
              "'%s' AND o.order_id IN (SELECT oi.order_id FROM order_items "
              "oi, products p WHERE oi.product_id = p.product_id AND "
              "p.list_price > %.0f)",
              DateCut(0.05 + x.u * 0.4).c_str(),
              100 + x.v * 800);
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT c.cust_name FROM customers c WHERE c.country_id = '%s' "
              "AND NOT EXISTS (SELECT 1 FROM orders o WHERE o.cust_id = "
              "c.cust_id AND o.status = '%s')",
              kCountries[x.k % 8], kStatuses[(x.k / 2) % 4]);
        },
        [](const Instance& x) {
          // NOT IN over a nullable column: the null-aware antijoin.
          return Fmt(
              "SELECT e.employee_name FROM employees e WHERE e.salary > %s "
              "AND e.emp_id NOT IN (SELECT o.emp_id FROM orders o WHERE "
              "o.total > %.0f)",
              SalaryCut(0.02 + x.u * 0.1).c_str(),
              3000 + x.v * 1900);
        },
        [](const Instance& x) {
          // Correlated EXISTS on the unindexed job_history.dept_id.
          return Fmt(
              "SELECT d.dept_name FROM departments d WHERE d.budget > %.0f "
              "AND EXISTS (SELECT 1 FROM job_history j WHERE j.dept_id = "
              "d.dept_id AND j.start_date > '%s')",
              1e5 + x.v * 3e5, DateCut(0.05 + x.u * 0.5).c_str());
        }}});
  f.push_back(
      {"gb-view",
       {[n](const Instance& x) {
          return Fmt(
              "SELECT d.dept_name, v.avg_sal FROM departments d, (SELECT "
              "e.dept_id AS dept_id, AVG(e.salary) AS avg_sal FROM employees "
              "e WHERE e.salary > %s GROUP BY e.dept_id) v WHERE v.dept_id = "
              "d.dept_id AND d.loc_id = %d",
              SalaryCut(0.2 + x.u * 0.8).c_str(),
              (x.k * 11 + Pick(*x.rng, 11)) % n.locations);
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT c.cust_name, v.order_cnt FROM customers c, (SELECT "
              "o.cust_id AS cust_id, COUNT(o.order_id) AS order_cnt FROM "
              "orders o WHERE o.order_date > '%s' GROUP BY o.cust_id) v WHERE "
              "v.cust_id = c.cust_id AND c.segment = '%s'",
              DateCut(0.2 + x.u * 0.8).c_str(), kSegments[x.k % 4]);
        }}});
  f.push_back(
      {"distinct-view",
       {[](const Instance& x) {
          return Fmt(
              "SELECT e.employee_name, e.salary FROM employees e, (SELECT "
              "DISTINCT j.emp_id AS emp_id FROM job_history j WHERE "
              "j.start_date > '%s') v WHERE v.emp_id = e.emp_id AND e.salary "
              "> %s",
              DateCut(0.1 + x.v * 0.8).c_str(),
              SalaryCut(0.01 + x.u * 0.4).c_str());
        }}});
  f.push_back(
      {"union-view",
       {[](const Instance& x) {
          return Fmt(
              "SELECT c.cust_name, v.total FROM customers c, (SELECT "
              "o.cust_id AS cust_id, o.total AS total FROM orders o WHERE "
              "o.status = 'OPEN' UNION ALL SELECT o.cust_id, o.total FROM "
              "orders o WHERE o.status = 'SHIPPED' AND o.total > %.0f) v "
              "WHERE v.cust_id = c.cust_id AND c.country_id = '%s' AND "
              "c.segment = '%s'",
              500 + x.u * 3000, kCountries[x.k % 8],
              kSegments[(x.k / 8 + x.k) % 4]);
        }}});
  f.push_back(
      {"gbp",
       {[](const Instance& x) {
          return Fmt(
              "SELECT p.product_name, SUM(oi.price) AS rev, "
              "COUNT(oi.quantity) AS cnt FROM products p, order_items oi "
              "WHERE oi.product_id = p.product_id AND p.category_id < %d "
              "GROUP BY p.product_name",
              5 + static_cast<int>(x.u * 35));
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT c.cust_name, SUM(oi.price) AS rev FROM customers c, "
              "orders o, order_items oi WHERE o.cust_id = c.cust_id AND "
              "oi.order_id = o.order_id AND c.segment = '%s' GROUP BY "
              "c.cust_name",
              kSegments[x.k % 4]);
        },
        [n](const Instance& x) {
          return Fmt(
              "SELECT d.dept_name, SUM(e.salary) AS payroll, "
              "COUNT(e.emp_id) AS headcount FROM departments d, employees e "
              "WHERE e.dept_id = d.dept_id AND d.loc_id = %d GROUP BY "
              "d.dept_name",
              (x.k * 13 + Pick(*x.rng, 13)) % n.locations);
        }}});
  f.push_back(
      {"factorization",
       {[](const Instance& x) {
          // Different join columns per branch: only the lateral variant of
          // join factorization applies.
          std::string cut = SalaryCut(0.002 + x.u * 0.01);
          return Fmt(
              "SELECT e.employee_name, j.job_title FROM employees e, "
              "job_history j WHERE j.emp_id = e.emp_id AND e.salary > %s "
              "UNION ALL SELECT e.employee_name, j.job_title FROM employees "
              "e, job_history j WHERE j.dept_id = e.dept_id AND e.salary > "
              "%s",
              cut.c_str(), cut.c_str());
        },
        [](const Instance& x) {
          return Fmt(
              "SELECT j.job_title, d.dept_name FROM job_history j, "
              "departments d WHERE j.dept_id = d.dept_id AND d.loc_id = %d "
              "UNION ALL SELECT j.job_title, d.dept_name FROM job_history j, "
              "departments d WHERE j.dept_id = d.dept_id AND d.budget > %.0f",
              x.k % 20, 8e5 + x.u * 1.5e5);
        },
        [](const Instance& x) {
          std::string hi = SalaryCut(0.1 + x.u * 0.2);
          std::string lo = SalaryCut(0.9 + x.v * 0.08);
          return Fmt(
              "SELECT e.employee_name, d.dept_name FROM employees e, "
              "departments d WHERE e.dept_id = d.dept_id AND e.salary > %s "
              "UNION ALL SELECT e.employee_name, d.dept_name FROM employees "
              "e, departments d WHERE e.dept_id = d.dept_id AND e.salary < %s",
              hi.c_str(), lo.c_str());
        }}});
  f.push_back(
      {"pullup",
       {[](const Instance& x) {
          // expensive_filter in its one-argument identity form; the ROWNUM
          // cutoff over an ordered view with ties is checked by property.
          return Fmt(
              "SELECT v.order_id, v.total, v.order_date FROM (SELECT "
              "o.order_id AS order_id, o.total AS total, o.order_date AS "
              "order_date FROM orders o WHERE expensive_filter(o.total) > "
              "%.0f ORDER BY o.order_date) v WHERE rownum <= %d",
              100 + x.u * 4500, 5 + static_cast<int>(x.v * 40));
        }}});
  f.push_back(
      {"setop",
       {[](const Instance& x) {
          return Fmt(
              "SELECT o.cust_id FROM orders o WHERE o.status = '%s' %s SELECT "
              "o.cust_id FROM orders o WHERE o.total > %.0f",
              kStatuses[(x.k / 2) % 4], x.k % 2 == 0 ? "INTERSECT" : "MINUS",
              1000 + x.u * 3500);
        }}});
  f.push_back(
      {"or-expansion",
       {[n](const Instance& x) {
          int order = static_cast<int>(x.u * n.orders);
          int cust = static_cast<int>(x.v * n.customers);
          return Fmt(
              "SELECT o.order_id, o.total FROM orders o, customers c WHERE "
              "o.cust_id = c.cust_id AND (o.order_id = %d OR c.cust_id = %d)",
              order, cust);
        }}});
  f.push_back(
      {"window-view",
       {[n](const Instance& x) {
          return Fmt(
              "SELECT v.acct_id, v.time, v.ravg FROM (SELECT a.acct_id AS "
              "acct_id, a.time AS time, AVG(a.balance) OVER (PARTITION BY "
              "a.acct_id ORDER BY a.time) AS ravg FROM accounts a) v WHERE "
              "v.acct_id = %d AND v.time <= %d",
              static_cast<int>(x.u * n.accounts), 6 + static_cast<int>(x.v * 12));
        }}});
  return f;
}

/// Emits `per_template` instances of each template of `family` into `out`.
void EmitFamily(const Family& family, int per_template, BenchRng& rng,
                std::vector<Statement>* out) {
  for (const Template& t : family.templates) {
    for (int k = 0; k < per_template; ++k) {
      double u = (k + rng.Unit()) / per_template;
      double v = GoldenStratum(k, per_template, rng.Unit());
      Instance x{u, v, k, &rng};
      out->push_back(Statement{t(x), family.name});
    }
  }
}

void Shuffle(std::vector<Statement>* v, BenchRng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Below(i)]);
  }
}

std::vector<Statement> AnalyticRound(const DataSize& n, BenchRng& rng) {
  // Half of the round is plain SPJ (untouched by the cost-based
  // transformations), half is spread evenly over the eleven transformable
  // families.
  std::vector<Statement> out;
  std::vector<Family> families = AnalyticFamilies(n);
  for (const Family& f : families) {
    int per_family = std::string(f.name) == "spj" ? 132 : 12;
    int per_template = per_family / static_cast<int>(f.templates.size());
    EmitFamily(f, per_template, rng, &out);
  }
  Shuffle(&out, rng);
  return out;
}

// ---- search-heavy: many outer tables and transformable subqueries -------

std::vector<Statement> SearchRound(const DataSize& n, BenchRng& rng) {
  struct Outer {
    const char* from;
    const char* join;  // predicate joining it to the tables before it
    const char* column;
  };
  static const Outer kOuter[] = {
      {"employees e", nullptr, "e.employee_name"},
      {"departments d", "e.dept_id = d.dept_id", "d.dept_name"},
      {"locations l", "d.loc_id = l.loc_id", "l.city"},
      {"jobs jb", "e.job_id = jb.job_id", "jb.job_title"},
      {"orders o", "o.emp_id = e.emp_id", "o.order_id"},
      {"customers c", "o.cust_id = c.cust_id", "c.cust_name"},
  };
  // Each kind keeps most outer rows, so that most queries return rows.
  using SubGen = std::function<std::string(double, int)>;
  const std::vector<SubGen> kinds = {
      [](double u, int) {  // EXISTS
        return Fmt("EXISTS (SELECT 1 FROM job_history h1 WHERE h1.emp_id = "
                   "e.emp_id AND h1.start_date > '%s')",
                   DateCut(0.5 + u * 0.5).c_str());
      },
      [](double u, int) {  // NOT EXISTS
        return Fmt("NOT EXISTS (SELECT 1 FROM orders o2 WHERE o2.emp_id = "
                   "e.emp_id AND o2.total > %.0f)",
                   4000 + u * 900);
      },
      [](double u, int) {  // IN
        return Fmt("e.dept_id IN (SELECT d3.dept_id FROM departments d3 "
                   "WHERE d3.budget > %.0f)",
                   1e5 + u * 3e5);
      },
      [n](double u, int k) {  // NOT IN over a NOT NULL column
        return Fmt("e.job_id NOT IN (SELECT h4.job_id FROM job_history h4 "
                   "WHERE h4.dept_id = %d AND h4.start_date > '%s')",
                   (k * 7 + 3) % n.departments,
                   DateCut(0.05 + u * 0.2).c_str());
      },
      [](double u, int) {  // correlated aggregate
        return Fmt("e.salary * %.2f > (SELECT AVG(e5.salary) FROM employees "
                   "e5 WHERE e5.dept_id = e.dept_id)",
                   1.2 + u * 0.8);
      },
      [](double u, int) {  // correlated EXISTS on the department
        return Fmt("EXISTS (SELECT 1 FROM employees e6 WHERE e6.dept_id = "
                   "d.dept_id AND e6.salary > %s)",
                   SalaryCut(0.05 + u * 0.3).c_str());
      },
  };
  // View kinds join in FROM.
  struct View {
    std::function<std::string(double)> from;
    const char* join;
  };
  const std::vector<View> views = {
      {[](double u) {
         return Fmt("(SELECT h7.emp_id AS emp_id, COUNT(h7.job_id) AS cnt "
                    "FROM job_history h7 WHERE h7.start_date > '%s' GROUP BY "
                    "h7.emp_id) v7",
                    DateCut(0.6 + u * 0.4).c_str());
       },
       "v7.emp_id = e.emp_id"},
      {[](double u) {
         return Fmt("(SELECT DISTINCT o8.emp_id AS emp_id FROM orders o8 "
                    "WHERE o8.status <> '%s') v8",
                    kStatuses[static_cast<int>(u * 4) % 4]);
       },
       "v8.emp_id = e.emp_id"},
  };

  std::vector<Statement> out;
  // Two instances per start of the kind window: p99 then rests on the
  // slowest few statements of the round, not on one.
  const int kPerShape = 16;
  for (int tables = 3; tables <= 6; ++tables) {
    for (int subs = 4; subs <= 6; ++subs) {
      for (int k = 0; k < kPerShape; ++k) {
        double u = (k + rng.Unit()) / kPerShape;
        // `subs` distinct objects among the subquery and view kinds: a
        // window of the kind list whose start, k * 3 mod 8, takes each of
        // the eight positions equally often, so that every kind appears
        // equally often in every shape, whatever the seed.
        const int n_kinds = static_cast<int>(kinds.size() + views.size());
        std::vector<int> pool;
        for (int j = 0; j < subs; ++j) pool.push_back((k * 3 + j) % n_kinds);
        std::string select, from, where;
        for (int t = 0; t < tables; ++t) {
          select += (t ? ", " : "") + std::string(kOuter[t].column);
          from += (t ? ", " : "") + std::string(kOuter[t].from);
          if (kOuter[t].join != nullptr) {
            where += (where.empty() ? "" : " AND ") +
                     std::string(kOuter[t].join);
          }
        }
        for (int s = 0; s < subs; ++s) {
          int id = pool[static_cast<size_t>(s)];
          double su = (u + 0.37 * s) - static_cast<int>(u + 0.37 * s);
          if (id < static_cast<int>(kinds.size())) {
            where += " AND " + kinds[static_cast<size_t>(id)](su, k);
          } else {
            const View& v = views[static_cast<size_t>(id) - kinds.size()];
            from += ", " + v.from(su);
            where += " AND " + std::string(v.join);
          }
        }
        out.push_back(Statement{"SELECT " + select + " FROM " + from +
                                    " WHERE " + where,
                                Fmt("search-%dt-%ds", tables, subs)});
      }
    }
  }
  Shuffle(&out, rng);
  return out;
}

// ---- oltp-serving: point lookups and short indexed joins ----------------

std::vector<Statement> OltpRound(const DataSize& n, BenchRng& rng) {
  // Keys are spread evenly over each key range: the i-th instance of a
  // template gets the i-th stratum.
  const int kPoint = 360;  // per point template
  const int kJoin = 160;   // per join template
  auto key = [&rng](int i, int count, int range) {
    double u = (i + rng.Unit()) / count;
    return static_cast<int>(u * range);
  };
  std::vector<Statement> out;
  for (int i = 0; i < kPoint; ++i) {
    out.push_back({Fmt("SELECT c.cust_name, c.segment FROM customers c WHERE "
                       "c.cust_id = %d",
                       key(i, kPoint, n.customers)),
                   "point-customer"});
    out.push_back({Fmt("SELECT o.status, o.total FROM orders o WHERE "
                       "o.order_id = %d",
                       key(i, kPoint, n.orders)),
                   "point-order"});
    out.push_back({Fmt("SELECT p.product_name, p.list_price FROM products p "
                       "WHERE p.product_id = %d",
                       key(i, kPoint, n.products)),
                   "point-product"});
    out.push_back({Fmt("SELECT e.employee_name, e.salary FROM employees e "
                       "WHERE e.emp_id = %d",
                       key(i, kPoint, n.employees)),
                   "point-employee"});
  }
  for (int i = 0; i < kJoin; ++i) {
    out.push_back({Fmt("SELECT o.order_id, o.total FROM orders o, employees "
                       "e WHERE o.emp_id = e.emp_id AND e.emp_id = %d AND "
                       "o.status = '%s'",
                       key(i, kJoin, n.employees), kStatuses[i % 4]),
                   "join-employee-orders"});
    out.push_back({Fmt("SELECT o.order_id, o.status, o.total FROM orders o, "
                       "customers c WHERE o.cust_id = c.cust_id AND c.cust_id "
                       "= %d AND o.total > %.0f",
                       key(i, kJoin, n.customers), 10 + rng.Unit() * 500),
                   "join-customer-orders"});
    out.push_back({Fmt("SELECT oi.product_id, oi.quantity, oi.price FROM "
                       "order_items oi, orders o WHERE oi.order_id = "
                       "o.order_id AND o.order_id = %d",
                       key(i, kJoin, n.orders)),
                   "join-order-items"});
    out.push_back({Fmt("SELECT e.employee_name, d.dept_name FROM employees "
                       "e, departments d WHERE e.dept_id = d.dept_id AND "
                       "e.emp_id = %d",
                       key(i, kJoin, n.employees)),
                   "join-employee-dept"});
  }
  Shuffle(&out, rng);
  return out;
}

// ---- shared-reports: a few report templates, repeated -------------------

std::vector<Statement> ReportsRound(BenchRng& rng) {
  // Literal values per template. With MQO a statement's latency depends on
  // whether a session produced or consumed its shared scan, so the
  // latencies near the median are spread out; more distinct statements
  // fill the gaps between them, and p50 moves less from run to run.
  const int kVariants = 5;
  std::vector<Statement> out;
  for (int k = 0; k < kVariants; ++k) {
    double u = (k + rng.Unit()) / kVariants;
    out.push_back({Fmt("SELECT p.category_id, SUM(oi.price) AS revenue, "
                       "COUNT(oi.order_id) AS lines FROM order_items oi, "
                       "products p WHERE oi.product_id = p.product_id AND "
                       "p.list_price > %.0f GROUP BY p.category_id",
                       5 + u * 500),
                   "report-category-revenue"});
    out.push_back({Fmt("SELECT o.order_id, o.cust_id, o.total FROM orders o "
                       "WHERE o.order_date > '%s' ORDER BY o.total DESC",
                       DateCut(0.1 + u * 0.1).c_str()),
                   "report-recent-orders", 2, true});
    out.push_back({Fmt("SELECT DISTINCT o.cust_id, o.status FROM orders o "
                       "WHERE o.total > %.0f",
                       2500 + u * 2000),
                   "report-customer-status"});
    out.push_back({Fmt("SELECT c.segment, o.status, SUM(oi.price) AS rev, "
                       "COUNT(oi.product_id) AS items FROM customers c, orders "
                       "o, order_items oi WHERE o.cust_id = c.cust_id AND "
                       "oi.order_id = o.order_id AND c.country_id = '%s' "
                       "GROUP BY c.segment, o.status",
                       kCountries[(k * 3) % 8]),
                   "report-segment-status"});
    out.push_back({Fmt("SELECT oi.order_id, SUM(oi.price) AS amount, "
                       "COUNT(oi.product_id) AS items FROM order_items oi "
                       "WHERE oi.quantity >= %d GROUP BY oi.order_id",
                       1 + k * 2),
                   "report-order-amounts"});
    out.push_back({Fmt("SELECT c.cust_id, c.cust_name, SUM(o.total) AS spent, "
                       "COUNT(o.order_id) AS orders FROM customers c, orders "
                       "o WHERE o.cust_id = c.cust_id AND o.status = '%s' "
                       "GROUP BY c.cust_id, c.cust_name",
                       kStatuses[k % 4]),
                   "report-customer-spend"});
    out.push_back({Fmt("SELECT e.dept_id, AVG(e.salary) AS avg_salary, "
                       "COUNT(e.emp_id) AS staff FROM employees e WHERE "
                       "e.hire_date > '%s' GROUP BY e.dept_id",
                       DateCut(0.3 + u * 0.6).c_str()),
                   "report-dept-salary"});
  }
  Shuffle(&out, rng);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "analytic-mix", "search-heavy", "oltp-serving", "shared-reports"};
  return kNames;
}

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "analytic-mix") {
    s.size = DataSize{};
  } else if (name == "search-heavy") {
    s.size = DataSize::Scaled(100);
    s.sessions = 4;
    s.trace_single_session = true;
  } else if (name == "oltp-serving") {
    s.size = DataSize{};
    s.oltp_index = true;
    s.sessions = 4;
    s.session_tenants = {"interactive", "interactive", "batch", "batch"};
  } else if (name == "shared-reports") {
    s.size = DataSize{};
    s.sessions = 4;
    s.lockstep = true;
  } else {
    return false;
  }
  *spec = std::move(s);
  return true;
}

cbqt::CbqtConfig EngineConfig(const WorkloadSpec& spec,
                              const std::string& spill_dir) {
  cbqt::CbqtConfig config;  // CBQT on, no plan cache, no memory budget
  if (spec.name == "oltp-serving") {
    config.plan_cache.capacity = 4096;
    cbqt::SchedulerConfig& sched = config.guardrails.scheduler;
    sched.enabled = true;
    sched.max_concurrent = 4;
    sched.queue_timeout_ms = 10000;
    cbqt::TenantSpec interactive;
    interactive.name = "interactive";
    interactive.priority = 0;
    interactive.weight = 3;
    cbqt::TenantSpec batch;
    batch.name = "batch";
    batch.priority = 1;
    batch.weight = 1;
    sched.tenants = {interactive, batch};
  } else if (spec.name == "shared-reports") {
    config.plan_cache.capacity = 256;
    config.mqo.enabled = true;
    config.guardrails.query_memory_bytes = 2 << 20;
    config.exec.spill_dir = spill_dir;
  }
  return config;
}

std::vector<Statement> GenerateRound(const WorkloadSpec& spec, uint64_t seed) {
  BenchRng rng(MixSeed(seed, Fnv1a(spec.name)));
  if (spec.name == "analytic-mix") return AnalyticRound(spec.size, rng);
  if (spec.name == "search-heavy") return SearchRound(spec.size, rng);
  if (spec.name == "oltp-serving") return OltpRound(spec.size, rng);
  return ReportsRound(rng);
}

}  // namespace perfbench
