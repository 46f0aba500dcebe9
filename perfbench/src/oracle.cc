#include "oracle.h"

#include <sqlite3.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include "rng.h"

namespace perfbench {

namespace {

const char kMagic[] = "perfbench-oracle-v1";

void IdentityFunction(sqlite3_context* ctx, int argc, sqlite3_value** argv) {
  if (argc != 1 || sqlite3_value_type(argv[0]) == SQLITE_NULL) {
    sqlite3_result_null(ctx);
    return;
  }
  sqlite3_result_double(ctx, sqlite3_value_double(argv[0]));
}

std::string SqlType(cbqt::DataType t) {
  switch (t) {
    case cbqt::DataType::kInt64: return "INTEGER";
    case cbqt::DataType::kDouble: return "REAL";
    default: return "TEXT";
  }
}

bool HasSeparator(const std::string& s) {
  return s.find_first_of("\t\n") != std::string::npos;
}

void WriteCell(FILE* f, const Cell& c) {
  switch (c.kind) {
    case Cell::kNull: std::fputc('N', f); break;
    case Cell::kInt: std::fprintf(f, "I%" PRId64, c.i); break;
    case Cell::kReal: std::fprintf(f, "R%.17g", c.r); break;
    case Cell::kText: std::fprintf(f, "T%s", c.s.c_str()); break;
  }
}

bool ParseCell(const char* p, size_t len, Cell* c) {
  if (len == 0) return false;
  std::string body(p + 1, len - 1);
  switch (p[0]) {
    case 'N': *c = Cell::Null(); return true;
    case 'I': *c = Cell::Int(std::strtoll(body.c_str(), nullptr, 10)); return true;
    case 'R': *c = Cell::Real(std::strtod(body.c_str(), nullptr)); return true;
    case 'T': *c = Cell::Text(std::move(body)); return true;
  }
  return false;
}

bool ReadLine(FILE* f, std::string* line) {
  line->clear();
  int ch;
  while ((ch = std::fgetc(f)) != EOF && ch != '\n') line->push_back(static_cast<char>(ch));
  return ch != EOF || !line->empty();
}

}  // namespace

std::string ToSqliteDialect(const std::string& sql, int64_t* rownum_limit) {
  std::string out = sql;
  *rownum_limit = -1;
  const std::string kRownum = " WHERE rownum <= ";
  size_t pos = out.rfind(kRownum);
  if (pos != std::string::npos) {
    const std::string tail = out.substr(pos + kRownum.size());
    if (!tail.empty() &&
        tail.find_first_not_of("0123456789") == std::string::npos) {
      *rownum_limit = std::strtoll(tail.c_str(), nullptr, 10);
      out.erase(pos);
    }
  }
  for (size_t p = out.find(" MINUS "); p != std::string::npos;
       p = out.find(" MINUS ", p)) {
    out.replace(p, 7, " EXCEPT ");
  }
  return out;
}

SqliteOracle::~SqliteOracle() {
  if (db_ != nullptr) sqlite3_close(db_);
}

bool SqliteOracle::Exec(const std::string& sql, std::string* error) {
  char* msg = nullptr;
  if (sqlite3_exec(db_, sql.c_str(), nullptr, nullptr, &msg) != SQLITE_OK) {
    *error = "sqlite: " + std::string(msg ? msg : "?") + " in: " + sql;
    sqlite3_free(msg);
    return false;
  }
  return true;
}

bool SqliteOracle::Load(const BenchData& data, std::string* error) {
  if (sqlite3_open(":memory:", &db_) != SQLITE_OK) {
    *error = "sqlite: cannot open an in-memory database";
    return false;
  }
  sqlite3_create_function(db_, "expensive_filter", 1,
                          SQLITE_UTF8 | SQLITE_DETERMINISTIC, nullptr,
                          IdentityFunction, nullptr, nullptr);
  if (!Exec("BEGIN", error)) return false;
  for (const BenchTable& t : data.tables) {
    std::string ddl = "CREATE TABLE " + t.def.name + " (";
    std::string marks;
    for (size_t c = 0; c < t.def.columns.size(); ++c) {
      const cbqt::ColumnDef& col = t.def.columns[c];
      ddl += (c ? ", " : "") + col.name + " " + SqlType(col.type) +
             (col.nullable ? "" : " NOT NULL");
      marks += c ? ", ?" : "?";
    }
    if (!Exec(ddl + ")", error)) return false;
    sqlite3_stmt* ins = nullptr;
    std::string sql = "INSERT INTO " + t.def.name + " VALUES (" + marks + ")";
    if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &ins, nullptr) != SQLITE_OK) {
      *error = "sqlite: cannot prepare " + sql;
      return false;
    }
    for (const cbqt::Row& row : t.rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        const cbqt::Value& v = row[c];
        int i = static_cast<int>(c + 1);
        switch (v.kind()) {
          case cbqt::ValueKind::kNull: sqlite3_bind_null(ins, i); break;
          case cbqt::ValueKind::kInt64: sqlite3_bind_int64(ins, i, v.AsInt()); break;
          case cbqt::ValueKind::kDouble: sqlite3_bind_double(ins, i, v.AsDouble()); break;
          case cbqt::ValueKind::kString:
            sqlite3_bind_text(ins, i, v.AsString().c_str(),
                              static_cast<int>(v.AsString().size()),
                              SQLITE_TRANSIENT);
            break;
          case cbqt::ValueKind::kBool: sqlite3_bind_int64(ins, i, v.AsBool()); break;
        }
      }
      if (sqlite3_step(ins) != SQLITE_DONE) {
        *error = "sqlite: insert into " + t.def.name + " failed";
        sqlite3_finalize(ins);
        return false;
      }
      sqlite3_reset(ins);
    }
    sqlite3_finalize(ins);
    for (const cbqt::IndexDef& idx : t.def.indexes) {
      std::string cols;
      for (size_t c = 0; c < idx.columns.size(); ++c) {
        cols += (c ? ", " : "") + idx.columns[c];
      }
      if (!Exec(std::string(idx.unique ? "CREATE UNIQUE INDEX " : "CREATE INDEX ") +
                    idx.name + " ON " + t.def.name + " (" + cols + ")",
                error)) {
        return false;
      }
    }
  }
  return Exec("COMMIT", error) && Exec("ANALYZE", error);
}

bool SqliteOracle::Query(const std::string& sql, std::vector<CellRow>* rows,
                         std::string* error) {
  sqlite3_stmt* stmt = nullptr;
  if (sqlite3_prepare_v2(db_, sql.c_str(), -1, &stmt, nullptr) != SQLITE_OK) {
    *error = "sqlite: " + std::string(sqlite3_errmsg(db_)) + " in: " + sql;
    return false;
  }
  int rc;
  while ((rc = sqlite3_step(stmt)) == SQLITE_ROW) {
    int n = sqlite3_column_count(stmt);
    CellRow row;
    row.reserve(static_cast<size_t>(n));
    for (int c = 0; c < n; ++c) {
      switch (sqlite3_column_type(stmt, c)) {
        case SQLITE_INTEGER: row.push_back(Cell::Int(sqlite3_column_int64(stmt, c))); break;
        case SQLITE_FLOAT: row.push_back(Cell::Real(sqlite3_column_double(stmt, c))); break;
        case SQLITE_NULL: row.push_back(Cell::Null()); break;
        default: {
          const unsigned char* text = sqlite3_column_text(stmt, c);
          row.push_back(Cell::Text(text ? reinterpret_cast<const char*>(text) : ""));
          if (HasSeparator(row.back().s)) {
            *error = "oracle: text value with a tab or newline";
            sqlite3_finalize(stmt);
            return false;
          }
        }
      }
    }
    rows->push_back(std::move(row));
  }
  sqlite3_finalize(stmt);
  if (rc != SQLITE_DONE) {
    *error = "sqlite: " + std::string(sqlite3_errmsg(db_)) + " in: " + sql;
    return false;
  }
  return true;
}

bool SqliteOracle::Answer(const std::string& engine_sql, Expected* out,
                          std::string* error) {
  int64_t limit = -1;
  std::string sql = ToSqliteDialect(engine_sql, &limit);
  *out = Expected{};
  if (!Query(sql, &out->rows, error)) return false;
  if (limit < 0) return true;
  // ROWNUM: keep the qualifying rows whose order key (the last column) is
  // at most the limit-th smallest key.
  out->kind = Expected::kRownum;
  out->limit = limit;
  out->qualifying = static_cast<int64_t>(out->rows.size());
  auto less = [](const CellRow& a, const CellRow& b) {
    const Cell& x = a.back();
    const Cell& y = b.back();
    if (x.kind != y.kind) return x.kind < y.kind;
    if (x.kind == Cell::kText) return x.s < y.s;
    return x.number() < y.number();
  };
  for (const CellRow& r : out->rows) {
    if (r.empty()) {
      *error = "oracle: ROWNUM statement without an order key column";
      return false;
    }
  }
  std::sort(out->rows.begin(), out->rows.end(), less);
  if (limit > 0 && limit < out->qualifying) {
    const CellRow cut = out->rows[static_cast<size_t>(limit - 1)];
    auto end = std::upper_bound(out->rows.begin(), out->rows.end(), cut, less);
    out->rows.erase(end, out->rows.end());
  } else if (limit == 0) {
    out->rows.clear();
  }
  return true;
}

uint64_t OracleKey(const BenchData& data,
                   const std::vector<Statement>& statements) {
  uint64_t h = Fnv1a(kMagic) ^ data.Digest();
  for (const Statement& s : statements) h = Fnv1a(s.sql + "\n", h);
  return h;
}

bool WriteOracleFile(const std::string& path, uint64_t key,
                     const std::vector<Expected>& answers,
                     std::string* error) {
  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + tmp;
    return false;
  }
  std::fprintf(f, "%s %016" PRIx64 " %zu\n", kMagic, key, answers.size());
  std::vector<long> offsets;
  for (const Expected& e : answers) {
    offsets.push_back(std::ftell(f));
    std::fprintf(f, "Q %d %" PRId64 " %" PRId64 " %zu\n",
                 e.kind == Expected::kRownum ? 1 : 0, e.limit, e.qualifying,
                 e.rows.size());
    for (const CellRow& row : e.rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        if (c) std::fputc('\t', f);
        WriteCell(f, row[c]);
      }
      std::fputc('\n', f);
    }
  }
  long index_at = std::ftell(f);
  for (long off : offsets) std::fprintf(f, "%ld\n", off);
  std::fprintf(f, "INDEX %ld\n", index_at);
  bool ok = std::fclose(f) == 0;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

OracleFile::~OracleFile() {
  if (file_ != nullptr) std::fclose(file_);
}

bool OracleFile::Open(const std::string& path, uint64_t key, size_t count,
                      std::string* error) {
  file_ = std::fopen(path.c_str(), "r");
  if (file_ == nullptr) {
    *error = "no oracle answers at " + path;
    return false;
  }
  std::string line;
  char expect[96];
  std::snprintf(expect, sizeof(expect), "%s %016" PRIx64 " %zu", kMagic, key,
                count);
  if (!ReadLine(file_, &line) || line != expect) {
    *error = "oracle file " + path + " does not match the statements";
    return false;
  }
  // The trailer "INDEX <offset>" is the last line.
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  long back = std::min<long>(size, 64);
  std::fseek(file_, size - back, SEEK_SET);
  std::string tail(static_cast<size_t>(back), '\0');
  size_t got = std::fread(tail.data(), 1, tail.size(), file_);
  tail.resize(got);
  size_t at = tail.rfind("INDEX ");
  if (at == std::string::npos) {
    *error = "oracle file " + path + " has no index";
    return false;
  }
  long index_at = std::strtol(tail.c_str() + at + 6, nullptr, 10);
  std::fseek(file_, index_at, SEEK_SET);
  offsets_.clear();
  for (size_t i = 0; i < count; ++i) {
    if (!ReadLine(file_, &line)) {
      *error = "oracle file " + path + " has a short index";
      return false;
    }
    offsets_.push_back(std::strtol(line.c_str(), nullptr, 10));
  }
  return true;
}

bool OracleFile::Read(size_t index, Expected* out, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= offsets_.size()) {
    *error = "no oracle answer for statement " + std::to_string(index);
    return false;
  }
  std::fseek(file_, offsets_[index], SEEK_SET);
  std::string line;
  int kind = 0;
  long long limit = 0, qualifying = 0;
  size_t nrows = 0;
  if (!ReadLine(file_, &line) ||
      std::sscanf(line.c_str(), "Q %d %lld %lld %zu", &kind, &limit,
                  &qualifying, &nrows) != 4) {
    *error = "corrupt oracle entry " + std::to_string(index);
    return false;
  }
  *out = Expected{};
  out->kind = kind == 1 ? Expected::kRownum : Expected::kRows;
  out->limit = limit;
  out->qualifying = qualifying;
  out->rows.reserve(nrows);
  for (size_t r = 0; r < nrows; ++r) {
    if (!ReadLine(file_, &line)) {
      *error = "truncated oracle entry " + std::to_string(index);
      return false;
    }
    CellRow row;
    size_t start = 0;
    while (start <= line.size()) {
      size_t tab = line.find('\t', start);
      if (tab == std::string::npos) tab = line.size();
      Cell c;
      if (!ParseCell(line.data() + start, tab - start, &c)) {
        *error = "corrupt oracle cell in entry " + std::to_string(index);
        return false;
      }
      row.push_back(std::move(c));
      start = tab + 1;
    }
    out->rows.push_back(std::move(row));
  }
  return true;
}

}  // namespace perfbench
