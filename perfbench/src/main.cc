// The engine benchmark. One process runs one workload:
//
//   perfbench oracle --workload W --seed S [--work-dir D]
//       computes the SQLite oracle's answers for the workload's statements
//       (cached under D/oracle, keyed by the data and the SQL);
//   perfbench run --workload W --seed S --seconds N --trace 0|1
//       [--work-dir D]
//       loads the data into the engine, runs and checks one warm-up round,
//       then measures, and prints one JSON result as its last line.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// alternates untraced rounds with rounds that replay every statement
// through the layers one call at a time, and reports the per-layer metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "binder/binder.h"
#include "cbqt/engine.h"
#include "cbqt/framework.h"
#include "check.h"
#include "datagen.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"
#include "oracle.h"
#include "parser/parser.h"
#include "trace.h"
#include "transform/transform_util.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build";
  std::string sql;  ///< probe mode: run this statement instead of a round
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atoi(v.c_str());
    else if (k == "--trace") a->trace = std::atoi(v.c_str());
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--sql") a->sql = v;
    else return false;
  }
  return (a->mode == "run" || a->mode == "oracle" || a->mode == "probe") && !a->workload.empty() &&
         a->seconds > 0;
}

std::string OraclePath(const Args& a, uint64_t key) {
  char name[160];
  std::snprintf(name, sizeof(name), "%s-%" PRIu64 "-%016" PRIx64 ".oracle",
                a.workload.c_str(), a.seed, key);
  return a.work_dir + "/oracle/" + name;
}

// ---- oracle mode ---------------------------------------------------------

int RunOracle(const Args& args, const WorkloadSpec& spec) {
  BenchData data = GenerateData(args.seed, spec.size, spec.oltp_index);
  std::vector<Statement> round = GenerateRound(spec, args.seed);
  const uint64_t key = OracleKey(data, round);
  std::string path = OraclePath(args, key);
  if (std::filesystem::exists(path)) {
    std::printf("oracle answers cached at %s\n", path.c_str());
    return 0;
  }
  std::filesystem::create_directories(args.work_dir + "/oracle");
  double t0 = NowMs();
  SqliteOracle oracle;
  std::string error;
  if (!oracle.Load(data, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::vector<Expected> answers(round.size());
  std::map<std::string, double> family_ms;
  for (size_t i = 0; i < round.size(); ++i) {
    double s0 = NowMs();
    if (!oracle.Answer(round[i].sql, &answers[i], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    family_ms[round[i].family] += NowMs() - s0;
  }
  for (const auto& [family, ms] : family_ms) {
    std::printf("oracle %-28s %10.1f ms\n", family.c_str(), ms);
  }
  if (!WriteOracleFile(path, key, answers, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("oracle answered %zu statements in %.1f s -> %s\n",
              round.size(), (NowMs() - t0) / 1000, path.c_str());
  return 0;
}

// ---- run mode --------------------------------------------------------------

/// Counters of one traced or untraced pass, summed over its queries.
struct Tally {
  int64_t queries = 0;
  // Untraced passes: the engine's own view of each Run.
  double run_ms = 0;
  double engine_optimize_ms = 0;
  double engine_execute_ms = 0;
  // Traced passes.
  double engine_path_ms = 0;  ///< parse + optimize + execute spans
  double prepare_wait_ms = 0;  ///< Prepare/Execute wall minus engine phases
  int64_t cbqt_queries = 0;    ///< queries whose CbqtStats were fresh
  int64_t states_evaluated = 0;
  int64_t interleaved_states = 0;
  int64_t blocks_planned = 0;
  int64_t blocks_cloned = 0;
  int64_t annotation_hits = 0;
  int64_t join_memo_hits = 0;
  int64_t join_memo_misses = 0;
  int64_t rows_processed = 0;
  int64_t batches = 0;
  int64_t subquery_executions = 0;
  int64_t subquery_cache_hits = 0;
  int64_t spilled_operators = 0;
  int64_t spill_bytes_written = 0;
  int64_t spill_bytes_read = 0;
  int64_t max_query_peak_bytes = 0;

  void Add(const Tally& o) {
    queries += o.queries;
    run_ms += o.run_ms;
    engine_optimize_ms += o.engine_optimize_ms;
    engine_execute_ms += o.engine_execute_ms;
    engine_path_ms += o.engine_path_ms;
    prepare_wait_ms += o.prepare_wait_ms;
    cbqt_queries += o.cbqt_queries;
    states_evaluated += o.states_evaluated;
    interleaved_states += o.interleaved_states;
    blocks_planned += o.blocks_planned;
    blocks_cloned += o.blocks_cloned;
    annotation_hits += o.annotation_hits;
    join_memo_hits += o.join_memo_hits;
    join_memo_misses += o.join_memo_misses;
    rows_processed += o.rows_processed;
    batches += o.batches;
    subquery_executions += o.subquery_executions;
    subquery_cache_hits += o.subquery_cache_hits;
    spilled_operators += o.spilled_operators;
    spill_bytes_written += o.spill_bytes_written;
    spill_bytes_read += o.spill_bytes_read;
    max_query_peak_bytes = std::max(max_query_peak_bytes,
                                    o.max_query_peak_bytes);
  }
  void AddCbqt(const cbqt::CbqtStats& s) {
    cbqt_queries += 1;
    states_evaluated += s.states_evaluated;
    interleaved_states += s.interleaved_states;
    blocks_planned += s.blocks_planned;
    blocks_cloned += s.blocks_cloned;
    annotation_hits += s.annotation_hits;
    join_memo_hits += s.join_memo_hits;
    join_memo_misses += s.join_memo_misses;
  }
  void AddExec(const cbqt::ExecStats& s) {
    rows_processed += s.rows_processed;
    batches += s.batches;
    subquery_executions += s.subquery_executions;
    subquery_cache_hits += s.subquery_cache_hits;
    spilled_operators += s.spilled_operators;
    spill_bytes_written += s.spill.bytes_written;
    spill_bytes_read += s.spill.bytes_read;
  }
};

/// One timed query: its latency and the statement it ran.
struct Sample {
  float ms;
  uint32_t statement;
};

/// Latency samples in fixed-size chunks: memory grows with the sample
/// count in small steps, not by doubling, so peak RSS does not jump with
/// small changes in throughput.
class SampleLog {
 public:
  void Add(double ms, size_t statement) {
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
    (*chunks_.back())[size_ % kChunk] =
        Sample{static_cast<float>(ms), static_cast<uint32_t>(statement)};
    ++size_;
  }
  const Sample& operator[](size_t i) const {
    return (*chunks_[i / kChunk])[i % kChunk];
  }
  size_t size() const { return size_; }

 private:
  static constexpr size_t kChunk = 1 << 13;
  using Chunk = std::array<Sample, kChunk>;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

/// What one session did in one phase.
struct SessionOutcome {
  SampleLog latencies_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double end_ms = 0;
  double check_ms = 0;  ///< time spent checking results, not the program's
  Tally tally;
  TraceBuffer trace;
};

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), spec_(std::move(spec)) {}
  ~Bench() {
    engine_.reset();  // closes any spill files before they are removed
    if (!spill_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(spill_dir_, ec);
    }
  }
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Set-up: data, engine, and one checked warm-up round. Returns false on
  /// an error that makes the run meaningless.
  bool SetUp(double process_start_ms);
  int Measure();
  int Trace();

 private:
  cbqt::QueryOptions OptionsFor(int session) const {
    cbqt::QueryOptions o;
    if (!spec_.session_tenants.empty()) {
      o.tenant = spec_.session_tenants[static_cast<size_t>(session)];
    }
    return o;
  }
  /// Checks `rows` of statement `i`: the ORDER BY order if it has one, and
  /// an exact match with a checked result (the warm-up's, or one checked
  /// before), else the oracle's answer within tolerance. Adds its own time
  /// to `o->check_ms`.
  void Verify(size_t i, const std::vector<cbqt::Row>& rows,
              SessionOutcome* o);
  /// Empty when `rows` are a correct result of statement `i`: in the
  /// order of its ORDER BY if it has one, and equal to the oracle's answer.
  std::string CheckAgainstOracle(size_t i, const std::vector<cbqt::Row>& rows);
  /// A wrong result: the run is reported incorrect.
  void Fail(const std::string& what);
  /// A failed operation (an error status): counted in `failed` by the
  /// caller, reported but not a wrong result.
  void Note(const std::string& what);
  /// Runs `passes` whole rounds on every session (or, with passes == 0,
  /// rounds until the deadline has passed and at least `min_queries`
  /// queries ran), calling `one(session, statement, query_id, outcome)`.
  /// With spec_.lockstep every session runs the round in the same order
  /// and all of them start each statement together.
  template <typename Fn>
  std::vector<SessionOutcome> RunSessions(int passes, double deadline_ms,
                                          int64_t min_queries, Fn one);
  /// One QueryEngine::Run, timed; counters go to `tally`.
  void RunUntraced(int session, size_t i, Tally* tally, SessionOutcome* o);
  void ReplaySingle(size_t i, uint64_t qid, SessionOutcome* out);
  void ReplaySubSteps(const cbqt::QueryBlock& parsed,
                      const cbqt::QueryBlock& chosen, uint64_t qid,
                      int parent, TraceBuffer* tb);
  void ReplayConcurrent(int session, size_t i, uint64_t qid,
                        SessionOutcome* out);
  using MetricList =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  void PrintResult(const MetricList& metrics, int64_t attempted,
                   int64_t failed);

  Args args_;
  WorkloadSpec spec_;
  std::vector<Statement> round_;
  cbqt::CbqtConfig config_;
  std::string spill_dir_;
  std::unique_ptr<cbqt::Database> db_;
  std::unique_ptr<cbqt::QueryEngine> engine_;
  std::unique_ptr<cbqt::CbqtOptimizer> optimizer_;
  std::unique_ptr<cbqt::PhysicalOptimizer> physical_;
  OracleFile oracle_;
  std::vector<uint64_t> fingerprints_;
  std::mutex accepted_mu_;
  /// Per statement, digests of further results that passed the oracle
  /// check (e.g. another summation order under another plan).
  std::vector<std::vector<uint64_t>> accepted_;
  LoadTimes load_;
  double setup_s_ = 0;
  std::atomic<int64_t> wrong_{0};
  std::atomic<uint64_t> next_query_id_{1};
  std::mutex error_mu_;
  std::string first_error_;
};

void Bench::Fail(const std::string& what) {
  wrong_.fetch_add(1);
  Note(what);
}

void Bench::Note(const std::string& what) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (first_error_.empty()) first_error_ = what;
}

std::string Bench::CheckAgainstOracle(size_t i,
                                      const std::vector<cbqt::Row>& rows) {
  const Statement& st = round_[i];
  std::string why;
  if (st.order_column >= 0) {
    why = CheckOrder(rows, static_cast<size_t>(st.order_column),
                     st.descending);
  }
  if (!why.empty()) return why;
  Expected expected;
  if (!oracle_.Read(i, &expected, &why)) return why;
  return CheckResult(FromEngineRows(rows), expected);
}

void Bench::Verify(size_t i, const std::vector<cbqt::Row>& rows,
                   SessionOutcome* o) {
  const double c0 = NowMs();
  const Statement& st = round_[i];
  const uint64_t fp = Fingerprint(rows);
  bool known = fp == fingerprints_[i];
  if (!known) {
    std::lock_guard<std::mutex> lock(accepted_mu_);
    const std::vector<uint64_t>& seen = accepted_[i];
    known = std::find(seen.begin(), seen.end(), fp) != seen.end();
  }
  std::string why;
  if (!known) {
    why = CheckAgainstOracle(i, rows);
    if (why.empty()) {
      std::lock_guard<std::mutex> lock(accepted_mu_);
      accepted_[i].push_back(fp);
    }
  } else if (st.order_column >= 0) {
    // The digest ignores row order.
    why = CheckOrder(rows, static_cast<size_t>(st.order_column),
                     st.descending);
  }
  if (!why.empty()) Fail("statement " + std::to_string(i) + ": " + why);
  o->check_ms += NowMs() - c0;
}

bool Bench::SetUp(double process_start_ms) {
  // setup_s is the program's set-up: the benchmark's own work in it
  // (generating the inputs, opening the oracle's answers, checking the
  // warm-up results) is timed and left out.
  double own_ms = 0;
  double t0 = NowMs();
  BenchData data = GenerateData(args_.seed, spec_.size, spec_.oltp_index);
  round_ = GenerateRound(spec_, args_.seed);
  std::string error;
  const uint64_t key = OracleKey(data, round_);
  if (!oracle_.Open(OraclePath(args_, key), key, round_.size(), &error)) {
    std::fprintf(stderr, "%s (run the oracle mode first)\n", error.c_str());
    return false;
  }
  accepted_.assign(round_.size(), {});
  own_ms += NowMs() - t0;
  spill_dir_ = args_.work_dir + "/spill-" + std::to_string(getpid());
  std::filesystem::create_directories(spill_dir_);
  db_ = std::make_unique<cbqt::Database>();
  cbqt::Status st = LoadIntoEngine(std::move(data), db_.get(), &load_);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return false;
  }
  config_ = EngineConfig(spec_, spill_dir_);
  engine_ = std::make_unique<cbqt::QueryEngine>(*db_, config_);
  if (args_.trace) {
    optimizer_ = std::make_unique<cbqt::CbqtOptimizer>(*db_, config_);
    physical_ = std::make_unique<cbqt::PhysicalOptimizer>(*db_);
  }
  // Warm-up: one round on one session, every result checked against the
  // oracle.
  fingerprints_.assign(round_.size(), 0);
  for (size_t i = 0; i < round_.size(); ++i) {
    auto r = engine_->Run(round_[i].sql, OptionsFor(0));
    if (!r.ok()) {
      // It fails again, and is counted, in the measured rounds.
      Note("statement " + std::to_string(i) + " failed: " +
           r.status().ToString() + " -- " + round_[i].sql);
      continue;
    }
    t0 = NowMs();
    fingerprints_[i] = Fingerprint(r->rows);
    std::string why = CheckAgainstOracle(i, r->rows);
    if (!why.empty()) {
      Fail("statement " + std::to_string(i) + " (" + round_[i].family +
           "): " + why + " -- " + round_[i].sql);
    }
    own_ms += NowMs() - t0;
  }
  setup_s_ = (NowMs() - process_start_ms - own_ms) / 1000;
  return true;
}

template <typename Fn>
std::vector<SessionOutcome> Bench::RunSessions(int passes, double deadline_ms,
                                               int64_t min_queries, Fn one) {
  const int sessions = spec_.sessions;
  const size_t n = round_.size();
  std::vector<SessionOutcome> out(static_cast<size_t>(sessions));
  std::atomic<int64_t> done{0};
  auto finished = [&](int pass) {
    if (passes > 0) return pass >= passes;
    return pass > 0 && NowMs() >= deadline_ms && done.load() >= min_queries;
  };
  // In lockstep all sessions start each statement together; the last one
  // to reach the barrier before a round's first statement decides, for
  // all, whether that round runs.
  bool stop = false;
  size_t step = 0;
  std::barrier start_statement(sessions, [&]() noexcept {
    if (step % n == 0) stop = finished(static_cast<int>(step / n));
    ++step;
  });
  auto body = [&](int s) {
    SessionOutcome& o = out[static_cast<size_t>(s)];
    size_t offset = spec_.lockstep ? 0
                                   : static_cast<size_t>(s) * n /
                                         static_cast<size_t>(sessions);
    for (int pass = 0; spec_.lockstep || !finished(pass); ++pass) {
      for (size_t j = 0; j < n; ++j) {
        if (spec_.lockstep) {
          start_statement.arrive_and_wait();
          if (stop) break;
        }
        size_t i = (offset + j) % n;
        one(s, i, next_query_id_.fetch_add(1), &o);
      }
      if (stop) break;
      done.fetch_add(static_cast<int64_t>(n));
    }
    o.end_ms = NowMs();
  };
  std::vector<std::thread> threads;
  for (int s = 1; s < sessions; ++s) threads.emplace_back(body, s);
  body(0);
  for (std::thread& t : threads) t.join();
  return out;
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024;
      }
    }
    std::fclose(f);
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

void Bench::PrintResult(const MetricList& metrics, int64_t attempted,
                        int64_t failed) {
  for (const auto& [name, vu] : metrics) {
    std::printf("%-32s %16.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("attempted %" PRId64 " failed %" PRId64 " wrong %" PRId64 "\n",
              attempted, failed, wrong_.load());
  if (!first_error_.empty()) {
    std::printf("first error: %s\n", first_error_.c_str());
  }
  std::string json = "{\"correct\": ";
  json += wrong_.load() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    double v = std::isfinite(metrics[i].second.first)
                   ? metrics[i].second.first
                   : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Bench::Measure() {
  const double start = NowMs();
  const double deadline = start + args_.seconds * 1000.0;
  auto outcomes = RunSessions(
      0, deadline, spec_.min_timed_queries,
      [this](int s, size_t i, uint64_t, SessionOutcome* o) {
        cbqt::QueryOptions opts = OptionsFor(s);
        double t0 = NowMs();
        auto r = engine_->Run(round_[i].sql, opts);
        o->latencies_ms.Add(NowMs() - t0, i);
        o->attempted += 1;
        if (!r.ok()) {
          o->failed += 1;
          Note("statement " + std::to_string(i) + " failed: " +
               r.status().ToString());
          return;
        }
        Verify(i, r->rows, o);
      });
  // Read before the samples are gathered below, so that peak RSS is the
  // program's and the session logs', not the benchmark's summary.
  const double peak_rss_mb = PeakRssMb();
  std::vector<double> latencies;
  std::map<std::string, std::vector<double>> by_family;
  int64_t attempted = 0, failed = 0;
  // Each session's rate over its own wall time, less the time it spent
  // checking results.
  double qps = 0;
  for (const SessionOutcome& o : outcomes) {
    for (size_t k = 0; k < o.latencies_ms.size(); ++k) {
      const Sample& x = o.latencies_ms[k];
      latencies.push_back(x.ms);
      by_family[round_[x.statement].family].push_back(x.ms);
    }
    attempted += o.attempted;
    failed += o.failed;
    qps += static_cast<double>(o.attempted - o.failed) /
           ((o.end_ms - start - o.check_ms) / 1000);
  }
  for (auto& [family, ms] : by_family) {
    std::sort(ms.begin(), ms.end());
    std::printf("family %-28s %8zu queries  p50 %10.4f ms  max %10.4f ms\n",
                family.c_str(), ms.size(), ms[ms.size() / 2], ms.back());
  }
  double p50 = 0, p99 = 0;
  if (!Percentile(&latencies, 0.5, &p50) ||
      !Percentile(&latencies, 0.99, &p99)) {
    std::fprintf(stderr, "too few samples for p99: %zu\n", latencies.size());
    return 1;
  }
  MetricList m = {
      {"setup_s", {setup_s_, "s"}},
      {"qps", {qps, "1/s"}},
      {"latency_p50_ms", {p50, "ms"}},
      {"latency_p99_ms", {p99, "ms"}},
      {"peak_rss_mb", {peak_rss_mb, "MB"}},
  };
  PrintResult(m, attempted, failed);
  return 0;
}

/// Replays the sub-steps the engine runs inside CbqtOptimizer::Optimize as
/// separate calls: bind and the heuristic phase on a fresh copy of the
/// parsed tree, and physical planning of the chosen tree. They run after
/// the engine path (parse, optimize, execute), so the engine path sees the
/// same cache state it would without them.
void Bench::ReplaySubSteps(const cbqt::QueryBlock& parsed,
                           const cbqt::QueryBlock& chosen, uint64_t qid,
                           int parent, TraceBuffer* tb) {
  int sp = tb->Begin(qid, "bind", parent);
  std::unique_ptr<cbqt::QueryBlock> tree = parsed.Clone();
  cbqt::Status st = cbqt::BindQuery(*db_, tree.get());
  tb->End(sp);
  sp = tb->Begin(qid, "heuristic", parent);
  if (st.ok()) {
    cbqt::TransformContext ctx{tree.get(), db_.get()};
    st = cbqt::ApplyHeuristicTransformations(ctx, cbqt::HeuristicOptions{});
    if (st.ok()) st = cbqt::BindQuery(*db_, tree.get());
  }
  tb->End(sp);
  if (!st.ok()) Note("replay bind/heuristic failed: " + st.ToString());
  sp = tb->Begin(qid, "final_plan", parent);
  auto final_plan = physical_->Optimize(chosen);
  tb->End(sp);
  if (!final_plan.ok()) {
    Note("replay final plan failed: " + final_plan.status().ToString());
  }
}

void Bench::ReplaySingle(size_t i, uint64_t qid, SessionOutcome* o) {
  TraceBuffer& tb = o->trace;
  o->attempted += 1;
  const std::string& sql = round_[i].sql;
  int q = tb.Begin(qid, "query", -1);
  int sp = tb.Begin(qid, "parse", q);
  auto parsed = cbqt::ParseSql(sql);
  double parse_ms = tb.End(sp);
  if (!parsed.ok()) {
    tb.End(q);
    o->failed += 1;
    Note("replay parse failed: " + parsed.status().ToString());
    return;
  }
  sp = tb.Begin(qid, "optimize", q);
  auto opt = optimizer_->Optimize(*parsed.value());
  double optimize_ms = tb.End(sp);
  if (!opt.ok()) {
    tb.End(q);
    o->failed += 1;
    Note("replay optimize failed: " + opt.status().ToString());
    return;
  }
  sp = tb.Begin(qid, "execute", q);
  cbqt::Executor executor(*db_, config_.exec);
  auto res = executor.Execute(*opt->plan);
  double execute_ms = tb.End(sp);
  ReplaySubSteps(*parsed.value(), *opt->tree, qid, q, &tb);
  tb.End(q);
  if (!res.ok()) {
    o->failed += 1;
    Note("replay execute failed: " + res.status().ToString());
    return;
  }
  o->tally.queries += 1;
  o->tally.engine_path_ms += parse_ms + optimize_ms + execute_ms;
  o->tally.AddCbqt(opt->stats);
  o->tally.AddExec(res->stats);
  Verify(i, res->rows, o);
}

void Bench::ReplayConcurrent(int session, size_t i, uint64_t qid,
                             SessionOutcome* o) {
  TraceBuffer& tb = o->trace;
  o->attempted += 1;
  const std::string& sql = round_[i].sql;
  cbqt::QueryOptions opts = OptionsFor(session);
  int q = tb.Begin(qid, "query", -1);
  int sp = tb.Begin(qid, "parse", q);
  auto parsed = cbqt::ParseSql(sql);
  double parse_ms = tb.End(sp);
  if (!parsed.ok()) {
    tb.End(q);
    o->failed += 1;
    Note("replay parse failed: " + parsed.status().ToString());
    return;
  }
  sp = tb.Begin(qid, "optimize", q);
  auto prepared = engine_->Prepare(sql, opts);
  double prepare_ms = tb.End(sp);
  if (!prepared.ok()) {
    tb.End(q);
    o->failed += 1;
    Note("prepare failed: " + prepared.status().ToString());
    return;
  }
  const double optimize_ms = prepared->optimize_ms;
  const bool from_cache = prepared->from_plan_cache;
  cbqt::CbqtStats stats = prepared->stats;
  std::unique_ptr<cbqt::QueryBlock> chosen = prepared->tree->Clone();
  sp = tb.Begin(qid, "execute", q);
  auto res = engine_->Execute(std::move(prepared.value()), opts);
  double execute_ms = tb.End(sp);
  ReplaySubSteps(*parsed.value(), *chosen, qid, q, &tb);
  tb.End(q);
  if (!res.ok()) {
    o->failed += 1;
    Note("execute failed: " + res.status().ToString());
    return;
  }
  o->tally.queries += 1;
  o->tally.engine_path_ms += parse_ms + prepare_ms + execute_ms;
  o->tally.prepare_wait_ms +=
      (prepare_ms - optimize_ms) + (execute_ms - res->execute_ms);
  if (!from_cache) o->tally.AddCbqt(stats);
  o->tally.AddExec(res->exec);
  o->tally.max_query_peak_bytes =
      std::max(o->tally.max_query_peak_bytes, res->peak_memory_bytes);
  Verify(i, res->rows, o);
}

void Bench::RunUntraced(int session, size_t i, Tally* tally,
                        SessionOutcome* o) {
  double t0 = NowMs();
  auto r = engine_->Run(round_[i].sql, OptionsFor(session));
  double ms = NowMs() - t0;
  o->attempted += 1;
  if (!r.ok()) {
    o->failed += 1;
    Note("statement failed: " + r.status().ToString());
    return;
  }
  tally->queries += 1;
  tally->run_ms += ms;
  tally->engine_optimize_ms += r->prepared.optimize_ms;
  tally->engine_execute_ms += r->execute_ms;
  Verify(i, r->rows, o);
}

int Bench::Trace() {
  const double start = NowMs();
  const double deadline = start + args_.seconds * 1000.0;
  const bool single = spec_.sessions == 1;
  Tally plain, traced;
  int64_t attempted = 0, failed = 0;
  std::vector<SessionOutcome> kept;  // traced outcomes, for the spans
  do {
    std::vector<SessionOutcome> with_spans;
    if (single) {
      // Each statement runs untraced and traced back to back, in
      // alternating order, so that drift in machine speed and the cache
      // warmth one leaves for the other fall on both sides alike. The one
      // session runs on this thread, so `plain` needs no lock.
      with_spans = RunSessions(
          1, 0, 0, [this, &plain](int, size_t i, uint64_t qid,
                                  SessionOutcome* o) {
            if (qid % 2 == 0) RunUntraced(0, i, &plain, o);
            ReplaySingle(i, qid, o);
            if (qid % 2 == 1) RunUntraced(0, i, &plain, o);
          });
    } else {
      auto untraced = RunSessions(
          1, 0, 0, [this](int s, size_t i, uint64_t, SessionOutcome* o) {
            RunUntraced(s, i, &o->tally, o);
          });
      for (const SessionOutcome& o : untraced) {
        plain.Add(o.tally);
        attempted += o.attempted;
        failed += o.failed;
      }
      with_spans = RunSessions(
          1, 0, 0, [this](int s, size_t i, uint64_t qid, SessionOutcome* o) {
            ReplayConcurrent(s, i, qid, o);
          });
    }
    for (SessionOutcome& o : with_spans) {
      traced.Add(o.tally);
      attempted += o.attempted;
      failed += o.failed;
      kept.push_back(std::move(o));
    }
  } while (NowMs() < deadline);

  std::vector<const TraceBuffer*> buffers;
  for (const SessionOutcome& o : kept) buffers.push_back(&o.trace);
  std::map<std::string, double> self_ms = SelfTimes(buffers);
  std::filesystem::create_directories(args_.work_dir + "/traces");
  WriteSpans(args_.work_dir + "/traces/" + args_.workload + "-" +
                 std::to_string(args_.seed) + ".jsonl",
             buffers);

  auto per_query = [](double total, int64_t n) {
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double nq = static_cast<double>(std::max<int64_t>(traced.queries, 1));
  auto layer_ms = [&](const char* name) {
    return self_ms[name] / nq;
  };
  const int64_t cbqt_n = traced.cbqt_queries;
  cbqt::PlanCacheStats pc = engine_->plan_cache_stats();
  cbqt::GuardrailStats gs = engine_->guardrail_stats();
  cbqt::MqoStats mq = engine_->mqo_stats();
  int64_t queued = 0;
  if (engine_->scheduler_enabled()) queued = engine_->scheduler_stats().queued;
  const double engine_queries =
      static_cast<double>(std::max<int64_t>(plain.queries + traced.queries, 1));
  const double wait_ms =
      single ? per_query(plain.run_ms - plain.engine_optimize_ms -
                             plain.engine_execute_ms,
                         plain.queries)
             : per_query(traced.prepare_wait_ms, traced.queries);
  const double plain_ms = per_query(plain.run_ms, plain.queries);
  const double traced_ms = per_query(traced.engine_path_ms, traced.queries);
  const double path_ms = layer_ms("parse") + layer_ms("optimize") +
                         layer_ms("execute");
  MetricList m = {
      {"storage.load_ms", {load_.load_ms, "ms"}},
      {"storage.index_build_ms", {load_.index_build_ms, "ms"}},
      {"storage.analyze_ms", {load_.analyze_ms, "ms"}},
      {"parser.parse_ms", {layer_ms("parse"), "ms"}},
      {"binder.bind_ms", {layer_ms("bind"), "ms"}},
      {"transform.heuristic_ms", {layer_ms("heuristic"), "ms"}},
      {"cbqt.optimize_ms", {layer_ms("optimize"), "ms"}},
      {"cbqt.optimize_share", {ratio(layer_ms("optimize"), path_ms), "ratio"}},
      {"cbqt.states_evaluated",
       {per_query(static_cast<double>(traced.states_evaluated), cbqt_n),
        "1/query"}},
      {"cbqt.interleaved_states",
       {per_query(static_cast<double>(traced.interleaved_states), cbqt_n),
        "1/query"}},
      {"cbqt.blocks_planned",
       {per_query(static_cast<double>(traced.blocks_planned), cbqt_n),
        "1/query"}},
      {"cbqt.blocks_cloned",
       {per_query(static_cast<double>(traced.blocks_cloned), cbqt_n),
        "1/query"}},
      {"cbqt.annotation_hit_ratio",
       {ratio(static_cast<double>(traced.annotation_hits),
              static_cast<double>(traced.annotation_hits +
                                  traced.blocks_planned)),
        "ratio"}},
      {"cbqt.join_memo_hit_ratio",
       {ratio(static_cast<double>(traced.join_memo_hits),
              static_cast<double>(traced.join_memo_hits +
                                  traced.join_memo_misses)),
        "ratio"}},
      {"optimizer.final_plan_ms", {layer_ms("final_plan"), "ms"}},
      {"cbqt.plan_cache_hit_ratio", {pc.hit_rate(), "ratio"}},
      {"cbqt.prepare_hit_ms", {per_query(pc.hit_prepare_ms_total, pc.hit_prepares), "ms"}},
      {"cbqt.prepare_miss_ms", {per_query(pc.miss_prepare_ms_total, pc.miss_prepares), "ms"}},
      {"cbqt.rebind_recosts", {static_cast<double>(pc.rebind_recosts), "count"}},
      {"cbqt.admission_wait_ms", {wait_ms, "ms"}},
      {"cbqt.admission_queued",
       {static_cast<double>(queued) / engine_queries, "1/query"}},
      {"cbqt.mqo_scan_streams",
       {static_cast<double>(mq.scan_streams + mq.materialize_streams) /
            engine_queries,
        "1/query"}},
      {"cbqt.mqo_consumers_per_stream",
       {ratio(static_cast<double>(mq.scan_consumers),
              static_cast<double>(mq.scan_streams + mq.materialize_streams)),
        "ratio"}},
      {"cbqt.mqo_rows_shared",
       {static_cast<double>(mq.rows_shared) / engine_queries, "1/query"}},
      {"cbqt.mqo_subplan_hits",
       {static_cast<double>(mq.shared_subplan_hits) / engine_queries,
        "1/query"}},
      {"cbqt.mqo_pressure_fallbacks",
       {static_cast<double>(mq.pressure_fallbacks), "count"}},
      {"exec.execute_ms", {layer_ms("execute"), "ms"}},
      {"exec.rows_processed",
       {static_cast<double>(traced.rows_processed) / nq, "1/query"}},
      {"exec.rows_per_ms",
       {ratio(static_cast<double>(traced.rows_processed),
              self_ms["execute"]),
        "1/ms"}},
      {"exec.batches", {static_cast<double>(traced.batches) / nq, "1/query"}},
      {"exec.subquery_executions",
       {static_cast<double>(traced.subquery_executions) / nq, "1/query"}},
      {"exec.subquery_cache_hit_ratio",
       {ratio(static_cast<double>(traced.subquery_cache_hits),
              static_cast<double>(traced.subquery_executions +
                                  traced.subquery_cache_hits)),
        "ratio"}},
      {"exec.spilled_operators",
       {static_cast<double>(traced.spilled_operators) / nq, "1/query"}},
      {"exec.spill_bytes_written",
       {static_cast<double>(traced.spill_bytes_written) / nq, "B/query"}},
      {"exec.spill_bytes_read",
       {static_cast<double>(traced.spill_bytes_read) / nq, "B/query"}},
      {"cbqt.engine_peak_bytes", {static_cast<double>(gs.engine_peak_bytes), "B"}},
      {"cbqt.max_query_peak_bytes",
       {static_cast<double>(traced.max_query_peak_bytes), "B"}},
      {"trace.untraced_run_ms", {plain_ms, "ms"}},
      {"trace.traced_path_ms", {traced_ms, "ms"}},
      {"trace.overhead_pct", {100 * ratio(traced_ms - plain_ms, plain_ms), "%"}},
  };
  PrintResult(m, attempted, failed);
  return 0;
}

/// Runs each statement of one round once, unchecked, and prints its
/// engine phase times; for looking at a workload's make-up.
int RunProbe(const Args& args, const WorkloadSpec& spec) {
  BenchData data = GenerateData(args.seed, spec.size, spec.oltp_index);
  std::vector<Statement> round = GenerateRound(spec, args.seed);
  if (!args.sql.empty()) round = {Statement{args.sql, "ad-hoc"}};
  cbqt::Database db;
  LoadTimes load;
  cbqt::Status st = LoadIntoEngine(std::move(data), &db, &load);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::string spill_dir = args.work_dir + "/spill-" + std::to_string(getpid());
  std::filesystem::create_directories(spill_dir);
  cbqt::QueryEngine engine(db, EngineConfig(spec, spill_dir));
  std::printf("%-6s %-28s %10s %10s %10s %8s %6s  %s\n", "stmt", "family",
              "run_ms", "opt_ms", "exec_ms", "rows", "states", "sql");
  for (size_t i = 0; i < round.size(); ++i) {
    double t0 = NowMs();
    auto r = engine.Run(round[i].sql);
    double ms = NowMs() - t0;
    if (!r.ok()) {
      std::printf("%-6zu %-28s failed: %s\n", i, round[i].family.c_str(),
                  r.status().ToString().c_str());
      continue;
    }
    std::printf("%-6zu %-28s %10.3f %10.3f %10.3f %8zu %6d  %s\n", i,
                round[i].family.c_str(), ms, r->prepared.optimize_ms,
                r->execute_ms, r->rows.size(),
                r->prepared.stats.states_evaluated, round[i].sql.c_str());
    if (!args.sql.empty()) {
      std::printf("%s", cbqt::PlanToString(*r->prepared.plan).c_str());
    }
    std::fflush(stdout);
  }
  std::filesystem::remove_all(spill_dir);
  return 0;
}

int Main(int argc, char** argv) {
  const double process_start = NowMs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench run|oracle|probe --workload W --seed S "
                 "[--seconds N] [--trace 0|1] [--work-dir D]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "oracle") return RunOracle(args, spec);
  if (args.mode == "probe") return RunProbe(args, spec);
  if (args.trace && spec.trace_single_session) spec.sessions = 1;
  Bench bench(args, spec);
  bool ok = bench.SetUp(process_start);
  int rc = ok ? (args.trace ? bench.Trace() : bench.Measure()) : 1;
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
