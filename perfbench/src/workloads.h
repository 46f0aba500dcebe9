#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cbqt/framework.h"
#include "datagen.h"

namespace perfbench {

/// One statement of a workload round and the query family it came from.
struct Statement {
  std::string sql;
  std::string family;
  /// The select column of a top-level ORDER BY, -1 when there is none; the
  /// rows are then also checked to be in that order.
  int order_column = -1;
  bool descending = false;
};

/// Everything that defines a workload except its seed.
struct WorkloadSpec {
  std::string name;
  DataSize size;
  bool oltp_index = false;
  /// Closed-loop client sessions (at most nproc = 4).
  int sessions = 1;
  /// Scheduler tenant of each session; empty when no scheduler runs.
  std::vector<std::string> session_tenants;
  /// Every session runs the round in the same order, and all start each
  /// statement together, so the same statement overlaps on every session.
  bool lockstep = false;
  /// The traced run replays on one session, so that each statement's
  /// traced and untraced runs are paired back to back.
  bool trace_single_session = false;
  /// The timed phase runs whole rounds until both the run time has passed
  /// and at least this many queries were timed (so that p99 has at least
  /// ten samples beyond it).
  int64_t min_timed_queries = 1000;
};

/// The names of all workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// False when `name` is not a workload.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

/// The engine configuration of a workload. `spill_dir` receives spill files
/// of the workloads that run under a memory budget.
cbqt::CbqtConfig EngineConfig(const WorkloadSpec& spec,
                              const std::string& spill_dir);

/// The statements of one round, generated from `seed` alone.
std::vector<Statement> GenerateRound(const WorkloadSpec& spec, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
