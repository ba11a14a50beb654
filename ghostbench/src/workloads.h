// The four benchmark workloads: how each one configures GhostDB, stages
// its dataset, and generates its statement stream. Everything here is a
// pure function of the workload and the seed; the library only ever sees
// the staged rows and the generated statement text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace ghostbench {

enum class Kind { kPaperQ, kServingMix, kTightPadded };

/// Shards of the fleet paper_q's traced run repeats its stream on.
inline constexpr uint32_t kFleetShards = 4;

std::optional<Kind> ParseKind(const std::string& name);
const char* KindName(Kind kind);

/// Rows materialized per answer (counts stay exact). The answer check
/// compares this prefix and the total row count with the oracle.
inline constexpr uint64_t kResultRowLimit = 64;

/// Timed rounds of the untraced run. Round 0 runs the whole stream;
/// every later round runs each episode's measured window again, on fresh
/// stores. A measured statement's latency is its least wall time over the
/// rounds, which keeps bursts of load from other processes on the host out
/// of the latency figures.
inline constexpr size_t kTimedRounds = 3;

/// Host threads the workloads may use (the process never runs more).
uint32_t HostThreads();

struct Spec {
  /// Closed-loop clients, each on its own thread.
  uint32_t clients = 1;
  /// Clients query through Session::Query (else GhostDB::Query).
  bool sessions = false;
  /// Stream statements per second of `--seconds`: `--seconds` x this is
  /// the stream length, chosen so that the untraced run (all its rounds
  /// and set-ups) lasts about `--seconds` on a 4-core x86 host at the
  /// parent commit of this benchmark. A run thus measures a fixed,
  /// seed-determined statement stream; fixed streams make the simulated
  /// counts and the failure fraction of single-client workloads repeat
  /// exactly.
  double nominal_sps = 100;
  /// Statements per episode (0 = the whole stream is one episode). Each
  /// episode runs on a freshly built store; see README.md for why.
  size_t episode_statements = 0;
  /// The measured window: the first this-many statements of each episode
  /// (0 = all of it) give the latency, throughput and per-statement cost
  /// figures; failures count over the whole episode. It ends before the
  /// allocator defect's failure onset on every dataset (README.md).
  size_t window_statements = 0;
};

Spec SpecOf(Kind kind);

/// Statements in the run (all clients together): `seconds` x nominal_sps,
/// rounded up to whole episodes.
size_t StreamLength(const Spec& spec, double seconds);

/// Episodes a client stream of `length` statements is run in.
size_t Episodes(const Spec& spec, size_t length);

/// GhostDB configuration of the workload. `worker_threads` 0 keeps the
/// workload's own pool width; `shard_count` 0 its single device.
ghostdb::core::GhostDBConfig DbConfig(Kind kind, uint32_t worker_threads,
                                      uint32_t shard_count,
                                      bool retain_staged_data);

/// Creates the schema and stages the dataset (no Build()).
ghostdb::Status StageData(ghostdb::core::GhostDB* db, Kind kind,
                          uint64_t seed);

struct Statements {
  std::vector<std::string> pool;  ///< distinct statement texts
  /// Per client, the closed-loop stream as indexes into `pool`.
  std::vector<std::vector<uint32_t>> streams;
};

/// `total` statements split over the workload's clients.
Statements MakeStatements(Kind kind, uint64_t seed, size_t total);

}  // namespace ghostbench
