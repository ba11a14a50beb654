// The measuring side of the benchmark: set-up, the closed-loop statement
// passes, and (in the traced run) spans around the calls into each layer.
// It records raw observations only; run.py turns them into metrics and
// checks the answers against the oracle's.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace ghostbench {

struct MeasureOptions {
  Kind kind = Kind::kPaperQ;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< receives meta.json, records.jsonl, ...
};

/// Runs one measured invocation and writes its raw files into
/// `options.out_dir`. Statement failures are recorded, never fatal; a
/// non-zero return means the benchmark itself could not run (set-up failed
/// or an output file could not be written).
int Measure(const MeasureOptions& options);

/// Evaluates every statement listed in `statements_path` ("q<TAB>sql" per
/// line) with the reference oracle over the workload's staged dataset and
/// writes one expected answer per line to `out_path`. Runs in its own
/// process so the oracle's retained copy of the data never counts towards
/// the measured process's memory.
int Oracle(Kind kind, uint64_t seed, const std::string& statements_path,
           const std::string& out_path);

}  // namespace ghostbench
