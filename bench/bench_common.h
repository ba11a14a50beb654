// Shared helpers for the figure-reproduction benches. Every bench is
// deterministic: times are *simulated* seconds from the device cost model
// (the paper's own evaluation platform was an I/O-accurate simulator, so
// this is apples to apples). Scale is configurable:
//   ./fig08_cross_filtering --scale 0.2      (1.0 = the paper's 10M-row T0)
// or via GHOSTDB_SCALE. The default keeps the full suite under a few
// minutes; curve shapes and crossover selectivities are scale-invariant.
// Machine-readable results: every bench can take `--json FILE` and emit a
// JSON array of measurements (name, wall_ms, simulated seconds, flash and
// spill counters) alongside the human-readable table — what CI uploads as
// the BENCH_*.json trajectory artifacts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/database.h"
#include "plan/strategy.h"
#include "workload/medical.h"
#include "workload/synthetic.h"

namespace ghostdb::bench {

inline double ScaleArg(int argc, char** argv, double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--scale") == 0) {
      return std::atof(argv[i + 1]);
    }
  }
  if (const char* env = std::getenv("GHOSTDB_SCALE")) {
    return std::atof(env);
  }
  return fallback;
}

inline void Banner(const char* figure, const char* what, double scale) {
  std::printf("=== %s: %s ===\n", figure, what);
  std::printf("scale %.3f (1.0 = paper size); times are simulated seconds "
              "(I/O-accurate device model)\n\n", scale);
}

/// Builds the synthetic database once (slowest part of each bench). The
/// paper's figures are reproduced in the paper's raw wire format.
inline core::GhostDB* BuildSyntheticDb(double scale) {
  workload::SyntheticConfig wl;
  wl.scale = scale;
  auto cfg = workload::SyntheticDbConfig(wl);
  cfg.device.channel_wire_format = device::WireFormat::kRaw;
  cfg.exec.result_row_limit = 4;  // results stay on the secure display
  auto* db = new core::GhostDB(cfg);
  auto st = workload::BuildSynthetic(db, wl);
  if (!st.ok()) {
    std::fprintf(stderr, "synthetic build failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return db;
}

inline core::GhostDB* BuildMedicalDb(double scale) {
  workload::MedicalConfig wl;
  wl.scale = scale;
  auto cfg = workload::MedicalDbConfig(wl);
  cfg.device.channel_wire_format = device::WireFormat::kRaw;
  cfg.exec.result_row_limit = 4;
  auto* db = new core::GhostDB(cfg);
  auto st = workload::BuildMedical(db, wl);
  if (!st.ok()) {
    std::fprintf(stderr, "medical build failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return db;
}

/// Pins one strategy on the table carrying the visible selection.
inline plan::PlanChoice Pin(core::GhostDB& db, const std::string& table,
                            plan::VisStrategy strategy,
                            plan::ProjectAlgo project =
                                plan::ProjectAlgo::kProject) {
  plan::PlanChoice plan;
  auto t = db.schema().FindTable(table);
  if (t.ok()) plan.vis[*t] = strategy;
  plan.project = project;
  return plan;
}

/// Runs a pinned query and returns its metrics (aborts on error).
inline exec::QueryMetrics Run(core::GhostDB& db, const std::string& sql,
                              const plan::PlanChoice& plan) {
  auto r = db.QueryWithPlan(sql, plan);
  if (!r.ok()) {
    std::fprintf(stderr, "query failed: %s\nsql: %s\n",
                 r.status().ToString().c_str(), sql.c_str());
    std::exit(1);
  }
  return r->metrics;
}

inline double Sec(SimNanos ns) { return ToSeconds(ns); }

/// True when `flag` (e.g. "--smoke") appears among the arguments.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// \brief Collects measurements and, when `--json FILE` was passed, writes
/// them as a JSON array on destruction (or Write()). Without the flag it
/// is a no-op, so benches can Record() unconditionally.
class JsonReporter {
 public:
  JsonReporter(int argc, char** argv, const char* flag = "--json") {
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0) path_ = argv[i + 1];
    }
  }
  ~JsonReporter() { Write(); }

  bool enabled() const { return !path_.empty(); }

  /// One measurement: wall-clock, simulated cost, and the observable
  /// flash/spill counters of `m`. `status` is "ok" unless the run failed
  /// (the bench then records empty metrics).
  void Record(const std::string& name, double wall_ms, double sim_seconds,
              const exec::QueryMetrics& m,
              const std::string& status = "ok") {
    if (!enabled()) return;
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "  {\"name\": \"%s\", \"status\": \"%s\", \"wall_ms\": %.3f, "
        "\"sim_seconds\": %.6f, \"result_rows\": %llu, "
        "\"observed_volume\": %llu, \"padding_rows\": %llu, "
        "\"flash_pages_read\": %llu, \"flash_pages_written\": %llu, "
        "\"sort_spill_runs\": %llu, \"sort_spill_pages\": %llu, "
        "\"sort_merge_pages\": %llu, "
        "\"topk_short_circuits\": %llu, \"peak_ram_buffers\": %u}",
        name.c_str(), status.c_str(), wall_ms, sim_seconds,
        static_cast<unsigned long long>(m.result_rows),
        static_cast<unsigned long long>(m.observed_volume),
        static_cast<unsigned long long>(m.padding_rows),
        static_cast<unsigned long long>(m.flash.pages_read),
        static_cast<unsigned long long>(m.flash.pages_written),
        static_cast<unsigned long long>(m.sort_spill_runs),
        static_cast<unsigned long long>(m.sort_spill_pages),
        static_cast<unsigned long long>(m.sort_merge_pages),
        static_cast<unsigned long long>(m.topk_short_circuits),
        m.peak_ram_buffers);
    entries_.push_back(buf);
  }

  /// One free-form measurement: `fields` is the inner JSON of the object
  /// after its "name" key (caller formats its own keys). Used by entries
  /// that aren't a single query's metrics — e.g. the leakage bench's
  /// attack-accuracy records.
  void RecordCustom(const std::string& name, const std::string& fields) {
    if (!enabled()) return;
    entries_.push_back("  {\"name\": \"" + name + "\", " + fields + "}");
  }

  void Write() {
    if (!enabled() || written_) return;
    written_ = true;
    FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(out, "%s%s\n", entries_[i].c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("json results -> %s (%zu entries)\n", path_.c_str(),
                entries_.size());
  }

 private:
  std::string path_;
  std::vector<std::string> entries_;
  bool written_ = false;
};

/// The selectivity sweep used by Figs 8-13 (log-spaced like the paper's
/// x-axis).
inline std::vector<double> SvSweep() {
  return {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5};
}

}  // namespace ghostdb::bench
