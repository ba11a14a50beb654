// Leakage vs performance: what each volume-padding mode buys and costs.
//
// Runs the same observer attacks as tests/leakage_attack_test.cc (shared
// harness, tests/attack_common.h), plus the grouped volume-frequency
// attack, against every ExecConfig::volume_padding mode, then measures the
// padding overhead on the probe workload (as is; with a visible predicate
// on the anchor, which tightens the worst-case bound to |Vis(Obs)|; and
// grouped on the visible Obs.v, which tightens it to Obs.v's distinct
// count) and on a spill-heavy sort. Emits attack
// accuracy (vs the 1/domain chance floor), histogram-recovery error,
// wall-clock, and simulated-cost overhead —
// CI uploads the --json output as BENCH_leakage_tradeoff.json, so the
// tradeoff curve is a tracked trajectory artifact:
//   off        -> attack ~1.0 accuracy, zero overhead (the baseline leak)
//   quantize   -> pow-2 volume buckets; cheap, strong skew may survive
//   worst_case -> constant volumes, attack at chance; highest overhead
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

#include "../tests/attack_common.h"
#include "bench_common.h"

using namespace ghostdb;
using attack::AttackKind;
using exec::VolumePadding;

namespace {

const char* AttackName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kVolumeFrequency: return "volume_frequency";
    case AttackKind::kCoOccurrence: return "co_occurrence";
    case AttackKind::kGroupedVolumeFrequency:
      return "grouped_volume_frequency";
  }
  return "?";
}

const char* ModeName(VolumePadding mode) {
  switch (mode) {
    case VolumePadding::kOff: return "off";
    case VolumePadding::kQuantize: return "quantize";
    case VolumePadding::kWorstCase: return "worst_case";
  }
  return "?";
}

core::GhostDBConfig ModeConfig(VolumePadding mode) {
  core::GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.exec.volume_padding = mode;
  cfg.exec.pad_spill_runs = mode != VolumePadding::kOff;
  return cfg;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct ProbeTotals {
  double sim_seconds = 0;
  unsigned long long volume = 0, pad_rows = 0;
  /// Every probe showed the same observed volume: the volume-frequency
  /// attack can only guess.
  bool constant_volume = true;
  double wall_ms = 0;
};

/// Runs `probe` for every hidden value under `mode`.
Result<ProbeTotals> RunProbes(
    VolumePadding mode, const attack::SkewSpec& spec,
    const std::function<std::string(uint32_t)>& probe) {
  core::GhostDB db(ModeConfig(mode));
  attack::PlantedTruth truth;
  GHOSTDB_RETURN_NOT_OK(attack::BuildSkewedHistogramDb(
      &db, /*hidden_seed=*/4242, spec, &truth));
  ProbeTotals totals;
  uint64_t first_volume = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (uint32_t v = 0; v < spec.domain; ++v) {
    GHOSTDB_ASSIGN_OR_RETURN(exec::QueryResult r, db.Query(probe(v)));
    if (v == 0) first_volume = r.metrics.observed_volume;
    if (r.metrics.observed_volume != first_volume) {
      totals.constant_volume = false;
    }
    totals.sim_seconds += bench::Sec(r.metrics.total_ns);
    totals.volume += r.metrics.observed_volume;
    totals.pad_rows += r.metrics.padding_rows;
  }
  totals.wall_ms = MsSince(t0);
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter reporter(argc, argv);
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  uint32_t trials = smoke ? 4 : 12;
  if (const char* env = std::getenv("GHOSTDB_ATTACK_TRIALS")) {
    trials = static_cast<uint32_t>(std::atoi(env));
  }
  attack::SkewSpec spec;
  std::printf("=== Leakage tradeoff: volume attacks vs padding modes ===\n");
  std::printf("%u trials per attack, domain %u, hot mass %.2f, chance %.3f\n\n",
              trials, spec.domain, spec.hot_permille / 1000.0,
              1.0 / spec.domain);

  const VolumePadding kModes[] = {VolumePadding::kOff,
                                  VolumePadding::kQuantize,
                                  VolumePadding::kWorstCase};

  // --- Attack accuracy per mode -------------------------------------------
  std::printf("%-12s %-26s %10s %10s %12s %10s\n", "padding", "attack",
              "accuracy", "chance", "hist_error", "wall_ms");
  for (VolumePadding mode : kModes) {
    for (AttackKind kind :
         {AttackKind::kVolumeFrequency, AttackKind::kCoOccurrence,
          AttackKind::kGroupedVolumeFrequency}) {
      const char* attack_name = AttackName(kind);
      auto t0 = std::chrono::steady_clock::now();
      auto report = attack::MeasureAttack(ModeConfig(mode), kind, trials,
                                          spec, /*seed0=*/4242);
      double wall_ms = MsSince(t0);
      if (!report.ok()) {
        std::fprintf(stderr, "attack failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      std::printf("%-12s %-26s %10.3f %10.3f %12.3f %10.1f\n",
                  ModeName(mode), attack_name, report->accuracy(),
                  report->chance(spec), report->histogram_error, wall_ms);
      char fields[256];
      std::snprintf(fields, sizeof(fields),
                    "\"status\": \"ok\", \"attack\": \"%s\", "
                    "\"padding\": \"%s\", \"trials\": %u, "
                    "\"accuracy\": %.4f, \"chance\": %.4f, "
                    "\"histogram_error\": %.4f, \"wall_ms\": %.3f",
                    attack_name, ModeName(mode), report->trials,
                    report->accuracy(), report->chance(spec),
                    report->histogram_error, wall_ms);
      reporter.RecordCustom(std::string("leakage.attack.") + attack_name +
                                "." + ModeName(mode),
                            fields);
    }
  }

  // --- Padding overhead on the probe workloads ----------------------------
  // "probes" are the attack's own (a hidden predicate only: worst_case pads
  // to Obs's row count); "vis_probes" AND a visible predicate on the
  // anchor, so worst_case pads only to |Vis(Obs)|; "grouped_probes" group
  // on the visible Obs.v, so worst_case pads only to Obs.v's distinct
  // count.
  struct ProbeSet {
    const char* name;
    std::function<std::string(uint32_t)> probe;
  };
  const ProbeSet kProbeSets[] = {
      {"probes", attack::HistogramProbe},
      {"vis_probes",
       [](uint32_t v) {
         return attack::HistogramProbe(v) + " AND Obs.v < 50";
       }},
      {"grouped_probes", attack::GroupedProbe},
  };
  for (const ProbeSet& set : kProbeSets) {
    std::printf("\n%s, e.g. %s:\n", set.name, set.probe(0).c_str());
    std::printf("%-12s %14s %14s %14s %12s %10s\n", "padding",
                "sim_seconds", "sim_overhead", "obs_volume", "pad_rows",
                "constant");
    double base_sim = 0;
    for (VolumePadding mode : kModes) {
      auto totals = RunProbes(mode, spec, set.probe);
      if (!totals.ok()) {
        std::fprintf(stderr, "probe failed: %s\n",
                     totals.status().ToString().c_str());
        return 1;
      }
      if (mode == VolumePadding::kOff) base_sim = totals->sim_seconds;
      double overhead = base_sim > 0 ? totals->sim_seconds / base_sim : 0.0;
      std::printf("%-12s %14.6f %14.2fx %14llu %12llu %10s\n",
                  ModeName(mode), totals->sim_seconds, overhead,
                  totals->volume, totals->pad_rows,
                  totals->constant_volume ? "yes" : "no");
      // Under worst_case every probe of a set must show one volume, or
      // the volume-frequency attack is no longer reduced to guessing.
      if (mode == VolumePadding::kWorstCase && !totals->constant_volume) {
        std::fprintf(stderr, "worst_case volumes vary across %s\n",
                     set.name);
        return 1;
      }
      char fields[320];
      std::snprintf(fields, sizeof(fields),
                    "\"status\": \"ok\", \"padding\": \"%s\", "
                    "\"sim_seconds\": %.6f, \"sim_overhead\": %.4f, "
                    "\"observed_volume\": %llu, \"padding_rows\": %llu, "
                    "\"constant_volume\": %s, \"wall_ms\": %.3f",
                    ModeName(mode), totals->sim_seconds, overhead,
                    totals->volume, totals->pad_rows,
                    totals->constant_volume ? "true" : "false",
                    totals->wall_ms);
      reporter.RecordCustom(std::string("leakage.overhead.") + set.name +
                                "." + ModeName(mode),
                            fields);
    }
  }

  // --- Spill-run padding overhead on a spilling sort ----------------------
  // A hidden predicate under the visible one: with a visible predicate
  // alone the sorter's input is exactly the worst-case bound, and
  // worst_case would have no dummy runs to show.
  std::printf("\nspilling ORDER BY (sort budget pinned to one buffer):\n");
  std::printf("%-12s %14s %12s %12s\n", "padding", "sim_seconds",
              "spill_runs", "pad_runs");
  for (VolumePadding mode : kModes) {
    auto cfg = ModeConfig(mode);
    cfg.exec.sort_budget_buffers = 1;
    core::GhostDB db(cfg);
    attack::PlantedTruth truth;
    auto st = attack::BuildSkewedHistogramDb(&db, /*hidden_seed=*/4242, spec,
                                             &truth);
    if (!st.ok()) {
      std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto t0 = std::chrono::steady_clock::now();
    auto r = db.Query("SELECT Obs.v FROM Obs WHERE Obs.v < 90 AND "
                      "Obs.h < 6 ORDER BY Obs.v");
    double wall_ms = MsSince(t0);
    if (!r.ok()) {
      std::fprintf(stderr, "sort failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    std::printf("%-12s %14.6f %12llu %12llu\n", ModeName(mode),
                bench::Sec(r->metrics.total_ns),
                static_cast<unsigned long long>(r->metrics.sort_spill_runs),
                static_cast<unsigned long long>(
                    r->metrics.padding_spill_runs));
    reporter.Record(std::string("leakage.spill_sort.") + ModeName(mode),
                    wall_ms, bench::Sec(r->metrics.total_ns), r->metrics);
  }
  std::printf("\nexpected: attacks succeed at padding=off, collapse to "
              "chance at worst_case; quantize sits between, at a fraction "
              "of worst_case's volume overhead\n");
  return 0;
}
