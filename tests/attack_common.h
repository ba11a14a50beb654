// The adversarial observer: inference attacks over what an honest-but-
// curious channel watcher actually sees.
//
// Threat model (the paper's spy, made concrete): the observer sits on the
// Untrusted<->Secure wire and records every message's direction, label,
// size, and session tag, plus the per-query result volume (the row count
// the Secure key hands back — Untrusted renders the answer, so volume is
// inherently visible). The observer knows which queries were posed ("the
// only information revealed is which queries you pose") and knows the
// visible data. It cannot open the key or decrypt hidden cells.
//
// Two classic volume attacks (cf. volume-based attacks on encrypted
// databases) are implemented against that view:
//   - Volume-frequency: a workload of per-value equality predicates over a
//     hidden column; the observer ranks candidates by result volume and
//     recovers the skewed (hot) hidden value and the full selectivity
//     histogram.
//   - Co-occurrence: per-visible-group join probes; the observer ranks
//     groups by join volume and recovers where the hidden join keys
//     concentrate.
// A third, grouped volume-frequency, runs the first attack's per-value
// predicates under a GROUP BY on a visible column: the volume is then the
// number of visible groups the hidden value's rows fall in, which grows
// with the value's frequency.
//
// The harness measures attack accuracy across trials with fresh hidden
// seeds, against each ExecConfig::volume_padding mode. Header is
// deliberately gtest-free so bench/leakage_tradeoff.cc can reuse it
// verbatim — the bench measures exactly what the tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/database.h"
#include "device/channel.h"

namespace ghostdb::attack {

/// One query's worth of observer knowledge: the wire pattern
/// ("session:label:bytes" per message, in order) and the result volume
/// (live rows + padding dummies — the observer cannot tell them apart;
/// QueryMetrics::observed_volume). `ok` is false when the query failed —
/// the error/no-error bit itself is observable (see ARCHITECTURE.md,
/// residual channels).
struct Observation {
  bool ok = false;
  std::vector<std::string> wire;
  uint64_t volume = 0;
};

/// Runs `sql` and captures the observer's view of it.
inline Observation Observe(core::GhostDB* db, const std::string& sql) {
  Observation obs;
  db->device().channel().ClearTranscript();
  auto r = db->Query(sql);
  for (const auto& m : db->device().channel().transcript()) {
    obs.wire.push_back(std::to_string(m.session) + ":" + m.label + ":" +
                       std::to_string(m.bytes));
  }
  if (!r.ok()) return obs;
  obs.ok = true;
  obs.volume = r->metrics.observed_volume;
  return obs;
}

/// Shape of the planted skew: `domain` candidate values/groups, `rows`
/// fact rows, and the hot candidate holding `hot_permille`/1000 of the
/// mass (the rest spread uniformly). Visible layout and row counts are
/// identical across hidden seeds — only hidden cells move.
struct SkewSpec {
  uint32_t domain = 8;
  uint32_t rows = 600;
  uint32_t dim_rows = 120;       ///< join variant: dim table size
  uint32_t hot_permille = 450;
};

/// Ground truth for one planted database.
struct PlantedTruth {
  uint32_t hot = 0;                   ///< the skewed value / group
  std::vector<uint64_t> histogram;    ///< rows per candidate
};

/// Single-table histogram target: Obs(id, v, h HIDDEN) with h skewed
/// toward a hidden-rng-chosen hot value.
inline Status BuildSkewedHistogramDb(core::GhostDB* db, uint64_t hidden_seed,
                                     const SkewSpec& spec,
                                     PlantedTruth* truth) {
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE Obs (id INT, v INT, h INT HIDDEN)"));
  Rng visible(11);  // identical across hidden seeds
  Rng hidden(hidden_seed);
  truth->hot = static_cast<uint32_t>(hidden.Uniform(spec.domain));
  truth->histogram.assign(spec.domain, 0);
  GHOSTDB_ASSIGN_OR_RETURN(auto* staged, db->MutableStaging("Obs"));
  for (uint32_t i = 0; i < spec.rows; ++i) {
    uint32_t h = hidden.Uniform(1000) < spec.hot_permille
                     ? truth->hot
                     : static_cast<uint32_t>(hidden.Uniform(spec.domain));
    truth->histogram[h] += 1;
    GHOSTDB_RETURN_NOT_OK(staged->AppendRow(
        {catalog::Value::Int32(static_cast<int32_t>(visible.Uniform(100))),
         catalog::Value::Int32(static_cast<int32_t>(h))}));
  }
  return db->Build();
}

/// Join target: DimG(id, g, h HIDDEN) with visible group g = id % domain,
/// FactG(id, fk HIDDEN -> DimG, v) with hidden fks concentrated on the
/// hot group's dim rows.
inline Status BuildSkewedJoinDb(core::GhostDB* db, uint64_t hidden_seed,
                                const SkewSpec& spec, PlantedTruth* truth) {
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE DimG (id INT, g INT, h INT HIDDEN)"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE FactG (id INT, fk INT REFERENCES DimG HIDDEN, v INT)"));
  Rng visible(13);
  Rng hidden(hidden_seed);
  truth->hot = static_cast<uint32_t>(hidden.Uniform(spec.domain));
  truth->histogram.assign(spec.domain, 0);
  GHOSTDB_ASSIGN_OR_RETURN(auto* dim, db->MutableStaging("DimG"));
  for (uint32_t i = 0; i < spec.dim_rows; ++i) {
    GHOSTDB_RETURN_NOT_OK(dim->AppendRow(
        {catalog::Value::Int32(static_cast<int32_t>(i % spec.domain)),
         catalog::Value::Int32(static_cast<int32_t>(hidden.Uniform(100)))}));
  }
  uint32_t per_group = spec.dim_rows / spec.domain;
  GHOSTDB_ASSIGN_OR_RETURN(auto* fact, db->MutableStaging("FactG"));
  for (uint32_t i = 0; i < spec.rows; ++i) {
    uint32_t fk;
    if (hidden.Uniform(1000) < spec.hot_permille) {
      // A dim row whose id % domain == hot, i.e. the hot visible group.
      fk = truth->hot + spec.domain * hidden.Uniform(per_group);
    } else {
      fk = static_cast<uint32_t>(hidden.Uniform(spec.dim_rows));
    }
    truth->histogram[fk % spec.domain] += 1;
    GHOSTDB_RETURN_NOT_OK(fact->AppendRow(
        {catalog::Value::Int32(static_cast<int32_t>(fk)),
         catalog::Value::Int32(static_cast<int32_t>(visible.Uniform(100)))}));
  }
  return db->Build();
}

/// The per-candidate probe workloads the observer watches.
inline std::string HistogramProbe(uint32_t value) {
  return "SELECT Obs.id FROM Obs WHERE Obs.h = " + std::to_string(value);
}
inline std::string GroupedProbe(uint32_t value) {
  return "SELECT Obs.v, COUNT(*) FROM Obs WHERE Obs.h = " +
         std::to_string(value) + " GROUP BY Obs.v";
}
inline std::string JoinProbe(uint32_t group) {
  return "SELECT FactG.id FROM FactG, DimG WHERE FactG.fk = DimG.id "
         "AND DimG.g = " + std::to_string(group);
}

/// The inference step: the candidate with the largest observed volume.
/// Ties (the worst-case-padded picture: every probe the same size) are
/// broken uniformly at random — the attacker is reduced to guessing.
inline uint32_t ArgmaxVolume(const std::vector<Observation>& obs,
                             Rng* tie_rng) {
  uint64_t best = 0;
  for (const auto& o : obs) best = std::max(best, o.volume);
  std::vector<uint32_t> ties;
  for (uint32_t i = 0; i < obs.size(); ++i) {
    if (obs[i].volume == best) ties.push_back(i);
  }
  if (ties.empty()) return 0;
  return ties[tie_rng->Uniform(ties.size())];
}

/// Selectivity-histogram recovery error: the observer normalizes observed
/// volumes into a distribution and compares against the true hidden
/// histogram — total variation distance in [0, 1]. ~0 means full
/// selectivity recovery; padding pushes it toward the distance between
/// uniform and truth.
inline double HistogramRecoveryError(const std::vector<Observation>& obs,
                                     const std::vector<uint64_t>& truth) {
  double obs_total = 0, truth_total = 0;
  for (const auto& o : obs) obs_total += static_cast<double>(o.volume);
  for (uint64_t t : truth) truth_total += static_cast<double>(t);
  if (obs_total == 0 || truth_total == 0) return 1.0;
  double tv = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double p = static_cast<double>(obs[i].volume) / obs_total;
    double q = static_cast<double>(truth[i]) / truth_total;
    tv += p > q ? p - q : q - p;
  }
  return tv / 2.0;
}

/// Aggregate outcome of an attack campaign.
struct AttackReport {
  uint32_t trials = 0;
  uint32_t hits = 0;           ///< trials where argmax == planted hot
  double histogram_error = 0;  ///< mean HistogramRecoveryError
  double accuracy() const {
    return trials == 0 ? 0.0 : static_cast<double>(hits) / trials;
  }
  double chance(const SkewSpec& spec) const { return 1.0 / spec.domain; }
};

enum class AttackKind {
  kVolumeFrequency,
  kCoOccurrence,
  kGroupedVolumeFrequency,
};

/// The probe `kind`'s observer poses for candidate `c`.
inline std::string Probe(AttackKind kind, uint32_t c) {
  switch (kind) {
    case AttackKind::kVolumeFrequency: return HistogramProbe(c);
    case AttackKind::kCoOccurrence: return JoinProbe(c);
    case AttackKind::kGroupedVolumeFrequency: return GroupedProbe(c);
  }
  return "";
}

/// Runs `trials` independent campaigns: fresh hidden seed each, build the
/// planted database under `config`, observe the probe workload, infer.
inline Result<AttackReport> MeasureAttack(const core::GhostDBConfig& config,
                                          AttackKind kind, uint32_t trials,
                                          const SkewSpec& spec,
                                          uint64_t seed0) {
  AttackReport report;
  Rng tie_rng(seed0 ^ 0x9e3779b97f4a7c15ull);
  for (uint32_t t = 0; t < trials; ++t) {
    core::GhostDB db(config);
    PlantedTruth truth;
    if (kind == AttackKind::kCoOccurrence) {
      GHOSTDB_RETURN_NOT_OK(
          BuildSkewedJoinDb(&db, seed0 + 1000 * t + 1, spec, &truth));
    } else {
      GHOSTDB_RETURN_NOT_OK(
          BuildSkewedHistogramDb(&db, seed0 + 1000 * t + 1, spec, &truth));
    }
    std::vector<Observation> obs;
    for (uint32_t c = 0; c < spec.domain; ++c) {
      obs.push_back(Observe(&db, Probe(kind, c)));
      if (!obs.back().ok) {
        return Status::Internal("attack probe failed on candidate " +
                                std::to_string(c));
      }
    }
    report.trials += 1;
    if (ArgmaxVolume(obs, &tie_rng) == truth.hot) report.hits += 1;
    report.histogram_error += HistogramRecoveryError(obs, truth.histogram);
  }
  if (report.trials > 0) report.histogram_error /= report.trials;
  return report;
}

}  // namespace ghostdb::attack
