// The adversarial side of the security story: instead of asserting
// transcripts are identical (leak_test.cc), this suite *runs the attacks*
// an honest-but-curious channel observer would mount — volume-frequency
// inference of hidden predicate selectivities and co-occurrence inference
// of hidden join-key distributions — and measures what they recover under
// each ExecConfig::volume_padding mode.
//
// The negative controls are the point of the harness: against a
// deliberately leaky configuration (padding off, strongly skewed hidden
// data) the attacks MUST succeed, or the defense tests below would pass
// vacuously. Under kWorstCase padding the same attacks must collapse to
// random guessing.
//
// Env knobs (CI's nightly sweep raises them):
//   GHOSTDB_ATTACK_TRIALS      attack campaigns per assertion (default 12)
//   GHOSTDB_ATTACK_FUZZ_ITERS  fuzz queries for volume invariance (default 40)
//   GHOSTDB_ATTACK_FUZZ_SEED   visible seed for the fuzz sweep (default 77)
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "attack_common.h"
#include "common/rng.h"
#include "core/database.h"
#include "exec/operator.h"
#include "fuzz_common.h"
#include "transcript_common.h"

namespace ghostdb {
namespace {

using attack::AttackKind;
using attack::AttackReport;
using attack::Observation;
using attack::Observe;
using attack::PlantedTruth;
using attack::SkewSpec;
using core::GhostDB;
using core::GhostDBConfig;
using exec::VolumePadding;
using fuzztest::EnvOr;

GhostDBConfig AttackConfig(VolumePadding mode) {
  GhostDBConfig cfg;
  cfg.device.flash.logical_pages = 32 * 1024;
  cfg.exec.volume_padding = mode;
  cfg.exec.pad_spill_runs = mode != VolumePadding::kOff;
  return cfg;
}

uint32_t Trials() {
  return static_cast<uint32_t>(EnvOr("GHOSTDB_ATTACK_TRIALS", 12));
}

// ---------------------------------------------------------------------------
// Negative controls: the attacks work when nothing defends against them.
// ---------------------------------------------------------------------------

TEST(LeakageAttackTest, NegativeControlVolumeFrequencyAttackSucceeds) {
  SkewSpec spec;
  auto report = attack::MeasureAttack(AttackConfig(VolumePadding::kOff),
                                      AttackKind::kVolumeFrequency, Trials(),
                                      spec, /*seed0=*/101);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 45% of the mass on one of 8 values is blatant; an observer that can't
  // recover it from raw volumes isn't an attacker worth defending against.
  EXPECT_GE(report->accuracy(), 0.9)
      << "volume-frequency attack should succeed against padding=off";
  EXPECT_LE(report->histogram_error, 0.1)
      << "raw volumes should recover the hidden selectivity histogram";
  EXPECT_GT(report->accuracy(), 2.0 * report->chance(spec));
}

TEST(LeakageAttackTest, NegativeControlCoOccurrenceAttackSucceeds) {
  SkewSpec spec;
  auto report = attack::MeasureAttack(AttackConfig(VolumePadding::kOff),
                                      AttackKind::kCoOccurrence, Trials(),
                                      spec, /*seed0=*/202);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->accuracy(), 0.9)
      << "co-occurrence attack should recover the hot hidden join group";
  EXPECT_LE(report->histogram_error, 0.1);
}

// ---------------------------------------------------------------------------
// The defense: worst-case padding reduces both attacks to guessing.
// ---------------------------------------------------------------------------

TEST(LeakageAttackTest, WorstCasePaddingDefeatsVolumeFrequencyAttack) {
  SkewSpec spec;
  auto report = attack::MeasureAttack(AttackConfig(VolumePadding::kWorstCase),
                                      AttackKind::kVolumeFrequency, Trials(),
                                      spec, /*seed0=*/101);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every probe returns the same padded volume, so argmax degenerates to a
  // uniform guess over the domain: accuracy ~1/domain, not ~1.0.
  EXPECT_LE(report->accuracy(), report->chance(spec) + 0.25)
      << "worst-case padding must reduce the attack to chance";
  // And the recovered "histogram" is flat — far from the planted skew.
  EXPECT_GE(report->histogram_error, 0.2);
}

TEST(LeakageAttackTest, WorstCasePaddingDefeatsCoOccurrenceAttack) {
  SkewSpec spec;
  auto report = attack::MeasureAttack(AttackConfig(VolumePadding::kWorstCase),
                                      AttackKind::kCoOccurrence, Trials(),
                                      spec, /*seed0=*/202);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(report->accuracy(), report->chance(spec) + 0.25);
  EXPECT_GE(report->histogram_error, 0.2);
}

// ---------------------------------------------------------------------------
// Mechanism checks: what each mode actually does to the observable volume.
// ---------------------------------------------------------------------------

TEST(LeakageAttackTest, WorstCaseVolumesAreConstantAcrossProbesAndSeeds) {
  SkewSpec spec;
  for (uint64_t hidden_seed : {501u, 502u}) {
    GhostDB db(AttackConfig(VolumePadding::kWorstCase));
    PlantedTruth truth;
    ASSERT_TRUE(
        attack::BuildSkewedHistogramDb(&db, hidden_seed, spec, &truth).ok());
    for (uint32_t v = 0; v < spec.domain; ++v) {
      Observation obs = Observe(&db, attack::HistogramProbe(v));
      ASSERT_TRUE(obs.ok);
      // Padded to the visible worst case: the probes have no visible
      // predicate, so that is the anchor table's row count, identical for
      // every probe and every hidden seed.
      EXPECT_EQ(obs.volume, spec.rows) << "probe h=" << v;
    }
  }
}

TEST(LeakageAttackTest, QuantizeRoundsVolumesToNextPowerOfTwo) {
  SkewSpec spec;
  GhostDB off_db(AttackConfig(VolumePadding::kOff));
  GhostDB quant_db(AttackConfig(VolumePadding::kQuantize));
  PlantedTruth truth;
  ASSERT_TRUE(
      attack::BuildSkewedHistogramDb(&off_db, /*hidden_seed=*/601, spec,
                                     &truth)
          .ok());
  PlantedTruth same_truth;
  ASSERT_TRUE(
      attack::BuildSkewedHistogramDb(&quant_db, /*hidden_seed=*/601, spec,
                                     &same_truth)
          .ok());
  for (uint32_t v = 0; v < spec.domain; ++v) {
    Observation raw = Observe(&off_db, attack::HistogramProbe(v));
    Observation quant = Observe(&quant_db, attack::HistogramProbe(v));
    ASSERT_TRUE(raw.ok && quant.ok);
    EXPECT_EQ(raw.volume, truth.histogram[v]) << "probe h=" << v;
    EXPECT_EQ(quant.volume, exec::NextPowerOfTwo(raw.volume))
        << "probe h=" << v;
    EXPECT_EQ(quant.volume & (quant.volume - 1), 0u) << "probe h=" << v;
  }
}

TEST(LeakageAttackTest, PaddingModesPreserveAnswers) {
  // Dummy rows must vanish at the QueryResult boundary: every mode returns
  // byte-identical rows and total_rows for shapes across the relational
  // tail (projection, aggregate, group-by, distinct, order-by, limit).
  const char* queries[] = {
      "SELECT Obs.id FROM Obs WHERE Obs.h = 3",
      "SELECT COUNT(*), MAX(Obs.v) FROM Obs WHERE Obs.h < 4",
      "SELECT Obs.h, COUNT(*) FROM Obs WHERE Obs.v < 70 GROUP BY Obs.h",
      "SELECT DISTINCT Obs.v FROM Obs WHERE Obs.h >= 2",
      "SELECT Obs.v FROM Obs WHERE Obs.h < 5 ORDER BY Obs.v",
      "SELECT Obs.v FROM Obs WHERE Obs.h < 5 ORDER BY Obs.v LIMIT 7",
  };
  SkewSpec spec;
  GhostDB off_db(AttackConfig(VolumePadding::kOff));
  GhostDB quant_db(AttackConfig(VolumePadding::kQuantize));
  GhostDB worst_db(AttackConfig(VolumePadding::kWorstCase));
  PlantedTruth truth;
  for (GhostDB* db : {&off_db, &quant_db, &worst_db}) {
    ASSERT_TRUE(
        attack::BuildSkewedHistogramDb(db, /*hidden_seed=*/701, spec, &truth)
            .ok());
  }
  for (const char* sql : queries) {
    auto off = off_db.Query(sql);
    auto quant = quant_db.Query(sql);
    auto worst = worst_db.Query(sql);
    ASSERT_TRUE(off.ok()) << sql << ": " << off.status().ToString();
    ASSERT_TRUE(quant.ok()) << sql << ": " << quant.status().ToString();
    ASSERT_TRUE(worst.ok()) << sql << ": " << worst.status().ToString();
    EXPECT_EQ(off->total_rows, quant->total_rows) << sql;
    EXPECT_EQ(off->total_rows, worst->total_rows) << sql;
    EXPECT_EQ(off->rows, quant->rows) << sql;
    EXPECT_EQ(off->rows, worst->rows) << sql;
    // The padding actually engaged: observed volume never understates the
    // real answer, and metrics account for every dummy.
    EXPECT_GE(quant->metrics.observed_volume, off->total_rows) << sql;
    EXPECT_GE(worst->metrics.observed_volume, off->total_rows) << sql;
    EXPECT_EQ(worst->metrics.observed_volume,
              worst->total_rows + worst->metrics.padding_rows)
        << sql;
  }
}

TEST(LeakageAttackTest, SpillRunPaddingWritesAndFreesDummyRuns) {
  SkewSpec spec;
  GhostDBConfig cfg = AttackConfig(VolumePadding::kWorstCase);
  cfg.exec.sort_budget_buffers = 1;  // force the sorter to spill
  GhostDB db(cfg);
  PlantedTruth truth;
  ASSERT_TRUE(
      attack::BuildSkewedHistogramDb(&db, /*hidden_seed=*/801, spec, &truth)
          .ok());
  // A hidden predicate under the visible one: the sorter sees fewer rows
  // than the visible bound |Vis(Obs)|, so the run-count target demands
  // dummy runs. (A visible-only predicate leaves nothing to pad: the
  // bound is exactly the sorter's input.)
  const char* sql =
      "SELECT Obs.v FROM Obs WHERE Obs.v < 90 AND Obs.h < 6 ORDER BY Obs.v";
  auto r = db.Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->metrics.sort_spill_runs, 0u) << "query did not spill";
  EXPECT_GT(r->metrics.padding_spill_runs, 0u)
      << "spill-run padding never engaged";
  // A second query on the same database proves the dummy runs were freed
  // (the executor's flash page-leak check fails the query otherwise).
  auto again = db.Query(sql);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows, r->rows);
}

// ---------------------------------------------------------------------------
// Config validation: inconsistent knob combinations are rejected at Build().
// ---------------------------------------------------------------------------

TEST(LeakageAttackTest, RejectsSpillPaddingWithoutVolumePadding) {
  GhostDBConfig cfg;
  cfg.exec.pad_spill_runs = true;  // but volume_padding stays kOff
  GhostDB db(cfg);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (id INT, h INT HIDDEN)").ok());
  Status s = db.Build();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(LeakageAttackTest, AcceptsConsistentPaddingConfig) {
  GhostDBConfig cfg = AttackConfig(VolumePadding::kWorstCase);
  GhostDB db(cfg);
  ASSERT_TRUE(db.Execute("CREATE TABLE T (id INT, h INT HIDDEN)").ok());
  EXPECT_TRUE(db.Build().ok());
}

// ---------------------------------------------------------------------------
// The strict property behind the defense: under kWorstCase the observed
// volume is a function of visible inputs only, across fuzzed workloads.
// ---------------------------------------------------------------------------

TEST(LeakageAttackTest, WorstCaseVolumeIsHiddenInvariantUnderFuzzWorkloads) {
  const uint64_t iters = EnvOr("GHOSTDB_ATTACK_FUZZ_ITERS", 40);
  const uint64_t visible_seed = EnvOr("GHOSTDB_ATTACK_FUZZ_SEED", 77);
  core::GhostDBConfig cfg = fuzztest::FuzzConfig(visible_seed, false);
  cfg.exec.volume_padding = VolumePadding::kWorstCase;
  cfg.exec.pad_spill_runs = true;
  GhostDB db1(cfg), db2(cfg);
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&db1, visible_seed, 1111).ok());
  ASSERT_TRUE(fuzztest::BuildFuzzDb(&db2, visible_seed, 2222).ok());
  fuzztest::FuzzShape shape = fuzztest::MakeShape(visible_seed);
  Rng rng(visible_seed ^ 0xa77acULL);
  uint64_t compared = 0, skipped = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    std::string sql = fuzztest::GenerateQuery(rng, shape);
    db1.device().channel().ClearTranscript();
    auto r1 = db1.Query(sql);
    db2.device().channel().ClearTranscript();
    auto r2 = db2.Query(sql);
    // Data-dependent errors (e.g. MIN over a hidden-emptied input) are a
    // residual channel documented in ARCHITECTURE.md; volume comparison
    // applies to queries both sides answer.
    if (!r1.ok() || !r2.ok()) {
      skipped += 1;
      continue;
    }
    EXPECT_EQ(r1->metrics.observed_volume, r2->metrics.observed_volume)
        << "hidden-dependent observed volume for: " << sql;
    transcript::ExpectIdenticalTranscripts(
        db1.device().channel().transcript(),
        db2.device().channel().transcript());
    compared += 1;
  }
  EXPECT_GT(compared, iters / 2)
      << "fuzz sweep mostly errored (" << skipped << " skipped)";
}

// All padding modes stay transcript-invariant across hidden variants: the
// defense adds no hidden-dependent channel traffic of its own.
TEST(LeakageAttackTest, PaddingModesAreTranscriptInvariantAcrossHiddenData) {
  SkewSpec spec;
  for (VolumePadding mode : {VolumePadding::kOff, VolumePadding::kQuantize,
                             VolumePadding::kWorstCase}) {
    GhostDB db1(AttackConfig(mode)), db2(AttackConfig(mode));
    PlantedTruth t1, t2;
    ASSERT_TRUE(attack::BuildSkewedHistogramDb(&db1, 901, spec, &t1).ok());
    ASSERT_TRUE(attack::BuildSkewedHistogramDb(&db2, 902, spec, &t2).ok());
    for (uint32_t v = 0; v < spec.domain; v += 3) {
      db1.device().channel().ClearTranscript();
      ASSERT_TRUE(db1.Query(attack::HistogramProbe(v)).ok());
      db2.device().channel().ClearTranscript();
      ASSERT_TRUE(db2.Query(attack::HistogramProbe(v)).ok());
      transcript::ExpectIdenticalTranscripts(
          db1.device().channel().transcript(),
          db2.device().channel().transcript());
    }
  }
}

}  // namespace
}  // namespace ghostdb
