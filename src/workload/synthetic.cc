#include "workload/synthetic.h"

#include <algorithm>
#include <cmath>

#include "common/coding.h"
#include "common/rng.h"

namespace ghostdb::workload {

using catalog::Value;

SyntheticShape::SyntheticShape(double scale)
    : t0(static_cast<uint64_t>(10'000'000 * scale)),
      t1(static_cast<uint64_t>(1'000'000 * scale)),
      t2(static_cast<uint64_t>(1'000'000 * scale)),
      t11(static_cast<uint64_t>(100'000 * scale)),
      t12(static_cast<uint64_t>(100'000 * scale)) {
  t0 = std::max<uint64_t>(t0, 100);
  t1 = std::max<uint64_t>(t1, 50);
  t2 = std::max<uint64_t>(t2, 50);
  t11 = std::max<uint64_t>(t11, 20);
  t12 = std::max<uint64_t>(t12, 20);
}

namespace {

// Zero-padded 6-digit decimal of v in [0, 1e6).
std::string Pad6(uint64_t v) {
  std::string s = std::to_string(v);
  return std::string(6 - s.size(), '0') + s;
}

// Appends a row of [fks..., v1..v5, h1..h5] to the staging of `table`.
void FillAttrRow(std::vector<uint8_t>* row, Rng* rng, uint32_t offset) {
  for (int a = 0; a < 10; ++a) {
    std::string s = Pad6(rng->Uniform(1'000'000));
    // CHAR(10): zero-padded digits + 4 spaces.
    for (int i = 0; i < 10; ++i) {
      (*row)[offset + a * 10 + i] =
          i < 6 ? static_cast<uint8_t>(s[i]) : ' ';
    }
  }
}

std::string AttrColumns() {
  std::string ddl;
  for (int i = 1; i <= 5; ++i) {
    ddl += ", v" + std::to_string(i) + " CHAR(10)";
  }
  for (int i = 1; i <= 5; ++i) {
    ddl += ", h" + std::to_string(i) + " CHAR(10) HIDDEN";
  }
  return ddl;
}

}  // namespace

Value Dial(double s) {
  s = std::clamp(s, 0.0, 1.0);
  uint64_t cut = static_cast<uint64_t>(s * 1'000'000);
  if (cut >= 1'000'000) {
    // ':' sorts after '9', so this literal exceeds every attribute value.
    return Value::String(":");
  }
  return Value::String(Pad6(cut));
}

core::GhostDBConfig SyntheticDbConfig(const SyntheticConfig& config) {
  SyntheticShape shape(config.scale);
  core::GhostDBConfig cfg;
  // Rough sizing: hidden images (~108 B/row for T0 incl. fks), SKT
  // (16 B/row), indexes; triple it for slack and temporaries.
  uint64_t bytes = (shape.t0 + shape.t1 + shape.t2 + shape.t11 + shape.t12) *
                   160ull * 3;
  cfg.device.flash.logical_pages =
      static_cast<uint32_t>(std::max<uint64_t>(bytes / 2048, 4096));
  // Indexed attribute selection: what the figure queries need by default.
  if (config.indexed.empty()) {
    cfg.indexed_attrs_by_name = {{
        {"T0", {"h3"}},
        {"T1", {"h1"}},
        {"T2", {"h1"}},
        {"T11", {"h1"}},
        {"T12", {"h2"}},
    }};
  } else {
    cfg.indexed_attrs_by_name = config.indexed;
  }
  return cfg;
}

Status BuildSynthetic(core::GhostDB* db, const SyntheticConfig& config) {
  GHOSTDB_RETURN_NOT_OK(StageSynthetic(db, config));
  return db->Build();
}

Status StageSynthetic(core::GhostDB* db, const SyntheticConfig& config) {
  SyntheticShape shape(config.scale);
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T11 (id INT" + AttrColumns() + ")"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T12 (id INT" + AttrColumns() + ")"));
  GHOSTDB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE T2 (id INT" + AttrColumns() + ")"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE T1 (id INT, fk11 INT REFERENCES T11 HIDDEN, fk12 INT "
      "REFERENCES T12 HIDDEN" +
      AttrColumns() + ")"));
  GHOSTDB_RETURN_NOT_OK(db->Execute(
      "CREATE TABLE T0 (id INT, fk1 INT REFERENCES T1 HIDDEN, fk2 INT "
      "REFERENCES T2 HIDDEN" +
      AttrColumns() + ")"));

  Rng rng(config.seed);
  auto stage_leaf = [&](const char* name, uint64_t n) -> Status {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging(name));
    std::vector<uint8_t> row(100);
    for (uint64_t i = 0; i < n; ++i) {
      FillAttrRow(&row, &rng, 0);
      data->AppendPackedRow(row.data());
    }
    return Status::OK();
  };
  GHOSTDB_RETURN_NOT_OK(stage_leaf("T11", shape.t11));
  GHOSTDB_RETURN_NOT_OK(stage_leaf("T12", shape.t12));
  GHOSTDB_RETURN_NOT_OK(stage_leaf("T2", shape.t2));
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("T1"));
    std::vector<uint8_t> row(8 + 100);
    for (uint64_t i = 0; i < shape.t1; ++i) {
      EncodeFixed32(row.data(),
                    static_cast<uint32_t>(rng.Uniform(shape.t11)));
      EncodeFixed32(row.data() + 4,
                    static_cast<uint32_t>(rng.Uniform(shape.t12)));
      FillAttrRow(&row, &rng, 8);
      data->AppendPackedRow(row.data());
    }
  }
  {
    GHOSTDB_ASSIGN_OR_RETURN(core::TableData * data,
                             db->MutableStaging("T0"));
    std::vector<uint8_t> row(8 + 100);
    for (uint64_t i = 0; i < shape.t0; ++i) {
      EncodeFixed32(row.data(),
                    static_cast<uint32_t>(rng.Uniform(shape.t1)));
      EncodeFixed32(row.data() + 4,
                    static_cast<uint32_t>(rng.Uniform(shape.t2)));
      FillAttrRow(&row, &rng, 8);
      data->AppendPackedRow(row.data());
    }
  }
  return Status::OK();
}

std::string QueryQ(double sv, double sh, int projected_vis_attrs,
                   bool project_hidden) {
  std::string select = "SELECT T0.id, T1.id, T12.id";
  for (int i = 1; i <= projected_vis_attrs; ++i) {
    select += ", T1.v" + std::to_string(i);
  }
  if (project_hidden) select += ", T1.h2";
  std::string sql =
      select +
      " FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id AND "
      "T1.v1 < " +
      Dial(sv).ToString() + " AND T12.h2 < " + Dial(sh).ToString();
  return sql;
}

}  // namespace ghostdb::workload
