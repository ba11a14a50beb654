// The paper's synthetic dataset (section 6.2): the Fig 3 tree
//   T0 (10M) -> { T1 (1M) -> { T11 (100K), T12 (100K) }, T2 (1M) }
// with, beside keys, 5 Visible and 5 Hidden attributes of 10 bytes per
// table, uniformly distributed. Attribute values are zero-padded 6-digit
// decimals of uniform [0, 1e6), so a range predicate  attr < Dial(s)
// selects exactly fraction s — the selectivity dial used by every figure.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "core/database.h"

namespace ghostdb::workload {

struct SyntheticConfig {
  /// Cardinality scale. 1.0 = the paper's sizes (T0 = 10M rows).
  double scale = 0.05;
  uint64_t seed = 20070611;  // SIGMOD'07 started June 11 2007
  /// Hidden attributes to index with climbing indexes, as
  /// table name -> column names. Empty = the set the figure queries need
  /// (T12.h2, T0.h3, T1.h1, T11.h1, T2.h1). Id indexes are always built.
  std::map<std::string, std::vector<std::string>> indexed;
};

/// Derived cardinalities.
struct SyntheticShape {
  uint64_t t0, t1, t2, t11, t12;
  explicit SyntheticShape(double scale);
};

/// Creates schema + data + indexes in `db` (which must be freshly
/// constructed with enough flash; see SyntheticDbConfig).
Status BuildSynthetic(core::GhostDB* db, const SyntheticConfig& config);

/// Creates schema + staged data only (no device build) — used by the
/// storage-accounting bench (Fig 7).
Status StageSynthetic(core::GhostDB* db, const SyntheticConfig& config);

/// GhostDBConfig pre-sized for the dataset at `config.scale`.
core::GhostDBConfig SyntheticDbConfig(const SyntheticConfig& config);

/// The literal giving selectivity `s` for `attr < Dial(s)` on the uniform
/// 6-digit attribute encoding.
catalog::Value Dial(double s);

/// The paper's Query Q (section 6.4): visible selection on T1.v1 with
/// selectivity `sv`, hidden selection on T12.h2 with selectivity `sh`,
/// joins to T0. `projected_vis_attrs` adds T1.v2/v3... projections (Fig 14).
std::string QueryQ(double sv, double sh, int projected_vis_attrs = 1,
                   bool project_hidden = false);

}  // namespace ghostdb::workload
