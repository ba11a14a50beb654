// Column statistics for selectivity estimation: an equi-depth quantile
// sketch built at load time. The paper assumes selectivities are known when
// choosing Pre- vs Post-filtering; we estimate them the way a real engine
// would, and the planner's decision rules read the estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "catalog/value.h"

namespace ghostdb::catalog {

/// Comparison operators appearing in predicates.
enum class CompareOp : uint8_t {
  kEq,   ///< =
  kNe,   ///< <> / !=
  kLt,   ///< <
  kLe,   ///< <=
  kGt,   ///< >
  kGe,   ///< >=
};

/// Renders the operator ("=", "<", ...).
std::string_view CompareOpName(CompareOp op);

/// True if `lhs op rhs` holds.
bool EvalCompare(const Value& lhs, CompareOp op, const Value& rhs);

/// True if `cmp op 0` holds, where `cmp` is a three-way comparison result
/// (Value::Compare / CompareEncoded). Lets scans evaluate predicates on
/// encoded cells without materializing a Value per row.
bool EvalCompareResult(int cmp, CompareOp op);

/// \brief Equi-depth quantile sketch over one column.
class ColumnStats {
 public:
  /// Builds from a full column scan (values may be in any order). Keeps at
  /// most `max_quantiles` boundary values.
  static ColumnStats Build(std::vector<Value> values,
                           size_t max_quantiles = 256);

  /// Estimated fraction of rows satisfying (column op literal), in [0, 1].
  double EstimateSelectivity(CompareOp op, const Value& literal) const;

  uint64_t row_count() const { return row_count_; }
  uint64_t distinct_estimate() const { return distinct_estimate_; }
  bool empty() const { return row_count_ == 0; }

 private:
  uint64_t row_count_ = 0;
  uint64_t distinct_estimate_ = 0;
  std::vector<Value> quantiles_;  // sorted boundaries, equi-depth
};

}  // namespace ghostdb::catalog
