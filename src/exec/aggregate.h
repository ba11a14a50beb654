// Aggregate evaluation over query results. The paper lists "the efficient
// implementation of aggregate operators" as future work (section 7); this
// implements the straightforward variant: aggregates are folded on the
// Secure device as final result rows stream out of QEP_P, so per-row data
// still never leaves the key — only the aggregate value reaches the secure
// display.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"
#include "common/status.h"
#include "exec/exact_sum.h"

namespace ghostdb::exec {

/// Aggregate functions over the result of a Select-Project-Join block.
enum class AggFunc : uint8_t { kNone, kCountStar, kCount, kSum, kAvg, kMin,
                               kMax };

std::string_view AggFuncName(AggFunc f);

/// True for aggregates whose result is undefined over an empty input
/// (SUM/AVG/MIN/MAX). GhostDB has no NULLs, so instead of SQL's NULL row
/// an aggregate query whose input is empty yields an *empty result* when
/// any such aggregate is selected; COUNT-only selects still yield their
/// zero row. The engine (HashGroupOp, per group) and the reference
/// oracle both enforce this through the check here.
bool AggRequiresInput(AggFunc f);

/// \brief Streaming accumulator for one aggregate output column.
class Aggregator {
 public:
  Aggregator(AggFunc func, catalog::DataType input_type,
             uint32_t input_width = 0)
      : func_(func), input_type_(input_type), input_width_(input_width) {}

  /// Folds one input value (ignored for COUNT(*)). Integer SUM overflow
  /// past INT64 is detected and fails with OutOfRange (identically in the
  /// encoded path) instead of wrapping.
  Status Accumulate(const catalog::Value& v);
  /// Folds one encoded cell of `input_width_` bytes without materializing
  /// a Value: sums decode the numeric in place, MIN/MAX keep the encoded
  /// bytes and compare via catalog::CompareEncoded.
  Status AccumulateEncoded(const uint8_t* src);
  /// Folds a COUNT(*) row.
  void AccumulateRow() { count_ += 1; }

  /// Width of the encoded partial state EncodePartial() writes: the u64
  /// input count followed by the function's accumulator (nothing for
  /// COUNT, the i64 sum for integer SUM, the ExactDoubleSum register for
  /// double SUM / AVG, one encoded input cell for MIN/MAX). A pure
  /// function of the visible query shape, so spill-row strides stay
  /// hidden-independent.
  static uint32_t PartialWidth(AggFunc func, catalog::DataType input_type,
                               uint32_t input_width);

  /// Serializes this accumulator's partial state (PartialWidth bytes) —
  /// the per-group payload of a partial-aggregate spill row.
  void EncodePartial(uint8_t* dst) const;

  /// Folds an EncodePartial()-encoded state in: how a spilled group's
  /// per-run partials combine. Double sums fold exactly (ExactDoubleSum);
  /// integer SUM overflow of the folded subtotal fails with OutOfRange.
  Status AccumulatePartial(const uint8_t* src);

  /// True once any input row/value was folded. Callers must check this
  /// before Finish() for the AggRequiresInput functions: over an empty
  /// input their result is undefined and Finish() fails with NotFound
  /// (see AggRequiresInput for the engine-level semantics).
  bool has_input() const { return count_ > 0; }

  /// The final value (COUNT yields INT64; SUM follows the input type with
  /// integer widening; AVG is DOUBLE; MIN/MAX keep the input type).
  /// COUNT narrowing from the internal u64 is checked (OutOfRange rather
  /// than a negative count); SUM/AVG/MIN/MAX over an empty input fail
  /// with NotFound.
  Result<catalog::Value> Finish() const;

  /// Result column type.
  catalog::DataType OutputType() const;

 private:
  AggFunc func_;
  catalog::DataType input_type_;
  uint32_t input_width_ = 0;  ///< encoded cell width (encoded path only)
  uint64_t count_ = 0;
  int64_t int_sum_ = 0;
  /// Double SUM/AVG accumulate exactly so fold order can't change the
  /// result bits (a spilling group folds per-run partials in an order the
  /// streaming fold can't reproduce).
  ExactDoubleSum double_sum_;
  std::optional<catalog::Value> min_;
  std::optional<catalog::Value> max_;
  std::vector<uint8_t> min_enc_;  ///< encoded-path MIN (empty = unset)
  std::vector<uint8_t> max_enc_;  ///< encoded-path MAX (empty = unset)
};

}  // namespace ghostdb::exec
