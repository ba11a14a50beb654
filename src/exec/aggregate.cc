#include "exec/aggregate.h"

#include <cstring>

#include "common/coding.h"

namespace ghostdb::exec {

using catalog::DataType;
using catalog::Value;

std::string_view AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

bool AggRequiresInput(AggFunc f) {
  return f == AggFunc::kSum || f == AggFunc::kAvg || f == AggFunc::kMin ||
         f == AggFunc::kMax;
}

namespace {

/// Overflow-checked integer summation: SUM keeps an exact INT64
/// accumulator, and signed wrap near the INT64 extremes is UB — detect it
/// and fail instead of returning a silently wrong (or undefined) total.
/// AVG sums in double (its output is DOUBLE anyway), so it cannot
/// overflow. Shared by the Value and encoded paths so both fail
/// identically.
Status AddChecked(int64_t* acc, int64_t v) {
  if (__builtin_add_overflow(*acc, v, acc)) {
    return Status::OutOfRange("SUM overflows INT64");
  }
  return Status::OK();
}

}  // namespace

Status Aggregator::Accumulate(const Value& v) {
  count_ += 1;
  switch (func_) {
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      switch (v.type()) {
        case DataType::kInt32:
          if (func_ == AggFunc::kSum) return AddChecked(&int_sum_, v.AsInt32());
          double_sum_.Add(v.AsInt32());
          return Status::OK();
        case DataType::kInt64:
          if (func_ == AggFunc::kSum) return AddChecked(&int_sum_, v.AsInt64());
          double_sum_.Add(static_cast<double>(v.AsInt64()));
          return Status::OK();
        case DataType::kDouble:
          double_sum_.Add(v.AsDouble());
          return Status::OK();
        case DataType::kString:
          return Status::InvalidArgument("SUM/AVG over CHAR column");
      }
      return Status::OK();
    case AggFunc::kMin:
      if (!min_.has_value() || v.Compare(*min_) < 0) min_ = v;
      return Status::OK();
    case AggFunc::kMax:
      if (!max_.has_value() || v.Compare(*max_) > 0) max_ = v;
      return Status::OK();
  }
  return Status::OK();
}

Status Aggregator::AccumulateEncoded(const uint8_t* src) {
  count_ += 1;
  switch (func_) {
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg:
      switch (input_type_) {
        case DataType::kInt32: {
          int32_t v = static_cast<int32_t>(DecodeFixed32(src));
          if (func_ == AggFunc::kSum) return AddChecked(&int_sum_, v);
          double_sum_.Add(v);
          return Status::OK();
        }
        case DataType::kInt64: {
          int64_t v = static_cast<int64_t>(DecodeFixed64(src));
          if (func_ == AggFunc::kSum) return AddChecked(&int_sum_, v);
          double_sum_.Add(static_cast<double>(v));
          return Status::OK();
        }
        case DataType::kDouble:
          double_sum_.Add(DecodeDouble(src));
          return Status::OK();
        case DataType::kString:
          return Status::InvalidArgument("SUM/AVG over CHAR column");
      }
      return Status::OK();
    case AggFunc::kMin:
      if (min_enc_.empty() ||
          catalog::CompareEncoded(input_type_, input_width_, src,
                                  min_enc_.data()) < 0) {
        min_enc_.assign(src, src + input_width_);
      }
      return Status::OK();
    case AggFunc::kMax:
      if (max_enc_.empty() ||
          catalog::CompareEncoded(input_type_, input_width_, src,
                                  max_enc_.data()) > 0) {
        max_enc_.assign(src, src + input_width_);
      }
      return Status::OK();
  }
  return Status::OK();
}

uint32_t Aggregator::PartialWidth(AggFunc func, DataType input_type,
                                  uint32_t input_width) {
  constexpr uint32_t kCountWidth = 8;  // leading u64 input count
  switch (func) {
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return kCountWidth;
    case AggFunc::kSum:
      return input_type == DataType::kDouble
                 ? kCountWidth + static_cast<uint32_t>(
                                     ExactDoubleSum::kEncodedSize)
                 : kCountWidth + 8;
    case AggFunc::kAvg:
      return kCountWidth +
             static_cast<uint32_t>(ExactDoubleSum::kEncodedSize);
    case AggFunc::kMin:
    case AggFunc::kMax:
      return kCountWidth + input_width;
  }
  return kCountWidth;
}

void Aggregator::EncodePartial(uint8_t* dst) const {
  EncodeFixed64(dst, count_);
  dst += 8;
  switch (func_) {
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return;
    case AggFunc::kSum:
      if (input_type_ != DataType::kDouble) {
        EncodeFixed64(dst, static_cast<uint64_t>(int_sum_));
        return;
      }
      double_sum_.Serialize(dst);
      return;
    case AggFunc::kAvg:
      double_sum_.Serialize(dst);
      return;
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const std::vector<uint8_t>& enc =
          func_ == AggFunc::kMin ? min_enc_ : max_enc_;
      std::memset(dst, 0, input_width_);
      if (!enc.empty()) {
        std::memcpy(dst, enc.data(), input_width_);
      } else if (func_ == AggFunc::kMin && min_.has_value()) {
        min_->Encode(dst, input_width_);
      } else if (func_ == AggFunc::kMax && max_.has_value()) {
        max_->Encode(dst, input_width_);
      }
      return;
    }
  }
}

Status Aggregator::AccumulatePartial(const uint8_t* src) {
  uint64_t n = DecodeFixed64(src);
  if (n == 0) return Status::OK();  // empty partial: no state to fold
  count_ += n;
  src += 8;
  switch (func_) {
    case AggFunc::kNone:
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Status::OK();
    case AggFunc::kSum:
      if (input_type_ != DataType::kDouble) {
        return AddChecked(&int_sum_,
                          static_cast<int64_t>(DecodeFixed64(src)));
      }
      double_sum_.Merge(ExactDoubleSum::Deserialize(src));
      return Status::OK();
    case AggFunc::kAvg:
      double_sum_.Merge(ExactDoubleSum::Deserialize(src));
      return Status::OK();
    case AggFunc::kMin:
      if (min_enc_.empty() ||
          catalog::CompareEncoded(input_type_, input_width_, src,
                                  min_enc_.data()) < 0) {
        min_enc_.assign(src, src + input_width_);
      }
      return Status::OK();
    case AggFunc::kMax:
      if (max_enc_.empty() ||
          catalog::CompareEncoded(input_type_, input_width_, src,
                                  max_enc_.data()) > 0) {
        max_enc_.assign(src, src + input_width_);
      }
      return Status::OK();
  }
  return Status::OK();
}

catalog::DataType Aggregator::OutputType() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return DataType::kInt64;
    case AggFunc::kSum:
      return input_type_ == DataType::kDouble ? DataType::kDouble
                                              : DataType::kInt64;
    case AggFunc::kAvg:
      return DataType::kDouble;
    default:
      return input_type_;
  }
}

Result<Value> Aggregator::Finish() const {
  switch (func_) {
    case AggFunc::kNone:
      return Status::Internal("Finish on non-aggregate");
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      // The counter is u64; the SQL-facing type is INT64. The narrowing
      // can only overflow for > 9.2e18 rows, but make it checked so a
      // pathological count can never surface as a negative number.
      if (count_ > static_cast<uint64_t>(INT64_MAX)) {
        return Status::OutOfRange("COUNT overflows INT64");
      }
      return Value::Int64(static_cast<int64_t>(count_));
    case AggFunc::kSum:
      if (count_ == 0) return Status::NotFound("SUM over an empty input");
      if (input_type_ == DataType::kDouble) {
        return Value::Double(double_sum_.Finish());
      }
      return Value::Int64(int_sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Status::NotFound("AVG over an empty input");
      return Value::Double(double_sum_.Finish() /
                           static_cast<double>(count_));
    case AggFunc::kMin:
      if (!min_enc_.empty()) {
        return Value::Decode(min_enc_.data(), input_type_, input_width_);
      }
      if (!min_.has_value()) {
        return Status::NotFound("MIN over an empty input");
      }
      return *min_;
    case AggFunc::kMax:
      if (!max_enc_.empty()) {
        return Value::Decode(max_enc_.data(), input_type_, input_width_);
      }
      if (!max_.has_value()) {
        return Status::NotFound("MAX over an empty input");
      }
      return *max_;
  }
  return Status::Internal("unreachable");
}

}  // namespace ghostdb::exec
