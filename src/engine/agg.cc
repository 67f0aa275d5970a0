#include "engine/agg.h"

#include <limits>

#include "common/status.h"

namespace periodk {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kCountStar:
      return "count(*)";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

void AggState::Accumulate(const Value& v, int64_t mult) {
  if (v.is_null()) return;
  count += mult;
  if (v.is_numeric()) {
    if (v.type() == ValueType::kInt) {
      isum += static_cast<__int128>(v.AsInt()) * mult;
    } else {
      all_int = false;
    }
    dsum += v.NumericAsDouble() * static_cast<double>(mult);
  }
  if (!any || v.Compare(min_v) < 0) min_v = v;
  if (!any || v.Compare(max_v) > 0) max_v = v;
  any = true;
}

Value AggState::Finalize(AggFunc f, int64_t star_count) const {
  switch (f) {
    case AggFunc::kCountStar:
      return Value::Int(star_count);
    case AggFunc::kCount:
      return Value::Int(count);
    case AggFunc::kSum: {
      if (!any) return Value::Null();
      constexpr __int128 kInt64Min = std::numeric_limits<int64_t>::min();
      constexpr __int128 kInt64Max = std::numeric_limits<int64_t>::max();
      if (all_int && isum >= kInt64Min && isum <= kInt64Max) {
        return Value::Int(static_cast<int64_t>(isum));
      }
      return Value::Double(dsum);
    }
    case AggFunc::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(dsum / static_cast<double>(count));
    case AggFunc::kMin:
      return any ? min_v : Value::Null();
    case AggFunc::kMax:
      return any ? max_v : Value::Null();
  }
  throw EngineError("unknown aggregate function");
}

}  // namespace periodk
