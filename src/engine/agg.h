// Aggregate functions and incremental aggregation state, shared by the
// abstract-model bag aggregation (annotated/), the engine's group-by
// operator and the fused split+aggregate operator of the rewrite layer.
#ifndef PERIODK_ENGINE_AGG_H_
#define PERIODK_ENGINE_AGG_H_

#include <cstdint>

#include "common/value.h"

namespace periodk {

enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

const char* AggFuncName(AggFunc f);

/// Incremental state for one aggregate over one group, with SQL
/// semantics: count(*) counts rows, count(A) counts non-null A, the
/// remaining functions ignore nulls and yield NULL on empty input.
/// Multiplicities allow bag-annotated accumulation (one call per
/// distinct tuple instead of per duplicate).
///
/// The integer sum is kept in 128 bits so that summing
/// endpoint-magnitude values — a TimeDomain touching INT64_MIN or
/// INT64_MAX puts such values in plain columns — is never UB, and so
/// that accumulation order cannot matter: a sum whose intermediate
/// prefix overflows int64 but whose total fits still finalizes as that
/// exact integer.  Only a *total* outside int64 widens to the double
/// sum.  (128 bits cannot realistically overflow: it would take 2^63
/// rows of INT64_MAX.)
struct AggState {
  int64_t count = 0;
  bool any = false;
  bool all_int = true;
  __int128 isum = 0;
  double dsum = 0.0;
  Value min_v;
  Value max_v;

  void Accumulate(const Value& v, int64_t mult = 1);

  Value Finalize(AggFunc f, int64_t star_count) const;
};

}  // namespace periodk

#endif  // PERIODK_ENGINE_AGG_H_
