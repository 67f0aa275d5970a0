// Answer checks that do not depend on a recorded copy of today's output:
// snapshot reducibility at sampled time points (paper Def 4.4 / Thm
// 6.3), one-row-everywhere tiling of global aggregates (the AG fix),
// interval sanity, and a bag comparison with a tolerance for
// floating-point sums whose evaluation order differs.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/relation.h"
#include "middleware/temporal_db.h"

namespace perfbench {

using periodk::Catalog;
using periodk::PlanPtr;
using periodk::Relation;
using periodk::Row;
using periodk::TimeDomain;
using periodk::TimePoint;

/// Bag equality: exact on every non-double value, doubles equal within
/// a relative 1e-6 (absolute 1e-6 near zero).  On mismatch `why`
/// gives the row counts or the first differing pair of rows.
bool BagMatch(std::vector<Row> a, std::vector<Row> b, std::string* why);

/// The database at one time point, computed by the benchmark itself
/// from the stored rows: each period table filtered to rows alive at
/// `t`, its vt_begin/vt_end columns dropped.  Cached per time point.
class SnapshotCache {
 public:
  explicit SnapshotCache(const periodk::TemporalDB* db) : db_(db) {}
  const Catalog& At(TimePoint t);

 private:
  const periodk::TemporalDB* db_;
  std::map<TimePoint, Catalog> slices_;
};

/// Every result interval non-empty and inside the domain.  Returns ""
/// when the check passes, else a description of the first violation.
std::string CheckIntervals(const Relation& result, const TimeDomain& domain);

/// A global aggregate has exactly one row alive at every point of the
/// domain: sorted by begin, the intervals tile [tmin, tmax).
std::string CheckTiling(const Relation& result, const TimeDomain& domain);

/// Snapshot reducibility: at each point T, tau_T(result) must bag-equal
/// the statement's non-temporal plan evaluated over the database
/// sliced at T.
std::string CheckReducible(const Relation& result, const PlanPtr& snapshot_plan,
                           const std::vector<TimePoint>& points,
                           SnapshotCache* cache);

/// The points a reducibility check of `result` visits: the shared
/// seeded points plus both sides of each endpoint of `row` (one
/// sampled result row), clipped to the domain.
std::vector<TimePoint> CheckPoints(const std::vector<TimePoint>& shared,
                                   const Relation& result, size_t row,
                                   const TimeDomain& domain);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
