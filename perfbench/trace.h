// The traced run: replays a statement's pipeline through the public
// layer functions, in the order TemporalDB::PlanBound and Query call
// them (Tokenize, Parse, Bind, CostModel + SnapshotRewriter::Rewrite,
// MakeTimeslice + PushDownTimeslice, ApplyJoinStrategyHints, Execute),
// timing each call from outside and keeping one span per call.  Spans
// stay in memory and are written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "middleware/temporal_db.h"
#include "sql/binder.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  /// Opens a span and returns its id (parent -1 = root).
  int Begin(const std::string& name, int parent, int query_id);
  /// Closes the span and returns its duration in microseconds.
  double End(int id);
  std::vector<std::string> RenderJsonLines() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int query_id;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Binds `sql` the way TemporalDB does (parse + bind over the live
/// catalog), without planning.  Dies on error.
periodk::sql::BoundStatement BindStatement(const periodk::TemporalDB& db,
                                           const std::string& sql);

struct Statement {
  std::string name;
  std::string sql;
};

/// Replays every statement once against the live catalog of `db` and
/// adds the sql.*, rewrite.*, ra.*, engine.self_ms.*, engine.* counter
/// and middleware.plan_us_* metrics: per-statement medians for planning
/// times, sums over the statements for self times and counts.  Each
/// replayed result must bag-equal `expected[i]` (TemporalDB::Query's
/// answer); a mismatch marks the outcome incorrect.  Single-threaded use
/// only: TemporalDB::catalog() is read without a snapshot pin, so no
/// writer may run meanwhile.  Returns the seconds the replay took,
/// self-time probes excluded.
double AddLayerMetrics(periodk::TemporalDB* db,
                       const std::vector<Statement>& statements,
                       const periodk::RewriteOptions& options,
                       const std::vector<periodk::Relation>& expected,
                       Tracer* tracer, Outcome* out);

/// middleware.plan_cache_{hits,misses,invalidations},
/// middleware.delta_publishes and middleware.compactions as the
/// database counted them so far.
void AddMiddlewareCounters(const periodk::TemporalDB& db, Outcome* out);

/// trace.replay_s and trace.untraced_s, and a note comparing them.
void AddTraceTotals(double replay_s, double untraced_s, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
