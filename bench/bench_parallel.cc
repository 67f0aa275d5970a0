// Partition-parallel execution: the hot operators (interval-overlap
// join, fused split+aggregate, native coalescing)
// fan their partitions out to the work-stealing pool
// (src/common/thread_pool.h).  This benchmark records the scaling
// curve over thread counts for each workload; thread count 1 is the
// sequential executor, bit for bit.  Results are BagEquals-checked
// against the sequential run before timing.  Record medians into
// BENCH_parallel.json per docs/benchmarks.md (note the machine's core
// count: speedups flatten at the physical parallelism, and a 1-core
// container shows pool overhead instead of speedup).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/plan.h"
#include "rewrite/rewriter.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 4000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// `keys` distinct partition keys: the interval join buckets by them and
// the aggregation groups by them, so they bound the fan-out width.
Relation MakeTable(Rng* rng, int rows, int keys) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 51);
    TimePoint e = b + rng->Range(1, 50);
    rel.AddRow({Value::Int(rng->Range(0, keys)),
                Value::Int(rng->Range(0, 1000)), Value::Int(b),
                Value::Int(e)});
  }
  return rel;
}

struct Workload {
  std::string name;
  PlanPtr plan;  // executable plan
};

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_PAR_ROWS", 60000);
  int keys = bench::EnvInt("PERIODK_BENCH_PAR_KEYS", 256);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "Partition-parallel execution: scaling over ExecOptions::num_threads",
      "Scale via PERIODK_BENCH_PAR_ROWS / _KEYS; threads 1 is the "
      "sequential executor.");

  Rng rng(20190802);
  TimeDomain domain{0, kDomainEnd};
  Catalog catalog;
  catalog.Put("r", MakeTable(&rng, rows, keys));
  catalog.Put("s", MakeTable(&rng, rows, keys));
  SnapshotRewriter rewriter(domain);
  Schema snap_schema = Schema::FromNames({"k", "v"});

  std::vector<Workload> workloads;
  {
    // Equi-key + overlap join: RewriteJoin's predicate shape; the
    // equi-key partitions are the parallel work units.
    PlanPtr q = MakeJoin(MakeScan("r", snap_schema),
                         MakeScan("s", snap_schema), Eq(Col(0), Col(2)));
    workloads.push_back(
        {"interval-join", rewriter.Rewrite(MakeProjectColumns(q, {0, 1, 3}))});
  }
  {
    // Grouped snapshot aggregation: the rewriter turns it into the
    // fused split+aggregate, whose per-group sweeps fan out.
    PlanPtr q = MakeAggregate(
        MakeScan("r", snap_schema), {Col(0, "k")}, {Column("k")},
        {AggExpr{AggFunc::kCountStar, nullptr, "cnt"},
         AggExpr{AggFunc::kSum, Col(1), "s"}});
    workloads.push_back({"aggregation", rewriter.Rewrite(q)});
  }
  {
    // DISTINCT: coalesce-heavy (the per-group sweeps dominate).
    PlanPtr q = MakeDistinct(MakeScan("r", snap_schema));
    workloads.push_back({"distinct-coalesce", rewriter.Rewrite(q)});
  }

  const int thread_counts[] = {1, 2, 4, 8};
  bench::TablePrinter table(
      {"Workload", "Rows", "Out rows", "Threads", "Seconds", "Speedup",
       "Par tasks"},
      {18, 8, 9, 8, 10, 8, 10});
  table.PrintHeader();
  for (const Workload& w : workloads) {
    Relation reference = Execute(w.plan, catalog);
    double base = 0.0;
    for (int threads : thread_counts) {
      ExecOptions options;
      options.num_threads = threads;
      ExecStats stats;
      Relation result = Execute(w.plan, catalog, options, &stats);
      if (!result.BagEquals(reference)) {
        std::fprintf(stderr, "FATAL: %s diverges at %d threads\n",
                     w.name.c_str(), threads);
        return 1;
      }
      double secs = bench::TimeMedian(
          [&] { Execute(w.plan, catalog, options); }, repeats);
      if (threads == 1) base = secs;
      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", base / secs);
      table.PrintRow({w.name, std::to_string(rows),
                      std::to_string(reference.size()),
                      std::to_string(threads),
                      bench::TablePrinter::Seconds(secs), speedup,
                      std::to_string(stats.parallel_tasks)});
    }
  }
  return 0;
}
