// Columnar storage ablation (docs/architecture.md §9): the overlap join
// of two scans over the same base tables stored as vector<Row> (the
// join's row lane) vs typed columns (the vectorized lane reading
// contiguous endpoint arrays and packed keys).  The overlap join is the
// one operator kernel with a columnar lane: it is the only operator
// whose inputs are base-table scans in the paper's workloads.  Outputs
// are checked row-identical before timing.  Record medians into
// BENCH_columnar.json per docs/benchmarks.md.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "ra/plan.h"

namespace periodk {
namespace {

constexpr TimePoint kDomainEnd = 50000;

Schema EncodedSchema() {
  return Schema::FromNames({"k", "v", "a_begin", "a_end"});
}

// `keys` distinct string keys, `vals` distinct small ints; intervals
// short (1..200) so sweep active sets stay realistic.  String keys are
// deliberate: the dictionary-code path is what the refactor claims
// keeps string workloads cheap.
Relation MakeTable(Rng* rng, int rows, int keys, int vals) {
  Relation rel(EncodedSchema());
  rel.Reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    TimePoint b = rng->Range(0, kDomainEnd - 201);
    rel.AddRow({Value::String("key" + std::to_string(rng->Range(0, keys - 1))),
                Value::Int(rng->Range(0, vals - 1)), Value::Int(b),
                Value::Int(b + rng->Range(1, 200))});
  }
  return rel;
}

}  // namespace
}  // namespace periodk

int main() {
  using namespace periodk;
  int rows = bench::EnvInt("PERIODK_BENCH_COL_ROWS", 500000);
  int repeats = bench::EnvInt("PERIODK_BENCH_REPEATS", 3);

  bench::PrintBanner(
      "columnar storage vs row storage on the overlap join of two scans",
      "Scale via PERIODK_BENCH_COL_ROWS (rows per table, default 500000).");

  Rng rng(20260807);
  int keys = rows / 64 + 1;
  Catalog row_cat;
  row_cat.Put("t", MakeTable(&rng, rows, keys, 4));
  row_cat.Put("u", MakeTable(&rng, rows, keys, 4));
  Catalog col_cat = row_cat;
  for (const std::string& name : col_cat.TableNames()) {
    Relation rel = col_cat.Get(name);
    rel.ToColumnar();
    col_cat.Put(name, std::move(rel));
  }

  PlanPtr join = MakeJoin(
      MakeScan("t", EncodedSchema()), MakeScan("u", EncodedSchema()),
      AndAll({Eq(Col(0), Col(4)), Lt(Col(2), Col(7)), Lt(Col(6), Col(3))}));

  bench::TablePrinter table(
      {"Workload", "Rows", "Out rows", "RowStore", "Columnar", "Speedup"},
      {15, 10, 12, 12, 12, 10});
  table.PrintHeader();
  Relation by_rows = Execute(join, row_cat);
  Relation by_cols = Execute(join, col_cat);
  // Row-identical, not just bag-equal: the vectorized lane promises the
  // exact sequential row-lane output.
  if (by_rows.size() != by_cols.size() || !by_rows.BagEquals(by_cols)) {
    std::fprintf(stderr, "FATAL: columnar path diverges on interval-join\n");
    return 1;
  }
  for (size_t i = 0; i < by_rows.size(); ++i) {
    if (CompareRows(by_rows.rows()[i], by_cols.rows()[i]) != 0) {
      std::fprintf(stderr,
                   "FATAL: row order diverges on interval-join at %zu\n", i);
      return 1;
    }
  }
  double row_s = bench::TimeMedian([&] { Execute(join, row_cat); }, repeats);
  double col_s = bench::TimeMedian([&] { Execute(join, col_cat); }, repeats);
  char speedup[32];
  std::snprintf(speedup, sizeof(speedup), "%.1fx", row_s / col_s);
  table.PrintRow({"interval-join", std::to_string(rows),
                  std::to_string(by_rows.size()),
                  bench::TablePrinter::Seconds(row_s),
                  bench::TablePrinter::Seconds(col_s), speedup});
  return 0;
}
