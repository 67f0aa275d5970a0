// Shared pieces of the benchmark program: command-line arguments, the
// metric record every workload returns, timing and order statistics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "middleware/temporal_db.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corrupts one answer per check and expects every check to fail.
  bool self_test = false;
  /// Where span and result files go (inside the checkout).
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of one workload reports.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (tail percentiles,
  /// check summaries, trace overhead).
  std::vector<std::string> notes;
  /// Spans of the traced run, already rendered as JSON lines.
  std::vector<std::string> spans;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

double Median(std::vector<double> values);

/// The highest percentile with at least ten samples beyond it: the
/// value at sorted position n - 11.  With fewer than forty samples
/// there is no tail worth the name and the median is returned
/// (`percentile` then reads 50).
struct Tail {
  double value = 0;
  double percentile = 50;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

double GeoMean(const std::vector<double>& values);

/// Peak resident set of this process, from getrusage.
double PeakRssMb();

/// Aborts the run without a result line (set-up or API failure).
[[noreturn]] void Die(const std::string& message);

/// Derives an independent stream seed from the run's --seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

enum class Dataset { kTpcBih, kEmployees };
/// TPC-BiH at SF 0.02 (~120k lineitem rows) or employees with 10,000
/// employees (~131k salary rows), generated from `seed`.
std::unique_ptr<periodk::TemporalDB> LoadDataset(Dataset dataset,
                                                 uint64_t seed);

/// "table=rows ..." for every table of `db`, for the run's notes.
std::string TableSizes(const periodk::TemporalDB& db);

/// Seconds to publish every table of `db` again (columnar encode +
/// statistics) into a fresh database from row-storage copies: the
/// publish share of a dataset load.
double PublishSeconds(const periodk::TemporalDB& db);

/// Times the write-path components on `table` from outside: statistics
/// collection, the copy + AddRow + ToColumnar re-encode an insert pays,
/// and a timeline-index build (stats.collect_ms, engine.reencode_ms,
/// engine.timeline_index_build_ms; medians of three).
void AddWritePathProbes(const periodk::TemporalDB& db,
                        const std::string& table, Outcome* out);

Outcome RunAnalytic(const Args& args);
Outcome RunServing(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
