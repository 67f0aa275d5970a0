// The benchmark of record for periodk (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--self-test] [--out-dir <dir>]
//
// Loads the workload's inputs from the in-repo generators, drives them
// through the public TemporalDB API, checks the answers, and prints one
// JSON object as the last line of standard output: end-to-end metrics
// with --trace 0, per-layer metrics with --trace 1.  The same object,
// with the build context, goes to <out-dir>/result-*.json, and the
// traced run's spans to <out-dir>/spans-*.jsonl.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "datagen/employees.h"
#include "datagen/tpcbih.h"
#include "engine/timeline_index.h"
#include "ra/cost_model.h"
#include "stats/table_stats.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() < 40) {
    tail.value = Median(std::move(values));
    return tail;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.value = values[n - 11];
  tail.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return tail;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return values.empty() ? 0 : std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  periodk::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng.Next();
}

std::unique_ptr<periodk::TemporalDB> LoadDataset(Dataset dataset,
                                                 uint64_t seed) {
  std::unique_ptr<periodk::TemporalDB> db;
  periodk::Status status;
  if (dataset == Dataset::kTpcBih) {
    periodk::TpcBihConfig config;
    config.scale_factor = 0.02;
    config.seed = seed;
    db = std::make_unique<periodk::TemporalDB>(config.domain);
    status = periodk::LoadTpcBih(db.get(), config);
  } else {
    periodk::EmployeesConfig config;
    config.num_employees = 10000;
    config.seed = seed;
    db = std::make_unique<periodk::TemporalDB>(config.domain);
    status = periodk::LoadEmployees(db.get(), config);
  }
  if (!status.ok()) Die("datagen: " + status.ToString());
  return db;
}

std::string TableSizes(const periodk::TemporalDB& db) {
  std::string out = "rows per table:";
  for (const std::string& name : db.catalog().TableNames()) {
    out += " " + name + "=" + std::to_string(db.catalog().Get(name).size());
  }
  return out;
}

double PublishSeconds(const periodk::TemporalDB& db) {
  periodk::TemporalDB fresh(db.domain());
  std::vector<std::pair<std::string, periodk::Relation>> copies;
  for (const std::string& name : db.catalog().TableNames()) {
    const periodk::Relation& table = db.catalog().Get(name);
    copies.emplace_back(name, periodk::Relation(table.schema(), table.rows()));
  }
  Clock::time_point start = Clock::now();
  for (auto& [name, relation] : copies) {
    if (!fresh.PutPeriodTable(name, std::move(relation), "vt_begin", "vt_end")
             .ok()) {
      Die("publish " + name);
    }
  }
  return SecondsSince(start);
}

void AddWritePathProbes(const periodk::TemporalDB& db, const std::string& table,
                        Outcome* out) {
  std::shared_ptr<const periodk::Relation> current =
      db.catalog().GetShared(table);
  const int b = current->schema().Find("", "vt_begin");
  const int e = current->schema().Find("", "vt_end");
  const periodk::Row row = current->rows()[0];
  std::vector<double> collect_ms, reencode_ms, build_ms;
  for (int i = 0; i < 3; ++i) {
    Clock::time_point start = Clock::now();
    auto stats = periodk::TableStats::Collect(current, b, e);
    collect_ms.push_back(SecondsSince(start) * 1e3);
    if (stats == nullptr) Die("statistics of " + table);

    start = Clock::now();
    periodk::Relation next = *current;
    next.AddRow(row);
    next.ToColumnar();
    reencode_ms.push_back(SecondsSince(start) * 1e3);

    // The checkpoint interval the middleware picks from the statistics.
    const int64_t k = periodk::CostModel::PickCheckpointInterval(*stats);
    start = Clock::now();
    auto index = periodk::TimelineIndex::Build(current, b, e, k);
    build_ms.push_back(SecondsSince(start) * 1e3);
    if (index == nullptr) Die("timeline index of " + table);
  }
  out->Add("stats.collect_ms", Median(collect_ms), "ms");
  out->Add("engine.reencode_ms", Median(reencode_ms), "ms");
  out->Add("engine.timeline_index_build_ms", Median(build_ms), "ms");
}

namespace {

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--self-test") {
      args.self_test = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  return args;
}

std::string Number(double v) {
  if (!std::isfinite(v)) Die("non-finite metric value");
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

std::string ResultJson(const Outcome& out) {
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

void WriteFiles(const Args& args, const Outcome& out, const std::string& json) {
  std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                    (args.self_test ? "-selftest" : args.trace ? "-trace1" : "-trace0");
  const char* describe = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::ofstream result(args.out_dir + "/result-" + tag + ".json");
  result << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"nproc\": " << std::thread::hardware_concurrency()
         << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
         << PERFBENCH_BUILD_TYPE << "\", \"git_describe\": \""
         << (describe != nullptr ? describe : "unknown")
         << "\", \"result\": " << json << "}\n";
  if (!out.spans.empty()) {
    std::ofstream spans(args.out_dir + "/spans-" + tag + ".jsonl");
    for (const std::string& line : out.spans) spans << line << "\n";
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args = ParseArgs(argc, argv);
  Outcome out;
  if (args.workload == "tpcbih-analytics" ||
      args.workload == "employees-analytics" ||
      args.workload == "tpcbih-parallel") {
    out = RunAnalytic(args);
  } else if (args.workload == "asof-serving") {
    out = RunServing(args);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }
  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  const std::string json = ResultJson(out);
  WriteFiles(args, out, json);
  std::printf("%s\n", json.c_str());
  return args.self_test && !out.correct ? 1 : 0;
}
