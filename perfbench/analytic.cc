// The three analytic workloads: one closed-loop client repeats a fixed
// query set (paper Table 3) through TemporalDB::Query.
//   tpcbih-analytics     11 TPC-BiH queries, SF 0.02, 1 thread
//   employees-analytics  10 employees queries, 10,000 employees, 1 thread
//   tpcbih-parallel      TPC-BiH Q1 and Q9, SF 0.02, nproc threads
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "datagen/workloads.h"
#include "trace.h"

namespace perfbench {

using periodk::Relation;
using periodk::RewriteOptions;
using periodk::TemporalDB;
using periodk::WorkloadQuery;

namespace {

constexpr int kSetupRepeats = 5;
// Seeded time points every reducibility check visits, besides the
// endpoints of one sampled row per result.
constexpr int kSharedCheckPoints = 3;

struct Spec {
  Dataset dataset;
  std::vector<WorkloadQuery> queries;
  int threads;
  std::string write_table;  // largest table: target of the write probes
};

Spec SpecFor(const std::string& workload) {
  if (workload == "tpcbih-analytics") {
    return {Dataset::kTpcBih, periodk::TpcBihWorkload(), 1, "lineitem"};
  }
  if (workload == "employees-analytics") {
    return {Dataset::kEmployees, periodk::EmployeeWorkload(), 1, "salaries"};
  }
  std::vector<WorkloadQuery> queries;
  for (const WorkloadQuery& q : periodk::TpcBihWorkload()) {
    if (q.name == "Q1" || q.name == "Q9") queries.push_back(q);
  }
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  return {Dataset::kTpcBih, queries, std::clamp(threads, 1, 8), "lineitem"};
}

bool IsGlobalAggregate(const WorkloadQuery& q) { return q.bug == "AG"; }

// Runs every query once; dies on failure (the set-up of the checks).
std::vector<Relation> RunRound(const TemporalDB& db, const Spec& spec,
                               const RewriteOptions& options,
                               std::vector<double>* query_s) {
  std::vector<Relation> results;
  for (const WorkloadQuery& q : spec.queries) {
    Clock::time_point start = Clock::now();
    auto result = db.Query(q.sql, options);
    if (query_s != nullptr) query_s->push_back(SecondsSince(start));
    if (!result.ok()) Die(q.name + ": " + result.status().ToString());
    results.push_back(std::move(*result));
  }
  return results;
}

struct CheckPlan {
  std::vector<periodk::TimePoint> shared;
  std::vector<size_t> samples;  // per query: the sampled result row
  std::vector<periodk::PlanPtr> snapshot_plans;
};

CheckPlan MakeCheckPlan(const TemporalDB& db, const Spec& spec,
                        const std::vector<Relation>& results, uint64_t seed) {
  periodk::Rng rng(MixSeed(seed, 3));
  CheckPlan plan;
  for (int i = 0; i < kSharedCheckPoints; ++i) {
    plan.shared.push_back(rng.Range(db.domain().tmin, db.domain().tmax - 1));
  }
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    plan.samples.push_back(
        results[i].empty() ? 0 : rng.Uniform(results[i].size()));
    plan.snapshot_plans.push_back(BindStatement(db, spec.queries[i].sql).plan);
  }
  return plan;
}

// Checks every result: interval sanity, tiling for global aggregates,
// and snapshot reducibility at the shared points and at both sides of
// each endpoint of the sampled row.  Each failure is one note.
std::vector<std::string> CheckAll(const TemporalDB& db, const Spec& spec,
                                  const std::vector<Relation>& results,
                                  const CheckPlan& plan) {
  SnapshotCache cache(&db);
  std::vector<std::string> failures;
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    const Relation& r = results[i];
    std::vector<std::string> found = {
        CheckIntervals(r, db.domain()),
        IsGlobalAggregate(spec.queries[i]) ? CheckTiling(r, db.domain()) : "",
        CheckReducible(r, plan.snapshot_plans[i],
                       CheckPoints(plan.shared, r, plan.samples[i], db.domain()),
                       &cache)};
    for (const std::string& f : found) {
      if (!f.empty()) failures.push_back(spec.queries[i].name + ": " + f);
    }
  }
  return failures;
}

int64_t Endpoint(const Relation& r, size_t row, int from_end) {
  const periodk::Row& cells = r.rows()[row];
  return cells[cells.size() - static_cast<size_t>(from_end)].AsInt();
}

void SetEndpoint(Relation* r, size_t row, int from_end, int64_t value) {
  periodk::Row& cells = r->mutable_rows()[row];
  cells[cells.size() - static_cast<size_t>(from_end)] =
      periodk::Value::Int(value);
}

// Self-test: one corrupted answer per check, each of which that check
// must reject.  Returns the number of corruptions the checks caught and
// appends one note per corruption.
int SelfTest(const TemporalDB& db, const Spec& spec,
             const std::vector<Relation>& results, const CheckPlan& plan,
             Outcome* out, int* attempted) {
  SnapshotCache cache(&db);
  const periodk::TimeDomain& domain = db.domain();
  int caught = 0;
  auto expect_fail = [&](const std::string& what, const std::string& failure) {
    ++*attempted;
    if (!failure.empty()) ++caught;
    out->notes.push_back((failure.empty() ? "NOT CAUGHT " : "caught ") + what +
                         (failure.empty() ? "" : ": " + failure));
  };

  // Reducibility, dropped row: a row alive at a shared point.
  // Reducibility, shifted endpoint: the sampled row's begin moves by one,
  // so the row is missing at its old begin, which the check visits.
  bool dropped = false;
  bool shifted = false;
  for (size_t i = 0; i < spec.queries.size() && !(dropped && shifted); ++i) {
    const Relation& r = results[i];
    if (r.empty()) continue;
    if (!dropped) {
      for (size_t row = 0; row < r.size() && !dropped; ++row) {
        for (periodk::TimePoint t : plan.shared) {
          if (Endpoint(r, row, 2) <= t && t < Endpoint(r, row, 1)) {
            Relation bad = r;
            bad.mutable_rows().erase(bad.mutable_rows().begin() +
                                     static_cast<long>(row));
            expect_fail("reducibility, " + spec.queries[i].name +
                            " with one row dropped",
                        CheckReducible(bad, plan.snapshot_plans[i],
                                       CheckPoints(plan.shared, bad,
                                                   plan.samples[i], domain),
                                       &cache));
            dropped = true;
            break;
          }
        }
      }
    }
    if (!shifted) {
      Relation bad = r;
      size_t row = plan.samples[i];
      SetEndpoint(&bad, row, 2, Endpoint(r, row, 2) + 1);
      expect_fail("reducibility, " + spec.queries[i].name +
                      " with one begin shifted by 1",
                  CheckReducible(bad, plan.snapshot_plans[i],
                                 CheckPoints(plan.shared, bad, row, domain),
                                 &cache));
      shifted = true;
    }
  }
  if (!dropped || !shifted) {
    expect_fail("reducibility: no result row to corrupt", "");
  }

  // Tiling: a global aggregate with a row dropped, and with one end
  // shifted by one (an overlap, or coverage past the domain).
  for (size_t i = 0; i < spec.queries.size(); ++i) {
    if (!IsGlobalAggregate(spec.queries[i]) || results[i].empty()) continue;
    Relation drop = results[i];
    drop.mutable_rows().erase(drop.mutable_rows().begin() +
                              static_cast<long>(drop.size() / 2));
    expect_fail("tiling, " + spec.queries[i].name + " with one row dropped",
                CheckTiling(drop, domain));
    Relation shift = results[i];
    SetEndpoint(&shift, 0, 1, Endpoint(shift, 0, 1) + 1);
    expect_fail("tiling, " + spec.queries[i].name + " with one end shifted by 1",
                CheckTiling(shift, domain));
    break;
  }

  // Interval sanity: an endpoint on the domain boundary pushed past it,
  // or else a one-point interval made empty.
  bool bounded = false;
  for (size_t i = 0; i < spec.queries.size() && !bounded; ++i) {
    const Relation& r = results[i];
    for (size_t row = 0; row < r.size() && !bounded; ++row) {
      Relation bad = r;
      if (Endpoint(r, row, 1) == domain.tmax) {
        SetEndpoint(&bad, row, 1, domain.tmax + 1);
      } else if (Endpoint(r, row, 2) == domain.tmin) {
        SetEndpoint(&bad, row, 2, domain.tmin - 1);
      } else if (Endpoint(r, row, 1) - Endpoint(r, row, 2) == 1) {
        SetEndpoint(&bad, row, 1, Endpoint(r, row, 1) - 1);
      } else {
        continue;
      }
      expect_fail("intervals, " + spec.queries[i].name +
                      " with one endpoint shifted by 1",
                  CheckIntervals(bad, domain));
      bounded = true;
    }
  }
  if (!bounded) expect_fail("intervals: no boundary row to corrupt", "");
  return caught;
}

void AddTraceMetrics(TemporalDB* db, const Spec& spec,
                     const RewriteOptions& options,
                     const std::vector<Relation>& expected, double load_s,
                     double untraced_s, Outcome* out) {
  Tracer tracer;
  std::vector<Statement> statements;
  for (const WorkloadQuery& q : spec.queries) {
    statements.push_back({q.name, q.sql});
  }
  const double replay_s =
      AddLayerMetrics(db, statements, options, expected, &tracer, out);
  AddWritePathProbes(*db, spec.write_table, out);
  // Inserts into the largest table through the middleware.  No read
  // on this workload builds a timeline index, so no delta is published
  // and nothing compacts.
  std::vector<double> insert_ms;
  const periodk::Row sample = db->catalog().Get(spec.write_table).rows()[0];
  for (int i = 0; i < 5; ++i) {
    Clock::time_point start = Clock::now();
    if (!db->Insert(spec.write_table, sample).ok()) Die("insert");
    insert_ms.push_back(SecondsSince(start) * 1e3);
  }
  AddMiddlewareCounters(*db, out);
  out->Add("middleware.insert_ms", Median(insert_ms), "ms");
  out->Add("middleware.compaction_stall_ms", 0, "ms");
  out->Add("datagen.load_s", load_s, "s");
  out->Add("datagen.publish_s", PublishSeconds(*db), "s");
  AddTraceTotals(replay_s, untraced_s, out);
  out->spans = tracer.RenderJsonLines();
}

}  // namespace

Outcome RunAnalytic(const Args& args) {
  const Spec spec = SpecFor(args.workload);
  RewriteOptions options;
  options.num_threads = spec.threads;
  Outcome out;

  // Set-up: generate and publish the dataset, several times, keeping
  // the last database.
  std::vector<double> setup_s;
  std::unique_ptr<TemporalDB> db;
  const int setups = args.trace || args.self_test ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    db.reset();
    Clock::time_point start = Clock::now();
    db = LoadDataset(spec.dataset, MixSeed(args.seed, 1));
    setup_s.push_back(SecondsSince(start));
  }

  out.notes.push_back(TableSizes(*db));

  // Warm-up round: fills the plan cache; its answers are the ones checked.
  std::vector<Relation> results = RunRound(*db, spec, options, nullptr);
  out.attempted += static_cast<int64_t>(results.size());
  const CheckPlan check_plan = MakeCheckPlan(*db, spec, results, args.seed);

  if (args.self_test) {
    int attempted = 0;
    int caught = SelfTest(*db, spec, results, check_plan, &out, &attempted);
    out.correct = caught == attempted;
    out.attempted = attempted;
    out.failed = attempted - caught;
    return out;
  }

  // Checked before anything else runs: the traced run inserts rows.
  std::vector<std::string> failures = CheckAll(*db, spec, results, check_plan);
  for (const std::string& f : failures) out.notes.push_back("CHECK FAILED " + f);
  if (!failures.empty()) out.correct = false;
  out.notes.push_back("answer checks: " + std::to_string(spec.queries.size()) +
                      " results, " + std::to_string(failures.size()) +
                      " failures");

  if (args.trace) {
    std::vector<double> ignored;
    Clock::time_point start = Clock::now();
    RunRound(*db, spec, options, &ignored);
    const double untraced_s = SecondsSince(start);
    out.attempted += static_cast<int64_t>(spec.queries.size());
    AddTraceMetrics(db.get(), spec, options, results, setup_s[0], untraced_s,
                    &out);
  } else {
    std::vector<double> round_s;
    std::vector<std::vector<double>> per_query(spec.queries.size());
    Clock::time_point run_start = Clock::now();
    do {
      std::vector<double> query_s;
      std::vector<Relation> round = RunRound(*db, spec, options, &query_s);
      out.attempted += static_cast<int64_t>(round.size());
      double total = 0;
      for (size_t i = 0; i < round.size(); ++i) {
        per_query[i].push_back(query_s[i]);
        total += query_s[i];
        if (round[i].size() != results[i].size()) {
          out.correct = false;
          out.notes.push_back(spec.queries[i].name +
                              ": row count changed between rounds");
        }
      }
      round_s.push_back(total);
    } while (SecondsSince(run_start) < args.seconds);
    std::vector<double> medians_ms;
    for (const auto& samples : per_query) {
      medians_ms.push_back(Median(samples) * 1e3);
    }
    out.Add("round_s", Median(round_s), "s");
    out.Add("query_geomean_ms", GeoMean(medians_ms), "ms");
    out.Add("ops_per_s",
            static_cast<double>(round_s.size() * spec.queries.size()) /
                SecondsSince(run_start),
            "1/s");
    out.Add("setup_s", Median(setup_s), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    std::string per_query_note = "per-query median ms over " +
                                 std::to_string(round_s.size()) + " rounds:";
    for (size_t i = 0; i < spec.queries.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s=%.2f", spec.queries[i].name.c_str(),
                    medians_ms[i]);
      per_query_note += buf;
    }
    out.notes.push_back(per_query_note);
    std::string rounds_note = "round seconds:";
    for (double r : round_s) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4f", r);
      rounds_note += buf;
    }
    out.notes.push_back(rounds_note);
  }

  return out;
}

}  // namespace perfbench
