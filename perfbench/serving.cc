// asof-serving: point-in-time reads beside a writer on TPC-BiH SF 0.02.
//
// Two closed-loop reader threads repeat a seeded round of reads:
// TemporalDB::Timeslice lookups and SEQ VT AS OF (...) statements in
// three shapes (a select, a customer-orders join, a grouped aggregate).
// The time points come from a small skewed set, so statement texts
// repeat and can hit the plan cache.  One closed-loop writer appends to
// `orders` with single-row Insert and small InsertRows batches; reads of
// `customer` touch a table it never changes.  Sampled reads are checked
// against answers computed from the benchmark's own copy of the rows.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "checks.h"
#include "trace.h"

namespace perfbench {

using periodk::Relation;
using periodk::Row;
using periodk::TemporalDB;
using periodk::TimePoint;
using periodk::Value;

namespace {

constexpr int kSetupRepeats = 5;
constexpr int kTimePoints = 64;
constexpr int kBatchRows = 16;
// Sampled reads kept per reader and read kind (reservoir sampling).
constexpr size_t kSamplesPerKind = 12;

enum Kind {
  kTimesliceOrders,
  kTimesliceCustomer,
  kSelectOrders,
  kSelectCustomer,
  kJoin,
  kAggregate,
  kNumKinds
};

// One reader round: 8 timeslices, 4 selects, a join and an aggregate.
const Kind kRound[] = {
    kTimesliceOrders, kTimesliceOrders,   kTimesliceOrders,
    kTimesliceOrders, kTimesliceCustomer, kTimesliceCustomer,
    kTimesliceCustomer, kTimesliceCustomer, kSelectOrders,
    kSelectOrders,    kSelectCustomer,    kSelectCustomer,
    kJoin,            kAggregate,
};

std::string Sql(Kind kind, TimePoint t) {
  const std::string as_of = "SEQ VT AS OF " + std::to_string(t) + " (";
  switch (kind) {
    case kSelectOrders:
      return as_of +
             "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
             "WHERE o_orderpriority = '1-URGENT')";
    case kSelectCustomer:
      return as_of +
             "SELECT c_custkey, c_name, c_acctbal FROM customer "
             "WHERE c_nationkey = 7)";
    case kJoin:
      return as_of +
             "SELECT c_custkey, c_name, o_orderkey, o_totalprice "
             "FROM customer, orders WHERE c_custkey = o_custkey "
             "AND c_mktsegment = 'BUILDING')";
    case kAggregate:
      return as_of +
             "SELECT o_orderpriority, count(*) AS cnt, "
             "sum(o_totalprice) AS total FROM orders "
             "GROUP BY o_orderpriority)";
    default:
      return "";
  }
}

const char* KindName(Kind kind) {
  static const char* kNames[] = {"timeslice(orders)", "timeslice(customer)",
                                 "asof-select(orders)", "asof-select(customer)",
                                 "asof-join", "asof-aggregate"};
  return kNames[kind];
}

// The benchmark's own copy of `orders` and `customer`: the loaded rows
// plus, for orders, every row the writer appended, in append order.
struct Model {
  std::vector<Row> orders;
  size_t base_orders = 0;
  std::vector<Row> customers;
  TimeDomain domain;

  // Answer of `kind` at `t` when the first `appended` writer rows are
  // visible.  Columns follow the statements above.
  std::vector<Row> Expected(Kind kind, TimePoint t, size_t appended) const {
    std::vector<const Row*> live_orders;
    for (size_t i = 0; i < base_orders + appended; ++i) {
      if (Alive(orders[i], t)) live_orders.push_back(&orders[i]);
    }
    std::vector<const Row*> live_customers;
    for (const Row& c : customers) {
      if (Alive(c, t)) live_customers.push_back(&c);
    }
    std::vector<Row> out;
    switch (kind) {
      case kTimesliceOrders:
        for (const Row* o : live_orders) out.emplace_back(o->begin(), o->end() - 2);
        break;
      case kTimesliceCustomer:
        for (const Row* c : live_customers) {
          out.emplace_back(c->begin(), c->end() - 2);
        }
        break;
      case kSelectOrders:
        for (const Row* o : live_orders) {
          if ((*o)[5].AsString() == "1-URGENT") {
            out.push_back({(*o)[0], (*o)[1], (*o)[3]});
          }
        }
        break;
      case kSelectCustomer:
        for (const Row* c : live_customers) {
          if ((*c)[3].AsInt() == 7) out.push_back({(*c)[0], (*c)[1], (*c)[2]});
        }
        break;
      case kJoin: {
        std::unordered_multimap<int64_t, const Row*> building;
        for (const Row* c : live_customers) {
          if ((*c)[4].AsString() == "BUILDING") building.emplace((*c)[0].AsInt(), c);
        }
        for (const Row* o : live_orders) {
          auto [lo, hi] = building.equal_range((*o)[1].AsInt());
          for (auto it = lo; it != hi; ++it) {
            const Row& c = *it->second;
            out.push_back({c[0], c[1], (*o)[0], (*o)[3]});
          }
        }
        break;
      }
      case kAggregate: {
        std::map<std::string, std::pair<int64_t, double>> groups;
        for (const Row* o : live_orders) {
          auto& g = groups[(*o)[5].AsString()];
          g.first += 1;
          g.second += (*o)[3].AsDouble();
        }
        for (const auto& [priority, g] : groups) {
          out.push_back({Value::String(priority), Value::Int(g.first),
                         Value::Double(g.second)});
        }
        break;
      }
      default:
        break;
    }
    return out;
  }

  static bool Alive(const Row& row, TimePoint t) {
    return row[row.size() - 2].AsInt() <= t && t < row[row.size() - 1].AsInt();
  }
};

// A read kept for checking: the writer rows it may have seen lie in
// [appended_lo, appended_hi] (committed before it started, started
// before it ended).
struct Sample {
  Kind kind;
  TimePoint t;
  size_t appended_lo;
  size_t appended_hi;
  std::vector<Row> rows;
};

// Passes when some write count in the sample's range explains it.
std::string CheckSample(const Model& model, const Sample& s, TimePoint t) {
  std::string why;
  for (size_t k = s.appended_lo; k <= s.appended_hi; ++k) {
    if (BagMatch(s.rows, model.Expected(s.kind, t, k), &why)) return "";
  }
  return std::string(KindName(s.kind)) + " at T=" + std::to_string(t) +
         " matches no write count in [" + std::to_string(s.appended_lo) + ", " +
         std::to_string(s.appended_hi) + "]: " + why;
}

struct Shared {
  const TemporalDB* db = nullptr;
  std::vector<TimePoint> points;
  std::vector<double> point_weights;  // cumulative, skewed
  std::atomic<bool> stop{false};
  // Writer rows whose write has started / returned.
  std::atomic<size_t> appended_started{0};
  std::atomic<size_t> appended_committed{0};
};

struct ReaderLog {
  std::vector<double> round_s;
  std::vector<double> latency_us[kNumKinds];
  std::vector<Sample> samples[kNumKinds];
  int64_t seen[kNumKinds] = {};
  int64_t reads = 0;
  int64_t failed = 0;
};

TimePoint PickPoint(const Shared& shared, periodk::Rng* rng) {
  const double u = rng->NextDouble() * shared.point_weights.back();
  size_t i = static_cast<size_t>(
      std::upper_bound(shared.point_weights.begin(), shared.point_weights.end(), u) -
      shared.point_weights.begin());
  return shared.points[std::min(i, shared.points.size() - 1)];
}

void ReaderLoop(Shared* shared, uint64_t seed, ReaderLog* log) {
  periodk::Rng rng(seed);
  std::vector<Kind> round(std::begin(kRound), std::end(kRound));
  for (size_t i = round.size() - 1; i > 0; --i) {
    std::swap(round[i], round[rng.Uniform(i + 1)]);
  }
  while (!shared->stop.load(std::memory_order_relaxed)) {
    Clock::time_point round_start = Clock::now();
    for (Kind kind : round) {
      const TimePoint t = PickPoint(*shared, &rng);
      const size_t lo = shared->appended_committed.load();
      Clock::time_point start = Clock::now();
      periodk::Result<Relation> result =
          kind == kTimesliceOrders     ? shared->db->Timeslice("orders", t)
          : kind == kTimesliceCustomer ? shared->db->Timeslice("customer", t)
                                       : shared->db->Query(Sql(kind, t));
      const double us = SecondsSince(start) * 1e6;
      const size_t hi = shared->appended_started.load();
      ++log->reads;
      if (!result.ok()) {
        ++log->failed;
        continue;
      }
      log->latency_us[kind].push_back(us);
      // Reservoir sampling keeps kSamplesPerKind reads spread over the run.
      const int64_t n = ++log->seen[kind];
      size_t slot = log->samples[kind].size();
      if (slot >= kSamplesPerKind) {
        slot = rng.Uniform(static_cast<uint64_t>(n));
        if (slot >= kSamplesPerKind) continue;
      }
      Sample s{kind, t, lo, hi, result->rows()};
      if (slot == log->samples[kind].size()) {
        log->samples[kind].push_back(std::move(s));
      } else {
        log->samples[kind][slot] = std::move(s);
      }
    }
    log->round_s.push_back(SecondsSince(round_start));
  }
}

struct WriterLog {
  std::vector<double> latency_ms;
  std::vector<double> single_ms;  // Insert calls
  std::vector<double> batch_ms;   // InsertRows calls
  std::vector<bool> compacted;  // traced run only
  int64_t writes = 0;
};

Row NewOrder(int64_t key, int64_t customers, const Shared& shared,
             const TimeDomain& domain, periodk::Rng* rng) {
  static const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                      "4-NOT SPECIFIED", "5-LOW"};
  // Born shortly before a popular read point, so reads see new rows.
  const TimePoint anchor = PickPoint(shared, rng);
  const TimePoint begin = std::max(domain.tmin, anchor - rng->Range(0, 60));
  const TimePoint end = std::min(domain.tmax, begin + rng->Range(30, 120));
  return {Value::Int(key),
          Value::Int(rng->Range(1, customers)),
          Value::String("O"),
          Value::Double(1000.0 + rng->NextDouble() * 400000.0),
          Value::Int(begin),
          Value::String(kPriorities[rng->Uniform(5)]),
          Value::Int(0),
          Value::Int(begin),
          Value::Int(end)};
}

// One round: a single-row Insert, then an InsertRows batch.
void WriterLoop(Shared* shared, TemporalDB* db, Model* model, uint64_t seed,
                bool watch_compactions, WriterLog* log) {
  periodk::Rng rng(seed);
  int64_t next_key = 0;
  for (const Row& o : model->orders) next_key = std::max(next_key, o[0].AsInt());
  int64_t customers = 0;  // keys run 1..n; a customer has 1-3 versions
  for (const Row& c : model->customers) customers = std::max(customers, c[0].AsInt());
  int64_t compactions = 0;
  while (!shared->stop.load(std::memory_order_relaxed)) {
    for (size_t rows : {size_t{1}, size_t{kBatchRows}}) {
      std::vector<Row> batch;
      for (size_t i = 0; i < rows; ++i) {
        batch.push_back(NewOrder(++next_key, customers, *shared, model->domain, &rng));
        model->orders.push_back(batch.back());
      }
      shared->appended_started.fetch_add(rows);
      Clock::time_point start = Clock::now();
      periodk::Status status = rows == 1 ? db->Insert("orders", batch[0])
                                         : db->InsertRows("orders", std::move(batch));
      const double ms = SecondsSince(start) * 1e3;
      log->latency_ms.push_back(ms);
      (rows == 1 ? log->single_ms : log->batch_ms).push_back(ms);
      ++log->writes;
      if (!status.ok()) Die("insert: " + status.ToString());
      shared->appended_committed.fetch_add(rows);
      if (watch_compactions) {
        const periodk::IndexMaintenanceStats m = db->index_maintenance_stats();
        const int64_t now = m.compactions + m.background_compactions;
        log->compacted.push_back(now > compactions);
        compactions = now;
      }
    }
  }
}

struct Setup {
  std::unique_ptr<TemporalDB> db;
  double seconds = 0;
  double load_s = 0;
};

// Load plus the lazy work the first reads would do: one read of every
// kind builds the timeline indexes of orders and customer.
Setup LoadAndWarm(uint64_t seed) {
  Setup s;
  Clock::time_point start = Clock::now();
  s.db = LoadDataset(Dataset::kTpcBih, seed);
  s.load_s = SecondsSince(start);
  const TimePoint t = s.db->domain().tmin + s.db->domain().size() / 2;
  for (int k = 0; k < kNumKinds; ++k) {
    const Kind kind = static_cast<Kind>(k);
    auto r = kind == kTimesliceOrders     ? s.db->Timeslice("orders", t)
             : kind == kTimesliceCustomer ? s.db->Timeslice("customer", t)
                                          : s.db->Query(Sql(kind, t));
    if (!r.ok()) Die(std::string("warm-up ") + KindName(kind));
  }
  s.seconds = SecondsSince(start);
  return s;
}

struct ServingRun {
  ReaderLog readers[2];
  WriterLog writer;
  double elapsed_s = 0;
};

ServingRun Serve(TemporalDB* db, Model* model, const Args& args,
                 double seconds, bool watch_compactions) {
  Shared shared;
  shared.db = db;
  periodk::Rng rng(MixSeed(args.seed, 4));
  double cumulative = 0;
  // The number of live orders is steady between the first deaths (an
  // order lives 30-120 days) and the last births (180 days before the
  // end); the read points stay inside that range.
  for (int i = 0; i < kTimePoints; ++i) {
    shared.points.push_back(
        rng.Range(model->domain.tmin + 120, model->domain.tmax - 180));
    cumulative += 1.0 / (i + 1);  // Zipf-like skew
    shared.point_weights.push_back(cumulative);
  }
  ServingRun run;
  Clock::time_point start = Clock::now();
  std::thread writer(WriterLoop, &shared, db, model, MixSeed(args.seed, 5),
                     watch_compactions, &run.writer);
  std::thread r0(ReaderLoop, &shared, MixSeed(args.seed, 6), &run.readers[0]);
  std::thread r1(ReaderLoop, &shared, MixSeed(args.seed, 7), &run.readers[1]);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  shared.stop.store(true);
  r0.join();
  r1.join();
  run.elapsed_s = SecondsSince(start);
  writer.join();
  return run;
}

std::vector<double> Latencies(const ServingRun& run,
                              std::initializer_list<Kind> kinds) {
  std::vector<double> out;
  for (const ReaderLog& r : run.readers) {
    for (Kind k : kinds) {
      out.insert(out.end(), r.latency_us[k].begin(), r.latency_us[k].end());
    }
  }
  return out;
}

std::vector<std::string> CheckSamples(const Model& model, const ServingRun& run,
                                      size_t* checked) {
  std::vector<std::string> failures;
  for (const ReaderLog& r : run.readers) {
    for (const auto& samples : r.samples) {
      for (const Sample& s : samples) {
        ++*checked;
        std::string f = CheckSample(model, s, s.t);
        if (!f.empty()) failures.push_back(f);
      }
    }
  }
  return failures;
}

Model CopyRows(const TemporalDB& db) {
  Model model;
  model.domain = db.domain();
  model.orders = db.catalog().Get("orders").rows();
  model.base_orders = model.orders.size();
  model.customers = db.catalog().Get("customer").rows();
  return model;
}

// Corrupts sampled answers and expects the row-copy check to reject
// each: one orders timeslice with a row dropped, and one read with its
// time point shifted by 1 where the true answer changes at that step.
void SelfTest(const Model& model, const ServingRun& run, Outcome* out) {
  int attempted = 0;
  int caught = 0;
  auto expect_fail = [&](const std::string& what, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) ++caught;
    out->notes.push_back((failure.empty() ? "NOT CAUGHT " : "caught ") + what +
                         (failure.empty() ? "" : ": " + failure));
  };
  const Sample* drop = nullptr;
  const Sample* shift = nullptr;
  for (const ReaderLog& r : run.readers) {
    for (const Sample& s : r.samples[kTimesliceOrders]) {
      if (drop == nullptr && !s.rows.empty()) drop = &s;
      // A shift is a wrong answer only where the true answer at T+1
      // differs from this one for every write count the read allows.
      bool differs = shift == nullptr;
      for (size_t k = s.appended_lo; differs && k <= s.appended_hi; ++k) {
        differs = model.Expected(s.kind, s.t + 1, k).size() != s.rows.size();
      }
      if (differs) shift = &s;
    }
  }
  if (drop != nullptr) {
    Sample bad = *drop;
    bad.rows.erase(bad.rows.begin() + static_cast<long>(bad.rows.size() / 2));
    expect_fail("timeslice(orders) with one row dropped",
                CheckSample(model, bad, bad.t));
  } else {
    expect_fail("no non-empty timeslice sample to corrupt", "");
  }
  if (shift != nullptr) {
    expect_fail("timeslice(orders) with its time point shifted by 1",
                CheckSample(model, *shift, shift->t + 1));
  } else {
    expect_fail("no timeslice sample whose answer changes at T+1", "");
  }
  out->correct = caught == attempted;
  out->attempted = attempted;
  out->failed = attempted - caught;
}

void AddTrace(TemporalDB* db, const Model& model, const ServingRun& run,
              double load_s, Outcome* out) {
  // Replay every statement shape once, single-threaded, at one point
  // the readers used.
  const TimePoint t = model.domain.tmin + model.domain.size() / 2;
  std::vector<Statement> statements;
  std::vector<Relation> expected;
  double untraced_s = 0;
  for (Kind kind : {kSelectOrders, kSelectCustomer, kJoin, kAggregate}) {
    statements.push_back({KindName(kind), Sql(kind, t)});
    Clock::time_point start = Clock::now();
    auto result = db->Query(statements.back().sql);
    untraced_s += SecondsSince(start);
    if (!result.ok()) Die(result.status().ToString());
    expected.push_back(std::move(*result));
  }
  Tracer tracer;
  periodk::RewriteOptions options = db->options();
  const double replay_s =
      AddLayerMetrics(db, statements, options, expected, &tracer, out);

  // Write path: component probes on orders, and the writer's calls.
  AddWritePathProbes(*db, "orders", out);
  AddMiddlewareCounters(*db, out);
  std::vector<double> plain;
  for (size_t i = 0; i < run.writer.latency_ms.size(); ++i) {
    if (!run.writer.compacted[i]) plain.push_back(run.writer.latency_ms[i]);
  }
  const double typical = Median(plain);
  double stall_ms = 0;
  for (size_t i = 0; i < run.writer.latency_ms.size(); ++i) {
    if (run.writer.compacted[i]) {
      stall_ms += std::max(0.0, run.writer.latency_ms[i] - typical);
    }
  }
  out->Add("middleware.insert_ms", Median(run.writer.latency_ms), "ms");
  out->Add("middleware.compaction_stall_ms", stall_ms, "ms");
  out->Add("datagen.load_s", load_s, "s");
  out->Add("datagen.publish_s", PublishSeconds(*db), "s");
  AddTraceTotals(replay_s, untraced_s, out);
  out->spans = tracer.RenderJsonLines();
}

}  // namespace

Outcome RunServing(const Args& args) {
  Outcome out;
  std::vector<double> setup_s;
  Setup setup;
  const int setups = args.trace || args.self_test ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    setup.db.reset();
    setup = LoadAndWarm(MixSeed(args.seed, 1));
    setup_s.push_back(setup.seconds);
  }
  TemporalDB* db = setup.db.get();
  out.notes.push_back(TableSizes(*db));
  Model model = CopyRows(*db);

  const double seconds = args.self_test ? std::min(args.seconds, 3.0)
                                        : args.seconds;
  ServingRun run = Serve(db, &model, args, seconds, args.trace);
  for (const ReaderLog& r : run.readers) {
    out.attempted += r.reads;
    out.failed += r.failed;
  }
  out.attempted += run.writer.writes;

  if (args.self_test) {
    SelfTest(model, run, &out);
    return out;
  }

  size_t checked = 0;
  std::vector<std::string> failures = CheckSamples(model, run, &checked);
  for (const std::string& f : failures) out.notes.push_back("CHECK FAILED " + f);
  if (!failures.empty()) out.correct = false;
  out.notes.push_back("answer checks: " + std::to_string(checked) +
                      " sampled reads, " + std::to_string(failures.size()) +
                      " failures; " + std::to_string(run.writer.writes) +
                      " writes appended " +
                      std::to_string(model.orders.size() - model.base_orders) +
                      " orders rows");

  if (args.trace) {
    AddTrace(db, model, run, setup.load_s, &out);
    return out;
  }

  // End to end: the metrics every workload reports.  A round is one
  // reader's pass over its 14 reads; the geometric mean covers the
  // median of every read kind and of both write calls.
  std::vector<double> rounds;
  std::vector<double> kind_ms;
  int64_t ops = run.writer.writes;
  for (const ReaderLog& r : run.readers) {
    rounds.insert(rounds.end(), r.round_s.begin(), r.round_s.end());
    ops += r.reads;
  }
  for (int k = 0; k < kNumKinds; ++k) {
    kind_ms.push_back(Median(Latencies(run, {static_cast<Kind>(k)})) / 1e3);
  }
  kind_ms.push_back(Median(run.writer.single_ms));
  kind_ms.push_back(Median(run.writer.batch_ms));
  out.Add("round_s", Median(rounds), "s");
  out.Add("query_geomean_ms", GeoMean(kind_ms), "ms");
  out.Add("ops_per_s", static_cast<double>(ops) / run.elapsed_s, "1/s");
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");

  // The serving breakdown, as notes: latency per read kind, the write
  // latency and their tails.
  auto note = [&](const std::string& name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s = %.6g %s", name.c_str(), value, unit);
    out.notes.push_back(buf);
  };
  auto note_tail = [&](const std::string& name, const std::vector<double>& v,
                       const char* unit) {
    Tail tail = TailOf(v);
    char buf[200];
    std::snprintf(buf, sizeof(buf), "%s = %.6g %s (p%.2f of %zu samples)",
                  name.c_str(), tail.value, unit, tail.percentile, tail.samples);
    out.notes.push_back(buf);
  };
  const std::vector<double> timeslice =
      Latencies(run, {kTimesliceOrders, kTimesliceCustomer});
  note("timeslice_p50_us", Median(timeslice), "us");
  note_tail("timeslice_tail_us", timeslice, "us");
  note("asof_select_p50_us",
       Median(Latencies(run, {kSelectOrders, kSelectCustomer})), "us");
  note("asof_join_p50_ms", Median(Latencies(run, {kJoin})) / 1e3, "ms");
  note("asof_agg_p50_ms", Median(Latencies(run, {kAggregate})) / 1e3, "ms");
  note("insert_p50_ms", Median(run.writer.latency_ms), "ms");
  note_tail("insert_tail_ms", run.writer.latency_ms, "ms");
  note("reads_per_s", static_cast<double>(ops - run.writer.writes) / run.elapsed_s,
       "1/s");
  return out;
}

}  // namespace perfbench
