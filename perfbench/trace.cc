#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>

#include "ra/cost_model.h"
#include "rewrite/rewriter.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "checks.h"

namespace perfbench {

using periodk::Plan;
using periodk::PlanKind;
using periodk::PlanPtr;

namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::map<std::string, periodk::sql::PeriodTableInfo> PeriodTables(
    const periodk::TemporalDB& db) {
  std::map<std::string, periodk::sql::PeriodTableInfo> out;
  for (const std::string& name : db.catalog().TableNames()) {
    if (db.IsPeriodTable(name)) out[name] = {"vt_begin", "vt_end"};
  }
  return out;
}

void UniqueNodes(const PlanPtr& plan, std::set<const Plan*>* seen,
                 std::vector<PlanPtr>* out) {
  if (plan == nullptr || !seen->insert(plan.get()).second) return;
  UniqueNodes(plan->left, seen, out);
  UniqueNodes(plan->right, seen, out);
  out->push_back(plan);  // children before parents
}

// One replayed statement: the executable plan, the result, the engine
// counters and the per-layer times.
struct Replay {
  PlanPtr plan;
  periodk::Relation result;
  periodk::ExecStats stats;
  double tokenize_us = 0;
  double parse_us = 0;
  double bind_us = 0;
  double rewrite_us = 0;
  double pushdown_us = 0;
  double cost_model_us = 0;
  int64_t plan_nodes = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int Tracer::Begin(const std::string& name, int parent, int query_id) {
  spans_.push_back({name, Clock::now(), {}, parent, query_id});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Clock::now();
  return Us(span.start, span.end);
}

std::vector<std::string> Tracer::RenderJsonLines() const {
  std::vector<std::string> lines;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"query\": %d}",
                  i, JsonEscape(s.name).c_str(), Us(origin_, s.start),
                  Us(origin_, s.end), s.parent, s.query_id);
    lines.emplace_back(buf);
  }
  return lines;
}

periodk::sql::BoundStatement BindStatement(const periodk::TemporalDB& db,
                                           const std::string& sql) {
  auto parsed = periodk::sql::Parse(sql);
  if (!parsed.ok()) Die("parse: " + parsed.status().ToString());
  auto period_tables = PeriodTables(db);
  periodk::sql::Binder binder(&db.catalog(), &period_tables);
  auto bound = binder.Bind(*parsed);
  if (!bound.ok()) Die("bind: " + bound.status().ToString());
  return std::move(*bound);
}

namespace {

periodk::ExecOptions ExecOptionsFor(const periodk::RewriteOptions& options) {
  periodk::ExecOptions exec;
  exec.num_threads = options.num_threads;
  exec.use_timeline_index = options.use_timeline_index;
  exec.use_cost_model = options.use_cost_model;
  return exec;
}

std::string KindMetricName(PlanKind kind) {
  // PlanKindName is CamelCase ("SplitAggregate"); metrics use snake case.
  std::string camel = periodk::PlanKindName(kind);
  std::string out;
  for (size_t i = 0; i < camel.size(); ++i) {
    char c = camel[i];
    if (c >= 'A' && c <= 'Z') {
      if (i > 0) out += '_';
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += c;
    }
  }
  return out;
}

// Every kind reported under engine.self_ms (zero when absent).
const std::vector<PlanKind>& ReportedKinds() {
  // The kinds the workloads' plans contain; Aggregate, Distinct, Sort
  // and UnionAll occur in none of them.
  static const std::vector<PlanKind> kKinds = {
      PlanKind::kSelect,   PlanKind::kProject,        PlanKind::kJoin,
      PlanKind::kExceptAll, PlanKind::kCoalesce,      PlanKind::kSplit,
      PlanKind::kSplitAggregate, PlanKind::kTimeslice,
  };
  return kKinds;
}

// Replays `sql` through the layer functions, one span per call.
Replay ReplayStatement(const periodk::TemporalDB& db, const std::string& sql,
                       const periodk::RewriteOptions& options, int query_id,
                       Tracer* tracer) {
  Replay r;
  const int root = tracer->Begin("statement", -1, query_id);

  int span = tracer->Begin("sql.tokenize", root, query_id);
  auto tokens = periodk::sql::Tokenize(sql);
  r.tokenize_us = tracer->End(span);
  if (!tokens.ok()) Die("tokenize: " + tokens.status().ToString());

  span = tracer->Begin("sql.parse", root, query_id);
  auto parsed = periodk::sql::Parse(sql);
  r.parse_us = tracer->End(span);
  if (!parsed.ok()) Die("parse: " + parsed.status().ToString());

  auto period_tables = PeriodTables(db);
  span = tracer->Begin("sql.bind", root, query_id);
  periodk::sql::Binder binder(&db.catalog(), &period_tables);
  auto bound = binder.Bind(*parsed);
  r.bind_us = tracer->End(span);
  if (!bound.ok()) Die("bind: " + bound.status().ToString());

  try {
    PlanPtr plan = bound->plan;
    span = tracer->Begin("rewrite.rewrite", root, query_id);
    std::optional<periodk::CostModel> cost;
    if (options.use_cost_model) cost.emplace(&db.catalog(), db.domain());
    if (bound->snapshot) {
      periodk::SnapshotRewriter rewriter(db.domain(), options,
                                         bound->encoded_tables,
                                         cost.has_value() ? &*cost : nullptr);
      plan = rewriter.Rewrite(plan);
    } else if (cost.has_value()) {
      plan = periodk::ReorderJoins(plan, *cost);
    }
    r.rewrite_us = tracer->End(span);

    if (bound->snapshot && bound->as_of.has_value()) {
      span = tracer->Begin("rewrite.pushdown", root, query_id);
      plan = periodk::MakeTimeslice(std::move(plan), *bound->as_of);
      if (options.push_down_timeslice) plan = periodk::PushDownTimeslice(plan);
      r.pushdown_us = tracer->End(span);
    }

    span = tracer->Begin("ra.cost_model", root, query_id);
    if (cost.has_value()) plan = periodk::ApplyJoinStrategyHints(plan, *cost);
    r.cost_model_us = tracer->End(span);

    if (!bound->order_by.empty()) {
      auto keys = periodk::sql::BindOrderBy(bound->order_by, plan->schema);
      if (!keys.ok()) Die("order by: " + keys.status().ToString());
      plan = periodk::MakeSort(std::move(plan), std::move(*keys));
    }
    r.plan = plan;
    std::set<const Plan*> seen;
    std::vector<PlanPtr> nodes;
    UniqueNodes(plan, &seen, &nodes);
    r.plan_nodes = static_cast<int64_t>(nodes.size());

    span = tracer->Begin("engine.execute", root, query_id);
    r.result = periodk::Execute(plan, db.catalog(), ExecOptionsFor(options),
                                &r.stats);
    tracer->End(span);
  } catch (const std::exception& error) {
    Die(std::string("replay: ") + error.what());
  }
  tracer->End(root);
  return r;
}

// Per-operator self time, added into `self_ms` by operator kind.  A
// shared subplan executes once per subtree run, as in the whole plan,
// but a consumer that is not its last copies it, and which consumer
// that is can differ from the whole-plan run: around shared nodes the
// split is approximate.
void AddSelfTimes(const PlanPtr& plan, const periodk::Catalog& catalog,
                  const periodk::ExecOptions& exec,
                  std::map<std::string, double>* self_ms, Tracer* tracer,
                  int query_id) {
  std::set<const Plan*> seen;
  std::vector<PlanPtr> nodes;
  UniqueNodes(plan, &seen, &nodes);
  const int root = tracer->Begin("engine.self_time", -1, query_id);
  // Executing a subtree runs each of its unique nodes once (the
  // executor memoizes shared subplans), so a node's self time is its
  // subtree time minus the self times of its unique descendants.
  std::map<const Plan*, double> node_self_ms;
  std::map<const Plan*, std::set<const Plan*>> below;
  for (const PlanPtr& node : nodes) {  // children first
    std::set<const Plan*>& desc = below[node.get()];
    for (const PlanPtr& child : {node->left, node->right}) {
      if (child == nullptr) continue;
      desc.insert(child.get());
      desc.insert(below[child.get()].begin(), below[child.get()].end());
    }
    // Inside a plan, scans and constants share a handle without copying;
    // executed alone they would be copied out, so they are not timed.
    if (node->kind == PlanKind::kScan || node->kind == PlanKind::kConstant) {
      node_self_ms[node.get()] = 0;
      continue;
    }
    const int span = tracer->Begin(
        "engine.subtree." + KindMetricName(node->kind), root, query_id);
    periodk::Relation out = periodk::Execute(node, catalog, exec);
    double ms = tracer->End(span) / 1000.0;
    for (const Plan* d : desc) ms -= node_self_ms[d];
    node_self_ms[node.get()] = std::max(0.0, ms);
    (*self_ms)[KindMetricName(node->kind)] += node_self_ms[node.get()];
  }
  tracer->End(root);
}

// Cardinality q-errors, max(est, actual) / min(est, actual) with both
// floored at one row, for every node the execution recorded.
void AddQErrors(const periodk::TemporalDB& db, const Replay& replay,
                std::vector<double>* qerrors) {
  periodk::CostModel cost(&db.catalog(), db.domain());
  std::set<const Plan*> seen;
  std::vector<PlanPtr> nodes;
  UniqueNodes(replay.plan, &seen, &nodes);
  for (const PlanPtr& node : nodes) {
    auto it = replay.stats.node_rows.find(node.get());
    if (it == replay.stats.node_rows.end()) continue;
    double est = std::max(1.0, cost.EstimateRows(*node));
    double actual = std::max<double>(1.0, static_cast<double>(it->second));
    qerrors->push_back(std::max(est, actual) / std::min(est, actual));
  }
}

}  // namespace

double AddLayerMetrics(periodk::TemporalDB* db,
                       const std::vector<Statement>& statements,
                       const periodk::RewriteOptions& options,
                       const std::vector<periodk::Relation>& expected,
                       Tracer* tracer, Outcome* out) {
  std::vector<Replay> replays;
  double replay_s = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    Clock::time_point start = Clock::now();
    replays.push_back(ReplayStatement(*db, statements[i].sql, options,
                                      static_cast<int>(i), tracer));
    replay_s += SecondsSince(start);
    std::string why;
    if (!BagMatch(replays.back().result.rows(), expected[i].rows(), &why)) {
      out->correct = false;
      out->notes.push_back(statements[i].name +
                           ": replayed pipeline differs from Query: " + why);
    }
  }
  std::vector<double> tokenize, parse, bind, rewrite, pushdown, cost;
  int64_t nodes = 0;
  periodk::ExecStats total;
  std::vector<double> qerrors;
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    tokenize.push_back(r.tokenize_us);
    parse.push_back(r.parse_us);
    bind.push_back(r.bind_us);
    rewrite.push_back(r.rewrite_us);
    pushdown.push_back(r.pushdown_us);
    cost.push_back(r.cost_model_us);
    nodes += r.plan_nodes;
    total.Merge(r.stats);
    AddQErrors(*db, r, &qerrors);
    AddSelfTimes(r.plan, db->catalog(), ExecOptionsFor(options), &self_ms,
                 tracer, static_cast<int>(i));
  }
  out->Add("sql.tokenize_us", Median(tokenize), "us");
  out->Add("sql.parse_us", Median(parse), "us");
  out->Add("sql.bind_us", Median(bind), "us");
  out->Add("rewrite.rewrite_us", Median(rewrite), "us");
  out->Add("rewrite.pushdown_us", Median(pushdown), "us");
  out->Add("rewrite.plan_nodes", static_cast<double>(nodes), "count");
  out->Add("ra.cost_model_us", Median(cost), "us");
  out->Add("ra.card_qerror_median", Median(qerrors), "ratio");
  out->Add("ra.card_qerror_max",
           qerrors.empty() ? 1.0
                           : *std::max_element(qerrors.begin(), qerrors.end()),
           "ratio");

  // Planning through the middleware: a miss right after the cache was
  // dropped, then a hit on the same text.
  std::vector<double> miss_us, hit_us;
  for (const Statement& s : statements) {
    db->set_plan_cache_enabled(false);
    db->set_plan_cache_enabled(true);
    for (std::vector<double>* sink : {&miss_us, &hit_us}) {
      Clock::time_point start = Clock::now();
      if (!db->Prepare(s.sql, options).ok()) Die("prepare " + s.name);
      sink->push_back(SecondsSince(start) * 1e6);
    }
  }
  out->Add("middleware.plan_us_miss", Median(miss_us), "us");
  out->Add("middleware.plan_us_hit", Median(hit_us), "us");

  for (PlanKind kind : ReportedKinds()) {
    const std::string name = KindMetricName(kind);
    auto it = self_ms.find(name);
    out->Add("engine.self_ms." + name, it == self_ms.end() ? 0 : it->second,
             "ms");
  }
  out->Add("engine.nodes_executed", total.nodes_executed, "count");
  out->Add("engine.memo_hits", total.memo_hits, "count");
  out->Add("engine.rows_materialized", total.rows_materialized, "count");
  out->Add("engine.parallel_tasks", total.parallel_tasks, "count");
  out->Add("engine.cost_gated_fanouts", total.cost_gated_fanouts, "count");
  out->Add("engine.cost_nl_joins", total.cost_nl_joins, "count");
  out->Add("engine.index_timeslices", total.index_timeslices, "count");
  out->Add("engine.index_delta_events", total.index_delta_events, "count");
  out->Add("engine.index_join_prunes", total.index_join_prunes, "count");
  return replay_s;
}

void AddMiddlewareCounters(const periodk::TemporalDB& db, Outcome* out) {
  const periodk::PlanCacheStats cache = db.plan_cache_stats();
  const periodk::IndexMaintenanceStats maint = db.index_maintenance_stats();
  out->Add("middleware.plan_cache_hits", cache.hits, "count");
  out->Add("middleware.plan_cache_misses", cache.misses, "count");
  out->Add("middleware.plan_cache_invalidations", cache.invalidations, "count");
  out->Add("middleware.delta_publishes", maint.delta_publishes, "count");
  out->Add("middleware.compactions",
           maint.compactions + maint.background_compactions, "count");
}

void AddTraceTotals(double replay_s, double untraced_s, Outcome* out) {
  out->Add("trace.replay_s", replay_s, "s");
  out->Add("trace.untraced_s", untraced_s, "s");
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traced replay %.4f s beside %.4f s untraced through "
                "TemporalDB::Query for the same statements",
                replay_s, untraced_s);
  out->notes.push_back(buf);
}

}  // namespace perfbench
