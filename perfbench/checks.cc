#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using periodk::Value;
using periodk::ValueType;

namespace {

// A row split into an exact part (every non-double value, rendered)
// and the doubles, which are compared with a tolerance.
struct Normalized {
  std::string exact;
  std::vector<double> doubles;
};

Normalized Normalize(const Row& row) {
  Normalized n;
  for (const Value& v : row) {
    if (v.type() == ValueType::kDouble) {
      n.exact += "\x1f" "d";
      n.doubles.push_back(v.AsDouble());
    } else {
      n.exact += "\x1f";
      n.exact += periodk::ValueTypeName(v.type());
      n.exact += ":";
      n.exact += v.ToString();
    }
  }
  return n;
}

bool Close(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= 1e-6 * scale;
}

std::vector<Normalized> Canonical(const std::vector<Row>& rows) {
  std::vector<Normalized> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(Normalize(row));
  std::sort(out.begin(), out.end(), [](const Normalized& x, const Normalized& y) {
    if (x.exact != y.exact) return x.exact < y.exact;
    return x.doubles < y.doubles;
  });
  return out;
}

std::string Render(const Normalized& n) {
  std::string s = n.exact;
  for (double d : n.doubles) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), " %.10g", d);
    s += buf;
  }
  for (char& c : s) {
    if (c == '\x1f') c = '|';
  }
  return s;
}

int64_t IntervalCell(const Row& row, size_t col) {
  const int64_t* v = row[col].TryInt();
  return v == nullptr ? INT64_MIN : *v;
}

// Rows of a period-encoded result (interval in the two trailing
// columns) alive at `t`, with the interval columns dropped.
std::vector<Row> SliceRows(const Relation& encoded, TimePoint t) {
  std::vector<Row> out;
  const size_t arity = encoded.schema().size();
  for (const Row& row : encoded.rows()) {
    int64_t b = IntervalCell(row, arity - 2);
    int64_t e = IntervalCell(row, arity - 1);
    if (b <= t && t < e) out.emplace_back(row.begin(), row.end() - 2);
  }
  return out;
}

}  // namespace

bool BagMatch(std::vector<Row> a, std::vector<Row> b, std::string* why) {
  if (a.size() != b.size()) {
    if (why != nullptr) {
      *why = std::to_string(a.size()) + " rows vs " + std::to_string(b.size());
    }
    return false;
  }
  std::vector<Normalized> x = Canonical(a);
  std::vector<Normalized> y = Canonical(b);
  for (size_t i = 0; i < x.size(); ++i) {
    bool same = x[i].exact == y[i].exact &&
                x[i].doubles.size() == y[i].doubles.size();
    for (size_t j = 0; same && j < x[i].doubles.size(); ++j) {
      same = Close(x[i].doubles[j], y[i].doubles[j]);
    }
    if (!same) {
      if (why != nullptr) {
        *why = "row " + std::to_string(i) + ": [" + Render(x[i]) + "] vs [" +
               Render(y[i]) + "]";
      }
      return false;
    }
  }
  return true;
}

const Catalog& SnapshotCache::At(TimePoint t) {
  auto it = slices_.find(t);
  if (it != slices_.end()) return it->second;
  Catalog slice;
  const Catalog& live = db_->catalog();
  for (const std::string& name : live.TableNames()) {
    const Relation& table = live.Get(name);
    if (!db_->IsPeriodTable(name)) {
      slice.Put(name, table);
      continue;
    }
    const int b = table.schema().Find("", "vt_begin");
    const int e = table.schema().Find("", "vt_end");
    std::vector<periodk::Column> columns;
    for (size_t i = 0; i < table.schema().size(); ++i) {
      if (static_cast<int>(i) != b && static_cast<int>(i) != e) {
        columns.push_back(table.schema().at(i));
      }
    }
    std::vector<Row> rows;
    for (const Row& row : table.rows()) {
      if (IntervalCell(row, b) <= t && t < IntervalCell(row, e)) {
        Row kept;
        kept.reserve(columns.size());
        for (size_t i = 0; i < row.size(); ++i) {
          if (static_cast<int>(i) != b && static_cast<int>(i) != e) {
            kept.push_back(row[i]);
          }
        }
        rows.push_back(std::move(kept));
      }
    }
    slice.Put(name, Relation(periodk::Schema(std::move(columns)),
                             std::move(rows)));
  }
  return slices_.emplace(t, std::move(slice)).first->second;
}

std::string CheckIntervals(const Relation& result, const TimeDomain& domain) {
  const size_t arity = result.schema().size();
  if (arity < 2) return "result has no interval columns";
  for (const Row& row : result.rows()) {
    int64_t b = IntervalCell(row, arity - 2);
    int64_t e = IntervalCell(row, arity - 1);
    if (!(domain.tmin <= b && b < e && e <= domain.tmax)) {
      return "interval [" + row[arity - 2].ToString() + ", " +
             row[arity - 1].ToString() + ") empty or outside " +
             domain.ToString();
    }
  }
  return "";
}

std::string CheckTiling(const Relation& result, const TimeDomain& domain) {
  const size_t arity = result.schema().size();
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (const Row& row : result.rows()) {
    spans.emplace_back(IntervalCell(row, arity - 2),
                       IntervalCell(row, arity - 1));
  }
  std::sort(spans.begin(), spans.end());
  TimePoint covered = domain.tmin;
  for (const auto& [b, e] : spans) {
    if (b != covered) {
      return "global aggregate has " +
             std::string(b < covered ? "two rows" : "no row") + " alive at " +
             std::to_string(b < covered ? b : covered);
    }
    covered = e;
  }
  if (covered != domain.tmax) {
    return "global aggregate coverage ends at " + std::to_string(covered) +
           ", domain at " + std::to_string(domain.tmax);
  }
  return "";
}

std::string CheckReducible(const Relation& result, const PlanPtr& snapshot_plan,
                           const std::vector<TimePoint>& points,
                           SnapshotCache* cache) {
  for (TimePoint t : points) {
    Relation expected = periodk::Execute(snapshot_plan, cache->At(t));
    std::string why;
    if (!BagMatch(SliceRows(result, t), expected.rows(), &why)) {
      return "not snapshot-reducible at T=" + std::to_string(t) + ": " + why;
    }
  }
  return "";
}

std::vector<TimePoint> CheckPoints(const std::vector<TimePoint>& shared,
                                   const Relation& result, size_t row,
                                   const TimeDomain& domain) {
  std::vector<TimePoint> points = shared;
  if (row < result.size()) {
    const Row& r = result.rows()[row];
    const size_t arity = r.size();
    int64_t b = IntervalCell(r, arity - 2);
    int64_t e = IntervalCell(r, arity - 1);
    for (int64_t t : {b - 1, b, e - 1, e}) {
      if (domain.Contains(t)) points.push_back(t);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

}  // namespace perfbench
