#include "inputs.h"

#include <cstdio>
#include <utility>

#include "common/rng.h"

namespace perfbench {
namespace {

const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                "MIDDLE EAST"};
const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "HOUSEHOLD", "MACHINERY"};
const char* const kShipModes[] = {"AIR",     "FOB",  "MAIL", "RAIL",
                                  "REG AIR", "SHIP", "TRUCK"};
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

constexpr size_t kTpchPasses = 64;
constexpr size_t kServeSchedule = 8192;
constexpr size_t kPointKeys = 256;
constexpr size_t kGroupBys = 16;
constexpr size_t kHybrids = 16;
constexpr size_t kRwPointKeys = 64;
constexpr size_t kRwCycles = 2048;
constexpr size_t kWrites = 128;
constexpr size_t kProbeWrites = 2;

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

std::string Date(int y, int m, int d) {
  return "DATE '" + CivilFromDays(DaysFromCivil(y, m, d)) + "'";
}

std::string DateDays(int64_t days) {
  return "DATE '" + CivilFromDays(days) + "'";
}

/// First day of the month `months` after (y, m).
std::string MonthStart(int y, int m, int months) {
  const int index = (y * 12 + (m - 1)) + months;
  return Date(index / 12, index % 12 + 1, 1);
}

// TPC-H templates with the spec's substitution ranges (TPC-H 2.4.x.3).
// Every window ends before 1999, so the read/write workload's 1999 rows
// never enter an analytic answer.
std::vector<ReadStatement> TpchSuite(agora::Rng* rng) {
  std::vector<ReadStatement> suite;
  const std::string q1_date =
      DateDays(DaysFromCivil(1998, 12, 1) - rng->Uniform(60, 120));
  suite.push_back({"Q1", R"(
    SELECT l_returnflag, l_linestatus,
           SUM(l_quantity) AS sum_qty,
           SUM(l_extendedprice) AS sum_base_price,
           SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
           SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
           AVG(l_quantity) AS avg_qty,
           AVG(l_extendedprice) AS avg_price,
           AVG(l_discount) AS avg_disc,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE l_shipdate <= )" + q1_date + R"(
    GROUP BY l_returnflag, l_linestatus
    ORDER BY l_returnflag, l_linestatus)"});

  const std::string q3_segment = kSegments[rng->Uniform(0, 4)];
  const std::string q3_date =
      Date(1995, 3, static_cast<int>(rng->Uniform(1, 31)));
  suite.push_back({"Q3", R"(
    SELECT l_orderkey,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue,
           o_orderdate, o_shippriority
    FROM customer, orders, lineitem
    WHERE c_mktsegment = ')" + q3_segment + R"('
      AND c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND o_orderdate < )" + q3_date + R"(
      AND l_shipdate > )" + q3_date + R"(
    GROUP BY l_orderkey, o_orderdate, o_shippriority
    ORDER BY revenue DESC, o_orderdate
    LIMIT 10)"});

  const std::string q5_region = kRegions[rng->Uniform(0, 4)];
  const int q5_year = static_cast<int>(rng->Uniform(1993, 1997));
  suite.push_back({"Q5", R"(
    SELECT n_name,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue
    FROM customer, orders, lineitem, supplier, nation, region
    WHERE c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND l_suppkey = s_suppkey
      AND c_nationkey = s_nationkey
      AND s_nationkey = n_nationkey
      AND n_regionkey = r_regionkey
      AND r_name = ')" + q5_region + R"('
      AND o_orderdate >= )" + Date(q5_year, 1, 1) + R"(
      AND o_orderdate < )" + Date(q5_year + 1, 1, 1) + R"(
    GROUP BY n_name
    ORDER BY revenue DESC)"});

  const int q6_year = static_cast<int>(rng->Uniform(1993, 1997));
  const double q6_discount = static_cast<double>(rng->Uniform(2, 9)) / 100.0;
  const int64_t q6_quantity = rng->Uniform(24, 25);
  suite.push_back({"Q6", R"(
    SELECT SUM(l_extendedprice * l_discount) AS revenue
    FROM lineitem
    WHERE l_shipdate >= )" + Date(q6_year, 1, 1) + R"(
      AND l_shipdate < )" + Date(q6_year + 1, 1, 1) + R"(
      AND l_discount BETWEEN )" + Fmt("%.2f", q6_discount - 0.01) +
                           " AND " + Fmt("%.2f", q6_discount + 0.01) + R"(
      AND l_quantity < )" + std::to_string(q6_quantity)});

  const int q10_month = static_cast<int>(rng->Uniform(0, 23));  // 1993-02..
  suite.push_back({"Q10", R"(
    SELECT c_custkey, c_name,
           SUM(l_extendedprice * (1 - l_discount)) AS revenue,
           c_acctbal, n_name
    FROM customer, orders, lineitem, nation
    WHERE c_custkey = o_custkey
      AND l_orderkey = o_orderkey
      AND o_orderdate >= )" + MonthStart(1993, 2, q10_month) + R"(
      AND o_orderdate < )" + MonthStart(1993, 2, q10_month + 3) + R"(
      AND l_returnflag = 'R'
      AND c_nationkey = n_nationkey
    GROUP BY c_custkey, c_name, c_acctbal, n_name
    ORDER BY revenue DESC
    LIMIT 20)"});

  const int64_t mode1 = rng->Uniform(0, 6);
  const int64_t mode2 = (mode1 + rng->Uniform(1, 6)) % 7;
  const int q12_year = static_cast<int>(rng->Uniform(1993, 1997));
  suite.push_back({"Q12", R"(
    SELECT l_shipmode,
           SUM(CASE WHEN o_orderpriority = '1-URGENT'
                      OR o_orderpriority = '2-HIGH'
                    THEN 1 ELSE 0 END) AS high_line_count,
           SUM(CASE WHEN o_orderpriority <> '1-URGENT'
                     AND o_orderpriority <> '2-HIGH'
                    THEN 1 ELSE 0 END) AS low_line_count
    FROM orders, lineitem
    WHERE o_orderkey = l_orderkey
      AND l_shipmode IN (')" + std::string(kShipModes[mode1]) + "', '" +
                           kShipModes[mode2] + R"(')
      AND l_commitdate < l_receiptdate
      AND l_shipdate < l_commitdate
      AND l_receiptdate >= )" + Date(q12_year, 1, 1) + R"(
      AND l_receiptdate < )" + Date(q12_year + 1, 1, 1) + R"(
    GROUP BY l_shipmode
    ORDER BY l_shipmode)"});

  const int q14_month = static_cast<int>(rng->Uniform(0, 59));  // 1993-01..
  suite.push_back({"Q14", R"(
    SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                             THEN l_extendedprice * (1 - l_discount)
                             ELSE 0.0 END)
           / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
    FROM lineitem, part
    WHERE l_partkey = p_partkey
      AND l_shipdate >= )" + MonthStart(1993, 1, q14_month) + R"(
      AND l_shipdate < )" + MonthStart(1993, 1, q14_month + 1)});
  return suite;
}

std::string PointSql(int64_t key) {
  return "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, "
         "o_orderdate, o_orderpriority FROM orders WHERE o_orderkey = " +
         std::to_string(key);
}

std::string VectorLiteral(const std::vector<float>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Fmt("%.9g", static_cast<double>(v[i]));
  }
  return out + "]";
}

OrderWrite MakeWrite(int64_t key, const DatasetShape& shape, agora::Rng* rng) {
  OrderWrite write;
  write.orderkey = key;
  const int64_t orderdate =
      DaysFromCivil(1999, 1, 1) + rng->Uniform(0, 180);
  const int lines = static_cast<int>(rng->Uniform(1, 4));
  double total = 0;
  write.lineitem_sql = "INSERT INTO lineitem VALUES ";
  for (int line = 1; line <= lines; ++line) {
    const double quantity = static_cast<double>(rng->Uniform(1, 50));
    const double price =
        quantity * static_cast<double>(rng->Uniform(900, 10000));
    total += price;
    const int64_t ship = orderdate + rng->Uniform(1, 121);
    if (line > 1) write.lineitem_sql += ", ";
    write.lineitem_sql +=
        "(" + std::to_string(key) + ", " +
        std::to_string(rng->Uniform(1, shape.parts)) + ", " +
        std::to_string(rng->Uniform(1, shape.suppliers)) + ", " +
        std::to_string(line) + ", " + Fmt("%.2f", quantity) + ", " +
        Fmt("%.2f", price) + ", " +
        Fmt("%.2f", static_cast<double>(rng->Uniform(0, 10)) / 100.0) + ", " +
        Fmt("%.2f", static_cast<double>(rng->Uniform(0, 8)) / 100.0) +
        ", 'N', 'O', " + DateDays(ship) + ", " +
        DateDays(orderdate + rng->Uniform(30, 90)) + ", " +
        DateDays(ship + rng->Uniform(1, 30)) + ", '" +
        kShipModes[rng->Uniform(0, 6)] + "')";
  }
  write.orders_sql =
      "INSERT INTO orders VALUES (" + std::to_string(key) + ", " +
      std::to_string(rng->Uniform(1, shape.customers)) + ", 'O', " +
      Fmt("%.2f", total) + ", " + DateDays(orderdate) + ", '" +
      kPriorities[rng->Uniform(0, 4)] + "', 0)";
  write.point_sql = PointSql(key);
  return write;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (WorkloadKind kind :
       {WorkloadKind::kTpchOlap, WorkloadKind::kTpchBudget,
        WorkloadKind::kServeShort, WorkloadKind::kServeRw}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTpchOlap: return "tpch_olap";
    case WorkloadKind::kTpchBudget: return "tpch_budget";
    case WorkloadKind::kServeShort: return "serve_short";
    case WorkloadKind::kServeRw: return "serve_rw";
  }
  return "?";
}

bool IsServed(WorkloadKind kind) {
  return kind == WorkloadKind::kServeShort || kind == WorkloadKind::kServeRw;
}

int64_t DaysFromCivil(int y, int m, int d) {
  // Howard Hinnant's days_from_civil.
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<int64_t>(era) * 146097 + static_cast<int64_t>(doe) -
         719468;
}

std::string CivilFromDays(int64_t days) {
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(days - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp < 10 ? mp + 3 : mp - 9;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400 + (m <= 2);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", static_cast<int>(y), m, d);
  return buf;
}

Inputs MakeInputs(WorkloadKind kind, uint64_t seed, const DatasetShape& shape) {
  agora::Rng rng(seed);
  Inputs in;
  auto shuffle = [&rng](std::vector<size_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[static_cast<size_t>(
                                 rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
  };

  switch (kind) {
    case WorkloadKind::kTpchOlap:
    case WorkloadKind::kTpchBudget: {
      in.reads = TpchSuite(&rng);
      std::vector<size_t> pass(in.reads.size());
      for (size_t i = 0; i < pass.size(); ++i) pass[i] = i;
      for (size_t p = 0; p < kTpchPasses; ++p) {
        shuffle(&pass);
        in.schedule.insert(in.schedule.end(), pass.begin(), pass.end());
      }
      break;
    }
    case WorkloadKind::kServeShort: {
      for (size_t i = 0; i < kPointKeys; ++i) {
        in.reads.push_back({"point", PointSql(rng.Uniform(1, shape.orders))});
      }
      for (size_t i = 0; i < kGroupBys; ++i) {
        in.reads.push_back(
            {"groupby",
             "SELECT c_nationkey, COUNT(*) AS n, SUM(c_acctbal) AS balance "
             "FROM customer WHERE c_mktsegment = '" +
                 std::string(kSegments[rng.Uniform(0, 4)]) +
                 "' AND c_acctbal > " +
                 std::to_string(rng.Uniform(-1000, 5000)) +
                 " GROUP BY c_nationkey ORDER BY c_nationkey"});
      }
      for (size_t i = 0; i < kHybrids; ++i) {
        const size_t topic = static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(shape.topic_names.size()) - 1));
        std::vector<float> query = shape.topic_centroids[topic];
        for (float& x : query) x += static_cast<float>(rng.Gaussian() * 0.5);
        in.reads.push_back(
            {"hybrid",
             "SELECT rowid, category, price, score() FROM docs WHERE price < " +
                 std::to_string(rng.Uniform(30, 70)) + " AND MATCH(text, '" +
                 shape.topic_names[topic] + "') AND KNN(embedding, " +
                 VectorLiteral(query) +
                 ", 10) ORDER BY score() DESC LIMIT 10"});
      }
      // 80% point lookups, 10% group-bys, 10% hybrid top-10.
      for (size_t i = 0; i < kServeSchedule; ++i) {
        const int64_t draw = rng.Uniform(0, 9);
        size_t index;
        if (draw < 8) {
          index = static_cast<size_t>(rng.Uniform(0, kPointKeys - 1));
        } else if (draw == 8) {
          index = kPointKeys +
                  static_cast<size_t>(rng.Uniform(0, kGroupBys - 1));
        } else {
          index = kPointKeys + kGroupBys +
                  static_cast<size_t>(rng.Uniform(0, kHybrids - 1));
        }
        in.schedule.push_back(index);
      }
      break;
    }
    case WorkloadKind::kServeRw: {
      const std::vector<ReadStatement> suite = TpchSuite(&rng);
      for (const ReadStatement& read : suite) {
        if (read.tmpl == "Q3" || read.tmpl == "Q5" || read.tmpl == "Q6" ||
            read.tmpl == "Q14") {
          in.reads.push_back(read);
        }
      }
      const size_t analytic = in.reads.size();
      for (size_t i = 0; i < kRwPointKeys; ++i) {
        in.reads.push_back({"point", PointSql(rng.Uniform(1, shape.orders))});
      }
      // Each cycle visits every analytic template once plus one point read,
      // in a seeded order.
      std::vector<size_t> cycle(analytic + 1);
      for (size_t c = 0; c < kRwCycles; ++c) {
        for (size_t i = 0; i < cycle.size(); ++i) cycle[i] = i;
        cycle[analytic] = analytic + static_cast<size_t>(
                                         rng.Uniform(0, kRwPointKeys - 1));
        shuffle(&cycle);
        in.schedule.insert(in.schedule.end(), cycle.begin(), cycle.end());
      }
      for (size_t i = 0; i < kWrites; ++i) {
        in.writes.push_back(
            MakeWrite(shape.orders + 1 + static_cast<int64_t>(i), shape, &rng));
      }
      break;
    }
  }
  for (size_t i = 0; i < kProbeWrites; ++i) {
    in.probe_writes.push_back(MakeWrite(
        shape.orders + 1 + static_cast<int64_t>(kWrites + i), shape, &rng));
  }
  for (const ReadStatement& read : in.reads) {
    bool seen = false;
    for (const std::string& t : in.templates) seen = seen || t == read.tmpl;
    if (!seen) in.templates.push_back(read.tmpl);
  }
  return in;
}

}  // namespace perfbench
