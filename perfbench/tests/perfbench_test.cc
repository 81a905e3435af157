// Unit tests of the benchmark's own helpers: the percentile and
// sample-count rule, and the seeded input generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "bench_stats.h"
#include "inputs.h"
#include "sql/parser.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankOnExactProducts) {
  EXPECT_EQ(PercentileRank(100, 0.9), 90u);
  EXPECT_EQ(PercentileRank(100, 0.5), 50u);
  EXPECT_EQ(PercentileRank(1000, 0.99), 990u);
  EXPECT_EQ(PercentileRank(101, 0.5), 51u);
  EXPECT_EQ(PercentileRank(1, 0.99), 1u);
}

TEST(PercentileTest, ValueIsTheRankedSampleInAnyOrder) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(*Percentile(v, 0.5), 100.0);
  EXPECT_EQ(*Percentile(v, 0.9), 180.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  // p90 of 100 samples leaves exactly 10 beyond; 99 leaves 9.
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_TRUE(Percentile(OneTo(100), 0.9).has_value());
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_FALSE(Percentile(OneTo(99), 0.9).has_value());
  // p99 needs 1000 samples, the median 20.
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(19, 0.5));
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, MedianAndGeoMean) {
  EXPECT_EQ(PlainMedian({3, 1, 2}), 2.0);
  EXPECT_EQ(PlainMedian({4, 1, 2, 3}), 2.5);
  EXPECT_NEAR(GeoMean({1, 100}), 10.0, 1e-9);
}

TEST(DateTest, RoundTrips) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(CivilFromDays(DaysFromCivil(1998, 12, 1) - 90), "1998-09-02");
  EXPECT_EQ(CivilFromDays(DaysFromCivil(1996, 2, 29)), "1996-02-29");
}

DatasetShape Shape() {
  DatasetShape shape;
  shape.topic_names = {"astronomy", "cooking"};
  shape.topic_centroids = {{1.0f, 2.0f}, {-1.0f, 0.5f}};
  return shape;
}

const WorkloadKind kAll[] = {WorkloadKind::kTpchOlap, WorkloadKind::kTpchBudget,
                             WorkloadKind::kServeShort, WorkloadKind::kServeRw};

std::string Flatten(const Inputs& in) {
  std::string out;
  for (const auto& r : in.reads) out += r.tmpl + "|" + r.sql + "\n";
  for (size_t i : in.schedule) out += std::to_string(i) + ",";
  for (const auto& w : in.writes) out += w.lineitem_sql + w.orders_sql;
  for (const auto& w : in.probe_writes) out += w.lineitem_sql + w.orders_sql;
  return out;
}

TEST(InputsTest, SameSeedSameInputs) {
  for (WorkloadKind kind : kAll) {
    EXPECT_EQ(Flatten(MakeInputs(kind, 7, Shape())),
              Flatten(MakeInputs(kind, 7, Shape())))
        << WorkloadName(kind);
    EXPECT_NE(Flatten(MakeInputs(kind, 7, Shape())),
              Flatten(MakeInputs(kind, 8, Shape())))
        << WorkloadName(kind);
  }
}

/// The checks every seed must pass: every statement parses, every read is
/// a SELECT, the schedule covers every template, written keys are new and
/// distinct, and no written date falls inside an analytic window.
void CheckInputs(WorkloadKind kind, uint64_t seed) {
  SCOPED_TRACE(std::string(WorkloadName(kind)) + " seed " +
               std::to_string(seed));
  const DatasetShape shape = Shape();
  const Inputs in = MakeInputs(kind, seed, shape);
  ASSERT_FALSE(in.reads.empty());
  ASSERT_FALSE(in.schedule.empty());
  std::set<std::string> scheduled;
  for (size_t index : in.schedule) {
    ASSERT_LT(index, in.reads.size());
    scheduled.insert(in.reads[index].tmpl);
  }
  EXPECT_EQ(scheduled.size(), in.templates.size());
  for (const ReadStatement& read : in.reads) {
    auto stmt = agora::ParseStatement(read.sql);
    ASSERT_TRUE(stmt.ok()) << read.sql << "\n" << stmt.status().ToString();
    EXPECT_TRUE(std::holds_alternative<agora::SelectStatement>(stmt->node));
    EXPECT_EQ(read.sql.find("'1999-"), std::string::npos) << read.sql;
  }
  std::set<int64_t> keys;
  for (const auto* list : {&in.writes, &in.probe_writes}) {
    for (const OrderWrite& w : *list) {
      EXPECT_GT(w.orderkey, shape.orders);
      EXPECT_TRUE(keys.insert(w.orderkey).second);
      for (const std::string* sql : {&w.lineitem_sql, &w.orders_sql}) {
        auto stmt = agora::ParseStatement(*sql);
        ASSERT_TRUE(stmt.ok()) << *sql;
        EXPECT_NE(sql->find("'1999-"), std::string::npos);
        EXPECT_EQ(sql->find("'1998-"), std::string::npos);
      }
    }
  }
  EXPECT_EQ(in.writes.empty(), kind != WorkloadKind::kServeRw);
  EXPECT_FALSE(in.probe_writes.empty());
}

TEST(InputsTest, EverySeedPassesTheSameChecks) {
  for (WorkloadKind kind : kAll) {
    for (uint64_t seed : {1u, 2u, 99u, 123456u}) CheckInputs(kind, seed);
  }
}

TEST(InputsTest, ServeShortMixIsEightyTenTen) {
  const Inputs in = MakeInputs(WorkloadKind::kServeShort, 3, Shape());
  std::map<std::string, double> share;
  for (size_t index : in.schedule) share[in.reads[index].tmpl] += 1;
  for (auto& [tmpl, n] : share) n /= static_cast<double>(in.schedule.size());
  EXPECT_NEAR(share["point"], 0.8, 0.02);
  EXPECT_NEAR(share["groupby"], 0.1, 0.02);
  EXPECT_NEAR(share["hybrid"], 0.1, 0.02);
}

TEST(InputsTest, WorkloadNamesRoundTrip) {
  for (WorkloadKind kind : kAll) {
    EXPECT_EQ(ParseWorkload(WorkloadName(kind)), kind);
  }
  EXPECT_FALSE(ParseWorkload("nope").has_value());
}

}  // namespace
}  // namespace perfbench
