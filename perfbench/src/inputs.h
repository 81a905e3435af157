#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generator for the repo benchmark. Everything the engine
// sees is SQL text generated here from the workload seed: TPC-H query
// instances with substitution parameters drawn from the spec's ranges,
// point lookups, customer group-bys, hybrid MATCH+KNN queries and the
// INSERTs of the read/write workload. The same seed always yields the
// same inputs; the dataset itself comes from the engine's own fixed
// generators.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class WorkloadKind { kTpchOlap, kTpchBudget, kServeShort, kServeRw };

std::optional<WorkloadKind> ParseWorkload(std::string_view name);
const char* WorkloadName(WorkloadKind kind);
bool IsServed(WorkloadKind kind);

/// One read statement instance; `tmpl` names its query template
/// ("Q3", "point", "hybrid", ...).
struct ReadStatement {
  std::string tmpl;
  std::string sql;
};

/// One write of the read/write workload: a new order and its line items,
/// all dated 1999 so that no analytic read's predicate admits them, plus
/// the point read that must see the order once the write is acknowledged.
struct OrderWrite {
  int64_t orderkey = 0;
  std::string lineitem_sql;
  std::string orders_sql;
  std::string point_sql;
};

/// What the generator needs to know about the dataset (all of it fixed by
/// the engine's generators, none of it by the seed).
struct DatasetShape {
  int64_t orders = 150000;     // order keys are 1..orders
  int64_t customers = 15000;
  int64_t parts = 20000;
  int64_t suppliers = 1000;
  std::vector<std::string> topic_names;           // hybrid topics
  std::vector<std::vector<float>> topic_centroids;  // their embeddings
};

struct Inputs {
  /// Distinct read instances; each gets a reference result at set-up.
  std::vector<ReadStatement> reads;
  /// Template names in report order (the geomean runs over these).
  std::vector<std::string> templates;
  /// Seeded request order: indices into `reads`, cycled by the traffic
  /// loops.
  std::vector<size_t> schedule;
  /// Writes for the read/write workload's writer, in order.
  std::vector<OrderWrite> writes;
  /// Writes reserved for the traced run's cold-path probe (every
  /// workload); their keys never collide with `writes`.
  std::vector<OrderWrite> probe_writes;
};

/// Builds the inputs for `kind` from `seed`.
Inputs MakeInputs(WorkloadKind kind, uint64_t seed, const DatasetShape& shape);

/// Days since 1970-01-01 for a civil date, and the date string back.
int64_t DaysFromCivil(int y, int m, int d);
std::string CivilFromDays(int64_t days);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
