#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

// Sample statistics for the repo benchmark. A percentile is reported only
// when at least kMinBeyond samples lie beyond it: with fewer, the figure
// is set by a handful of samples and does not repeat from run to run.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinBeyond = 10;

/// Nearest-rank percentile position: the 1-based rank ceil(p * n).
size_t PercentileRank(size_t n, double p);

/// Samples strictly beyond the p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// True when n samples support reporting the p-th percentile.
bool PercentileSupported(size_t n, double p);

/// Nearest-rank p-th percentile of `samples` (any order), or nullopt when
/// the sample count does not support it (see PercentileSupported).
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Median of a small set with no sample-count rule (used for the median of
/// repeated set-ups and for per-instance medians in the traced run).
double PlainMedian(std::vector<double> values);

/// Geometric mean of positive values (0 for an empty set).
double GeoMean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
