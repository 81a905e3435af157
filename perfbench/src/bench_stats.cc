#include "bench_stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t PercentileRank(size_t n, double p) {
  if (n == 0) return 0;
  // The small epsilon keeps exact products (0.9 * 100) from rounding up a
  // rank through floating-point error.
  const double exact = p * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - PercentileRank(n, p);
}

bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinBeyond;
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (!PercentileSupported(samples.size(), p)) return std::nullopt;
  const size_t index = PercentileRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double PlainMedian(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
