// Sample statistics and metric reporting for the ledger benchmark.
//
// Every percentile in the ledger goes through NearestRank: the value at rank
// ceil(q * n), clamped to [1, n], of the sorted samples — the same semantics as
// bench::ComputePercentiles. Medians are NearestRank(0.5). Each reported percentile
// carries its sample count.

#ifndef LEDGER_STATS_H_
#define LEDGER_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ledger {

// Nearest-rank percentile; 0 for an empty sample set.
double NearestRank(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 0.5);
}
// Arithmetic mean; 0 for an empty sample set.
double Mean(const std::vector<double>& samples);

// Process CPU time (user + system) in seconds, and peak resident set size in MiB.
double ProcessCpuSeconds();
double PeakRssMb();

// One named measurement. `samples` is the count behind a percentile, median or mean
// (0 when the value is a single reading or a count).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0);

  // Aligned "name value unit (n=...)" lines for humans.
  std::string Table() const;
  // {"name": {"value": v, "unit": "u"}, ...} with every digit of each value.
  std::string Json() const;

 private:
  std::vector<Metric> rows_;
};

// A double with all its significant digits ("%.17g"), as JSON.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace ledger

#endif  // LEDGER_STATS_H_
