#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ledger {

double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size())));
  rank = std::max<size_t>(1, std::min(rank, samples.size()));
  return samples[rank - 1];
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double v : samples) {
    sum += v;
  }
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void MetricSet::Add(const std::string& name, double value, const std::string& unit,
                    size_t samples) {
  rows_.push_back(Metric{name, value, unit, samples});
}

std::string MetricSet::Table() const {
  size_t width = 0;
  for (const Metric& m : rows_) {
    width = std::max(width, m.name.size());
  }
  std::string out;
  char buf[256];
  for (const Metric& m : rows_) {
    std::snprintf(buf, sizeof(buf), "  %-*s %14.6g %-6s", static_cast<int>(width),
                  m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
    if (m.samples > 0) {
      out += " (n=" + std::to_string(m.samples) + ")";
    }
    out += "\n";
  }
  return out;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Metric& m = rows_[i];
    out += std::string(i ? ", " : "") + JsonString(m.name) +
           ": {\"value\": " + JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace ledger
