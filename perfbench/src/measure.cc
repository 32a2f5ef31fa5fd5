#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double CurrentRssMiB() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(statm, "%llu %llu", &size, &resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

ProgramMemory::ProgramMemory()
    : inputs_mib_(CurrentRssMiB()), generator_peak_mib_(PeakRssMiB()) {}

double ProgramMemory::PeakAboveInputsMiB() const {
  return PeakRssMiB() - inputs_mib_;
}

std::string ProgramMemory::Describe() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "memory: inputs hold %.1f MiB, peak while generating %.1f "
                "MiB, process peak %.1f MiB",
                inputs_mib_, generator_peak_mib_, PeakRssMiB());
  return line;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double SliceMedian(const std::vector<double>& per_slice, size_t warmup) {
  if (per_slice.size() <= warmup) return 0.0;
  return Median(std::vector<double>(
      per_slice.begin() + static_cast<std::ptrdiff_t>(warmup),
      per_slice.end()));
}

double TailQuantile(size_t n) {
  if (n < 40) return 0.0;
  return 1.0 - 10.0 / static_cast<double>(n);
}

std::string DescribeLatency(const std::vector<double>& micros) {
  char line[160];
  const double tail = TailQuantile(micros.size());
  if (tail == 0.0) {
    std::snprintf(line, sizeof(line), "p50 = %.2f us (n = %zu)",
                  Median(micros), micros.size());
  } else {
    std::snprintf(line, sizeof(line),
                  "p50 = %.2f us, p%.4g = %.2f us (n = %zu)", Median(micros),
                  tail * 100.0, Percentile(micros, tail), micros.size());
  }
  return line;
}

}  // namespace perfbench
