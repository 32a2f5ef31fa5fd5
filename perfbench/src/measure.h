#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Clocks and order statistics shared by every workload. Rates and
// latencies are medians over equal slices of a phase (never best-of), and
// a tail is only named when enough samples lie beyond it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock now, in nanoseconds.
int64_t NowNs();

/// User + system CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();

/// Peak resident set size of the process so far, MiB.
double PeakRssMiB();

/// Current resident set size of the process, MiB (/proc/self/statm).
double CurrentRssMiB();

/// peak_rss_mb is the program's memory, not the generator's: the peak RSS
/// above the RSS held once the workload's inputs are generated. Construct
/// it when the inputs are ready, before the program's first call.
class ProgramMemory {
 public:
  ProgramMemory();
  /// Peak RSS now minus the RSS at construction, MiB.
  double PeakAboveInputsMiB() const;
  /// "inputs hold X MiB; peak while generating Y MiB" line: when Y is
  /// above the program's peak, the metric cannot see the program.
  std::string Describe() const;

 private:
  double inputs_mib_;
  double generator_peak_mib_;
};

/// Median of `values` (mean of the two middle values for an even count).
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the ceil(q * n)-th smallest value, q in (0, 1].
/// 0 for an empty input.
double Percentile(std::vector<double> values, double q);

/// Median of per-slice measurements after dropping the first `warmup`
/// slices (the warm-up slice of a phase is never reported).
double SliceMedian(const std::vector<double>& per_slice, size_t warmup);

/// The highest percentile with at least ten samples beyond it
/// (q = 1 - 10/n), or 0 when n < 40: with fewer samples a tail would be
/// no tail, and only the median is printed.
double TailQuantile(size_t n);

/// "p99 = 31.2 us (n = 2000)" style line for a latency sample set, or the
/// median alone when the set is too small for a tail.
std::string DescribeLatency(const std::vector<double>& micros);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
