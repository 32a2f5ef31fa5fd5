#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one run prints: a host fingerprint header, one line per phase with
// the operations it attempted and the ones that failed, one line per
// oracle, every metric as a readable line, and as the last line of stdout
// one JSON object {correct, attempted, failed, values} with every metric
// the run measured by name. The metric vocabulary (units, end-to-end or
// per-layer) lives in BENCHMARK.json only: run.py attaches the units,
// keeps the metrics of the run's kind, and fails on a missing or unknown
// one.

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace perfbench {

class Report {
 public:
  Report() = default;

  /// "# key: value" fingerprint line.
  void Header(const std::string& key, const std::string& value);
  /// Free-form "# ..." line.
  void Note(const std::string& text);
  /// Operations one phase attempted and how many of them failed.
  void Phase(const std::string& name, uint64_t attempted, uint64_t failed);
  /// Records an oracle's verdict; a failed oracle makes the run incorrect.
  void Oracle(const std::string& name, const opthash::Status& status);
  /// Records a metric by its BENCHMARK.json name. Every run must report
  /// all metrics of the kind it prints; a per-layer metric of a layer the
  /// workload never calls reads 0.
  void Set(const std::string& name, double value);
  /// Marks the run incorrect with a reason (e.g. a failed library call).
  void Fail(const std::string& reason);

  bool correct() const { return correct_; }

  /// Prints the JSON result line; returns the process exit code (0 only
  /// when every oracle held and no operation failed).
  int Finish();

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
