#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "trace.h"

namespace perfbench {

/// Keys per query/ingest frame and per in-process batch, everywhere.
inline constexpr size_t kBatch = 512;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Nominal measured time. Every phase's work is fixed from it (slice
  /// counts, not deadlines), so two runs with the same value do the same
  /// operations.
  int seconds = 10;
  /// Shrinks the inputs (universes, training sets) so a run takes a few
  /// seconds; used by the benchmark's own tests.
  bool smoke = false;
  /// Per-run temporary directory (socket, checkpoint, bundle files).
  std::string tmpdir;
};

/// Slice count for a phase given the share of the run it should take and
/// the nominal time of one slice on the reference host; at least
/// `minimum`, so the warm-up slice is never the only one.
size_t SlicesFor(const RunConfig& config, double share,
                 double nominal_slice_seconds, size_t minimum);

/// trace.span_cost_ns (one Begin/End pair on a throwaway tracer) and
/// trace.overhead_fraction (the probe's traced-vs-untraced difference).
void SetTraceOverhead(const OverheadProbe& probe, Report& report);

/// Set-ups are timed in loops of `per_loop` set-ups, each loop long
/// enough (>= 100 ms on the reference host) that no sample is one short
/// timing. A sample is a loop's time divided by `per_loop`; setup_s is
/// the median over the loops.
struct SetupLoops {
  size_t loops = 5;
  size_t per_loop = 1;
  size_t total() const { return loops * per_loop; }
};

void RunServeCms(const RunConfig& config, Tracer& tracer, Report& report);
void RunLearnAol(const RunConfig& config, Tracer& tracer, Report& report);
void RunLearnSyntheticBcd(const RunConfig& config, Tracer& tracer,
                          Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
