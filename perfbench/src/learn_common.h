#ifndef PERFBENCH_LEARN_COMMON_H_
#define PERFBENCH_LEARN_COMMON_H_

// What the two learned workloads (learn_aol, learn_synthetic_bcd) share:
// the apply path, batch clocks, the training oracle, and the traced
// replays of training, routing and accumulation through direct layer
// calls.

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "core/opt_hash_estimator.h"
#include "opt/problem.h"
#include "report.h"
#include "stream/element.h"
#include "trace.h"

namespace perfbench {

using opthash::Span;

/// Wall time and key count of each timed batch of one phase.
class BatchClock {
 public:
  void Add(int64_t ns, size_t keys) {
    ns_.push_back(static_cast<double>(ns));
    keys_.push_back(keys);
  }
  size_t batches() const { return ns_.size(); }
  /// Median keys/s over consecutive slices of `per_slice` batches, the
  /// first (warm-up) slice dropped.
  double SliceRate(size_t per_slice) const;
  /// Median batch latency, microseconds.
  double MedianMicros() const;
  std::vector<double> Micros() const;

 private:
  std::vector<double> ns_;
  std::vector<size_t> keys_;
};

/// Applies arrivals to a trained estimator the way `opthash_cli apply`
/// does (ShardedIngestCustom on one thread: accumulate bucket deltas,
/// then fold them in). Returns the wall nanoseconds taken, or -1 when the
/// library reported an error.
int64_t ApplyArrivals(opthash::core::OptHashEstimator& estimator,
                      Span<const uint64_t> ids);

/// The optimization instance Train solved: the prefix elements whose ids
/// the learned table stores, in prefix order (Train keeps its sample in
/// ascending prefix order).
opthash::opt::HashingProblem TrainedProblem(
    const opthash::core::OptHashConfig& config,
    const std::vector<opthash::core::PrefixElement>& prefix,
    const opthash::core::OptHashEstimator& estimator);

/// Sets the serving-path per-layer metrics, which these workloads never
/// call, to zero.
void SetServingLayersUnused(Report& report);

/// Traced replays of the learned path through direct layer calls:
/// the solver and the classifier fit on the instance Train solved (the
/// replayed assignment must equal the trained one), batched routing and
/// classifier prediction over `queries`, and bucket accumulation over
/// `arrivals`. The per-batch loops run through `probe` (traced and
/// untraced). Sets opt.*, ml.*, core.* per-layer metrics.
void ReplayLearnedLayers(
    const opthash::core::OptHashConfig& config,
    const std::vector<opthash::core::PrefixElement>& prefix,
    const opthash::core::OptHashEstimator& estimator,
    const std::vector<opthash::stream::StreamItem>& queries,
    Span<const uint64_t> arrivals, Tracer& tracer, OverheadProbe& probe,
    Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_LEARN_COMMON_H_
