#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

// Correctness oracles. Each one is computed apart from the library under
// test: exact counts come from the benchmark's own counter over the
// generated inputs, and every check states a property the method must
// have (count-min never under-counts; a static-mode opt-hash answer is
// its bucket's exact average; BCD never climbs), never a stored copy of
// an earlier output. Each check returns a non-OK Status naming the first
// violation; the benchmark's tests feed each one a corrupted answer.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "opt/problem.h"
#include "opt/solver.h"
#include "server/protocol.h"

namespace perfbench {

using opthash::Span;
using opthash::Status;

/// Exact arrival counts over a dense universe of element indices
/// [0, universe). The benchmark generates every key from such an index,
/// so no hashing stands between a key and its true count.
class ExactCounts {
 public:
  explicit ExactCounts(size_t universe) : counts_(universe, 0) {}

  void Add(size_t index) {
    ++counts_[index];
    ++total_;
  }
  uint64_t Count(size_t index) const { return counts_[index]; }
  uint64_t total() const { return total_; }
  size_t universe() const { return counts_.size(); }

 private:
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

/// The paper's two error measures (§7.4) over answered queries: the
/// average absolute error (1/|U|) sum |f - f~|, and the expected magnitude
/// of error sum f |f - f~| / sum f.
class ErrorTally {
 public:
  void Add(double answer, uint64_t exact);
  size_t queries() const { return queries_; }
  double average() const;
  double expected() const;

 private:
  double absolute_ = 0.0;
  double weighted_ = 0.0;
  double weight_ = 0.0;
  size_t queries_ = 0;
};

/// Count-min answers are never below the exact count, and their mean
/// over-count stays under e * stream_total / width (the eps * N bound at
/// eps = e / width).
Status CheckCountMinAnswers(Span<const double> answers,
                            Span<const uint64_t> exact, uint64_t stream_total,
                            size_t width);

/// Every answer is at least the exact count it is checked against (used
/// while ingest runs beside the queries, when counts only grow).
Status CheckNeverBelow(Span<const double> answers,
                       Span<const uint64_t> exact_lower_bound);

/// Static mode (Fig. 9c): the answer for an id stored in the learned
/// table equals the exact total arrivals of the ids sharing its bucket
/// divided by their number. `exact_of(id)` gives an id's exact count;
/// ids absent from `table` (answered by the classifier) are skipped.
/// Returns the number of answers checked through `checked`.
template <typename ExactOf>
Status CheckStaticModeAnswers(
    const std::unordered_map<uint64_t, int32_t>& table, size_t num_buckets,
    ExactOf exact_of, Span<const uint64_t> ids, Span<const double> answers,
    size_t* checked);

/// BCD's per-sweep objectives never increase, and the reported objective
/// equals opt::EvaluateObjective recomputed from the returned assignment.
Status CheckSolveResult(const opthash::opt::HashingProblem& problem,
                        const opthash::opt::SolveResult& result);

/// Two answer sets agree bit for bit.
Status CheckBitIdentical(Span<const double> expected,
                         Span<const double> actual, const char* what);

/// The daemon's own counters equal what the generator sent.
Status CheckServerCounts(const opthash::server::ServerStatsSnapshot& stats,
                         uint64_t query_requests_sent,
                         uint64_t items_ingested_sent);

// ---------------------------------------------------------------------------

Status StaticModeMismatch(uint64_t id, double answer, double expected);

template <typename ExactOf>
Status CheckStaticModeAnswers(
    const std::unordered_map<uint64_t, int32_t>& table, size_t num_buckets,
    ExactOf exact_of, Span<const uint64_t> ids, Span<const double> answers,
    size_t* checked) {
  std::vector<uint64_t> bucket_total(num_buckets, 0);
  std::vector<uint64_t> bucket_members(num_buckets, 0);
  for (const auto& [id, bucket] : table) {
    bucket_total[static_cast<size_t>(bucket)] += exact_of(id);
    ++bucket_members[static_cast<size_t>(bucket)];
  }
  size_t count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto it = table.find(ids[i]);
    if (it == table.end()) continue;
    const auto bucket = static_cast<size_t>(it->second);
    const double expected = static_cast<double>(bucket_total[bucket]) /
                            static_cast<double>(bucket_members[bucket]);
    if (answers[i] != expected) {
      return StaticModeMismatch(ids[i], answers[i], expected);
    }
    ++count;
  }
  if (checked != nullptr) *checked = count;
  return Status::OK();
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
