#include "oracles.h"

#include <cmath>
#include <cstring>
#include <string>

#include "opt/objective.h"

namespace perfbench {
namespace {

std::string Num(double value) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

void ErrorTally::Add(double answer, uint64_t exact) {
  const auto truth = static_cast<double>(exact);
  const double error = std::fabs(answer - truth);
  absolute_ += error;
  weighted_ += truth * error;
  weight_ += truth;
  ++queries_;
}

double ErrorTally::average() const {
  return queries_ == 0 ? 0.0 : absolute_ / static_cast<double>(queries_);
}

double ErrorTally::expected() const {
  return weight_ > 0.0 ? weighted_ / weight_ : 0.0;
}

Status CheckCountMinAnswers(Span<const double> answers,
                            Span<const uint64_t> exact, uint64_t stream_total,
                            size_t width) {
  Status below = CheckNeverBelow(answers, exact);
  if (!below.ok()) return below;
  if (answers.empty()) return Status::OK();
  double overcount = 0.0;
  for (size_t i = 0; i < answers.size(); ++i) {
    overcount += answers[i] - static_cast<double>(exact[i]);
  }
  const double mean = overcount / static_cast<double>(answers.size());
  const double bound = std::exp(1.0) * static_cast<double>(stream_total) /
                       static_cast<double>(width);
  if (!(mean < bound)) {
    return Status::Internal("count-min mean over-count " + Num(mean) +
                            " is not under e*N/width = " + Num(bound));
  }
  return Status::OK();
}

Status CheckNeverBelow(Span<const double> answers,
                       Span<const uint64_t> exact_lower_bound) {
  if (answers.size() != exact_lower_bound.size()) {
    return Status::Internal("answer count " + std::to_string(answers.size()) +
                            " differs from query count " +
                            std::to_string(exact_lower_bound.size()));
  }
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] < static_cast<double>(exact_lower_bound[i])) {
      return Status::Internal(
          "count-min answer " + Num(answers[i]) + " for query " +
          std::to_string(i) + " is below its exact count " +
          std::to_string(exact_lower_bound[i]));
    }
  }
  return Status::OK();
}

Status StaticModeMismatch(uint64_t id, double answer, double expected) {
  return Status::Internal("opt-hash answer " + Num(answer) + " for stored id " +
                          std::to_string(id) +
                          " differs from its bucket's exact average " +
                          Num(expected));
}

Status CheckSolveResult(const opthash::opt::HashingProblem& problem,
                        const opthash::opt::SolveResult& result) {
  const std::vector<double>& sweeps = result.sweep_objectives;
  for (size_t i = 1; i < sweeps.size(); ++i) {
    if (sweeps[i] > sweeps[i - 1]) {
      return Status::Internal("BCD objective rose from " + Num(sweeps[i - 1]) +
                              " to " + Num(sweeps[i]) + " at sweep " +
                              std::to_string(i));
    }
  }
  if (!opthash::opt::IsValidAssignment(problem, result.assignment)) {
    return Status::Internal("solver returned an invalid assignment");
  }
  const double recomputed =
      opthash::opt::EvaluateObjective(problem, result.assignment).overall;
  const double reported = result.objective.overall;
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(recomputed));
  if (!(std::fabs(reported - recomputed) <= tolerance)) {
    return Status::Internal("reported objective " + Num(reported) +
                            " differs from the recomputed " +
                            Num(recomputed));
  }
  return Status::OK();
}

Status CheckBitIdentical(Span<const double> expected,
                         Span<const double> actual, const char* what) {
  if (expected.size() != actual.size()) {
    return Status::Internal(std::string(what) + ": " +
                            std::to_string(actual.size()) +
                            " answers, expected " +
                            std::to_string(expected.size()));
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
      return Status::Internal(std::string(what) + ": answer " +
                              std::to_string(i) + " is " + Num(actual[i]) +
                              ", expected " + Num(expected[i]));
    }
  }
  return Status::OK();
}

Status CheckServerCounts(const opthash::server::ServerStatsSnapshot& stats,
                         uint64_t query_requests_sent,
                         uint64_t items_ingested_sent) {
  if (stats.query_requests != query_requests_sent) {
    return Status::Internal(
        "server counted " + std::to_string(stats.query_requests) +
        " query requests, the generator sent " +
        std::to_string(query_requests_sent));
  }
  if (stats.items_ingested != items_ingested_sent) {
    return Status::Internal(
        "server counted " + std::to_string(stats.items_ingested) +
        " ingested items, the generator sent " +
        std::to_string(items_ingested_sent));
  }
  return Status::OK();
}

}  // namespace perfbench
