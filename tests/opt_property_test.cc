// Property-based sweeps over the optimization core: invariants that must
// hold for every instance, checked across randomized (n, b, lambda) grids.

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "opt/bcd.h"
#include "opt/dp.h"
#include "opt/exact.h"
#include "opt_test_util.h"

namespace opthash::opt {
namespace {

using ProblemShape = std::tuple<size_t, size_t, double>;  // n, b, lambda.

class OptInvariantSweep : public ::testing::TestWithParam<ProblemShape> {};

TEST_P(OptInvariantSweep, BcdIncrementalBookkeepingNeverDrifts) {
  // After an arbitrary number of sweeps, the incrementally maintained
  // objective equals a from-scratch evaluation.
  const auto [n, b, lambda] = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const HashingProblem problem =
        testutil::RandomProblem(n, b, lambda, 2, seed);
    BcdConfig config;
    config.max_sweeps = 50;
    config.seed = seed;
    const SolveResult result = BcdSolver(config).Solve(problem);
    ASSERT_FALSE(result.sweep_objectives.empty());
    EXPECT_NEAR(result.sweep_objectives.back(), result.objective.overall,
                1e-6 * std::max(1.0, result.objective.overall));
  }
}

TEST_P(OptInvariantSweep, ObjectiveInvariantUnderBucketRelabeling) {
  // Buckets are interchangeable: permuting bucket ids leaves every error
  // term unchanged.
  const auto [n, b, lambda] = GetParam();
  const HashingProblem problem = testutil::RandomProblem(n, b, lambda, 2, 9);
  Rng rng(10);
  Assignment assignment(n);
  for (auto& bucket : assignment) {
    bucket = static_cast<int32_t>(rng.NextBounded(b));
  }
  const ObjectiveValue base = EvaluateObjective(problem, assignment);

  const std::vector<size_t> perm = rng.Permutation(b);
  Assignment relabeled(n);
  for (size_t i = 0; i < n; ++i) {
    relabeled[i] =
        static_cast<int32_t>(perm[static_cast<size_t>(assignment[i])]);
  }
  const ObjectiveValue permuted = EvaluateObjective(problem, relabeled);
  EXPECT_NEAR(base.estimation_error, permuted.estimation_error, 1e-9);
  EXPECT_NEAR(base.similarity_error, permuted.similarity_error, 1e-7);
  EXPECT_NEAR(base.overall, permuted.overall, 1e-7);
}

TEST_P(OptInvariantSweep, MoreSweepsNeverHurt) {
  // With identical seeds, a longer BCD run extends the same trajectory, so
  // its final objective cannot be worse.
  const auto [n, b, lambda] = GetParam();
  const HashingProblem problem = testutil::RandomProblem(n, b, lambda, 2, 11);
  BcdConfig short_config;
  short_config.max_sweeps = 2;
  short_config.seed = 21;
  BcdConfig long_config = short_config;
  long_config.max_sweeps = 30;
  const double short_objective =
      BcdSolver(short_config).Solve(problem).objective.overall;
  const double long_objective =
      BcdSolver(long_config).Solve(problem).objective.overall;
  EXPECT_LE(long_objective, short_objective + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptInvariantSweep,
    ::testing::Values(std::make_tuple(10, 3, 1.0), std::make_tuple(10, 3, 0.5),
                      std::make_tuple(12, 2, 0.0), std::make_tuple(40, 6, 0.7),
                      std::make_tuple(80, 10, 1.0),
                      std::make_tuple(60, 4, 0.3)));

// The hierarchy needs the exact solver's proven optimum, so it sweeps its
// own shapes, all small enough (n <= 12) for branch-and-bound to finish.
class OptHierarchySweep : public ::testing::TestWithParam<ProblemShape> {};

TEST_P(OptHierarchySweep, SolversRespectObjectiveHierarchy) {
  // exact <= bcd everywhere; for lambda = 1 additionally dp <= bcd.
  const auto [n, b, lambda] = GetParam();
  const HashingProblem problem = testutil::RandomProblem(n, b, lambda, 2, 12);
  BcdConfig bcd_config;
  bcd_config.num_restarts = 2;
  const double bcd = BcdSolver(bcd_config).Solve(problem).objective.overall;
  ExactConfig exact_config;
  exact_config.time_limit_seconds = 10.0;
  exact_config.bcd = bcd_config;
  const SolveResult exact_result = ExactSolver(exact_config).Solve(problem);
  ASSERT_TRUE(exact_result.proven_optimal);
  const double exact = exact_result.objective.overall;
  EXPECT_LE(exact, bcd + 1e-9);
  if (lambda == 1.0) {
    const double dp = DpSolver().Solve(problem).objective.overall;
    EXPECT_LE(dp, bcd + 1e-9);
    EXPECT_NEAR(dp, exact, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OptHierarchySweep,
    ::testing::Values(std::make_tuple(10, 3, 1.0), std::make_tuple(10, 3, 0.5),
                      std::make_tuple(12, 2, 0.0), std::make_tuple(11, 4, 0.7),
                      std::make_tuple(12, 3, 1.0),
                      std::make_tuple(9, 4, 0.3)));

TEST(OptPropertyTest, ExactLowerBoundBelowAnyFeasibleSolution) {
  const HashingProblem problem = testutil::RandomProblem(9, 3, 0.6, 2, 13);
  const SolveResult result = ExactSolver().Solve(problem);
  ASSERT_TRUE(result.proven_optimal);
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    Assignment assignment(problem.NumElements());
    for (auto& bucket : assignment) {
      bucket = static_cast<int32_t>(rng.NextBounded(problem.num_buckets));
    }
    EXPECT_GE(EvaluateObjective(problem, assignment).overall,
              result.lower_bound - 1e-9);
  }
}

TEST(OptPropertyTest, DpUsesExactlyMinNBBuckets) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const size_t n = 20 + seed * 5;
    const size_t b = 4 + seed;
    HashingProblem problem = testutil::RandomProblem(n, b, 1.0, 0, seed, 1e6);
    // Distinct-ish frequencies make every additional bucket useful.
    const SolveResult result = DpSolver().Solve(problem);
    std::vector<bool> used(b, false);
    for (int32_t bucket : result.assignment) {
      used[static_cast<size_t>(bucket)] = true;
    }
    const auto used_count = static_cast<size_t>(
        std::count(used.begin(), used.end(), true));
    EXPECT_EQ(used_count, std::min(n, b)) << "seed " << seed;
  }
}

TEST(OptPropertyTest, NormalizedObjectiveConsistentWithRaw) {
  const HashingProblem problem = testutil::RandomProblem(30, 5, 0.4, 2, 15);
  Rng rng(16);
  for (int trial = 0; trial < 20; ++trial) {
    Assignment assignment(problem.NumElements());
    for (auto& bucket : assignment) {
      bucket = static_cast<int32_t>(rng.NextBounded(problem.num_buckets));
    }
    const ObjectiveValue raw = EvaluateObjective(problem, assignment);
    const NormalizedObjective normalized =
        NormalizeObjective(problem, assignment);
    // est/element * n == raw estimation error.
    EXPECT_NEAR(normalized.estimation_error_per_element *
                    static_cast<double>(problem.NumElements()),
                raw.estimation_error, 1e-7);
    // sim/pair * ordered-pairs == raw similarity error.
    std::vector<double> counts(problem.num_buckets, 0.0);
    for (int32_t bucket : assignment) counts[static_cast<size_t>(bucket)] += 1;
    double pairs = 0.0;
    for (double c : counts) pairs += c * c;
    EXPECT_NEAR(normalized.similarity_error_per_pair * pairs,
                raw.similarity_error, 1e-6);
  }
}

TEST(OptPropertyTest, ScalingFrequenciesScalesEstimationError) {
  // The estimation term is positively homogeneous in f; the similarity
  // term is unaffected.
  HashingProblem problem = testutil::RandomProblem(25, 4, 0.5, 2, 17);
  Rng rng(18);
  Assignment assignment(problem.NumElements());
  for (auto& bucket : assignment) {
    bucket = static_cast<int32_t>(rng.NextBounded(problem.num_buckets));
  }
  const ObjectiveValue base = EvaluateObjective(problem, assignment);
  HashingProblem scaled = problem;
  for (double& f : scaled.frequencies) f *= 7.0;
  const ObjectiveValue scaled_value = EvaluateObjective(scaled, assignment);
  EXPECT_NEAR(scaled_value.estimation_error, 7.0 * base.estimation_error,
              1e-6);
  EXPECT_NEAR(scaled_value.similarity_error, base.similarity_error, 1e-7);
}

TEST(OptPropertyTest, TranslatingFrequenciesPreservesEstimationError) {
  // Adding a constant to every frequency shifts all bucket means equally.
  HashingProblem problem = testutil::RandomProblem(25, 4, 1.0, 0, 19);
  Rng rng(20);
  Assignment assignment(problem.NumElements());
  for (auto& bucket : assignment) {
    bucket = static_cast<int32_t>(rng.NextBounded(problem.num_buckets));
  }
  const double base = EvaluateObjective(problem, assignment).estimation_error;
  HashingProblem shifted = problem;
  for (double& f : shifted.frequencies) f += 100.0;
  EXPECT_NEAR(EvaluateObjective(shifted, assignment).estimation_error, base,
              1e-6);
}

TEST(OptPropertyTest, IsolatingOneElementNeverIncreasesCost) {
  // Moving any single element to its own empty bucket cannot increase
  // either error term: |a - mu| + |b - mu| >= |a - b| style cancellation
  // gives cost(S \ {x}) <= cost(S) for the estimation term, and the
  // element's similarity pairs simply vanish. This singleton-split
  // monotonicity is exactly what makes "more buckets never hurt" true
  // (see DpTest.MoreBucketsNeverIncreaseCost).
  const HashingProblem problem = testutil::RandomProblem(30, 8, 0.5, 2, 21);
  Rng rng(22);
  Assignment assignment(problem.NumElements());
  // Use buckets 0..5, keeping 6 and 7 free as isolation targets.
  for (auto& bucket : assignment) {
    bucket = static_cast<int32_t>(rng.NextBounded(6));
  }
  const ObjectiveValue base = EvaluateObjective(problem, assignment);
  for (size_t element = 0; element < problem.NumElements(); ++element) {
    Assignment isolated = assignment;
    isolated[element] = 6;
    const ObjectiveValue value = EvaluateObjective(problem, isolated);
    EXPECT_LE(value.estimation_error, base.estimation_error + 1e-9);
    EXPECT_LE(value.similarity_error, base.similarity_error + 1e-7);
  }
}

TEST(OptPropertyTest, GeneralBucketMergesCanDecreaseEstimationError) {
  // A documented quirk of Problem (1)'s mean-centred L1 cost: because the
  // bucket mean is NOT the L1-optimal centre, merging two buckets can
  // occasionally *reduce* the total estimation error (the merged mean can
  // sit closer to both groups' medians). Only singleton splits carry a
  // monotonicity guarantee. This is also why the quadrangle inequality
  // fails for the mean-centred interval cost (interval_cost_test).
  const HashingProblem problem = testutil::RandomProblem(30, 6, 1.0, 0, 21);
  Rng rng(22);
  bool found_decrease = false;
  for (int restart = 0; restart < 200 && !found_decrease; ++restart) {
    Assignment assignment(problem.NumElements());
    for (auto& bucket : assignment) {
      bucket = static_cast<int32_t>(rng.NextBounded(problem.num_buckets));
    }
    const double base = EvaluateObjective(problem, assignment).overall;
    for (int32_t from = 0; from < 6 && !found_decrease; ++from) {
      for (int32_t into = 0; into < 6; ++into) {
        if (from == into) continue;
        Assignment merged = assignment;
        for (auto& bucket : merged) {
          if (bucket == from) bucket = into;
        }
        if (EvaluateObjective(problem, merged).overall < base - 1e-9) {
          found_decrease = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(found_decrease);
}

}  // namespace
}  // namespace opthash::opt
