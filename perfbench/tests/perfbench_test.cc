// The benchmark's own tests: the order-statistic helpers on known inputs,
// the tracer's self-time arithmetic and overhead probe, the program-memory
// baseline, and every oracle on a correct answer
// and on a deliberately corrupted one. Prints each failed expectation and
// exits non-zero if there was any.

#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "inputs.h"
#include "learn_common.h"
#include "measure.h"
#include "opt/bcd.h"
#include "oracles.h"
#include "trace.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(condition)                                              \
  do {                                                                 \
    if (!(condition)) {                                                \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #condition); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

void TestOrderStatistics() {
  EXPECT(Median({}) == 0.0);
  EXPECT(Median({3, 1, 2}) == 2.0);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.5) == 50.0);
  EXPECT(Percentile(hundred, 0.99) == 99.0);
  EXPECT(Percentile(hundred, 1.0) == 100.0);
  EXPECT(Percentile({7}, 0.9) == 7.0);
  // The warm-up slice is dropped before the median.
  EXPECT(SliceMedian({1000, 1, 2, 3}, 1) == 2.0);
  EXPECT(SliceMedian({5}, 1) == 0.0);
  // A tail needs ten samples beyond it and at least 40 in all.
  EXPECT(TailQuantile(39) == 0.0);
  EXPECT(std::fabs(TailQuantile(1000) - 0.99) < 1e-12);
  EXPECT(std::fabs(TailQuantile(40) - 0.75) < 1e-12);
}

void TestBatchClock() {
  BatchClock clock;
  clock.Add(10'000'000, 100);  // Warm-up slice: 100 keys in 20 ms.
  clock.Add(10'000'000, 100);
  for (int i = 0; i < 6; ++i) clock.Add(1'000'000, 100);  // 100 keys/ms.
  clock.Add(3'000'000, 100);  // Slice of 200 keys in 4 ms.
  clock.Add(1'000'000, 100);
  // Slices of two batches: [warm-up], 1e5, 1e5, 1e5, 5e4 -> median 1e5.
  EXPECT(std::fabs(clock.SliceRate(2) - 1e5) < 1e-6);
  EXPECT(clock.MedianMicros() == 1000.0);
}

void TestErrorTally() {
  ErrorTally tally;
  tally.Add(12.0, 10);  // |err| 2, weight 10
  tally.Add(0.0, 30);   // |err| 30, weight 30
  tally.Add(1.0, 0);    // |err| 1, weight 0
  EXPECT(tally.queries() == 3);
  EXPECT(std::fabs(tally.average() - 11.0) < 1e-12);
  EXPECT(std::fabs(tally.expected() - (10.0 * 2 + 30.0 * 30) / 40.0) < 1e-12);
}

void TestTracerSelfTime() {
  Tracer tracer(true);
  {
    ScopedSpan parent(tracer, "parent", 1);
    for (int i = 0; i < 3; ++i) {
      ScopedSpan child(tracer, "child", 1);
      volatile double sink = 0;
      for (int k = 0; k < 10000; ++k) sink = sink + k;
    }
  }
  const auto layers = tracer.LayerTimes();
  const LayerTime& parent = layers.at("parent");
  const LayerTime& child = layers.at("child");
  EXPECT(parent.count == 1 && child.count == 3);
  EXPECT(parent.self_ns == parent.total_ns - child.total_ns);
  EXPECT(child.self_ns == child.total_ns);
  Tracer off(false);
  EXPECT(off.Begin("x", 0) == Tracer::kNoSpan);
  EXPECT(off.size() == 0);
}

// Spins for `ns` nanoseconds of wall time.
void BusyFor(int64_t ns) {
  const int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

void TestOverheadProbe() {
  Tracer tracer(true);
  OverheadProbe probe(tracer);
  EXPECT(probe.Fraction() == 0.0);
  // A unit that takes 20 ms traced and 10 ms untraced: overhead 1. The
  // band is wide so that a preempted pass on a busy host does not fail it.
  std::vector<bool> order;
  for (int i = 0; i < 10; ++i) {
    probe.Run([&](Tracer& t) {
      ScopedSpan span(t, "unit", static_cast<uint64_t>(i));
      order.push_back(t.enabled());
      BusyFor(t.enabled() ? 20'000'000 : 10'000'000);
    });
  }
  EXPECT(tracer.size() == 10);  // Only the traced calls record spans.
  // Traced first on even units, untraced first on odd ones.
  EXPECT(order.size() == 20);
  for (size_t i = 0; i + 1 < order.size(); i += 2) {
    EXPECT(order[i] == (i % 4 == 0) && order[i + 1] != order[i]);
  }
  EXPECT(probe.Fraction() > 0.5 && probe.Fraction() < 2.0);
}

// Allocates `mib` MiB and touches every page.
std::vector<uint8_t> Touched(size_t mib) {
  std::vector<uint8_t> block(mib << 20);
  for (size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  return block;
}

void TestProgramMemory() {
  EXPECT(CurrentRssMiB() > 0.0);
  // 32 MiB of inputs held before the baseline are not the program's; the
  // 64 MiB allocated after it are. (Bounds stay loose enough for the
  // shadow memory of a sanitizer build.)
  const std::vector<uint8_t> inputs = Touched(32);
  const ProgramMemory memory;
  const std::vector<uint8_t> program = Touched(64);
  const double above = memory.PeakAboveInputsMiB();
  EXPECT(above > 60.0);
  EXPECT(above < PeakRssMiB() - 30.0);
  EXPECT(inputs[4096] == 1 && program[4096] == 1);
}

void TestZipfDraw() {
  opthash::Rng rng(3);
  const std::vector<uint32_t> draws = ZipfIndices(200000, 1000, 1.0, rng);
  std::vector<size_t> counts(1000, 0);
  for (uint32_t d : draws) {
    EXPECT(d < 1000);
    ++counts[d];
  }
  // Zipf(1) over 1000 ranks: rank 1 takes 1 / H(1000) = 13.4% of draws,
  // twice rank 2's share.
  EXPECT(counts[0] > counts[1] && counts[1] > counts[9]);
  EXPECT(std::fabs(static_cast<double>(counts[0]) / draws.size() - 0.1336) <
         0.01);
  EXPECT(KeyOf(1) != KeyOf(2));
}

void TestCountMinOracle() {
  const std::vector<uint64_t> exact = {5, 3, 0, 9};
  const std::vector<double> good = {5, 4, 1, 9};
  EXPECT(CheckCountMinAnswers(good, exact, 17, 64).ok());
  std::vector<double> under = good;
  under[3] = 8;  // One answer below its exact count.
  EXPECT(!CheckCountMinAnswers(under, exact, 17, 64).ok());
  EXPECT(!CheckNeverBelow(under, exact).ok());
  std::vector<double> inflated = good;
  for (double& answer : inflated) answer += 1.0;  // Mean over-count 1.5.
  // e * 17 / 64 = 0.72: the inflated answers break the bound.
  EXPECT(!CheckCountMinAnswers(inflated, exact, 17, 64).ok());
  EXPECT(!CheckNeverBelow(good, std::vector<uint64_t>{5, 3, 0}).ok());  // Length mismatch.
}

void TestStaticModeOracle() {
  const std::unordered_map<uint64_t, int32_t> table = {{1, 0}, {2, 0}, {3, 1}};
  const std::unordered_map<uint64_t, uint64_t> counts = {
      {1, 4}, {2, 2}, {3, 7}, {99, 5}};
  auto exact_of = [&counts](uint64_t id) { return counts.at(id); };
  const std::vector<uint64_t> ids = {1, 2, 3, 99};
  std::vector<double> answers = {3.0, 3.0, 7.0, 0.5};  // 99: classifier.
  size_t checked = 0;
  EXPECT(CheckStaticModeAnswers(table, 2, exact_of, ids, answers, &checked)
             .ok());
  EXPECT(checked == 3);
  answers[1] = std::nextafter(3.0, 4.0);  // One ulp off its bucket average.
  EXPECT(!CheckStaticModeAnswers(table, 2, exact_of, ids, answers, nullptr)
              .ok());
}

void TestSolveOracle() {
  opthash::opt::HashingProblem problem;
  problem.frequencies = {1, 2, 9, 10, 30, 31};
  problem.features = {{0, 0}, {0, 1}, {5, 5}, {5, 6}, {9, 9}, {9, 8}};
  problem.num_buckets = 3;
  problem.lambda = 0.5;
  opthash::opt::BcdConfig config;
  config.num_restarts = 2;
  opthash::opt::SolveResult solved = opthash::opt::BcdSolver(config).Solve(problem);
  EXPECT(CheckSolveResult(problem, solved).ok());

  opthash::opt::SolveResult climbing = solved;
  climbing.sweep_objectives = {10.0, 8.0, 8.5};  // A sweep that rose.
  EXPECT(!CheckSolveResult(problem, climbing).ok());
  opthash::opt::SolveResult misreported = solved;
  misreported.objective.overall += 1e-3;
  EXPECT(!CheckSolveResult(problem, misreported).ok());
  opthash::opt::SolveResult invalid = solved;
  invalid.assignment[0] = 7;  // No such bucket.
  EXPECT(!CheckSolveResult(problem, invalid).ok());
}

void TestBitIdentityOracle() {
  const std::vector<double> a = {1.0, 2.0, 0.1};
  EXPECT(CheckBitIdentical(a, a, "same").ok());
  std::vector<double> b = a;
  b[2] = std::nextafter(0.1, 1.0);
  EXPECT(!CheckBitIdentical(a, b, "ulp").ok());
  EXPECT(!CheckBitIdentical(a, std::vector<double>{1.0, 2.0}, "short").ok());
  // -0.0 == 0.0 numerically, but the bundle must answer bit for bit.
  EXPECT(!CheckBitIdentical(std::vector<double>{0.0},
                            std::vector<double>{-0.0}, "signed zero")
              .ok());
}

void TestServerCountOracle() {
  opthash::server::ServerStatsSnapshot stats;
  stats.query_requests = 10;
  stats.items_ingested = 512;
  EXPECT(CheckServerCounts(stats, 10, 512).ok());
  EXPECT(!CheckServerCounts(stats, 11, 512).ok());
  EXPECT(!CheckServerCounts(stats, 10, 511).ok());
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestOrderStatistics();
  TestBatchClock();
  TestErrorTally();
  TestTracerSelfTime();
  TestOverheadProbe();
  TestProgramMemory();
  TestZipfDraw();
  TestCountMinOracle();
  TestStaticModeOracle();
  TestSolveOracle();
  TestBitIdentityOracle();
  TestServerCountOracle();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
