// learn_synthetic_bcd: opt-hash trained by block coordinate descent
// (Algorithm 1) at lambda = 0.5 with several restarts, plus a CART
// classifier, on the §6 grouped synthetic universe. The stream is then
// applied in chunks of |S0|/4 arrivals, and after each chunk every element
// the stream shows, seen in the prefix or not, is queried with its
// features. Unlike the lambda = 1 DP workload, the
// similarity term of the objective is live here.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "learn_common.h"
#include "measure.h"
#include "oracles.h"
#include "stream/synthetic.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = opthash::core;
namespace stream = opthash::stream;

// The universe (group means, element features) and the training prefix S0
// are the workload's fixed configuration; --seed draws the stream. BCD
// settles in a different local optimum on every prefix, so a per-run
// prefix would make train_s and the errors a lottery over instances
// (measured spreads of 20% and 32%) instead of a measurement.
constexpr uint64_t kUniverseSeed = 42;
constexpr uint64_t kPrefixSeed = 7;

struct SyntheticShape {
  size_t groups = 0;     // G: group g holds 2^(2+g) elements.
  size_t buckets = 40;   // b: learned buckets.
  size_t restarts = 4;   // BCD starting points.
  size_t chunks = 0;     // Stream chunks of |S0|/4 arrivals.
  // Problem builds: counting the prefix into PrefixElements takes
  // ~0.75 ms on the reference host, so a loop of 200 lasts ~150 ms.
  SetupLoops setups{5, 200};
  // The stream phases and the trainings run in `rounds` interleaved
  // rounds, so that every metric samples the whole run.
  size_t rounds = 3;
  size_t query_rounds = 0;  // Passes over the query set per checkpoint.
  size_t slice_batches = 16;
  size_t mixed_slices = 0;
};

SyntheticShape ShapeFor(const RunConfig& config) {
  SyntheticShape s;
  if (config.smoke) {
    s.groups = 7;
    s.setups = {2, 2};
    s.slice_batches = 2;
    s.rounds = 2;
  } else {
    s.groups = 13;
  }
  // Nominal times on the reference host (README): applying a chunk takes
  // ~0.7 ms, one pass over the query set ~3 ms, a mixed slice ~0.8 ms.
  const double scale = config.smoke ? 0.05 : 1.0;
  const double rounds = static_cast<double>(s.rounds);
  s.chunks = s.rounds * SlicesFor(config, 0.005 / rounds, 0.0007 * scale, 4);
  s.query_rounds = SlicesFor(config, 0.2, s.chunks * 0.003 * scale, 1);
  s.mixed_slices = s.rounds * SlicesFor(config, 0.05 / rounds, 0.0008 * scale, 2);
  return s;
}

}  // namespace

void RunLearnSyntheticBcd(const RunConfig& config, Tracer& tracer,
                          Report& report) {
  const SyntheticShape s = ShapeFor(config);
  stream::SyntheticConfig world_config;
  world_config.num_groups = s.groups;
  world_config.fraction_seen = 0.5;
  world_config.seed = kUniverseSeed;

  // ---- inputs: the universe, the prefix S0 and the stream -------------
  const stream::SyntheticWorld world(world_config);
  std::vector<size_t> prefix_arrivals;
  {
    opthash::Rng rng(kPrefixSeed);
    prefix_arrivals = world.GeneratePrefix(world.DefaultPrefixLength(), rng);
  }
  const size_t prefix_length = world.DefaultPrefixLength();
  const size_t chunk_length = prefix_length / 4;
  opthash::Rng stream_rng(config.seed * 131 + 3);
  const size_t mixed_arrivals = s.mixed_slices * s.slice_batches * kBatch;
  const std::vector<size_t> arrivals = world.GenerateStream(
      s.chunks * chunk_length + mixed_arrivals, stream_rng);
  ExactCounts exact(world.NumElements());
  for (size_t element : prefix_arrivals) exact.Add(element);
  const ProgramMemory memory;

  // ---- set-up: the optimization problem built from S0 (setup_s) --------
  std::vector<double> setup_seconds;
  std::vector<core::PrefixElement> prefix;
  for (size_t loop = 0; loop < s.setups.loops; ++loop) {
    ScopedSpan span(tracer, "phase.setup", loop);
    const int64_t start = NowNs();
    for (size_t k = 0; k < s.setups.per_loop; ++k) {
      std::vector<uint32_t> counts(world.NumElements(), 0);
      for (size_t element : prefix_arrivals) ++counts[element];
      std::vector<core::PrefixElement> elements;
      for (size_t e = 0; e < counts.size(); ++e) {
        if (counts[e] == 0) continue;
        elements.push_back(
            {e, static_cast<double>(counts[e]), world.FeaturesOf(e)});
      }
      prefix = std::move(elements);
    }
    setup_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9 /
                            static_cast<double>(s.setups.per_loop));
  }
  report.Phase("setup", s.setups.total(), 0);

  report.Header(
      "phase sizes",
      "synthetic G = " + std::to_string(s.groups) + " (" +
          std::to_string(world.NumElements()) + " elements), |S0| = " +
          std::to_string(prefix_length) + " (" +
          std::to_string(prefix.size()) + " distinct), stream " +
          std::to_string(s.chunks) + " x |S0|/4; b = " +
          std::to_string(s.buckets) + ", BCD lambda = 0.5 x " +
          std::to_string(s.restarts) + " restarts, CART; query rounds " +
          std::to_string(s.query_rounds) + " per chunk; batch " +
          std::to_string(kBatch) + "; mixed " +
          std::to_string(s.mixed_slices) + " slices of " +
          std::to_string(s.slice_batches) + " batches; set-up " +
          std::to_string(s.setups.loops) + " loops of " +
          std::to_string(s.setups.per_loop));

  // ---- train: BCD + CART (train_s) -------------------------------------
  core::OptHashConfig train_config;
  // Every prefix element's id is stored; b buckets remain.
  train_config.total_buckets = prefix.size() + s.buckets;
  train_config.id_ratio =
      static_cast<double>(s.buckets) / static_cast<double>(prefix.size());
  train_config.lambda = 0.5;
  train_config.solver = core::SolverKind::kBcd;
  train_config.bcd.num_restarts = s.restarts;
  train_config.bcd.seed = 13;
  train_config.classifier = core::ClassifierKind::kCart;
  train_config.cart.max_depth = 12;
  train_config.seed = 5;
  std::vector<double> train_seconds;
  uint64_t train_failed = 0;
  // One timed training. The first model takes the stream; the later ones
  // (one per round, spread over the run) are only timed.
  auto train = [&](size_t k) -> std::optional<core::OptHashEstimator> {
    ScopedSpan span(tracer, "core.train", k);
    const int64_t start = NowNs();
    auto result = core::OptHashEstimator::Train(train_config, prefix);
    train_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (!result.ok()) {
      ++train_failed;
      report.Fail("Train: " + result.status().ToString());
      return std::nullopt;
    }
    return std::move(result).value();
  };
  std::optional<core::OptHashEstimator> deployed = train(0);
  if (!deployed.has_value()) return;
  report.Note("train split: solve " +
              std::to_string(deployed->training_info().solve_result.elapsed_seconds) +
              " s, classifier fit " +
              std::to_string(deployed->training_info().classifier_train_seconds) +
              " s, " + std::to_string(deployed->num_stored_ids()) + " ids in " +
              std::to_string(deployed->num_buckets()) + " buckets");
  report.Oracle(
      "BCD sweeps never increase; objective equals EvaluateObjective",
      CheckSolveResult(TrainedProblem(train_config, prefix, *deployed),
                       deployed->training_info().solve_result));

  // The query set: every element the stream shows, seen in the prefix or
  // not, with its features, in a seeded random order (in index order the
  // batches would run group by group, heavy groups first).
  std::vector<uint8_t> shown(world.NumElements(), 0);
  for (size_t i = 0; i < s.chunks * chunk_length; ++i) shown[arrivals[i]] = 1;
  std::vector<stream::StreamItem> queries;
  for (size_t e = 0; e < shown.size(); ++e) {
    if (shown[e] != 0) queries.push_back({e, &world.FeaturesOf(e)});
  }
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[stream_rng.NextBounded(i)]);
  }
  std::vector<uint64_t> query_ids(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) query_ids[i] = queries[i].id;

  // ---- rounds: apply + query chunks, mixed slices, one training -------
  BatchClock apply_clock;
  BatchClock query_clock;
  BatchClock mixed_clock;
  BatchClock ingest_clock;
  double query_cpu_seconds = 0.0;
  uint64_t apply_failed = 0;
  uint64_t query_batches = 0;
  uint64_t mixed_failed = 0;
  std::vector<uint64_t> ids(chunk_length);
  std::vector<double> answers(queries.size());
  ErrorTally errors;
  core::OptHashQueryWorkspace workspace;
  auto exact_of = [&exact](uint64_t id) { return exact.Count(id); };
  opthash::Status static_mode;
  size_t chunk = 0;
  size_t mixed_arrival = s.chunks * chunk_length;
  size_t query_base = 0;
  std::vector<uint64_t> frame(kBatch);
  for (size_t round = 1; round <= s.rounds; ++round) {
    // Apply the round's chunks; after each, answer the whole query set.
    for (size_t c = 0; c < s.chunks / s.rounds; ++c, ++chunk) {
      for (size_t i = 0; i < chunk_length; ++i) {
        ids[i] = arrivals[chunk * chunk_length + i];
      }
      int64_t ns = 0;
      {
        ScopedSpan span(tracer, "phase.apply", chunk);
        ns = ApplyArrivals(*deployed, ids);
      }
      if (ns < 0) ++apply_failed;
      apply_clock.Add(ns, ids.size());
      for (uint64_t id : ids) exact.Add(id);

      ScopedSpan span(tracer, "phase.query", chunk);
      const double cpu_start = ProcessCpuSeconds();
      for (size_t pass = 0; pass < s.query_rounds; ++pass) {
        for (size_t base = 0; base < queries.size(); base += kBatch) {
          const size_t n = std::min(kBatch, queries.size() - base);
          const int64_t start = NowNs();
          deployed->EstimateBatch(
              Span<const stream::StreamItem>(queries.data() + base, n),
              Span<double>(answers.data() + base, n), workspace);
          if (n == kBatch) query_clock.Add(NowNs() - start, n);
          ++query_batches;
        }
      }
      query_cpu_seconds += ProcessCpuSeconds() - cpu_start;
      for (size_t i = 0; i < queries.size(); ++i) {
        errors.Add(answers[i], exact.Count(query_ids[i]));
      }
      if (static_mode.ok()) {
        static_mode = CheckStaticModeAnswers(deployed->table(),
                                             deployed->num_buckets(), exact_of,
                                             query_ids, answers, nullptr);
      }
    }

    // Mixed: a 512-arrival ingest frame before each query batch.
    {
      ScopedSpan span(tracer, "phase.mixed", round);
      for (size_t b = 0; b < s.mixed_slices / s.rounds * s.slice_batches;
           ++b) {
        for (size_t k = 0; k < kBatch; ++k) {
          frame[k] = arrivals[mixed_arrival + k];
        }
        mixed_arrival += kBatch;
        const int64_t ns = ApplyArrivals(*deployed, frame);
        if (ns < 0) ++mixed_failed;
        ingest_clock.Add(ns, kBatch);
        for (uint64_t id : frame) exact.Add(id);
        if (query_base + kBatch > queries.size()) query_base = 0;
        const int64_t start = NowNs();
        deployed->EstimateBatch(
            Span<const stream::StreamItem>(queries.data() + query_base,
                                           kBatch),
            Span<double>(answers.data(), kBatch), workspace);
        mixed_clock.Add(NowNs() - start, kBatch);
        query_base += kBatch;
      }
    }
    train(round);
  }
  report.Phase("train", train_seconds.size(), train_failed);
  report.Phase("apply", s.chunks, apply_failed);
  report.Phase("query", query_batches, 0);
  report.Phase("mixed", 2 * s.mixed_slices * s.slice_batches, mixed_failed);
  report.Oracle("stored ids answer their bucket's exact average", static_mode);
  {
    deployed->EstimateBatch(queries, answers, workspace);
    size_t checked = 0;
    report.Oracle("after mixed ingest: stored ids answer their bucket average",
                  CheckStaticModeAnswers(deployed->table(),
                                         deployed->num_buckets(), exact_of,
                                         query_ids, answers, &checked));
    report.Note("static-mode answers checked: " + std::to_string(checked) +
                " of " + std::to_string(queries.size()) + " queries");
  }

  report.Note("error over " + std::to_string(errors.queries()) +
              " checkpoint queries; expected magnitude of error " +
              std::to_string(errors.expected()) + "; query batch latency " +
              DescribeLatency(query_clock.Micros()) +
              "; mixed ingest frame " + DescribeLatency(ingest_clock.Micros()));
  report.Set("setup_s", Median(setup_seconds));
  report.Set("train_s", Median(train_seconds));
  report.Set("query_keys_per_s", query_clock.SliceRate(s.slice_batches));
  report.Set("query_p50_us", query_clock.MedianMicros());
  report.Set("cpu_ns_per_key",
             query_cpu_seconds * 1e9 /
                 static_cast<double>(s.query_rounds * errors.queries()));
  report.Set("load.mixed_query_keys_per_s", mixed_clock.SliceRate(s.slice_batches));
  report.Set("load.ingest_ack_p50_us", ingest_clock.MedianMicros());
  report.Set("ingest_keys_per_s", apply_clock.SliceRate(1));
  report.Set("est_error_avg", errors.average());
  report.Set("peak_rss_mb", memory.PeakAboveInputsMiB());
  report.Note(memory.Describe());

  SetServingLayersUnused(report);
  for (const char* name : {"io.bundle_save_s", "io.bundle_load_s",
                           "stream.featurizer_fit_s",
                           "stream.featurize_ns_per_query"}) {
    report.Set(name, 0.0);  // No text featurizer or bundle here.
  }
  if (!tracer.enabled()) return;

  std::vector<uint64_t> first_chunk(arrivals.begin(),
                                    arrivals.begin() +
                                        static_cast<std::ptrdiff_t>(chunk_length));
  OverheadProbe probe(tracer);
  ReplayLearnedLayers(train_config, prefix, *deployed, queries, first_chunk,
                      tracer, probe, report);
  SetTraceOverhead(probe, report);
}

}  // namespace perfbench
