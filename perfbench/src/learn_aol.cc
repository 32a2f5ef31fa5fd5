// learn_aol: the §7 pipeline on the AOL-substitute query log. The
// featurizer is fit on day 0 and the §7.3 opt-hash trained on it
// (DP/SMAWK at lambda = 1, random forest); the model is saved and loaded
// as a binary bundle, the later days are applied through the apply verb's
// library path, and after each day its query set U_t is answered with its
// text through io::BundleQueryEngine. No socket and no sketch kernel is
// involved.

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "inputs.h"
#include "io/model_io.h"
#include "learn_common.h"
#include "measure.h"
#include "oracles.h"
#include "stream/features.h"
#include "stream/query_log.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = opthash::core;
namespace io = opthash::io;
namespace stream = opthash::stream;

// The log's query texts and its day 0 (the training prefix) are the
// workload's fixed configuration; --seed draws the later days. With a
// per-run log, each run would fit another vocabulary and forest on other
// texts, and the query path's cost would follow the draw (measured
// spreads of 31% in query_keys_per_s and 49% in query_p50_us).
constexpr uint64_t kLogSeed = 2006;

struct AolShape {
  size_t universe = 0;    // Distinct queries in the log.
  size_t per_day = 0;     // Arrivals per day.
  size_t apply_days = 0;  // Days applied after day 0.
  size_t total_buckets = 0;
  double id_ratio = 0.3;
  size_t rf_trees = 10;
  size_t rf_depth = 12;
  // Set-up loops: a featurizer fit plus prefix featurization takes ~22 ms
  // on the reference host, a bundle save plus load ~1.5 ms; each loop
  // lasts 120-130 ms.
  SetupLoops fit_setups{5, 6};
  SetupLoops bundle_setups{5, 80};
  size_t slice_batches = 16;  // Query batches per rate slice.
  size_t mixed_slices = 0;
  // The stream phases and the trainings run in `rounds` interleaved
  // rounds, so that every metric samples the whole run.
  size_t rounds = 3;
};

AolShape ShapeFor(const RunConfig& config) {
  AolShape s;
  if (config.smoke) {
    s.universe = 5000;
    s.per_day = 4000;
    s.total_buckets = 1300;
    s.rf_trees = 4;
    s.rf_depth = 6;
    s.fit_setups = {2, 1};
    s.bundle_setups = {2, 1};
    s.slice_batches = 2;
    s.rounds = 2;
  } else {
    s.universe = 50000;
    s.per_day = 20000;
    s.total_buckets = 6500;
  }
  // Nominal times on the reference host (README): a day's query set
  // takes ~30 ms, a mixed slice ~25 ms.
  const double scale = config.smoke ? 0.05 : 1.0;
  const double rounds = static_cast<double>(s.rounds);
  s.apply_days = s.rounds * SlicesFor(config, 0.35 / rounds, 0.03 * scale, 2);
  s.mixed_slices = s.rounds * SlicesFor(config, 0.2 / rounds, 0.025 * scale, 2);
  return s;
}

std::vector<uint64_t> IdsOf(const std::vector<size_t>& ranks) {
  return std::vector<uint64_t>(ranks.begin(), ranks.end());
}

/// The §7.4 query set U_t: each query that arrived on the day, once, in
/// a seeded random order. Sorted by rank, the first batches would hold
/// only head queries (table hits) and the last only tail queries (forest),
/// and a batch's latency would depend on its position.
std::vector<stream::TraceRecord> QuerySet(const stream::QueryLog& log,
                                          const std::vector<size_t>& day,
                                          opthash::Rng& rng) {
  std::vector<size_t> ranks = day;
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  for (size_t i = ranks.size(); i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.NextBounded(i)]);
  }
  std::vector<stream::TraceRecord> records;
  records.reserve(ranks.size());
  for (size_t rank : ranks) {
    records.push_back({log.QueryId(rank), log.QueryText(rank)});
  }
  return records;
}

}  // namespace

void RunLearnAol(const RunConfig& config, Tracer& tracer, Report& report) {
  const AolShape s = ShapeFor(config);
  const size_t mixed_arrivals = s.mixed_slices * s.slice_batches * kBatch;
  const size_t mixed_days = (mixed_arrivals + s.per_day - 1) / s.per_day;
  stream::QueryLogConfig log_config;
  log_config.num_queries = s.universe;
  log_config.arrivals_per_day = s.per_day;
  log_config.num_days = 1;
  log_config.seed = kLogSeed;
  report.Header(
      "phase sizes",
      "query log " + std::to_string(s.universe) + " queries, Zipf(" +
          std::to_string(log_config.zipf_s) + "), " +
          std::to_string(s.per_day) + " arrivals/day; train on day 0, apply " +
          std::to_string(s.apply_days) + " days querying U_t after each, in " +
          std::to_string(s.rounds) + " rounds; budget " +
          std::to_string(s.total_buckets) + " buckets, c = " +
          std::to_string(s.id_ratio) + ", DP/SMAWK lambda = 1, forest " +
          std::to_string(s.rf_trees) + "x depth " +
          std::to_string(s.rf_depth) + "; batch " + std::to_string(kBatch) +
          "; mixed " + std::to_string(s.mixed_slices) + " slices of " +
          std::to_string(s.slice_batches) + " batches; set-up " +
          std::to_string(s.fit_setups.loops) + " loops of " +
          std::to_string(s.fit_setups.per_loop) + " fits, " +
          std::to_string(s.bundle_setups.loops) + " loops of " +
          std::to_string(s.bundle_setups.per_loop) + " bundle round trips");

  const stream::QueryLog log(log_config);
  std::vector<std::vector<size_t>> days(1 + s.apply_days + mixed_days);
  days[0] = log.GenerateDay(0);
  {
    // Later days follow the log's Zipf law, drawn from --seed.
    opthash::Rng rng(config.seed);
    const ZipfDraw draw(s.universe, log_config.zipf_s);
    for (size_t d = 1; d < days.size(); ++d) {
      days[d].resize(s.per_day);
      for (size_t& rank : days[d]) rank = draw(rng);
    }
  }
  opthash::Rng order_rng(config.seed * 131 + 5);  // Query-set order.
  ExactCounts exact(s.universe + 1);  // Ranks are 1-based ids.
  for (size_t rank : days[0]) exact.Add(rank);
  const ProgramMemory memory;

  // ---- set-up: featurizer fit + prefix featurization ------------------
  std::vector<size_t> prefix_ranks = days[0];
  std::sort(prefix_ranks.begin(), prefix_ranks.end());
  prefix_ranks.erase(std::unique(prefix_ranks.begin(), prefix_ranks.end()),
                     prefix_ranks.end());
  std::vector<double> fit_seconds;
  std::vector<double> fit_loop_seconds;
  stream::BagOfWordsFeaturizer featurizer(500);
  std::vector<core::PrefixElement> prefix;
  for (size_t loop = 0; loop < s.fit_setups.loops; ++loop) {
    const int64_t loop_start = NowNs();
    for (size_t k = 0; k < s.fit_setups.per_loop; ++k) {
      const int64_t start = NowNs();
      stream::BagOfWordsFeaturizer fitted(500);
      std::vector<std::pair<std::string, double>> corpus;
      corpus.reserve(prefix_ranks.size());
      for (size_t rank : prefix_ranks) {
        corpus.push_back(
            {log.QueryText(rank), static_cast<double>(exact.Count(rank))});
      }
      {
        ScopedSpan span(tracer, "stream.featurizer_fit",
                        loop * s.fit_setups.per_loop + k);
        fitted.Fit(corpus);
      }
      fit_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      std::vector<core::PrefixElement> elements;
      elements.reserve(prefix_ranks.size());
      for (size_t rank : prefix_ranks) {
        elements.push_back({log.QueryId(rank),
                            static_cast<double>(exact.Count(rank)),
                            fitted.Featurize(log.QueryText(rank))});
      }
      featurizer = std::move(fitted);
      prefix = std::move(elements);
    }
    fit_loop_seconds.push_back(static_cast<double>(NowNs() - loop_start) *
                               1e-9 /
                               static_cast<double>(s.fit_setups.per_loop));
  }
  report.Phase("setup", s.fit_setups.total(), 0);

  // ---- train: OptHashEstimator::Train (train_s) -----------------------
  core::OptHashConfig train_config;
  train_config.total_buckets = s.total_buckets;
  train_config.id_ratio = s.id_ratio;
  train_config.lambda = 1.0;
  train_config.solver = core::SolverKind::kDp;
  train_config.dp.algorithm = opthash::opt::DpAlgorithm::kSmawk;
  train_config.dp.center = opthash::opt::DpCostCenter::kMedian;
  train_config.classifier = core::ClassifierKind::kRandomForest;
  train_config.rf.num_trees = s.rf_trees;
  train_config.rf.max_depth = s.rf_depth;
  train_config.rf.seed = 11;
  train_config.seed = 5;
  std::vector<double> train_seconds;
  uint64_t train_failed = 0;
  // One timed training. The first model is deployed; the later ones (one
  // per round, spread over the run) are only timed.
  auto train = [&](size_t k) -> std::optional<core::OptHashEstimator> {
    ScopedSpan span(tracer, "core.train", k);
    const int64_t start = NowNs();
    auto trained = core::OptHashEstimator::Train(train_config, prefix);
    train_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    if (!trained.ok()) {
      ++train_failed;
      report.Fail("Train: " + trained.status().ToString());
      return std::nullopt;
    }
    return std::move(trained).value();
  };
  io::ModelBundle bundle;
  bundle.featurizer = featurizer;
  bundle.estimator = train(0);
  if (!bundle.estimator.has_value()) return;
  const core::OptHashEstimator& trained = *bundle.estimator;
  report.Note("train split: solve " +
              std::to_string(trained.training_info().solve_result.elapsed_seconds) +
              " s, classifier fit " +
              std::to_string(trained.training_info().classifier_train_seconds) +
              " s, " + std::to_string(trained.num_stored_ids()) + " ids in " +
              std::to_string(trained.num_buckets()) + " buckets");
  report.Oracle("reported objective equals EvaluateObjective",
                CheckSolveResult(TrainedProblem(train_config, prefix, trained),
                                 trained.training_info().solve_result));

  // ---- bundle: save + load, repeated ---------------------------------
  const std::string bundle_path = config.tmpdir + "/model.bundle";
  std::vector<double> save_seconds;
  std::vector<double> load_seconds;
  std::vector<double> bundle_loop_seconds;
  io::ModelBundle loaded;
  uint64_t bundle_failed = 0;
  for (size_t loop = 0; loop < s.bundle_setups.loops; ++loop) {
    const int64_t loop_start = NowNs();
    for (size_t k = 0; k < s.bundle_setups.per_loop; ++k) {
      ScopedSpan span(tracer, "io.bundle",
                      loop * s.bundle_setups.per_loop + k);
      int64_t start = NowNs();
      const opthash::Status saved =
          io::SaveModelBundle(bundle_path, bundle, io::SnapshotFormat::kBinary);
      save_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      start = NowNs();
      auto reloaded = io::LoadModelBundle(bundle_path);
      load_seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      if (!saved.ok() || !reloaded.ok()) {
        ++bundle_failed;
        report.Fail("bundle save/load failed");
        continue;
      }
      loaded = std::move(reloaded).value();
    }
    bundle_loop_seconds.push_back(
        static_cast<double>(NowNs() - loop_start) * 1e-9 /
        static_cast<double>(s.bundle_setups.per_loop));
  }
  report.Phase("bundle", 2 * s.bundle_setups.total(), bundle_failed);
  if (!loaded.estimator.has_value()) return;
  {
    const std::vector<stream::TraceRecord> day0 =
        QuerySet(log, days[0], order_rng);
    std::vector<double> in_memory(day0.size());
    std::vector<double> reloaded(day0.size());
    io::BundleQueryEngine(bundle).EstimateBlock(day0, in_memory);
    io::BundleQueryEngine(loaded).EstimateBlock(day0, reloaded);
    report.Oracle("reloaded bundle answers bit-identically",
                  CheckBitIdentical(in_memory, reloaded, "reloaded bundle"));
  }
  core::OptHashEstimator& deployed = *loaded.estimator;
  io::BundleQueryEngine engine(loaded);

  // ---- rounds: apply + query days, mixed slices, one training ---------
  BatchClock apply_clock;
  BatchClock query_clock;
  BatchClock mixed_clock;
  BatchClock ingest_clock;
  double query_cpu_seconds = 0.0;
  uint64_t apply_failed = 0;
  uint64_t query_batches = 0;
  uint64_t mixed_failed = 0;
  ErrorTally errors;
  std::vector<stream::TraceRecord> last_set;
  std::vector<double> answers;
  auto exact_of = [&exact](uint64_t id) { return exact.Count(id); };
  opthash::Status static_mode;
  std::vector<size_t> mixed_ranks;
  for (size_t d = 1 + s.apply_days; d < days.size(); ++d) {
    mixed_ranks.insert(mixed_ranks.end(), days[d].begin(), days[d].end());
  }
  mixed_ranks.resize(mixed_arrivals);
  const std::vector<uint64_t> mixed_ids = IdsOf(mixed_ranks);
  size_t day = 1;
  size_t arrival = 0;
  size_t query_base = 0;
  for (size_t round = 1; round <= s.rounds; ++round) {
    // Apply the round's days; after each, answer its query set U_t.
    for (size_t d = 0; d < s.apply_days / s.rounds; ++d, ++day) {
      const std::vector<uint64_t> ids = IdsOf(days[day]);
      int64_t ns = 0;
      {
        ScopedSpan span(tracer, "phase.apply", day);
        ns = ApplyArrivals(deployed, ids);
      }
      if (ns < 0) ++apply_failed;
      apply_clock.Add(ns, ids.size());
      for (size_t rank : days[day]) exact.Add(rank);

      ScopedSpan span(tracer, "phase.query", day);
      last_set = QuerySet(log, days[day], order_rng);
      answers.assign(last_set.size(), 0.0);
      const double cpu_start = ProcessCpuSeconds();
      for (size_t base = 0; base < last_set.size(); base += kBatch) {
        const size_t n = std::min(kBatch, last_set.size() - base);
        const int64_t start = NowNs();
        engine.EstimateBlock(
            Span<const stream::TraceRecord>(last_set.data() + base, n),
            Span<double>(answers.data() + base, n));
        if (n == kBatch) query_clock.Add(NowNs() - start, n);
        ++query_batches;
      }
      query_cpu_seconds += ProcessCpuSeconds() - cpu_start;
      std::vector<uint64_t> ids_asked(last_set.size());
      for (size_t i = 0; i < last_set.size(); ++i) {
        ids_asked[i] = last_set[i].id;
        errors.Add(answers[i], exact.Count(last_set[i].id));
      }
      if (static_mode.ok()) {
        static_mode = CheckStaticModeAnswers(deployed.table(),
                                             deployed.num_buckets(), exact_of,
                                             ids_asked, answers, nullptr);
      }
    }

    // Mixed: a 512-arrival ingest frame before each query batch.
    {
      ScopedSpan span(tracer, "phase.mixed", round);
      for (size_t b = 0; b < s.mixed_slices / s.rounds * s.slice_batches;
           ++b) {
        const int64_t ns = ApplyArrivals(
            deployed, Span<const uint64_t>(mixed_ids.data() + arrival, kBatch));
        if (ns < 0) ++mixed_failed;
        ingest_clock.Add(ns, kBatch);
        for (size_t k = 0; k < kBatch; ++k) exact.Add(mixed_ranks[arrival + k]);
        arrival += kBatch;
        if (query_base + kBatch > last_set.size()) query_base = 0;
        const int64_t start = NowNs();
        engine.EstimateBlock(
            Span<const stream::TraceRecord>(last_set.data() + query_base,
                                            kBatch),
            Span<double>(answers.data(), kBatch));
        mixed_clock.Add(NowNs() - start, kBatch);
        query_base += kBatch;
      }
    }
    train(round);
  }
  report.Phase("train", train_seconds.size(), train_failed);
  report.Phase("apply", s.apply_days, apply_failed);
  report.Phase("query", query_batches, 0);
  report.Phase("mixed", 2 * (arrival / kBatch), mixed_failed);
  report.Oracle("stored ids answer their bucket's exact average",
                static_mode);
  {
    answers.assign(last_set.size(), 0.0);
    engine.EstimateBlock(last_set, answers);
    std::vector<uint64_t> ids_asked(last_set.size());
    for (size_t i = 0; i < last_set.size(); ++i) ids_asked[i] = last_set[i].id;
    size_t checked = 0;
    report.Oracle("after mixed ingest: stored ids answer their bucket average",
                  CheckStaticModeAnswers(deployed.table(),
                                         deployed.num_buckets(), exact_of,
                                         ids_asked, answers, &checked));
    report.Note("static-mode answers checked: " + std::to_string(checked) +
                " of " + std::to_string(last_set.size()));
  }

  report.Note("error over " + std::to_string(errors.queries()) +
              " checkpoint queries; expected magnitude of error " +
              std::to_string(errors.expected()) + "; query batch latency " +
              DescribeLatency(query_clock.Micros()) +
              "; mixed ingest frame " + DescribeLatency(ingest_clock.Micros()));
  report.Set("setup_s", Median(fit_loop_seconds) + Median(bundle_loop_seconds));
  report.Set("train_s", Median(train_seconds));
  report.Set("query_keys_per_s", query_clock.SliceRate(s.slice_batches));
  report.Set("query_p50_us", query_clock.MedianMicros());
  report.Set("cpu_ns_per_key",
             query_cpu_seconds * 1e9 /
                 static_cast<double>(errors.queries()));
  report.Set("load.mixed_query_keys_per_s", mixed_clock.SliceRate(s.slice_batches));
  report.Set("load.ingest_ack_p50_us", ingest_clock.MedianMicros());
  report.Set("ingest_keys_per_s", apply_clock.SliceRate(1));
  report.Set("est_error_avg", errors.average());
  report.Set("peak_rss_mb", memory.PeakAboveInputsMiB());
  report.Note(memory.Describe());

  SetServingLayersUnused(report);
  report.Set("stream.featurizer_fit_s", Median(fit_seconds));
  report.Set("io.bundle_save_s", Median(save_seconds));
  report.Set("io.bundle_load_s", Median(load_seconds));
  if (!tracer.enabled()) return;

  // ---- traced replay, layer by layer ----------------------------------
  OverheadProbe probe(tracer);
  std::vector<std::vector<double>> features(last_set.size());
  for (size_t base = 0; base < last_set.size(); base += kBatch) {
    const size_t n = std::min(kBatch, last_set.size() - base);
    probe.Run([&](Tracer& t) {
      ScopedSpan span(t, "stream.featurize", base / kBatch);
      for (size_t i = base; i < base + n; ++i) {
        loaded.featurizer.Featurize(last_set[i].text, features[i]);
      }
    });
  }
  std::vector<stream::StreamItem> items(last_set.size());
  for (size_t i = 0; i < last_set.size(); ++i) {
    items[i] = {last_set[i].id, &features[i]};
  }
  ReplayLearnedLayers(train_config, prefix, trained, items, IdsOf(days[1]),
                      tracer, probe, report);
  const auto layers = tracer.LayerTimes();
  report.Set("stream.featurize_ns_per_query",
             static_cast<double>(layers.at("stream.featurize").self_ns) /
                 static_cast<double>(last_set.size()));
  SetTraceOverhead(probe, report);
}

}  // namespace perfbench
