#include "learn_common.h"

#include <algorithm>
#include <memory>
#include <string>

#include "measure.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "opt/bcd.h"
#include "opt/dp.h"
#include "oracles.h"
#include "stream/sharded_ingest.h"
#include "workloads.h"

namespace perfbench {

namespace core = opthash::core;
namespace opt = opthash::opt;

double BatchClock::SliceRate(size_t per_slice) const {
  std::vector<double> rates;
  for (size_t begin = 0; begin + per_slice <= ns_.size(); begin += per_slice) {
    double ns = 0.0;
    double keys = 0.0;
    for (size_t b = begin; b < begin + per_slice; ++b) {
      ns += ns_[b];
      keys += static_cast<double>(keys_[b]);
    }
    rates.push_back(keys / (ns * 1e-9));
  }
  return SliceMedian(rates, 1);
}

double BatchClock::MedianMicros() const { return Median(Micros()); }

std::vector<double> BatchClock::Micros() const {
  std::vector<double> micros(ns_.size());
  for (size_t i = 0; i < ns_.size(); ++i) micros[i] = ns_[i] * 1e-3;
  return micros;
}

int64_t ApplyArrivals(core::OptHashEstimator& estimator,
                      Span<const uint64_t> ids) {
  opthash::stream::ShardedIngestConfig config;
  config.num_threads = 1;
  const int64_t start = NowNs();
  auto stats = opthash::stream::ShardedIngestCustom(
      ids, config,
      [&estimator](size_t) {
        return std::vector<double>(estimator.num_buckets(), 0.0);
      },
      [&estimator](std::vector<double>& deltas, size_t /*worker*/,
                   Span<const uint64_t> block) {
        estimator.AccumulateUpdates(block, deltas);
      },
      [&estimator](std::vector<double>& deltas) {
        return estimator.ApplyBucketDeltas(deltas);
      });
  const int64_t elapsed = NowNs() - start;
  return stats.ok() ? elapsed : -1;
}

opt::HashingProblem TrainedProblem(
    const core::OptHashConfig& config,
    const std::vector<core::PrefixElement>& prefix,
    const core::OptHashEstimator& estimator) {
  opt::HashingProblem problem;
  problem.num_buckets = estimator.num_buckets();
  problem.lambda = config.lambda;
  for (const core::PrefixElement& element : prefix) {
    if (estimator.table().count(element.id) == 0) continue;
    problem.frequencies.push_back(element.frequency);
    if (config.lambda < 1.0) problem.features.push_back(element.features);
  }
  return problem;
}

void SetServingLayersUnused(Report& report) {
  for (const char* name :
       {"kernels.hash_ns_per_key", "kernels.min_gather_ns_per_key",
        "kernels.scatter_add_ns_per_key", "sketch.estimate_batch_ns_per_key",
        "sketch.update_batch_ns_per_key", "served_model.estimate_ns_per_key",
        "served_model.ingest_ns_per_key", "served_model.open_s",
        "protocol.encode_request_ns", "protocol.decode_request_ns",
        "protocol.encode_reply_ns", "protocol.decode_reply_ns",
        "server.handler_p50_us", "server.transport_p50_us",
        "server.ping_p50_us", "server.query_requests",
        "server.items_ingested", "load.ingest_lateness_us",
        "io.snapshot_load_s", "trace.query_path_residual_us"}) {
    report.Set(name, 0.0);
  }
}

void ReplayLearnedLayers(const core::OptHashConfig& config,
                         const std::vector<core::PrefixElement>& prefix,
                         const core::OptHashEstimator& estimator,
                         const std::vector<opthash::stream::StreamItem>& queries,
                         Span<const uint64_t> arrivals, Tracer& tracer,
                         OverheadProbe& probe, Report& report) {
  // Training, one layer at a time, on the instance Train solved.
  const opt::HashingProblem problem =
      TrainedProblem(config, prefix, estimator);
  opt::SolveResult solved;
  {
    ScopedSpan span(tracer, "opt.solve", 0);
    solved = config.solver == core::SolverKind::kDp
                 ? opt::DpSolver(config.dp).Solve(problem)
                 : opt::BcdSolver(config.bcd).Solve(problem);
  }
  const opt::Assignment& trained =
      estimator.training_info().solve_result.assignment;
  report.Oracle("replayed solve reproduces the trained assignment",
                solved.assignment == trained
                    ? opthash::Status::OK()
                    : opthash::Status::Internal("assignments differ"));
  std::unique_ptr<opthash::ml::Classifier> classifier;
  if (config.classifier == core::ClassifierKind::kRandomForest) {
    classifier = std::make_unique<opthash::ml::RandomForest>(config.rf);
  } else {
    classifier = std::make_unique<opthash::ml::DecisionTree>(config.cart);
  }
  {
    opthash::ml::Dataset train(prefix.front().features.size());
    for (const core::PrefixElement& element : prefix) {
      auto it = estimator.table().find(element.id);
      if (it != estimator.table().end()) train.Add(element.features, it->second);
    }
    ScopedSpan span(tracer, "ml.fit", 0);
    classifier->Fit(train);
  }

  // Query path: routing (table probe, classifier for misses) and the
  // classifier alone on the rows the table misses.
  core::OptHashQueryWorkspace workspace;
  std::vector<size_t> misses;
  for (size_t base = 0; base < queries.size(); base += kBatch) {
    const size_t n = std::min(kBatch, queries.size() - base);
    probe.Run([&](Tracer& t) {
      ScopedSpan span(t, "core.route", base / kBatch);
      estimator.RouteBatch(
          Span<const opthash::stream::StreamItem>(queries.data() + base, n),
          workspace);
    });
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (estimator.table().count(queries[i].id) == 0) misses.push_back(i);
  }
  const size_t dim = prefix.front().features.size();
  opthash::ml::Matrix rows;
  std::vector<int> replayed(kBatch);
  std::vector<int> deployed(kBatch);
  opthash::Status predictions_agree;
  for (size_t base = 0; base < misses.size(); base += kBatch) {
    const size_t n = std::min(kBatch, misses.size() - base);
    rows.Reshape(n, dim);
    for (size_t r = 0; r < n; ++r) {
      const std::vector<double>& features = *queries[misses[base + r]].features;
      std::copy(features.begin(), features.end(), rows.Row(r));
    }
    probe.Run([&](Tracer& t) {
      ScopedSpan span(t, "ml.predict", base / kBatch);
      estimator.classifier()->PredictBatch(rows, Span<int>(deployed.data(), n));
    });
    classifier->PredictBatch(rows, Span<int>(replayed.data(), n));
    if (!std::equal(deployed.begin(), deployed.begin() + n, replayed.begin())) {
      predictions_agree =
          opthash::Status::Internal("replayed classifier predicts otherwise");
    }
  }
  report.Oracle("replayed classifier fit predicts like the trained one",
                predictions_agree);

  // Stream application: bucket accumulation alone.
  std::vector<double> deltas(estimator.num_buckets(), 0.0);
  for (size_t base = 0; base < arrivals.size(); base += kBatch) {
    // Accumulating twice only doubles the throwaway deltas.
    probe.Run([&](Tracer& t) {
      ScopedSpan span(t, "core.accumulate", base / kBatch);
      estimator.AccumulateUpdates(arrivals.subspan(base, kBatch), deltas);
    });
  }

  const auto layers = tracer.LayerTimes();
  auto self_ns = [&layers](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  report.Set("opt.solve_s", self_ns("opt.solve") * 1e-9);
  report.Set("ml.fit_s", self_ns("ml.fit") * 1e-9);
  report.Set("opt.bcd_sweeps",
             static_cast<double>(estimator.training_info().solve_result.iterations));
  report.Set("opt.objective",
             estimator.training_info().solve_result.objective.overall);
  report.Set("core.route_ns_per_key",
             self_ns("core.route") / static_cast<double>(queries.size()));
  report.Set("ml.predict_ns_per_row",
             misses.empty() ? 0.0
                            : self_ns("ml.predict") /
                                  static_cast<double>(misses.size()));
  report.Set("core.table_hit_fraction",
             1.0 - static_cast<double>(misses.size()) /
                       static_cast<double>(queries.size()));
  report.Set("core.accumulate_ns_per_key",
             self_ns("core.accumulate") / static_cast<double>(arrivals.size()));
}

}  // namespace perfbench
