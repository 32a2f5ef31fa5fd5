#include "core/opt_hash_estimator.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "common/random.h"
#include "common/timer.h"
#include "sketch/kernels/kernels.h"

namespace opthash::core {

const char* SolverKindName(SolverKind kind) {
  switch (kind) {
    case SolverKind::kBcd:
      return "bcd";
    case SolverKind::kDp:
      return "dp";
    case SolverKind::kExact:
      return "milp";
  }
  return "unknown";
}

const char* ClassifierKindName(ClassifierKind kind) {
  switch (kind) {
    case ClassifierKind::kNone:
      return "none";
    case ClassifierKind::kLogisticRegression:
      return "logreg";
    case ClassifierKind::kCart:
      return "cart";
    case ClassifierKind::kRandomForest:
      return "rf";
  }
  return "unknown";
}

Status OptHashConfig::Validate() const {
  if (total_buckets < 2) {
    return Status::InvalidArgument("total_buckets must be >= 2");
  }
  if (id_ratio <= 0.0) {
    return Status::InvalidArgument("id_ratio (c) must be positive");
  }
  if (lambda < 0.0 || lambda > 1.0) {
    return Status::InvalidArgument("lambda must lie in [0, 1]");
  }
  return Status::OK();
}

Result<OptHashEstimator> OptHashEstimator::Train(
    const OptHashConfig& config, const std::vector<PrefixElement>& prefix) {
  Status status = config.Validate();
  if (!status.ok()) return status;
  if (prefix.empty()) {
    return Status::InvalidArgument("prefix must contain at least one element");
  }
  Timer total_timer;

  // Memory split (§7.3): n stored IDs, b = b_total - n buckets.
  const auto id_budget = static_cast<size_t>(
      std::floor(static_cast<double>(config.total_buckets) /
                 (1.0 + config.id_ratio)));
  if (id_budget < 1 || id_budget >= config.total_buckets) {
    return Status::InvalidArgument(
        "id_ratio leaves no room for buckets or no room for IDs");
  }
  const size_t num_buckets = config.total_buckets - id_budget;

  // Subsample the prefix support when it exceeds the ID budget, with
  // probability proportional to observed frequency (§7.3).
  std::vector<size_t> chosen;
  if (prefix.size() > id_budget) {
    std::vector<double> weights(prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) {
      weights[i] = prefix[i].frequency;
    }
    Rng rng(config.seed);
    chosen = WeightedSampleWithoutReplacement(weights, id_budget, rng);
    std::sort(chosen.begin(), chosen.end());
  } else {
    chosen.resize(prefix.size());
    for (size_t i = 0; i < prefix.size(); ++i) chosen[i] = i;
  }

  // Build the optimization instance over the sampled elements.
  opt::HashingProblem problem;
  problem.num_buckets = num_buckets;
  problem.lambda = config.lambda;
  problem.frequencies.reserve(chosen.size());
  const bool have_features = !prefix.front().features.empty();
  if (have_features) problem.features.reserve(chosen.size());
  for (size_t index : chosen) {
    problem.frequencies.push_back(prefix[index].frequency);
    if (have_features) problem.features.push_back(prefix[index].features);
  }
  if (config.lambda < 1.0 && !have_features) {
    return Status::InvalidArgument(
        "lambda < 1 requires element features in the prefix");
  }

  opt::SolveResult solved;
  switch (config.solver) {
    case SolverKind::kBcd: {
      opt::BcdSolver solver(config.bcd);
      solved = solver.Solve(problem);
      break;
    }
    case SolverKind::kDp: {
      opt::DpSolver solver(config.dp);
      solved = solver.Solve(problem);
      break;
    }
    case SolverKind::kExact: {
      opt::ExactSolver solver(config.exact);
      solved = solver.Solve(problem);
      break;
    }
  }

  OptHashEstimator estimator;
  estimator.bucket_freq_.assign(num_buckets, 0.0);
  estimator.bucket_count_.assign(num_buckets, 0.0);
  estimator.table_.reserve(chosen.size());
  for (size_t t = 0; t < chosen.size(); ++t) {
    const PrefixElement& element = prefix[chosen[t]];
    const auto bucket = static_cast<size_t>(solved.assignment[t]);
    estimator.table_.emplace(element.id, solved.assignment[t]);
    estimator.bucket_freq_[bucket] += element.frequency;
    estimator.bucket_count_[bucket] += 1.0;
  }

  // Phase 2 (§5.2): classifier mapping features to learned buckets.
  Timer classifier_timer;
  if (config.classifier != ClassifierKind::kNone && have_features) {
    ml::Dataset train(prefix.front().features.size());
    for (size_t t = 0; t < chosen.size(); ++t) {
      train.Add(prefix[chosen[t]].features,
                static_cast<int>(solved.assignment[t]));
    }
    switch (config.classifier) {
      case ClassifierKind::kLogisticRegression:
        estimator.classifier_ =
            std::make_unique<ml::LogisticRegression>(config.logreg);
        break;
      case ClassifierKind::kCart:
        estimator.classifier_ = std::make_unique<ml::DecisionTree>(config.cart);
        break;
      case ClassifierKind::kRandomForest:
        estimator.classifier_ = std::make_unique<ml::RandomForest>(config.rf);
        break;
      case ClassifierKind::kNone:
        break;
    }
    if (estimator.classifier_ != nullptr) {
      estimator.classifier_->Fit(train);
      estimator.classifier_kind_ = config.classifier;
    }
  }

  estimator.training_info_.num_prefix_elements = prefix.size();
  estimator.training_info_.num_sampled_elements = chosen.size();
  estimator.training_info_.num_buckets = num_buckets;
  estimator.training_info_.classifier_train_seconds =
      classifier_timer.ElapsedSeconds();
  estimator.training_info_.solve_result = std::move(solved);
  estimator.training_info_.total_train_seconds = total_timer.ElapsedSeconds();
  return estimator;
}

int32_t OptHashEstimator::BucketOf(const stream::StreamItem& item) const {
  auto it = table_.find(item.id);
  if (it != table_.end()) return it->second;
  if (classifier_ != nullptr && item.features != nullptr) {
    const int bucket = classifier_->Predict(*item.features);
    OPTHASH_CHECK_GE(bucket, 0);
    OPTHASH_CHECK_LT(static_cast<size_t>(bucket), bucket_freq_.size());
    return bucket;
  }
  return -1;
}

void OptHashEstimator::Update(const stream::StreamItem& item) {
  // Static mode (Fig. 9c): only elements stored in the learned hash table
  // are tracked during stream processing.
  auto it = table_.find(item.id);
  if (it == table_.end()) return;
  bucket_freq_[static_cast<size_t>(it->second)] += 1.0;
}

void OptHashEstimator::AccumulateUpdates(
    Span<const uint64_t> ids, std::vector<double>& bucket_deltas) const {
  OPTHASH_CHECK_EQ(bucket_deltas.size(), bucket_freq_.size());
  for (uint64_t id : ids) {
    auto it = table_.find(id);
    if (it == table_.end()) continue;
    bucket_deltas[static_cast<size_t>(it->second)] += 1.0;
  }
}

Status OptHashEstimator::ApplyBucketDeltas(const std::vector<double>& deltas) {
  if (deltas.size() != bucket_freq_.size()) {
    return Status::InvalidArgument(
        "bucket delta array size does not match num_buckets()");
  }
  for (size_t j = 0; j < deltas.size(); ++j) {
    bucket_freq_[j] += deltas[j];
  }
  return Status::OK();
}

void OptHashEstimator::RouteTableOnly(Span<const uint64_t> ids,
                                      OptHashQueryWorkspace& ws) const {
  ws.buckets.resize(ids.size());
  ws.pending.clear();
  const bool can_classify = classifier_ != nullptr;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto it = table_.find(ids[i]);
    if (it != table_.end()) {
      ws.buckets[i] = it->second;
    } else {
      ws.buckets[i] = -1;
      if (can_classify) ws.pending.push_back(i);
    }
  }
}

void OptHashEstimator::ClassifyPendingRows(OptHashQueryWorkspace& ws) const {
  // One batch call resolves every pending row — the classifier amortizes
  // its per-call overhead and scratch across the block.
  ws.predictions.resize(ws.pending.size());
  classifier_->PredictBatch(ws.features,
                            Span<int>(ws.predictions.data(),
                                      ws.predictions.size()));
  for (size_t p = 0; p < ws.pending.size(); ++p) {
    const int bucket = ws.predictions[p];
    OPTHASH_CHECK_GE(bucket, 0);
    OPTHASH_CHECK_LT(static_cast<size_t>(bucket), bucket_freq_.size());
    ws.buckets[ws.pending[p]] = bucket;
  }
}

Span<double> OptHashEstimator::ZeroedRow(OptHashQueryWorkspace& ws,
                                         size_t feature_dim) {
  if (ws.row.rows() != 1 || ws.row.cols() != feature_dim) {
    ws.row.Reshape(1, feature_dim);
    ws.row.Fill(0.0);
    // A query writes each coordinate at most once, so this capacity is
    // never outgrown.
    ws.written.reserve(feature_dim);
  }
  return Span<double>(ws.row.Row(0), feature_dim);
}

int32_t OptHashEstimator::ClassifyAndResetRow(
    OptHashQueryWorkspace& ws) const {
  // A one-row PredictBatch keeps the classifier's feature-dimension check.
  int bucket = 0;
  classifier_->PredictBatch(ws.row, Span<int>(&bucket, 1));
  OPTHASH_CHECK_GE(bucket, 0);
  OPTHASH_CHECK_LT(static_cast<size_t>(bucket), bucket_freq_.size());
  double* row = ws.row.Row(0);
  for (const size_t coordinate : ws.written) {
    OPTHASH_CHECK_LT(coordinate, ws.row.cols());
    row[coordinate] = 0.0;
  }
  ws.written.clear();
  return bucket;
}

void OptHashEstimator::GatherEstimates(const OptHashQueryWorkspace& ws,
                                       Span<double> out) const {
  // Pass 2: the bucket counter reads run back to back, with the kernel
  // layer's read-prefetch issued a fixed distance ahead so bucket-array
  // misses overlap instead of serializing.
  constexpr size_t kPrefetchDistance = 16;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i + kPrefetchDistance < out.size()) {
      const int32_t ahead = ws.buckets[i + kPrefetchDistance];
      if (ahead >= 0) {
        sketch::kernels::PrefetchRead(bucket_count_.data() + ahead);
        sketch::kernels::PrefetchRead(bucket_freq_.data() + ahead);
      }
    }
    const int32_t bucket = ws.buckets[i];
    if (bucket < 0) {
      out[i] = 0.0;
      continue;
    }
    const auto j = static_cast<size_t>(bucket);
    out[i] = bucket_count_[j] <= 0.0 ? 0.0 : bucket_freq_[j] / bucket_count_[j];
  }
}

void OptHashEstimator::RouteBatch(Span<const stream::StreamItem> items,
                                  OptHashQueryWorkspace& ws) const {
  ws.buckets.resize(items.size());
  ws.pending.clear();
  // Pass 1a: the learned-table probes run back to back; classifier
  // candidates are only recorded, not predicted yet. Featureless misses
  // stay -1 — there is nothing to classify them with.
  for (size_t i = 0; i < items.size(); ++i) {
    auto it = table_.find(items[i].id);
    if (it != table_.end()) {
      ws.buckets[i] = it->second;
    } else if (classifier_ != nullptr && items[i].features != nullptr) {
      ws.buckets[i] = -1;
      ws.pending.push_back(i);
    } else {
      ws.buckets[i] = -1;
    }
  }
  if (ws.pending.empty()) return;
  // Pass 1b: gather the pending feature rows into one matrix (Reshape
  // leaves cells unspecified; every used row is fully copied here).
  const size_t dim = items[ws.pending.front()].features->size();
  ws.features.Reshape(ws.pending.size(), dim);
  for (size_t p = 0; p < ws.pending.size(); ++p) {
    const std::vector<double>& row = *items[ws.pending[p]].features;
    OPTHASH_CHECK_EQ(row.size(), dim);
    std::copy(row.begin(), row.end(), ws.features.Row(p));
  }
  ClassifyPendingRows(ws);
}

void OptHashEstimator::EstimateBatch(Span<const stream::StreamItem> items,
                                     Span<double> out,
                                     OptHashQueryWorkspace& ws) const {
  OPTHASH_CHECK_EQ(items.size(), out.size());
  RouteBatch(items, ws);
  GatherEstimates(ws, out);
}

namespace {
// Per-thread workspace of the workspace-free entry points. Thread-local
// (not per-estimator) so const queries stay thread-safe and the scalar
// Estimate override is allocation-free in steady state.
OptHashQueryWorkspace& ThreadQueryWorkspace() {
  thread_local OptHashQueryWorkspace workspace;
  return workspace;
}
}  // namespace

void OptHashEstimator::EstimateBatch(Span<const stream::StreamItem> items,
                                     Span<double> out) const {
  EstimateBatch(items, out, ThreadQueryWorkspace());
}

double OptHashEstimator::Estimate(const stream::StreamItem& item) const {
  double estimate = 0.0;
  EstimateBatch(Span<const stream::StreamItem>(&item, 1),
                Span<double>(&estimate, 1), ThreadQueryWorkspace());
  return estimate;
}

size_t OptHashEstimator::MemoryBuckets() const {
  // b buckets plus one bucket per stored ID (§7.3: "just storing their IDs
  // would require 200,000 buckets").
  return bucket_freq_.size() + table_.size();
}

namespace {
constexpr const char* kEstimatorMagic = "opthash.estimator.v1";
}  // namespace

std::string OptHashEstimator::Serialize() const {
  std::ostringstream out;
  out << kEstimatorMagic << ' ' << bucket_freq_.size() << ' ' << table_.size()
      << ' ' << ClassifierKindName(classifier_kind_) << '\n';
  out << std::setprecision(17);
  for (double phi : bucket_freq_) out << phi << ' ';
  out << '\n';
  for (double c : bucket_count_) out << c << ' ';
  out << '\n';
  // Table entries in sorted-id order so the blob is deterministic.
  std::vector<std::pair<uint64_t, int32_t>> entries(table_.begin(),
                                                    table_.end());
  std::sort(entries.begin(), entries.end());
  for (const auto& [id, bucket] : entries) {
    out << id << ' ' << bucket << '\n';
  }
  if (classifier_ != nullptr) {
    switch (classifier_kind_) {
      case ClassifierKind::kLogisticRegression:
        static_cast<const ml::LogisticRegression*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kCart:
        static_cast<const ml::DecisionTree*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kRandomForest:
        static_cast<const ml::RandomForest*>(classifier_.get())
            ->SerializeTo(out);
        break;
      case ClassifierKind::kNone:
        break;
    }
  }
  return out.str();
}

Result<OptHashEstimator> OptHashEstimator::Deserialize(
    const std::string& blob) {
  std::istringstream in(blob);
  std::string magic;
  size_t num_buckets = 0;
  size_t table_size = 0;
  std::string classifier_name;
  if (!(in >> magic >> num_buckets >> table_size >> classifier_name)) {
    return Status::InvalidArgument("truncated estimator header");
  }
  if (magic != kEstimatorMagic) {
    return Status::InvalidArgument("bad estimator magic: " + magic);
  }
  if (num_buckets == 0) {
    return Status::InvalidArgument("estimator needs at least one bucket");
  }
  OptHashEstimator estimator;
  estimator.bucket_freq_.resize(num_buckets);
  estimator.bucket_count_.resize(num_buckets);
  for (double& phi : estimator.bucket_freq_) {
    if (!(in >> phi)) {
      return Status::InvalidArgument("truncated bucket frequencies");
    }
  }
  for (double& c : estimator.bucket_count_) {
    if (!(in >> c)) return Status::InvalidArgument("truncated bucket counts");
  }
  estimator.table_.reserve(table_size);
  for (size_t t = 0; t < table_size; ++t) {
    uint64_t id = 0;
    int32_t bucket = 0;
    if (!(in >> id >> bucket)) {
      return Status::InvalidArgument("truncated table entries");
    }
    if (bucket < 0 || static_cast<size_t>(bucket) >= num_buckets) {
      return Status::InvalidArgument("table bucket out of range");
    }
    estimator.table_.emplace(id, bucket);
  }

  if (classifier_name == ClassifierKindName(ClassifierKind::kNone)) {
    estimator.classifier_kind_ = ClassifierKind::kNone;
  } else if (classifier_name ==
             ClassifierKindName(ClassifierKind::kLogisticRegression)) {
    auto model = ml::LogisticRegression::DeserializeFrom(in);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::LogisticRegression>(std::move(model).value());
    estimator.classifier_kind_ = ClassifierKind::kLogisticRegression;
  } else if (classifier_name == ClassifierKindName(ClassifierKind::kCart)) {
    auto model = ml::DecisionTree::DeserializeFrom(in);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::DecisionTree>(std::move(model).value());
    estimator.classifier_kind_ = ClassifierKind::kCart;
  } else if (classifier_name ==
             ClassifierKindName(ClassifierKind::kRandomForest)) {
    auto model = ml::RandomForest::DeserializeFrom(in);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::RandomForest>(std::move(model).value());
    estimator.classifier_kind_ = ClassifierKind::kRandomForest;
  } else {
    return Status::InvalidArgument("unknown classifier kind: " +
                                   classifier_name);
  }

  estimator.training_info_.num_sampled_elements = table_size;
  estimator.training_info_.num_buckets = num_buckets;
  return estimator;
}

namespace {
constexpr uint32_t kEstimatorPayloadVersion = 1;
}  // namespace

void OptHashEstimator::SerializeBinary(io::ByteWriter& out) const {
  out.WriteU32(kEstimatorPayloadVersion);
  out.WriteU32(static_cast<uint32_t>(classifier_kind_));
  out.WriteU64(bucket_freq_.size());
  out.WriteU64(table_.size());
  out.WriteDoubleArray(bucket_freq_);
  out.WriteDoubleArray(bucket_count_);
  // Structure-of-arrays table in ascending id order: deterministic bytes,
  // and the mapped view can binary-search the id column in place.
  std::vector<std::pair<uint64_t, int32_t>> entries(table_.begin(),
                                                    table_.end());
  std::sort(entries.begin(), entries.end());
  std::vector<uint64_t> ids;
  std::vector<int32_t> buckets;
  ids.reserve(entries.size());
  buckets.reserve(entries.size());
  for (const auto& [id, bucket] : entries) {
    ids.push_back(id);
    buckets.push_back(bucket);
  }
  out.WriteU64Array(ids);
  out.WriteI32Array(buckets);
  out.AlignTo(8);
  io::ByteWriter classifier;
  if (classifier_ != nullptr) {
    switch (classifier_kind_) {
      case ClassifierKind::kLogisticRegression:
        static_cast<const ml::LogisticRegression*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kCart:
        static_cast<const ml::DecisionTree*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kRandomForest:
        static_cast<const ml::RandomForest*>(classifier_.get())
            ->SerializeBinary(classifier);
        break;
      case ClassifierKind::kNone:
        break;
    }
  }
  out.WriteU64(classifier.size());
  out.WriteBytes(classifier.bytes().data(), classifier.size());
}

Result<OptHashEstimator> OptHashEstimator::DeserializeBinary(
    io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kEstimatorPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported estimator payload version " + std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(kind_raw, in.ReadU32());
  if (kind_raw > static_cast<uint32_t>(ClassifierKind::kRandomForest)) {
    return Status::InvalidArgument("unknown classifier kind " +
                                   std::to_string(kind_raw));
  }
  const auto kind = static_cast<ClassifierKind>(kind_raw);
  OPTHASH_IO_ASSIGN(num_buckets, in.ReadU64());
  OPTHASH_IO_ASSIGN(table_size, in.ReadU64());
  if (num_buckets == 0) {
    return Status::InvalidArgument("estimator needs at least one bucket");
  }
  if (num_buckets > in.remaining() / (2 * sizeof(double))) {
    return Status::InvalidArgument("estimator bucket count exceeds payload");
  }
  OptHashEstimator estimator;
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadDoubleArray(estimator.bucket_freq_, num_buckets));
  OPTHASH_IO_RETURN_IF_ERROR(
      in.ReadDoubleArray(estimator.bucket_count_, num_buckets));
  std::vector<uint64_t> ids;
  std::vector<int32_t> buckets;
  OPTHASH_IO_RETURN_IF_ERROR(in.ReadU64Array(ids, table_size));
  OPTHASH_IO_RETURN_IF_ERROR(in.ReadI32Array(buckets, table_size));
  OPTHASH_IO_RETURN_IF_ERROR(in.AlignTo(8));
  estimator.table_.reserve(table_size);
  for (size_t t = 0; t < table_size; ++t) {
    if (t > 0 && ids[t] <= ids[t - 1]) {
      return Status::InvalidArgument("table ids must be strictly ascending");
    }
    if (buckets[t] < 0 || static_cast<uint64_t>(buckets[t]) >= num_buckets) {
      return Status::InvalidArgument("table bucket out of range");
    }
    estimator.table_.emplace(ids[t], buckets[t]);
  }
  OPTHASH_IO_ASSIGN(classifier_size, in.ReadU64());
  auto blob = in.ReadSpan(classifier_size);
  if (!blob.ok()) return blob.status();
  io::ByteReader classifier(blob.value());
  if (kind == ClassifierKind::kNone) {
    if (classifier_size != 0) {
      return Status::InvalidArgument(
          "classifier payload present without a classifier");
    }
  } else if (kind == ClassifierKind::kLogisticRegression) {
    auto model = ml::LogisticRegression::DeserializeBinary(classifier);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::LogisticRegression>(std::move(model).value());
  } else if (kind == ClassifierKind::kCart) {
    auto model = ml::DecisionTree::DeserializeBinary(classifier);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::DecisionTree>(std::move(model).value());
  } else {
    auto model = ml::RandomForest::DeserializeBinary(classifier);
    if (!model.ok()) return model.status();
    estimator.classifier_ =
        std::make_unique<ml::RandomForest>(std::move(model).value());
  }
  if (kind != ClassifierKind::kNone) {
    OPTHASH_IO_RETURN_IF_ERROR(classifier.ExpectFullyConsumed());
  }
  estimator.classifier_kind_ = kind;
  estimator.training_info_.num_sampled_elements = table_size;
  estimator.training_info_.num_buckets = num_buckets;
  return estimator;
}

}  // namespace opthash::core
