// Round-trip tests for the model / estimator serialization: a deserialized
// object must answer every query identically to the original, and corrupt
// blobs must be rejected with InvalidArgument rather than crashing.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/opt_hash_estimator.h"
#include "io/bytes.h"
#include "ml/decision_tree.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace opthash {
namespace {

ml::Dataset Blobs(size_t n, size_t classes, uint64_t seed) {
  Rng rng(seed);
  ml::Dataset data(3);
  for (size_t i = 0; i < n; ++i) {
    const auto label = static_cast<int>(i % classes);
    data.Add({static_cast<double>(label) * 2.0 + rng.NextGaussian(),
              rng.NextGaussian(),
              static_cast<double>(label) - rng.NextGaussian() * 0.3},
             label);
  }
  return data;
}

TEST(SerializationTest, DecisionTreeRoundTrip) {
  const ml::Dataset data = Blobs(200, 4, 1);
  ml::DecisionTree tree;
  tree.Fit(data);
  auto restored = ml::DecisionTree::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().NodeCount(), tree.NodeCount());
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(restored.value().Predict(data.Features(i)),
              tree.Predict(data.Features(i)));
  }
}

TEST(SerializationTest, DecisionTreeImportancesSurvive) {
  const ml::Dataset data = Blobs(150, 3, 2);
  ml::DecisionTree tree;
  tree.Fit(data);
  auto restored = ml::DecisionTree::Deserialize(tree.Serialize());
  ASSERT_TRUE(restored.ok());
  const auto a = tree.FeatureImportances();
  const auto b = restored.value().FeatureImportances();
  ASSERT_EQ(a.size(), b.size());
  for (size_t f = 0; f < a.size(); ++f) EXPECT_NEAR(a[f], b[f], 1e-12);
}

TEST(SerializationTest, RandomForestRoundTrip) {
  const ml::Dataset data = Blobs(150, 3, 3);
  ml::RandomForestConfig config;
  config.num_trees = 7;
  ml::RandomForest forest(config);
  forest.Fit(data);
  auto restored = ml::RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().NumTrees(), 7u);
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(restored.value().Predict(data.Features(i)),
              forest.Predict(data.Features(i)));
  }
}

// Random rows around the blobs, most of them never seen in training.
std::vector<std::vector<double>> RandomRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows(n);
  for (auto& row : rows) {
    for (int f = 0; f < 3; ++f) row.push_back(4.0 * rng.NextGaussian());
  }
  return rows;
}

// Restores `model` from its text and its binary form and checks both
// predict like the fitted model and write the same bytes back.
template <typename Model>
void ExpectEveryLoadPathPredictsLikeFitted(const Model& model) {
  auto from_text = Model::Deserialize(model.Serialize());
  ASSERT_TRUE(from_text.ok());
  io::ByteWriter writer;
  model.SerializeBinary(writer);
  io::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  auto from_binary = Model::DeserializeBinary(reader);
  ASSERT_TRUE(from_binary.ok());
  for (const auto& row : RandomRows(2000, 21)) {
    const int expected = model.Predict(row);
    EXPECT_EQ(from_text.value().Predict(row), expected);
    EXPECT_EQ(from_binary.value().Predict(row), expected);
  }
  EXPECT_EQ(from_text.value().Serialize(), model.Serialize());
  io::ByteWriter rewritten;
  from_binary.value().SerializeBinary(rewritten);
  EXPECT_EQ(rewritten.bytes(), writer.bytes());
}

TEST(SerializationTest, DecisionTreePredictsAlikeFromEveryFormat) {
  ml::DecisionTree tree;
  tree.Fit(Blobs(300, 5, 8));
  ExpectEveryLoadPathPredictsLikeFitted(tree);
}

TEST(SerializationTest, RandomForestPredictsAlikeFromEveryFormat) {
  ml::RandomForestConfig config;
  config.num_trees = 9;
  ml::RandomForest forest(config);
  forest.Fit(Blobs(300, 5, 9));
  ExpectEveryLoadPathPredictsLikeFitted(forest);
}

TEST(SerializationTest, LogisticRegressionRoundTrip) {
  const ml::Dataset data = Blobs(150, 3, 4);
  ml::LogisticRegression model;
  model.Fit(data);
  auto restored = ml::LogisticRegression::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok());
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    const auto a = model.PredictProba(data.Features(i));
    const auto b = restored.value().PredictProba(data.Features(i));
    for (size_t c = 0; c < a.size(); ++c) EXPECT_NEAR(a[c], b[c], 1e-12);
  }
}

TEST(SerializationTest, RejectsCorruptBlobs) {
  EXPECT_FALSE(ml::DecisionTree::Deserialize("").ok());
  EXPECT_FALSE(ml::DecisionTree::Deserialize("garbage 1 2 3").ok());
  EXPECT_FALSE(ml::DecisionTree::Deserialize("opthash.cart.v1 2 2 1").ok());
  EXPECT_FALSE(ml::RandomForest::Deserialize("opthash.rf.v1 2 2 1").ok());
  EXPECT_FALSE(
      ml::LogisticRegression::Deserialize("opthash.logreg.v1 2 3 0.5").ok());
  EXPECT_FALSE(core::OptHashEstimator::Deserialize("nope").ok());
}

TEST(SerializationTest, RejectsOutOfRangeNodes) {
  // A tree whose internal node points past the node array.
  const std::string bad =
      "opthash.cart.v1 2 2 1\n0 0 0.5 7 8 0 0.1 10\n";
  EXPECT_FALSE(ml::DecisionTree::Deserialize(bad).ok());
  // Split feature indices wider than the 32 bits a node holds, or equal
  // to the all-ones value that marks a leaf in memory.
  for (const char* feature : {"4294967296", "4294967295"}) {
    const std::string wide =
        std::string("opthash.cart.v1 8589934592 2 3\n0 ") + feature +
        " 0.5 1 2 0 0.1 10\n1 0 0 -1 -1 0 0 5\n1 0 0 -1 -1 1 0 5\n";
    EXPECT_FALSE(ml::DecisionTree::Deserialize(wide).ok()) << feature;
  }
}

std::vector<core::PrefixElement> EstimatorPrefix(uint64_t seed) {
  Rng rng(seed);
  std::vector<core::PrefixElement> prefix;
  for (uint64_t i = 0; i < 12; ++i) {
    prefix.push_back({.id = 100 + i,
                      .frequency = 50.0 + static_cast<double>(i),
                      .features = {2.0 + 0.1 * rng.NextGaussian()}});
  }
  for (uint64_t i = 0; i < 12; ++i) {
    prefix.push_back({.id = 200 + i,
                      .frequency = 3.0,
                      .features = {-2.0 + 0.1 * rng.NextGaussian()}});
  }
  return prefix;
}

class EstimatorSerializationSweep
    : public ::testing::TestWithParam<core::ClassifierKind> {};

TEST_P(EstimatorSerializationSweep, RoundTripPreservesEstimates) {
  core::OptHashConfig config;
  config.total_buckets = 40;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = GetParam();
  auto trained = core::OptHashEstimator::Train(config, EstimatorPrefix(5));
  ASSERT_TRUE(trained.ok());
  const core::OptHashEstimator& original = trained.value();

  auto restored = core::OptHashEstimator::Deserialize(original.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().num_buckets(), original.num_buckets());
  EXPECT_EQ(restored.value().num_stored_ids(), original.num_stored_ids());
  EXPECT_EQ(restored.value().MemoryBuckets(), original.MemoryBuckets());

  // Stored elements.
  for (uint64_t id : {100u, 105u, 200u, 211u}) {
    const stream::StreamItem item{id, nullptr};
    EXPECT_DOUBLE_EQ(restored.value().Estimate(item), original.Estimate(item));
  }
  // Unseen elements through the classifier.
  const std::vector<double> heavy_features = {2.0};
  const std::vector<double> light_features = {-2.0};
  for (const auto* features : {&heavy_features, &light_features}) {
    const stream::StreamItem item{31337, features};
    EXPECT_DOUBLE_EQ(restored.value().Estimate(item), original.Estimate(item));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Classifiers, EstimatorSerializationSweep,
    ::testing::Values(core::ClassifierKind::kNone,
                      core::ClassifierKind::kLogisticRegression,
                      core::ClassifierKind::kCart,
                      core::ClassifierKind::kRandomForest));

TEST(SerializationTest, DeserializedEstimatorKeepsCounting) {
  core::OptHashConfig config;
  config.total_buckets = 40;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kCart;
  auto trained = core::OptHashEstimator::Train(config, EstimatorPrefix(6));
  ASSERT_TRUE(trained.ok());
  auto restored =
      core::OptHashEstimator::Deserialize(trained.value().Serialize());
  ASSERT_TRUE(restored.ok());
  core::OptHashEstimator& live = restored.value();
  const stream::StreamItem item{100, nullptr};
  const double before = live.Estimate(item);
  const auto bucket = static_cast<size_t>(live.BucketOf(item));
  for (int rep = 0; rep < 10; ++rep) live.Update(item);
  EXPECT_NEAR(live.Estimate(item),
              before + 10.0 / live.BucketCount(bucket), 1e-9);
}

TEST(SerializationTest, SerializeIsDeterministic) {
  core::OptHashConfig config;
  config.total_buckets = 30;
  config.id_ratio = 0.5;
  config.solver = core::SolverKind::kDp;
  config.classifier = core::ClassifierKind::kCart;
  auto a = core::OptHashEstimator::Train(config, EstimatorPrefix(7));
  auto b = core::OptHashEstimator::Train(config, EstimatorPrefix(7));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().Serialize(), b.value().Serialize());
}

}  // namespace
}  // namespace opthash
