#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/random.h"
#include "ml/metrics.h"

namespace opthash::ml {
namespace {

Dataset NoisyBlobs(size_t per_class, size_t num_classes, double noise,
                   uint64_t seed) {
  Rng rng(seed);
  Dataset data(4);
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      const double base = static_cast<double>(c) * 3.0;
      data.Add({base + noise * rng.NextGaussian(),
                base + noise * rng.NextGaussian(), rng.NextGaussian(),
                rng.NextGaussian()},
               static_cast<int>(c));
    }
  }
  return data;
}

TEST(RandomForestTest, FitsNoisyMulticlassData) {
  const Dataset data = NoisyBlobs(60, 4, 0.6, 1);
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest forest(config);
  forest.Fit(data);
  EXPECT_GE(Accuracy(data.labels(), forest.PredictBatch(data)), 0.97);
  EXPECT_EQ(forest.NumTrees(), 20u);
}

TEST(RandomForestTest, MoreTreesMoreStable) {
  // Prediction disagreement between two forests with different seeds should
  // shrink as the ensemble grows.
  const Dataset data = NoisyBlobs(50, 3, 1.2, 2);
  auto disagreement = [&](size_t trees) {
    RandomForestConfig c1;
    c1.num_trees = trees;
    c1.seed = 100;
    RandomForestConfig c2 = c1;
    c2.seed = 200;
    RandomForest f1(c1);
    RandomForest f2(c2);
    f1.Fit(data);
    f2.Fit(data);
    size_t differences = 0;
    for (size_t i = 0; i < data.NumExamples(); ++i) {
      if (f1.Predict(data.Features(i)) != f2.Predict(data.Features(i))) {
        ++differences;
      }
    }
    return differences;
  };
  EXPECT_LE(disagreement(40), disagreement(1) + 2);
}

TEST(RandomForestTest, FeatureImportancesFavorInformativeFeatures) {
  const Dataset data = NoisyBlobs(80, 3, 0.5, 3);
  RandomForestConfig config;
  config.num_trees = 15;
  RandomForest forest(config);
  forest.Fit(data);
  const std::vector<double> importances = forest.FeatureImportances();
  ASSERT_EQ(importances.size(), 4u);
  // Features 0 and 1 encode the class; 2 and 3 are pure noise.
  EXPECT_GT(importances[0] + importances[1],
            importances[2] + importances[3]);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset data = NoisyBlobs(30, 3, 0.8, 4);
  RandomForestConfig config;
  config.num_trees = 8;
  config.seed = 77;
  RandomForest a(config);
  RandomForest b(config);
  a.Fit(data);
  b.Fit(data);
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(a.Predict(data.Features(i)), b.Predict(data.Features(i)));
  }
}

TEST(RandomForestTest, SingleTreeForestStillWorks) {
  const Dataset data = NoisyBlobs(40, 2, 0.4, 5);
  RandomForestConfig config;
  config.num_trees = 1;
  RandomForest forest(config);
  forest.Fit(data);
  EXPECT_GE(Accuracy(data.labels(), forest.PredictBatch(data)), 0.9);
}

TEST(RandomForestTest, MaxFeaturesDefaultsToSqrt) {
  const Dataset data = NoisyBlobs(30, 2, 0.5, 6);
  RandomForestConfig config;
  config.max_features = 0;  // floor(sqrt(4)) = 2.
  RandomForest forest(config);
  forest.Fit(data);  // Smoke: trains without error, predicts valid labels.
  const int label = forest.Predict(data.Features(0));
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 2);
}

TEST(RandomForestTest, NameIsRf) {
  RandomForest forest;
  EXPECT_STREQ(forest.Name(), "rf");
}

// A forest of single-leaf trees in the text format: tree t answers
// labels[t] for every row.
std::string LeafForestText(const std::vector<int>& labels,
                           size_t num_classes) {
  std::string text = "opthash.rf.v1 " + std::to_string(num_classes) + " 2 " +
                     std::to_string(labels.size()) + "\n";
  for (int label : labels) {
    text += "opthash.cart.v1 2 " + std::to_string(num_classes) + " 1\n";
    text += "1 0 0 -1 -1 " + std::to_string(label) + " 0 1\n";
  }
  return text;
}

TEST(RandomForestTest, TiedVoteGoesToTheSmallestLabel) {
  auto forest = RandomForest::Deserialize(LeafForestText({7, 3, 7, 3}, 1500));
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest.value().Predict({0.0, 0.0}), 3);
}

TEST(RandomForestTest, VoteMatchesFirstMaxOfAClassHistogram) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t num_classes = 1 + rng.NextBounded(40);
    std::vector<int> labels(1 + rng.NextBounded(12));
    for (int& label : labels) {
      label = static_cast<int>(rng.NextBounded(num_classes));
    }
    std::vector<size_t> votes(num_classes, 0);
    for (int label : labels) ++votes[static_cast<size_t>(label)];
    const auto expected = static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    auto forest =
        RandomForest::Deserialize(LeafForestText(labels, num_classes));
    ASSERT_TRUE(forest.ok());
    EXPECT_EQ(forest.value().Predict({0.0, 0.0}), expected);
  }
}

TEST(RandomForestTest, PredictBatchMatchesPredictRowWithMoreClassesThanTrees) {
  const Dataset data = NoisyBlobs(20, 12, 0.8, 8);
  RandomForestConfig config;
  config.num_trees = 5;
  RandomForest forest(config);
  forest.Fit(data);
  Matrix rows(data.NumExamples(), data.NumFeatures());
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    std::copy(data.Features(i).begin(), data.Features(i).end(), rows.Row(i));
  }
  std::vector<int> batch(data.NumExamples());
  forest.PredictBatch(rows, Span<int>(batch.data(), batch.size()));
  for (size_t i = 0; i < data.NumExamples(); ++i) {
    EXPECT_EQ(batch[i], forest.PredictRow(rows.Row(i))) << "row " << i;
  }
}

}  // namespace
}  // namespace opthash::ml
