#include "ml/random_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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

// Appends a random subtree in the text format's preorder and returns its
// root's index. A node splits with probability 3/4 until depth_left runs
// out, so sibling subtrees end at uneven depths; depth_left = 0 makes a
// single leaf.
int32_t AppendRandomSubtree(Rng& rng, size_t depth_left, size_t num_features,
                            size_t num_classes,
                            std::vector<std::string>& lines) {
  const auto id = static_cast<int32_t>(lines.size());
  lines.emplace_back();
  const std::string label = std::to_string(rng.NextBounded(num_classes));
  if (depth_left == 0 || rng.NextBounded(4) == 0) {
    lines[id] = "1 0 0 -1 -1 " + label + " 0 1";
    return id;
  }
  const int32_t left = AppendRandomSubtree(rng, depth_left - 1, num_features,
                                           num_classes, lines);
  const int32_t right = AppendRandomSubtree(rng, depth_left - 1, num_features,
                                            num_classes, lines);
  lines[id] = "0 " + std::to_string(rng.NextBounded(num_features)) + " " +
              std::to_string(rng.NextDouble(-1.0, 1.0)) + " " +
              std::to_string(left) + " " + std::to_string(right) + " " +
              label + " 0 1";
  return id;
}

std::string RandomTreeText(Rng& rng, size_t max_depth, size_t num_features,
                           size_t num_classes) {
  std::vector<std::string> lines;
  AppendRandomSubtree(rng, max_depth, num_features, num_classes, lines);
  std::string text = "opthash.cart.v1 " + std::to_string(num_features) + " " +
                     std::to_string(num_classes) + " " +
                     std::to_string(lines.size()) + "\n";
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

TEST(RandomForestTest, PredictMatchesPerTreeWalksAndFirstMaxVote) {
  // The forest's prediction against each tree walked on its own and the
  // first-max vote of a per-class histogram, on random forests whose
  // trees range from a single leaf to depth 12. Few classes and even tree
  // counts make tied votes common.
  Rng rng(21);
  constexpr size_t kNumFeatures = 5;
  size_t tied_rows = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_classes = 1 + rng.NextBounded(4);
    const size_t num_trees = 1 + rng.NextBounded(12);
    std::string forest_text = "opthash.rf.v1 " + std::to_string(num_classes) +
                              " " + std::to_string(kNumFeatures) + " " +
                              std::to_string(num_trees) + "\n";
    std::vector<DecisionTree> trees;
    for (size_t t = 0; t < num_trees; ++t) {
      const std::string tree_text = RandomTreeText(
          rng, rng.NextBounded(13), kNumFeatures, num_classes);
      auto tree = DecisionTree::Deserialize(tree_text);
      ASSERT_TRUE(tree.ok());
      trees.push_back(std::move(tree).value());
      forest_text += tree_text;
    }
    auto forest = RandomForest::Deserialize(forest_text);
    ASSERT_TRUE(forest.ok());
    Matrix rows(40, kNumFeatures);
    for (size_t i = 0; i < rows.rows(); ++i) {
      for (size_t f = 0; f < kNumFeatures; ++f) {
        rows.At(i, f) = rng.NextDouble(-1.2, 1.2);
      }
    }
    std::vector<int> batch(rows.rows());
    forest.value().PredictBatch(rows, Span<int>(batch.data(), batch.size()));
    for (size_t i = 0; i < rows.rows(); ++i) {
      std::vector<size_t> votes(num_classes, 0);
      for (const DecisionTree& tree : trees) {
        ++votes[static_cast<size_t>(tree.PredictRow(rows.Row(i)))];
      }
      const auto best = std::max_element(votes.begin(), votes.end());
      const auto expected = static_cast<int>(best - votes.begin());
      if (std::count(votes.begin(), votes.end(), *best) > 1) ++tied_rows;
      ASSERT_EQ(forest.value().PredictRow(rows.Row(i)), expected)
          << "trial " << trial << " row " << i;
      ASSERT_EQ(batch[i], expected) << "trial " << trial << " row " << i;
    }
  }
  EXPECT_GT(tied_rows, 0u);
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
