#ifndef OPTHASH_ML_DECISION_TREE_H_
#define OPTHASH_ML_DECISION_TREE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "io/bytes.h"
#include "ml/dataset.h"

namespace opthash::ml {

/// \brief Hyperparameters for the CART classifier.
struct DecisionTreeConfig {
  /// Maximum tree depth (root = depth 0). The paper tunes this (§6.2).
  size_t max_depth = 16;
  /// A split must reduce weighted gini impurity by at least this much —
  /// the second hyperparameter the paper tunes for `cart`.
  double min_impurity_decrease = 0.0;
  /// Minimum examples required in each child.
  size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 means all features.
  /// Random forests pass sqrt(p) here.
  size_t max_features = 0;
  /// Seed for the feature subsampling (only used when max_features > 0).
  uint64_t seed = 7;
};

/// \brief CART decision tree (Breiman et al. 1984, ref [43]) — the paper's
/// `cart` classifier. Axis-aligned splits chosen by maximal gini impurity
/// decrease, with exhaustive threshold scan over sorted feature values.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {});

  void Fit(const Dataset& train) override;
  int Predict(const std::vector<double>& features) const override;

  /// Raw-pointer scalar prediction over num_features doubles: one root-to-
  /// leaf walk, never allocating. Predict and PredictBatch route through
  /// it; the caller guarantees the row length (unchecked here).
  int PredictRow(const double* features) const;

  /// Allocation-free row loop over the matrix (see Classifier docs).
  void PredictBatch(const Matrix& rows, Span<int> out) const override;
  using Classifier::PredictBatch;

  const char* Name() const override { return "cart"; }

  /// Number of nodes in the fitted tree (leaves + internal).
  size_t NodeCount() const { return nodes_.size(); }

  /// Depth of the fitted tree.
  size_t Depth() const;

  /// Total gini decrease attributed to each feature across all splits —
  /// the impurity-based feature importance (normalized to sum to 1). The
  /// paper uses importances to interpret the search-query model (§7.4).
  std::vector<double> FeatureImportances() const;

  const DecisionTreeConfig& config() const { return config_; }

  /// Serializes the fitted tree as a portable whitespace-token text blob
  /// (train offline, deploy the scheme — see core/serialization docs).
  std::string Serialize() const;
  void SerializeTo(std::ostream& out) const;

  /// Reconstructs a tree from Serialize() output.
  static Result<DecisionTree> Deserialize(const std::string& blob);
  static Result<DecisionTree> DeserializeFrom(std::istream& in);

  /// Binary snapshot payload (docs/FORMATS.md, section type 17): header +
  /// fixed 48-byte little-endian node records. Exactly the state the text
  /// format carries (structure, thresholds at full double precision,
  /// importances bookkeeping); fitted-ness is implied — serializing an
  /// unfitted tree is a programming error, like the text path.
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds a tree from a SerializeBinary payload; same node-index
  /// range checks as the text reader, returning InvalidArgument (never
  /// crashing) on truncated/corrupt/mis-versioned bytes.
  static Result<DecisionTree> DeserializeBinary(io::ByteReader& in);

 private:
  // The record PredictRow walks: the split and the node's majority label,
  // packed into 24 bytes. children[0] is the left child (taken when
  // x[feature] <= threshold), children[1] the right one. A leaf holds
  // kLeafFeature, so the walk's one feature load also ends it; its other
  // split fields keep the fitted defaults (0.0, -1, -1).
  static constexpr uint32_t kLeafFeature = UINT32_MAX;
  struct PredictNode {
    double threshold = 0.0;
    uint32_t feature = kLeafFeature;
    int32_t children[2] = {-1, -1};
    int32_t label = 0;

    bool is_leaf() const { return feature == kLeafFeature; }
  };
  static_assert(sizeof(PredictNode) == 24, "PredictNode must stay packed");

  // Training bookkeeping for importances, parallel to nodes_ and read only
  // by FeatureImportances and the serializers.
  struct NodeStats {
    double impurity_decrease = 0.0;
    uint64_t num_samples = 0;
  };

  // Appends one node read from either serialized form. Leaves drop their
  // split fields (see PredictNode).
  void AppendNode(bool is_leaf, uint64_t feature, double threshold,
                  int32_t left, int32_t right, int32_t label,
                  NodeStats stats);

  int32_t BuildNode(const Dataset& train, std::vector<size_t>& indices,
                    size_t depth, Rng& rng);

  DecisionTreeConfig config_;
  size_t num_features_ = 0;
  size_t num_classes_ = 0;
  std::vector<PredictNode> nodes_;
  std::vector<NodeStats> stats_;
  bool fitted_ = false;
};

}  // namespace opthash::ml

#endif  // OPTHASH_ML_DECISION_TREE_H_
