#ifndef OPTHASH_STREAM_FEATURES_H_
#define OPTHASH_STREAM_FEATURES_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "io/bytes.h"

namespace opthash::stream {

/// \brief The paper's §7.3 query featurization: "a simple bag-of-words
/// approach [keeping] the 500 most common words in the training queries",
/// plus four counts — ASCII characters, punctuation marks, dots, and
/// whitespaces.
///
/// A token is a maximal run of bytes that are alphanumeric in the "C"
/// locale, lowercased there; bytes >= 0x80 never join a token. One
/// 256-entry byte table carries that rule and the count features' classes,
/// and both Tokenize and Featurize scan through it.
class BagOfWordsFeaturizer {
 public:
  /// \param vocabulary_size number of most-common tokens to keep.
  explicit BagOfWordsFeaturizer(size_t vocabulary_size = 500);

  /// Learns the vocabulary from weighted training texts (weight = observed
  /// query frequency, so "most common words" is frequency-weighted).
  void Fit(const std::vector<std::pair<std::string, double>>& weighted_texts);

  /// vocabulary token counts followed by the four count features.
  std::vector<double> Featurize(const std::string& text) const;

  /// Out-parameter overload: fills `out` (resized to FeatureDim() on
  /// first use, reused afterwards) instead of returning a fresh dense
  /// vector. Results are identical to the returning overload. One pass
  /// over the text: each token is hashed while it is scanned and looked
  /// up in the vocabulary index, with no token copy and no allocation.
  void Featurize(const std::string& text, std::vector<double>& out) const;

  /// Sparse overload for a row reused across queries, e.g. the estimator's
  /// lazy-featurizing batch path: `row` (FeatureDim() doubles) must be all
  /// zeros on entry. Writes the same features as the dense overloads and
  /// appends each coordinate it wrote to `written`, once per coordinate:
  /// the vocabulary hits, then the four count features. Setting those
  /// coordinates back to zero restores the row, so the next query pays
  /// for its own tokens, not for FeatureDim().
  void Featurize(const std::string& text, Span<double> row,
                 std::vector<size_t>& written) const;

  /// Feature dimension = |vocabulary| + 4.
  size_t FeatureDim() const { return vocabulary_.size() + 4; }

  /// Human-readable name of feature `index` ("word:<token>" or a count).
  std::string FeatureName(size_t index) const;

  bool fitted() const { return fitted_; }
  size_t VocabularySize() const { return vocabulary_.size(); }

  /// Lowercased alphanumeric tokens of a text (see the class comment).
  static std::vector<std::string> Tokenize(const std::string& text);

  /// Portable text serialization of the fitted vocabulary, so a deployed
  /// estimator can featurize queries identically to training time.
  std::string Serialize() const;
  void SerializeTo(std::ostream& out) const;
  static Result<BagOfWordsFeaturizer> Deserialize(const std::string& blob);
  static Result<BagOfWordsFeaturizer> DeserializeFrom(std::istream& in);

  /// Binary snapshot payload (docs/FORMATS.md, section type 33): cap,
  /// token count, then length-prefixed tokens in index order. Tokens are
  /// raw bytes, so unlike the whitespace-delimited text format this path
  /// round-trips any future tokenizer output unambiguously.
  void SerializeBinary(io::ByteWriter& out) const;

  /// Rebuilds a featurizer from a SerializeBinary payload; fails with
  /// InvalidArgument on truncated/corrupt/mis-versioned bytes.
  static Result<BagOfWordsFeaturizer> DeserializeBinary(io::ByteReader& in);

 private:
  // One open-addressed slot of the vocabulary index: the upper half of
  // the token's scan hash and its vocabulary index + 1 (0 = empty).
  struct IndexSlot {
    uint32_t hash_tag = 0;
    uint32_t token_plus_one = 0;
  };

  // Featurize into a row that is already all zeros; when `written` is not
  // null, also appends each coordinate written (see the sparse overload).
  void FeaturizeZeroed(const std::string& text, Span<double> out,
                       std::vector<size_t>* written) const;

  // Rebuilds index_ and max_token_length_ from vocabulary_; every path
  // that sets vocabulary_ (Fit and both readers) ends with it.
  void BuildIndex();

  // Probes index_ for the token [begin, begin + length) as the scan
  // lowercases it, `hash` being its scan hash. Returns the slot holding
  // it, or the empty slot that ends the probe when it is absent.
  size_t ProbeSlot(const char* begin, size_t length, uint64_t hash) const;

  size_t vocabulary_size_;
  std::vector<std::string> vocabulary_;  // Index -> token.
  std::vector<IndexSlot> index_;         // Power-of-two size, linear probe.
  size_t max_token_length_ = 0;          // Longer tokens cannot match.
  bool fitted_ = false;
};

}  // namespace opthash::stream

#endif  // OPTHASH_STREAM_FEATURES_H_
