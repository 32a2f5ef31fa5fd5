#include "stream/features.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/span.h"
#include "io/bytes.h"
#include "stream/query_log.h"

namespace opthash::stream {
namespace {

TEST(TokenizeTest, SplitsOnNonAlphanumeric) {
  const auto tokens = BagOfWordsFeaturizer::Tokenize("www.google.com");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "www");
  EXPECT_EQ(tokens[1], "google");
  EXPECT_EQ(tokens[2], "com");
}

TEST(TokenizeTest, Lowercases) {
  const auto tokens = BagOfWordsFeaturizer::Tokenize("Sharon STONE");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "sharon");
  EXPECT_EQ(tokens[1], "stone");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(BagOfWordsFeaturizer::Tokenize("").empty());
  EXPECT_TRUE(BagOfWordsFeaturizer::Tokenize("...!?").empty());
}

TEST(TokenizeTest, KeepsDigits) {
  const auto tokens = BagOfWordsFeaturizer::Tokenize("area 51");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1], "51");
}

// The token rule written straight from <cctype>, one byte at a time.
std::vector<std::string> CctypeTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (std::isalnum(byte)) {
      current += static_cast<char>(std::tolower(byte));
    } else if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

TEST(TokenizeTest, MatchesCctypeOnEveryByte) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> bytes;
    for (int byte = 0; byte < 256; ++byte) {
      bytes.push_back(static_cast<char>(byte));
    }
    rng.Shuffle(bytes);
    const std::string text(bytes.begin(), bytes.end());
    EXPECT_EQ(BagOfWordsFeaturizer::Tokenize(text), CctypeTokens(text));
  }
}

TEST(TokenizeTest, HighBytesNeverJoinATokenInTheCLocale) {
  const auto tokens = BagOfWordsFeaturizer::Tokenize("caf\xc3\xa9 na\xefve");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "caf");
  EXPECT_EQ(tokens[1], "na");
  EXPECT_EQ(tokens[2], "ve");
}

TEST(BagOfWordsTest, VocabularyIsTopKByWeight) {
  BagOfWordsFeaturizer featurizer(2);
  featurizer.Fit({{"google maps", 100.0},
                  {"google", 50.0},
                  {"rare words here", 1.0}});
  EXPECT_EQ(featurizer.VocabularySize(), 2u);
  // "google" (150) and "maps" (100) beat the weight-1 tokens.
  EXPECT_EQ(featurizer.FeatureName(0), "word:google");
  EXPECT_EQ(featurizer.FeatureName(1), "word:maps");
}

TEST(BagOfWordsTest, FeatureDimIsVocabPlusFour) {
  BagOfWordsFeaturizer featurizer(10);
  featurizer.Fit({{"a b c", 1.0}});
  EXPECT_EQ(featurizer.VocabularySize(), 3u);  // Fewer tokens than cap.
  EXPECT_EQ(featurizer.FeatureDim(), 7u);
}

TEST(BagOfWordsTest, CountFeaturesMatchPaperDefinition) {
  BagOfWordsFeaturizer featurizer(5);
  featurizer.Fit({{"x", 1.0}});
  const std::string text = "www.google.com? hi";
  const std::vector<double> f = featurizer.Featurize(text);
  const size_t base = featurizer.VocabularySize();
  EXPECT_DOUBLE_EQ(f[base + 0], 18.0);  // ASCII chars (all of them).
  EXPECT_DOUBLE_EQ(f[base + 1], 3.0);   // Punctuation: two dots + '?'.
  EXPECT_DOUBLE_EQ(f[base + 2], 2.0);   // Dots.
  EXPECT_DOUBLE_EQ(f[base + 3], 1.0);   // Whitespaces.
}

TEST(BagOfWordsTest, WordCountsInFeatures) {
  BagOfWordsFeaturizer featurizer(5);
  featurizer.Fit({{"dog cat", 1.0}});
  const std::vector<double> f = featurizer.Featurize("dog dog bird");
  // "dog" appears twice; "cat" zero times; "bird" is out of vocabulary.
  double dog = -1.0;
  double cat = -1.0;
  for (size_t i = 0; i < featurizer.VocabularySize(); ++i) {
    if (featurizer.FeatureName(i) == "word:dog") dog = f[i];
    if (featurizer.FeatureName(i) == "word:cat") cat = f[i];
  }
  EXPECT_DOUBLE_EQ(dog, 2.0);
  EXPECT_DOUBLE_EQ(cat, 0.0);
}

TEST(BagOfWordsTest, DeterministicVocabularyOnTies) {
  BagOfWordsFeaturizer a(2);
  BagOfWordsFeaturizer b(2);
  const std::vector<std::pair<std::string, double>> corpus = {
      {"zebra apple mango", 1.0}};
  a.Fit(corpus);
  b.Fit(corpus);
  EXPECT_EQ(a.FeatureName(0), b.FeatureName(0));
  EXPECT_EQ(a.FeatureName(1), b.FeatureName(1));
  // Alphabetical tie-break.
  EXPECT_EQ(a.FeatureName(0), "word:apple");
  EXPECT_EQ(a.FeatureName(1), "word:mango");
}

TEST(BagOfWordsTest, CountFeatureNames) {
  BagOfWordsFeaturizer featurizer(1);
  featurizer.Fit({{"x", 1.0}});
  EXPECT_EQ(featurizer.FeatureName(1), "num_ascii_chars");
  EXPECT_EQ(featurizer.FeatureName(2), "num_punctuation");
  EXPECT_EQ(featurizer.FeatureName(3), "num_dots");
  EXPECT_EQ(featurizer.FeatureName(4), "num_whitespaces");
}

TEST(BagOfWordsTest, SerializationRoundTrip) {
  BagOfWordsFeaturizer featurizer(10);
  featurizer.Fit({{"google maps free music", 10.0}, {"news weather", 3.0}});
  auto restored = BagOfWordsFeaturizer::Deserialize(featurizer.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().VocabularySize(), featurizer.VocabularySize());
  EXPECT_EQ(restored.value().FeatureDim(), featurizer.FeatureDim());
  for (const std::string text :
       {"google news", "maps.google.com?", "unknown words here"}) {
    EXPECT_EQ(restored.value().Featurize(text), featurizer.Featurize(text));
  }
}

TEST(BagOfWordsTest, DeserializeRejectsCorruptBlobs) {
  EXPECT_FALSE(BagOfWordsFeaturizer::Deserialize("").ok());
  EXPECT_FALSE(BagOfWordsFeaturizer::Deserialize("wrong.magic 5 2 a b").ok());
  // Count exceeding the cap.
  EXPECT_FALSE(BagOfWordsFeaturizer::Deserialize("opthash.bow.v1 2 5 a").ok());
  // Truncated vocabulary.
  EXPECT_FALSE(
      BagOfWordsFeaturizer::Deserialize("opthash.bow.v1 5 3 a b").ok());
}

TEST(BagOfWordsTest, QueryLogIntegrationVocabularyContainsDomainTokens) {
  // Fit on a day of generated queries weighted by occurrences — the §7.3
  // pipeline. The navigational tokens must make the vocabulary.
  QueryLogConfig config;
  config.num_queries = 5000;
  config.arrivals_per_day = 5000;
  config.num_days = 2;
  QueryLog log(config);
  std::unordered_map<size_t, double> day_counts;
  for (size_t rank : log.GenerateDay(0)) day_counts[rank] += 1.0;
  std::vector<std::pair<std::string, double>> corpus;
  corpus.reserve(day_counts.size());
  for (const auto& [rank, weight] : day_counts) {
    corpus.push_back({log.QueryText(rank), weight});
  }
  BagOfWordsFeaturizer featurizer(500);
  featurizer.Fit(corpus);
  bool has_google = false;
  bool has_www = false;
  bool has_com = false;
  for (size_t i = 0; i < featurizer.VocabularySize(); ++i) {
    const std::string name = featurizer.FeatureName(i);
    has_google |= name == "word:google";
    has_www |= name == "word:www";
    has_com |= name == "word:com";
  }
  EXPECT_TRUE(has_google);
  EXPECT_TRUE(has_www);
  EXPECT_TRUE(has_com);
}

// Reference featurization from the definitions: Tokenize, a map lookup
// per token, and the four counts straight from <cctype>.
std::vector<double> ReferenceFeatures(const BagOfWordsFeaturizer& featurizer,
                                      const std::string& text) {
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < featurizer.VocabularySize(); ++i) {
    index.emplace(featurizer.FeatureName(i).substr(5), i);  // "word:"
  }
  std::vector<double> out(featurizer.FeatureDim(), 0.0);
  for (const std::string& token : BagOfWordsFeaturizer::Tokenize(text)) {
    const auto it = index.find(token);
    if (it != index.end()) out[it->second] += 1.0;
  }
  const size_t base = featurizer.VocabularySize();
  for (char ch : text) {
    const auto byte = static_cast<unsigned char>(ch);
    if (byte < 128) out[base + 0] += 1.0;
    if (std::ispunct(byte)) out[base + 1] += 1.0;
    if (ch == '.') out[base + 2] += 1.0;
    if (std::isspace(byte)) out[base + 3] += 1.0;
  }
  return out;
}

std::string RandomWord(Rng& rng, size_t min_length, size_t max_length) {
  static const std::string kAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789";
  const size_t length =
      min_length + rng.NextBounded(max_length - min_length + 1);
  std::string word;
  for (size_t i = 0; i < length; ++i) {
    word += kAlphabet[rng.NextBounded(kAlphabet.size())];
  }
  return word;
}

// Texts mixing vocabulary words in random case, unknown words, words
// longer than any vocabulary token, punctuation, whitespace and bytes
// >= 0x80, plus the empty and punctuation-only edge cases.
std::vector<std::string> DifferentialTexts(
    const std::vector<std::string>& words, Rng& rng) {
  std::vector<std::string> texts = {"",
                                    "...!?",
                                    " \t\n ",
                                    "\x80\xff\xc3\xa9",
                                    "WWW.Google.COM? area51 51AREA",
                                    std::string(100, 'a'),
                                    words.front() + words.front()};
  static const std::string kSeparators = " .,-?!\t/:\x80\xa0\xe9\xff";
  for (int t = 0; t < 500; ++t) {
    std::string text;
    const size_t pieces = rng.NextBounded(12);
    for (size_t p = 0; p < pieces; ++p) {
      std::string piece;
      switch (rng.NextBounded(3)) {
        case 0:
          piece = words[rng.NextBounded(words.size())];
          break;
        case 1:
          piece = RandomWord(rng, 1, 6);
          break;
        default:
          piece = RandomWord(rng, 9, 30);  // Longer than every vocab word.
          break;
      }
      for (char& ch : piece) {
        if (rng.NextBounded(3) == 0) {
          ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
        }
      }
      text += piece;
      text += kSeparators[rng.NextBounded(kSeparators.size())];
    }
    texts.push_back(text);
  }
  return texts;
}

void ExpectMatchesReference(const BagOfWordsFeaturizer& featurizer,
                            const std::vector<std::string>& texts,
                            const char* label) {
  SCOPED_TRACE(label);
  std::vector<double> row;
  // The sparse overload writes into one reused row that starts at zero
  // and must be back at zero once its written coordinates are reset.
  std::vector<double> sparse_row(featurizer.FeatureDim(), 0.0);
  std::vector<size_t> written;
  for (const std::string& text : texts) {
    featurizer.Featurize(text, row);
    ASSERT_EQ(row, ReferenceFeatures(featurizer, text)) << "text: " << text;

    written.clear();
    featurizer.Featurize(text,
                         Span<double>(sparse_row.data(), sparse_row.size()),
                         written);
    ASSERT_EQ(sparse_row, row) << "text: " << text;
    std::vector<size_t> sorted = written;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "a coordinate listed twice, text: " << text;
    for (const size_t c : written) sparse_row[c] = 0.0;
    ASSERT_EQ(std::count(sparse_row.begin(), sparse_row.end(), 0.0),
              static_cast<std::ptrdiff_t>(sparse_row.size()))
        << "a written coordinate was not listed, text: " << text;
  }
}

TEST(BagOfWordsTest, ScannerMatchesTokenizeReferenceOnEveryLoadPath) {
  // 1 500 kept tokens of up to 8 bytes: the index holds them at load
  // <= 1/2, so many share a probe chain.
  Rng rng(11);
  std::vector<std::pair<std::string, double>> corpus;
  for (int i = 0; i < 3000; ++i) {
    corpus.push_back({RandomWord(rng, 1, 8) + " " + RandomWord(rng, 1, 8),
                      static_cast<double>(1 + rng.NextBounded(50))});
  }
  BagOfWordsFeaturizer featurizer(1500);
  featurizer.Fit(corpus);
  ASSERT_EQ(featurizer.VocabularySize(), 1500u);
  std::vector<std::string> words;
  for (size_t i = 0; i < featurizer.VocabularySize(); ++i) {
    words.push_back(featurizer.FeatureName(i).substr(5));
  }
  const std::vector<std::string> texts = DifferentialTexts(words, rng);

  ExpectMatchesReference(featurizer, texts, "fitted");

  auto from_text = BagOfWordsFeaturizer::Deserialize(featurizer.Serialize());
  ASSERT_TRUE(from_text.ok());
  ExpectMatchesReference(from_text.value(), texts, "text format");

  io::ByteWriter writer;
  featurizer.SerializeBinary(writer);
  io::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  auto from_binary = BagOfWordsFeaturizer::DeserializeBinary(reader);
  ASSERT_TRUE(from_binary.ok());
  ExpectMatchesReference(from_binary.value(), texts, "binary format");

  const BagOfWordsFeaturizer copy = featurizer;
  ExpectMatchesReference(copy, texts, "copy");
}

TEST(BagOfWordsTest, RepeatedVocabularyTokenCountsAtItsFirstIndex) {
  io::ByteWriter writer;
  writer.WriteU32(1);  // payload version
  writer.WriteU32(0);  // reserved
  writer.WriteU64(4);  // cap
  writer.WriteU64(4);  // token count
  for (const char* token : {"dog", "cat", "dog", "Cat"}) {
    writer.WriteString(token);
  }
  io::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  auto featurizer = BagOfWordsFeaturizer::DeserializeBinary(reader);
  ASSERT_TRUE(featurizer.ok());
  const std::vector<double> row = featurizer.value().Featurize("Dog dog CAT");
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 1.0);
  EXPECT_DOUBLE_EQ(row[2], 0.0);
  EXPECT_DOUBLE_EQ(row[3], 0.0);  // Never produced by the lowercasing scan.
}

}  // namespace
}  // namespace opthash::stream
