#include "stream/features.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>
#include <unordered_map>

#include "common/check.h"

namespace opthash::stream {

namespace {

// Byte classes the featurizer reads, one bit each.
constexpr uint8_t kAlnum = 1u << 0;
constexpr uint8_t kPunct = 1u << 1;
constexpr uint8_t kSpace = 1u << 2;

struct ByteClass {
  uint8_t flags = 0;
  char lower = 0;
};

using ByteTable = std::array<ByteClass, 256>;

// The token rule and the count features' classes, built once from
// <cctype>. Nothing in the library calls setlocale, so this is the "C"
// locale: ASCII letters and digits form tokens, bytes >= 0x80 never do.
const ByteTable& ByteClasses() {
  static const ByteTable table = [] {
    ByteTable classes{};
    for (int byte = 0; byte < 256; ++byte) {
      ByteClass& entry = classes[static_cast<size_t>(byte)];
      if (std::isalnum(byte)) entry.flags |= kAlnum;
      if (std::ispunct(byte)) entry.flags |= kPunct;
      if (std::isspace(byte)) entry.flags |= kSpace;
      entry.lower = static_cast<char>(std::tolower(byte));
    }
    return classes;
  }();
  return table;
}

char LowerOf(const ByteTable& classes, char ch) {
  return classes[static_cast<unsigned char>(ch)].lower;
}

// FNV-1a over a token's lowercased bytes, one step per byte of the scan.
constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

uint64_t HashStep(uint64_t hash, char lowered) {
  return (hash ^ static_cast<unsigned char>(lowered)) * 0x100000001b3ULL;
}

// The one character pass behind Tokenize and Featurize: on_byte(byte,
// flags) for every byte of `text`, and on_token(begin, length, hash) for
// every maximal run of alphanumeric bytes, `hash` being the FNV-1a hash of
// the run lowercased.
template <typename ByteFn, typename TokenFn>
void ScanText(const std::string& text, ByteFn on_byte, TokenFn on_token) {
  const ByteTable& classes = ByteClasses();
  const char* data = text.data();
  size_t begin = 0;
  size_t length = 0;
  uint64_t hash = kHashSeed;
  for (size_t i = 0; i < text.size(); ++i) {
    const auto byte = static_cast<unsigned char>(data[i]);
    const ByteClass entry = classes[byte];
    if ((entry.flags & kAlnum) != 0) {
      if (length == 0) begin = i;
      ++length;
      hash = HashStep(hash, entry.lower);
    } else if (length != 0) {
      on_token(data + begin, length, hash);
      length = 0;
      hash = kHashSeed;
    }
    on_byte(byte, entry.flags);
  }
  if (length != 0) on_token(data + begin, length, hash);
}

// Calls on_token(token) with every token of `text` lowercased, built in
// the caller's reused `buffer`.
template <typename TokenFn>
void ForEachToken(const std::string& text, std::string& buffer,
                  TokenFn on_token) {
  const ByteTable& classes = ByteClasses();
  ScanText(
      text, [](unsigned char /*byte*/, uint8_t /*flags*/) {},
      [&](const char* begin, size_t length, uint64_t /*hash*/) {
        buffer.resize(length);
        for (size_t i = 0; i < length; ++i) {
          buffer[i] = LowerOf(classes, begin[i]);
        }
        on_token(buffer);
      });
}

}  // namespace

BagOfWordsFeaturizer::BagOfWordsFeaturizer(size_t vocabulary_size)
    : vocabulary_size_(vocabulary_size) {}

std::vector<std::string> BagOfWordsFeaturizer::Tokenize(
    const std::string& text) {
  std::vector<std::string> tokens;
  std::string buffer;
  ForEachToken(text, buffer,
               [&](const std::string& token) { tokens.push_back(token); });
  return tokens;
}

void BagOfWordsFeaturizer::BuildIndex() {
  const ByteTable& classes = ByteClasses();
  OPTHASH_CHECK_LT(vocabulary_.size(), size_t{UINT32_MAX});
  size_t capacity = 8;
  while (capacity < 2 * vocabulary_.size()) capacity *= 2;
  index_.assign(capacity, IndexSlot{});
  max_token_length_ = 0;
  for (size_t t = 0; t < vocabulary_.size(); ++t) {
    const std::string& token = vocabulary_[t];
    // Only non-empty lowercase alphanumeric tokens come out of the scan;
    // any other entry (a hand-written file may hold one) can never match.
    const bool scannable =
        !token.empty() && std::all_of(token.begin(), token.end(), [&](char c) {
          const ByteClass& entry = classes[static_cast<unsigned char>(c)];
          return (entry.flags & kAlnum) != 0 && entry.lower == c;
        });
    if (!scannable) continue;
    uint64_t hash = kHashSeed;
    for (char c : token) hash = HashStep(hash, c);
    IndexSlot& slot = index_[ProbeSlot(token.data(), token.size(), hash)];
    // A repeated token keeps its first index.
    if (slot.token_plus_one != 0) continue;
    slot.hash_tag = static_cast<uint32_t>(hash >> 32);
    slot.token_plus_one = static_cast<uint32_t>(t + 1);
    max_token_length_ = std::max(max_token_length_, token.size());
  }
}

size_t BagOfWordsFeaturizer::ProbeSlot(const char* begin, size_t length,
                                       uint64_t hash) const {
  const ByteTable& classes = ByteClasses();
  const size_t mask = index_.size() - 1;
  const auto tag = static_cast<uint32_t>(hash >> 32);
  // Load factor <= 1/2, so the probe always reaches an empty slot.
  for (size_t slot = static_cast<size_t>(hash ^ (hash >> 32)) & mask;;
       slot = (slot + 1) & mask) {
    const IndexSlot entry = index_[slot];
    if (entry.token_plus_one == 0) return slot;
    if (entry.hash_tag != tag) continue;
    const std::string& token = vocabulary_[entry.token_plus_one - 1];
    if (token.size() == length &&
        std::equal(begin, begin + length, token.begin(),
                   [&](char scanned, char stored) {
                     return LowerOf(classes, scanned) == stored;
                   })) {
      return slot;
    }
  }
}

void BagOfWordsFeaturizer::Fit(
    const std::vector<std::pair<std::string, double>>& weighted_texts) {
  std::unordered_map<std::string, double> token_weight;
  std::string buffer;
  for (const auto& [text, weight] : weighted_texts) {
    ForEachToken(text, buffer, [&, w = weight](const std::string& token) {
      token_weight[token] += w;
    });
  }
  std::vector<std::pair<std::string, double>> ranked(token_weight.begin(),
                                                     token_weight.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // Deterministic tie-break.
  });
  if (ranked.size() > vocabulary_size_) ranked.resize(vocabulary_size_);

  vocabulary_.clear();
  vocabulary_.reserve(ranked.size());
  for (const auto& [token, weight] : ranked) vocabulary_.push_back(token);
  BuildIndex();
  fitted_ = true;
}

std::vector<double> BagOfWordsFeaturizer::Featurize(
    const std::string& text) const {
  OPTHASH_CHECK_MSG(fitted_, "Featurize before Fit");
  std::vector<double> features(FeatureDim(), 0.0);
  FeaturizeZeroed(text, Span<double>(features.data(), features.size()),
                  nullptr);
  return features;
}

void BagOfWordsFeaturizer::Featurize(const std::string& text,
                                     std::vector<double>& out) const {
  OPTHASH_CHECK_MSG(fitted_, "Featurize before Fit");
  // Reuse the caller's buffer: resize only when the dimension changes
  // (first call) — no per-query allocation afterwards.
  if (out.size() != FeatureDim()) out.resize(FeatureDim());
  std::fill(out.begin(), out.end(), 0.0);
  FeaturizeZeroed(text, Span<double>(out.data(), out.size()), nullptr);
}

void BagOfWordsFeaturizer::Featurize(const std::string& text,
                                     Span<double> row,
                                     std::vector<size_t>& written) const {
  OPTHASH_CHECK_MSG(fitted_, "Featurize before Fit");
  OPTHASH_CHECK_EQ(row.size(), FeatureDim());
  FeaturizeZeroed(text, row, &written);
}

void BagOfWordsFeaturizer::FeaturizeZeroed(
    const std::string& text, Span<double> out,
    std::vector<size_t>* written) const {
  // The four §7.3 count features, folded into the same character pass.
  size_t chars = 0;
  size_t punctuation = 0;
  size_t dots = 0;
  size_t spaces = 0;
  ScanText(
      text,
      [&](unsigned char byte, uint8_t flags) {
        chars += byte < 128 ? 1 : 0;
        punctuation += (flags & kPunct) != 0 ? 1 : 0;
        dots += byte == '.' ? 1 : 0;
        spaces += (flags & kSpace) != 0 ? 1 : 0;
      },
      [&](const char* begin, size_t length, uint64_t hash) {
        if (length > max_token_length_) return;
        const IndexSlot entry = index_[ProbeSlot(begin, length, hash)];
        if (entry.token_plus_one == 0) return;
        double& count = out[entry.token_plus_one - 1];
        // The row starts at zero, so a zero count marks a first write.
        if (written != nullptr && count == 0.0) {
          written->push_back(entry.token_plus_one - 1);
        }
        count += 1.0;
      });
  const size_t base = vocabulary_.size();
  if (written != nullptr) {
    for (size_t k = 0; k < 4; ++k) written->push_back(base + k);
  }
  out[base + 0] = static_cast<double>(chars);
  out[base + 1] = static_cast<double>(punctuation);
  out[base + 2] = static_cast<double>(dots);
  out[base + 3] = static_cast<double>(spaces);
}

namespace {
constexpr const char* kFeaturizerMagic = "opthash.bow.v1";
}  // namespace

void BagOfWordsFeaturizer::SerializeTo(std::ostream& out) const {
  OPTHASH_CHECK_MSG(fitted_, "Serialize before Fit");
  out << kFeaturizerMagic << ' ' << vocabulary_size_ << ' '
      << vocabulary_.size() << '\n';
  // Tokens are lowercased alphanumerics (Tokenize output), so plain
  // whitespace separation is unambiguous.
  for (const std::string& token : vocabulary_) out << token << '\n';
}

std::string BagOfWordsFeaturizer::Serialize() const {
  std::ostringstream out;
  SerializeTo(out);
  return out.str();
}

Result<BagOfWordsFeaturizer> BagOfWordsFeaturizer::DeserializeFrom(
    std::istream& in) {
  std::string magic;
  size_t cap = 0;
  size_t count = 0;
  if (!(in >> magic >> cap >> count)) {
    return Status::InvalidArgument("truncated featurizer header");
  }
  if (magic != kFeaturizerMagic) {
    return Status::InvalidArgument("bad featurizer magic: " + magic);
  }
  if (count > cap) {
    return Status::InvalidArgument("featurizer vocabulary exceeds its cap");
  }
  BagOfWordsFeaturizer featurizer(cap);
  featurizer.vocabulary_.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    std::string token;
    if (!(in >> token)) {
      return Status::InvalidArgument("truncated featurizer vocabulary");
    }
    featurizer.vocabulary_.push_back(std::move(token));
  }
  featurizer.BuildIndex();
  featurizer.fitted_ = true;
  return featurizer;
}

Result<BagOfWordsFeaturizer> BagOfWordsFeaturizer::Deserialize(
    const std::string& blob) {
  std::istringstream in(blob);
  return DeserializeFrom(in);
}

namespace {
constexpr uint32_t kFeaturizerPayloadVersion = 1;
}  // namespace

void BagOfWordsFeaturizer::SerializeBinary(io::ByteWriter& out) const {
  OPTHASH_CHECK_MSG(fitted_, "SerializeBinary before Fit");
  out.WriteU32(kFeaturizerPayloadVersion);
  out.WriteU32(0);  // reserved
  out.WriteU64(vocabulary_size_);
  out.WriteU64(vocabulary_.size());
  for (const std::string& token : vocabulary_) out.WriteString(token);
}

Result<BagOfWordsFeaturizer> BagOfWordsFeaturizer::DeserializeBinary(
    io::ByteReader& in) {
  OPTHASH_IO_ASSIGN(version, in.ReadU32());
  if (version != kFeaturizerPayloadVersion) {
    return Status::InvalidArgument(
        "unsupported featurizer payload version " + std::to_string(version));
  }
  OPTHASH_IO_ASSIGN(reserved, in.ReadU32());
  if (reserved != 0) {
    return Status::InvalidArgument("non-zero featurizer reserved field");
  }
  OPTHASH_IO_ASSIGN(cap, in.ReadU64());
  OPTHASH_IO_ASSIGN(count, in.ReadU64());
  if (count > cap) {
    return Status::InvalidArgument("featurizer vocabulary exceeds its cap");
  }
  // Every token costs at least its 4-byte length prefix.
  if (count > in.remaining() / sizeof(uint32_t)) {
    return Status::InvalidArgument("featurizer token count exceeds payload");
  }
  BagOfWordsFeaturizer featurizer(cap);
  featurizer.vocabulary_.reserve(count);
  for (uint64_t t = 0; t < count; ++t) {
    auto token = in.ReadString();
    if (!token.ok()) return token.status();
    featurizer.vocabulary_.push_back(std::move(token).value());
  }
  featurizer.BuildIndex();
  featurizer.fitted_ = true;
  return featurizer;
}

std::string BagOfWordsFeaturizer::FeatureName(size_t index) const {
  OPTHASH_CHECK_LT(index, FeatureDim());
  if (index < vocabulary_.size()) return "word:" + vocabulary_[index];
  switch (index - vocabulary_.size()) {
    case 0:
      return "num_ascii_chars";
    case 1:
      return "num_punctuation";
    case 2:
      return "num_dots";
    default:
      return "num_whitespaces";
  }
}

}  // namespace opthash::stream
