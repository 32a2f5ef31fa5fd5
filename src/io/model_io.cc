#include "io/model_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"
#include "io/bytes.h"

namespace opthash::io {

namespace {
constexpr const char* kTextBundleMagic = "opthash.bundle.v1";

// Byte offsets inside the estimator payload (docs/FORMATS.md §3.7).
constexpr size_t kEstimatorHeaderBytes = 24;
constexpr size_t kEstimatorBucketsOffset = 8;
constexpr size_t kEstimatorTableOffset = 16;
}  // namespace

const char* SnapshotFormatName(SnapshotFormat format) {
  return format == SnapshotFormat::kBinary ? "binary" : "text";
}

Result<SnapshotFormat> ParseSnapshotFormat(const std::string& name) {
  if (name == "text") return SnapshotFormat::kText;
  if (name == "binary") return SnapshotFormat::kBinary;
  return Status::InvalidArgument("unknown format (want text|binary): " +
                                 name);
}

Status SaveModelBundle(const std::string& path, const ModelBundle& bundle,
                       SnapshotFormat format) {
  OPTHASH_CHECK_MSG(bundle.estimator.has_value(),
                    "SaveModelBundle without a trained estimator");
  if (format == SnapshotFormat::kText) {
    std::ostringstream out;
    out << kTextBundleMagic << '\n';
    bundle.featurizer.SerializeTo(out);
    out << bundle.estimator->Serialize();
    // Write-then-rename, matching SnapshotWriter::WriteToFile: the
    // common `apply --model m --out m` cycle must never destroy the
    // previous good model on a crash or full disk.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
      if (!file) return Status::InvalidArgument("cannot write: " + tmp);
      file << out.str();
      file.flush();
      if (!file.good()) {
        std::remove(tmp.c_str());
        return Status::Internal("short write to " + tmp);
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return Status::Internal("cannot rename " + tmp + " over " + path);
    }
    return Status::OK();
  }
  ByteWriter featurizer;
  bundle.featurizer.SerializeBinary(featurizer);
  ByteWriter estimator;
  bundle.estimator->SerializeBinary(estimator);
  SnapshotWriter writer;
  writer.AddSection(SectionType::kFeaturizer, featurizer.TakeBytes());
  writer.AddSection(SectionType::kOptHashEstimator, estimator.TakeBytes());
  return writer.WriteToFile(path);
}

Result<SnapshotFormat> DetectFileFormat(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot read: " + path);
  char magic[sizeof(kSnapshotMagic)] = {};
  file.read(magic, sizeof(magic));
  if (file.gcount() >= static_cast<std::streamsize>(sizeof(magic)) &&
      std::memcmp(magic, kSnapshotMagic, sizeof(magic)) == 0) {
    return SnapshotFormat::kBinary;
  }
  const std::string text_magic(kTextBundleMagic);
  if (std::string(magic, static_cast<size_t>(file.gcount())) ==
      text_magic.substr(0, sizeof(magic))) {
    return SnapshotFormat::kText;
  }
  return Status::InvalidArgument("not an opthash model or snapshot: " +
                                 path);
}

namespace {

Result<ModelBundle> LoadTextBundle(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot read: " + path);
  std::string magic;
  file >> magic;
  if (magic != kTextBundleMagic) {
    return Status::InvalidArgument("not an opthash model bundle: " + path);
  }
  auto featurizer = stream::BagOfWordsFeaturizer::DeserializeFrom(file);
  if (!featurizer.ok()) return featurizer.status();
  std::stringstream rest;
  rest << file.rdbuf();
  auto estimator = core::OptHashEstimator::Deserialize(rest.str());
  if (!estimator.ok()) return estimator.status();
  ModelBundle bundle;
  bundle.featurizer = std::move(featurizer).value();
  bundle.estimator = std::move(estimator).value();
  return bundle;
}

Result<ModelBundle> LoadBinaryBundle(const std::string& path) {
  auto reader = SnapshotReader::Open(path);
  if (!reader.ok()) return reader.status();
  const SnapshotView& view = reader.value().view();
  const SnapshotSection* featurizer_section =
      view.Find(SectionType::kFeaturizer);
  const SnapshotSection* estimator_section =
      view.Find(SectionType::kOptHashEstimator);
  if (featurizer_section == nullptr || estimator_section == nullptr) {
    return Status::InvalidArgument(
        path +
        " is a snapshot but not a model bundle (featurizer + "
        "estimator sections required)");
  }
  ByteReader featurizer_in(featurizer_section->payload);
  auto featurizer =
      stream::BagOfWordsFeaturizer::DeserializeBinary(featurizer_in);
  if (!featurizer.ok()) return featurizer.status();
  OPTHASH_IO_RETURN_IF_ERROR(featurizer_in.ExpectFullyConsumed());
  ByteReader estimator_in(estimator_section->payload);
  auto estimator = core::OptHashEstimator::DeserializeBinary(estimator_in);
  if (!estimator.ok()) return estimator.status();
  OPTHASH_IO_RETURN_IF_ERROR(estimator_in.ExpectFullyConsumed());
  ModelBundle bundle;
  bundle.featurizer = std::move(featurizer).value();
  bundle.estimator = std::move(estimator).value();
  return bundle;
}

}  // namespace

Result<ModelBundle> LoadModelBundle(const std::string& path) {
  auto format = DetectFileFormat(path);
  if (!format.ok()) return format.status();
  return format.value() == SnapshotFormat::kBinary ? LoadBinaryBundle(path)
                                                   : LoadTextBundle(path);
}

BundleQueryEngine::BundleQueryEngine(const ModelBundle& bundle)
    : bundle_(bundle) {
  OPTHASH_CHECK_MSG(bundle.estimator.has_value(),
                    "BundleQueryEngine needs a bundle with an estimator");
}

void BundleQueryEngine::EstimateBlock(
    Span<const stream::TraceRecord> queries, Span<double> out) {
  OPTHASH_CHECK_EQ(queries.size(), out.size());
  ids_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) ids_[i] = queries[i].id;
  // The lazy path probes the table once per id and calls back only for
  // the misses, each featurized sparsely into the workspace's one row.
  bundle_.estimator->EstimateBatchLazy(
      Span<const uint64_t>(ids_.data(), ids_.size()),
      bundle_.featurizer.FeatureDim(), out, workspace_,
      [this, &queries](size_t i, Span<double> row,
                       std::vector<size_t>& written) {
        bundle_.featurizer.Featurize(queries[i].text, row, written);
      });
}

Result<MappedEstimatorView> MappedEstimatorView::Open(
    const std::string& path, bool verify_crc) {
  auto snapshot = MappedSnapshot::Open(path, verify_crc);
  if (!snapshot.ok()) return snapshot.status();
  const SnapshotSection* section =
      snapshot.value().view().Find(SectionType::kOptHashEstimator);
  if (section == nullptr) {
    return Status::InvalidArgument(path + " holds no estimator section");
  }
  const Span<const uint8_t> payload = section->payload;
  if (payload.size() < kEstimatorHeaderBytes) {
    return Status::InvalidArgument("estimator payload shorter than header");
  }
  const uint32_t version = LoadLittleU32(payload.data());
  if (version != 1) {
    return Status::InvalidArgument(
        "unsupported estimator payload version " + std::to_string(version));
  }
  const uint64_t num_buckets =
      LoadLittleU64(payload.data() + kEstimatorBucketsOffset);
  const uint64_t table_size =
      LoadLittleU64(payload.data() + kEstimatorTableOffset);
  // Fixed layout: freq[B] f64, count[B] f64, ids[T] u64, buckets[T] i32.
  const size_t body = payload.size() - kEstimatorHeaderBytes;
  if (num_buckets == 0 || num_buckets > body / (2 * sizeof(double)) ||
      table_size > (body - 2 * sizeof(double) * num_buckets) /
                       (sizeof(uint64_t) + sizeof(int32_t))) {
    return Status::InvalidArgument(
        "estimator geometry disagrees with payload size");
  }
  MappedEstimatorView view;
  view.num_buckets_ = static_cast<size_t>(num_buckets);
  view.table_size_ = static_cast<size_t>(table_size);
  const uint8_t* cursor = payload.data() + kEstimatorHeaderBytes;
  view.bucket_freq_ = cursor;
  cursor += num_buckets * sizeof(double);
  view.bucket_count_ = cursor;
  cursor += num_buckets * sizeof(double);
  view.ids_ = cursor;
  cursor += table_size * sizeof(uint64_t);
  view.buckets_ = cursor;
  view.snapshot_ = std::move(snapshot).value();
  return view;
}

int32_t MappedEstimatorView::BucketOf(uint64_t id) const {
  // Binary search over the mapped, ascending-sorted id column.
  size_t lo = 0;
  size_t hi = table_size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t probe = LoadLittleU64(ids_ + mid * sizeof(uint64_t));
    if (probe == id) {
      return LoadLittleI32(buckets_ + mid * sizeof(int32_t));
    }
    if (probe < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return -1;
}

uint64_t MappedEstimatorView::StoredId(size_t index) const {
  return LoadLittleU64(ids_ + index * sizeof(uint64_t));
}

double MappedEstimatorView::Estimate(uint64_t id) const {
  const int32_t bucket = BucketOf(id);
  if (bucket < 0) return 0.0;
  const auto j = static_cast<size_t>(bucket);
  if (j >= num_buckets_) return 0.0;  // Corrupt entry; fail closed.
  const double count = LoadLittleDouble(bucket_count_ + j * sizeof(double));
  if (count <= 0.0) return 0.0;
  return LoadLittleDouble(bucket_freq_ + j * sizeof(double)) / count;
}

void MappedEstimatorView::EstimateBatch(Span<const uint64_t> ids,
                                        Span<double> out) const {
  OPTHASH_CHECK_EQ(ids.size(), out.size());
  constexpr size_t kChunk = 256;
  int32_t buckets[kChunk];
  for (size_t base = 0; base < ids.size(); base += kChunk) {
    const size_t chunk = std::min(kChunk, ids.size() - base);
    // Pass 1: route — the binary searches probe the mapped id column back
    // to back while its upper levels stay cached.
    for (size_t i = 0; i < chunk; ++i) {
      buckets[i] = BucketOf(ids[base + i]);
    }
    // Pass 2: gather the bucket counter reads.
    for (size_t i = 0; i < chunk; ++i) {
      const int32_t bucket = buckets[i];
      if (bucket < 0 || static_cast<size_t>(bucket) >= num_buckets_) {
        out[base + i] = 0.0;  // Untracked, or corrupt entry; fail closed.
        continue;
      }
      const auto j = static_cast<size_t>(bucket);
      const double count =
          LoadLittleDouble(bucket_count_ + j * sizeof(double));
      out[base + i] =
          count <= 0.0
              ? 0.0
              : LoadLittleDouble(bucket_freq_ + j * sizeof(double)) / count;
    }
  }
}

}  // namespace opthash::io
