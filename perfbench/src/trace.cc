#include "trace.h"

#include <cstdio>
#include <cstring>

#include "measure.h"

namespace perfbench {

uint32_t Tracer::Intern(const char* name) {
  // Span names are string literals; a handful per run, so a linear scan
  // by content beats hashing.
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) return i;
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return kNoSpan;
  Record record;
  record.name = Intern(name);
  record.parent = open_.empty() ? kNoSpan : open_.back();
  record.request = request;
  record.start_ns = NowNs();
  spans_.push_back(record);
  const auto id = static_cast<uint32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t span) {
  if (span == kNoSpan) return;
  spans_[span].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::map<std::string, LayerTime> Tracer::LayerTimes() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Record& span : spans_) {
    if (span.parent != kNoSpan) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    LayerTime& layer = out[names_[span.name]];
    const int64_t duration = span.end_ns - span.start_ns;
    ++layer.count;
    layer.total_ns += duration;
    layer.self_ns += duration - child_ns[i];
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Record& span : spans_) {
    std::fprintf(file,
                 "{\"name\": \"%s\", \"request\": %llu, \"parent\": %lld, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}\n",
                 names_[span.name],
                 static_cast<unsigned long long>(span.request),
                 span.parent == kNoSpan ? -1LL
                                        : static_cast<long long>(span.parent),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

double Tracer::MeasureSpanCostNs() {
  constexpr int kPairs = 200000;
  Tracer probe(true);
  probe.spans_.reserve(kPairs);
  const int64_t start = NowNs();
  for (int i = 0; i < kPairs; ++i) {
    probe.End(probe.Begin("trace.cost", static_cast<uint64_t>(i)));
  }
  return static_cast<double>(NowNs() - start) / kPairs;
}

}  // namespace perfbench
