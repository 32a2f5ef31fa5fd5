#include "report.h"

#include <cstdio>

namespace perfbench {

void Report::Header(const std::string& key, const std::string& value) {
  std::printf("# %s: %s\n", key.c_str(), value.c_str());
}

void Report::Note(const std::string& text) {
  std::printf("# %s\n", text.c_str());
}

void Report::Phase(const std::string& name, uint64_t attempted,
                   uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  std::printf("# phase %s: attempted %llu, failed %llu\n", name.c_str(),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
}

void Report::Oracle(const std::string& name, const opthash::Status& status) {
  if (status.ok()) {
    std::printf("# oracle %s: ok\n", name.c_str());
    return;
  }
  correct_ = false;
  std::printf("# oracle %s: FAILED: %s\n", name.c_str(),
              status.ToString().c_str());
}

void Report::Set(const std::string& name, double value) {
  values_[name] = value;
  std::printf("# metric %s = %.6g\n", name.c_str(), value);
}

void Report::Fail(const std::string& reason) {
  correct_ = false;
  std::printf("# error: %s\n", reason.c_str());
}

int Report::Finish() {
  if (attempted_ == 0) Fail("no operation was attempted");
  std::string values;
  for (const auto& [name, value] : values_) {
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s\"%s\": %.17g",
                  values.empty() ? "" : ", ", name.c_str(), value);
    values += entry;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"values\": {%s}}\n",
      correct_ ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), values.c_str());
  std::fflush(stdout);
  return correct_ && failed_ == 0 ? 0 : 1;
}

}  // namespace perfbench
