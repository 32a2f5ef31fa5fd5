#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run (--trace 1). Spans wrap the
// benchmark's own calls into one library layer each; nothing inside the
// library is instrumented. A span holds its name, start, end, parent and
// the id of the request it belongs to. Spans stay in memory and are
// written out once, when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// Totals of every span that shares one name.
struct LayerTime {
  uint64_t count = 0;
  int64_t total_ns = 0;
  /// Duration minus the part covered by child spans.
  int64_t self_ns = 0;
};

class Tracer {
 public:
  static constexpr uint32_t kNoSpan = UINT32_MAX;

  /// A disabled tracer records nothing; Begin returns kNoSpan.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; its parent is the innermost span still open.
  uint32_t Begin(const char* name, uint64_t request);
  /// Closes the span Begin returned (spans close innermost first).
  void End(uint32_t span);

  size_t size() const { return spans_.size(); }

  /// Per-name totals with self time, over every closed span.
  std::map<std::string, LayerTime> LayerTimes() const;

  /// One JSON object per line: name, request, parent, start_ns, end_ns.
  bool WriteJsonLines(const std::string& path) const;

  /// Wall cost of one Begin/End pair on this host, nanoseconds (measured
  /// on a throwaway tracer, so it reflects the real recording path).
  static double MeasureSpanCostNs();

 private:
  struct Record {
    uint32_t name = 0;
    uint32_t parent = kNoSpan;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  uint32_t Intern(const char* name);

  bool enabled_;
  std::vector<Record> spans_;
  std::vector<uint32_t> open_;
  std::vector<const char*> names_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer), span_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  uint32_t span_;
};

/// The traced run's cost against the same work untraced, measured in one
/// process: each unit of a replay loop runs once through the enabled
/// tracer and once through a disabled one. The order alternates from unit
/// to unit, so neither pass always finds the caches warm.
class OverheadProbe {
 public:
  explicit OverheadProbe(Tracer& tracer) : tracer_(tracer) {}

  /// Calls unit(tracer) twice, traced and untraced. The unit must leave
  /// nothing behind that makes its second call differ from its first.
  template <typename Unit>
  void Run(Unit&& unit) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (units_ % 2 == 0);
      const int64_t start = NowNs();
      unit(traced ? tracer_ : untraced_);
      (traced ? traced_ns_ : untraced_ns_) += NowNs() - start;
    }
    ++units_;
  }

  /// (traced - untraced) / untraced over every unit so far; 0 before any.
  double Fraction() const {
    if (untraced_ns_ <= 0) return 0.0;
    return static_cast<double>(traced_ns_ - untraced_ns_) /
           static_cast<double>(untraced_ns_);
  }

 private:
  Tracer& tracer_;
  Tracer untraced_{false};
  int64_t traced_ns_ = 0;
  int64_t untraced_ns_ = 0;
  uint64_t units_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
