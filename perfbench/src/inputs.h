#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded input generation. The program under test sees only the keys
// these produce; the benchmark keeps the element index behind every key,
// which is what its exact counter counts.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace perfbench {

/// Bijective 64-bit mix (the SplitMix64 finalizer): element index -> key,
/// so keys spread over the whole u64 range and distinct indices never
/// collide.
inline uint64_t KeyOf(uint64_t index) {
  uint64_t z = index + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Zipf(s) over ranks [1, n] by rejection-inversion (Hörmann & Derflinger
/// 1996): O(1) per draw with no table, so multi-million-rank universes
/// cost nothing to set up.
class ZipfDraw {
 public:
  ZipfDraw(size_t n, double s)
      : n_(static_cast<double>(n)), s_(s) {
    h_x1_ = HIntegral(1.5) - 1.0;
    h_n_ = HIntegral(n_ + 0.5);
    threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }

  /// A rank in [1, n].
  size_t operator()(opthash::Rng& rng) const {
    for (;;) {
      const double uniform =
          static_cast<double>(rng.NextUint64() >> 11) * 0x1.0p-53;
      const double u = h_n_ + uniform * (h_x1_ - h_n_);
      const double x = HIntegralInverse(u);
      double k = std::floor(x + 0.5);
      if (k < 1.0) k = 1.0;
      if (k > n_) k = n_;
      if (k - x <= threshold_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<size_t>(k);
      }
    }
  }

 private:
  // (exp(x) - 1) / x and log(1 + x) / x, continuous at 0.
  static double Expm1OverX(double x) {
    return std::fabs(x) > 1e-8 ? std::expm1(x) / x : 1.0 + x / 2.0;
  }
  static double Log1pOverX(double x) {
    return std::fabs(x) > 1e-8 ? std::log1p(x) / x : 1.0 - x / 2.0;
  }
  double H(double x) const { return std::exp(-s_ * std::log(x)); }
  double HIntegral(double x) const {
    const double log_x = std::log(x);
    return Expm1OverX((1.0 - s_) * log_x) * log_x;
  }
  double HIntegralInverse(double x) const {
    double t = x * (1.0 - s_);
    if (t < -1.0) t = -1.0;
    return std::exp(Log1pOverX(t) * x);
  }

  double n_;
  double s_;
  double h_x1_ = 0.0;
  double h_n_ = 0.0;
  double threshold_ = 0.0;
};

/// `count` Zipf draws as zero-based element indices.
inline std::vector<uint32_t> ZipfIndices(size_t count, size_t universe,
                                         double s, opthash::Rng& rng) {
  const ZipfDraw draw(universe, s);
  std::vector<uint32_t> out(count);
  for (uint32_t& index : out) index = static_cast<uint32_t>(draw(rng) - 1);
  return out;
}

inline std::vector<uint64_t> KeysOf(const std::vector<uint32_t>& indices) {
  std::vector<uint64_t> keys(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) keys[i] = KeyOf(indices[i]);
  return keys;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
