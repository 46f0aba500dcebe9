#ifndef PERFBENCH_RNG_H_
#define PERFBENCH_RNG_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// SplitMix64: the benchmark's own generator, so that no change in the
/// engine's sources can change the data or the SQL a seed produces.
class BenchRng {
 public:
  explicit BenchRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t state_;
};

/// FNV-1a over a string (stable across platforms and library versions).
inline uint64_t Fnv1a(const std::string& s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Derives an independent stream seed from a base seed and a label.
inline uint64_t MixSeed(uint64_t seed, uint64_t label) {
  BenchRng r(seed ^ (label * 0xd1b54a32d192ed03ULL));
  return r.Next();
}

}  // namespace perfbench

#endif  // PERFBENCH_RNG_H_
