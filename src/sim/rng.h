// Deterministic pseudo-random number generator for workload generation.
//
// xoshiro256** — fast, high quality, and fully reproducible across
// platforms, which matters because every benchmark in this repository must
// produce identical event streams run-to-run.
#ifndef SRC_SIM_RNG_H_
#define SRC_SIM_RNG_H_

#include <cstdint>

#include "src/sim/snapshot.h"
#include "src/sim/status.h"

namespace nova::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& word : state_) {
      z += 0x9e3779b97f4a7c15ull;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      word = x ^ (x >> 31);
    }
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). `bound` must be non-zero.
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

  // Uniform value in [lo, hi] inclusive.
  std::uint64_t Range(std::uint64_t lo, std::uint64_t hi) {
    return lo + Below(hi - lo + 1);
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli trial with probability `p`.
  bool Chance(double p) { return NextDouble() < p; }

  // The generator is its state: saving the four words mid-stream and
  // loading them into any Rng resumes the exact sequence.
  Status SaveState(SnapWriter& w) const { return w.Save(*this); }
  Status LoadState(SnapReader& r) { return r.Restore(*this); }
  template <class Ar>
  void Io(Ar& ar) {
    ar.Io(state_);
  }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace nova::sim

#endif  // SRC_SIM_RNG_H_
