// The benchmark's key generator: seeded RNG, Zipf ranks, and the mapping
// from a client's key slice to 64-bit keys and values.
//
// Every draw comes from one Rng per (seed, workload, client), so a client's
// operation stream is a pure function of those three — the table only ever
// sees the generated keys.  Clients own disjoint key slices: key index i of
// client c is key i * clients + c + 1, so no two clients touch one key and
// each can keep an exact model of its own slice.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// xoshiro256**, seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) {
      seed = SplitMix64(seed);
      w = seed;
    }
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // Uniform in [0, 1).
  double Unit() { return double(Next() >> 11) * 0x1.0p-53; }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Zipf ranks over [0, n) with skew theta < 1 (Gray et al., "Quickly
// generating billion-record synthetic databases"); rank 0 is hottest.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }
  uint64_t Draw(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

// A seeded bijection on [0, n): which slice indices the hot Zipf ranks
// land on depends on the seed.
class RankPermutation {
 public:
  RankPermutation(uint64_t n, Rng& rng) : n_(n) {
    mult_ = (rng.Next() % n) | 1;
    while (std::gcd(mult_, n) != 1) mult_ += 2;
    offset_ = rng.Below(n);
  }
  uint64_t operator()(uint64_t rank) const {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(rank) * mult_ + offset_) % n_);
  }

 private:
  uint64_t n_, mult_ = 1, offset_ = 0;
};

inline uint64_t KeyOf(uint64_t index, int clients, int client) {
  return index * uint64_t(clients) + uint64_t(client) + 1;
}

// Values are never 0 (0 marks "absent" in the model) and differ per write,
// so a find that returns a stale or foreign value is caught.
inline uint64_t ValueOf(uint64_t key, uint64_t version) {
  return SplitMix64(key * 0x2545F4914F6CDD1Dull + version) | 1;
}

// Exact model of one client's key slice: the value of every index (0 =
// absent) plus present/absent pools for O(1) uniform picks.
class SliceModel {
 public:
  explicit SliceModel(uint64_t universe)
      : value_(universe, 0), pos_(universe), absent_(universe) {
    for (uint64_t i = 0; i < universe; ++i) {
      absent_[i] = static_cast<uint32_t>(i);
      pos_[i] = static_cast<uint32_t>(i);
    }
  }
  uint64_t universe() const { return value_.size(); }
  uint64_t live() const { return present_.size(); }
  uint64_t absent() const { return absent_.size(); }
  uint64_t value(uint64_t i) const { return value_[i]; }
  uint64_t PickPresent(Rng& rng) const {
    return present_[rng.Below(present_.size())];
  }
  uint64_t PickAbsent(Rng& rng) const {
    return absent_[rng.Below(absent_.size())];
  }
  // Sets index i's value; 0 removes it.
  void Set(uint64_t i, uint64_t v) {
    const bool was = value_[i] != 0, is = v != 0;
    value_[i] = v;
    if (was == is) return;
    std::vector<uint32_t>& from = was ? present_ : absent_;
    std::vector<uint32_t>& to = was ? absent_ : present_;
    const uint32_t p = pos_[i];
    from[p] = from.back();
    pos_[from[p]] = p;
    from.pop_back();
    pos_[i] = static_cast<uint32_t>(to.size());
    to.push_back(static_cast<uint32_t>(i));
  }

 private:
  std::vector<uint64_t> value_;
  std::vector<uint32_t> pos_;  // position of index i in its pool
  std::vector<uint32_t> present_, absent_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
