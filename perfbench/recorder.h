// Latency recorder owned by the benchmark: a log-linear histogram.
//
// Values below 32 get a bucket each; above that, every power of two is cut
// into 32 equal sub-buckets, so a bucket spans at most 1/32 of its lower
// bound.  A percentile reports its bucket's midpoint (clamped to the
// largest value seen), so the reported value is within 1/64 (~1.6%) of
// some value in the bucket the exact order statistic falls in.
// selftest.cc checks the bound against exact sorted samples.

#ifndef PERFBENCH_RECORDER_H_
#define PERFBENCH_RECORDER_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace perfbench {

class Recorder {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = kSub + (64 - kSubBits) * kSub;

  void Add(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    max_ = std::max(max_, v);
  }

  void Merge(const Recorder& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    max_ = std::max(max_, o.max_);
  }

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }

  // p in (0, 100]; the smallest recorded value with at least p% of the
  // samples at or below it, to the bucket resolution above.  0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p / 100.0 * double(count_))));
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const double lo = double(Lower(i));
        const double mid = lo + double(Width(i) - 1) / 2.0;
        return std::min(mid, double(max_));
      }
    }
    return double(max_);
  }

  static int Index(uint64_t v) {
    if (v < uint64_t{kSub}) return static_cast<int>(v);
    const int e = 63 - std::countl_zero(v);  // >= kSubBits
    const int sub = static_cast<int>((v >> (e - kSubBits)) & (kSub - 1));
    return kSub + (e - kSubBits) * kSub + sub;
  }
  static uint64_t Lower(int i) {
    if (i < kSub) return static_cast<uint64_t>(i);
    const int e = (i - kSub) / kSub + kSubBits;
    const uint64_t sub = static_cast<uint64_t>((i - kSub) % kSub);
    return (uint64_t{kSub} + sub) << (e - kSubBits);
  }
  static uint64_t Width(int i) {
    if (i < kSub) return 1;
    const int e = (i - kSub) / kSub + kSubBits;
    return uint64_t{1} << (e - kSubBits);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_RECORDER_H_
